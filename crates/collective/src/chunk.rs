//! The message path: blob ↔ rows ↔ frames, with per-row seed derivation.
//!
//! A collective message (a gradient bucket, e.g. PyTorch DDP's 25 MB default)
//! is split into rows of `row_len` coordinates (2¹⁵ by default, per §3.2 of
//! the paper); each row is encoded independently with a seed derived from
//! `(base_seed, epoch, msg_id, row_id)`, so both sides regenerate identical
//! randomness without communicating it and trimming damage stays independent
//! across rows. [`MessageCodec::packetize_message`] and
//! [`MessageCodec::decode_assembled_into`] are the send and receive halves
//! every frame-level caller (the pipeline, the ring workers) goes through.
//! The send half packs each chunk of a row straight into its frame; the
//! receive half decodes each row where it will live, in its own slice of the
//! caller's buffer, from the frames its [`RowFrames`] kept.

use trimgrad_hadamard::prng::derive_seed;
use trimgrad_par::WorkerPool;
use trimgrad_quant::scheme::{DecodeError, EncodedRow, PartialRow, RowMeta, RowScratch};
use trimgrad_quant::SchemeId;
use trimgrad_trace::{sat32, sat64, TraceEvent, Tracer};
use trimgrad_wire::packet::GradPacket;
use trimgrad_wire::packetize::{packetize_with, PacketizeConfig, PacketizedRow};
use trimgrad_wire::reassemble::RowFrames;
use trimgrad_wire::WireError;

/// Default row length: 2¹⁵ coordinates (the paper's GPU-L1-sized rows).
pub const DEFAULT_ROW_LEN: usize = 1 << 15;

/// Splits blobs into rows and encodes/decodes them with a scheme.
#[derive(Debug)]
pub struct MessageCodec {
    scheme: SchemeId,
    row_len: usize,
    base_seed: u64,
}

impl MessageCodec {
    /// Creates a codec with an explicit row length; the paper's is
    /// [`DEFAULT_ROW_LEN`].
    ///
    /// # Panics
    ///
    /// Panics if `row_len` is zero. Use [`checked`](Self::checked) when the
    /// row length comes from untrusted configuration.
    #[must_use]
    pub fn with_row_len(scheme: SchemeId, base_seed: u64, row_len: usize) -> Self {
        assert!(row_len > 0, "zero row length");
        Self {
            scheme,
            row_len,
            base_seed,
        }
    }

    /// Fallible [`with_row_len`](Self::with_row_len): returns a typed error
    /// instead of panicking on a zero row length from untrusted config.
    ///
    /// # Errors
    ///
    /// [`CodecConfigError::ZeroRowLen`] when `row_len` is zero.
    pub fn checked(
        scheme: SchemeId,
        base_seed: u64,
        row_len: usize,
    ) -> Result<Self, CodecConfigError> {
        if row_len == 0 {
            return Err(CodecConfigError::ZeroRowLen);
        }
        Ok(Self::with_row_len(scheme, base_seed, row_len))
    }

    /// The configured scheme.
    #[must_use]
    pub fn scheme_id(&self) -> SchemeId {
        self.scheme
    }

    /// Row length in coordinates.
    #[must_use]
    pub fn row_len(&self) -> usize {
        self.row_len
    }

    /// Number of rows for a blob of `len` coordinates.
    #[must_use]
    pub fn rows_for(&self, len: usize) -> usize {
        len.div_ceil(self.row_len)
    }

    /// Coordinate range of row `row_id` in a blob of `len` coordinates
    /// (`blob.chunks(row_len)` semantics: only the last row may be short).
    /// Sender and receiver both size rows with this.
    #[must_use]
    pub fn row_range(&self, len: usize, row_id: usize) -> core::ops::Range<usize> {
        let start = row_id * self.row_len;
        start..len.min(start + self.row_len)
    }

    /// The shared seed for one row of one message.
    #[must_use]
    pub fn row_seed(&self, epoch: u32, msg_id: u32, row_id: u32) -> u64 {
        let msg_seed = derive_seed(self.base_seed, u64::from(epoch), u64::from(msg_id));
        derive_seed(msg_seed, u64::from(row_id), 1)
    }

    /// Encodes a blob into rows.
    ///
    /// Rows fan out over the process-wide [`WorkerPool`]: each worker takes
    /// one contiguous stripe of whole rows and encodes them back to back, so
    /// it stays on consecutive memory and pays one spawn/join per worker
    /// total. Row seeds depend only on the row index, so the result is
    /// bit-identical for every pool width (and to the serial encoding).
    #[must_use]
    pub fn encode_message(&self, blob: &[f32], epoch: u32, msg_id: u32) -> Vec<EncodedRow> {
        WorkerPool::global().map_striped(0..self.rows_for(blob.len()), |row_id, _| {
            self.encode_row(blob, epoch, msg_id, row_id)
        })
    }

    /// Encodes row `row_id` of `blob` under its derived seed.
    pub(crate) fn encode_row(
        &self,
        blob: &[f32],
        epoch: u32,
        msg_id: u32,
        row_id: usize,
    ) -> EncodedRow {
        self.scheme.encode(
            &blob[self.row_range(blob.len(), row_id)],
            self.row_seed(epoch, msg_id, row_id as u32),
        )
    }

    /// The send path, blob → rows → frames: stages every row of `blob`
    /// ([`SchemeId::stage`]) and packs each chunk of it straight into its
    /// MTU-sized frame (`trimgrad_wire::packetize::packetize_with` over
    /// `StagedRow::pack_range`) — no whole-row plane in between — then hands
    /// the packetized rows to `sink` in row order. `cfg` supplies the
    /// message-wide fields (MTU, addresses, message id, epoch); its `row_id`
    /// is replaced by each row's index. The frames are byte for byte those
    /// of `packetize_row` over [`encode_message`](Self::encode_message)'s
    /// rows.
    ///
    /// Rows fan out over the process-wide [`WorkerPool`], each stripe of
    /// rows reusing one [`RowScratch`]; a row's frames depend only on its
    /// index, so the output is byte-identical for every pool width. Each
    /// row's `row.encoded` event is emitted at `at` just before `sink`
    /// receives it.
    pub fn packetize_message(
        &self,
        blob: &[f32],
        cfg: &PacketizeConfig,
        tracer: &Tracer,
        at: u64,
        mut sink: impl FnMut(PacketizedRow),
    ) {
        let rows = WorkerPool::global().map_striped_with(
            0..self.rows_for(blob.len()),
            RowScratch::default,
            |scratch, row_id, _| {
                let row = &blob[self.row_range(blob.len(), row_id)];
                let seed = self.row_seed(cfg.epoch, cfg.msg_id, row_id as u32);
                let staged = self.scheme.stage(row, seed, scratch);
                let row_cfg = PacketizeConfig {
                    row_id: row_id as u32,
                    ..*cfg
                };
                packetize_with(
                    self.scheme,
                    staged.n(),
                    staged.meta(),
                    &row_cfg,
                    |part, coords, dst| {
                        staged.pack_range(part, coords, dst);
                    },
                )
            },
        );
        for (row_id, pr) in rows.into_iter().enumerate() {
            tracer.emit(at, || TraceEvent::RowEncoded {
                msg: cfg.msg_id,
                row: row_id as u32,
                packets: sat32(pr.packets.len()),
                bytes: sat64(pr.packets.iter().map(GradPacket::wire_len).sum::<usize>()),
            });
            sink(pr);
        }
    }

    /// Decodes one row view back into coordinates.
    ///
    /// # Errors
    ///
    /// Propagates [`DecodeError`].
    pub fn decode_row(
        &self,
        row: &PartialRow<'_>,
        meta: &RowMeta,
        epoch: u32,
        msg_id: u32,
        row_id: u32,
    ) -> Result<Vec<f32>, DecodeError> {
        self.scheme
            .decode(row, meta, self.row_seed(epoch, msg_id, row_id))
    }

    /// The receive path, received rows → coordinates: decodes whatever each
    /// row's frames hold, row-parallel on the process-wide
    /// [`WorkerPool`], every row straight into its own slice of `out` — rows
    /// in row order, each its `original_len` long (a row whose metadata
    /// never arrived takes none), and `out` exactly their sum. One
    /// `row.decoded` event per row is emitted at `at`, in row order, up to
    /// the first row that fails.
    ///
    /// # Errors
    ///
    /// `BadField("output length")` before anything is decoded if `out` is
    /// not that long; otherwise the first failing row, in row order:
    /// `BadField("meta")` if its metadata never arrived,
    /// `BadField("row decode")` if the scheme rejects the row's frames.
    /// After an error `out` holds unspecified values.
    pub fn decode_assembled_into(
        &self,
        rows: &[RowFrames<'_>],
        epoch: u32,
        msg_id: u32,
        tracer: &Tracer,
        at: u64,
        out: &mut [f32],
    ) -> Result<(), WireError> {
        if out.len() != assembled_lens(rows).sum::<usize>() {
            return Err(WireError::BadField("output length"));
        }
        let items = rows.iter().zip(row_slices(out, assembled_lens(rows)));
        let decoded = WorkerPool::global().map_striped(items, |row_id, (row, dst)| {
            let meta = row.meta().ok_or(WireError::BadField("meta"))?;
            let seed = self.row_seed(epoch, msg_id, row_id as u32);
            self.scheme
                .decode_runs(row, row.n(), meta, seed, dst)
                .map_err(|_| WireError::BadField("row decode"))
        });
        for (row_id, (row, dec)) in rows.iter().zip(decoded).enumerate() {
            dec?;
            tracer.emit(at, || {
                let coords = row.coords_received();
                TraceEvent::RowDecoded {
                    msg: msg_id,
                    row: row_id as u32,
                    coords: sat32(coords),
                    lost: sat32(row.n().saturating_sub(coords)),
                }
            });
        }
        Ok(())
    }

    /// Total encoded payload bits of a message (excluding metadata).
    #[must_use]
    pub fn encoded_bits(&self, rows: &[EncodedRow]) -> usize {
        rows.iter().map(EncodedRow::total_bits).sum()
    }
}

/// Coordinates each received row decodes to: its `original_len`, or none
/// while its metadata has not arrived.
fn assembled_lens<'r>(rows: &'r [RowFrames<'_>]) -> impl Iterator<Item = usize> + 'r {
    rows.iter()
        .map(|row| row.meta().map_or(0, |m| m.original_len))
}

/// Cuts `out` into consecutive slices of `lens` coordinates, one per row;
/// `lens` must not sum past `out`.
fn row_slices(mut out: &mut [f32], lens: impl Iterator<Item = usize>) -> Vec<&mut [f32]> {
    lens.map(|len| {
        let (row, rest) = core::mem::take(&mut out).split_at_mut(len);
        out = rest;
        row
    })
    .collect()
}

/// Errors from validating codec configuration sourced from untrusted input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecConfigError {
    /// The configured row length is zero.
    ZeroRowLen,
}

impl core::fmt::Display for CodecConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecConfigError::ZeroRowLen => f.write_str("row length must be non-zero"),
        }
    }
}

impl std::error::Error for CodecConfigError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;
    use trimgrad_hadamard::prng::Xoshiro256StarStar;
    use trimgrad_wire::packetize::coords_per_packet;

    /// `rows` decoded untrimmed, row by row under `c`'s row seeds: the
    /// lossless inverse of [`MessageCodec::encode_message`].
    fn decode_full(c: &MessageCodec, rows: &[EncodedRow], epoch: u32, msg_id: u32) -> Vec<f32> {
        rows.iter()
            .enumerate()
            .flat_map(|(row_id, enc)| {
                c.decode_row(&enc.full_view(), &enc.meta, epoch, msg_id, row_id as u32)
                    .unwrap()
            })
            .collect()
    }

    /// Coordinates per frame of `c`'s scheme at MTU 1500.
    fn per_packet(c: &MessageCodec) -> usize {
        coords_per_packet(c.scheme_id().part_bits(), 1500).unwrap()
    }

    fn blob(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = Xoshiro256StarStar::new(seed);
        (0..n).map(|_| rng.next_f32_range(-1.0, 1.0)).collect()
    }

    #[test]
    fn row_counting() {
        let c = MessageCodec::with_row_len(SchemeId::RhtOneBit, 0, 100);
        assert_eq!(c.rows_for(0), 0);
        assert_eq!(c.rows_for(100), 1);
        assert_eq!(c.rows_for(101), 2);
        assert_eq!(
            MessageCodec::with_row_len(SchemeId::RhtOneBit, 0, DEFAULT_ROW_LEN).row_len(),
            32_768
        );
    }

    #[test]
    fn checked_rejects_zero_row_len() {
        assert_eq!(
            MessageCodec::checked(SchemeId::RhtOneBit, 0, 0).unwrap_err(),
            CodecConfigError::ZeroRowLen
        );
        assert_eq!(
            MessageCodec::checked(SchemeId::RhtOneBit, 0, 64)
                .unwrap()
                .row_len(),
            64
        );
    }

    #[test]
    fn seeds_differ_across_all_coordinates() {
        let c = MessageCodec::with_row_len(SchemeId::RhtOneBit, 7, DEFAULT_ROW_LEN);
        let s = c.row_seed(1, 2, 3);
        assert_ne!(s, c.row_seed(2, 2, 3));
        assert_ne!(s, c.row_seed(1, 3, 3));
        assert_ne!(s, c.row_seed(1, 2, 4));
        assert_eq!(s, c.row_seed(1, 2, 3));
        let c2 = MessageCodec::with_row_len(SchemeId::RhtOneBit, 8, DEFAULT_ROW_LEN);
        assert_ne!(s, c2.row_seed(1, 2, 3));
        // Wire format: both ends must derive this exact value (recorded as
        // of PR 19, never recomputed).
        assert_eq!(s, 0x3AE4_A0BB_E566_5E40);
    }

    #[test]
    fn multi_row_roundtrip_all_schemes() {
        for scheme in SchemeId::ALL {
            let c = MessageCodec::with_row_len(scheme, 11, 64);
            let b = blob(200, 3); // 4 rows: 64+64+64+8
            let rows = c.encode_message(&b, 5, 9);
            assert_eq!(rows.len(), 4);
            let back = decode_full(&c, &rows, 5, 9);
            assert_eq!(back.len(), b.len());
            for (d, v) in back.iter().zip(&b) {
                assert!(
                    (d - v).abs() < 1e-4 + 1e-5 * v.abs(),
                    "{scheme}: {d} vs {v}"
                );
            }
        }
    }

    #[test]
    fn wrong_context_fails_to_reconstruct_rht() {
        let c = MessageCodec::with_row_len(SchemeId::RhtOneBit, 11, 64);
        let b = blob(64, 4);
        let rows = c.encode_message(&b, 5, 9);
        // Decoding under a different epoch uses different rotation seeds.
        let bad = decode_full(&c, &rows, 6, 9);
        let err: f32 = bad.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(err > 0.5, "wrong epoch should not invert (err {err})");
    }

    #[test]
    fn assembled_row_without_metadata_is_refused() {
        // A row whose every data packet arrived but whose reliable metadata
        // never did has no scale: decoding it would silently produce ±0.
        let c = MessageCodec::with_row_len(SchemeId::RhtOneBit, 11, 1024);
        let b = blob(1024, 6);
        let cfg = PacketizeConfig {
            mtu: 1500,
            net: trimgrad_wire::packet::NetAddrs::between_hosts(1, 2),
            msg_id: 9,
            row_id: 0,
            epoch: 5,
        };
        let mut rows = Vec::new();
        c.packetize_message(&b, &cfg, &Tracer::disabled(), 0, |pr| rows.push(pr));
        let mut row = RowFrames::new(c.scheme_id(), 5, 9, 0, b.len(), per_packet(&c));
        for pkt in &rows[0].packets {
            row.ingest(Cow::Borrowed(pkt)).unwrap();
        }
        assert!(row.heads_complete());
        assert!(row.meta().is_none());
        let decode = |row: &RowFrames| {
            let rows = std::slice::from_ref(row);
            let mut out = vec![0.0; assembled_lens(rows).sum()];
            c.decode_assembled_into(rows, 5, 9, &Tracer::disabled(), 0, &mut out)
                .map(|()| out)
        };
        assert_eq!(decode(&row), Err(WireError::BadField("meta")));
        row.ingest_meta(&rows[0].meta).unwrap();
        assert_eq!(decode(&row).unwrap().len(), b.len());
    }

    #[test]
    fn first_bad_row_fails_after_the_rows_before_it_decoded() {
        let c = MessageCodec::with_row_len(SchemeId::RhtOneBit, 11, 256);
        let b = blob(256 * 5, 7);
        let cfg = PacketizeConfig {
            mtu: 1500,
            net: trimgrad_wire::packet::NetAddrs::between_hosts(1, 2),
            msg_id: 9,
            row_id: 0,
            epoch: 5,
        };
        // Rows 2 and 4 never receive their metadata.
        let mut rows = Vec::new();
        c.packetize_message(&b, &cfg, &Tracer::disabled(), 0, |pr| {
            let row_id = rows.len() as u32;
            let mut row = RowFrames::new(c.scheme_id(), 5, 9, row_id, 256, per_packet(&c));
            for pkt in pr.packets {
                row.ingest(Cow::Owned(pkt)).unwrap();
            }
            if row_id != 2 && row_id != 4 {
                row.ingest_meta(&pr.meta).unwrap();
            }
            rows.push(row);
        });
        let tracer = Tracer::enabled(1 << 8);
        let mut out = vec![0.0; assembled_lens(&rows).sum::<usize>()];
        assert_eq!(
            c.decode_assembled_into(&rows, 5, 9, &tracer, 0, &mut out),
            Err(WireError::BadField("meta"))
        );
        let decoded: Vec<u32> = tracer
            .snapshot()
            .records
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::RowDecoded { row, .. } => Some(row),
                _ => None,
            })
            .collect();
        assert_eq!(decoded, [0, 1], "row 3 decoded, but past the failure");
        // A slice that is not the assembled length is refused outright.
        out.push(0.0);
        assert_eq!(
            c.decode_assembled_into(&rows, 5, 9, &tracer, 0, &mut out),
            Err(WireError::BadField("output length"))
        );
        assert_eq!(tracer.snapshot().records.len(), decoded.len());
    }

    #[test]
    fn empty_blob() {
        let c = MessageCodec::with_row_len(SchemeId::SubtractiveDither, 0, DEFAULT_ROW_LEN);
        let rows = c.encode_message(&[], 0, 0);
        assert!(rows.is_empty());
        assert!(decode_full(&c, &rows, 0, 0).is_empty());
        assert_eq!(c.encoded_bits(&rows), 0);
    }

    #[test]
    fn encoded_bits_accounting() {
        let c = MessageCodec::with_row_len(SchemeId::SignMagnitude, 0, 64);
        let rows = c.encode_message(&blob(130, 5), 0, 0);
        // 64 + 64 + 2 coordinates at 32 bits each.
        assert_eq!(c.encoded_bits(&rows), 130 * 32);
    }
}
