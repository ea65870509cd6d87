//! The end-to-end trimmable-gradient pipeline: blob ↔ packets.

use trimgrad_collective::chunk::MessageCodec;
use trimgrad_quant::SchemeId;
use trimgrad_telemetry::Registry;
use trimgrad_trace::Tracer;
use trimgrad_wire::meta::RowMetaPacket;
use trimgrad_wire::packet::{GradPacket, NetAddrs};
use trimgrad_wire::packetize::{chunk_ranges, coords_per_packet, frame_len, PacketizeConfig};
use trimgrad_wire::reassemble::RowFrames;
use trimgrad_wire::{ethernet, WireError};

/// Pipeline configuration.
///
/// Only [`PipelineConfig::builder`] and `Default` construct one, so every
/// configuration has passed [`PipelineConfigBuilder::try_build`]'s checks:
///
/// ```
/// use trimgrad::pipeline::PipelineConfig;
/// let cfg = PipelineConfig::builder().row_len(1024).build();
/// assert_eq!((cfg.row_len(), cfg.mtu()), (1024, 1500));
/// ```
///
/// A struct literal, which would skip them, does not compile:
///
/// ```compile_fail
/// use trimgrad::pipeline::PipelineConfig;
/// let cfg = PipelineConfig { row_len: 0, ..PipelineConfig::default() };
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    scheme: SchemeId,
    row_len: usize,
    mtu: usize,
    base_seed: u64,
    /// Coordinates per frame, `coords_per_packet(scheme, mtu)`: the chunk
    /// geometry a received frame is held to.
    per_packet: usize,
}

impl PipelineConfig {
    /// Starts a builder with the paper's defaults
    /// (RHT, 2¹⁵ rows, 1500 MTU).
    #[must_use]
    pub fn builder() -> PipelineConfigBuilder {
        PipelineConfigBuilder::default()
    }

    /// Encoding scheme.
    #[must_use]
    pub fn scheme(&self) -> SchemeId {
        self.scheme
    }

    /// Row length in coordinates (2¹⁵ in the paper).
    #[must_use]
    pub fn row_len(&self) -> usize {
        self.row_len
    }

    /// IP MTU for packetization.
    #[must_use]
    pub fn mtu(&self) -> usize {
        self.mtu
    }

    /// Shared base seed.
    #[must_use]
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfigBuilder::default().build()
    }
}

/// Builder for [`PipelineConfig`].
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfigBuilder {
    scheme: SchemeId,
    row_len: usize,
    mtu: usize,
    base_seed: u64,
}

impl Default for PipelineConfigBuilder {
    fn default() -> Self {
        Self {
            scheme: SchemeId::RhtOneBit,
            row_len: 1 << 15,
            mtu: 1500,
            base_seed: 0x7472_696D,
        }
    }
}

impl PipelineConfigBuilder {
    /// Sets the encoding scheme.
    #[must_use]
    pub fn scheme(mut self, s: SchemeId) -> Self {
        self.scheme = s;
        self
    }

    /// Sets the row length.
    #[must_use]
    pub fn row_len(mut self, n: usize) -> Self {
        self.row_len = n;
        self
    }

    /// Sets the MTU.
    #[must_use]
    pub fn mtu(mut self, m: usize) -> Self {
        self.mtu = m;
        self
    }

    /// Sets the shared base seed.
    #[must_use]
    pub fn base_seed(mut self, s: u64) -> Self {
        self.base_seed = s;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics on any configuration [`try_build`](Self::try_build) rejects.
    /// Use `try_build` when the values come from untrusted configuration.
    #[must_use]
    pub fn build(self) -> PipelineConfig {
        // trimlint: allow(no-panic) -- documented panicking wrapper over try_build
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`build`](Self::build): returns a typed error instead of
    /// panicking, for configuration sourced from untrusted input (CLI flags,
    /// config files, remote peers).
    ///
    /// # Errors
    ///
    /// [`PipelineConfigError::ZeroRowLen`] for a zero row length,
    /// [`PipelineConfigError::MtuTooSmall`] when not even one coordinate fits
    /// a packet, [`PipelineConfigError::PacketTooLarge`] when a row's fullest
    /// packet overflows the 16-bit coordinate-count or IPv4 length field,
    /// [`PipelineConfigError::RowTooLong`] when a row overflows the 32-bit
    /// row-length field or needs more than 2¹⁶ packets.
    pub fn try_build(self) -> Result<PipelineConfig, PipelineConfigError> {
        let (mtu, row_len) = (self.mtu, self.row_len);
        if row_len == 0 {
            return Err(PipelineConfigError::ZeroRowLen);
        }
        if u32::try_from(row_len).is_err() {
            return Err(PipelineConfigError::RowTooLong { row_len });
        }
        // The packetizer's own geometry: what `encode` will narrow into wire
        // fields for a full row (shorter last rows only need less).
        let part_bits = self.scheme.part_bits();
        let per_packet =
            coords_per_packet(part_bits, mtu).ok_or(PipelineConfigError::MtuTooSmall { mtu })?;
        let n = self.scheme.encoded_len(row_len);
        let fullest = per_packet.min(n);
        let ip_len = frame_len(part_bits, fullest, part_bits.len()) - ethernet::HEADER_LEN;
        if u16::try_from(fullest).is_err() || u16::try_from(ip_len).is_err() {
            return Err(PipelineConfigError::PacketTooLarge { mtu });
        }
        if u16::try_from(chunk_ranges(n, per_packet).len() - 1).is_err() {
            return Err(PipelineConfigError::RowTooLong { row_len });
        }
        Ok(PipelineConfig {
            scheme: self.scheme,
            row_len: self.row_len,
            mtu: self.mtu,
            base_seed: self.base_seed,
            per_packet,
        })
    }
}

/// Errors from validating a [`PipelineConfig`] sourced from untrusted input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineConfigError {
    /// The configured row length is zero.
    ZeroRowLen,
    /// The configured MTU cannot fit the IP/UDP/TrimGrad headers plus one
    /// coordinate.
    MtuTooSmall {
        /// The offending MTU.
        mtu: usize,
    },
    /// A row's fullest packet under the configured MTU overflows the 16-bit
    /// coordinate-count or IPv4 total-length wire field.
    PacketTooLarge {
        /// The offending MTU.
        mtu: usize,
    },
    /// A row overflows the 32-bit row-length wire field, or needs more
    /// packets under the configured MTU than the 16-bit chunk id can number.
    RowTooLong {
        /// The offending row length.
        row_len: usize,
    },
}

impl core::fmt::Display for PipelineConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            Self::ZeroRowLen => f.write_str("row length must be non-zero"),
            Self::MtuTooSmall { mtu } => write!(f, "MTU {mtu} too small for one coordinate"),
            Self::PacketTooLarge { mtu } => write!(f, "MTU {mtu} overflows a 16-bit packet field"),
            Self::RowTooLong { row_len } => {
                write!(f, "row length {row_len} overflows a wire field")
            }
        }
    }
}

impl std::error::Error for PipelineConfigError {}

/// Sender-side output of [`TrimmablePipeline::encode`].
#[derive(Debug)]
pub struct TxMessage {
    /// Trimmable data packets (all rows, in row/chunk order).
    pub packets: Vec<GradPacket>,
    /// Reliable per-row metadata packets.
    pub metas: Vec<RowMetaPacket>,
    /// Original blob length.
    pub blob_len: usize,
}

impl TxMessage {
    /// Total wire bytes of the untrimmed message (data + metadata frames,
    /// Ethernet included).
    #[must_use]
    pub fn wire_bytes(&self) -> usize {
        let data: usize = self.packets.iter().map(GradPacket::wire_len).sum();
        data + self.metas.len() * trimgrad_wire::meta::FRAME_LEN
    }
}

/// The end-to-end pipeline.
#[derive(Debug, Clone)]
pub struct TrimmablePipeline {
    cfg: PipelineConfig,
    telemetry: Option<Registry>,
    tracer: Tracer,
}

impl TrimmablePipeline {
    /// Creates the pipeline.
    #[must_use]
    pub fn new(cfg: PipelineConfig) -> Self {
        Self {
            cfg,
            telemetry: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a telemetry registry: [`encode`](Self::encode) and
    /// [`decode`](Self::decode) then record row/packet/byte tallies under
    /// `core.pipeline.*` (encode: `rows_encoded`, `packets_out`, `metas_out`,
    /// `bytes_out`; decode: `rows_decoded`, `packets_in`, `packets_trimmed_in`,
    /// `parts_lost`, `coords_out`).
    #[must_use]
    pub fn with_telemetry(mut self, registry: Registry) -> Self {
        self.telemetry = Some(registry);
        self
    }

    /// Attaches a flight recorder: [`encode`](Self::encode) then runs under a
    /// `core.pipeline.encode` span and emits one `row.encoded` event per row,
    /// and [`decode`](Self::decode) runs under `core.pipeline.decode` emitting
    /// `row.decoded` (with recovered/lost coordinate counts). The pipeline has
    /// no simulated clock, so events are stamped `at = 0`.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    fn codec(&self) -> MessageCodec {
        MessageCodec::with_row_len(self.cfg.scheme, self.cfg.base_seed, self.cfg.row_len)
    }

    /// Encodes and packetizes one gradient blob.
    ///
    /// The work is [`MessageCodec::packetize_message`]; the output is
    /// byte-identical for every worker-pool width.
    #[must_use]
    pub fn encode(
        &self,
        blob: &[f32],
        epoch: u32,
        msg_id: u32,
        src_host: u32,
        dst_host: u32,
    ) -> TxMessage {
        let _span = self.tracer.span_at("core.pipeline.encode", 0);
        let codec = self.codec();
        let mut packets = Vec::new();
        // Not pre-sized: even this small block, allocated ahead of the encoded
        // rows, costs `decode` ~1 000 page faults a round (see `packetize_message`).
        let mut metas = Vec::new();
        codec.packetize_message(
            blob,
            &PacketizeConfig {
                mtu: self.cfg.mtu,
                net: NetAddrs::between_hosts(src_host, dst_host),
                msg_id,
                row_id: 0, // message-wide template: each row gets its own index
                epoch,
            },
            &self.tracer,
            0,
            |pr| {
                packets.extend(pr.packets);
                metas.push(pr.meta);
            },
        );
        let tx = TxMessage {
            packets,
            metas,
            blob_len: blob.len(),
        };
        if let Some(reg) = &self.telemetry {
            reg.counter("core.pipeline.rows_encoded")
                .add(tx.metas.len() as u64);
            reg.counter("core.pipeline.packets_out")
                .add(tx.packets.len() as u64);
            reg.counter("core.pipeline.metas_out")
                .add(tx.metas.len() as u64);
            reg.counter("core.pipeline.bytes_out")
                .add(tx.wire_bytes() as u64);
        }
        tx
    }

    /// Decodes a message from whatever packets arrived. Packets may be
    /// trimmed to any depth, duplicated, or missing entirely (lost
    /// coordinates decode to 0); metadata packets must all be present (they
    /// are the reliable channel).
    ///
    /// Each row's frames are indexed by chunk ([`RowFrames`]) and decoded
    /// from their sections where they lie — one run per chunk — into the
    /// row's slice of the output, bit for bit what reassembling the frames
    /// into planes and decoding those would give.
    ///
    /// # Errors
    ///
    /// Wire-level errors from malformed packets, or
    /// [`WireError::BadField`] when a packet belongs to a different message.
    /// A metadata packet of another message, epoch or scheme, or one longer
    /// than a row, is refused as `BadField("msg_id" | "epoch" | "scheme" |
    /// "original_len")` before it sizes any buffer. A data frame goes through
    /// the checks of `RowAssembler::ingest`, in arrival order, and one more:
    /// a frame that does not carry the coordinate range its chunk id has
    /// under this pipeline's geometry is refused as `BadField("coord
    /// range")`.
    pub fn decode(
        &self,
        packets: &[GradPacket],
        metas: &[RowMetaPacket],
        epoch: u32,
        msg_id: u32,
    ) -> Result<Vec<f32>, WireError> {
        let _span = self.tracer.span_at("core.pipeline.decode", 0);
        let codec = self.codec();
        // Index rows by the row id the metadata declares, so metadata
        // arrival order does not matter.
        let mut rows: Vec<Option<&RowMetaPacket>> = vec![None; metas.len()];
        for meta in metas {
            for (foreign, field) in [
                (meta.msg_id != msg_id, "msg_id"),
                (meta.epoch != epoch, "epoch"),
                (meta.scheme != self.cfg.scheme, "scheme"),
                (
                    meta.original_len as usize > self.cfg.row_len,
                    "original_len",
                ),
            ] {
                if foreign {
                    return Err(WireError::BadField(field));
                }
            }
            let slot = rows
                .get_mut(meta.row_id as usize)
                .ok_or(WireError::BadField("row_id"))?;
            *slot = Some(meta);
        }
        let rows: Vec<&RowMetaPacket> = rows
            .into_iter()
            .map(|meta| meta.ok_or(WireError::BadField("missing row meta")))
            .collect::<Result<_, _>>()?;
        // The output goes before the frame index, which keeps the loopback
        // round's peak RSS lowest (EXPERIMENTS.md, "Frames are the encoded
        // row").
        let mut out = vec![0.0; rows.iter().map(|m| m.original_len as usize).sum()];
        let mut rows: Vec<RowFrames<'_>> = rows
            .into_iter()
            .map(|meta| RowFrames::from_meta(meta, self.cfg.per_packet))
            .collect();
        // Ingest stays serial: packets may interleave rows arbitrarily, and
        // the first malformed packet must surface in arrival order.
        let mut trimmed_in = 0u64;
        let mut parts_lost = 0u64;
        for pkt in packets {
            let fields = pkt.quick_fields()?;
            if fields.msg_id != msg_id {
                return Err(WireError::BadField("msg_id"));
            }
            if fields.trim_depth < fields.n_parts {
                trimmed_in += 1;
                parts_lost += u64::from(fields.n_parts) - u64::from(fields.trim_depth);
            }
            let row = rows
                .get_mut(fields.row_id as usize)
                .ok_or(WireError::BadField("row_id"))?;
            row.ingest(pkt)?;
        }
        codec.decode_assembled_into(&rows, epoch, msg_id, &self.tracer, 0, &mut out)?;
        if let Some(reg) = &self.telemetry {
            reg.counter("core.pipeline.rows_decoded")
                .add(rows.len() as u64);
            reg.counter("core.pipeline.packets_in")
                .add(packets.len() as u64);
            reg.counter("core.pipeline.packets_trimmed_in")
                .add(trimmed_in);
            reg.counter("core.pipeline.parts_lost").add(parts_lost);
            reg.counter("core.pipeline.coords_out")
                .add(out.len() as u64);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trimgrad_hadamard::prng::Xoshiro256StarStar;

    fn blob(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = Xoshiro256StarStar::new(seed);
        (0..n).map(|_| rng.next_f32_range(-1.0, 1.0)).collect()
    }

    fn pipe(scheme: SchemeId) -> TrimmablePipeline {
        TrimmablePipeline::new(
            PipelineConfig::builder()
                .scheme(scheme)
                .row_len(1024)
                .build(),
        )
    }

    #[test]
    fn builder_defaults_match_paper() {
        let c = PipelineConfig::default();
        assert_eq!(c.scheme, SchemeId::RhtOneBit);
        assert_eq!(c.row_len, 32_768);
        assert_eq!(c.mtu, 1500);
    }

    #[test]
    #[should_panic(expected = "MTU 50 too small")]
    fn builder_rejects_tiny_mtu() {
        let _ = PipelineConfig::builder().mtu(50).build();
    }

    #[test]
    fn try_build_returns_typed_errors() {
        assert_eq!(
            PipelineConfig::builder()
                .row_len(0)
                .try_build()
                .unwrap_err(),
            PipelineConfigError::ZeroRowLen
        );
        assert_eq!(
            PipelineConfig::builder().mtu(60).try_build().unwrap_err(),
            PipelineConfigError::MtuTooSmall { mtu: 60 }
        );
        let cfg = PipelineConfig::builder().try_build().unwrap();
        assert_eq!(cfg.row_len, 32_768);
        // Geometry that would overflow a wire field inside `encode` is
        // rejected up front...
        use PipelineConfigError::{PacketTooLarge, RowTooLong};
        for (mtu, row_len, err) in [
            (1_000_000, 1 << 20, PacketTooLarge { mtu: 1_000_000 }),
            (70_000, 1 << 16, PacketTooLarge { mtu: 70_000 }),
            (101, 1 << 22, RowTooLong { row_len: 1 << 22 }),
            (1500, 1 << 25, RowTooLong { row_len: 1 << 25 }),
        ] {
            let built = PipelineConfig::builder().mtu(mtu).row_len(row_len);
            assert_eq!(built.try_build().unwrap_err(), err);
        }
        // ...and whatever is accepted round-trips a full row.
        for mtu in [1500, 9000, 101] {
            let cfg = PipelineConfig::builder().mtu(mtu).try_build().unwrap();
            let p = TrimmablePipeline::new(cfg);
            let b = blob(cfg.row_len, mtu as u64);
            let tx = p.encode(&b, 0, 0, 1, 2);
            let dec = p.decode(&tx.packets, &tx.metas, 0, 0).unwrap();
            assert!(trimgrad_quant::error::nmse(&dec, &b) < 1e-6, "mtu {mtu}");
        }
    }

    #[test]
    fn lossless_roundtrip_all_schemes() {
        for scheme in SchemeId::ALL {
            let p = pipe(scheme);
            let b = blob(2500, 1);
            let tx = p.encode(&b, 3, 7, 1, 2);
            assert_eq!(tx.metas.len(), 3); // ⌈2500/1024⌉
            assert!(tx.wire_bytes() > 2500 * 4); // payload + headers
            let dec = p.decode(&tx.packets, &tx.metas, 3, 7).unwrap();
            assert_eq!(dec.len(), b.len());
            for (d, v) in dec.iter().zip(&b) {
                assert!((d - v).abs() < 1e-4, "{scheme}: {d} vs {v}");
            }
        }
    }

    #[test]
    fn trimmed_roundtrip_degrades_gracefully() {
        let p = pipe(SchemeId::RhtOneBit);
        let b = blob(4096, 2);
        let tx = p.encode(&b, 0, 0, 1, 2);
        let mut errs = Vec::new();
        for trim_every in [usize::MAX, 2, 1] {
            let mut packets = tx.packets.clone();
            for (i, pkt) in packets.iter_mut().enumerate() {
                if trim_every != usize::MAX && i % trim_every == 0 {
                    pkt.trim_to_depth(1).unwrap();
                }
            }
            let dec = p.decode(&packets, &tx.metas, 0, 0).unwrap();
            errs.push(trimgrad_quant::error::nmse(&dec, &b));
        }
        assert!(errs[0] < 1e-6, "untrimmed {}", errs[0]);
        assert!(errs[0] < errs[1] && errs[1] < errs[2], "{errs:?}");
        assert!(errs[2] < 1.0, "fully trimmed still informative");
    }

    #[test]
    fn lost_packets_decode_to_zero() {
        let p = pipe(SchemeId::SignMagnitude);
        let b = blob(1000, 3);
        let tx = p.encode(&b, 0, 0, 1, 2);
        // Drop every packet: decode is all zeros but correct length.
        let dec = p.decode(&[], &tx.metas, 0, 0).unwrap();
        assert_eq!(dec.len(), b.len());
        assert!(dec.iter().all(|&d| d == 0.0));
    }

    #[test]
    fn rejects_foreign_message() {
        let p = pipe(SchemeId::SignMagnitude);
        let b = blob(100, 4);
        let tx = p.encode(&b, 0, 1, 1, 2);
        assert_eq!(
            p.decode(&tx.packets, &tx.metas, 0, 2).unwrap_err(),
            WireError::BadField("msg_id")
        );
    }

    #[test]
    fn refuses_metadata_of_another_epoch() {
        // The packets and their metadata agree with each other, so only the
        // epoch argument says the row seeds are wrong.
        let p = pipe(SchemeId::RhtOneBit);
        let tx = p.encode(&blob(2500, 7), 1, 4, 1, 2);
        assert_eq!(
            p.decode(&tx.packets, &tx.metas, 2, 4).unwrap_err(),
            WireError::BadField("epoch")
        );
    }

    #[test]
    fn refuses_metadata_longer_than_a_row() {
        let p = pipe(SchemeId::RhtOneBit);
        let mut tx = p.encode(&blob(2500, 8), 0, 4, 1, 2);
        // u32::MAX would pad to 2³² coordinates: refused before allocating.
        for original_len in [1024 + 1, u32::MAX] {
            tx.metas[0].original_len = original_len;
            assert_eq!(
                p.decode(&tx.packets, &tx.metas, 0, 4).unwrap_err(),
                WireError::BadField("original_len")
            );
        }
    }

    #[test]
    fn refuses_metadata_of_another_scheme_or_message() {
        let p = pipe(SchemeId::RhtOneBit);
        let tx = p.encode(&blob(2500, 9), 0, 4, 1, 2);
        let mut foreign = tx.metas.clone();
        foreign[1].scheme = SchemeId::SignMagnitude;
        for packets in [&tx.packets[..], &[]] {
            assert_eq!(
                p.decode(packets, &foreign, 0, 4).unwrap_err(),
                WireError::BadField("scheme")
            );
        }
        let mut foreign = tx.metas.clone();
        foreign[2].msg_id = 5;
        assert_eq!(
            p.decode(&[], &foreign, 0, 4).unwrap_err(),
            WireError::BadField("msg_id")
        );
    }

    #[test]
    fn empty_blob() {
        let p = pipe(SchemeId::RhtOneBit);
        let tx = p.encode(&[], 0, 0, 1, 2);
        assert!(tx.packets.is_empty());
        assert!(tx.metas.is_empty());
        assert!(p.decode(&tx.packets, &tx.metas, 0, 0).unwrap().is_empty());
    }

    #[test]
    fn telemetry_tracks_row_survival() {
        let reg = Registry::new();
        let p = pipe(SchemeId::RhtOneBit).with_telemetry(reg.clone());
        let b = blob(4096, 6);
        let tx = p.encode(&b, 0, 0, 1, 2);
        // Trim every other data packet to heads before decode.
        let mut packets = tx.packets.clone();
        let mut expect_trimmed = 0u64;
        for (i, pkt) in packets.iter_mut().enumerate() {
            if i % 2 == 0 {
                pkt.trim_to_depth(1).unwrap();
                expect_trimmed += 1;
            }
        }
        let dec = p.decode(&packets, &tx.metas, 0, 0).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("core.pipeline.rows_encoded"), 4); // ⌈4096/1024⌉
        assert_eq!(
            snap.counter("core.pipeline.packets_out"),
            tx.packets.len() as u64
        );
        assert_eq!(
            snap.counter("core.pipeline.bytes_out"),
            tx.wire_bytes() as u64
        );
        assert_eq!(
            snap.counter("core.pipeline.packets_in"),
            packets.len() as u64
        );
        assert_eq!(
            snap.counter("core.pipeline.packets_trimmed_in"),
            expect_trimmed
        );
        assert!(snap.counter("core.pipeline.parts_lost") >= expect_trimmed);
        assert_eq!(snap.counter("core.pipeline.coords_out"), dec.len() as u64);
        assert_eq!(snap.counter("core.pipeline.rows_decoded"), 4);
    }

    #[test]
    fn tracer_records_rows_and_reports_lost_coords() {
        let reg = Registry::new();
        let tracer = Tracer::enabled(1 << 12).with_registry(reg.clone());
        let p = pipe(SchemeId::SignMagnitude).with_tracer(tracer.clone());
        let b = blob(2048, 9);
        let tx = p.encode(&b, 0, 7, 1, 2);
        // Drop the first data packet entirely: its head coords are lost.
        let survivors = &tx.packets[1..];
        let _ = p.decode(survivors, &tx.metas, 0, 7).unwrap();
        let trace = tracer.snapshot();
        let encoded: Vec<_> = trace
            .records
            .iter()
            .filter(|r| r.event.kind_name() == "row.encoded")
            .collect();
        let decoded: Vec<_> = trace
            .records
            .iter()
            .filter_map(|r| match &r.event {
                trimgrad_trace::TraceEvent::RowDecoded { msg, row, lost, .. } => {
                    Some((*msg, *row, *lost))
                }
                _ => None,
            })
            .collect();
        assert_eq!(encoded.len(), 2); // ⌈2048/1024⌉
        assert_eq!(decoded.len(), 2);
        assert!(
            decoded.iter().map(|(_, _, lost)| lost).sum::<u32>() > 0,
            "a dropped packet must surface as lost coordinates"
        );
        assert!(decoded.iter().all(|&(msg, _, _)| msg == 7));
        assert_eq!(
            reg.snapshot()
                .counter("trace.span.core.pipeline.encode.calls"),
            1
        );
        assert_eq!(
            reg.snapshot()
                .counter("trace.span.core.pipeline.decode.calls"),
            1
        );
    }

    #[test]
    fn duplicate_packets_are_harmless() {
        let p = pipe(SchemeId::SubtractiveDither);
        let b = blob(500, 5);
        let tx = p.encode(&b, 1, 1, 1, 2);
        let mut dup = tx.packets.clone();
        dup.extend(tx.packets.iter().cloned());
        let dec = p.decode(&dup, &tx.metas, 1, 1).unwrap();
        for (d, v) in dec.iter().zip(&b) {
            assert_eq!(d.to_bits(), v.to_bits());
        }
    }
}
