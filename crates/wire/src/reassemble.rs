//! Receiver-side row reassembly from trimmed and untrimmed packets.
//!
//! A row's data frames arrive in any order, at any trim depth, with
//! duplicates, and its metadata packet before, among or after them.
//! Coordinates whose frames never arrive simply stay absent — exactly the
//! semantics of a lossy trimming fabric. Two receivers share one set of
//! checks (`RowIdentity`):
//!
//! * [`RowFrames`], the receive path: it keeps each accepted frame —
//!   borrowed, or owned when the frames are handed over one at a time — and
//!   hands the decoder each chunk's sections where they lie. No plane or
//!   mask is built.
//! * [`RowAssembler`], the plane view: it copies each frame's sections into
//!   zeroed row planes, keeps each coordinate's depth — the parts that
//!   arrived — and exposes the [`PartialRow`] the plane decoder reads. It is
//!   the oracle the frame path is tested against, and what the layer
//!   replays decode.
//!
//! Both answer every completeness question from running counters, never by
//! rescanning a frame table or the depths.

use crate::meta::RowMetaPacket;
use crate::packet::{GradPacket, ParsedGrad, STACK_OVERHEAD};
use crate::packetize::chunk_ranges;
use crate::payload::{PayloadLayout, MAX_PARTS};
use crate::trimhdr::TrimGradFields;
use crate::{Result, WireError};
use std::borrow::Cow;
use trimgrad_quant::bitpack::BitBuf;
use trimgrad_quant::scheme::{DecodeError, PartialRow, RowMeta, Run, RunSource};
use trimgrad_quant::SchemeId;

/// The row a data frame or metadata packet must belong to.
#[derive(Debug, Clone, Copy)]
struct RowIdentity {
    scheme: SchemeId,
    msg_id: u32,
    row_id: u32,
    /// Coordinates the row decodes to.
    original_len: usize,
    /// Encoded (padded) row length.
    n: usize,
    /// Fixed by the metadata or the first frame; `None` before either.
    epoch: Option<u32>,
}

impl RowIdentity {
    fn new(scheme: SchemeId, msg_id: u32, row_id: u32, original_len: usize) -> Self {
        Self {
            scheme,
            msg_id,
            row_id,
            original_len,
            n: scheme.encoded_len(original_len),
            epoch: None,
        }
    }

    /// Parses `pkt` and checks that it joins this row, in this order: it is
    /// this row's scheme, message and row; its coordinates lie inside the
    /// row and `owns` them; its part count is the scheme's; its epoch is the
    /// row's, once one is fixed; and every section holds exactly the bytes
    /// its coordinate count implies.
    ///
    /// # Errors
    ///
    /// Parse errors, or [`WireError::BadField`] naming the first check that
    /// fails: `"row identity"`, `"coord range"`, `"n_parts"`, `"epoch"`,
    /// `"section length"`.
    fn check<'p>(
        &self,
        pkt: &'p GradPacket,
        owns: impl FnOnce(&TrimGradFields) -> bool,
    ) -> Result<ParsedGrad<'p>> {
        let parsed = pkt.parse()?;
        let f = &parsed.fields;
        if f.scheme != self.scheme || f.msg_id != self.msg_id || f.row_id != self.row_id {
            return Err(WireError::BadField("row identity"));
        }
        let (start, count) = (f.coord_start as usize, f.coord_count as usize);
        if start + count > self.n || !owns(f) {
            return Err(WireError::BadField("coord range"));
        }
        let part_bits = self.scheme.part_bits();
        if f.n_parts as usize != part_bits.len() {
            return Err(WireError::BadField("n_parts"));
        }
        if self.epoch.is_some_and(|e| e != f.epoch) {
            return Err(WireError::BadField("epoch"));
        }
        // Defense in depth: every section must hold exactly the bytes its
        // declared coordinate count implies. `parse()` slices sections from
        // the layout's ranges, but nothing upstream is trusted here — a
        // short section would panic inside a bit copy or a decode kernel,
        // and a long one would decode garbage into the row.
        for (section, &w) in parsed.sections.iter().zip(part_bits) {
            if section.len() != (count * w as usize).div_ceil(8) {
                return Err(WireError::BadField("section length"));
            }
        }
        Ok(parsed)
    }

    /// Checks that `meta` is this row's metadata, in this order: this row's
    /// scheme, message and row; its `original_len`, which sizes the decoded
    /// row; its epoch, once one is fixed.
    ///
    /// # Errors
    ///
    /// [`WireError::BadField`] naming the first check that fails:
    /// `"row identity"`, `"original_len"`, `"epoch"`.
    fn check_meta(&self, meta: &RowMetaPacket) -> Result<()> {
        if meta.scheme != self.scheme || meta.msg_id != self.msg_id || meta.row_id != self.row_id {
            return Err(WireError::BadField("row identity"));
        }
        if meta.original_len as usize != self.original_len {
            return Err(WireError::BadField("original_len"));
        }
        if self.epoch.is_some_and(|e| e != meta.epoch) {
            return Err(WireError::BadField("epoch"));
        }
        Ok(())
    }

    /// The `owns` rule of a row cut into chunks of `per_packet`
    /// coordinates: a frame carries exactly the range its `chunk_id` has.
    fn chunk_owns(&self, per_packet: usize, f: &TrimGradFields) -> bool {
        let start = usize::from(f.chunk_id) * per_packet;
        start < self.n
            && f.coord_start as usize == start
            && usize::from(f.coord_count) == per_packet.min(self.n - start)
    }
}

/// One row's surviving data frames, read where they lie. Each chunk of the
/// row — the sender's geometry, [`chunk_ranges`]`(n, per_packet)` — keeps,
/// per part, the last accepted frame that carried that part: exactly the
/// bytes a [`RowAssembler`] would hold there. A frame supersedes every kept
/// frame of its depth or less, so a chunk never keeps more than one frame a
/// depth. The row reaches the decoder as one [`Run`] per chunk
/// ([`RunSource`]).
///
/// The frames are borrowed (`Cow::Borrowed`) when they outlive the decode,
/// or handed over (`Cow::Owned`) when they arrive one at a time.
#[derive(Debug, Clone)]
pub struct RowFrames<'a> {
    identity: RowIdentity,
    meta: Option<RowMeta>,
    per_packet: usize,
    /// Coordinates whose head arrived: the chunks holding any frame.
    received: usize,
    /// Per chunk, `[d - 1]` the kept frame of trim depth `d`, if any.
    chunks: Vec<[Option<Cow<'a, GradPacket>>; MAX_PARTS]>,
}

impl<'a> RowFrames<'a> {
    /// An empty row of `original_len` coordinates, taking frames and
    /// metadata stamped `epoch` only and frames of `per_packet` coordinates
    /// each (the last one fewer). Its metadata comes later, through
    /// [`ingest_meta`](Self::ingest_meta).
    ///
    /// # Panics
    ///
    /// Panics if `per_packet` is zero.
    #[must_use]
    pub fn new(
        scheme: SchemeId,
        epoch: u32,
        msg_id: u32,
        row_id: u32,
        original_len: usize,
        per_packet: usize,
    ) -> Self {
        let identity = RowIdentity {
            epoch: Some(epoch),
            ..RowIdentity::new(scheme, msg_id, row_id, original_len)
        };
        Self {
            meta: None,
            per_packet,
            received: 0,
            chunks: vec![Default::default(); chunk_ranges(identity.n, per_packet).len()],
            identity,
        }
    }

    /// An empty row for its received metadata packet.
    ///
    /// # Panics
    ///
    /// Panics if `per_packet` is zero.
    #[must_use]
    pub fn from_meta(meta: &RowMetaPacket, per_packet: usize) -> Self {
        Self {
            meta: Some(meta.row_meta()),
            ..Self::new(
                meta.scheme,
                meta.epoch,
                meta.msg_id,
                meta.row_id,
                meta.original_len as usize,
                per_packet,
            )
        }
    }

    /// The encoded (padded) length.
    #[must_use]
    pub fn n(&self) -> usize {
        self.identity.n
    }

    /// Row metadata: `None` until it arrived.
    #[must_use]
    pub fn meta(&self) -> Option<&RowMeta> {
        self.meta.as_ref()
    }

    /// Records the reliable metadata for this row.
    ///
    /// # Errors
    ///
    /// The errors of [`RowAssembler::ingest_meta`]; a refused packet changes
    /// nothing.
    pub fn ingest_meta(&mut self, meta: &RowMetaPacket) -> Result<()> {
        self.identity.check_meta(meta)?;
        self.meta = Some(meta.row_meta());
        Ok(())
    }

    /// Keeps one data frame (trimmed or not, duplicate or not) in its
    /// chunk, parsed and checked here and never again. A frame refused here
    /// leaves the row as it was.
    ///
    /// # Errors
    ///
    /// The errors of [`RowAssembler::ingest`], from the same checks in the
    /// same order, and one more: a frame whose `(coord_start, coord_count)`
    /// is not the range its `chunk_id` has in this row is refused as
    /// [`WireError::BadField`]`("coord range")`, so no two chunks ever
    /// claim a coordinate.
    // trimlint: hot-path -- per-packet indexing on the receive path
    pub fn ingest(&mut self, frame: Cow<'a, GradPacket>) -> Result<()> {
        let (identity, per_packet) = (&self.identity, self.per_packet);
        let fields = identity
            .check(&frame, |f| identity.chunk_owns(per_packet, f))?
            .fields;
        let kept = self
            .chunks
            .get_mut(usize::from(fields.chunk_id))
            .ok_or(WireError::BadField("coord range"))?;
        if kept.iter().all(Option::is_none) {
            self.received += usize::from(fields.coord_count);
        }
        // `check` bounds the depth by the scheme's part count: 1..=MAX_PARTS.
        let (shallower, rest) = kept.split_at_mut(usize::from(fields.trim_depth) - 1);
        shallower.iter_mut().for_each(|slot| *slot = None);
        rest[0] = Some(frame);
        Ok(())
    }

    /// Number of coordinates whose head (part 0) has arrived.
    #[must_use]
    pub fn coords_received(&self) -> usize {
        self.received
    }

    /// Whether every coordinate's head arrived (possibly trimmed deeper).
    #[must_use]
    pub fn heads_complete(&self) -> bool {
        self.received == self.identity.n
    }
}

/// The frame source: one run per chunk, part `k` read where it lies in the
/// shallowest kept frame deeper than `k` (`origin` the chunk's first
/// coordinate).
impl RunSource for &RowFrames<'_> {
    fn runs(
        self,
        part_bits: &[u32],
        mut on_run: impl FnMut(Run<'_>),
    ) -> core::result::Result<(), DecodeError> {
        self.identity.scheme.check_part_bits(part_bits, self.n())?;
        for (coords, kept) in chunk_ranges(self.n(), self.per_packet).zip(&self.chunks) {
            let layout = PayloadLayout::new(part_bits, coords.len());
            let mut run = Run {
                depth: 0,
                origin: coords.start,
                coords,
                parts: [&[]; MAX_PARTS],
            };
            while let Some(frame) = kept[run.depth..].iter().flatten().next() {
                run.parts[run.depth] =
                    &frame.as_bytes()[STACK_OVERHEAD..][layout.section_range(run.depth)];
                run.depth += 1;
            }
            on_run(run);
        }
        Ok(())
    }
}

/// Reassembles one row from its packets into whole-row planes.
#[derive(Debug, Clone)]
pub struct RowAssembler {
    identity: RowIdentity,
    parts: Vec<BitBuf>,
    /// Per coordinate, the deepest frame that covered it. Every frame
    /// carries a prefix of the parts, so this is all the row holds of it.
    depths: Vec<u8>,
    /// Coordinates of depth at least 1, kept up to date by `ingest`.
    heads: usize,
    /// Coordinates of full depth, kept up to date by `ingest`.
    full: usize,
    meta: Option<RowMeta>,
}

impl RowAssembler {
    /// Creates an assembler for a known row identity and length.
    #[must_use]
    pub fn new(scheme: SchemeId, msg_id: u32, row_id: u32, original_len: usize) -> Self {
        let identity = RowIdentity::new(scheme, msg_id, row_id, original_len);
        let (n, part_bits) = (identity.n, scheme.part_bits());
        Self {
            identity,
            parts: part_bits
                .iter()
                .map(|&w| BitBuf::zeroed(n * w as usize))
                .collect(),
            depths: vec![0; n],
            heads: 0,
            full: 0,
            meta: None,
        }
    }

    /// Creates an assembler directly from a received metadata packet.
    #[must_use]
    pub fn from_meta(meta: &RowMetaPacket) -> Self {
        let mut a = Self::new(
            meta.scheme,
            meta.msg_id,
            meta.row_id,
            meta.original_len as usize,
        );
        a.meta = Some(meta.row_meta());
        a.identity.epoch = Some(meta.epoch);
        a
    }

    /// The row's scheme.
    #[must_use]
    pub fn scheme(&self) -> SchemeId {
        self.identity.scheme
    }

    /// The encoded (padded) length.
    #[must_use]
    pub fn n(&self) -> usize {
        self.identity.n
    }

    /// The training epoch, once any packet has been ingested.
    #[must_use]
    pub fn epoch(&self) -> Option<u32> {
        self.identity.epoch
    }

    /// Row metadata: `None` until [`ingest_meta`](Self::ingest_meta) (or
    /// [`from_meta`](Self::from_meta)) supplied it — a row cannot be decoded
    /// without its scale.
    #[must_use]
    pub fn meta(&self) -> Option<&RowMeta> {
        self.meta.as_ref()
    }

    /// Records the reliable metadata for this row.
    ///
    /// # Errors
    ///
    /// [`WireError::BadField`] if the identity disagrees with what the
    /// assembler was created for (`"row identity"`), the `original_len`
    /// does (`"original_len"`), or the epoch with the one an earlier packet
    /// already fixed (`"epoch"`). A refused packet changes nothing.
    pub fn ingest_meta(&mut self, meta: &RowMetaPacket) -> Result<()> {
        self.identity.check_meta(meta)?;
        self.meta = Some(meta.row_meta());
        self.identity.epoch = Some(meta.epoch);
        Ok(())
    }

    /// Ingests one data packet (trimmed or not, duplicate or not).
    ///
    /// Availability only ever grows: a duplicate that arrives *less* trimmed
    /// than a previous copy upgrades the coordinates; a more-trimmed
    /// duplicate adds nothing but is not an error.
    ///
    /// # Errors
    ///
    /// Parse/validation errors, or [`WireError::BadField`] when the packet
    /// belongs to a different row or exceeds the row bounds. A refused
    /// packet changes nothing.
    pub fn ingest(&mut self, pkt: &GradPacket) -> Result<()> {
        let parsed = self.identity.check(pkt, |_| true)?;
        let f = &parsed.fields;
        self.identity.epoch = Some(f.epoch);
        let (start, count) = (f.coord_start as usize, f.coord_count as usize);
        let part_bits = self.identity.scheme.part_bits();
        for (k, (section, &w)) in parsed.sections.iter().zip(part_bits).enumerate() {
            let w = w as usize;
            // Zero-copy: section bytes land straight in the row part's
            // backing store, no intermediate BitBuf per packet.
            self.parts[k].write_bits_from_bytes(start * w, section, count * w);
        }
        // A frame carries its first `trim_depth` parts, which `check`
        // bounds by the part count.
        let depth = f.trim_depth;
        let full = usize::from(usize::from(depth) == part_bits.len());
        for d in &mut self.depths[start..start + count] {
            if depth > *d {
                self.heads += usize::from(*d == 0);
                self.full += full;
                *d = depth;
            }
        }
        Ok(())
    }

    /// Number of coordinates whose head (part 0) has arrived.
    #[must_use]
    pub fn coords_received(&self) -> usize {
        self.heads
    }

    /// Whether every coordinate arrived at full depth.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.full == self.identity.n
    }

    /// Whether every coordinate's head arrived (possibly trimmed deeper).
    #[must_use]
    pub fn heads_complete(&self) -> bool {
        self.coords_received() == self.identity.n
    }

    /// The availability view for decoding: the planes, lent, and one entry
    /// per run of equal depth, so the view allocates nothing row-sized.
    #[must_use]
    pub fn partial_row(&self) -> PartialRow<'_> {
        PartialRow::new(self.identity.scheme, &self.parts, &self.depths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::NetAddrs;
    use crate::packetize::{packetize_row, PacketizeConfig};

    fn cfg() -> PacketizeConfig {
        PacketizeConfig {
            mtu: 1500,
            net: NetAddrs::between_hosts(1, 2),
            msg_id: 9,
            row_id: 4,
            epoch: 2,
        }
    }

    fn assembler_for(enc: &trimgrad_quant::EncodedRow, c: &PacketizeConfig) -> RowAssembler {
        RowAssembler::new(enc.scheme, c.msg_id, c.row_id, enc.meta.original_len)
    }

    #[test]
    fn assembler_sizes_rows_by_the_one_padding_rule() {
        for id in SchemeId::ALL {
            for len in [0, 1, 63, 64, 65, 4095, 32768] {
                let row: Vec<f32> = (0..len).map(|i| (i as f32 * 0.37).sin()).collect();
                let n = id.encoded_len(len);
                assert_eq!(id.encode(&row, 5).n, n, "{id} len {len}");
                assert_eq!(RowAssembler::new(id, 0, 0, len).n(), n, "{id} len {len}");
            }
        }
    }

    #[test]
    fn lossless_roundtrip_through_packets() {
        let row: Vec<f32> = (0..1000).map(|i| ((i * 31) % 97) as f32 - 48.0).collect();
        let scheme = SchemeId::RhtOneBit;
        let seed = 77;
        let enc = scheme.encode(&row, seed);
        let c = cfg();
        let pr = packetize_row(&enc, &c);
        let mut asm = assembler_for(&enc, &c);
        asm.ingest_meta(&pr.meta).unwrap();
        for pkt in &pr.packets {
            asm.ingest(pkt).unwrap();
        }
        assert!(asm.is_complete());
        assert_eq!(asm.epoch(), Some(2));
        let dec = scheme
            .decode(&asm.partial_row(), asm.meta().unwrap(), seed)
            .unwrap();
        for (d, v) in dec.iter().zip(&row) {
            assert!((d - v).abs() < 1e-3, "{d} vs {v}");
        }
    }

    #[test]
    fn trimmed_packets_decode_with_heads() {
        let row: Vec<f32> = (0..800).map(|i| ((i as f32) * 0.37).sin()).collect();
        let scheme = SchemeId::RhtOneBit;
        let seed = 5;
        let enc = scheme.encode(&row, seed);
        let c = cfg();
        let mut pr = packetize_row(&enc, &c);
        // Trim every second packet down to heads (as a congested switch would).
        for (i, pkt) in pr.packets.iter_mut().enumerate() {
            if i % 2 == 0 {
                pkt.trim_to_depth(1).unwrap();
            }
        }
        let mut asm = assembler_for(&enc, &c);
        asm.ingest_meta(&pr.meta).unwrap();
        for pkt in &pr.packets {
            asm.ingest(pkt).unwrap();
        }
        assert!(asm.heads_complete());
        assert!(!asm.is_complete());
        let dec = scheme
            .decode(&asm.partial_row(), asm.meta().unwrap(), seed)
            .unwrap();
        // Still a decent estimate: far better than all-zeros.
        let nmse = trimgrad_quant::error::nmse(&dec, &row);
        assert!(nmse < 0.6, "nmse {nmse}");
    }

    #[test]
    fn lost_packets_leave_coords_absent() {
        let row: Vec<f32> = (0..720).map(|i| i as f32).collect();
        let enc = SchemeId::SignMagnitude.encode(&row, 0);
        let c = cfg();
        let pr = packetize_row(&enc, &c);
        assert_eq!(pr.packets.len(), 2);
        let mut asm = assembler_for(&enc, &c);
        asm.ingest_meta(&pr.meta).unwrap();
        asm.ingest(&pr.packets[0]).unwrap(); // drop packet 1 entirely
        assert_eq!(asm.coords_received(), 360);
        let dec = SchemeId::SignMagnitude
            .decode(&asm.partial_row(), asm.meta().unwrap(), 0)
            .unwrap();
        // Missing coordinates decode to the neutral 0.
        assert!(dec[360..].iter().all(|&d| d == 0.0));
        assert!((dec[0] - row[0]).abs() < 1e-6);
    }

    #[test]
    fn duplicate_upgrade_and_downgrade() {
        let row: Vec<f32> = (0..100).map(|i| i as f32 - 50.0).collect();
        let enc = SchemeId::SignMagnitude.encode(&row, 0);
        let c = cfg();
        let pr = packetize_row(&enc, &c);
        let full = pr.packets[0].clone();
        let mut trimmed = full.clone();
        trimmed.trim_to_depth(1).unwrap();

        // Trimmed first, then full: upgrades to complete.
        let mut asm = assembler_for(&enc, &c);
        asm.ingest(&trimmed).unwrap();
        assert!(!asm.is_complete());
        asm.ingest(&full).unwrap();
        assert!(asm.is_complete());

        // Full first, then trimmed duplicate: stays complete.
        let mut asm = assembler_for(&enc, &c);
        asm.ingest(&full).unwrap();
        asm.ingest(&trimmed).unwrap();
        assert!(asm.is_complete());
    }

    #[test]
    fn hand_truncated_packet_is_rejected_without_state_change() {
        // Regression: a data packet whose payload was cut mid-section (with
        // every outer length and checksum patched to look honest) must be
        // rejected by ingest without panicking and without touching the
        // already-assembled coordinates.
        let row: Vec<f32> = (0..720).map(|i| i as f32).collect();
        let enc = SchemeId::SignMagnitude.encode(&row, 0);
        let c = cfg();
        let pr = packetize_row(&enc, &c);
        assert_eq!(pr.packets.len(), 2);
        let mut asm = assembler_for(&enc, &c);
        asm.ingest(&pr.packets[0]).unwrap();
        let before = asm.coords_received();

        // Chop 7 bytes off the tail section, then reseal the stack's lengths
        // and checksums so only the TrimGrad body is short.
        let mut bytes = pr.packets[1].as_bytes().to_vec();
        bytes.truncate(bytes.len() - 7);
        crate::stack::reseal(&mut bytes, crate::ipv4::DSCP_BULK);
        let bad = GradPacket::from_frame(bytes);
        assert_eq!(
            asm.ingest(&bad).unwrap_err(),
            WireError::Truncated,
            "truncated body must not ingest"
        );
        assert_eq!(asm.coords_received(), before, "availability unchanged");
        assert_eq!(asm.epoch(), Some(c.epoch));
    }

    #[test]
    fn rejects_foreign_packets() {
        let row: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let enc = SchemeId::SignMagnitude.encode(&row, 0);
        let c = cfg();
        let pr = packetize_row(&enc, &c);
        // Wrong row id.
        let mut asm = RowAssembler::new(enc.scheme, c.msg_id, 999, row.len());
        assert_eq!(
            asm.ingest(&pr.packets[0]).unwrap_err(),
            WireError::BadField("row identity")
        );
        // Wrong meta identity.
        let mut asm = assembler_for(&enc, &c);
        let mut bad_meta = pr.meta;
        bad_meta.msg_id = 123;
        assert_eq!(
            asm.ingest_meta(&bad_meta).unwrap_err(),
            WireError::BadField("row identity")
        );
    }

    #[test]
    fn rejects_epoch_mismatch() {
        let row: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let enc = SchemeId::SignMagnitude.encode(&row, 0);
        let c1 = cfg();
        let c2 = PacketizeConfig { epoch: 3, ..c1 };
        let p1 = packetize_row(&enc, &c1);
        let p2 = packetize_row(&enc, &c2);
        let mut asm = assembler_for(&enc, &c1);
        asm.ingest(&p1.packets[0]).unwrap();
        assert_eq!(
            asm.ingest(&p2.packets[0]).unwrap_err(),
            WireError::BadField("epoch")
        );
    }

    #[test]
    fn rejects_meta_of_another_epoch() {
        let row: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let enc = SchemeId::SignMagnitude.encode(&row, 0);
        let c1 = cfg();
        let c2 = PacketizeConfig { epoch: 3, ..c1 };
        let (p1, p2) = (packetize_row(&enc, &c1), packetize_row(&enc, &c2));
        // Whichever packet comes first fixes the epoch; a meta of another
        // epoch is refused and changes nothing.
        let mut asm = assembler_for(&enc, &c1);
        asm.ingest(&p1.packets[0]).unwrap();
        assert_eq!(
            asm.ingest_meta(&p2.meta).unwrap_err(),
            WireError::BadField("epoch")
        );
        assert!(asm.meta().is_none());
        assert_eq!(asm.epoch(), Some(c1.epoch));
        let mut asm = assembler_for(&enc, &c1);
        asm.ingest_meta(&p1.meta).unwrap();
        assert_eq!(
            asm.ingest_meta(&p2.meta).unwrap_err(),
            WireError::BadField("epoch")
        );
        asm.ingest_meta(&p1.meta).unwrap();
    }

    #[test]
    fn rejects_meta_of_another_original_len() {
        // 1000 and 1024 RHT coordinates both pad to 1024: only the
        // `original_len` itself tells the forged metadata from the row's.
        let row: Vec<f32> = (0..1024).map(|i| i as f32).collect();
        let enc = SchemeId::RhtOneBit.encode(&row, 0);
        let c = cfg();
        let pr = packetize_row(&enc, &c);
        let forged = RowMetaPacket {
            original_len: 1000,
            ..pr.meta
        };
        assert_eq!(SchemeId::RhtOneBit.encoded_len(1000), enc.n);
        let mut asm = assembler_for(&enc, &c);
        let mut frames = RowFrames::new(enc.scheme, c.epoch, c.msg_id, c.row_id, 1024, 360);
        for refused in [asm.ingest_meta(&forged), frames.ingest_meta(&forged)] {
            assert_eq!(refused.unwrap_err(), WireError::BadField("original_len"));
        }
        assert!(asm.meta().is_none() && frames.meta().is_none());
        asm.ingest_meta(&pr.meta).unwrap();
        frames.ingest_meta(&pr.meta).unwrap();
        // Once the row's metadata is in, the forged one still changes nothing.
        assert!(asm.ingest_meta(&forged).is_err() && frames.ingest_meta(&forged).is_err());
        assert_eq!(
            (asm.meta(), frames.meta()),
            (Some(&enc.meta), Some(&enc.meta))
        );
    }

    #[test]
    fn metadata_is_absent_until_it_arrives() {
        let row: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let enc = SchemeId::SignMagnitude.encode(&row, 0);
        let c = cfg();
        let pr = packetize_row(&enc, &c);
        let mut asm = assembler_for(&enc, &c);
        asm.ingest(&pr.packets[0]).unwrap();
        assert!(asm.is_complete());
        assert!(asm.meta().is_none(), "no fabricated scale");
        asm.ingest_meta(&pr.meta).unwrap();
        assert_eq!(asm.meta(), Some(&enc.meta));
        assert_eq!(RowAssembler::from_meta(&pr.meta).meta(), Some(&enc.meta));
    }

    /// `frames` decoded from planes and, handed over one by one to a row
    /// built without its metadata, read in place.
    fn both_decodes(
        pr: &crate::packetize::PacketizedRow,
        frames: &[GradPacket],
    ) -> (Vec<u32>, Vec<u32>) {
        let m = &pr.meta;
        let per_packet =
            crate::packetize::coords_per_packet(m.scheme.part_bits(), 1500).expect("fits");
        let len = m.original_len as usize;
        let mut asm = RowAssembler::from_meta(m);
        let mut row = RowFrames::new(m.scheme, m.epoch, m.msg_id, m.row_id, len, per_packet);
        for frame in frames {
            asm.ingest(frame).unwrap();
            row.ingest(Cow::Owned(frame.clone())).unwrap();
            assert_eq!(row.coords_received(), asm.coords_received());
            assert_eq!(row.heads_complete(), asm.heads_complete());
        }
        assert!(row.meta().is_none(), "no fabricated scale");
        row.ingest_meta(m).unwrap();
        let (scheme, meta) = (m.scheme, m.row_meta());
        let planes = scheme.decode(&asm.partial_row(), &meta, 7).unwrap();
        let mut direct = vec![f32::NAN; meta.original_len];
        scheme
            .decode_runs(&row, row.n(), row.meta().unwrap(), 7, &mut direct)
            .unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect();
        (bits(&planes), bits(&direct))
    }

    #[test]
    fn frames_read_in_place_decode_as_their_planes_do() {
        let row: Vec<f32> = (0..1000).map(|i| ((i * 13) % 37) as f32 - 18.0).collect();
        for scheme in SchemeId::ALL {
            let enc = scheme.encode(&row, 7);
            let pr = packetize_row(&enc, &cfg());
            let mut frames: Vec<GradPacket> = pr.packets.clone();
            frames[0].trim_to_depth(1).unwrap(); // trimmed
            frames.remove(1); // lost
            frames.push(pr.packets[0].clone()); // a full duplicate, later
            frames.push(frames[0].clone()); // and a trimmed one after it
            let (planes, direct) = both_decodes(&pr, &frames);
            assert_eq!(planes, direct, "{scheme}");
        }
    }

    #[test]
    fn frames_off_their_chunk_are_refused_and_change_nothing() {
        let row: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let enc = SchemeId::SignMagnitude.encode(&row, 0);
        let pr = packetize_row(&enc, &cfg());
        // Chunk 1's frame renumbered as chunk 0, and as a chunk past the row.
        let renumbered: Vec<GradPacket> = [0u16, 3]
            .into_iter()
            .map(|chunk_id| {
                let mut bytes = pr.packets[1].as_bytes().to_vec();
                let at = crate::packet::STACK_OVERHEAD - crate::trimhdr::HEADER_LEN + 6;
                bytes[at..at + 2].copy_from_slice(&chunk_id.to_be_bytes());
                crate::stack::reseal(&mut bytes, crate::ipv4::DSCP_BULK);
                GradPacket::from_frame(bytes)
            })
            .collect();
        let mut frames = RowFrames::from_meta(&pr.meta, 360);
        frames.ingest(Cow::Borrowed(&pr.packets[0])).unwrap();
        let decoded = |frames: &RowFrames| {
            let mut out = vec![0.0; row.len()];
            let meta = frames.meta().unwrap();
            let scheme = SchemeId::SignMagnitude;
            scheme
                .decode_runs(frames, frames.n(), meta, 0, &mut out)
                .unwrap();
            out.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        };
        let before = decoded(&frames);
        for bad in &renumbered {
            let mut asm = RowAssembler::from_meta(&pr.meta);
            asm.ingest(bad).unwrap(); // the planes take any range inside the row
            assert_eq!(
                frames.ingest(Cow::Borrowed(bad)).unwrap_err(),
                WireError::BadField("coord range")
            );
            assert_eq!(frames.coords_received(), 360, "chunk 0 as it was");
            assert_eq!(decoded(&frames), before, "the row changed");
        }
        // Every frame on its chunk still joins, trimmed or not.
        let mut trimmed = pr.packets[2].clone();
        trimmed.trim_to_depth(1).unwrap();
        for frame in [&pr.packets[1], &trimmed] {
            frames.ingest(Cow::Borrowed(frame)).unwrap();
        }
        assert!(frames.heads_complete());
        // A row read with another scheme's geometry is refused, not decoded.
        let mut out = vec![0.0; row.len()];
        let meta = frames.meta().unwrap();
        let err = SchemeId::Stochastic.decode_runs(&frames, frames.n(), meta, 0, &mut out);
        assert!(matches!(
            err,
            Err(DecodeError::LengthMismatch { part: 1, .. })
        ));
    }

    #[test]
    fn empty_row_assembler() {
        let asm = RowAssembler::new(SchemeId::RhtOneBit, 1, 1, 0);
        assert_eq!(asm.n(), 0);
        assert!(asm.is_complete());
        assert_eq!(asm.coords_received(), 0);
    }
}
