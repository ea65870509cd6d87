//! Receiver-side row reassembly from trimmed and untrimmed packets.
//!
//! A [`RowAssembler`] accumulates the data packets of one row (in any order,
//! with any per-packet trim depth, with duplicates) plus its metadata packet,
//! and exposes the availability-aware [`PartialRow`] view the quant layer
//! decodes. Coordinates whose packets never arrive simply stay absent —
//! exactly the semantics of a lossy trimming fabric.
//!
//! Per packet the assembler does work proportional to the packet, never to
//! the row: section bytes are copied into the row parts, the coordinate
//! range is filled into each part's word-backed presence mask, and a running
//! present-count per part grows by exactly the mask bits that fill flipped
//! (so duplicates and less-trimmed re-deliveries are not counted twice).
//! Every completeness question — [`RowAssembler::coords_received`],
//! [`heads_complete`](RowAssembler::heads_complete),
//! [`is_complete`](RowAssembler::is_complete), the Full / Masked / Absent
//! choice of [`partial_row`](RowAssembler::partial_row) — reads those
//! counters and never rescans a mask.
//!
//! A receiver whose frames outlive the decode needs no planes at all:
//! [`RowFrames`] indexes each frame by its chunk and hands the decoder its
//! sections where they lie, one run per chunk. Both make the same checks
//! of a frame, in the same order; `RowFrames` adds one, that a frame
//! carries the coordinates its chunk id names.

use crate::meta::RowMetaPacket;
use crate::packet::{GradPacket, ParsedGrad};
use crate::packetize::chunk_ranges;
use crate::payload::MAX_PARTS;
use crate::trimhdr::TrimGradFields;
use crate::{Result, WireError};
use trimgrad_quant::bitpack::{BitBuf, BitMask};
use trimgrad_quant::scheme::{DecodeError, PartView, PartialRow, RowMeta, Run, RunSource};
use trimgrad_quant::SchemeId;

/// The row a data frame must belong to.
#[derive(Debug, Clone, Copy)]
struct RowIdentity {
    scheme: SchemeId,
    msg_id: u32,
    row_id: u32,
    /// Encoded (padded) row length.
    n: usize,
    /// Fixed by the metadata or the first frame; `None` before either.
    epoch: Option<u32>,
}

impl RowIdentity {
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
}

/// Reassembles one row from its packets.
#[derive(Debug, Clone)]
pub struct RowAssembler {
    scheme: SchemeId,
    msg_id: u32,
    row_id: u32,
    n: usize,
    parts: Vec<BitBuf>,
    masks: Vec<BitMask>,
    /// `present[k] == masks[k].count_present()`, kept up to date by `ingest`.
    present: Vec<usize>,
    meta: Option<RowMeta>,
    epoch: Option<u32>,
}

impl RowAssembler {
    /// Creates an assembler for a known row identity and length.
    #[must_use]
    pub fn new(scheme: SchemeId, msg_id: u32, row_id: u32, original_len: usize) -> Self {
        let n = scheme.encoded_len(original_len);
        let part_bits = scheme.part_bits();
        Self {
            scheme,
            msg_id,
            row_id,
            n,
            parts: part_bits
                .iter()
                .map(|&w| BitBuf::zeroed(n * w as usize))
                .collect(),
            masks: part_bits.iter().map(|_| BitMask::absent(n)).collect(),
            present: vec![0; part_bits.len()],
            meta: None,
            epoch: None,
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
        a.epoch = Some(meta.epoch);
        a
    }

    /// The row's scheme.
    #[must_use]
    pub fn scheme(&self) -> SchemeId {
        self.scheme
    }

    /// The encoded (padded) length.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The training epoch, once any packet has been ingested.
    #[must_use]
    pub fn epoch(&self) -> Option<u32> {
        self.epoch
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
    /// [`WireError::BadField`] if the identity or geometry disagrees with
    /// what the assembler was created for, or the epoch with the one an
    /// earlier packet already fixed.
    pub fn ingest_meta(&mut self, meta: &RowMetaPacket) -> Result<()> {
        if meta.scheme != self.scheme || meta.msg_id != self.msg_id || meta.row_id != self.row_id {
            return Err(WireError::BadField("row identity"));
        }
        if meta.scheme.encoded_len(meta.original_len as usize) != self.n {
            return Err(WireError::BadField("original_len"));
        }
        if self.epoch.is_some_and(|e| e != meta.epoch) {
            return Err(WireError::BadField("epoch"));
        }
        self.meta = Some(meta.row_meta());
        self.epoch = Some(meta.epoch);
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
    /// belongs to a different row or exceeds the row bounds.
    // trimlint: hot-path -- per-packet reassembly on the receive path
    pub fn ingest(&mut self, pkt: &GradPacket) -> Result<()> {
        let identity = RowIdentity {
            scheme: self.scheme,
            msg_id: self.msg_id,
            row_id: self.row_id,
            n: self.n,
            epoch: self.epoch,
        };
        let parsed = identity.check(pkt, |_| true)?;
        let f = &parsed.fields;
        self.epoch = Some(f.epoch);
        let (start, count) = (f.coord_start as usize, f.coord_count as usize);
        let part_bits = self.scheme.part_bits();
        for (k, (section, &w)) in parsed.sections.iter().zip(part_bits).enumerate() {
            let w = w as usize;
            // Zero-copy: section bytes land straight in the row part's
            // backing store, no intermediate BitBuf per packet.
            self.parts[k].write_bits_from_bytes(start * w, section, count * w);
            self.present[k] += self.masks[k].set_range(start, start + count, true);
        }
        Ok(())
    }

    /// [`RowAssembler::ingest`] that also records a
    /// [`trimgrad_trace::TraceEvent::RowAssembled`] on the ingest that
    /// completes the row's head sections (the decodable-prefix milestone).
    /// With a disabled tracer this is exactly `ingest` plus one branch.
    ///
    /// # Errors
    ///
    /// Same as [`RowAssembler::ingest`].
    pub fn ingest_traced(
        &mut self,
        pkt: &GradPacket,
        tracer: &trimgrad_trace::Tracer,
        at: u64,
    ) -> Result<()> {
        if !tracer.is_enabled() {
            return self.ingest(pkt);
        }
        let missing_heads = self.n - self.coords_received();
        self.ingest(pkt)?;
        if missing_heads > 0 && self.heads_complete() {
            tracer.emit(at, || trimgrad_trace::TraceEvent::RowAssembled {
                msg: self.msg_id,
                row: self.row_id,
                coords: trimgrad_trace::sat32(self.coords_received()),
            });
        }
        Ok(())
    }

    /// Number of coordinates whose head (part 0) has arrived.
    #[must_use]
    pub fn coords_received(&self) -> usize {
        self.present.first().copied().unwrap_or(0)
    }

    /// Whether every coordinate arrived at full depth.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.present.iter().all(|&count| count == self.n)
    }

    /// Whether every coordinate's head arrived (possibly trimmed deeper).
    #[must_use]
    pub fn heads_complete(&self) -> bool {
        self.coords_received() == self.n
    }

    /// The availability view for decoding.
    #[must_use]
    pub fn partial_row(&self) -> PartialRow<'_> {
        let parts = self
            .parts
            .iter()
            .zip(self.masks.iter().zip(&self.present))
            .map(|(buf, (mask, &present))| {
                if present == self.n {
                    PartView::Full(buf)
                } else if present == 0 {
                    PartView::Absent
                } else {
                    PartView::Masked {
                        buf,
                        present: mask.clone(),
                    }
                }
            })
            .collect();
        PartialRow { n: self.n, parts }
    }
}

/// One row's surviving data frames, read where they lie: the receive
/// path's alternative to [`RowAssembler`] when the frames outlive the
/// decode. No plane or mask is built. Each chunk of the row — the sender's
/// geometry, [`chunk_ranges`]`(n, per_packet)` — keeps each part's section
/// as the last frame carrying that part left it, exactly the bytes an
/// assembler would hold there, and the row reaches the decoder as one
/// [`Run`] per chunk ([`RunSource`]).
#[derive(Debug, Clone)]
pub struct RowFrames<'a> {
    identity: RowIdentity,
    meta: RowMeta,
    per_packet: usize,
    /// Per chunk, each part's section; empty until a frame carried it.
    chunks: Vec<[&'a [u8]; MAX_PARTS]>,
}

impl<'a> RowFrames<'a> {
    /// An empty row for its received metadata packet, whose frames carry
    /// `per_packet` coordinates each (the last one fewer).
    ///
    /// # Panics
    ///
    /// Panics if `per_packet` is zero.
    #[must_use]
    pub fn from_meta(meta: &RowMetaPacket, per_packet: usize) -> Self {
        let n = meta.scheme.encoded_len(meta.original_len as usize);
        Self {
            identity: RowIdentity {
                scheme: meta.scheme,
                msg_id: meta.msg_id,
                row_id: meta.row_id,
                n,
                epoch: Some(meta.epoch),
            },
            meta: meta.row_meta(),
            per_packet,
            chunks: vec![[&[][..]; MAX_PARTS]; chunk_ranges(n, per_packet).len()],
        }
    }

    /// The encoded (padded) length.
    #[must_use]
    pub fn n(&self) -> usize {
        self.identity.n
    }

    /// Row metadata.
    #[must_use]
    pub fn meta(&self) -> &RowMeta {
        &self.meta
    }

    /// Indexes one data frame (trimmed or not, duplicate or not) by its
    /// chunk. A frame refused here leaves the row as it was.
    ///
    /// # Errors
    ///
    /// The errors of [`RowAssembler::ingest`], from the same checks in the
    /// same order, and one more: a frame whose `(coord_start, coord_count)`
    /// is not the range its `chunk_id` has in this row is refused as
    /// [`WireError::BadField`]`("coord range")`, so no two chunks ever
    /// claim a coordinate.
    // trimlint: hot-path -- per-packet indexing on the receive path
    pub fn ingest(&mut self, pkt: &'a GradPacket) -> Result<()> {
        let (n, per_packet) = (self.identity.n, self.per_packet);
        let parsed = self.identity.check(pkt, |f| {
            let start = usize::from(f.chunk_id) * per_packet;
            start < n
                && f.coord_start as usize == start
                && usize::from(f.coord_count) == per_packet.min(n - start)
        })?;
        let slot = self
            .chunks
            .get_mut(usize::from(parsed.fields.chunk_id))
            .ok_or(WireError::BadField("coord range"))?;
        for (dst, &section) in slot.iter_mut().zip(parsed.sections.iter()) {
            *dst = section;
        }
        Ok(())
    }

    /// Number of coordinates whose head (part 0) has arrived.
    #[must_use]
    pub fn coords_received(&self) -> usize {
        chunk_ranges(self.identity.n, self.per_packet)
            .zip(&self.chunks)
            .filter(|(_, parts)| !parts[0].is_empty())
            .map(|(coords, _)| coords.len())
            .sum()
    }
}

/// The frame source: one run per chunk, its parts the sections that
/// survived, read where they lie (`origin` the chunk's first coordinate).
impl RunSource for &RowFrames<'_> {
    fn runs(
        self,
        part_bits: &[u32],
        mut on_run: impl FnMut(Run<'_>),
    ) -> core::result::Result<(), DecodeError> {
        let own = self.identity.scheme.part_bits();
        if part_bits.len() != own.len() {
            return Err(DecodeError::PartCountMismatch {
                expected: part_bits.len(),
                got: own.len(),
            });
        }
        if let Some(part) = (0..own.len()).find(|&k| part_bits[k] != own[k]) {
            return Err(DecodeError::LengthMismatch {
                part,
                expected: self.n() * part_bits[part] as usize,
                got: self.n() * own[part] as usize,
            });
        }
        for (coords, parts) in chunk_ranges(self.n(), self.per_packet).zip(&self.chunks) {
            on_run(Run {
                depth: parts
                    .iter()
                    .take_while(|section| !section.is_empty())
                    .count(),
                origin: coords.start,
                coords,
                parts: *parts,
            });
        }
        Ok(())
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
    fn traced_ingest_marks_head_completion_exactly_once() {
        let row: Vec<f32> = (0..1000).map(|i| (i as f32).cos()).collect();
        let enc = SchemeId::SignMagnitude.encode(&row, 0);
        let c = cfg();
        let pr = packetize_row(&enc, &c);
        assert!(pr.packets.len() > 1, "need a multi-packet row");
        let tracer = trimgrad_trace::Tracer::enabled(64);
        let mut asm = assembler_for(&enc, &c);
        for (i, pkt) in pr.packets.iter().enumerate() {
            asm.ingest_traced(pkt, &tracer, i as u64).unwrap();
        }
        // Duplicates after completion add nothing.
        asm.ingest_traced(&pr.packets[0], &tracer, 99).unwrap();
        let trace = tracer.snapshot();
        assert_eq!(trace.records.len(), 1, "one completion event");
        assert_eq!(trace.records[0].at, pr.packets.len() as u64 - 1);
        match trace.records[0].event {
            trimgrad_trace::TraceEvent::RowAssembled { msg, row, coords } => {
                assert_eq!((msg, row), (9, 4));
                assert_eq!(coords as usize, asm.coords_received());
            }
            ref other => panic!("unexpected event {other:?}"),
        }
        // Disabled tracer: behaves exactly like plain ingest.
        let mut silent = assembler_for(&enc, &c);
        let off = trimgrad_trace::Tracer::disabled();
        for pkt in &pr.packets {
            silent.ingest_traced(pkt, &off, 0).unwrap();
        }
        assert!(silent.heads_complete());
        assert_eq!(off.events_emitted(), 0);
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
        let mut bytes = pr.packets[1].clone().into_frame();
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

    /// `rows` decoded from planes and from frames read in place.
    fn both_decodes(
        pr: &crate::packetize::PacketizedRow,
        frames: &[GradPacket],
    ) -> (Vec<u32>, Vec<u32>) {
        let per_packet =
            crate::packetize::coords_per_packet(pr.meta.scheme.part_bits(), 1500).expect("fits");
        let mut asm = RowAssembler::from_meta(&pr.meta);
        let mut row = RowFrames::from_meta(&pr.meta, per_packet);
        for frame in frames {
            asm.ingest(frame).unwrap();
            row.ingest(frame).unwrap();
        }
        assert_eq!(row.coords_received(), asm.coords_received());
        let (scheme, meta) = (pr.meta.scheme, pr.meta.row_meta());
        let planes = scheme.decode(&asm.partial_row(), &meta, 7).unwrap();
        let mut direct = vec![f32::NAN; meta.original_len];
        scheme
            .decode_runs(&row, row.n(), &meta, 7, &mut direct)
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
                let mut bytes = pr.packets[1].clone().into_frame();
                let at = crate::packet::STACK_OVERHEAD - crate::trimhdr::HEADER_LEN + 6;
                bytes[at..at + 2].copy_from_slice(&chunk_id.to_be_bytes());
                crate::stack::reseal(&mut bytes, crate::ipv4::DSCP_BULK);
                GradPacket::from_frame(bytes)
            })
            .collect();
        let mut frames = RowFrames::from_meta(&pr.meta, 360);
        frames.ingest(&pr.packets[0]).unwrap();
        for bad in &renumbered {
            let mut asm = RowAssembler::from_meta(&pr.meta);
            asm.ingest(bad).unwrap(); // the planes take any range inside the row
            assert_eq!(
                frames.ingest(bad).unwrap_err(),
                WireError::BadField("coord range")
            );
            assert_eq!(frames.coords_received(), 360, "chunk 0 as it was");
        }
        // A row read with another scheme's geometry is refused, not decoded.
        let mut out = vec![0.0; row.len()];
        let err = SchemeId::Stochastic.decode_runs(&frames, frames.n(), frames.meta(), 0, &mut out);
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
