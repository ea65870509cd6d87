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

use crate::meta::RowMetaPacket;
use crate::packet::GradPacket;
use crate::{Result, WireError};
use trimgrad_quant::bitpack::{BitBuf, BitMask};
use trimgrad_quant::scheme::{PartView, PartialRow, RowMeta};
use trimgrad_quant::SchemeId;

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
        let parsed = pkt.parse()?;
        let f = &parsed.fields;
        if f.scheme != self.scheme || f.msg_id != self.msg_id || f.row_id != self.row_id {
            return Err(WireError::BadField("row identity"));
        }
        let start = f.coord_start as usize;
        let count = f.coord_count as usize;
        if start + count > self.n {
            return Err(WireError::BadField("coord range"));
        }
        if f.n_parts as usize != self.parts.len() {
            return Err(WireError::BadField("n_parts"));
        }
        match self.epoch {
            None => self.epoch = Some(f.epoch),
            Some(e) if e != f.epoch => return Err(WireError::BadField("epoch")),
            Some(_) => {}
        }
        let part_bits = self.scheme.part_bits();
        // Defense in depth: every section must hold exactly the bytes its
        // declared coordinate count implies. `parse()` slices sections from
        // the layout's ranges, but nothing upstream is trusted here — a
        // short section would panic inside the bit copy below, and a long
        // one would decode garbage into the row.
        for (k, section) in parsed.sections.iter().enumerate() {
            let w = part_bits[k] as usize;
            if section.len() != (count * w).div_ceil(8) {
                return Err(WireError::BadField("section length"));
            }
        }
        for (k, section) in parsed.sections.iter().enumerate() {
            let w = part_bits[k] as usize;
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

    #[test]
    fn empty_row_assembler() {
        let asm = RowAssembler::new(SchemeId::RhtOneBit, 1, 1, 0);
        assert_eq!(asm.n(), 0);
        assert!(asm.is_complete());
        assert_eq!(asm.coords_received(), 0);
    }
}
