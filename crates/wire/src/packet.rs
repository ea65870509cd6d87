//! Complete gradient data packets and the in-switch trim operation.
//!
//! [`GradPacket`] owns one full Ethernet frame
//! (`Ethernet → IPv4 → UDP → TrimGrad → payload sections`) and provides the
//! two operations the dataplane performs:
//!
//! * [`GradPacket::parse`] — receiver-side: validate every layer (including
//!   checksums) and expose the TrimGrad fields plus the surviving payload
//!   sections;
//! * [`GradPacket::trim_to_depth`] — switch-side: truncate the frame at a
//!   section boundary, decrement `trim_depth`, raise the DSCP to the
//!   high-priority trimmed class, and patch the IPv4/UDP lengths and
//!   checksums ([`stack::reseal`]) — everything a real trimming ASIC
//!   rewrites.

use crate::ethernet::MacAddr;
use crate::ipv4::{Ipv4Addr, DSCP_BULK, DSCP_TRIMMED};
use crate::payload::{PayloadLayout, MAX_PARTS};
use crate::stack::{self, Expect, PAYLOAD_START};
use crate::trimhdr::{self, TrimGradFields};
use crate::udp::PORT_GRADIENT;
use crate::{Result, WireError};

/// Address tuple for one gradient flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetAddrs {
    /// Source MAC.
    pub src_mac: MacAddr,
    /// Destination MAC.
    pub dst_mac: MacAddr,
    /// Source IPv4.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4.
    pub dst_ip: Ipv4Addr,
    /// UDP source port.
    pub src_port: u16,
    /// UDP destination port.
    pub dst_port: u16,
}

impl NetAddrs {
    /// The canonical addresses for gradient traffic between simulated hosts.
    #[must_use]
    pub fn between_hosts(src: u32, dst: u32) -> Self {
        Self {
            src_mac: MacAddr::for_host(src),
            dst_mac: MacAddr::for_host(dst),
            src_ip: Ipv4Addr::for_host(src),
            dst_ip: Ipv4Addr::for_host(dst),
            src_port: PORT_GRADIENT,
            dst_port: PORT_GRADIENT,
        }
    }
}

/// Byte overhead of the full header stack (Ethernet + IPv4 + UDP + TrimGrad).
pub const STACK_OVERHEAD: usize = PAYLOAD_START + trimhdr::HEADER_LEN;

/// One gradient data packet: an owned, fully-formed Ethernet frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GradPacket {
    frame: Vec<u8>,
}

/// The result of parsing a [`GradPacket`]: header fields and borrowed
/// payload sections (only the first `trim_depth` sections survive trimming).
#[derive(Debug)]
pub struct ParsedGrad<'a> {
    /// Flow addresses.
    pub net: NetAddrs,
    /// TrimGrad header fields.
    pub fields: TrimGradFields,
    /// Borrowed payload sections, `fields.trim_depth` of them.
    pub sections: Sections<'a>,
}

/// Up to [`MAX_PARTS`] borrowed payload sections, stored inline so parsing a
/// packet allocates nothing — the switch trim path parses every forwarded
/// packet. Derefs to `[&[u8]]`, so indexing, `len()`, and iteration read
/// like the `Vec` it replaced.
#[derive(Debug, Clone, Copy)]
pub struct Sections<'a> {
    refs: [&'a [u8]; MAX_PARTS],
    n: usize,
}

impl<'a> std::ops::Deref for Sections<'a> {
    type Target = [&'a [u8]];

    fn deref(&self) -> &Self::Target {
        &self.refs[..self.n]
    }
}

impl GradPacket {
    /// Builds an untrimmed packet, writing every layer directly into one
    /// frame buffer.
    ///
    /// `write_sections` fills the section payload area that follows the
    /// TrimGrad header; it receives exactly `layout.total_len()` zeroed
    /// bytes. The Ethernet/IPv4/UDP headers are written after it returns,
    /// so the UDP checksum covers the sections.
    ///
    /// # Panics
    ///
    /// Panics if `fields` describe a trimmed packet — a programming error in
    /// the packetizer, not a runtime condition.
    #[must_use]
    pub fn build_with(
        net: &NetAddrs,
        fields: TrimGradFields,
        write_sections: impl FnOnce(&mut [u8]),
    ) -> Self {
        assert_eq!(
            fields.trim_depth, fields.n_parts,
            "packets are built untrimmed"
        );
        let layout = PayloadLayout::new(fields.scheme.part_bits(), fields.coord_count as usize);
        // The one allocation per packet: this buffer is the packet. Grown
        // with `resize` rather than `vec![0; n]` — on `codec_loopback` the
        // zeroed-allocation form measured ~4% slower per round.
        #[allow(clippy::slow_vector_initialization)]
        let mut frame = Vec::new();
        frame.resize(STACK_OVERHEAD + layout.total_len(), 0);
        frame[PAYLOAD_START..STACK_OVERHEAD].copy_from_slice(&fields.to_bytes());
        write_sections(&mut frame[STACK_OVERHEAD..]);
        stack::write(&mut frame, net, DSCP_BULK);
        Self { frame }
    }

    /// Wraps an already-formed frame without validation (for the simulator's
    /// ingress path; validate with [`parse`](Self::parse)).
    #[must_use]
    pub fn from_frame(frame: Vec<u8>) -> Self {
        Self { frame }
    }

    /// The raw frame bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.frame
    }

    /// Total frame length in bytes (what occupies link capacity and queues).
    #[must_use]
    pub fn wire_len(&self) -> usize {
        self.frame.len()
    }

    /// Parses and validates every layer.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] from the individual layers; [`WireError::BadChecksum`]
    /// if the IPv4 or UDP checksum fails; [`WireError::Truncated`] if the
    /// UDP payload is shorter than `trim_depth` sections require. Only the
    /// bytes the UDP length claims are read: its checksum covers them, and
    /// nothing covers bytes past it up to the IPv4 total length.
    pub fn parse(&self) -> Result<ParsedGrad<'_>> {
        let stack = stack::read(&self.frame, Expect::Data)?;
        let fields = TrimGradFields::from_bytes(stack.udp_body)?;
        let layout = PayloadLayout::new(fields.scheme.part_bits(), fields.coord_count as usize);
        let body = &stack.udp_body[trimhdr::HEADER_LEN..];
        let depth = fields.trim_depth as usize;
        if body.len() < layout.trim_point(depth) {
            return Err(WireError::Truncated);
        }
        debug_assert!(depth <= MAX_PARTS, "from_bytes bounds trim_depth");
        let mut sections = Sections {
            refs: [&[]; MAX_PARTS],
            n: depth,
        };
        for (j, slot) in sections.refs.iter_mut().enumerate().take(depth) {
            *slot = &body[layout.section_range(j)];
        }
        Ok(ParsedGrad {
            net: stack.net,
            fields,
            sections,
        })
    }

    /// Performs the switch trim: keep only the first `depth` payload
    /// sections. This is what a trimming-capable ASIC does to the packet —
    /// truncate, rewrite `trim_depth`, promote to the high-priority DSCP,
    /// and patch the IPv4/UDP length and checksum fields.
    ///
    /// Trimming to the current depth (or deeper) is a no-op. Reliable-flagged
    /// packets refuse to trim.
    ///
    /// # Errors
    ///
    /// [`WireError::BadField`] if the packet is reliable or `depth` is 0;
    /// parse errors if the frame is malformed. A refused trim leaves the
    /// frame untouched.
    pub fn trim_to_depth(&mut self, depth: u8) -> Result<()> {
        if depth == 0 {
            return Err(WireError::BadField("trim_depth"));
        }
        let fields = self.parse()?.fields;
        if fields.flags & trimhdr::FLAG_RELIABLE != 0 {
            return Err(WireError::BadField("reliable"));
        }
        if depth >= fields.trim_depth {
            return Ok(());
        }
        let layout = PayloadLayout::new(fields.scheme.part_bits(), fields.coord_count as usize);
        self.frame
            .truncate(STACK_OVERHEAD + layout.trim_point(depth as usize));
        let trimmed = TrimGradFields {
            trim_depth: depth,
            ..fields
        };
        self.frame[PAYLOAD_START..STACK_OVERHEAD].copy_from_slice(&trimmed.to_bytes());
        stack::reseal(&mut self.frame, DSCP_TRIMMED);
        Ok(())
    }

    /// Convenience: the TrimGrad fields without full checksum validation
    /// (used on hot simulator paths where the frame was built locally).
    ///
    /// # Errors
    ///
    /// Header-level errors only.
    pub fn quick_fields(&self) -> Result<TrimGradFields> {
        TrimGradFields::from_bytes(self.frame.get(PAYLOAD_START..).unwrap_or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trimgrad_quant::SchemeId;

    fn sample_fields(coords: u16) -> TrimGradFields {
        TrimGradFields {
            scheme: SchemeId::RhtOneBit,
            n_parts: 2,
            trim_depth: 2,
            chunk_id: 0,
            msg_id: 1,
            row_id: 2,
            coord_start: 0,
            coord_count: coords,
            flags: 0,
            epoch: 3,
        }
    }

    /// A packet whose section `j` is filled with `fill[j]`.
    fn filled(net: &NetAddrs, fields: TrimGradFields, fill: &[u8]) -> GradPacket {
        let layout = PayloadLayout::new(fields.scheme.part_bits(), fields.coord_count as usize);
        GradPacket::build_with(net, fields, |body| {
            for (j, &b) in fill.iter().enumerate() {
                body[layout.section_range(j)].fill(b);
            }
        })
    }

    fn sample_packet(coords: u16) -> GradPacket {
        let net = NetAddrs::between_hosts(1, 2);
        filled(&net, sample_fields(coords), &[0xA5, 0x5A])
    }

    #[test]
    fn build_parse_roundtrip() {
        let pkt = sample_packet(360);
        assert_eq!(pkt.wire_len(), STACK_OVERHEAD + 45 + 1395);
        let p = pkt.parse().unwrap();
        assert_eq!(p.fields, sample_fields(360));
        assert_eq!(p.sections.len(), 2);
        assert_eq!(p.sections[0].len(), 45);
        assert_eq!(p.sections[1].len(), 1395);
        assert!(p.sections[0].iter().all(|&b| b == 0xA5));
        assert_eq!(p.net, NetAddrs::between_hosts(1, 2));
    }

    #[test]
    fn trim_produces_valid_small_packet() {
        let mut pkt = sample_packet(360);
        let full_len = pkt.wire_len();
        pkt.trim_to_depth(1).unwrap();
        assert_eq!(pkt.wire_len(), STACK_OVERHEAD + 45);
        assert!(pkt.wire_len() < full_len / 10, "≥90% size reduction");
        let p = pkt.parse().unwrap();
        assert_eq!(p.fields.trim_depth, 1);
        assert_eq!(p.sections.len(), 1);
        assert_eq!(p.sections[0].len(), 45);
        assert!(p.sections[0].iter().all(|&b| b == 0xA5));
        // Trimmed packets ride the high-priority DSCP (the ECN bits stay).
        let tos = pkt.as_bytes()[crate::ethernet::HEADER_LEN + 1];
        assert_eq!(tos, (DSCP_TRIMMED << 2) | crate::ipv4::ECN_ECT0);
    }

    #[test]
    fn trim_is_idempotent_and_monotone() {
        let mut pkt = sample_packet(100);
        pkt.trim_to_depth(1).unwrap();
        let after_first = pkt.clone();
        // Trimming to the same or a deeper depth changes nothing.
        pkt.trim_to_depth(1).unwrap();
        assert_eq!(pkt, after_first);
        pkt.trim_to_depth(2).unwrap();
        assert_eq!(pkt, after_first);
    }

    #[test]
    fn reliable_packets_refuse_to_trim() {
        let mut fields = sample_fields(10);
        fields.flags = trimhdr::FLAG_RELIABLE;
        let mut pkt = filled(&NetAddrs::between_hosts(1, 2), fields, &[0, 0]);
        assert_eq!(
            pkt.trim_to_depth(1).unwrap_err(),
            WireError::BadField("reliable")
        );
    }

    #[test]
    fn corrupted_frame_fails_parse() {
        let pkt = sample_packet(50);
        let mut bytes = pkt.as_bytes().to_vec();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF; // flip payload bits → UDP checksum fails
        let bad = GradPacket::from_frame(bytes);
        assert_eq!(bad.parse().unwrap_err(), WireError::BadChecksum);
    }

    #[test]
    fn truncated_frame_fails_parse() {
        let pkt = sample_packet(50);
        let mut bytes = pkt.as_bytes().to_vec();
        bytes.truncate(bytes.len() - 10); // shorter than IP total_len
        let bad = GradPacket::from_frame(bytes);
        assert_eq!(bad.parse().unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn quick_fields_matches_parse() {
        let pkt = sample_packet(75);
        assert_eq!(pkt.quick_fields().unwrap(), pkt.parse().unwrap().fields);
    }

    #[test]
    fn three_part_scheme_trims_at_both_levels() {
        let fields = TrimGradFields {
            scheme: SchemeId::MultiLevelRht,
            n_parts: 3,
            trim_depth: 3,
            ..sample_fields(64)
        };
        let mut mid = filled(&NetAddrs::between_hosts(3, 4), fields, &[1, 2, 3]);
        mid.trim_to_depth(2).unwrap();
        let p = mid.parse().unwrap();
        assert_eq!(p.sections.len(), 2);
        assert!(p.sections[1].iter().all(|&b| b == 2));
        // Trim further.
        mid.trim_to_depth(1).unwrap();
        let p = mid.parse().unwrap();
        assert_eq!(p.sections.len(), 1);
        assert!(p.sections[0].iter().all(|&b| b == 1));
    }

    #[test]
    fn crafted_overclaimed_parts_frame_is_rejected_not_panicked() {
        // Regression: a frame with valid checksums whose TrimGrad header
        // claims n_parts = trim_depth = 3 for a two-part scheme used to
        // clear header validation and panic inside the payload-layout
        // arithmetic during parse. Receive paths must reject it cleanly.
        let net = NetAddrs::between_hosts(1, 2);
        let mut fields = sample_fields(8); // RhtOneBit: really 2 parts
        fields.n_parts = 3;
        fields.trim_depth = 3;
        let mut frame = vec![0u8; STACK_OVERHEAD + 64]; // plausible-looking payload
        frame[PAYLOAD_START..STACK_OVERHEAD].copy_from_slice(&fields.to_bytes());
        stack::write(&mut frame, &net, DSCP_BULK);
        let pkt = GradPacket::from_frame(frame);
        assert_eq!(pkt.parse().unwrap_err(), WireError::BadField("n_parts"));
        assert_eq!(
            pkt.quick_fields().unwrap_err(),
            WireError::BadField("n_parts")
        );
    }
}
