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
//!   checksums — everything a real trimming ASIC rewrites.

use crate::ethernet::{self, EthernetFrame, MacAddr, ETHERTYPE_IPV4};
use crate::ipv4::{self, Ipv4Addr, Ipv4Packet, DSCP_BULK, DSCP_TRIMMED, PROTO_UDP};
use crate::payload::{PayloadLayout, MAX_PARTS};
use crate::trimhdr::{self, TrimGradFields, TrimGradHeader};
use crate::udp::{self, UdpDatagram, PORT_GRADIENT};
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
pub const STACK_OVERHEAD: usize =
    ethernet::HEADER_LEN + ipv4::HEADER_LEN + udp::HEADER_LEN + trimhdr::HEADER_LEN;

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
    /// Builds an untrimmed packet from header fields and one byte slice per
    /// payload section.
    ///
    /// # Panics
    ///
    /// Panics if `sections.len() != fields.n_parts` or if a section's length
    /// does not match the layout implied by `fields` — those are programming
    /// errors in the packetizer, not runtime conditions.
    #[must_use]
    pub fn build(net: &NetAddrs, fields: TrimGradFields, sections: &[&[u8]]) -> Self {
        assert_eq!(
            sections.len(),
            fields.n_parts as usize,
            "one byte slice per part"
        );
        assert_eq!(
            fields.trim_depth, fields.n_parts,
            "packets are built untrimmed"
        );
        let layout = PayloadLayout::new(fields.scheme.part_bits(), fields.coord_count as usize);
        for (j, s) in sections.iter().enumerate() {
            assert_eq!(
                s.len(),
                layout.section_len(j),
                "section {j} length mismatch"
            );
        }
        Self::build_with(net, fields, |body| {
            let mut off = 0;
            for s in sections {
                body[off..off + s.len()].copy_from_slice(s);
                off += s.len();
            }
        })
    }

    /// Builds an untrimmed packet by writing every layer directly into one
    /// frame buffer — the single-allocation form of [`build`](Self::build).
    ///
    /// `write_sections` fills the section payload area that follows the
    /// TrimGrad header; it receives exactly `layout.total_len()` zeroed
    /// bytes. The UDP checksum is computed after `write_sections` returns, so
    /// the result is byte-identical to [`build`](Self::build).
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
        let app_len = trimhdr::HEADER_LEN + layout.total_len();
        let udp_len = udp::HEADER_LEN + app_len;
        let ip_len = ipv4::HEADER_LEN + udp_len;
        let frame_len = ethernet::HEADER_LEN + ip_len;
        // The one allocation per packet: this buffer is the packet. Grown
        // with `resize` rather than `vec![0; n]` — on `codec_loopback` the
        // zeroed-allocation form measured ~4% slower per round.
        #[allow(clippy::slow_vector_initialization)]
        let mut frame = Vec::new();
        frame.resize(frame_len, 0);
        ethernet::write_header(&mut frame, net.dst_mac, net.src_mac, ETHERTYPE_IPV4);
        let ip_len_field = crate::narrow::to_u16(ip_len, "IPv4 total length");
        ipv4::write_header(
            &mut frame[ethernet::HEADER_LEN..],
            net.src_ip,
            net.dst_ip,
            PROTO_UDP,
            DSCP_BULK,
            ip_len_field,
        );
        let udp_start = ethernet::HEADER_LEN + ipv4::HEADER_LEN;
        let udp_len_field = crate::narrow::to_u16(udp_len, "UDP length");
        udp::write_header(
            &mut frame[udp_start..],
            net.src_port,
            net.dst_port,
            udp_len_field,
        );
        let app_start = udp_start + udp::HEADER_LEN;
        frame[app_start..app_start + trimhdr::HEADER_LEN].copy_from_slice(&fields.to_bytes());
        write_sections(&mut frame[app_start + trimhdr::HEADER_LEN..frame_len]);
        udp::fill_checksum_in(&mut frame[udp_start..], net.src_ip, net.dst_ip);
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

    /// Consumes the packet, returning the frame.
    #[must_use]
    pub fn into_frame(self) -> Vec<u8> {
        self.frame
    }

    /// Parses and validates every layer.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] from the individual layers; [`WireError::BadChecksum`]
    /// if the IPv4 or UDP checksum fails; [`WireError::Truncated`] if the
    /// payload is shorter than `trim_depth` sections require.
    pub fn parse(&self) -> Result<ParsedGrad<'_>> {
        let eth = EthernetFrame::new_checked(&self.frame[..])?;
        if eth.ethertype() != ETHERTYPE_IPV4 {
            return Err(WireError::BadField("ethertype"));
        }
        let ip = Ipv4Packet::new_checked(eth.payload())?;
        if !ip.verify_checksum() {
            return Err(WireError::BadChecksum);
        }
        if ip.protocol() != PROTO_UDP {
            return Err(WireError::BadField("protocol"));
        }
        let (src_ip, dst_ip) = (ip.src(), ip.dst());
        // trimlint: allow(unchecked-len-index) -- new_checked bounds total_len
        let udp_slice = &eth.payload()[ipv4::HEADER_LEN..ip.total_len() as usize];
        let udp = UdpDatagram::new_checked(udp_slice)?;
        if !udp.verify_checksum(src_ip, dst_ip) {
            return Err(WireError::BadChecksum);
        }
        let net = NetAddrs {
            src_mac: eth.src(),
            dst_mac: eth.dst(),
            src_ip,
            dst_ip,
            src_port: udp.src_port(),
            dst_port: udp.dst_port(),
        };
        // Re-borrow the UDP payload from the frame to untangle lifetimes.
        let app_start = ethernet::HEADER_LEN + ipv4::HEADER_LEN + udp::HEADER_LEN;
        let app_end = ethernet::HEADER_LEN + ip.total_len() as usize;
        let app = &self.frame[app_start..app_end];
        let hdr = TrimGradHeader::new_checked(app)?;
        let fields = TrimGradFields::from_header(&hdr);
        let layout = PayloadLayout::new(fields.scheme.part_bits(), fields.coord_count as usize);
        let body = &app[trimhdr::HEADER_LEN..];
        let depth = fields.trim_depth as usize;
        if body.len() < layout.trim_point(depth) {
            return Err(WireError::Truncated);
        }
        debug_assert!(depth <= MAX_PARTS, "new_checked bounds trim_depth");
        let mut sections = Sections {
            refs: [&[]; MAX_PARTS],
            n: depth,
        };
        for (j, slot) in sections.refs.iter_mut().enumerate().take(depth) {
            *slot = &body[layout.section_range(j)];
        }
        Ok(ParsedGrad {
            net,
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
    /// parse errors if the frame is malformed.
    pub fn trim_to_depth(&mut self, depth: u8) -> Result<()> {
        if depth == 0 {
            return Err(WireError::BadField("trim_depth"));
        }
        // Read the current geometry.
        let (fields, src_ip, dst_ip) = {
            let parsed = self.parse()?;
            (parsed.fields, parsed.net.src_ip, parsed.net.dst_ip)
        };
        if fields.flags & trimhdr::FLAG_RELIABLE != 0 {
            return Err(WireError::BadField("reliable"));
        }
        if depth >= fields.trim_depth {
            return Ok(());
        }
        let layout = PayloadLayout::new(fields.scheme.part_bits(), fields.coord_count as usize);
        let new_app_len = trimhdr::HEADER_LEN + layout.trim_point(depth as usize);
        let new_udp_len = udp::HEADER_LEN + new_app_len;
        let new_ip_len = ipv4::HEADER_LEN + new_udp_len;
        self.frame.truncate(ethernet::HEADER_LEN + new_ip_len);

        // Patch the TrimGrad depth.
        let app_start = ethernet::HEADER_LEN + ipv4::HEADER_LEN + udp::HEADER_LEN;
        let mut hdr = TrimGradHeader::new_unchecked_mut(&mut self.frame[app_start..])?;
        hdr.set_trim_depth(depth);

        // Patch UDP length + checksum.
        let udp_start = ethernet::HEADER_LEN + ipv4::HEADER_LEN;
        {
            let udp_len_field =
                u16::try_from(new_udp_len).map_err(|_| WireError::BadField("udp_len"))?;
            let udp_buf = &mut self.frame[udp_start..];
            udp_buf[4..6].copy_from_slice(&udp_len_field.to_be_bytes());
            let mut dgram = UdpDatagram::new_checked(udp_buf)?;
            dgram.fill_checksum(src_ip, dst_ip);
        }

        // Patch IPv4 length, DSCP, checksum.
        {
            let ip_len_field =
                u16::try_from(new_ip_len).map_err(|_| WireError::BadField("total_len"))?;
            let ip_buf = &mut self.frame[ethernet::HEADER_LEN..];
            ip_buf[2..4].copy_from_slice(&ip_len_field.to_be_bytes());
            let mut ip = Ipv4Packet::new_checked(ip_buf)?;
            ip.set_dscp(DSCP_TRIMMED);
            ip.fill_checksum();
        }
        Ok(())
    }

    /// Convenience: the TrimGrad fields without full checksum validation
    /// (used on hot simulator paths where the frame was built locally).
    ///
    /// # Errors
    ///
    /// Header-level errors only.
    pub fn quick_fields(&self) -> Result<TrimGradFields> {
        let app_start = ethernet::HEADER_LEN + ipv4::HEADER_LEN + udp::HEADER_LEN;
        if self.frame.len() < app_start + trimhdr::HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let hdr = TrimGradHeader::new_checked(&self.frame[app_start..])?;
        Ok(TrimGradFields::from_header(&hdr))
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

    fn sample_packet(coords: u16) -> GradPacket {
        let layout = PayloadLayout::new(&[1, 31], coords as usize);
        let heads = vec![0xA5u8; layout.section_len(0)];
        let tails = vec![0x5Au8; layout.section_len(1)];
        GradPacket::build(
            &NetAddrs::between_hosts(1, 2),
            sample_fields(coords),
            &[&heads, &tails],
        )
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
        // Trimmed packets ride the high-priority DSCP.
        let eth = EthernetFrame::new_checked(pkt.as_bytes()).unwrap();
        let ip = Ipv4Packet::new_checked(eth.payload()).unwrap();
        assert_eq!(ip.dscp(), DSCP_TRIMMED);
        assert!(ip.verify_checksum());
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
        let layout = PayloadLayout::new(&[1, 31], 10);
        let heads = vec![0u8; layout.section_len(0)];
        let tails = vec![0u8; layout.section_len(1)];
        let mut fields = sample_fields(10);
        fields.flags = trimhdr::FLAG_RELIABLE;
        let mut pkt = GradPacket::build(&NetAddrs::between_hosts(1, 2), fields, &[&heads, &tails]);
        assert_eq!(
            pkt.trim_to_depth(1).unwrap_err(),
            WireError::BadField("reliable")
        );
    }

    #[test]
    fn corrupted_frame_fails_parse() {
        let pkt = sample_packet(50);
        let mut bytes = pkt.into_frame();
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF; // flip payload bits → UDP checksum fails
        let bad = GradPacket::from_frame(bytes);
        assert_eq!(bad.parse().unwrap_err(), WireError::BadChecksum);
    }

    #[test]
    fn truncated_frame_fails_parse() {
        let pkt = sample_packet(50);
        let mut bytes = pkt.into_frame();
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
        let coords: u16 = 64;
        let layout = PayloadLayout::new(SchemeId::MultiLevelRht.part_bits(), coords as usize);
        let s0 = vec![1u8; layout.section_len(0)];
        let s1 = vec![2u8; layout.section_len(1)];
        let s2 = vec![3u8; layout.section_len(2)];
        let fields = TrimGradFields {
            scheme: SchemeId::MultiLevelRht,
            n_parts: 3,
            trim_depth: 3,
            ..sample_fields(coords)
        };
        let addrs = NetAddrs::between_hosts(3, 4);
        let mut mid = GradPacket::build(&addrs, fields, &[&s0, &s1, &s2]);
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
        let mut app = Vec::new();
        app.extend_from_slice(&fields.to_bytes());
        app.extend_from_slice(&[0u8; 64]); // plausible-looking payload
        let udp_bytes =
            udp::build_datagram(net.src_ip, net.dst_ip, net.src_port, net.dst_port, &app);
        let ip_bytes = ipv4::build_packet(net.src_ip, net.dst_ip, PROTO_UDP, DSCP_BULK, &udp_bytes);
        let frame = ethernet::build_frame(net.dst_mac, net.src_mac, ETHERTYPE_IPV4, &ip_bytes);
        let pkt = GradPacket::from_frame(frame);
        assert_eq!(pkt.parse().unwrap_err(), WireError::BadField("n_parts"));
        assert_eq!(
            pkt.quick_fields().unwrap_err(),
            WireError::BadField("n_parts")
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn build_rejects_wrong_section_length() {
        let fields = sample_fields(10);
        let _ = GradPacket::build(
            &NetAddrs::between_hosts(1, 2),
            fields,
            &[&[0u8; 2], &[0u8; 4]], // head should be ⌈10/8⌉ = 2 ✔, tail ⌈310/8⌉ = 39 ✘
        );
    }
}
