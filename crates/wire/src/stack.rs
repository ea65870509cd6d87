//! The Ethernet → IPv4 → UDP stack every frame rides: one writer, one
//! reader and one reseal step.
//!
//! Data frames ([`GradPacket`](crate::packet::GradPacket)) and metadata
//! frames ([`RowMetaPacket`](crate::meta::RowMetaPacket)) differ only in
//! what follows the UDP header, their destination port and their DSCP.
//! `write` lays the three headers over a frame whose UDP payload is
//! already in place; `read` validates them; [`reseal`] is what a trimming
//! switch rewrites after it cuts a frame short — the IPv4 and UDP lengths
//! (taken from the frame length), the DSCP, and both checksums. Each
//! header's byte layout stays in its own module ([`ethernet`], [`ipv4`],
//! [`udp`]).

use crate::ethernet::{self, ETHERTYPE_IPV4};
use crate::ipv4::{self, PROTO_UDP};
use crate::packet::NetAddrs;
use crate::udp::{self, PORT_METADATA};
use crate::{narrow, Result, WireError};

/// Offset of the UDP header in a frame (Ethernet + IPv4).
const UDP_START: usize = ethernet::HEADER_LEN + ipv4::HEADER_LEN;

/// Offset of the UDP payload — the TrimGrad header of a data frame, the
/// metadata payload of a metadata frame — and so the byte length of the
/// whole stack.
pub const PAYLOAD_START: usize = UDP_START + udp::HEADER_LEN;

/// What the IPv4 and UDP headers take out of an IP MTU (Ethernet framing
/// is extra).
pub const IP_OVERHEAD: usize = PAYLOAD_START - ethernet::HEADER_LEN;

/// What a reader demands of a frame beyond well-formed headers and valid
/// checksums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Expect {
    /// A data frame: EtherType IPv4 (checked before the IPv4 header) and
    /// protocol UDP (checked after the IPv4 checksum).
    Data,
    /// A metadata frame: destination port [`PORT_METADATA`] (checked after
    /// the UDP checksum).
    Metadata,
}

/// A validated stack.
#[derive(Debug)]
pub(crate) struct Stack<'a> {
    /// Addresses and ports.
    pub(crate) net: NetAddrs,
    /// The UDP payload: the bytes past the UDP header that the UDP length
    /// field claims and the UDP checksum covers. Bytes past it, up to the
    /// IPv4 total length, are covered by no checksum and are not read.
    pub(crate) udp_body: &'a [u8],
}

/// Writes all three headers over the front of `frame`, whose UDP payload
/// must already be in place: Ethernet (EtherType IPv4), IPv4 (ECN ECT(0),
/// DF, TTL 64, protocol UDP) and UDP, with the lengths, `dscp` and both
/// checksums set by [`reseal`].
///
/// # Panics
///
/// As [`reseal`].
pub(crate) fn write(frame: &mut [u8], net: &NetAddrs, dscp: u8) {
    ethernet::write(frame, net.dst_mac, net.src_mac, ETHERTYPE_IPV4);
    ipv4::write(&mut frame[ethernet::HEADER_LEN..], net.src_ip, net.dst_ip);
    udp::write(&mut frame[UDP_START..], net.src_port, net.dst_port);
    reseal(frame, dscp);
}

/// Rewrites the IPv4 total length and the UDP length to cover the rest of
/// `frame`, sets the DSCP to `dscp` (the ECN bits stay), and recomputes the
/// IPv4 header checksum and the UDP checksum. Addresses, ports and the
/// payload are left as they are.
///
/// # Panics
///
/// Panics if `frame` is shorter than [`PAYLOAD_START`] or longer than the
/// 16-bit IPv4 total-length field can describe.
pub fn reseal(frame: &mut [u8], dscp: u8) {
    let ip_len = narrow::to_u16(frame.len() - ethernet::HEADER_LEN, "IPv4 total length");
    let udp_len = narrow::to_u16(frame.len() - UDP_START, "UDP length");
    let ip = &mut frame[ethernet::HEADER_LEN..];
    ipv4::seal(ip, ip_len, dscp);
    let (src, dst) = ipv4::addrs(ip);
    udp::seal(&mut frame[UDP_START..], udp_len, src, dst);
}

/// Validates the stack at the front of `frame`, in this order: the Ethernet
/// header, the EtherType ([`Expect::Data`]), the IPv4 header and its
/// checksum, the protocol ([`Expect::Data`]), the UDP header and its
/// checksum, the destination port ([`Expect::Metadata`]).
///
/// # Errors
///
/// The first check that fails: [`WireError::Truncated`],
/// [`WireError::BadChecksum`], or [`WireError::BadField`] naming the field.
pub(crate) fn read(frame: &[u8], expect: Expect) -> Result<Stack<'_>> {
    let (dst_mac, src_mac, ethertype) = ethernet::read(frame)?;
    if expect == Expect::Data && ethertype != ETHERTYPE_IPV4 {
        return Err(WireError::BadField("ethertype"));
    }
    let ip = &frame[ethernet::HEADER_LEN..];
    let (protocol, total_len) = ipv4::read(ip)?;
    if expect == Expect::Data && protocol != PROTO_UDP {
        return Err(WireError::BadField("protocol"));
    }
    let (src_ip, dst_ip) = ipv4::addrs(ip);
    // trimlint: allow(unchecked-len-index) -- ipv4::read bounds total_len by the buffer
    let dgram = &ip[ipv4::HEADER_LEN..total_len];
    let (src_port, dst_port, udp_body) = udp::read(dgram, src_ip, dst_ip)?;
    if expect == Expect::Metadata && dst_port != PORT_METADATA {
        return Err(WireError::BadField("dst_port"));
    }
    Ok(Stack {
        net: NetAddrs {
            src_mac,
            dst_mac,
            src_ip,
            dst_ip,
            src_port,
            dst_port,
        },
        udp_body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::{DSCP_BULK, DSCP_TRIMMED};

    fn frame(payload: &[u8], net: &NetAddrs, dscp: u8) -> Vec<u8> {
        let mut f = vec![0u8; PAYLOAD_START];
        f.extend_from_slice(payload);
        write(&mut f, net, dscp);
        f
    }

    #[test]
    fn stack_offsets_add_up() {
        assert_eq!((UDP_START, PAYLOAD_START, IP_OVERHEAD), (34, 42, 28));
    }

    #[test]
    fn write_read_roundtrip() {
        let net = NetAddrs::between_hosts(3, 4);
        let f = frame(b"hello", &net, DSCP_BULK);
        assert_eq!(f.len(), PAYLOAD_START + 5);
        let s = read(&f, Expect::Data).unwrap();
        assert_eq!(s.net, net);
        assert_eq!(s.udp_body, &b"hello"[..]);
        assert_eq!(
            read(&f, Expect::Metadata).unwrap_err(),
            WireError::BadField("dst_port")
        );
        assert_eq!(
            read(&f[..13], Expect::Data).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn reseal_after_a_cut_makes_a_valid_shorter_frame() {
        let net = NetAddrs::between_hosts(1, 2);
        let mut f = frame(&[0xAA; 100], &net, DSCP_BULK);
        f.truncate(PAYLOAD_START + 10);
        assert_eq!(read(&f, Expect::Data).unwrap_err(), WireError::Truncated);
        reseal(&mut f, DSCP_TRIMMED);
        let s = read(&f, Expect::Data).unwrap();
        assert_eq!(s.udp_body, &[0xAA; 10]);
        assert_eq!(f[ethernet::HEADER_LEN + 1] >> 2, DSCP_TRIMMED);
    }

    #[test]
    fn metadata_frames_skip_the_data_checks() {
        let net = NetAddrs {
            dst_port: PORT_METADATA,
            ..NetAddrs::between_hosts(1, 2)
        };
        let mut f = frame(&[7; 24], &net, DSCP_TRIMMED);
        f[12] ^= 0xFF; // EtherType: no FCS or checksum covers it
        assert!(read(&f, Expect::Metadata).is_ok());
        assert_eq!(
            read(&f, Expect::Data).unwrap_err(),
            WireError::BadField("ethertype")
        );
    }

    #[test]
    fn checksums_catch_corruption() {
        let net = NetAddrs::between_hosts(1, 2);
        let good = frame(&[1, 2, 3, 4], &net, DSCP_BULK);
        for at in [ethernet::HEADER_LEN + 8, PAYLOAD_START + 2] {
            let mut bad = good.clone();
            bad[at] ^= 0x01;
            assert_eq!(
                read(&bad, Expect::Data).unwrap_err(),
                WireError::BadChecksum
            );
        }
    }
}
