//! UDP header.
//!
//! ```text
//!  0        2        4        6        8
//! ┌────────┬────────┬────────┬────────┬─────────
//! │src port│dst port│ length │checksum│ payload…
//! └────────┴────────┴────────┴────────┴─────────
//! ```
//!
//! The TrimGrad transport runs over UDP (like NDP and the UEC trimming
//! profiles). Because a trimming switch truncates the datagram in flight,
//! the UDP checksum of a trimmed packet is recomputed by the switch along
//! with the length — see [`crate::stack::reseal`].

use crate::ipv4::{Ipv4Addr, PROTO_UDP};
use crate::{ones_complement_sum, Result, WireError};

/// UDP header length in bytes.
pub const HEADER_LEN: usize = 8;

/// Destination port for trimmable gradient data packets.
pub const PORT_GRADIENT: u16 = 9100;

/// Destination port for reliable row-metadata packets.
pub const PORT_METADATA: u16 = 9101;

/// Destination port for transport control (ACK/NACK/pull) packets.
pub const PORT_CONTROL: u16 = 9102;

/// Writes the ports into the front of `buf`; the length and checksum are
/// [`seal`]'s.
pub(crate) fn write(buf: &mut [u8], src_port: u16, dst_port: u16) {
    buf[0..2].copy_from_slice(&src_port.to_be_bytes());
    buf[2..4].copy_from_slice(&dst_port.to_be_bytes());
}

/// Sets the length field of the datagram that fills `b` and computes its
/// checksum over the pseudo-header and every byte of `b`. Per RFC 768, a
/// computed sum of 0 is transmitted as `0xFFFF`.
pub(crate) fn seal(b: &mut [u8], len: u16, src: Ipv4Addr, dst: Ipv4Addr) {
    b[4..6].copy_from_slice(&len.to_be_bytes());
    b[6..8].copy_from_slice(&[0, 0]);
    let csum = !ones_complement_sum(b, pseudo_header_sum(src, dst, len));
    let csum = if csum == 0 { 0xFFFF } else { csum };
    b[6..8].copy_from_slice(&csum.to_be_bytes());
}

/// Validates the datagram at the front of `b` — the length field against
/// the header and against `b`, then the checksum (a zero checksum means
/// "not computed" and passes) — and returns the ports and the payload the
/// length field claims.
///
/// # Errors
///
/// [`WireError::Truncated`] when `b` cannot hold the header or the claimed
/// length, [`WireError::BadField`] when the length field is smaller than the
/// header, [`WireError::BadChecksum`] when the checksum fails.
pub(crate) fn read(b: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<(u16, u16, &[u8])> {
    if b.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let len_field = u16::from_be_bytes([b[4], b[5]]);
    let len = len_field as usize;
    if len < HEADER_LEN {
        return Err(WireError::BadField("length"));
    }
    if b.len() < len {
        return Err(WireError::Truncated);
    }
    let checksum = u16::from_be_bytes([b[6], b[7]]);
    if checksum != 0
        && ones_complement_sum(&b[..len], pseudo_header_sum(src, dst, len_field)) != 0xFFFF
    {
        return Err(WireError::BadChecksum);
    }
    let src_port = u16::from_be_bytes([b[0], b[1]]);
    let dst_port = u16::from_be_bytes([b[2], b[3]]);
    Ok((src_port, dst_port, &b[HEADER_LEN..len]))
}

/// One's-complement sum of the IPv4 pseudo-header for UDP.
fn pseudo_header_sum(src: Ipv4Addr, dst: Ipv4Addr, udp_len: u16) -> u16 {
    let mut pseudo = [0u8; 12];
    pseudo[0..4].copy_from_slice(&src.0);
    pseudo[4..8].copy_from_slice(&dst.0);
    pseudo[9] = PROTO_UDP;
    pseudo[10..12].copy_from_slice(&udp_len.to_be_bytes());
    ones_complement_sum(&pseudo, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sealed(payload: &[u8]) -> Vec<u8> {
        let mut buf = vec![0u8; HEADER_LEN];
        buf.extend_from_slice(payload);
        write(&mut buf, 5555, PORT_GRADIENT);
        let len = u16::try_from(buf.len()).unwrap();
        seal(&mut buf, len, Ipv4Addr::for_host(1), Ipv4Addr::for_host(2));
        buf
    }

    fn check(buf: &[u8]) -> Result<(u16, u16, &[u8])> {
        read(buf, Ipv4Addr::for_host(1), Ipv4Addr::for_host(2))
    }

    #[test]
    fn seal_read_roundtrip() {
        assert_eq!(
            check(&sealed(b"hello")),
            Ok((5555, PORT_GRADIENT, &b"hello"[..]))
        );
        assert_eq!(check(&sealed(&[])), Ok((5555, PORT_GRADIENT, &[][..])));
    }

    #[test]
    fn checksum_detects_payload_and_pseudo_header_corruption() {
        let mut buf = sealed(b"payload");
        let other = Ipv4Addr::for_host(99);
        assert_eq!(
            read(&buf, Ipv4Addr::for_host(1), other),
            Err(WireError::BadChecksum)
        );
        buf[10] ^= 0x01;
        assert_eq!(check(&buf), Err(WireError::BadChecksum));
        // A zero checksum is "not computed" and passes.
        buf[6..8].copy_from_slice(&[0, 0]);
        assert_eq!(check(&buf), Ok((5555, PORT_GRADIENT, &b"paxload"[..])));
    }

    #[test]
    fn rejects_bad_lengths() {
        assert_eq!(check(&[0u8; 7]), Err(WireError::Truncated));
        let mut buf = [0u8; 8];
        buf[4..6].copy_from_slice(&4u16.to_be_bytes()); // len < header
        assert_eq!(check(&buf), Err(WireError::BadField("length")));
        buf[4..6].copy_from_slice(&20u16.to_be_bytes()); // len > buffer
        assert_eq!(check(&buf), Err(WireError::Truncated));
    }
}
