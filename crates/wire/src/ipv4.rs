//! IPv4 header (fixed 20 bytes, no options).
//!
//! ```text
//!  0    1    2      4      6      8    9    10     12     16     20
//! ┌────┬────┬──────┬──────┬──────┬────┬────┬──────┬──────┬──────┐
//! │v/hl│tos │total │ id   │DF/off│ttl │prot│ csum │ src  │ dst  │
//! └────┴────┴──────┴──────┴──────┴────┴────┴──────┴──────┴──────┘
//! ```
//!
//! The simulator uses two IPv4 facilities beyond plain delivery:
//!
//! * the **DSCP** field encodes queue priority — trimmed packets are
//!   forwarded high-priority, like NDP headers;
//! * **total length** and the header checksum are rewritten when a switch
//!   trims a packet ([`crate::stack::reseal`]).

use crate::{internet_checksum, ones_complement_sum, Result, WireError};

/// A 32-bit IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Addr(pub [u8; 4]);

impl Ipv4Addr {
    /// Deterministic address for simulated host `id`: `10.x.y.z`.
    #[must_use]
    pub fn for_host(id: u32) -> Ipv4Addr {
        let b = id.to_be_bytes();
        Ipv4Addr([10, b[1], b[2], b[3]])
    }
}

impl core::fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}.{}.{}.{}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

/// IP protocol number for UDP.
pub const PROTO_UDP: u8 = 17;

/// Header length (no options supported).
pub const HEADER_LEN: usize = 20;

/// DSCP code point used for trimmed (high-priority) gradient headers.
pub const DSCP_TRIMMED: u8 = 46; // Expedited Forwarding

/// DSCP code point for ordinary gradient payload packets.
pub const DSCP_BULK: u8 = 0;

/// ECN codepoint: ECN-Capable Transport (0).
pub const ECN_ECT0: u8 = 0b10;

/// Writes the fixed fields — version 4, IHL 5, ECN ECT(0), DF, TTL 64,
/// protocol UDP — and the addresses into the front of `buf`. The length,
/// DSCP and checksum are [`seal`]'s.
pub(crate) fn write(buf: &mut [u8], src: Ipv4Addr, dst: Ipv4Addr) {
    buf[0] = 0x45;
    buf[1] = ECN_ECT0;
    buf[4..8].copy_from_slice(&[0, 0, 0x40, 0]);
    buf[8] = 64;
    buf[9] = PROTO_UDP;
    buf[12..16].copy_from_slice(&src.0);
    buf[16..20].copy_from_slice(&dst.0);
}

/// Sets the total length and the DSCP (keeping the ECN bits) of the header
/// at the front of `b`, then recomputes its checksum.
pub(crate) fn seal(b: &mut [u8], total_len: u16, dscp: u8) {
    debug_assert!(dscp < 64);
    b[1] = (dscp << 2) | (b[1] & 0b11);
    b[2..4].copy_from_slice(&total_len.to_be_bytes());
    b[10..12].copy_from_slice(&[0, 0]);
    let csum = internet_checksum(&b[..HEADER_LEN]);
    b[10..12].copy_from_slice(&csum.to_be_bytes());
}

/// Source and destination addresses of the header at the front of `b`.
pub(crate) fn addrs(b: &[u8]) -> (Ipv4Addr, Ipv4Addr) {
    (
        Ipv4Addr([b[12], b[13], b[14], b[15]]),
        Ipv4Addr([b[16], b[17], b[18], b[19]]),
    )
}

/// Validates the header at the front of `b` — length, version, IHL, a total
/// length that `b` holds, then the checksum — and returns the protocol and
/// the total length.
///
/// # Errors
///
/// [`WireError::Truncated`] for a short buffer or total length,
/// [`WireError::BadField`] for a bad version or IHL,
/// [`WireError::BadChecksum`] for a failed header checksum.
pub(crate) fn read(b: &[u8]) -> Result<(u8, usize)> {
    if b.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    if b[0] >> 4 != 4 {
        return Err(WireError::BadField("version"));
    }
    if (b[0] & 0x0F) as usize * 4 != HEADER_LEN {
        return Err(WireError::BadField("ihl"));
    }
    let total_len = u16::from_be_bytes([b[2], b[3]]) as usize;
    if total_len < HEADER_LEN || b.len() < total_len {
        return Err(WireError::Truncated);
    }
    if ones_complement_sum(&b[..HEADER_LEN], 0) != 0xFFFF {
        return Err(WireError::BadChecksum);
    }
    Ok((b[9], total_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_display_and_host_mapping() {
        assert_eq!(Ipv4Addr([10, 0, 0, 7]).to_string(), "10.0.0.7");
        assert_eq!(Ipv4Addr::for_host(7), Ipv4Addr([10, 0, 0, 7]));
        assert_eq!(Ipv4Addr::for_host(0x0102_0304), Ipv4Addr([10, 2, 3, 4]));
        assert_ne!(Ipv4Addr::for_host(1), Ipv4Addr::for_host(2));
    }

    #[test]
    fn seal_keeps_ecn_and_checksums_the_header() {
        let mut buf = [0u8; HEADER_LEN + 5];
        write(&mut buf, Ipv4Addr::for_host(1), Ipv4Addr::for_host(2));
        seal(&mut buf, 25, DSCP_TRIMMED);
        assert_eq!(buf[1], (DSCP_TRIMMED << 2) | ECN_ECT0);
        assert_eq!(read(&buf), Ok((PROTO_UDP, 25)));
        buf[8] ^= 0xFF; // flip TTL bits
        assert_eq!(read(&buf), Err(WireError::BadChecksum));
    }

    #[test]
    fn rejects_bad_version_ihl_and_lengths() {
        assert_eq!(read(&[0u8; 10]), Err(WireError::Truncated));
        let mut buf = [0u8; 20];
        buf[0] = 0x65; // version 6
        buf[2..4].copy_from_slice(&20u16.to_be_bytes());
        assert_eq!(read(&buf), Err(WireError::BadField("version")));
        buf[0] = 0x46; // IHL 6 (options) unsupported
        assert_eq!(read(&buf), Err(WireError::BadField("ihl")));
        buf[0] = 0x45;
        buf[2..4].copy_from_slice(&30u16.to_be_bytes()); // beyond the buffer
        assert_eq!(read(&buf), Err(WireError::Truncated));
    }
}
