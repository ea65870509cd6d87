//! Ethernet II header.
//!
//! ```text
//!  0               6              12      14
//! ┌───────────────┬───────────────┬───────┬─────────
//! │ dst MAC       │ src MAC       │ type  │ payload…
//! └───────────────┴───────────────┴───────┴─────────
//! ```
//!
//! Every frame carries EtherType [`ETHERTYPE_IPV4`]. No frame check
//! sequence is modelled, so nothing guards the twelve address bytes: a
//! frame with a flipped MAC still parses. [`crate::stack`] writes and reads
//! this header together with the IPv4 and UDP headers behind it.

use crate::{Result, WireError};

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// A deterministic locally-administered unicast address for host `id`
    /// (used by the simulator's topology builder).
    #[must_use]
    pub fn for_host(id: u32) -> MacAddr {
        let b = id.to_be_bytes();
        // 0x02 = locally administered, unicast.
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }
}

impl core::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;

/// Ethernet II header length in bytes.
pub const HEADER_LEN: usize = 14;

/// Writes the header into the front of `buf`.
pub(crate) fn write(buf: &mut [u8], dst: MacAddr, src: MacAddr, ethertype: u16) {
    buf[0..6].copy_from_slice(&dst.0);
    buf[6..12].copy_from_slice(&src.0);
    buf[12..14].copy_from_slice(&ethertype.to_be_bytes());
}

/// Reads `(dst, src, ethertype)` from the front of `b`.
///
/// # Errors
///
/// [`WireError::Truncated`] if `b` is shorter than [`HEADER_LEN`].
pub(crate) fn read(b: &[u8]) -> Result<(MacAddr, MacAddr, u16)> {
    if b.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    Ok((
        MacAddr([b[0], b[1], b[2], b[3], b[4], b[5]]),
        MacAddr([b[6], b[7], b[8], b[9], b[10], b[11]]),
        u16::from_be_bytes([b[12], b[13]]),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_display() {
        assert_eq!(
            MacAddr([1, 2, 3, 0xAB, 0xCD, 0xEF]).to_string(),
            "01:02:03:ab:cd:ef"
        );
    }

    #[test]
    fn host_macs_are_unique_and_local() {
        let a = MacAddr::for_host(1);
        let b = MacAddr::for_host(2);
        assert_ne!(a, b);
        assert_eq!(a.0[0] & 0x02, 0x02, "locally administered bit");
        assert_eq!(a.0[0] & 0x01, 0, "unicast bit");
    }
}
