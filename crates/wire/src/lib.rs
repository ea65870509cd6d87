//! Wire formats for trimmable gradient packets.
//!
//! Each header module owns one header's byte layout: its `HEADER_LEN` and
//! the functions that write and read it at literal offsets. The
//! Ethernet → IPv4 → UDP part is written, read and resealed in one place,
//! [`stack`], for data and metadata frames alike. Frames are plain byte
//! buffers; building one allocates the frame and nothing else, and parsing
//! borrows from it.
//!
//! # Stack
//!
//! ```text
//! ┌──────────────┐ 14 B  [`ethernet`]  EtherType 0x0800 (IPv4)
//! │ Ethernet II  │
//! ├──────────────┤ 20 B  [`ipv4`]      header checksum, DSCP-based priority
//! │ IPv4         │
//! ├──────────────┤  8 B  [`udp`]       checksum over pseudo-header
//! │ UDP          │
//! ├──────────────┤ 28 B  [`trimhdr`]   scheme, row/chunk ids, coord range,
//! │ TrimGrad     │                     current trim depth
//! ├──────────────┤       [`payload`]   part 0 (heads) … part k−1 (tails),
//! │ payload      │                     each section byte-aligned so a switch
//! └──────────────┘                     trims at a section boundary
//! ```
//!
//! A switch trims a gradient packet by truncating the frame at a *trim point*
//! (a payload section boundary), decrementing the TrimGrad `trim_depth`
//! field, and resealing the stack ([`stack::reseal`]: IPv4/UDP lengths,
//! DSCP, checksums) — see [`packet::GradPacket::trim_to_depth`]. The
//! receiver reassembles rows from any mix of trimmed and untrimmed packets
//! ([`reassemble`]).
//!
//! Row metadata (σ / L / the DRIVE scale `f`) travels in tiny [`meta`]
//! packets that are flagged reliable and never trimmed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ethernet;
pub mod ipv4;
pub mod meta;
pub mod narrow;
pub mod packet;
pub mod packetize;
pub mod payload;
pub mod reassemble;
pub mod stack;
pub mod trimhdr;
pub mod udp;

/// Errors from parsing or emitting wire formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Buffer too short for the claimed structure.
    Truncated,
    /// A magic constant did not match.
    BadMagic,
    /// Unsupported protocol/format version.
    BadVersion,
    /// A checksum failed verification.
    BadChecksum,
    /// A field holds an invalid value.
    BadField(&'static str),
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "buffer truncated"),
            WireError::BadMagic => write!(f, "bad magic"),
            WireError::BadVersion => write!(f, "unsupported version"),
            WireError::BadChecksum => write!(f, "checksum mismatch"),
            WireError::BadField(name) => write!(f, "invalid field: {name}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Result alias for this crate.
pub type Result<T> = core::result::Result<T, WireError>;

/// RFC 1071 Internet checksum over `data` (used by IPv4 and UDP).
///
/// Returns the one's-complement of the one's-complement sum; a buffer that
/// *includes* a correct checksum field sums to `0`.
#[must_use]
pub fn internet_checksum(data: &[u8]) -> u16 {
    !ones_complement_sum(data, 0)
}

/// One's-complement 16-bit sum of `data`, folded, starting from `initial`
/// (useful for pseudo-header prefixes). Odd trailing byte is padded with zero.
///
/// The sum does not depend on byte order (RFC 1071 §2(B)), so it adds the
/// buffer as little-endian 64-bit words, each as its two 32-bit halves, in
/// four independent `u64` lanes; the last `< 32` bytes as words, then
/// 16-bit pairs, then the odd byte. It folds to 16 bits and swaps the bytes
/// once, and only then adds `initial` with end-around carry. Every input
/// gives the `u16` that the big-endian 16-bit loop of the RFC gives.
// trimlint: hot-path -- every IPv4 and UDP seal and check
#[must_use]
pub fn ones_complement_sum(data: &[u8], initial: u16) -> u16 {
    /// A little-endian 64-bit word as the sum of its two 32-bit halves.
    fn halves(word: &[u8; 8]) -> u64 {
        let word = u64::from_le_bytes(*word);
        (word & 0xFFFF_FFFF) + (word >> 32)
    }
    /// End-around carry of the bits above `bits` into the ones below.
    fn fold(sum: u64, bits: u32) -> u64 {
        (sum & ((1 << bits) - 1)) + (sum >> bits)
    }
    let (blocks, tail) = data.as_chunks::<32>();
    let mut lanes = [0u64; 4];
    // A lane grows by < 2^33 a block: fold back to 33 bits every 2^30
    // blocks (32 GiB), long before it could wrap.
    for run in blocks.chunks(1 << 30) {
        for block in run {
            for (lane, word) in lanes.iter_mut().zip(block.as_chunks::<8>().0) {
                *lane += halves(word);
            }
        }
        lanes = lanes.map(|lane| fold(lane, 32));
    }
    let (words, tail) = tail.as_chunks::<8>();
    let (pairs, odd) = tail.as_chunks::<2>();
    let mut sum = lanes.iter().map(|&lane| fold(lane, 32)).sum::<u64>()
        + words.iter().map(halves).sum::<u64>()
        + pairs
            .iter()
            .map(|&pair| u64::from(u16::from_le_bytes(pair)))
            .sum::<u64>()
        + odd.first().map_or(0, |&byte| u64::from(byte));
    while sum > 0xFFFF {
        sum = fold(sum, 16);
    }
    let (sum, carry) = (sum as u16).swap_bytes().overflowing_add(initial);
    sum + u16::from(carry)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The RFC 1071 loop, a big-endian 16-bit word at a time: the oracle
    /// for the word-wide sum.
    fn reference_sum(data: &[u8], initial: u16) -> u16 {
        let mut sum: u32 = u32::from(initial);
        let mut chunks = data.chunks_exact(2);
        for c in &mut chunks {
            sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
        }
        if let [last] = chunks.remainder() {
            sum += u32::from(u16::from_be_bytes([*last, 0]));
        }
        while sum > 0xFFFF {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        sum as u16
    }

    /// Every length up to 2048 at every start offset within a word, one
    /// maximal IPv4 datagram, every `initial` class, and both one's-complement
    /// zeros: all-`0x00` and all-`0xFF` buffers, as well as random bytes.
    #[test]
    fn word_wide_sum_equals_the_16_bit_loop() {
        let mut rng = trimgrad_hadamard::prng::Xoshiro256StarStar::new(1071);
        let random: Vec<u8> = (0..65_535 + 8).map(|_| rng.next_u32() as u8).collect();
        let buffers = [vec![0x00; random.len()], vec![0xFF; random.len()], random];
        for initial in [0, 1, 0x00FF, 0xFF00, 0xFFFF] {
            for buf in &buffers {
                for offset in 0..8 {
                    for len in 0..=2048 {
                        let data = &buf[offset..offset + len];
                        assert_eq!(
                            ones_complement_sum(data, initial),
                            reference_sum(data, initial),
                            "initial {initial:#06x}, offset {offset}, len {len}, first byte {:?}",
                            data.first()
                        );
                    }
                }
                let data = &buf[..65_535];
                assert_eq!(
                    ones_complement_sum(data, initial),
                    reference_sum(data, initial)
                );
            }
        }
    }

    #[test]
    fn checksum_of_zeroes() {
        assert_eq!(internet_checksum(&[0, 0, 0, 0]), 0xFFFF);
    }

    #[test]
    fn checksum_known_vector() {
        // Classic example from RFC 1071 discussions.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(ones_complement_sum(&data, 0), 0xddf2);
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn checksum_odd_length() {
        let data = [0xFFu8, 0x00, 0xAB];
        // 0xFF00 + 0xAB00 = 0x1AA00 → fold → 0xAA01
        assert_eq!(ones_complement_sum(&data, 0), 0xAA01);
    }

    #[test]
    fn buffer_with_embedded_checksum_verifies_to_zero() {
        let mut data = vec![
            0x45u8, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11, 0, 0,
        ];
        let csum = internet_checksum(&data);
        data[10] = (csum >> 8) as u8;
        data[11] = (csum & 0xFF) as u8;
        assert_eq!(ones_complement_sum(&data, 0), 0xFFFF);
    }

    #[test]
    fn error_display() {
        assert_eq!(WireError::Truncated.to_string(), "buffer truncated");
        assert_eq!(WireError::BadField("ttl").to_string(), "invalid field: ttl");
    }
}
