//! Adversarial property tests for `BitBuf` bulk operations and the sign-plane
//! packer, concentrating on the corners the fused encode kernels hit
//! constantly: non-byte-aligned offsets, ragged last groups, and
//! reconstruction from wire bytes.

use proptest::prelude::*;
use trimgrad_quant::bitpack::{pack_signs_into, BitBuf};

/// Builds a buffer from explicit bits, the slow trusted way.
fn buf_from_bits(bits: &[bool]) -> BitBuf {
    let mut b = BitBuf::new();
    for &bit in bits {
        b.push_bits(u64::from(bit), 1);
    }
    b
}

/// `get_bits` is one unaligned 8-byte window load plus, for a field that
/// spans nine bytes, its last byte. Every (offset, width) of a 17-byte
/// buffer against the bit model: that covers fields spanning 9 bytes
/// (`offset % 8 + width > 64`), windows that would run past the end of the
/// buffer (fewer than 8 bytes left), and the very last bits.
#[test]
fn get_bits_window_load_matches_bit_model_at_every_offset() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let bits: Vec<bool> = (0..17 * 8)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 63 == 1
        })
        .collect();
    let buf = buf_from_bits(&bits);
    assert_eq!(buf.as_bytes().len(), 17);
    for offset in 0..=bits.len() {
        for width in 0..=64.min(bits.len() - offset) {
            let want = bits[offset..offset + width]
                .iter()
                .enumerate()
                .fold(0u64, |acc, (j, &b)| acc | u64::from(b) << j);
            assert_eq!(
                buf.get_bits(offset, width as u32),
                want,
                "offset {offset} width {width}"
            );
        }
    }
    // A buffer whose bit length is not a whole byte: its last field ends in
    // the slack-free part of the final byte.
    let short = BitBuf::from_bytes(buf.as_bytes().to_vec(), 131);
    assert_eq!(short.get_bits(131 - 64, 64), buf.get_bits(131 - 64, 64));
    assert_eq!(short.get_bits(128, 3), buf.get_bits(128, 3));
}

proptest! {
    /// `pack_signs_into` writes, over whatever its destination held, the
    /// bytes of per-coordinate 1-bit pushes for every length,
    /// including negative zero and non-finite values (raw u32 bit patterns
    /// cover NaN, infinities, denormals, and -0.0).
    #[test]
    fn pack_signs_matches_reference(
        patterns in proptest::collection::vec(any::<u32>(), 0..200)
    ) {
        let values: Vec<f32> = patterns.iter().map(|&b| f32::from_bits(b)).collect();
        let mut reference = BitBuf::new();
        for &v in &values {
            reference.push_bits(u64::from(v.is_sign_negative()), 1);
        }
        let mut packed = vec![0x5Au8; values.len().div_ceil(8)];
        pack_signs_into(&values, &mut packed);
        prop_assert_eq!(&packed[..], reference.as_bytes());
    }

    /// `copy_bits_to` at arbitrary (mostly unaligned) offsets produces the
    /// bytes of the bit range packed from bit 0, and `write_bits_from_bytes`
    /// round-trips them back — across byte-aligned and shifted source/dest
    /// combinations.
    #[test]
    fn bulk_copy_roundtrips_at_unaligned_offsets(
        bits in proptest::collection::vec(any::<bool>(), 1..600),
        off_frac in 0.0f64..=1.0,
        len_frac in 0.0f64..=1.0,
        dst_off_frac in 0.0f64..=1.0,
    ) {
        let buf = buf_from_bits(&bits);
        let off = ((bits.len() as f64) * off_frac) as usize;
        let len = (((bits.len() - off) as f64) * len_frac) as usize;
        let mut wire = vec![0u8; len.div_ceil(8)];
        buf.copy_bits_to(off, len, &mut wire);
        let sliced = buf_from_bits(&bits[off..off + len]);
        prop_assert_eq!(&wire[..], sliced.as_bytes());

        // Land the wire bytes at an unrelated (unaligned) offset of a
        // second buffer and check bit-for-bit.
        let dst_len = len + 64;
        let dst_off = (((dst_len - len) as f64) * dst_off_frac) as usize;
        let mut dst = BitBuf::zeroed(dst_len);
        dst.write_bits_from_bytes(dst_off, &wire, len);
        for i in 0..len {
            prop_assert_eq!(dst.get_bits(dst_off + i, 1) == 1, bits[off + i], "bit {}", i);
        }
        // Surrounding bits stay zero.
        for i in 0..dst_off {
            prop_assert_eq!(dst.get_bits(i, 1), 0);
        }
        for i in dst_off + len..dst_len {
            prop_assert_eq!(dst.get_bits(i, 1), 0);
        }
    }

    /// Non-multiple-of-64 tails: appending after `from_bytes` must behave
    /// exactly like appending to the buffer the bytes came from, even when
    /// the wire handed us an oversized vector or dirty slack bits.
    #[test]
    fn from_bytes_normalizes_before_append(
        bits in proptest::collection::vec(any::<bool>(), 0..200),
        extra_bytes in proptest::collection::vec(any::<u8>(), 0..4),
        slack_garbage in any::<u8>(),
        appended in proptest::collection::vec(any::<bool>(), 1..80),
    ) {
        let clean = buf_from_bits(&bits);
        // Adversarial wire bytes: dirty slack in the final byte plus
        // trailing surplus bytes.
        let mut dirty = clean.as_bytes().to_vec();
        if !bits.len().is_multiple_of(8) {
            if let Some(last) = dirty.last_mut() {
                *last |= slack_garbage << (bits.len() % 8);
            }
        }
        dirty.extend_from_slice(&extra_bytes);
        let mut rebuilt = BitBuf::from_bytes(dirty, bits.len());
        prop_assert_eq!(&rebuilt, &clean);

        let mut reference = clean;
        for &b in &appended {
            reference.push_bits(u64::from(b), 1);
            rebuilt.push_bits(u64::from(b), 1);
        }
        prop_assert_eq!(rebuilt, reference);
    }
}
