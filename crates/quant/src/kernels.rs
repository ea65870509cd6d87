//! Fused quantize+bitpack encode kernels and their inverses (bit-parallel
//! fast paths in both directions).
//!
//! # Encode
//!
//! Each scheme's `encode` used to emit one `BitBuf::push_bits` call per
//! coordinate per part — a per-byte read-modify-write loop that dominated
//! `encode_row_32k`. These kernels fuse the quantization decision with
//! word-at-a-time packing: sign planes are gathered 64 coordinates per `u64`
//! (`f32::to_bits() >> 31` shifted into lane position), and multi-bit fields
//! stream through [`BitPacker`]'s shift/or accumulator, one 8-byte store per
//! 64 bits. All loops are branch-light over contiguous slices, so the
//! compiler can vectorize the gathers.
//!
//! Output is bit-identical to one `push_bits` per coordinate per part: both
//! produce the same LSB-first bitstream field by field, only the store
//! granularity differs. `crates/quant/tests/encode_golden.rs` pins this
//! byte-for-byte for every scheme against a per-coordinate reference encoder
//! and recorded digests.
//!
//! # Decode
//!
//! The inverse kernels mirror the encode ones part for part. Each fills
//! `out` — one **run of constant depth**, as
//! [`PartialRow::for_each_run`](crate::scheme::PartialRow::for_each_run)
//! reports it — from the packed bytes of the parts that run has, starting at
//! coordinate `start` of the row. Sign planes are read 56 bits at a
//! time with one `bitpack::window` load and turned into IEEE sign bits without a
//! branch (a sign bit is as random as a coin, so `if sign { -x } else { x }`
//! mispredicts every other coordinate); 31- and 23-bit fields are one window
//! load, shift and mask each, fused with the sign; byte-aligned fields (the
//! 8-bit exponents, the 32-bit SQ/SD tails) are indexed or copied directly.
//! `crates/quant/tests/decode_golden.rs` pins every scheme's output bit for
//! bit against a per-coordinate reference decoder.

use crate::bitpack::{pack_signs, window, BitBuf, BitPacker};

/// Coordinates decoded per sign-plane load: a [`window`] holds at least 57
/// stream bits at any bit offset, so 56 signs always come from one load.
const SIGN_BLOCK: usize = 56;

/// Fills `out` — coordinates `start..` of the row — with
/// `sign ^ rest(coordinate)`: the coordinate's bit of the sign plane
/// (1 = negative) as an IEEE-754 sign bit, over whatever the other parts
/// contribute. One [`window`] load per [`SIGN_BLOCK`] coordinates, no branch
/// on the sign.
#[inline]
fn fill_signed(signs: &[u8], start: usize, out: &mut [f32], rest: impl Fn(usize) -> u32) {
    for (block, chunk) in out.chunks_mut(SIGN_BLOCK).enumerate() {
        let first = start + block * SIGN_BLOCK;
        let word = window(signs, first);
        for (j, o) in chunk.iter_mut().enumerate() {
            let sign = ((word >> j & 1) as u32) << 31;
            *o = f32::from_bits(sign ^ rest(first + j));
        }
    }
}

/// Heads-only run of every scheme: `±scale` by the coordinate's sign bit,
/// as `scale.to_bits() ^ (sign << 31)`.
// trimlint: hot-path -- per-run inverse kernel on the decode path
pub fn decode_signs_scaled(signs: &[u8], start: usize, scale: f32, out: &mut [f32]) {
    let magnitude = scale.to_bits();
    fill_signed(signs, start, out, |_| magnitude);
}

/// Full-depth run of the sign-magnitude and RHT 1-bit layout: the inverse of
/// [`encode_sign31_parts`].
// trimlint: hot-path -- per-run inverse kernel on the decode path
pub fn decode_sign31(signs: &[u8], tails: &[u8], start: usize, out: &mut [f32]) {
    fill_signed(signs, start, out, |i| {
        window(tails, i * 31) as u32 & 0x7FFF_FFFF
    });
}

/// Sign + exponent run of the multi-level layout: every coordinate takes
/// the mantissa `mantissa_fill`, except that a zero exponent (the zero /
/// subnormal binade) decodes as signed zero.
// trimlint: hot-path -- per-run inverse kernel on the decode path
pub fn decode_sign_exp(
    signs: &[u8],
    exps: &[u8],
    start: usize,
    mantissa_fill: u32,
    out: &mut [f32],
) {
    fill_signed(signs, start, out, |i| match exps[i] {
        0 => 0,
        exp => u32::from(exp) << 23 | mantissa_fill,
    });
}

/// Full-depth run of the multi-level layout: the inverse of
/// [`encode_sign_exp_mant_parts`].
// trimlint: hot-path -- per-run inverse kernel on the decode path
pub fn decode_sign_exp_mant(
    signs: &[u8],
    exps: &[u8],
    mants: &[u8],
    start: usize,
    out: &mut [f32],
) {
    fill_signed(signs, start, out, |i| {
        u32::from(exps[i]) << 23 | (window(mants, i * 23) as u32 & 0x7F_FFFF)
    });
}

/// Full-depth run of the SQ/SD layout: the inverse of [`pack_f32_tails`], a
/// flat little-endian copy.
// trimlint: hot-path -- per-run inverse kernel on the decode path
pub fn unpack_f32_tails(tails: &[u8], start: usize, out: &mut [f32]) {
    let tails = &tails[start * 4..(start + out.len()) * 4];
    for (o, bytes) in out.iter_mut().zip(tails.chunks_exact(4)) {
        *o = f32::from_bits(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]));
    }
}

/// Splits IEEE-754 floats into a 1-bit sign plane and 31-bit
/// exponent+mantissa tails — the sign-magnitude and RHT 1-bit layout.
// trimlint: hot-path -- per-row packing kernel on the encode path
#[must_use]
pub fn encode_sign31_parts(values: &[f32]) -> (BitBuf, BitBuf) {
    let heads = pack_signs(values);
    // trimlint: allow(hot-path-alloc) -- one tail buffer per row, amortized
    let mut tails = BitPacker::with_capacity(values.len() * 31);
    for &v in values {
        tails.push(u64::from(v.to_bits() & 0x7FFF_FFFF), 31);
    }
    (heads, tails.finish())
}

/// Splits IEEE-754 floats into 1-bit sign, 8-bit exponent, and 23-bit
/// mantissa planes — the multi-level RHT layout.
// trimlint: hot-path -- per-row packing kernel on the encode path
#[must_use]
pub fn encode_sign_exp_mant_parts(values: &[f32]) -> (BitBuf, BitBuf, BitBuf) {
    let signs = pack_signs(values);
    // trimlint: allow(hot-path-alloc) -- one exponent buffer per row, amortized
    let mut exps = BitPacker::with_capacity(values.len() * 8);
    // trimlint: allow(hot-path-alloc) -- one mantissa buffer per row, amortized
    let mut mants = BitPacker::with_capacity(values.len() * 23);
    for &v in values {
        let bits = v.to_bits();
        exps.push(u64::from((bits >> 23) & 0xFF), 8);
        mants.push(u64::from(bits & 0x7F_FFFF), 23);
    }
    (signs, exps.finish(), mants.finish())
}

/// Packs the full 32-bit patterns of `values` — the SQ/SD tails.
///
/// A 32-bit field written at a 32-bit-aligned offset of the LSB-first
/// stream is exactly the little-endian bytes of the value, so the whole
/// part is a flat byte copy — no bit accumulator needed.
// trimlint: hot-path -- per-row packing kernel on the encode path
#[must_use]
pub fn pack_f32_tails(values: &[f32]) -> BitBuf {
    // trimlint: allow(hot-path-alloc) -- one tail buffer per row, amortized
    let mut bytes = vec![0u8; values.len() * 4];
    for (dst, &v) in bytes.chunks_exact_mut(4).zip(values) {
        dst.copy_from_slice(&v.to_bits().to_le_bytes());
    }
    BitBuf::from_bytes(bytes, values.len() * 32)
}

/// Packs `a.len()` predicate bits of `f(a[i], b[i])`, gathering 64 per
/// `u64` word. Iterates both slices by `chunks_exact` + `zip` so the inner
/// loop carries no bounds checks — the closure is evaluated strictly in
/// increasing `i` order, once per coordinate.
// trimlint: hot-path -- head-plane packing for the stochastic encoders
#[must_use]
pub fn pack_bits_zip(a: &[f32], b: &[f32], mut f: impl FnMut(f32, f32) -> bool) -> BitBuf {
    assert_eq!(a.len(), b.len(), "pack_bits_zip: slice lengths differ");
    // trimlint: allow(hot-path-alloc) -- one head buffer per row, amortized
    let mut out = BitPacker::with_capacity(a.len());
    let mut ac = a.chunks_exact(64);
    let mut bc = b.chunks_exact(64);
    for (ca, cb) in (&mut ac).zip(&mut bc) {
        let mut word = 0u64;
        for (j, (&x, &y)) in ca.iter().zip(cb).enumerate() {
            word |= u64::from(f(x, y)) << j;
        }
        out.push(word, 64);
    }
    let (ra, rb) = (ac.remainder(), bc.remainder());
    if !ra.is_empty() {
        let mut word = 0u64;
        for (j, (&x, &y)) in ra.iter().zip(rb).enumerate() {
            word |= u64::from(f(x, y)) << j;
        }
        out.push(word, ra.len() as u32);
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let v = ((i * 37) % 101) as f32 / 7.0 - 7.0;
                if i % 3 == 0 {
                    -v
                } else {
                    v
                }
            })
            .collect()
    }

    #[test]
    fn sign31_matches_per_coordinate_pushes() {
        for n in [0usize, 1, 63, 64, 65, 300, 1024] {
            let values = sample(n);
            let mut heads = BitBuf::with_capacity(n);
            let mut tails = BitBuf::with_capacity(n * 31);
            for &v in &values {
                let bits = v.to_bits();
                heads.push_bits(u64::from(bits >> 31), 1);
                tails.push_bits(u64::from(bits & 0x7FFF_FFFF), 31);
            }
            assert_eq!(encode_sign31_parts(&values), (heads, tails), "n={n}");
        }
    }

    #[test]
    fn sign_exp_mant_matches_per_coordinate_pushes() {
        for n in [0usize, 1, 64, 65, 500] {
            let values = sample(n);
            let mut signs = BitBuf::with_capacity(n);
            let mut exps = BitBuf::with_capacity(n * 8);
            let mut mants = BitBuf::with_capacity(n * 23);
            for &v in &values {
                let bits = v.to_bits();
                signs.push_bits(u64::from(bits >> 31), 1);
                exps.push_bits(u64::from((bits >> 23) & 0xFF), 8);
                mants.push_bits(u64::from(bits & 0x7F_FFFF), 23);
            }
            assert_eq!(
                encode_sign_exp_mant_parts(&values),
                (signs, exps, mants),
                "n={n}"
            );
        }
    }

    #[test]
    fn f32_tails_match_per_coordinate_pushes() {
        let values = sample(130);
        let mut reference = BitBuf::with_capacity(values.len() * 32);
        for &v in &values {
            reference.push_bits(u64::from(v.to_bits()), 32);
        }
        assert_eq!(pack_f32_tails(&values), reference);
    }

    #[test]
    fn zip_bits_match_per_coordinate_pushes() {
        for n in [0usize, 1, 63, 64, 65, 129, 300] {
            let a = sample(n);
            let b: Vec<f32> = sample(n).iter().map(|v| v * 0.3 - 0.1).collect();
            let mut reference = BitBuf::with_capacity(n);
            for (&x, &y) in a.iter().zip(&b) {
                reference.push_bits(u64::from(x + y < 0.0), 1);
            }
            assert_eq!(
                pack_bits_zip(&a, &b, |x, y| x + y < 0.0),
                reference,
                "n={n}"
            );
        }
    }
}
