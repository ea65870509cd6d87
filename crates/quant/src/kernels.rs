//! Fused quantize+bitpack encode kernels and their inverses (group-of-eight
//! fast paths in both directions).
//!
//! Eight `W`-bit fields are exactly `W` bytes, so every part — 1-bit signs,
//! 23-bit mantissas, 31-bit tails — is addressed by the **group** of eight
//! coordinates `8g..8g + 8`, which sits byte-aligned at byte `g·W` of its
//! part ([`crate::bitpack`] has the two group primitives).
//!
//! # Encode
//!
//! Every packer writes the fields of a slice of coordinates into bytes the
//! caller gives it, re-based to bit 0: a whole row's plane or one packet's
//! section alike. Sign planes are gathered a byte per group
//! (`f32::to_bits() >> 31` shifted into lane position,
//! [`pack_signs_into`](crate::bitpack::pack_signs_into)); 31- and 23-bit
//! fields are packed eight at a time into `u64` words with compile-time
//! shifts ([`pack_low_bits_into`](crate::bitpack::pack_low_bits_into)); the
//! 8-bit exponents and 32-bit SQ/SD tails are flat byte copies; the
//! stochastic head planes gather a byte of predicate bits per group
//! ([`pack_bits_zip_into`]). All loops are branch-light over fixed-size
//! chunks, so the compiler can unroll and vectorize them.
//!
//! Output is bit-identical to one `push_bits` per coordinate per part: both
//! produce the same LSB-first bitstream field by field, only the store
//! granularity differs. `crates/quant/tests/encode_golden.rs` pins this
//! byte-for-byte for every scheme against a per-coordinate reference encoder
//! and recorded digests, and `crates/quant/tests/range_pack.rs` pins every
//! coordinate range against the whole-row planes.
//!
//! # Decode
//!
//! The inverse kernels mirror the encode ones part for part. Each fills
//! `out` — one **run of constant depth**, as
//! [`PartialRow::for_each_run`](crate::scheme::PartialRow::for_each_run)
//! reports it — from the packed bytes of the parts that run has, starting at
//! coordinate `start` of the row. The run's whole groups take a sign byte
//! and `W` field bytes each and write eight floats; a sign becomes an IEEE
//! sign bit without a branch (it is as random as a coin, so
//! `if sign { -x } else { x }` mispredicts every other coordinate), the sign
//! byte expanding to its eight lanes' sign bits through
//! [`trimgrad_hadamard::rademacher::sign_masks`], the table the RHT's
//! Rademacher diagonal reads too, so the group loop vectorizes even on
//! baseline x86-64, which has no per-lane variable shift. A run
//! starts where a packet does — coordinate 360·k at the default 1500-byte
//! MTU, a multiple of eight, though not at every MTU — so the coordinates
//! before its first and after its last group boundary go one at a time
//! through a `bitpack::window` load. `crates/quant/tests/decode_golden.rs`
//! pins every scheme's output bit for bit against a per-coordinate reference
//! decoder.

use trimgrad_hadamard::rademacher::sign_masks;

use crate::bitpack::{unpack_group, window};

/// The per-coordinate form of [`fill_signed`], for the fewer than eight
/// coordinates on either side of a run's whole groups: one [`window`] load
/// holds all their signs, `rest(coordinate)` supplies everything else.
#[inline]
fn fill_signed_ragged(signs: &[u8], start: usize, out: &mut [f32], rest: impl Fn(usize) -> u32) {
    debug_assert!(out.len() < 8, "whole groups go through `fill_signed`");
    let word = window(signs, start);
    for (j, o) in out.iter_mut().enumerate() {
        let sign = ((word >> j & 1) as u32) << 31;
        *o = f32::from_bits(sign ^ rest(start + j));
    }
}

/// Fills `out` — coordinates `start..` of the row — with
/// `sign ^ rest(coordinate)`: the coordinate's bit of the sign plane
/// (1 = negative) as an IEEE-754 sign bit, over whatever the other parts
/// contribute. Whole groups of eight take one sign byte and `rest8(group)`;
/// the ragged coordinates before and after them take `rest` one at a time.
/// No branch on the sign either way.
#[inline]
fn fill_signed(
    signs: &[u8],
    start: usize,
    out: &mut [f32],
    rest8: impl Fn(usize) -> [u32; 8],
    rest: impl Fn(usize) -> u32,
) {
    debug_assert!(signs.len() * 8 >= start + out.len(), "sign plane too short");
    let head = (start.wrapping_neg() % 8).min(out.len());
    let (ragged, aligned) = out.split_at_mut(head);
    fill_signed_ragged(signs, start, ragged, &rest);
    // Only meaningful when a whole group follows: `start + head` is then a
    // multiple of eight.
    let first = (start + head) / 8;
    let (groups, ragged) = aligned.as_chunks_mut::<8>();
    let after = (first + groups.len()) * 8;
    let sign_bytes = signs.get(first..).unwrap_or(&[]);
    for ((group, dst), &byte) in (first..).zip(groups).zip(sign_bytes) {
        for ((o, mask), field) in dst.iter_mut().zip(sign_masks(byte)).zip(rest8(group)) {
            *o = f32::from_bits(mask ^ field);
        }
    }
    fill_signed_ragged(signs, after, ragged, &rest);
}

/// Heads-only run of every scheme: `±scale` by the coordinate's sign bit,
/// as `scale.to_bits() ^ (sign << 31)`.
// trimlint: hot-path -- per-run inverse kernel on the decode path
pub fn decode_signs_scaled(signs: &[u8], start: usize, scale: f32, out: &mut [f32]) {
    let magnitude = scale.to_bits();
    fill_signed(signs, start, out, |_| [magnitude; 8], |_| magnitude);
}

/// Full-depth run of the sign-magnitude and RHT 1-bit layout: the inverse of
/// [`pack_signs_into`](crate::bitpack::pack_signs_into) and
/// [`pack_low_bits_into`](crate::bitpack::pack_low_bits_into)`::<31>`.
// trimlint: hot-path -- per-run inverse kernel on the decode path
pub fn decode_sign31(signs: &[u8], tails: &[u8], start: usize, out: &mut [f32]) {
    let groups = tails.as_chunks::<31>().0;
    fill_signed(
        signs,
        start,
        out,
        |g| unpack_group(&groups[g]),
        |i| window(tails, i * 31) as u32 & 0x7FFF_FFFF,
    );
}

/// Exponent byte → the float's bits below the sign when the mantissa was
/// trimmed: `mantissa_fill` in the exponent's binade, except that a zero
/// exponent (the zero / subnormal binade) decodes as zero.
#[inline]
fn exp_filled(exp: u8, mantissa_fill: u32) -> u32 {
    match exp {
        0 => 0,
        exp => u32::from(exp) << 23 | mantissa_fill,
    }
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
    let groups = exps.as_chunks::<8>().0;
    fill_signed(
        signs,
        start,
        out,
        |g| groups[g].map(|exp| exp_filled(exp, mantissa_fill)),
        |i| exp_filled(exps[i], mantissa_fill),
    );
}

/// Full-depth run of the multi-level layout: the inverse of the sign,
/// [`pack_exps_into`] and
/// [`pack_low_bits_into`](crate::bitpack::pack_low_bits_into)`::<23>` planes.
// trimlint: hot-path -- per-run inverse kernel on the decode path
pub fn decode_sign_exp_mant(
    signs: &[u8],
    exps: &[u8],
    mants: &[u8],
    start: usize,
    out: &mut [f32],
) {
    let (exp_groups, mant_groups) = (exps.as_chunks::<8>().0, mants.as_chunks::<23>().0);
    fill_signed(
        signs,
        start,
        out,
        |g| {
            let (exp, mant) = (exp_groups[g], unpack_group(&mant_groups[g]));
            core::array::from_fn(|j| u32::from(exp[j]) << 23 | mant[j])
        },
        |i| u32::from(exps[i]) << 23 | (window(mants, i * 23) as u32 & 0x7F_FFFF),
    );
}

/// Full-depth run of the SQ/SD layout: the inverse of
/// [`pack_f32_tails_into`], a flat little-endian copy.
// trimlint: hot-path -- per-run inverse kernel on the decode path
pub fn unpack_f32_tails(tails: &[u8], start: usize, out: &mut [f32]) {
    let tails = &tails[start * 4..(start + out.len()) * 4];
    for (o, bytes) in out.iter_mut().zip(tails.chunks_exact(4)) {
        *o = f32::from_bits(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]));
    }
}

/// Writes the biased exponent byte of every value to `dst` (exactly
/// `values.len()` bytes) — the multi-level layout's 8-bit part, where a
/// field is a whole byte.
// trimlint: hot-path -- exponent-plane packing for the multi-level encode
pub fn pack_exps_into(values: &[f32], dst: &mut [u8]) {
    debug_assert_eq!(dst.len(), values.len(), "destination size");
    for (d, v) in dst.iter_mut().zip(values) {
        *d = (v.to_bits() >> 23) as u8;
    }
}

/// Writes the full 32-bit patterns of `values` to `dst` (exactly
/// `4·values.len()` bytes) — the SQ/SD tails.
///
/// A 32-bit field written at a 32-bit-aligned offset of the LSB-first
/// stream is exactly the little-endian bytes of the value, so the whole
/// part is a flat byte copy — no bit accumulator needed.
// trimlint: hot-path -- tail-plane packing for the stochastic encoders
pub fn pack_f32_tails_into(values: &[f32], dst: &mut [u8]) {
    debug_assert_eq!(dst.len(), values.len() * 4, "destination size");
    for (d, &v) in dst.chunks_exact_mut(4).zip(values) {
        d.copy_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// Writes `a.len()` predicate bits of `f(a[i], b[i])` to `dst` (exactly
/// `a.len().div_ceil(8)` bytes), a byte per group of eight with the slack
/// bits of a ragged last byte zero. Iterates both slices by `chunks` +
/// `zip` so the inner loop carries no bounds checks — the closure is
/// evaluated strictly in increasing `i` order, once per coordinate.
// trimlint: hot-path -- head-plane packing for the stochastic encoders
pub fn pack_bits_zip_into(
    a: &[f32],
    b: &[f32],
    mut f: impl FnMut(f32, f32) -> bool,
    dst: &mut [u8],
) {
    debug_assert_eq!(a.len(), b.len(), "pack_bits_zip_into: slice lengths differ");
    debug_assert_eq!(dst.len(), a.len().div_ceil(8), "destination size");
    for ((byte, ca), cb) in dst.iter_mut().zip(a.chunks(8)).zip(b.chunks(8)) {
        let mut bits = 0u32;
        for (j, (&x, &y)) in ca.iter().zip(cb).enumerate() {
            bits |= u32::from(f(x, y)) << j;
        }
        *byte = bits as u8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitpack::{pack_low_bits_into, pack_signs_into, BitBuf};

    /// `pack` run over a garbage-filled destination for `width`-bit fields:
    /// every byte, the slack bits of the last one included, must come from
    /// the packer.
    fn packed(values: &[f32], width: usize, pack: impl Fn(&[f32], &mut [u8])) -> Vec<u8> {
        let mut dst = vec![0xA5u8; (values.len() * width).div_ceil(8)];
        pack(values, &mut dst);
        dst
    }

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

    /// Arbitrary IEEE patterns — every field value, all-ones and zero
    /// included — so a bit of one field landing in its neighbour shows.
    fn patterns(n: usize) -> Vec<f32> {
        let mut rng = trimgrad_hadamard::prng::Xoshiro256StarStar::new(n as u64);
        (0..n)
            .map(|i| match i % 7 {
                0 => u32::MAX,
                1 => 0,
                _ => rng.next_u32(),
            })
            .map(f32::from_bits)
            .collect()
    }

    /// Every ragged last group (`n % 8`), around the 64-coordinate words the
    /// packers used to move, and a few long rows.
    fn lengths() -> impl Iterator<Item = usize> {
        (0..=72).chain([300, 1024, 4095])
    }

    #[test]
    fn sign31_matches_per_coordinate_pushes() {
        for n in lengths() {
            let values = patterns(n);
            let mut heads = BitBuf::with_capacity(n);
            let mut tails = BitBuf::with_capacity(n * 31);
            for &v in &values {
                let bits = v.to_bits();
                heads.push_bits(u64::from(bits >> 31), 1);
                tails.push_bits(u64::from(bits & 0x7FFF_FFFF), 31);
            }
            assert_eq!(
                packed(&values, 1, pack_signs_into),
                heads.as_bytes(),
                "n={n}"
            );
            let tails_packed = packed(&values, 31, pack_low_bits_into::<31>);
            assert_eq!(tails_packed, tails.as_bytes(), "n={n}");
        }
    }

    #[test]
    fn sign_exp_mant_matches_per_coordinate_pushes() {
        for n in lengths() {
            let values = patterns(n);
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
                packed(&values, 1, pack_signs_into),
                signs.as_bytes(),
                "n={n}"
            );
            assert_eq!(packed(&values, 8, pack_exps_into), exps.as_bytes(), "n={n}");
            let mants_packed = packed(&values, 23, pack_low_bits_into::<23>);
            assert_eq!(mants_packed, mants.as_bytes(), "n={n}");
        }
    }

    /// Decodes each of `runs` with all four sign-plane kernels into a
    /// garbage-filled slice and checks every coordinate against what the
    /// original float says it must be — the per-coordinate definition of the
    /// layout, not another unpacker.
    fn assert_runs_decode(values: &[f32], runs: impl Iterator<Item = core::ops::Range<usize>>) {
        const FILL: u32 = 1 << 22;
        let scale = 0.37f32;
        let signs = &packed(values, 1, pack_signs_into);
        let tails = &packed(values, 31, pack_low_bits_into::<31>);
        let exps = &packed(values, 8, pack_exps_into);
        let mants = &packed(values, 23, pack_low_bits_into::<23>);
        for run in runs {
            let start = run.start;
            let check = |name: &str, kernel: &dyn Fn(&mut [f32]), want: &dyn Fn(u32) -> u32| {
                let mut out = vec![f32::from_bits(0xDEAD_BEEF); run.len()];
                kernel(&mut out);
                for (i, (o, v)) in out.iter().zip(&values[run.clone()]).enumerate() {
                    let (got, want) = (o.to_bits(), want(v.to_bits()));
                    let n = values.len();
                    assert_eq!(got, want, "{name}: run {run:?} of {n}, coordinate {i}");
                }
            };
            check("sign31", &|o| decode_sign31(signs, tails, start, o), &|b| b);
            check(
                "sign_exp_mant",
                &|o| decode_sign_exp_mant(signs, exps, mants, start, o),
                &|b| b,
            );
            check(
                "signs_scaled",
                &|o| decode_signs_scaled(signs, start, scale, o),
                &|b| b & 0x8000_0000 | scale.to_bits(),
            );
            check(
                "sign_exp",
                &|o| decode_sign_exp(signs, exps, start, FILL, o),
                &|b| match b & 0x7F80_0000 {
                    0 => b & 0x8000_0000,
                    exp => b & 0x8000_0000 | exp | FILL,
                },
            );
        }
    }

    #[test]
    fn run_kernels_decode_every_alignment_and_length() {
        // Every `start % 8` against every length from empty through several
        // groups, with the run ending exactly at the part's last byte
        // (`slack` 0: nothing to over-read into) and inside the row.
        for slack in [0usize, 13] {
            for start in 0..16 {
                for len in 0..=40 {
                    let values = patterns(start + len + slack);
                    assert_runs_decode(&values, core::iter::once(start..start + len));
                }
            }
        }
    }

    #[test]
    fn run_kernels_decode_packet_runs_of_any_geometry() {
        // Coordinates per packet of a 32-bit scheme at IP MTU 101, 1500 and
        // 9000: runs start at multiples of 11 and 2235 as well as of 360, so
        // most of them begin and end inside a group of eight.
        for per_packet in [11usize, 360, 2235] {
            let values = patterns(3 * 2235 + 5);
            let n = values.len();
            let runs = (0..n).step_by(per_packet).map(|c| c..n.min(c + per_packet));
            assert_runs_decode(&values, runs);
        }
    }

    #[test]
    fn f32_tails_match_per_coordinate_pushes() {
        let values = sample(130);
        let mut reference = BitBuf::with_capacity(values.len() * 32);
        for &v in &values {
            reference.push_bits(u64::from(v.to_bits()), 32);
        }
        assert_eq!(
            packed(&values, 32, pack_f32_tails_into),
            reference.as_bytes()
        );
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
            let zip =
                |a: &[f32], dst: &mut [u8]| pack_bits_zip_into(a, &b, |x, y| x + y < 0.0, dst);
            assert_eq!(packed(&a, 1, zip), reference.as_bytes(), "n={n}");
        }
    }
}
