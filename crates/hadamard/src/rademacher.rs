//! Seeded Rademacher (±1) diagonals.
//!
//! The Randomized Hadamard Transform multiplies the input by a random
//! diagonal matrix `D_s = diag(d_0, …, d_{n-1})`, `d_i ∈ {+1, −1}`, before
//! the Hadamard butterfly. Both the sender (encode) and receiver (decode)
//! regenerate the same diagonal from the shared seed `s`, so the diagonal is
//! never transmitted.
//!
//! # The sign rule (wire format v2)
//!
//! Entry `j` of a row's diagonal is negative iff bit `j mod 64` of the
//! `j div 64`-th `xoshiro256**` draw for the row's seed is set: 64 signs per
//! draw, and a ragged tail takes its bits from one more draw. The rule is
//! part of the wire format and versioned with it (`trimhdr::VERSION` in
//! `trimgrad-wire`; version 1 took one draw per sign and kept its top bit).

use crate::prng::Xoshiro256StarStar;

/// A Rademacher diagonal bound to a seed.
///
/// [`apply_scaled`](Self::apply_scaled) is the one reader of the sign
/// stream; the rule it follows is in the [module docs](self).
#[derive(Debug, Clone)]
pub struct RademacherDiagonal {
    rng: Xoshiro256StarStar,
}

impl RademacherDiagonal {
    /// Creates the diagonal generator for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Xoshiro256StarStar::new(seed),
        }
    }

    /// Multiplies `data[i] *= d_i · scale` in place: the diagonal and a
    /// uniform scale in one pass, `±scale` per coordinate. A call consumes
    /// `⌈data.len() / 64⌉` draws, so a row is always one call on a fresh
    /// diagonal.
    ///
    /// One draw covers 64 coordinates, one byte of it each group of eight
    /// (the shape `trimgrad_quant::kernels::fill_signed` has on the decode
    /// side): [`sign_masks`] turns the byte into the group's eight sign
    /// bits, which land as an XOR into the floats' sign bits, branch-free —
    /// a coin flip would mispredict every other coordinate — and the group's
    /// eight XORs and multiplies vectorize.
    pub fn apply_scaled(&mut self, data: &mut [f32], scale: f32) {
        let (words, ragged) = data.as_chunks_mut::<64>();
        for word in words {
            let bytes = self.rng.next_u64().to_le_bytes();
            for (group, byte) in word.as_chunks_mut::<8>().0.iter_mut().zip(bytes) {
                for (v, mask) in group.iter_mut().zip(sign_masks(byte)) {
                    *v = f32::from_bits(v.to_bits() ^ mask) * scale;
                }
            }
        }
        if !ragged.is_empty() {
            let word = self.rng.next_u64();
            for (j, v) in ragged.iter_mut().enumerate() {
                *v = f32::from_bits(v.to_bits() ^ ((word >> j) as u32) << 31) * scale;
            }
        }
    }
}

/// Entry `n` holds the IEEE-754 sign bits of the nibble `n`'s four lanes:
/// lane `j` is `(n >> j & 1) << 31`.
const NIBBLE_SIGN_MASKS: [[u32; 4]; 16] = {
    let mut table = [[0; 4]; 16];
    let mut n = 0;
    while n < 16 {
        let mut j = 0;
        while j < 4 {
            table[n][j] = ((n as u32) >> j & 1) << 31;
            j += 1;
        }
        n += 1;
    }
    table
};

/// A sign byte as its eight lanes' IEEE-754 sign bits: lane `j` is
/// `(byte >> j & 1) << 31`, the bit to XOR into coordinate `j` of the
/// byte's group of eight (1 = negative).
///
/// Two loads from a 16-entry table rather than a shift per lane: a shift by
/// a different amount in each lane has no instruction on baseline x86-64
/// (SSE2), so that form keeps the loops that use it scalar, while this one
/// lets them vectorize.
#[inline]
#[must_use]
pub fn sign_masks(byte: u8) -> [u32; 8] {
    let [lo, hi] = [byte & 0xF, byte >> 4].map(|nibble| NIBBLE_SIGN_MASKS[usize::from(nibble)]);
    [lo[0], lo[1], lo[2], lo[3], hi[0], hi[1], hi[2], hi[3]]
}

/// The first `n` entries of the seed-`s` Rademacher diagonal, as `±1.0`.
#[cfg(test)]
pub(crate) fn rademacher_vec(seed: u64, n: usize) -> Vec<f32> {
    let mut out = vec![1.0; n];
    RademacherDiagonal::new(seed).apply_scaled(&mut out, 1.0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every byte, every lane: the table is the per-lane shift it replaces.
    #[test]
    fn sign_masks_expand_every_byte() {
        for byte in 0..=u8::MAX {
            let masks = sign_masks(byte);
            for (j, &mask) in masks.iter().enumerate() {
                assert_eq!(
                    mask,
                    (u32::from(byte) >> j & 1) << 31,
                    "byte {byte:#04x}, lane {j}"
                );
            }
        }
    }

    #[test]
    fn entries_are_plus_minus_one() {
        for v in rademacher_vec(3, 4096) {
            assert!(v == 1.0 || v == -1.0, "unexpected entry {v}");
        }
    }

    /// The diagonal is wire format: its first 64 entries for one seed, entry
    /// `j` negative iff bit `j` is set. v2 literal; under v1 (one draw per
    /// sign, top bit) the same seed read `0x9D94_513E_5A82_E896`.
    #[test]
    fn first_signs_are_pinned() {
        let signs = rademacher_vec(0xC0FFEE, 64);
        let word = signs
            .iter()
            .enumerate()
            .fold(0u64, |w, (j, s)| w | u64::from(s.is_sign_negative()) << j);
        assert_eq!(word, 0x120E_99A6_DDE4_A550);
    }

    /// `v *= ±scale` is the scale pass and the sign pass in one, bit for bit,
    /// on every class of IEEE-754 value (NaN payloads and signs included).
    #[test]
    fn apply_scaled_equals_scale_then_sign_on_ieee_specials() {
        let specials = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7FA0_1234), // signalling NaN with a payload
            f32::from_bits(0xFFC0_0001),
            f32::MAX,
            f32::MIN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1), // smallest subnormal
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007F_FFFF), // largest subnormal
            f32::EPSILON,
            1.0e-30,
            -3.0e38,
        ];
        // 23 copies: the whole 64-coordinate words and the ragged tail both
        // see every value under both signs.
        let data: Vec<f32> = specials
            .iter()
            .cycle()
            .take(specials.len() * 23)
            .copied()
            .collect();
        let n_15 = 1.0 / (32_768.0f32).sqrt();
        for scale in [
            n_15,
            std::f32::consts::FRAC_1_SQRT_2,
            1.0,
            0.5,
            1.0e-20,
            3.0e20,
        ] {
            let mut fused = data.clone();
            RademacherDiagonal::new(9).apply_scaled(&mut fused, scale);
            let mut two_pass = data.clone();
            two_pass.iter_mut().for_each(|v| *v *= scale);
            RademacherDiagonal::new(9).apply_scaled(&mut two_pass, 1.0);
            for (i, (a, b)) in fused.iter().zip(&two_pass).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "scale {scale}, entry {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(rademacher_vec(17, 100), rademacher_vec(17, 100));
        assert_ne!(rademacher_vec(17, 100), rademacher_vec(18, 100));
    }

    #[test]
    fn prefix_consistency() {
        // The first k entries do not depend on how many are requested.
        let long = rademacher_vec(5, 1000);
        for k in [1, 10, 63, 64, 65, 999] {
            assert_eq!(&long[..k], &rademacher_vec(5, k)[..], "k={k}");
        }
    }

    #[test]
    fn apply_matches_elementwise_product() {
        let seed = 99;
        let diag = rademacher_vec(seed, 200);
        let data: Vec<f32> = (0..200).map(|i| i as f32 - 32.0).collect();
        let mut applied = data.clone();
        RademacherDiagonal::new(seed).apply_scaled(&mut applied, 1.0);
        for ((a, d), x) in applied.iter().zip(&diag).zip(&data) {
            assert_eq!(*a, d * x);
        }
    }

    #[test]
    fn apply_twice_is_identity() {
        let data: Vec<f32> = (0..128).map(|i| (i as f32).cos()).collect();
        let mut v = data.clone();
        RademacherDiagonal::new(7).apply_scaled(&mut v, 1.0);
        RademacherDiagonal::new(7).apply_scaled(&mut v, 1.0);
        assert_eq!(v, data); // d_i^2 == 1 exactly in f32
    }

    #[test]
    fn signs_roughly_balanced() {
        let n = 100_000;
        let pos = rademacher_vec(123, n).iter().filter(|&&v| v > 0.0).count();
        let frac = pos as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "positive fraction {frac}");
    }
}
