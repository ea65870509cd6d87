//! Seeded Rademacher (±1) diagonals.
//!
//! The Randomized Hadamard Transform multiplies the input by a random
//! diagonal matrix `D_s = diag(d_0, …, d_{n-1})`, `d_i ∈ {+1, −1}`, before
//! the Hadamard butterfly. Both the sender (encode) and receiver (decode)
//! regenerate the same diagonal from the shared seed `s`, so the diagonal is
//! never transmitted.

use crate::prng::Xoshiro256StarStar;

/// A lazily-generated Rademacher diagonal bound to a seed.
///
/// Iterating yields `+1.0` / `−1.0` values; the sequence for a given seed is
/// stable forever (see [`crate::prng`]).
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

    /// Returns the next diagonal entry (`+1.0` or `−1.0`).
    pub fn next_sign(&mut self) -> f32 {
        self.rng.next_sign()
    }

    /// Fills `out` with the first `out.len()` diagonal entries.
    pub fn fill(&mut self, out: &mut [f32]) {
        for v in out.iter_mut() {
            *v = self.next_sign();
        }
    }

    /// Multiplies `data[i] *= d_i` in place, consuming `data.len()` entries
    /// of the diagonal.
    pub fn apply(&mut self, data: &mut [f32]) {
        self.apply_scaled(data, 1.0);
    }

    /// Multiplies `data[i] *= d_i · scale` in place, consuming `data.len()`
    /// entries of the diagonal: the diagonal and a uniform scale in one pass,
    /// the scale folded into the sign as `±scale`. Bit-identical to scaling
    /// and then applying the diagonal — `x · (−s)` and `(x · s) · (−1)` round
    /// the same product and differ in nothing but how the sign got there.
    ///
    /// Eight signs are drawn before their eight multiplies: the generator is
    /// one serial dependency chain, and kept apart from it the multiplies
    /// vectorize (same draws in the same order, −18 % on a 2¹⁵ row).
    pub fn apply_scaled(&mut self, data: &mut [f32], scale: f32) {
        let scale = scale.to_bits();
        let (groups, ragged) = data.as_chunks_mut::<8>();
        for group in groups {
            let signs: [u32; 8] = core::array::from_fn(|_| self.rng.next_sign_bit());
            for (v, sign) in group.iter_mut().zip(signs) {
                *v *= f32::from_bits(scale ^ sign);
            }
        }
        for v in ragged {
            *v *= f32::from_bits(scale ^ self.rng.next_sign_bit());
        }
    }
}

impl Iterator for RademacherDiagonal {
    type Item = f32;

    fn next(&mut self) -> Option<f32> {
        Some(self.next_sign())
    }
}

/// Generates the first `n` entries of the seed-`s` Rademacher diagonal.
#[must_use]
pub fn rademacher_vec(seed: u64, n: usize) -> Vec<f32> {
    let mut d = RademacherDiagonal::new(seed);
    let mut out = vec![0.0; n];
    d.fill(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_are_plus_minus_one() {
        for v in rademacher_vec(3, 4096) {
            assert!(v == 1.0 || v == -1.0, "unexpected entry {v}");
        }
    }

    /// The diagonal is wire format: its first 64 entries for one seed, entry
    /// `j` negative iff bit `j` is set, recorded as of PR 19.
    #[test]
    fn first_signs_are_pinned() {
        let signs = rademacher_vec(0xC0FFEE, 64);
        let word = signs
            .iter()
            .enumerate()
            .fold(0u64, |w, (j, s)| w | u64::from(s.is_sign_negative()) << j);
        assert_eq!(word, 0x9D94_513E_5A82_E896);
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
        // 23 copies: the batched groups of eight and the ragged tail both
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
            RademacherDiagonal::new(9).apply(&mut two_pass);
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
        let short = rademacher_vec(5, 10);
        assert_eq!(&long[..10], &short[..]);
    }

    #[test]
    fn apply_matches_elementwise_product() {
        let seed = 99;
        let diag = rademacher_vec(seed, 64);
        let data: Vec<f32> = (0..64).map(|i| i as f32 - 32.0).collect();
        let mut applied = data.clone();
        RademacherDiagonal::new(seed).apply(&mut applied);
        for ((a, d), x) in applied.iter().zip(&diag).zip(&data) {
            assert_eq!(*a, d * x);
        }
    }

    #[test]
    fn apply_twice_is_identity() {
        let data: Vec<f32> = (0..128).map(|i| (i as f32).cos()).collect();
        let mut v = data.clone();
        RademacherDiagonal::new(7).apply(&mut v);
        RademacherDiagonal::new(7).apply(&mut v);
        assert_eq!(v, data); // d_i^2 == 1 exactly in f32
    }

    #[test]
    fn iterator_interface() {
        let from_iter: Vec<f32> = RademacherDiagonal::new(1).take(32).collect();
        assert_eq!(from_iter, rademacher_vec(1, 32));
    }

    #[test]
    fn signs_roughly_balanced() {
        let n = 100_000;
        let pos = rademacher_vec(123, n).iter().filter(|&&v| v > 0.0).count();
        let frac = pos as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "positive fraction {frac}");
    }
}
