//! The seeded Randomized Hadamard Transform (RHT) and its inverse.
//!
//! Forward: `R_s(V) = (1/√n) · H_n · D_s · V` where `D_s` is the seed-`s`
//! Rademacher diagonal ([`crate::rademacher`]) and `H_n` the Hadamard matrix.
//! Because `(1/√n)·H_n` is orthogonal and symmetric, and `D_s` is orthogonal
//! and its own inverse, the inverse transform is
//! `V = D_s · (1/√n) · H_n · R_s(V)` — the same butterfly followed by the
//! same diagonal, applied in the opposite order.
//!
//! After the rotation, each coordinate of `R_s(V)` is a ±-signed sum of all
//! input coordinates and is approximately normally distributed with zero mean
//! (for non-adversarial inputs), which is exactly what makes 1-bit sign
//! quantization of the rotated vector accurate (DRIVE, NeurIPS '21).

use crate::fwht::{butterflies, check_pow2};
use crate::rademacher::RademacherDiagonal;
use crate::Result;

/// A Randomized Hadamard Transform bound to a seed.
///
/// The seed is shared between sender and receiver (derived from training
/// epoch and message id, see [`crate::prng::derive_seed`]); construction is
/// free, the diagonal is regenerated on each call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomizedHadamard {
    seed: u64,
}

impl RandomizedHadamard {
    /// Creates the transform for a shared seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Returns the seed this transform is bound to.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Applies the forward RHT in place: `data ← (1/√n)·H·D_s·data`.
    ///
    /// # Errors
    ///
    /// Fails when `data.len()` is empty or not a power of two (the buffer is
    /// then untouched); use [`forward_padded_into`](Self::forward_padded_into)
    /// for arbitrary lengths.
    pub fn forward(&self, data: &mut [f32]) -> Result<()> {
        check_pow2(data)?;
        self.forward_in_place(data);
        Ok(())
    }

    /// Applies the inverse RHT in place: `data ← D_s·(1/√n)·H·data`.
    ///
    /// # Errors
    ///
    /// Fails when `data.len()` is empty or not a power of two.
    pub fn inverse(&self, data: &mut [f32]) -> Result<()> {
        check_pow2(data)?;
        self.inverse_in_place(data);
        Ok(())
    }

    /// The inverse RHT where the rotated row lies — the core of
    /// [`inverse`](Self::inverse), which a decoder of a padded row calls
    /// directly and then truncates: the butterfly, then **one** pass
    /// `v *= ±1/√n` with the
    /// orthonormal scale folded into the diagonal's sign
    /// ([`RademacherDiagonal::apply_scaled`]), not a scaling pass and a sign
    /// pass.
    ///
    /// Total (no panics, no errors), like
    /// [`forward_padded_into`](Self::forward_padded_into): `data.len()` must
    /// be a power of two or zero (an empty row inverts to itself), which the
    /// decoders have checked by the time they call this; any other length
    /// comes back transformed into garbage, never a panic.
    // trimlint: hot-path -- per-row rotation on the decode path
    pub fn inverse_in_place(&self, data: &mut [f32]) {
        debug_assert!(data.is_empty() || data.len().is_power_of_two());
        butterflies(data);
        let scale = 1.0 / (data.len() as f32).sqrt();
        RademacherDiagonal::new(self.seed).apply_scaled(data, scale);
    }

    /// Forward RHT of a slice of arbitrary length into `buf`, whose contents
    /// are replaced: zero-pads to the next power of two and leaves the
    /// rotated (padded) vector there. An empty input yields an empty
    /// rotation. A caller that rotates row after row keeps one buffer and
    /// allocates only when a row outgrows it.
    ///
    /// Total (no panics, no errors): the padded length is a power of two by
    /// construction, so this goes straight to the unchecked butterfly core —
    /// the encode hot path has no panic edge through here.
    ///
    /// The receiver must know the original length to invert: it runs
    /// [`inverse_in_place`](Self::inverse_in_place) and truncates.
    // trimlint: hot-path -- per-row rotation on the encode path
    pub fn forward_padded_into(&self, data: &[f32], buf: &mut Vec<f32>) {
        buf.clear();
        if data.is_empty() {
            return;
        }
        let n = crate::next_pow2(data.len());
        buf.reserve_exact(n);
        buf.extend_from_slice(data);
        buf.resize(n, 0.0);
        self.forward_in_place(buf);
    }

    /// The forward RHT core [`forward`](Self::forward) and
    /// [`forward_padded_into`](Self::forward_padded_into) share, the mirror
    /// of [`inverse_in_place`](Self::inverse_in_place): **one** pass
    /// `v *= ±1/√n` with the orthonormal scale folded into the diagonal's
    /// sign, then the butterfly. `data.len()` must be a power of two or zero.
    fn forward_in_place(&self, data: &mut [f32]) {
        debug_assert!(data.is_empty() || data.len().is_power_of_two());
        let scale = 1.0 / (data.len() as f32).sqrt();
        RademacherDiagonal::new(self.seed).apply_scaled(data, scale);
        butterflies(data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fwht::fwht_orthonormal;
    use proptest::prelude::*;

    /// The padded forward rotation into a fresh vector.
    fn padded(rht: &RandomizedHadamard, data: &[f32]) -> Vec<f32> {
        let mut buf = Vec::new();
        rht.forward_padded_into(data, &mut buf);
        buf
    }

    /// What a decoder does with a padded rotation: invert where it lies,
    /// then truncate to the original length.
    fn unpadded(rht: &RandomizedHadamard, rotated: &[f32], original_len: usize) -> Vec<f32> {
        let mut buf = rotated.to_vec();
        rht.inverse_in_place(&mut buf);
        buf.truncate(original_len);
        buf
    }

    fn l2(x: &[f32]) -> f64 {
        x.iter()
            .map(|&v| f64::from(v) * f64::from(v))
            .sum::<f64>()
            .sqrt()
    }

    #[test]
    fn forward_then_inverse_is_identity() {
        let rht = RandomizedHadamard::new(77);
        let data: Vec<f32> = (0..256).map(|i| (i as f32 * 0.37).sin() * 10.0).collect();
        let mut v = data.clone();
        rht.forward(&mut v).unwrap();
        rht.inverse(&mut v).unwrap();
        for (a, b) in v.iter().zip(&data) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn fused_inverse_equals_the_three_passes_it_replaced() {
        // Butterfly, `1/√n` scaling pass, diagonal pass — bit for bit,
        // through the checked `inverse` and through the unchecked core a
        // decoder runs before it truncates.
        let rht = RandomizedHadamard::new(0xFEED);
        for n in [1usize, 2, 8, 64, 1 << 10, 1 << 13, 1 << 15] {
            let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.61).cos() * 3.0).collect();
            let mut staged = data.clone();
            fwht_orthonormal(&mut staged).unwrap();
            RademacherDiagonal::new(0xFEED).apply_scaled(&mut staged, 1.0);
            let mut fused = data.clone();
            rht.inverse(&mut fused).unwrap();
            let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fused), bits(&staged), "n={n}");
            let cut = n - n / 3;
            assert_eq!(bits(&unpadded(&rht, &data, cut)), bits(&staged[..cut]));
        }
        // An empty row inverts to itself without complaint.
        rht.inverse_in_place(&mut []);
    }

    #[test]
    fn failed_forward_leaves_buffer_untouched() {
        let rht = RandomizedHadamard::new(5);
        let data = vec![1.0, 2.0, 3.0]; // not a power of two
        let mut v = data.clone();
        assert!(rht.forward(&mut v).is_err());
        assert_eq!(v, data);
    }

    #[test]
    fn seed_matters() {
        let data: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let mut a = data.clone();
        let mut b = data.clone();
        RandomizedHadamard::new(1).forward(&mut a).unwrap();
        RandomizedHadamard::new(2).forward(&mut b).unwrap();
        assert_ne!(a, b);
        // Wrong-seed inverse does not recover the input.
        RandomizedHadamard::new(2).inverse(&mut a).unwrap();
        let err: f32 = a.iter().zip(&data).map(|(x, y)| (x - y).abs()).sum();
        assert!(err > 1.0, "wrong seed should not invert (err={err})");
    }

    #[test]
    fn padded_into_replaces_what_the_buffer_held() {
        let rht = RandomizedHadamard::new(9);
        let mut buf = vec![7.0f32; 4096];
        for len in [1000usize, 3, 0, 64, 2000] {
            let data: Vec<f32> = (0..len).map(|i| (i as f32 * 0.7).sin()).collect();
            rht.forward_padded_into(&data, &mut buf);
            assert_eq!(buf, padded(&rht, &data), "len={len}");
        }
    }

    #[test]
    fn padded_roundtrip_arbitrary_length() {
        let rht = RandomizedHadamard::new(123);
        for len in [1usize, 2, 3, 5, 17, 100, 365, 1000] {
            let data: Vec<f32> = (0..len).map(|i| (i as f32) - (len as f32) / 2.0).collect();
            let rot = padded(&rht, &data);
            assert!(rot.len().is_power_of_two());
            assert!(rot.len() >= len);
            let back = unpadded(&rht, &rot, len);
            assert_eq!(back.len(), len);
            for (a, b) in back.iter().zip(&data) {
                assert!((a - b).abs() < 1e-3, "len={len}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn rotation_concentrates_spiky_vector() {
        // A one-hot vector has all its energy in one coordinate; after the
        // rotation the max |coordinate| should shrink by ~sqrt(n), the
        // "smoothing" property 1-bit quantization relies on.
        let n = 1024;
        let mut v = vec![0.0f32; n];
        v[7] = 100.0;
        RandomizedHadamard::new(4).forward(&mut v).unwrap();
        let max = v.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        assert!(
            max < 100.0 / (n as f32).sqrt() * 1.5,
            "rotated max {max} not concentrated"
        );
    }

    proptest! {
        #[test]
        fn preserves_l2_norm(
            raw in proptest::collection::vec(-100.0f32..100.0, 1..=300),
            seed in any::<u64>()
        ) {
            let rht = RandomizedHadamard::new(seed);
            let rot = padded(&rht, &raw);
            let before = l2(&raw);
            let after = l2(&rot);
            prop_assert!((before - after).abs() <= 1e-3 * (1.0 + before));
        }

        #[test]
        fn roundtrip_identity(
            raw in proptest::collection::vec(-100.0f32..100.0, 1..=300),
            seed in any::<u64>()
        ) {
            let rht = RandomizedHadamard::new(seed);
            let rot = padded(&rht, &raw);
            let back = unpadded(&rht, &rot, raw.len());
            for (a, b) in back.iter().zip(&raw) {
                prop_assert!((a - b).abs() <= 1e-2 + 1e-4 * b.abs());
            }
        }
    }
}
