//! RHT-based 1-bit trimmable encoding (paper §3.2, adapted from DRIVE).
//!
//! The row is first rotated with the seeded Randomized Hadamard Transform.
//! After the rotation every coordinate is a ±-signed average of the whole
//! row and is approximately `N(0, ‖V‖₂²/n)`-distributed, so its **sign** is
//! the natural 1-bit quantization: the head is `sign(rᵢ)` and the tail the
//! remaining 31 bits of the rotated float — zero space overhead, exactly as
//! in the sign-magnitude scheme, but now the quantization error of trimmed
//! coordinates is *shared* by all coordinates of the row instead of being
//! concentrated on whichever coordinates were unlucky.
//!
//! Trimmed coordinates are reconstructed as `f·sign(rᵢ)` with the unbiased
//! scale `f = ‖V‖₂²/‖R(V)‖₁` (shipped reliably), then the inverse RHT maps
//! the mixed exact/estimated rotated row back to the original basis.

use crate::scheme::DecodeError;
use crate::stats::drive_scale;
use trimgrad_hadamard::rht::RandomizedHadamard;

/// The row stage of both RHT schemes for a non-empty row: its padded
/// rotation into `rotated`, and the DRIVE scale `f`. The parts are the
/// rotation's fields — here the sign / 31-bit layout of
/// [`crate::signmag`], whose packer and run decoder this scheme shares.
pub(crate) fn stage(row: &[f32], seed: u64, rotated: &mut Vec<f32>) -> f32 {
    RandomizedHadamard::new(seed).forward_padded_into(row, rotated);
    drive_scale(rotated)
}

/// Decodes an RHT row of encoded length `n` into `out`: `fill` writes the
/// `n` rotated coordinates and the inverse rotation runs where they lie. A
/// row that was not padded (`out.len() == n`, every row of a message but
/// possibly its last) is filled, butterflied and un-rotated in `out` itself;
/// a padded one takes the one row-sized temporary of the decode path.
pub(crate) fn decode_rotated(
    n: usize,
    seed: u64,
    out: &mut [f32],
    fill: impl FnOnce(&mut [f32]) -> Result<(), DecodeError>,
) -> Result<(), DecodeError> {
    let rht = RandomizedHadamard::new(seed);
    if out.len() == n {
        fill(out)?;
        rht.inverse_in_place(out);
    } else {
        // trimlint: allow(hot-path-alloc) -- only a padded row, at most the last of a message
        let mut rotated = vec![0.0; n];
        fill(&mut rotated)?;
        rht.inverse_in_place(&mut rotated);
        out.copy_from_slice(&rotated[..out.len()]);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::scheme::{DecodeError, RowMeta, SchemeId};
    use proptest::prelude::*;
    use trimgrad_hadamard::prng::Xoshiro256StarStar;

    fn gaussian_row(n: usize, seed: u64) -> Vec<f32> {
        // Box-Muller-ish sum of uniforms is fine for test data.
        let mut rng = Xoshiro256StarStar::new(seed);
        (0..n)
            .map(|_| (0..12).map(|_| rng.next_f32()).sum::<f32>() - 6.0)
            .collect()
    }

    #[test]
    fn untrimmed_roundtrip_within_rounding() {
        let s = SchemeId::RhtOneBit;
        let r = gaussian_row(300, 1); // non-power-of-two: exercises padding
        let enc = s.encode(&r, 42);
        assert_eq!(enc.n, 512);
        let dec = s.decode(&enc.full_view(), &enc.meta, 42).unwrap();
        assert_eq!(dec.len(), r.len());
        for (d, v) in dec.iter().zip(&r) {
            assert!((d - v).abs() < 1e-4 + 1e-5 * v.abs(), "{d} vs {v}");
        }
    }

    #[test]
    fn zero_space_overhead() {
        let s = SchemeId::RhtOneBit;
        assert_eq!(s.part_bits().iter().sum::<u32>(), 32);
        let enc = s.encode(&gaussian_row(256, 2), 0);
        assert_eq!(enc.total_bits(), 256 * 32);
    }

    #[test]
    fn heads_only_error_much_smaller_than_signal() {
        // With every tail trimmed, the relative l2 error of the DRIVE decode
        // concentrates around sqrt(1 - 2/π) ≈ 0.6 for Gaussian rows — in
        // particular it must stay well below 1 (the error of decoding zeros).
        let s = SchemeId::RhtOneBit;
        let r = gaussian_row(1024, 3);
        let enc = s.encode(&r, 7);
        let dec = s.decode(&enc.trimmed_view(1), &enc.meta, 7).unwrap();
        let num: f64 = dec
            .iter()
            .zip(&r)
            .map(|(d, v)| (f64::from(*d) - f64::from(*v)).powi(2))
            .sum();
        let den: f64 = r.iter().map(|&v| f64::from(v).powi(2)).sum();
        let rel = (num / den).sqrt();
        assert!(
            (0.4..0.8).contains(&rel),
            "relative error {rel} outside DRIVE's expected band"
        );
    }

    #[test]
    fn heads_only_beats_signmag_in_l2() {
        // The whole point of the rotation (paper Fig 3 at 50% trim).
        // A spiky row is the adversarial case for per-coordinate ±σ decoding.
        let mut r = vec![0.01f32; 1024];
        r[5] = 10.0;
        r[600] = -7.0;
        let rht_err = {
            let s = SchemeId::RhtOneBit;
            let enc = s.encode(&r, 9);
            let dec = s.decode(&enc.trimmed_view(1), &enc.meta, 9).unwrap();
            dec.iter()
                .zip(&r)
                .map(|(d, v)| (f64::from(*d) - f64::from(*v)).powi(2))
                .sum::<f64>()
        };
        let sm_err = {
            let s = SchemeId::SignMagnitude;
            let enc = s.encode(&r, 9);
            let dec = s.decode(&enc.trimmed_view(1), &enc.meta, 9).unwrap();
            dec.iter()
                .zip(&r)
                .map(|(d, v)| (f64::from(*d) - f64::from(*v)).powi(2))
                .sum::<f64>()
        };
        assert!(
            rht_err < sm_err,
            "RHT {rht_err} should beat sign-magnitude {sm_err} on spiky rows"
        );
    }

    #[test]
    fn mixed_trimming_interpolates() {
        let s = SchemeId::RhtOneBit;
        let r = gaussian_row(256, 4);
        let enc = s.encode(&r, 5);
        // Half the coordinates keep their tails.
        let depths: Vec<usize> = (0..enc.n).map(|i| if i % 2 == 0 { 2 } else { 1 }).collect();
        let half = s
            .decode(&enc.view_with_depths(&depths), &enc.meta, 5)
            .unwrap();
        let err = |dec: &[f32]| -> f64 {
            dec.iter()
                .zip(&r)
                .map(|(d, v)| (f64::from(*d) - f64::from(*v)).powi(2))
                .sum()
        };
        let full = s.decode(&enc.full_view(), &enc.meta, 5).unwrap();
        let heads = s.decode(&enc.trimmed_view(1), &enc.meta, 5).unwrap();
        assert!(err(&full) < err(&half));
        assert!(err(&half) < err(&heads));
    }

    #[test]
    fn wrong_seed_fails_to_reconstruct() {
        let s = SchemeId::RhtOneBit;
        let r = gaussian_row(128, 6);
        let enc = s.encode(&r, 100);
        let dec = s.decode(&enc.full_view(), &enc.meta, 101).unwrap();
        let err: f64 = dec
            .iter()
            .zip(&r)
            .map(|(d, v)| (f64::from(*d) - f64::from(*v)).abs())
            .sum();
        assert!(err > 1.0, "wrong seed must not invert the rotation");
    }

    #[test]
    fn empty_row() {
        let s = SchemeId::RhtOneBit;
        let enc = s.encode(&[], 0);
        assert_eq!(enc.n, 0);
        assert!(s.decode(&enc.full_view(), &enc.meta, 0).unwrap().is_empty());
    }

    #[test]
    fn rejects_inconsistent_original_len() {
        let s = SchemeId::RhtOneBit;
        let enc = s.encode(&gaussian_row(100, 7), 1);
        assert_eq!(enc.n, 128);
        let bad = RowMeta {
            original_len: 300, // needs n = 512, not 128
            scale: enc.meta.scale,
        };
        assert!(matches!(
            s.decode(&enc.full_view(), &bad, 1),
            Err(DecodeError::BadOriginalLen { .. })
        ));
    }

    #[test]
    fn head_only_is_unbiased_over_seeds() {
        // Averaging head-only decodes across independent rotation seeds must
        // converge to the original row (DRIVE's unbiasedness).
        let s = SchemeId::RhtOneBit;
        let r = gaussian_row(64, 8);
        let trials = 2000u64;
        let mut acc = vec![0.0f64; r.len()];
        for t in 0..trials {
            let enc = s.encode(&r, t);
            let dec = s.decode(&enc.trimmed_view(1), &enc.meta, t).unwrap();
            for (a, d) in acc.iter_mut().zip(&dec) {
                *a += f64::from(*d);
            }
        }
        let norm = (r.iter().map(|&v| f64::from(v).powi(2)).sum::<f64>() / r.len() as f64).sqrt();
        for (a, &v) in acc.iter().zip(&r) {
            let mean = a / trials as f64;
            assert!(
                (mean - f64::from(v)).abs() < 6.0 * norm / (trials as f64).sqrt(),
                "coordinate {v}: mean {mean}"
            );
        }
    }

    proptest! {
        #[test]
        fn roundtrip_any_row(
            r in proptest::collection::vec(-100.0f32..100.0, 1..200),
            seed in any::<u64>()
        ) {
            let s = SchemeId::RhtOneBit;
            let enc = s.encode(&r, seed);
            prop_assert!(enc.n.is_power_of_two());
            let dec = s.decode(&enc.full_view(), &enc.meta, seed).unwrap();
            prop_assert_eq!(dec.len(), r.len());
            for (d, v) in dec.iter().zip(&r) {
                prop_assert!((d - v).abs() <= 1e-2 + 1e-4 * v.abs());
            }
        }

        #[test]
        fn heads_only_never_panics_and_is_finite(
            r in proptest::collection::vec(-100.0f32..100.0, 1..200),
            seed in any::<u64>()
        ) {
            let s = SchemeId::RhtOneBit;
            let enc = s.encode(&r, seed);
            let dec = s.decode(&enc.trimmed_view(1), &enc.meta, seed).unwrap();
            prop_assert_eq!(dec.len(), r.len());
            for d in dec {
                prop_assert!(d.is_finite());
            }
        }
    }
}
