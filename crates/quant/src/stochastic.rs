//! Stochastic quantization (paper §3.1, "Stochastic Quantization (SQ)").
//!
//! After clipping the coordinate to `[-L, L]` with `L = 2.5σ` (following
//! TernGrad), the head encodes `+1` with probability `p₊ = (L+v)/2L` and `−1`
//! otherwise; heads decode into `{−L, +L}`. For unclipped coordinates the
//! expectation of the decoded value equals the original — the estimator is
//! **unbiased**, which is what keeps SGD convergent at moderate trim rates
//! where the biased sign-magnitude scheme diverges.
//!
//! Unlike the sign-based schemes, the stochastic head is *not* a bit of the
//! IEEE representation, so exact reconstruction requires the full 32-bit
//! float in the tail: SQ pays one bit of overhead per coordinate
//! (33 vs 32). The randomness is drawn from the shared seed so encoding is
//! reproducible (§5.4), but decoding needs no randomness at all — and a
//! coordinate whose tail arrived decodes from the tail alone, so its head is
//! never read ([`SchemeId::parts_read`](crate::SchemeId::parts_read)).

use crate::draws::DrawStream;
use crate::kernels;
use crate::scheme::Run;
use crate::stats::clip;
use core::cell::RefCell;
use core::ops::Range;
use trimgrad_hadamard::prng::Xoshiro256StarStar;

/// The range packer: part `part` of the row's coordinates `coords`, whose
/// values are `values`, under `L = l`, into `dst`. The heads pull their
/// draws from the row's stream `draws`; the tails need none.
pub(crate) fn pack(
    part: usize,
    values: &[f32],
    coords: Range<usize>,
    draws: &RefCell<DrawStream>,
    l: f32,
    dst: &mut [u8],
) {
    if part != 0 {
        return kernels::pack_f32_tails_into(values, dst);
    }
    draws
        .borrow_mut()
        .pull(coords, Xoshiro256StarStar::next_f32, |block, draws| {
            kernels::pack_bits_zip_into(
                &values[block.clone()],
                draws,
                |v, draw| {
                    // p₊ = (L + clip(v)) / 2L; a zero range (constant row)
                    // degenerates to a fair coin, which decodes to ±0 = 0
                    // anyway.
                    let p_plus = if l > 0.0 {
                        (l + clip(v, l)) / (2.0 * l)
                    } else {
                        0.5
                    };
                    // Head bit 1 encodes −L (mirroring the IEEE "1 =
                    // negative" convention). Written as a negation so a NaN
                    // probability (a NaN coordinate) yields 1, which
                    // `draw >= p_plus` would not.
                    #[allow(clippy::neg_cmp_op_on_partial_ord)]
                    let head = !(draw < p_plus);
                    head
                },
                &mut dst[block.start / 8..block.end.div_ceil(8)],
            );
        });
}

/// The run decoder: `±L` from a head, the float itself from the tail.
pub(crate) fn decode_run(run: &Run<'_>, l: f32, dst: &mut [f32]) {
    let ([signs, tails, ..], start) = (run.parts, run.start());
    match run.depth {
        0 => dst.fill(0.0),
        1 => kernels::decode_signs_scaled(signs, start, l, dst),
        _ => kernels::unpack_f32_tails(tails, start, dst),
    }
}

#[cfg(test)]
mod tests {
    use crate::scheme::SchemeId;
    use crate::stats::CLIP_SIGMAS;
    use proptest::prelude::*;

    #[test]
    fn untrimmed_is_bit_exact() {
        let s = SchemeId::Stochastic;
        let r = vec![0.25, -3.5, 1.0e-4, 0.0, -0.0, 99.0];
        let enc = s.encode(&r, 7);
        let dec = s.decode(&enc.full_view(), &enc.meta, 7).unwrap();
        for (d, v) in dec.iter().zip(&r) {
            assert_eq!(d.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn one_bit_overhead() {
        let s = SchemeId::Stochastic;
        assert_eq!(s.part_bits().iter().sum::<u32>(), 33);
        let enc = s.encode(&[1.0, 2.0, 3.0], 0);
        assert_eq!(enc.total_bits(), 3 * 33);
    }

    #[test]
    fn scale_is_2_5_sigma() {
        let s = SchemeId::Stochastic;
        let r = vec![1.0f32, -1.0, 1.0, -1.0];
        let enc = s.encode(&r, 0);
        assert!((enc.meta.scale - 2.5).abs() < 1e-6); // σ = 1
    }

    #[test]
    fn heads_only_values_are_plus_minus_l() {
        let s = SchemeId::Stochastic;
        let r: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) / 10.0).collect();
        let enc = s.encode(&r, 3);
        let l = enc.meta.scale;
        let dec = s.decode(&enc.trimmed_view(1), &enc.meta, 3).unwrap();
        for d in dec {
            assert!(d == l || d == -l, "{d} not ±{l}");
        }
    }

    #[test]
    fn encoding_is_deterministic_per_seed() {
        let s = SchemeId::Stochastic;
        let r: Vec<f32> = (0..128).map(|i| ((i * 13) % 31) as f32 - 15.0).collect();
        let a = s.encode(&r, 42);
        let b = s.encode(&r, 42);
        assert_eq!(a.parts[0], b.parts[0]);
        let c = s.encode(&r, 43);
        assert_ne!(a.parts[0], c.parts[0], "different seeds should differ");
    }

    #[test]
    fn head_only_estimate_is_unbiased() {
        // Average many independent stochastic encodings of the same row; the
        // head-only decode must converge on the clipped coordinates.
        let s = SchemeId::Stochastic;
        let r = vec![0.8f32, -0.4, 0.0, 1.2, -1.0, 0.3, -0.7, 0.5];
        let trials = 4000;
        let mut acc = vec![0.0f64; r.len()];
        for t in 0..trials {
            let enc = s.encode(&r, t);
            let dec = s.decode(&enc.trimmed_view(1), &enc.meta, t).unwrap();
            for (a, d) in acc.iter_mut().zip(&dec) {
                *a += f64::from(*d);
            }
        }
        let l = CLIP_SIGMAS * crate::stats::std_dev(&r);
        for (a, &v) in acc.iter().zip(&r) {
            let mean = a / (trials as f64);
            // Standard error of the mean is L/sqrt(trials) ≈ 0.03.
            assert!(
                (mean - f64::from(v)).abs() < 4.0 * f64::from(l) / (trials as f64).sqrt(),
                "coordinate {v}: mean {mean}"
            );
        }
    }

    #[test]
    fn constant_row_degenerates_gracefully() {
        let s = SchemeId::Stochastic;
        let r = vec![5.0f32; 16]; // σ = 0 → L = 0
        let enc = s.encode(&r, 1);
        assert_eq!(enc.meta.scale, 0.0);
        let dec = s.decode(&enc.trimmed_view(1), &enc.meta, 1).unwrap();
        for d in dec {
            assert_eq!(d.abs(), 0.0);
        }
        // Full precision still exact.
        let dec = s.decode(&enc.full_view(), &enc.meta, 1).unwrap();
        assert_eq!(dec, r);
    }

    #[test]
    fn empty_row() {
        let s = SchemeId::Stochastic;
        let enc = s.encode(&[], 0);
        assert!(s.decode(&enc.full_view(), &enc.meta, 0).unwrap().is_empty());
    }

    proptest! {
        #[test]
        fn roundtrip_exact(
            r in proptest::collection::vec(-1.0e5f32..1.0e5, 0..100),
            seed in any::<u64>()
        ) {
            let s = SchemeId::Stochastic;
            let enc = s.encode(&r, seed);
            let dec = s.decode(&enc.full_view(), &enc.meta, seed).unwrap();
            for (d, v) in dec.iter().zip(&r) {
                prop_assert_eq!(d.to_bits(), v.to_bits());
            }
        }

        #[test]
        fn extreme_coordinates_get_deterministic_heads(
            mag in 100.0f32..1000.0
        ) {
            // A coordinate far beyond +L must always encode head=+1.
            let s = SchemeId::Stochastic;
            let mut r = vec![0.01f32; 32];
            r[0] = mag; // dominates σ but still > 2.5σ? Ensure: σ≈mag/√32·… check via clip
            let enc = s.encode(&r, 9);
            let l = enc.meta.scale;
            if mag > l {
                // p₊ = 1 exactly after clipping.
                prop_assert_eq!(enc.parts[0].get_bits(0, 1), 0); // head bit 0 = +L
            }
        }
    }
}
