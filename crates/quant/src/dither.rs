//! Subtractive dithering (paper §3.1, "Subtractive Dithering (SD)").
//!
//! SD improves the *worst-case* error of stochastic quantization. Sender and
//! receiver derive the same per-coordinate dither `εᵢ` from the shared seed
//! (no extra communication); the sender quantizes `Q(v) = L·sign(v + εᵢ)` and
//! the receiver decodes `ṽ = Q(v) − εᵢ`.
//!
//! ## Dither range
//!
//! For a binary quantizer with levels `±L` the quantization step is `2L`, so
//! the classic subtractive-dither construction draws `ε ~ U(−L, L)` (half the
//! step on each side). With that choice, for every `|v| ≤ L`:
//!
//! * `E[ṽ] = v` — unbiased, and
//! * `Var[ṽ − v] = L²/3`, **independent of `v`** — compare SQ's `L² − v²`,
//!   which peaks at `L²` for `v = 0`.
//!
//! The paper's text writes `ε ~ U(−L/2, L/2)`; that range paired with levels
//! `±L` yields `E[ṽ] = 2v` (biased) and is presumably a typo — we implement
//! the standard construction whose properties match the ones the paper
//! states (smaller worst-case variance, input-independent). This
//! substitution is documented in `DESIGN.md`.
//!
//! Like SQ, the head is not a bit of the IEEE representation, so the tail
//! carries the full 32-bit float (1 bit/coordinate overhead when untrimmed).

use crate::kernels;
use crate::scheme::Run;
use crate::stats::{std_dev, CLIP_SIGMAS};
use trimgrad_hadamard::prng::Xoshiro256StarStar;

/// The shared dither stream for a row under `seed`: `εᵢ ~ U(−L, L)`.
///
/// Both `encode` and `decode` must draw the dithers in coordinate order
/// from the same generator, which this helper guarantees.
fn dither_stream(seed: u64) -> Xoshiro256StarStar {
    Xoshiro256StarStar::new(seed)
}

/// The row stage of a non-empty row: one dither per coordinate into
/// `dithers`, in order, and `L`.
///
/// The dithers are collected up front from a `TrustedLen` iterator: the
/// generator's state update is a serial chain, so running it tight and
/// letting the add/compare work pipeline over the buffer beats
/// interleaving them. The draw sequence is identical to a
/// draw-per-coordinate loop (and to decode) because the draws don't depend
/// on the data.
pub(crate) fn stage(row: &[f32], seed: u64, dithers: &mut Vec<f32>) -> f32 {
    let l = CLIP_SIGMAS * std_dev(row);
    let mut rng = dither_stream(seed);
    dithers.extend((0..row.len()).map(|_| rng.next_f32_range(-l, l)));
    l
}

/// The range packer: part `part` of the coordinates whose values and
/// dithers are `values` and `dithers`, into `dst`. Head bit 1 encodes the
/// −L level.
pub(crate) fn pack(part: usize, values: &[f32], dithers: &[f32], dst: &mut [u8]) {
    match part {
        0 => kernels::pack_bits_zip_into(values, dithers, |v, eps| v + eps < 0.0, dst),
        _ => kernels::pack_f32_tails_into(values, dst),
    }
}

/// The run decoder, which carries the row's dither stream from run to run:
/// one dither per coordinate, in coordinate order, as the encoder drew them
/// — but only heads-only coordinates use theirs, so the stream is advanced
/// lazily, up to the end of the last run that needs it. Runs must come in
/// coordinate order.
pub(crate) struct Decoder {
    rng: Xoshiro256StarStar,
    drawn: usize,
    l: f32,
}

impl Decoder {
    pub(crate) fn new(seed: u64, l: f32) -> Self {
        Self {
            rng: dither_stream(seed),
            drawn: 0,
            l,
        }
    }

    /// `L·sign − ε` from a head, the float itself from the tail.
    pub(crate) fn decode_run(&mut self, run: &Run<'_>, dst: &mut [f32]) {
        let ([signs, tails, ..], start, l) = (run.parts, run.start(), self.l);
        match run.depth {
            0 => dst.fill(0.0),
            1 => {
                for _ in self.drawn..run.coords.start {
                    let _ = self.rng.next_f32_range(-l, l);
                }
                self.drawn = run.coords.end;
                kernels::decode_signs_scaled(signs, start, l, dst);
                for q in dst {
                    *q -= self.rng.next_f32_range(-l, l);
                }
            }
            _ => kernels::unpack_f32_tails(tails, start, dst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::SchemeId;
    use proptest::prelude::*;

    #[test]
    fn untrimmed_is_bit_exact() {
        let s = SchemeId::SubtractiveDither;
        let r = vec![0.1f32, -2.25, 0.0, 4.0e-5, -0.0, 1.0e4];
        let enc = s.encode(&r, 11);
        let dec = s.decode(&enc.full_view(), &enc.meta, 11).unwrap();
        for (d, v) in dec.iter().zip(&r) {
            assert_eq!(d.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn head_only_is_q_minus_eps() {
        let s = SchemeId::SubtractiveDither;
        let r: Vec<f32> = (0..32).map(|i| ((i as f32) - 16.0) / 8.0).collect();
        let enc = s.encode(&r, 5);
        let l = enc.meta.scale;
        let dec = s.decode(&enc.trimmed_view(1), &enc.meta, 5).unwrap();
        // Reconstruct the expected values with the same stream.
        let mut rng = Xoshiro256StarStar::new(5);
        for (i, (&d, &v)) in dec.iter().zip(&r).enumerate() {
            let eps = rng.next_f32_range(-l, l);
            let q = if v + eps < 0.0 { -l } else { l };
            assert_eq!(d, q - eps, "coordinate {i}");
            // And the estimate is within the guaranteed worst-case band.
            assert!((d - v).abs() <= 2.0 * l + 1e-4);
        }
    }

    #[test]
    fn head_only_estimate_is_unbiased() {
        let s = SchemeId::SubtractiveDither;
        let r = vec![0.9f32, -0.3, 0.0, 1.1, -0.8, 0.2, 0.6, -1.2];
        let trials = 4000u64;
        let mut acc = vec![0.0f64; r.len()];
        let mut l_mean = 0.0f64;
        for t in 0..trials {
            let enc = s.encode(&r, t);
            l_mean += f64::from(enc.meta.scale);
            let dec = s.decode(&enc.trimmed_view(1), &enc.meta, t).unwrap();
            for (a, d) in acc.iter_mut().zip(&dec) {
                *a += f64::from(*d);
            }
        }
        let l = l_mean / trials as f64;
        for (a, &v) in acc.iter().zip(&r) {
            let mean = a / trials as f64;
            assert!(
                (mean - f64::from(v)).abs() < 4.0 * l / (trials as f64).sqrt(),
                "coordinate {v}: mean {mean}"
            );
        }
    }

    #[test]
    fn dither_variance_beats_sq_at_zero() {
        // At v = 0 SQ's head-only variance is L²; SD's is L²/3. Check the
        // empirical ratio.
        let sd = SchemeId::SubtractiveDither;
        let sq = SchemeId::Stochastic;
        // A row whose σ is fixed by the other coordinates; probe coordinate 0 (= 0).
        let r = vec![0.0f32, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0];
        let trials = 3000u64;
        let mut var_sd = 0.0f64;
        let mut var_sq = 0.0f64;
        for t in 0..trials {
            let e1 = sd.encode(&r, t);
            let d1 = sd.decode(&e1.trimmed_view(1), &e1.meta, t).unwrap();
            var_sd += f64::from(d1[0]).powi(2);
            let e2 = sq.encode(&r, t);
            let d2 = sq.decode(&e2.trimmed_view(1), &e2.meta, t).unwrap();
            var_sq += f64::from(d2[0]).powi(2);
        }
        var_sd /= trials as f64;
        var_sq /= trials as f64;
        assert!(
            var_sd < 0.5 * var_sq,
            "SD variance {var_sd} should be ≈ var_sq/3 = {}",
            var_sq / 3.0
        );
    }

    #[test]
    fn decode_consumes_dither_for_lost_coords() {
        // Losing coordinate 0 entirely must not desynchronize the dither for
        // coordinate 1.
        let s = SchemeId::SubtractiveDither;
        let r = vec![0.4f32, -0.6, 0.9, -0.2];
        let enc = s.encode(&r, 21);
        let all_head = s.decode(&enc.trimmed_view(1), &enc.meta, 21).unwrap();
        let partial = s
            .decode(&enc.view_with_depths(&[0, 1, 1, 1]), &enc.meta, 21)
            .unwrap();
        assert_eq!(partial[0], 0.0);
        assert_eq!(&partial[1..], &all_head[1..]);
    }

    #[test]
    fn constant_row_degenerates_gracefully() {
        let s = SchemeId::SubtractiveDither;
        let r = vec![2.0f32; 8]; // σ = 0 → L = 0, ε = 0
        let enc = s.encode(&r, 1);
        let dec = s.decode(&enc.trimmed_view(1), &enc.meta, 1).unwrap();
        for d in dec {
            assert_eq!(d.abs(), 0.0);
        }
    }

    #[test]
    fn empty_row() {
        let s = SchemeId::SubtractiveDither;
        let enc = s.encode(&[], 0);
        assert!(s.decode(&enc.full_view(), &enc.meta, 0).unwrap().is_empty());
    }

    proptest! {
        #[test]
        fn roundtrip_exact(
            r in proptest::collection::vec(-1.0e5f32..1.0e5, 0..100),
            seed in any::<u64>()
        ) {
            let s = SchemeId::SubtractiveDither;
            let enc = s.encode(&r, seed);
            let dec = s.decode(&enc.full_view(), &enc.meta, seed).unwrap();
            for (d, v) in dec.iter().zip(&r) {
                prop_assert_eq!(d.to_bits(), v.to_bits());
            }
        }

        #[test]
        fn head_only_error_bounded(
            r in proptest::collection::vec(-10.0f32..10.0, 1..64),
            seed in any::<u64>()
        ) {
            // |ṽ − v| ≤ 2L for in-range coordinates (q and ε both within ±L).
            let s = SchemeId::SubtractiveDither;
            let enc = s.encode(&r, seed);
            let l = enc.meta.scale;
            let dec = s.decode(&enc.trimmed_view(1), &enc.meta, seed).unwrap();
            for (d, &v) in dec.iter().zip(&r) {
                if v.abs() <= l {
                    prop_assert!((d - v).abs() <= 2.0 * l + 1e-3);
                }
            }
        }
    }
}
