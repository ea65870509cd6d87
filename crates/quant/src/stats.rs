//! Streaming statistics over gradient rows.
//!
//! The scalar schemes scale their 1-bit heads by quantities derived from the
//! row being encoded — the standard deviation `σ` (sign-magnitude), the
//! clipping range `L = 2.5σ` (SQ/SD, following TernGrad), or the DRIVE scale
//! `f = ‖r‖₂²/‖r‖₁` (RHT). These are the values the sender ships in small,
//! reliable metadata packets. All accumulation is in `f64` so that rows of
//! 2¹⁵ single-precision coordinates do not lose precision.

/// TernGrad's clip: SQ and SD quantize to `±L` with `L = CLIP_SIGMAS · σ`.
pub const CLIP_SIGMAS: f32 = 2.5;

/// Number of independent accumulators in [`lane_sum`].
const SUM_LANES: usize = 8;

/// Sums `f` over `xs` with eight independent f64 accumulators.
///
/// A single-accumulator float sum is a serial dependency chain (one add
/// latency per element); eight lanes let the adds pipeline and vectorize.
/// The lane-then-tail combination order is fixed, so the result is still
/// fully deterministic — it is simply a *different* (and permanent) order
/// than a plain left fold. Every scale the encoders derive goes through
/// here — as does the test-side reference encoder's, so the two agree bit
/// for bit.
// trimlint: hot-path -- row-scale reduction on every encode
fn lane_sum(xs: &[f32], mut f: impl FnMut(f32) -> f64) -> f64 {
    let mut acc = [0.0f64; SUM_LANES];
    let mut chunks = xs.chunks_exact(SUM_LANES);
    for c in &mut chunks {
        for (a, &v) in acc.iter_mut().zip(c) {
            *a += f(v);
        }
    }
    let mut tail = 0.0;
    for &v in chunks.remainder() {
        tail += f(v);
    }
    acc.iter().sum::<f64>() + tail
}

/// Population standard deviation of `xs` (σ with denominator `n`).
///
/// Returns 0 for empty or constant input.
#[must_use]
pub fn std_dev(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    let n = xs.len() as f64;
    let mean = lane_sum(xs, f64::from) / n;
    let var = lane_sum(xs, |v| {
        let d = f64::from(v) - mean;
        d * d
    }) / n;
    var.sqrt() as f32
}

/// ℓ₁ norm of `xs`.
#[must_use]
pub fn l1_norm(xs: &[f32]) -> f64 {
    lane_sum(xs, |v| f64::from(v).abs())
}

/// Squared ℓ₂ norm of `xs`.
#[must_use]
pub fn l2_norm_sq(xs: &[f32]) -> f64 {
    lane_sum(xs, |v| f64::from(v) * f64::from(v))
}

/// ℓ₂ norm of `xs`.
#[must_use]
pub fn l2_norm(xs: &[f32]) -> f64 {
    l2_norm_sq(xs).sqrt()
}

/// The DRIVE unbiased scaling factor for a rotated row `r`:
/// `f = ‖r‖₂² / ‖r‖₁`.
///
/// Decoding a trimmed coordinate as `f·sign(rᵢ)` makes the reconstruction an
/// unbiased estimate of the rotated row under the random rotation. Returns 0
/// for an all-zero (or empty) row, in which case `f·sign = 0` is exact.
#[must_use]
pub fn drive_scale(rotated: &[f32]) -> f32 {
    let l1 = l1_norm(rotated);
    if crate::fcmp::exactly_zero_f64(l1) {
        return 0.0;
    }
    (l2_norm_sq(rotated) / l1) as f32
}

/// Clamps `v` to `[-limit, limit]`.
#[must_use]
pub fn clip(v: f32, limit: f32) -> f32 {
    v.clamp(-limit, limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn std_dev_edge_cases() {
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert_eq!(std_dev(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn std_dev_known_value() {
        // Population σ of [1, 2, 3, 4] is sqrt(5/4).
        let s = std_dev(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s - (1.25f32).sqrt()).abs() < 1e-6, "{s}");
    }

    #[test]
    fn std_dev_shift_invariant() {
        let a = [0.5, -1.5, 2.0, 0.0, 3.5];
        let b: Vec<f32> = a.iter().map(|v| v + 1000.0).collect();
        assert!((std_dev(&a) - std_dev(&b)).abs() < 1e-4);
    }

    #[test]
    fn norms_known_values() {
        let v = [3.0, -4.0];
        assert_eq!(l1_norm(&v), 7.0);
        assert_eq!(l2_norm_sq(&v), 25.0);
        assert_eq!(l2_norm(&v), 5.0);
        assert_eq!(l1_norm(&[]), 0.0);
        assert_eq!(l2_norm(&[]), 0.0);
    }

    #[test]
    fn drive_scale_uniform_signs() {
        // For a row of ±c the scale must be exactly c.
        let r = [2.0, -2.0, 2.0, 2.0, -2.0];
        assert!((drive_scale(&r) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn drive_scale_zero_row() {
        assert_eq!(drive_scale(&[0.0; 8]), 0.0);
        assert_eq!(drive_scale(&[]), 0.0);
    }

    #[test]
    fn clip_bounds() {
        assert_eq!(clip(5.0, 2.0), 2.0);
        assert_eq!(clip(-5.0, 2.0), -2.0);
        assert_eq!(clip(1.5, 2.0), 1.5);
        assert_eq!(clip(-2.0, 2.0), -2.0);
    }

    proptest! {
        #[test]
        fn drive_scale_is_magnitude_weighted_mean(
            r in proptest::collection::vec(-10.0f32..10.0, 1..100)
        ) {
            // f = Σr²/Σ|r| is the |r|-weighted mean of the magnitudes, so it
            // must lie within [min|r|, max|r|] (for a not-all-zero row) and
            // satisfy the defining identity f·‖r‖₁ = ‖r‖₂².
            let f = f64::from(drive_scale(&r));
            let l1 = l1_norm(&r);
            prop_assert!((f * l1 - l2_norm_sq(&r)).abs() <= 1e-4 * (1.0 + l2_norm_sq(&r)));
            if l1 > 0.0 {
                let lo = r.iter().map(|&x| f64::from(x).abs()).fold(f64::INFINITY, f64::min);
                let hi = r.iter().map(|&x| f64::from(x).abs()).fold(0.0, f64::max);
                prop_assert!(f >= lo - 1e-6 && f <= hi + 1e-6, "f={f} outside [{lo}, {hi}]");
            }
        }

        #[test]
        fn std_dev_nonnegative_and_bounded(
            xs in proptest::collection::vec(-100.0f32..100.0, 0..200)
        ) {
            let s = std_dev(&xs);
            prop_assert!(s >= 0.0);
            // σ cannot exceed half the range for bounded data.
            prop_assert!(s <= 100.0 + 1e-3);
        }
    }
}
