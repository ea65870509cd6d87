//! Reconstruction-error metrics used by tests, benchmarks and the figures.
//!
//! The figures of the paper compare encodings by their end-to-end effect on
//! training, which ultimately traces back to the estimation error each
//! encoding incurs per trimmed row. These helpers quantify that error.

/// Normalized mean squared error: `‖est − truth‖² / ‖truth‖²`.
///
/// Returns 0 when both vectors are all-zero and `+∞` when only the truth is.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn nmse(est: &[f32], truth: &[f32]) -> f64 {
    assert_eq!(est.len(), truth.len(), "length mismatch");
    let num: f64 = est
        .iter()
        .zip(truth)
        .map(|(e, t)| (f64::from(*e) - f64::from(*t)).powi(2))
        .sum();
    let den: f64 = truth.iter().map(|&t| f64::from(t).powi(2)).sum();
    if crate::fcmp::exactly_zero_f64(den) {
        if crate::fcmp::exactly_zero_f64(num) {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        num / den
    }
}

/// Mean signed error (bias estimate): `mean(est − truth)`.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
#[must_use]
pub fn mean_bias(est: &[f32], truth: &[f32]) -> f64 {
    assert_eq!(est.len(), truth.len(), "length mismatch");
    assert!(!est.is_empty(), "empty input");
    est.iter()
        .zip(truth)
        .map(|(e, t)| f64::from(*e) - f64::from(*t))
        .sum::<f64>()
        / est.len() as f64
}

/// Largest absolute per-coordinate error.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn max_abs_err(est: &[f32], truth: &[f32]) -> f64 {
    assert_eq!(est.len(), truth.len(), "length mismatch");
    est.iter()
        .zip(truth)
        .map(|(e, t)| (f64::from(*e) - f64::from(*t)).abs())
        .fold(0.0, f64::max)
}

/// Cosine similarity between the estimate and the truth — the quantity that
/// actually matters for the *direction* of an SGD step. Returns 0 when either
/// vector is all-zero.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[must_use]
pub fn cosine_similarity(est: &[f32], truth: &[f32]) -> f64 {
    assert_eq!(est.len(), truth.len(), "length mismatch");
    let dot: f64 = est
        .iter()
        .zip(truth)
        .map(|(e, t)| f64::from(*e) * f64::from(*t))
        .sum();
    let ne: f64 = est
        .iter()
        .map(|&v| f64::from(v).powi(2))
        .sum::<f64>()
        .sqrt();
    let nt: f64 = truth
        .iter()
        .map(|&v| f64::from(v).powi(2))
        .sum::<f64>()
        .sqrt();
    if crate::fcmp::exactly_zero_f64(ne) || crate::fcmp::exactly_zero_f64(nt) {
        0.0
    } else {
        dot / (ne * nt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nmse_zero_for_exact() {
        let v = [1.0, -2.0, 3.0];
        assert_eq!(nmse(&v, &v), 0.0);
    }

    #[test]
    fn nmse_one_for_zero_estimate() {
        let t = [3.0, -4.0];
        assert!((nmse(&[0.0, 0.0], &t) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nmse_degenerate_cases() {
        assert_eq!(nmse(&[0.0], &[0.0]), 0.0);
        assert_eq!(nmse(&[1.0], &[0.0]), f64::INFINITY);
        assert_eq!(nmse(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn nmse_rejects_mismatch() {
        let _ = nmse(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn bias_signs() {
        assert!(mean_bias(&[2.0, 2.0], &[1.0, 1.0]) > 0.0);
        assert!(mean_bias(&[0.0, 0.0], &[1.0, 1.0]) < 0.0);
        assert_eq!(mean_bias(&[1.0, 3.0], &[2.0, 2.0]), 0.0);
    }

    #[test]
    fn max_abs_err_picks_worst() {
        assert_eq!(max_abs_err(&[1.0, 5.0, 2.0], &[1.0, 1.0, 1.5]), 4.0);
        assert_eq!(max_abs_err(&[], &[]), 0.0);
    }

    #[test]
    fn cosine_basics() {
        let v = [1.0, 2.0, -1.0];
        assert!((cosine_similarity(&v, &v) - 1.0).abs() < 1e-12);
        let neg: Vec<f32> = v.iter().map(|x| -x).collect();
        assert!((cosine_similarity(&neg, &v) + 1.0).abs() < 1e-12);
        assert_eq!(cosine_similarity(&[0.0; 3], &v), 0.0);
        // Orthogonal.
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
    }
}
