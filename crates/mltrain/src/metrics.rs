//! Classification metrics: top-1 and top-5 accuracy (the quantities the
//! paper reports for VGG-19/CIFAR-100).

use crate::tensor::Matrix;
use std::cmp::Ordering;

/// The order logits are ranked in: `f32`'s own order, with NaN below every
/// number and equal to NaN. Agrees with `partial_cmp` wherever that is
/// defined, so `-0.0` and `+0.0` still tie.
#[must_use]
pub(crate) fn logit_order(a: f32, b: f32) -> Ordering {
    a.partial_cmp(&b)
        .unwrap_or_else(|| b.is_nan().cmp(&a.is_nan()))
}

/// Fraction of rows whose true label ranks within the top `k` logits. A row
/// with a NaN logit is a miss: its ranking is undefined, and a diverged
/// replica must not score.
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()` or `k == 0`.
#[must_use]
pub fn top_k_accuracy(logits: &Matrix, labels: &[usize], k: usize) -> f64 {
    assert_eq!(labels.len(), logits.rows(), "one label per row");
    assert!(k >= 1, "k must be positive");
    if labels.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    for (r, &label) in labels.iter().enumerate() {
        let target = logits.get(r, label);
        let row = logits.row(r);
        if row.iter().any(|v| v.is_nan()) {
            continue;
        }
        // Rank = how many classes score strictly higher.
        let higher = row.iter().filter(|&&v| v > target).count();
        if higher < k {
            correct += 1;
        }
    }
    correct as f64 / labels.len() as f64
}

/// Top-1 accuracy.
#[must_use]
pub fn top1_accuracy(logits: &Matrix, labels: &[usize]) -> f64 {
    top_k_accuracy(logits, labels, 1)
}

/// Top-5 accuracy.
#[must_use]
pub fn top5_accuracy(logits: &Matrix, labels: &[usize]) -> f64 {
    top_k_accuracy(logits, labels, 5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn logits() -> Matrix {
        // 3 samples × 6 classes.
        Matrix::from_vec(
            3,
            6,
            vec![
                0.9, 0.1, 0.0, 0.0, 0.0, 0.0, // argmax 0
                0.1, 0.2, 0.3, 0.4, 0.5, 0.6, // argmax 5
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, // argmax 5
            ],
        )
    }

    #[test]
    fn top1_counts_argmax_hits() {
        let acc = top1_accuracy(&logits(), &[0, 5, 0]);
        assert!((acc - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn top5_is_more_permissive() {
        let l = logits();
        let labels = [0usize, 1, 1];
        let t1 = top1_accuracy(&l, &labels);
        let t5 = top5_accuracy(&l, &labels);
        assert!(t5 >= t1);
        // Sample 1 label 1 ranks 5th (scores above: .3,.4,.5,.6 → 4 higher) → in top-5.
        // Sample 2 label 1 ranks 5th likewise.
        assert!((t5 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_and_zero() {
        let l = logits();
        assert_eq!(top1_accuracy(&l, &[0, 5, 5]), 1.0);
        assert_eq!(top1_accuracy(&l, &[1, 0, 0]), 0.0);
    }

    #[test]
    fn empty_batch_is_zero() {
        let l = Matrix::zeros(0, 4);
        assert_eq!(top1_accuracy(&l, &[]), 0.0);
    }

    #[test]
    fn nan_logits_are_misses() {
        let all_nan = Matrix::from_vec(2, 3, vec![f32::NAN; 6]);
        assert_eq!(top1_accuracy(&all_nan, &[0, 2]), 0.0);
        assert_eq!(top5_accuracy(&all_nan, &[0, 2]), 0.0);
        // One NaN anywhere in a row, the label's logit or another class's.
        let mut l = logits();
        l.set(0, 0, f32::NAN);
        l.set(1, 2, f32::NAN);
        assert_eq!(top1_accuracy(&l, &[0, 5, 5]), 1.0 / 3.0);
    }

    #[test]
    fn logit_order_ranks_nan_lowest_and_keeps_ties() {
        assert_eq!(logit_order(1.0, 2.0), Ordering::Less);
        assert_eq!(logit_order(-0.0, 0.0), Ordering::Equal);
        assert_eq!(logit_order(f32::NAN, f32::NEG_INFINITY), Ordering::Less);
        assert_eq!(logit_order(f32::NEG_INFINITY, f32::NAN), Ordering::Greater);
        assert_eq!(logit_order(f32::NAN, f32::NAN), Ordering::Equal);
    }

    #[test]
    fn k_larger_than_classes_accepts_all() {
        let l = logits();
        assert_eq!(top_k_accuracy(&l, &[3, 3, 3], 6), 1.0);
    }
}
