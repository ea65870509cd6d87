//! Layers: linear (fully connected), ReLU, fused softmax + cross-entropy.

use crate::tensor::Matrix;
use trimgrad_hadamard::prng::Xoshiro256StarStar;

/// A fully-connected layer `y = x·Wᵀ + b` with `W: (out × in)`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix, `(out × in)`.
    pub w: Matrix,
    /// Bias, length `out`.
    pub b: Vec<f32>,
}

impl Linear {
    /// He-initialized layer from a seeded generator.
    #[must_use]
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Xoshiro256StarStar) -> Self {
        // He/Kaiming uniform: U(−s, s) with s = sqrt(6 / in).
        let s = (6.0 / in_dim as f32).sqrt();
        let mut w = Matrix::zeros(out_dim, in_dim);
        for v in w.as_mut_slice() {
            *v = rng.next_f32_range(-s, s);
        }
        Self {
            w,
            b: vec![0.0; out_dim],
        }
    }

    /// Forward pass: `(batch × in) → (batch × out)`.
    #[must_use]
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul_t(&self.w);
        y.add_row_vec(&self.b);
        y
    }

    /// Parameter gradients. Given upstream `dy (batch × out)` and the cached
    /// input `x`, adds `dw` (row-major, `out × in`) followed by `db` to
    /// `grad` — this layer's `param_count()`-long stretch of a flat gradient,
    /// in the order [`Mlp::params_flat`](crate::model::Mlp::params_flat) lays
    /// parameters out.
    ///
    /// # Panics
    ///
    /// Panics if `grad.len() != param_count()`.
    pub fn param_grad_acc(&self, x: &Matrix, dy: &Matrix, grad: &mut [f32]) {
        assert_eq!(grad.len(), self.param_count(), "gradient slice length");
        let (dw, db) = grad.split_at_mut(self.w.rows() * self.w.cols());
        dy.t_matmul_acc(x, dw);
        dy.col_sums_acc(db);
    }

    /// Input gradient `dx = dy·W`, `(batch × in)` — what the layer below
    /// back-propagates; the first layer has no use for it.
    #[must_use]
    pub fn input_grad(&self, dy: &Matrix) -> Matrix {
        dy.matmul(&self.w)
    }

    /// Parameter count (weights + bias).
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }
}

/// ReLU forward, in place: negatives become `+0.0`; `-0.0` and NaN pass
/// through unchanged.
///
/// The mask is a select, not a branch: whether an activation is negative is
/// a coin flip per element, so a branch would mispredict about every other
/// time, where the select compiles to a vector compare and mask. It is not
/// `f32::max(0.0)`, which turns NaN into `0.0` and may return either zero
/// for `-0.0`, so it would change bits.
pub fn relu(x: &mut Matrix) {
    for v in x.as_mut_slice() {
        *v = if *v < 0.0 { 0.0 } else { *v };
    }
}

/// ReLU backward, in place: zeroes `dy` wherever the ReLU's input was ≤ 0.
/// `act` is the ReLU's *output*, which is ≤ 0 exactly where its input was
/// (negatives became `0.0`; `-0.0` and NaN pass through [`relu`] unchanged),
/// so the pre-activations need not be kept. A select like [`relu`]'s, for
/// the same reason: about half of the activations are zero, at random.
pub fn relu_backward(act: &Matrix, dy: &mut Matrix) {
    for (d, &a) in dy.as_mut_slice().iter_mut().zip(act.as_slice()) {
        *d = if a <= 0.0 { 0.0 } else { *d };
    }
}

/// Numerically-stable row-wise softmax.
#[must_use]
pub fn softmax(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

/// Fused softmax + mean cross-entropy. Returns `(loss, dlogits)` where
/// `dlogits = (softmax − onehot) / batch`.
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()` or a label is out of range.
#[must_use]
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[usize]) -> (f32, Matrix) {
    assert_eq!(labels.len(), logits.rows(), "one label per row");
    let batch = logits.rows().max(1) as f32;
    let mut probs = softmax(logits);
    let mut loss = 0.0f64;
    for (r, &label) in labels.iter().enumerate() {
        assert!(label < logits.cols(), "label {label} out of range");
        // A floor, but not `f32::max`, which returns its other operand for a
        // NaN: a diverged model must report a non-finite loss, not ln(1e-12).
        let p = probs.get(r, label);
        loss -= f64::from(if p < 1e-12 { 1e-12 } else { p }.ln());
        let v = p - 1.0;
        probs.set(r, label, v);
    }
    for v in probs.as_mut_slice() {
        *v /= batch;
    }
    ((loss / f64::from(batch)) as f32, probs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256StarStar {
        Xoshiro256StarStar::new(7)
    }

    #[test]
    fn linear_forward_known_values() {
        let mut l = Linear::new(2, 2, &mut rng());
        l.w = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        l.b = vec![0.5, -0.5];
        let x = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let y = l.forward(&x);
        assert_eq!(y.as_slice(), &[3.5, 6.5]); // [1+2+0.5, 3+4−0.5]
    }

    #[test]
    fn linear_param_count() {
        let l = Linear::new(5, 3, &mut rng());
        assert_eq!(l.param_count(), 18);
    }

    /// ReLU's bits on the values where a select, `f32::max` and a branch
    /// can differ: each input, what [`relu`] makes of it, and whether
    /// [`relu_backward`] keeps `dy` where it is the activation.
    const RELU_CASES: [(f32, f32, bool); 11] = [
        (0.0, 0.0, false),
        (-0.0, -0.0, false),
        (f32::NAN, f32::NAN, true),
        (
            f32::from_bits(0xffc0_0001),
            f32::from_bits(0xffc0_0001),
            true,
        ),
        (f32::INFINITY, f32::INFINITY, true),
        (f32::NEG_INFINITY, 0.0, false),
        (f32::from_bits(1), f32::from_bits(1), true),
        (f32::from_bits(0x8000_0001), 0.0, false),
        (2.5, 2.5, true),
        (-1.5, 0.0, false),
        (f32::MIN_POSITIVE, f32::MIN_POSITIVE, true),
    ];

    /// Every case at every position of rows of lengths that run both the
    /// vectorised body and its remainder, compared bit for bit.
    #[test]
    fn relu_and_its_gradient_bit_for_bit() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for len in [1, 3, 4, 5, 8, 17, 33, 512] {
            for shift in 0..RELU_CASES.len() {
                let case = |i: usize| RELU_CASES[(i + shift) % RELU_CASES.len()];
                let x = Matrix::from_vec(1, len, (0..len).map(|i| case(i).0).collect());
                let mut y = x.clone();
                relu(&mut y);
                let want: Vec<u32> = (0..len).map(|i| case(i).1.to_bits()).collect();
                assert_eq!(bits(&y), want, "relu, length {len}, shift {shift}");

                let dy = Matrix::from_vec(1, len, (0..len).map(|i| -(i as f32) - 1.0).collect());
                let want: Vec<u32> = (0..len)
                    .map(|i| if case(i).2 { dy.as_slice()[i] } else { 0.0 }.to_bits())
                    .collect();
                // The mask taken from the output equals the one the input gives.
                for act in [&x, &y] {
                    let mut d = dy.clone();
                    relu_backward(act, &mut d);
                    assert_eq!(bits(&d), want, "relu_backward, length {len}, shift {shift}");
                }
            }
        }
    }

    #[test]
    fn softmax_rows_sum_to_one_and_are_stable() {
        // Include huge logits to exercise the max-subtraction.
        let x = Matrix::from_vec(2, 3, vec![1000.0, 1001.0, 999.0, -5.0, 0.0, 5.0]);
        let p = softmax(&x);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(p.row(r).iter().all(|&v| v.is_finite() && v >= 0.0));
        }
        assert!(p.get(0, 1) > p.get(0, 0));
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let x = Matrix::from_vec(1, 3, vec![20.0, 0.0, 0.0]);
        let (loss, _) = softmax_cross_entropy(&x, &[0]);
        assert!(loss < 1e-3, "loss {loss}");
        let (loss_bad, _) = softmax_cross_entropy(&x, &[2]);
        assert!(loss_bad > 5.0, "loss {loss_bad}");
    }

    #[test]
    fn cross_entropy_of_nan_logits_is_nan() {
        let x = Matrix::from_vec(2, 2, vec![0.0, f32::NAN, 1.0, 2.0]);
        let (loss, _) = softmax_cross_entropy(&x, &[0, 1]);
        assert!(loss.is_nan(), "loss {loss}");
        // The floor itself still holds for a vanishing probability.
        let x = Matrix::from_vec(1, 2, vec![0.0, 200.0]);
        let (loss, _) = softmax_cross_entropy(&x, &[0]);
        assert_eq!(loss, -(1e-12f32.ln()));
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let x = Matrix::from_vec(2, 3, vec![0.5, -0.2, 0.1, 1.0, 0.0, -1.0]);
        let labels = [2usize, 0];
        let (_, grad) = softmax_cross_entropy(&x, &labels);
        let eps = 1e-3f32;
        for r in 0..2 {
            for c in 0..3 {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let (lp, _) = softmax_cross_entropy(&xp, &labels);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let (lm, _) = softmax_cross_entropy(&xm, &labels);
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - grad.get(r, c)).abs() < 1e-2,
                    "({r},{c}): fd {fd} vs analytic {}",
                    grad.get(r, c)
                );
            }
        }
    }

    #[test]
    fn linear_gradient_matches_finite_difference() {
        let mut l = Linear::new(3, 2, &mut rng());
        let x = Matrix::from_vec(2, 3, vec![0.1, -0.4, 0.3, 0.9, 0.2, -0.7]);
        let labels = [0usize, 1];
        let loss_of = |l: &Linear| {
            let y = l.forward(&x);
            softmax_cross_entropy(&y, &labels).0
        };
        let y = l.forward(&x);
        let (_, dy) = softmax_cross_entropy(&y, &labels);
        let mut grad = vec![0.0; l.param_count()];
        l.param_grad_acc(&x, &dy, &mut grad);
        let (dw, db) = grad.split_at(6);
        let dw = Matrix::from_vec(2, 3, dw.to_vec());
        let eps = 1e-3f32;
        // Check a few weight entries.
        for (r, c) in [(0, 0), (1, 2), (0, 1)] {
            let orig = l.w.get(r, c);
            l.w.set(r, c, orig + eps);
            let lp = loss_of(&l);
            l.w.set(r, c, orig - eps);
            let lm = loss_of(&l);
            l.w.set(r, c, orig);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dw.get(r, c)).abs() < 1e-2,
                "w({r},{c}): fd {fd} vs {}",
                dw.get(r, c)
            );
        }
        // And one bias entry.
        let orig = l.b[1];
        l.b[1] = orig + eps;
        let lp = loss_of(&l);
        l.b[1] = orig - eps;
        let lm = loss_of(&l);
        l.b[1] = orig;
        let fd = (lp - lm) / (2.0 * eps);
        assert!((fd - db[1]).abs() < 1e-2, "b: fd {fd} vs {}", db[1]);
    }

    #[test]
    fn he_init_is_seeded_and_bounded() {
        let a = Linear::new(100, 10, &mut Xoshiro256StarStar::new(5));
        let b = Linear::new(100, 10, &mut Xoshiro256StarStar::new(5));
        assert_eq!(a.w.as_slice(), b.w.as_slice());
        let s = (6.0f32 / 100.0).sqrt();
        assert!(a.w.as_slice().iter().all(|&v| v.abs() <= s));
        assert!(a.b.iter().all(|&v| v == 0.0));
    }
}
