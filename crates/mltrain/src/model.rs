//! Multi-layer perceptrons with flat parameter/gradient views.
//!
//! The collective layer ships gradients as one flat `f32` blob — exactly
//! like a DDP bucket — so the model exposes `params_flat` / `set_params_flat`
//! / `loss_and_grad` (which returns the flat gradient in the same order:
//! layer 0 weights row-major, layer 0 bias, layer 1 weights, …).

use crate::layers::{relu, relu_backward, softmax_cross_entropy, Linear};
use crate::metrics::logit_order;
use crate::tensor::Matrix;
use trimgrad_hadamard::prng::Xoshiro256StarStar;

/// An MLP with ReLU activations between linear layers.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `&[32, 64, 64, 10]`
    /// = two hidden layers of 64. Initialization is deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two dims.
    #[must_use]
    pub fn new(dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let mut rng = Xoshiro256StarStar::new(seed);
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], &mut rng))
            .collect();
        Self { layers }
    }

    /// Number of layers.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total parameter count.
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Linear::param_count).sum()
    }

    /// Forward pass to logits.
    #[must_use]
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut acts = self.activations(x);
        acts.pop().expect("an MLP has at least one layer")
    }

    /// Every layer's output for the batch `x`: post-ReLU activations for the
    /// hidden layers, logits last. Layer `i + 1`'s input is entry `i`.
    fn activations(&self, x: &Matrix) -> Vec<Matrix> {
        let last = self.layers.len() - 1;
        let mut acts: Vec<Matrix> = Vec::with_capacity(self.layers.len());
        for (i, l) in self.layers.iter().enumerate() {
            let mut h = l.forward(if i == 0 { x } else { &acts[i - 1] });
            if i < last {
                relu(&mut h);
            }
            acts.push(h);
        }
        acts
    }

    /// Mean cross-entropy loss and the flat gradient for one batch, in a
    /// fresh vector: [`loss_and_grad_into`](Self::loss_and_grad_into).
    #[must_use]
    pub fn loss_and_grad(&self, x: &Matrix, labels: &[usize]) -> (f32, Vec<f32>) {
        let mut flat = vec![0.0f32; self.param_count()];
        let loss = self.loss_and_grad_into(x, labels, &mut flat);
        (loss, flat)
    }

    /// Mean cross-entropy loss for one batch, with the flat gradient written
    /// over `grad` — a buffer a caller keeps from round to round. Whatever
    /// `grad` held is ignored: each layer zeroes its own stretch just before
    /// it accumulates into it, so the stretch is still in cache for the add.
    ///
    /// # Panics
    ///
    /// Panics if `grad.len() != param_count()`.
    pub fn loss_and_grad_into(&self, x: &Matrix, labels: &[usize], grad: &mut [f32]) -> f32 {
        assert_eq!(grad.len(), self.param_count(), "gradient length");
        let mut acts = self.activations(x);
        let logits = acts.pop().expect("an MLP has at least one layer");
        let (loss, mut dy) = softmax_cross_entropy(&logits, labels);
        // Backward: each layer adds its `dw`/`db` to its own stretch of the
        // flat gradient, walking the stretches from the back.
        let mut end = grad.len();
        for (i, l) in self.layers.iter().enumerate().rev() {
            let input = if i == 0 { x } else { &acts[i - 1] };
            let start = end - l.param_count();
            let stretch = &mut grad[start..end];
            stretch.fill(0.0);
            l.param_grad_acc(input, &dy, stretch);
            end = start;
            if i > 0 {
                dy = l.input_grad(&dy);
                relu_backward(input, &mut dy);
            }
        }
        loss
    }

    /// Parameters as one flat vector (same order as gradients).
    #[must_use]
    pub fn params_flat(&self) -> Vec<f32> {
        let mut flat = Vec::with_capacity(self.param_count());
        for l in &self.layers {
            flat.extend_from_slice(l.w.as_slice());
            flat.extend_from_slice(&l.b);
        }
        flat
    }

    /// The parameters in place, as consecutive slices in flat order (layer 0
    /// weights, layer 0 bias, layer 1 weights, …) — for an optimizer to step
    /// without a [`params_flat`](Self::params_flat) round-trip.
    pub fn param_segments_mut(&mut self) -> impl Iterator<Item = &mut [f32]> {
        self.layers
            .iter_mut()
            .flat_map(|l| [l.w.as_mut_slice(), l.b.as_mut_slice()])
    }

    /// Overwrites parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != param_count()`.
    pub fn set_params_flat(&mut self, flat: &[f32]) {
        assert_eq!(flat.len(), self.param_count(), "parameter count mismatch");
        let mut off = 0;
        for l in &mut self.layers {
            let wn = l.w.rows() * l.w.cols();
            l.w.as_mut_slice().copy_from_slice(&flat[off..off + wn]);
            off += wn;
            let bn = l.b.len();
            l.b.copy_from_slice(&flat[off..off + bn]);
            off += bn;
        }
    }

    /// Class predictions (argmax of logits) for a batch: the last of equal
    /// maxima. A NaN logit ranks below every number, so an all-NaN row
    /// predicts its last class.
    #[must_use]
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        let logits = self.forward(x);
        (0..logits.rows())
            .map(|r| {
                logits
                    .row(r)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| logit_order(*a.1, *b.1))
                    .map(|(i, _)| i)
                    .expect("non-empty row")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Mlp {
        Mlp::new(&[4, 8, 3], 1)
    }

    #[test]
    fn shapes_and_counts() {
        let m = tiny();
        assert_eq!(m.depth(), 2);
        assert_eq!(m.param_count(), 4 * 8 + 8 + 8 * 3 + 3);
        let x = Matrix::from_vec(5, 4, vec![0.1; 20]);
        let y = m.forward(&x);
        assert_eq!((y.rows(), y.cols()), (5, 3));
    }

    #[test]
    fn flat_roundtrip() {
        let m = tiny();
        let p = m.params_flat();
        assert_eq!(p.len(), m.param_count());
        let mut m2 = Mlp::new(&[4, 8, 3], 99);
        assert_ne!(m2.params_flat(), p);
        m2.set_params_flat(&p);
        assert_eq!(m2.params_flat(), p);
        // Identical params → identical forward.
        let x = Matrix::from_vec(2, 4, vec![0.3; 8]);
        assert_eq!(m.forward(&x).as_slice(), m2.forward(&x).as_slice());
    }

    #[test]
    fn gradient_matches_finite_difference_through_depth() {
        let m = tiny();
        let x = Matrix::from_vec(
            3,
            4,
            vec![
                0.5, -0.2, 0.8, 0.1, -0.6, 0.4, 0.0, 0.9, 0.2, 0.2, -0.3, -0.8,
            ],
        );
        let labels = [0usize, 2, 1];
        let (_, grad) = m.loss_and_grad(&x, &labels);
        assert_eq!(grad.len(), m.param_count());
        let params = m.params_flat();
        let eps = 1e-2f32;
        // Spot-check a spread of parameter indices (both layers, biases).
        for &idx in &[0usize, 7, 31, 39, 40, 42, 63, 66] {
            let mut pp = params.clone();
            pp[idx] += eps;
            let mut mp = m.clone();
            mp.set_params_flat(&pp);
            let (lp, _) = mp.loss_and_grad(&x, &labels);
            pp[idx] -= 2.0 * eps;
            mp.set_params_flat(&pp);
            let (lm, _) = mp.loss_and_grad(&x, &labels);
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grad[idx]).abs() < 2e-2,
                "param {idx}: fd {fd} vs analytic {}",
                grad[idx]
            );
        }
    }

    #[test]
    fn gradient_into_a_dirty_buffer_equals_a_fresh_one() {
        let m = tiny();
        let x = Matrix::from_vec(2, 4, vec![0.5, -0.2, 0.8, 0.1, -0.6, 0.4, 0.0, 0.9]);
        let labels = [2usize, 1];
        let (loss, fresh) = m.loss_and_grad(&x, &labels);
        let mut reused = vec![f32::NAN; m.param_count()];
        let loss_into = m.loss_and_grad_into(&x, &labels, &mut reused);
        assert_eq!(loss_into.to_bits(), loss.to_bits());
        let bits = |g: &[f32]| -> Vec<u32> { g.iter().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&reused), bits(&fresh));
    }

    #[test]
    fn single_step_reduces_loss() {
        let m = tiny();
        let x = Matrix::from_vec(
            4,
            4,
            vec![
                1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0,
            ],
        );
        let labels = [0usize, 1, 2, 0];
        let (l0, g) = m.loss_and_grad(&x, &labels);
        let mut p = m.params_flat();
        for (pv, gv) in p.iter_mut().zip(&g) {
            *pv -= 0.1 * gv;
        }
        let mut m2 = m.clone();
        m2.set_params_flat(&p);
        let (l1, _) = m2.loss_and_grad(&x, &labels);
        assert!(l1 < l0, "gradient step must reduce loss: {l0} → {l1}");
    }

    #[test]
    fn stepping_in_place_equals_the_flat_round_trip() {
        use crate::optim::SgdMomentum;
        let x = Matrix::from_vec(2, 4, vec![0.5, -0.2, 0.8, 0.1, -0.6, 0.4, 0.0, 0.9]);
        let labels = [2usize, 0];
        let (mut flat, mut in_place) = (tiny(), tiny());
        let n = flat.param_count();
        let mut opts = [SgdMomentum::new(0.1, 0.9, n), SgdMomentum::new(0.1, 0.9, n)];
        for round in 0..5 {
            let (_, grad) = flat.loss_and_grad(&x, &labels);
            let mut params = flat.params_flat();
            opts[0].step(&mut params, &grad);
            flat.set_params_flat(&params);
            opts[1].step_segments(in_place.param_segments_mut(), &grad);
            let bits =
                |m: &Mlp| -> Vec<u32> { m.params_flat().iter().map(|p| p.to_bits()).collect() };
            assert_eq!(bits(&flat), bits(&in_place), "round {round}");
        }
    }

    #[test]
    #[should_panic(expected = "param count mismatch")]
    fn stepping_segments_short_of_the_parameter_count_panics() {
        use crate::optim::SgdMomentum;
        let mut m = tiny();
        let n = m.param_count();
        let mut opt = SgdMomentum::new(0.1, 0.9, n);
        opt.step_segments(m.param_segments_mut().take(3), &vec![0.0; n]);
    }

    #[test]
    fn predict_is_argmax() {
        let m = tiny();
        let x = Matrix::from_vec(2, 4, vec![0.1, 0.9, -0.3, 0.5, -1.0, 0.2, 0.8, -0.1]);
        let logits = m.forward(&x);
        let preds = m.predict(&x);
        for (r, &p) in preds.iter().enumerate() {
            for c in 0..logits.cols() {
                assert!(logits.get(r, p) >= logits.get(r, c));
            }
        }
    }

    #[test]
    fn predict_ranks_nan_logits_lowest() {
        let x = Matrix::from_vec(2, 4, vec![0.1, 0.9, -0.3, 0.5, -1.0, 0.2, 0.8, -0.1]);
        let mut m = tiny();
        let mut params = m.params_flat();
        let last_bias = params.len() - 3;
        params[last_bias + 1] = f32::NAN; // class 1's logit is NaN in every row
        m.set_params_flat(&params);
        let logits = m.forward(&x);
        for (r, &p) in m.predict(&x).iter().enumerate() {
            let want = if logits.get(r, 2) >= logits.get(r, 0) {
                2
            } else {
                0
            };
            assert_eq!(p, want, "row {r}");
        }
        m.set_params_flat(&vec![f32::NAN; params.len()]);
        assert_eq!(
            m.predict(&x),
            vec![2, 2],
            "all-NaN rows predict the last class"
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let a = Mlp::new(&[6, 5, 4], 42);
        let b = Mlp::new(&[6, 5, 4], 42);
        assert_eq!(a.params_flat(), b.params_flat());
        let c = Mlp::new(&[6, 5, 4], 43);
        assert_ne!(a.params_flat(), c.params_flat());
    }
}
