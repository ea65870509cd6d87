//! SGD with momentum and the StepLR schedule.
//!
//! Matches the paper's training setup shape: "SGD with momentum 0.9, initial
//! learning rate 10⁻³ with StepLR scheduler".

/// SGD with classical (heavy-ball) momentum: `v ← μv + g; p ← p − lr·v`.
#[derive(Debug, Clone)]
pub struct SgdMomentum {
    /// Current learning rate.
    pub lr: f32,
    /// Momentum coefficient μ.
    pub momentum: f32,
    velocity: Vec<f32>,
}

impl SgdMomentum {
    /// Creates the optimizer for `param_count` parameters.
    #[must_use]
    pub fn new(lr: f32, momentum: f32, param_count: usize) -> Self {
        Self {
            lr,
            momentum,
            velocity: vec![0.0; param_count],
        }
    }

    /// Applies one update in place.
    ///
    /// # Panics
    ///
    /// Panics if slices disagree with the configured parameter count.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), self.velocity.len(), "param count mismatch");
        self.step_segments([params], grads);
    }

    /// Applies one update in place to parameters stored as consecutive
    /// `segments` (a model's per-layer weight and bias slices, in flat
    /// order), each against the matching stretch of `grads` and of the
    /// velocity. The update is element-wise, so the result is bit for bit
    /// what [`step`](Self::step) leaves in the concatenated parameters.
    ///
    /// # Panics
    ///
    /// Panics if `grads`, or the segments taken together, disagree with the
    /// configured parameter count.
    pub fn step_segments<'a>(
        &mut self,
        segments: impl IntoIterator<Item = &'a mut [f32]>,
        grads: &[f32],
    ) {
        assert_eq!(grads.len(), self.velocity.len(), "grad count mismatch");
        let mut at = 0;
        for params in segments {
            let end = at + params.len();
            assert!(end <= grads.len(), "param count mismatch");
            for ((p, &g), v) in params
                .iter_mut()
                .zip(&grads[at..end])
                .zip(&mut self.velocity[at..end])
            {
                *v = self.momentum * *v + g;
                *p -= self.lr * *v;
            }
            at = end;
        }
        assert_eq!(at, grads.len(), "param count mismatch");
    }
}

/// StepLR: multiply the learning rate by `gamma` every `step_size` epochs.
#[derive(Debug, Clone, Copy)]
pub struct StepLr {
    /// Initial learning rate.
    pub initial_lr: f32,
    /// Epochs between decays; 0 never decays.
    pub step_size: u32,
    /// Multiplicative decay factor.
    pub gamma: f32,
}

impl StepLr {
    /// The learning rate for `epoch` (0-based): `initial_lr` at every epoch
    /// when `step_size` is 0.
    #[must_use]
    pub fn lr_at(&self, epoch: u32) -> f32 {
        let decays = epoch.checked_div(self.step_size).unwrap_or(0);
        self.initial_lr * self.gamma.powi(decays as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_when_momentum_zero() {
        let mut opt = SgdMomentum::new(0.1, 0.0, 2);
        let mut p = vec![1.0f32, -1.0];
        opt.step(&mut p, &[1.0, -2.0]);
        assert_eq!(p, vec![0.9, -0.8]);
    }

    #[test]
    fn momentum_accumulates() {
        let mut opt = SgdMomentum::new(1.0, 0.5, 1);
        let mut p = vec![0.0f32];
        opt.step(&mut p, &[1.0]); // v=1, p=−1
        opt.step(&mut p, &[1.0]); // v=1.5, p=−2.5
        assert!((p[0] + 2.5).abs() < 1e-6, "{}", p[0]);
    }

    #[test]
    #[should_panic(expected = "grad count mismatch")]
    fn rejects_wrong_lengths() {
        let mut opt = SgdMomentum::new(0.1, 0.9, 3);
        let mut p = vec![0.0; 3];
        opt.step(&mut p, &[0.0; 2]);
    }

    #[test]
    fn step_lr_schedule() {
        let s = StepLr {
            initial_lr: 1e-3,
            step_size: 50,
            gamma: 0.1,
        };
        assert_eq!(s.lr_at(0), 1e-3);
        assert_eq!(s.lr_at(49), 1e-3);
        assert!((s.lr_at(50) - 1e-4).abs() < 1e-10);
        assert!((s.lr_at(149) - 1e-5).abs() < 1e-11);
    }

    #[test]
    fn step_size_zero_never_decays() {
        let s = StepLr {
            initial_lr: 0.05,
            step_size: 0,
            gamma: 0.1,
        };
        for epoch in [0, 1, 40, u32::MAX] {
            assert_eq!(s.lr_at(epoch), 0.05, "epoch {epoch}");
        }
    }

    #[test]
    fn optimization_converges_on_quadratic() {
        // Minimize f(p) = Σ (p_i − t_i)²; gradient 2(p − t).
        let target = [3.0f32, -2.0, 0.5];
        let mut p = vec![0.0f32; 3];
        let mut opt = SgdMomentum::new(0.05, 0.9, 3);
        for _ in 0..200 {
            let g: Vec<f32> = p
                .iter()
                .zip(&target)
                .map(|(pi, ti)| 2.0 * (pi - ti))
                .collect();
            opt.step(&mut p, &g);
        }
        for (pi, ti) in p.iter().zip(&target) {
            assert!((pi - ti).abs() < 1e-3, "{pi} vs {ti}");
        }
    }
}
