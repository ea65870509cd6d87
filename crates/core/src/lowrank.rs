//! Low-rank gradient decomposition with rank-prefix decodability
//! (paper §5.2 / §5.3).
//!
//! PowerSGD-style compression: a gradient matrix `G (m×n)` is approximated
//! by `P·Qᵀ` with `P (m×r)` orthonormal and `Q (n×r)`, computed by one or
//! more rounds of subspace power iteration. The paper's §5.3 asks for "a
//! certain encoding format for laying out different ranks in the packet
//! payload, such that trimming arbitrary packets always affects only the
//! ranks with the least importance (smallest eigenvalue)". This module
//! supplies exactly that contract in the transport-agnostic form the rest
//! of this repo uses: the factorization's rank-1 components are **ordered
//! by importance** (‖q_k‖, the singular-value estimate) and
//! [`LowRankMessage::reconstruct`] decodes from *any prefix of ranks* —
//! a switch that lays rank `k`'s coefficients in payload section `k` can
//! then trim tail ranks exactly like it trims tail bits.

use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_quant::fcmp;

/// PowerSGD-style low-rank compressor.
#[derive(Debug, Clone, Copy)]
pub struct LowRankCompressor {
    /// Target rank `r`.
    pub rank: usize,
    /// Power-iteration rounds (1 matches PowerSGD's default; more rounds
    /// sharpen the subspace).
    pub power_iters: usize,
    /// Seed for the random start subspace (shared sender/receiver state is
    /// *not* required — the factors themselves are transmitted).
    pub seed: u64,
}

impl LowRankCompressor {
    /// Creates a compressor.
    ///
    /// # Panics
    ///
    /// Panics for `rank == 0` or `power_iters == 0`.
    #[must_use]
    pub fn new(rank: usize, power_iters: usize, seed: u64) -> Self {
        assert!(rank >= 1, "rank must be positive");
        assert!(power_iters >= 1, "at least one power iteration");
        Self {
            rank,
            power_iters,
            seed,
        }
    }

    /// Compresses `grad` interpreted as a row-major `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `grad.len() != rows * cols` or either dimension is zero.
    #[must_use]
    pub fn compress(&self, grad: &[f32], rows: usize, cols: usize) -> LowRankMessage {
        assert_eq!(grad.len(), rows * cols, "shape mismatch");
        assert!(rows > 0 && cols > 0, "degenerate matrix");
        let r = self.rank.min(rows).min(cols);
        // Q: n×r random start.
        let mut rng = Xoshiro256StarStar::new(self.seed);
        let mut q: Vec<Vec<f32>> = (0..r)
            .map(|_| (0..cols).map(|_| rng.next_f32_range(-1.0, 1.0)).collect())
            .collect();
        let mut p: Vec<Vec<f32>> = vec![vec![0.0; rows]; r];
        for _ in 0..self.power_iters {
            // P = G·Q, then orthonormalize P.
            for k in 0..r {
                for (i, pi) in p[k].iter_mut().enumerate() {
                    let row = &grad[i * cols..(i + 1) * cols];
                    *pi = dot(row, &q[k]);
                }
            }
            orthonormalize(&mut p);
            // Q = Gᵀ·P.
            for k in 0..r {
                for (j, qj) in q[k].iter_mut().enumerate() {
                    let mut acc = 0.0f64;
                    for i in 0..rows {
                        acc += f64::from(grad[i * cols + j]) * f64::from(p[k][i]);
                    }
                    *qj = acc as f32;
                }
            }
        }
        // Order components by importance (‖q_k‖ estimates σ_k).
        let mut order: Vec<usize> = (0..r).collect();
        let norms: Vec<f64> = q.iter().map(|qk| norm(qk)).collect();
        order.sort_by(|&a, &b| norms[b].total_cmp(&norms[a]));
        let components = order
            .into_iter()
            .map(|k| RankComponent {
                p: p[k].clone(),
                q: q[k].clone(),
            })
            .collect();
        LowRankMessage {
            rows,
            cols,
            components,
        }
    }
}

/// One rank-1 component `p·qᵀ`.
#[derive(Debug, Clone, PartialEq)]
pub struct RankComponent {
    /// Left factor (`rows` entries, orthonormal across components).
    pub p: Vec<f32>,
    /// Right factor (`cols` entries; its norm is the importance).
    pub q: Vec<f32>,
}

/// A compressed gradient: rank-1 components in decreasing importance.
#[derive(Debug, Clone, PartialEq)]
pub struct LowRankMessage {
    /// Matrix rows.
    pub rows: usize,
    /// Matrix columns.
    pub cols: usize,
    /// Components, most important first.
    pub components: Vec<RankComponent>,
}

impl LowRankMessage {
    /// Available rank count.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.components.len()
    }

    /// Reconstructs the matrix from the first `ranks` components (the
    /// trim-prefix contract: any prefix decodes; more ranks, less error).
    ///
    /// # Panics
    ///
    /// Panics if `ranks > self.rank()`.
    #[must_use]
    pub fn reconstruct(&self, ranks: usize) -> Vec<f32> {
        assert!(ranks <= self.rank(), "rank {ranks} not available");
        let mut out = vec![0.0f32; self.rows * self.cols];
        for c in &self.components[..ranks] {
            for (i, &pi) in c.p.iter().enumerate() {
                if fcmp::exactly_zero(pi) {
                    continue;
                }
                let row = &mut out[i * self.cols..(i + 1) * self.cols];
                for (o, &qj) in row.iter_mut().zip(&c.q) {
                    *o += pi * qj;
                }
            }
        }
        out
    }
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| f64::from(x) * f64::from(y))
        .sum::<f64>() as f32
}

fn norm(v: &[f32]) -> f64 {
    v.iter()
        .map(|&x| f64::from(x) * f64::from(x))
        .sum::<f64>()
        .sqrt()
}

/// Modified Gram–Schmidt with reorthogonalization ("twice is enough") and
/// rank revealing, over the column set (each `cols[k]` is one column).
///
/// Two details matter in `f32`: a second projection pass restores the
/// orthogonality that single-pass MGS loses to rounding, and a column whose
/// residual collapses relative to its own original norm is linearly
/// dependent on its predecessors — normalizing that residual would promote
/// pure rounding noise to a unit vector, so it is zeroed instead (zero
/// columns contribute nothing downstream).
fn orthonormalize(cols: &mut [Vec<f32>]) {
    for k in 0..cols.len() {
        let original = norm(&cols[k]);
        for _pass in 0..2 {
            for j in 0..k {
                let proj = dot(&cols[k], &cols[j]);
                let (head, tail) = cols.split_at_mut(k);
                for (x, &y) in tail[0].iter_mut().zip(&head[j]) {
                    *x -= proj * y;
                }
            }
        }
        let n = norm(&cols[k]);
        if n > original.max(f64::MIN_POSITIVE) * 1e-4 && n > 1e-12 {
            let inv = (1.0 / n) as f32;
            for x in cols[k].iter_mut() {
                *x *= inv;
            }
        } else {
            // Rank-deficient direction: drop it.
            cols[k].iter_mut().for_each(|x| *x = 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trimgrad_quant::error::nmse;

    /// Builds a matrix of known rank as a sum of outer products.
    fn rank_k_matrix(rows: usize, cols: usize, k: usize, seed: u64) -> Vec<f32> {
        let mut rng = Xoshiro256StarStar::new(seed);
        let mut m = vec![0.0f32; rows * cols];
        for component in 0..k {
            let scale = 4.0 / (component + 1) as f32; // decaying spectrum
            let u: Vec<f32> = (0..rows).map(|_| rng.next_f32_range(-1.0, 1.0)).collect();
            let v: Vec<f32> = (0..cols).map(|_| rng.next_f32_range(-1.0, 1.0)).collect();
            for i in 0..rows {
                for j in 0..cols {
                    m[i * cols + j] += scale * u[i] * v[j];
                }
            }
        }
        m
    }

    #[test]
    fn exact_for_matrices_within_rank() {
        let g = rank_k_matrix(24, 16, 2, 1);
        let c = LowRankCompressor::new(4, 3, 7);
        let msg = c.compress(&g, 24, 16);
        let back = msg.reconstruct(msg.rank());
        let e = nmse(&back, &g);
        assert!(e < 1e-6, "rank-2 matrix under rank-4 compressor: nmse {e}");
    }

    #[test]
    fn error_decreases_with_rank_prefix() {
        let g = rank_k_matrix(32, 32, 8, 2);
        let c = LowRankCompressor::new(8, 3, 7);
        let msg = c.compress(&g, 32, 32);
        let mut last = f64::INFINITY;
        for ranks in 1..=msg.rank() {
            let e = nmse(&msg.reconstruct(ranks), &g);
            assert!(
                e < last + 1e-9,
                "rank {ranks}: error {e} did not improve on {last}"
            );
            last = e;
        }
        assert!(last < 1e-4, "full rank should capture it: {last}");
    }

    #[test]
    fn components_ordered_by_importance() {
        let g = rank_k_matrix(20, 30, 5, 3);
        let msg = LowRankCompressor::new(5, 3, 1).compress(&g, 20, 30);
        // A component's importance (≈ its singular value) is the norm of
        // its right factor.
        let imp: Vec<f64> = msg.components.iter().map(|c| norm(&c.q)).collect();
        for w in imp.windows(2) {
            assert!(w[0] >= w[1] - 1e-9, "importances out of order: {imp:?}");
        }
        // The decaying spectrum must be visible.
        assert!(imp[0] > imp[msg.rank() - 1] * 1.5);
    }

    #[test]
    fn rank_zero_prefix_reconstructs_zero() {
        let g = rank_k_matrix(8, 8, 2, 4);
        let msg = LowRankCompressor::new(2, 2, 1).compress(&g, 8, 8);
        assert!(msg.reconstruct(0).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn deterministic_per_seed() {
        let g = rank_k_matrix(16, 16, 3, 5);
        let a = LowRankCompressor::new(3, 2, 9).compress(&g, 16, 16);
        let b = LowRankCompressor::new(3, 2, 9).compress(&g, 16, 16);
        assert_eq!(a, b);
    }

    #[test]
    fn left_factors_are_orthonormal() {
        let g = rank_k_matrix(24, 24, 6, 6);
        let msg = LowRankCompressor::new(6, 3, 2).compress(&g, 24, 24);
        for (a, ca) in msg.components.iter().enumerate() {
            let n = norm(&ca.p);
            assert!((n - 1.0).abs() < 1e-4, "‖p_{a}‖ = {n}");
            for cb in &msg.components[a + 1..] {
                let d = dot(&ca.p, &cb.p).abs();
                assert!(d < 1e-3, "p columns not orthogonal: {d}");
            }
        }
    }

    #[test]
    fn noisy_full_rank_matrix_degrades_gracefully() {
        // A full-rank noisy gradient: low-rank capture is partial but the
        // prefix contract still holds and the approximation is non-trivial.
        let mut rng = Xoshiro256StarStar::new(11);
        let mut g = rank_k_matrix(32, 32, 3, 7);
        for v in &mut g {
            *v += 0.05 * rng.next_f32_range(-1.0, 1.0);
        }
        let msg = LowRankCompressor::new(3, 3, 1).compress(&g, 32, 32);
        let e = nmse(&msg.reconstruct(3), &g);
        assert!(e < 0.05, "structure should dominate: nmse {e}");
        let e1 = nmse(&msg.reconstruct(1), &g);
        assert!(e1 > e);
        assert!(e1 < 0.8, "even rank-1 captures the top direction: {e1}");
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn rejects_bad_shape() {
        let _ = LowRankCompressor::new(2, 1, 0).compress(&[0.0; 10], 3, 4);
    }
}
