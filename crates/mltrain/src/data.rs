//! Seeded synthetic classification datasets.
//!
//! Substitutes for CIFAR-100 (see `DESIGN.md`): the paper's claims concern
//! how gradient-compression error affects SGD, so any genuinely-trained
//! classifier exercises the same dynamics. Two generators:
//!
//! * [`gaussian_mixture`] — K anisotropic Gaussian blobs in D dimensions with
//!   controllable overlap; linearly separable at low spread, genuinely hard
//!   at high spread.
//! * [`two_spirals`] — the classic non-linearly-separable 2-class task,
//!   embedded in D dimensions with noise; requires hidden layers.

use crate::tensor::Matrix;
use trimgrad_hadamard::prng::Xoshiro256StarStar;

/// A labeled dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Features, `(n × dim)`.
    pub x: Matrix,
    /// Labels in `0..classes`.
    pub y: Vec<usize>,
    /// Number of classes.
    pub classes: usize,
}

impl Dataset {
    /// Sample count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// Whether the dataset is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Feature dimensionality.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.x.cols()
    }

    /// Extracts rows `idx` as a batch.
    #[must_use]
    pub fn batch(&self, idx: &[usize]) -> (Matrix, Vec<usize>) {
        let mut bx = Matrix::zeros(idx.len(), self.dim());
        let mut by = Vec::with_capacity(idx.len());
        for (r, &i) in idx.iter().enumerate() {
            bx.row_mut(r).copy_from_slice(self.x.row(i));
            by.push(self.y[i]);
        }
        (bx, by)
    }

    /// Splits into (train, test) with `train_frac` of a seeded shuffle.
    #[must_use]
    pub fn split(&self, train_frac: f64, seed: u64) -> (Dataset, Dataset) {
        assert!((0.0..=1.0).contains(&train_frac), "bad fraction");
        let mut order: Vec<usize> = (0..self.len()).collect();
        let mut rng = Xoshiro256StarStar::new(seed);
        // Fisher–Yates.
        for i in (1..order.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let cut = (self.len() as f64 * train_frac) as usize;
        let take = |ids: &[usize]| {
            let (bx, by) = self.batch(ids);
            Dataset {
                x: bx,
                y: by,
                classes: self.classes,
            }
        };
        (take(&order[..cut]), take(&order[cut..]))
    }
}

/// Gaussian samples via the sum-of-uniforms approximation (Irwin–Hall,
/// 12 terms): mean 0, variance 1, plenty for synthetic data.
fn gauss(rng: &mut Xoshiro256StarStar) -> f32 {
    (0..12).map(|_| rng.next_f32()).sum::<f32>() - 6.0
}

/// K-class Gaussian mixture: class means drawn uniformly in a hypercube of
/// half-width `mean_scale`, points scattered with per-axis σ = `spread`.
///
/// Larger `spread / mean_scale` → more class overlap → harder task.
#[must_use]
pub fn gaussian_mixture(
    classes: usize,
    dim: usize,
    per_class: usize,
    mean_scale: f32,
    spread: f32,
    seed: u64,
) -> Dataset {
    assert!(classes >= 2 && dim >= 1 && per_class >= 1);
    let mut rng = Xoshiro256StarStar::new(seed);
    let means: Vec<Vec<f32>> = (0..classes)
        .map(|_| {
            (0..dim)
                .map(|_| rng.next_f32_range(-mean_scale, mean_scale))
                .collect()
        })
        .collect();
    let n = classes * per_class;
    let mut x = Matrix::zeros(n, dim);
    let mut y = Vec::with_capacity(n);
    for (c, mean) in means.iter().enumerate() {
        for p in 0..per_class {
            let r = c * per_class + p;
            for (d, v) in x.row_mut(r).iter_mut().enumerate() {
                *v = mean[d] + spread * gauss(&mut rng);
            }
            y.push(c);
        }
    }
    Dataset { x, y, classes }
}

/// The two-spirals task embedded in `dim` dimensions (the first two carry
/// the spirals, the rest are noise), `per_class` points per arm.
#[must_use]
pub fn two_spirals(per_class: usize, dim: usize, noise: f32, seed: u64) -> Dataset {
    assert!(dim >= 2 && per_class >= 1);
    let mut rng = Xoshiro256StarStar::new(seed);
    let n = 2 * per_class;
    let mut x = Matrix::zeros(n, dim);
    let mut y = Vec::with_capacity(n);
    for arm in 0..2usize {
        for p in 0..per_class {
            let r = arm * per_class + p;
            let t = 0.25 + 3.5 * (p as f32 / per_class as f32); // radians-ish
            let radius = t / 4.0;
            let phase = if arm == 0 { 0.0 } else { core::f32::consts::PI };
            let row = x.row_mut(r);
            row[0] = radius * (t * 2.0 + phase).cos() + noise * gauss(&mut rng);
            row[1] = radius * (t * 2.0 + phase).sin() + noise * gauss(&mut rng);
            for v in row.iter_mut().skip(2) {
                *v = noise * gauss(&mut rng);
            }
            y.push(arm);
        }
    }
    Dataset { x, y, classes: 2 }
}

/// Draws a batch of `size` indices uniformly with replacement.
#[must_use]
pub fn sample_indices(len: usize, size: usize, rng: &mut Xoshiro256StarStar) -> Vec<usize> {
    assert!(len > 0, "empty dataset");
    (0..size)
        .map(|_| (rng.next_u64() % len as u64) as usize)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixture_shapes_and_labels() {
        let ds = gaussian_mixture(5, 8, 20, 2.0, 0.5, 1);
        assert_eq!(ds.len(), 100);
        assert_eq!(ds.dim(), 8);
        assert_eq!(ds.classes, 5);
        for c in 0..5 {
            assert_eq!(ds.y.iter().filter(|&&l| l == c).count(), 20);
        }
    }

    #[test]
    fn mixture_is_deterministic() {
        let a = gaussian_mixture(3, 4, 10, 2.0, 0.3, 7);
        let b = gaussian_mixture(3, 4, 10, 2.0, 0.3, 7);
        assert_eq!(a.x.as_slice(), b.x.as_slice());
        let c = gaussian_mixture(3, 4, 10, 2.0, 0.3, 8);
        assert_ne!(a.x.as_slice(), c.x.as_slice());
    }

    #[test]
    fn low_spread_classes_are_separated() {
        let ds = gaussian_mixture(4, 6, 50, 3.0, 0.1, 2);
        // Nearest-class-mean classification should be near-perfect.
        let mut means = vec![vec![0.0f64; 6]; 4];
        let mut counts = [0usize; 4];
        for i in 0..ds.len() {
            counts[ds.y[i]] += 1;
            for (d, m) in means[ds.y[i]].iter_mut().enumerate() {
                *m += f64::from(ds.x.get(i, d));
            }
        }
        for (m, &c) in means.iter_mut().zip(&counts) {
            for v in m.iter_mut() {
                *v /= c as f64;
            }
        }
        let mut correct = 0;
        for i in 0..ds.len() {
            let best = (0..4)
                .min_by(|&a, &b| {
                    let da: f64 = (0..6)
                        .map(|d| (f64::from(ds.x.get(i, d)) - means[a][d]).powi(2))
                        .sum();
                    let db: f64 = (0..6)
                        .map(|d| (f64::from(ds.x.get(i, d)) - means[b][d]).powi(2))
                        .sum();
                    da.partial_cmp(&db).expect("finite")
                })
                .expect("classes");
            correct += usize::from(best == ds.y[i]);
        }
        assert!(correct as f64 / ds.len() as f64 > 0.95);
    }

    #[test]
    fn spirals_shape() {
        let ds = two_spirals(100, 5, 0.02, 3);
        assert_eq!(ds.len(), 200);
        assert_eq!(ds.dim(), 5);
        assert_eq!(ds.classes, 2);
        // Arms are roughly radius-bounded.
        for i in 0..ds.len() {
            let r = (ds.x.get(i, 0).powi(2) + ds.x.get(i, 1).powi(2)).sqrt();
            assert!(r < 1.5, "point {i} radius {r}");
        }
    }

    #[test]
    fn split_partitions_without_loss() {
        let ds = gaussian_mixture(3, 4, 30, 2.0, 0.5, 5);
        let (train, test) = ds.split(0.8, 9);
        assert_eq!(train.len(), 72);
        assert_eq!(test.len(), 18);
        assert_eq!(train.classes, 3);
        // Deterministic split.
        let (train2, _) = ds.split(0.8, 9);
        assert_eq!(train.x.as_slice(), train2.x.as_slice());
        let (train3, _) = ds.split(0.8, 10);
        assert_ne!(train.x.as_slice(), train3.x.as_slice());
    }

    #[test]
    fn batch_extracts_rows() {
        let ds = gaussian_mixture(2, 3, 5, 1.0, 0.1, 1);
        let (bx, by) = ds.batch(&[0, 9, 3]);
        assert_eq!(bx.rows(), 3);
        assert_eq!(bx.row(0), ds.x.row(0));
        assert_eq!(bx.row(1), ds.x.row(9));
        assert_eq!(by, vec![ds.y[0], ds.y[9], ds.y[3]]);
    }

    #[test]
    fn sample_indices_in_range() {
        let mut rng = Xoshiro256StarStar::new(4);
        let idx = sample_indices(50, 1000, &mut rng);
        assert_eq!(idx.len(), 1000);
        assert!(idx.iter().all(|&i| i < 50));
        // Roughly uniform: every index hit at least once.
        let mut seen = [false; 50];
        for &i in &idx {
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gauss_moments() {
        let mut rng = Xoshiro256StarStar::new(11);
        let n = 50_000;
        let samples: Vec<f32> = (0..n).map(|_| gauss(&mut rng)).collect();
        let mean: f64 = samples.iter().map(|&v| f64::from(v)).sum::<f64>() / n as f64;
        let var: f64 = samples
            .iter()
            .map(|&v| (f64::from(v) - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }
}
