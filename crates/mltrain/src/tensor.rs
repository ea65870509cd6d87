//! Minimal row-major `f32` matrices.
//!
//! Exactly the operations backprop through an MLP needs, with two product
//! kernels. Both add scaled contiguous runs into contiguous runs, which has
//! no loop-carried dependency and therefore vectorises, where a dot
//! product's running `f32` sum may not be reassociated and cannot.
//!
//! The backward products — `dy·W` (`dx`, [`Matrix::matmul`]) and `dyᵀ·x`
//! (`dw`, [`Matrix::t_matmul_acc`]) — run through one row-axpy kernel that
//! streams the rows of its right operand past an output row. Each pass over
//! the output row adds a group of up to eight products,
//! `o = ((o + a₀b₀) + a₁b₁) + … + a₇b₇`, so the row is loaded and stored
//! once per eight products rather than once per product. `dw`'s left
//! operand, the batch's `dy`, is transposed into a copy first.
//!
//! The forward product `x·Wᵀ` ([`Matrix::matmul_t`]) computes `W·xᵀ`
//! instead: each row of `W` streams once, contiguously, past a packed tile
//! of up to 32 batch rows, whose outputs stay in registers for the whole
//! inner dimension. No weight matrix is copied.
//!
//! Either way every output element receives the same products in the same
//! order as a `k`-ascending dot product from `+0.0`, each rounded on its
//! own, so neither kernel changes a bit of any result.
//!
//! # The zero rule
//!
//! The two backward products skip an exactly-zero entry of their left
//! operand instead of adding `0 · row`, because ReLU zeroes about half of
//! `dy`. That is not a pure optimisation — `0 · ∞` and `0 · NaN` are NaN — so
//! the forward product, which must carry a non-finite weight into the loss,
//! is dense.
//!
//! The skip is a branch-free compaction, not a branch: every entry is
//! written into the next free slot of its group, and the slot is kept only
//! if the entry is non-zero, so a zero is overwritten by the entry after
//! it. Which entries ReLU zeroed is a coin flip per element, so a branch on
//! them would mispredict about every other time. The ReLU masks themselves
//! ([`relu`](crate::layers::relu), [`relu_backward`](crate::layers::relu_backward))
//! are selects for the same reason.

use trimgrad_quant::fcmp;

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Wraps existing data (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Self { rows, cols, data }
    }

    /// Row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element `(r, c)`.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The backing slice (row-major).
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The mutable backing slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The transpose, copied tile by tile so that neither the reads nor the
    /// writes stride through more cache lines than a tile has rows.
    #[must_use]
    pub fn transposed(&self) -> Matrix {
        const TILE: usize = 16;
        let (rows, cols) = (self.rows, self.cols);
        let mut out = Matrix::zeros(cols, rows);
        for r0 in (0..rows).step_by(TILE) {
            for c0 in (0..cols).step_by(TILE) {
                for r in r0..(r0 + TILE).min(rows) {
                    for c in c0..(c0 + TILE).min(cols) {
                        out.data[c * rows + r] = self.data[r * cols + c];
                    }
                }
            }
        }
        out
    }

    /// `self · other` — shapes `(m×k) · (k×n) = (m×n)`. Exact zeros in
    /// `self` are skipped (the [zero rule](self#the-zero-rule)).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        accumulate_product(&mut out.data, &self.data, &other.data, other.cols);
        out
    }

    /// Adds `selfᵀ · other` — shapes `(k×m)ᵀ · (k×n) = (m×n)` — to the
    /// row-major `out`. Exact zeros in `self` are skipped (the
    /// [zero rule](self#the-zero-rule)).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn t_matmul_acc(&self, other: &Matrix, out: &mut [f32]) {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        assert_eq!(out.len(), self.cols * other.cols, "t_matmul output size");
        let self_t = self.transposed();
        accumulate_product(out, &self_t.data, &other.data, other.cols);
    }

    /// `self · otherᵀ` — shapes `(m×k) · (n×k)ᵀ = (m×n)`. Dense: every
    /// product is formed, so a non-finite entry of `other` reaches the result
    /// even against a zero (the [zero rule](self#the-zero-rule)).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        let mut block = vec![0.0; self.cols * self.rows.min(TILE)];
        forward_product(
            &mut out.data,
            &self.data,
            &other.data,
            self.cols,
            &mut block,
        );
        out
    }

    /// Adds `v` to every row (broadcast bias add).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != cols`.
    pub fn add_row_vec(&mut self, v: &[f32]) {
        assert_eq!(v.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            for (x, &b) in self.row_mut(r).iter_mut().zip(v) {
                *x += b;
            }
        }
    }

    /// Adds the sum over rows to `out`, a `cols`-length vector.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != cols`.
    pub fn col_sums_acc(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols, "column count mismatch");
        for r in 0..self.rows {
            for (o, &x) in out.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
    }
}

/// How many products [`accumulate_product`] adds per pass over an output
/// row.
const GROUP: usize = 8;

/// The backward products' kernel: `out (m×n) += A (m×k) · B (k×n)`, all
/// row-major. `m` and `k` follow from the slice lengths. An exactly-zero
/// `A[i,p]` contributes nothing instead of `0 · B[p,:]` (the module's
/// [zero rule](self#the-zero-rule)).
///
/// Row `i` of `out` receives `A[i,p] · B[p,:]` for `p` ascending. The kernel
/// holds the next [`GROUP`] of them that the zero rule keeps (each candidate
/// is stored, and counted only if `A[i,p]` is non-zero) and adds the
/// whole group in one pass over the row, `o = ((o + a₀b₀) + a₁b₁) + … +
/// a₇b₇`; a short last group is added one row axpy at a time. Either way
/// every output element receives the same products, each rounded on its
/// own, in the same order as a `k`-ascending dot product started from
/// `+0.0` — bit for bit. Grouping only changes how often the output row is
/// loaded and stored: once per group instead of once per product.
// trimlint: hot-path -- every backward multiply-add of the compute stage runs in this loop
fn accumulate_product(out: &mut [f32], a: &[f32], b: &[f32], n: usize) {
    if n == 0 || b.is_empty() {
        return;
    }
    let k = b.len() / n;
    let mut held: [(f32, &[f32]); GROUP] = [(0.0, &[]); GROUP];
    for (orow, arow) in out.chunks_exact_mut(n).zip(a.chunks_exact(k)) {
        let mut len = 0;
        for (&a, brow) in arow.iter().zip(b.chunks_exact(n)) {
            held[len] = (a, brow);
            len += usize::from(!fcmp::exactly_zero(a));
            if len == GROUP {
                add_group(orow, &held);
                len = 0;
            }
        }
        for &(a, brow) in &held[..len] {
            for (o, &b) in orow.iter_mut().zip(brow) {
                *o += a * b;
            }
        }
    }
}

/// `o[j] = ((o[j] + a₀·b₀[j]) + a₁·b₁[j]) + … + a₇·b₇[j]` for every `j` of
/// `orow`: [`GROUP`] row axpys in one pass. Every `bᵢ` is as long as `orow`.
fn add_group(orow: &mut [f32], held: &[(f32, &[f32]); GROUP]) {
    let n = orow.len();
    let [(a0, b0), (a1, b1), (a2, b2), (a3, b3), (a4, b4), (a5, b5), (a6, b6), (a7, b7)] =
        held.map(|(a, b)| (a, &b[..n]));
    for (j, o) in orow.iter_mut().enumerate() {
        *o = *o
            + a0 * b0[j]
            + a1 * b1[j]
            + a2 * b2[j]
            + a3 * b3[j]
            + a4 * b4[j]
            + a5 * b5[j]
            + a6 * b6[j]
            + a7 * b7[j];
    }
}

/// The widest batch tile of [`forward_product`]: this many rows of `x` share
/// one pass over `W`.
const TILE: usize = 32;

/// The forward product `out (m×n) = x (m×k) · Wᵀ`, with `W (n×k)` row-major
/// and `out` zero on entry. `block` is scratch for one packed tile, at least
/// `k · min(m, TILE)` long. Dense: every product is formed (the
/// [zero rule](self#the-zero-rule)).
///
/// It computes `outᵀ = W·xᵀ` one tile of batch rows at a time: whole tiles
/// of [`TILE`] rows, then of 8, then single rows. A tile's rows are packed
/// transposed into `block` (`k × T`, cache-resident), and every row of `W`
/// then streams past the block once, contiguously, adding `W[j,p] ·
/// x[i..i+T, p]` for `p` ascending into `T` accumulators that stay in
/// registers for the whole inner dimension. So each output element receives
/// `x[i,p]·W[j,p]` for `p` ascending onto `+0.0`, each rounded on its own —
/// the `k`-ascending dot product, bit for bit — and `W` is read once per
/// tile and never copied.
// trimlint: hot-path -- every forward multiply-add of the compute stage runs in this loop
fn forward_product(out: &mut [f32], x: &[f32], w: &[f32], k: usize, block: &mut [f32]) {
    if x.is_empty() || w.is_empty() {
        return;
    }
    let n = w.len() / k;
    let (out, x) = forward_tiles::<TILE>(out, x, w, k, n, block);
    let (out, x) = forward_tiles::<8>(out, x, w, k, n, block);
    forward_tiles::<1>(out, x, w, k, n, block);
}

/// Every whole `T`-row tile of `x` through [`forward_product`]'s loop;
/// returns the rows of `out` and `x` left over.
fn forward_tiles<'o, 'x, const T: usize>(
    out: &'o mut [f32],
    x: &'x [f32],
    w: &[f32],
    k: usize,
    n: usize,
    block: &mut [f32],
) -> (&'o mut [f32], &'x [f32]) {
    let tiles = x.len() / (T * k);
    if tiles == 0 {
        return (out, x);
    }
    let (out, out_rest) = out.split_at_mut(tiles * T * n);
    let (x, x_rest) = x.split_at(tiles * T * k);
    let (block, _) = block[..T * k].as_chunks_mut::<T>();
    for (otile, xtile) in out.chunks_exact_mut(T * n).zip(x.chunks_exact(T * k)) {
        for (l, xrow) in xtile.chunks_exact(k).enumerate() {
            for (packed, &v) in block.iter_mut().zip(xrow) {
                packed[l] = v;
            }
        }
        for (j, wrow) in w.chunks_exact(k).enumerate() {
            let mut acc = [0.0f32; T];
            for (&wp, packed) in wrow.iter().zip(block.iter()) {
                for (a, &v) in acc.iter_mut().zip(packed) {
                    *a += v * wp;
                }
            }
            for (orow, a) in otile.chunks_exact_mut(n).zip(acc) {
                orow[j] = a;
            }
        }
    }
    (out_rest, x_rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Matrix {
        Matrix::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn construction_and_access() {
        let mut a = Matrix::zeros(2, 3);
        assert_eq!((a.rows(), a.cols()), (2, 3));
        a.set(1, 2, 5.0);
        assert_eq!(a.get(1, 2), 5.0);
        assert_eq!(a.row(1), &[0.0, 0.0, 5.0]);
        assert_eq!(a.as_slice().len(), 6);
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn from_vec_checks_shape() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn matmul_known_product() {
        let a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = m(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transposed_variants_agree_with_explicit_transpose() {
        let a = m(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]); // 3×2
        let b = m(3, 4, &(0..12).map(|i| i as f32).collect::<Vec<_>>()); // 3×4
                                                                         // aᵀ·b via t_matmul vs manual transpose.
        let at = m(2, 3, &[1.0, 3.0, 5.0, 2.0, 4.0, 6.0]);
        let mut atb = vec![0.0; 2 * 4];
        a.t_matmul_acc(&b, &mut atb);
        assert_eq!(atb, at.matmul(&b).as_slice());
        // a·cᵀ via matmul_t vs manual transpose.
        let c = m(5, 2, &(0..10).map(|i| i as f32).collect::<Vec<_>>()); // 5×2
        let ct = c.transposed();
        assert_eq!((ct.rows(), ct.cols()), (2, 5));
        assert_eq!(ct.get(1, 3), c.get(3, 1));
        assert_eq!(a.matmul_t(&c).as_slice(), a.matmul(&ct).as_slice());
    }

    #[test]
    fn identity_is_neutral() {
        let a = m(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let i = m(2, 2, &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i).as_slice(), a.as_slice());
        assert_eq!(i.matmul(&a).as_slice(), a.as_slice());
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let _ = Matrix::zeros(2, 3).matmul(&Matrix::zeros(2, 3));
    }

    #[test]
    fn bias_add_and_col_sums() {
        let mut a = m(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        a.add_row_vec(&[10.0, 20.0, 30.0]);
        assert_eq!(a.as_slice(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
        let mut sums = vec![0.0; 3];
        a.col_sums_acc(&mut sums);
        assert_eq!(sums, vec![25.0, 47.0, 69.0]);
    }

    #[test]
    fn empty_edge_cases() {
        let a = Matrix::zeros(0, 3);
        let mut sums = vec![1.0; 3];
        a.col_sums_acc(&mut sums);
        assert_eq!(sums, vec![1.0; 3]);
        let b = Matrix::zeros(3, 0);
        let c = a.matmul(&Matrix::zeros(3, 2));
        assert_eq!((c.rows(), c.cols()), (0, 2));
        let d = b.matmul(&Matrix::zeros(0, 4));
        assert_eq!((d.rows(), d.cols()), (3, 4));
        assert!(d.as_slice().iter().all(|&x| x == 0.0));
    }
}
