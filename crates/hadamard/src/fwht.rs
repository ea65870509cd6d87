//! The in-place fast Walsh–Hadamard transform (FWHT).
//!
//! The Walsh–Hadamard transform of a vector `x` of length `n = 2^k` is
//! `H_n · x`, where `H_n` is the ±1 Hadamard matrix defined recursively by
//! `H_1 = [1]`, `H_{2n} = [[H_n, H_n], [H_n, -H_n]]`. The fast algorithm is a
//! butterfly network identical in structure to a radix-2 FFT, costing
//! `n·log2(n)` additions and no multiplications.
//!
//! Two normalizations are provided:
//!
//! * [`fwht_inplace`] — the raw ±1 transform; applying it twice multiplies
//!   the input by `n`.
//! * [`fwht_orthonormal`] — scales by `1/√n`, making the transform an
//!   *orthogonal involution*: it preserves the ℓ₂ norm exactly and is its own
//!   inverse. This is the normalization the RHT layer builds on.

use crate::{Error, Result};

/// Validates that `data.len()` is a non-zero power of two.
pub(crate) fn check_pow2(data: &[f32]) -> Result<()> {
    if data.is_empty() {
        return Err(Error::Empty);
    }
    if !data.len().is_power_of_two() {
        return Err(Error::NotPowerOfTwo { len: data.len() });
    }
    Ok(())
}

/// One butterfly stage of block width `2h` over the whole slice.
fn butterfly_stage(data: &mut [f32], h: usize) {
    // The inner loops are written so the compiler can auto-vectorize the
    // add/sub pairs.
    for block in data.chunks_exact_mut(2 * h) {
        let (lo, hi) = block.split_at_mut(h);
        for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
            let x = *a;
            let y = *b;
            *a = x + y;
            *b = x - y;
        }
    }
}

/// Two consecutive butterfly stages (widths `2h` and `4h`) fused over each
/// `4h` block, touching every element once instead of twice.
///
/// Writing the quarters as `q0..q3`, stage `h` computes `(a±b, c±d)` and
/// stage `2h` then combines those across the half-blocks; the fused body
/// evaluates exactly the same f32 additions on the same operands in the same
/// order, so the result is bit-identical to two [`butterfly_stage`] passes.
fn butterfly_stage2(data: &mut [f32], h: usize) {
    for block in data.chunks_exact_mut(4 * h) {
        let (front, back) = block.split_at_mut(2 * h);
        let (q0, q1) = front.split_at_mut(h);
        let (q2, q3) = back.split_at_mut(h);
        for (((a, b), c), d) in q0
            .iter_mut()
            .zip(q1.iter_mut())
            .zip(q2.iter_mut())
            .zip(q3.iter_mut())
        {
            let ab = *a + *b;
            let amb = *a - *b;
            let cd = *c + *d;
            let cmd = *c - *d;
            *a = ab + cd;
            *b = amb + cmd;
            *c = ab - cd;
            *d = amb - cmd;
        }
    }
}

/// Block size for the cache-blocked transform: 8192 f32 = 32 KiB, small
/// enough to stay resident in a 48 KiB L1d across all of a block's local
/// stages while leaving room for everything else the loop touches. Larger
/// blocks mean fewer cross-block passes over the whole row (one less for
/// the paper's 2¹⁵ rows than a 16 KiB block).
const BLOCK: usize = 1 << 13;

/// All stages within one power-of-two slice, radix-4 fused: stages are run
/// in the usual `h = 1, 2, 4, …` order but two at a time, halving the number
/// of passes over the data.
fn butterflies_local(data: &mut [f32]) {
    let n = data.len();
    let mut h = 1;
    while 4 * h <= n {
        butterfly_stage2(data, h);
        h *= 4;
    }
    if h < n {
        butterfly_stage(data, h);
    }
}

/// All stages of the transform, without length validation: `data.len()`
/// must be a power of two or zero (empty and length-1 slices are no-ops).
/// Lets callers that construct power-of-two buffers themselves (the padded
/// RHT paths) stay panic-free end to end.
///
/// Cache-blocked: every [`BLOCK`]-sized block runs all of its local stages
/// while L1-resident (stages with butterfly width ≤ `BLOCK` touch only one
/// block, so per-block execution performs exactly those stages of the global
/// transform), then the remaining cross-block stages sweep the whole slice,
/// still radix-4 fused. Bit-identical to the one-stage-per-pass reference
/// (`butterflies_reference`) for every length.
///
/// Single-threaded by design: a row is sized to stay in the fastest memory,
/// so the parallel axis is rows (`trimgrad_collective::chunk`), never the
/// inside of one.
// trimlint: hot-path -- per-row transform on the encode and decode paths
pub(crate) fn butterflies(data: &mut [f32]) {
    let n = data.len();
    if n <= BLOCK {
        butterflies_local(data);
        return;
    }
    for block in data.chunks_exact_mut(BLOCK) {
        butterflies_local(block);
    }
    let mut h = BLOCK;
    while 4 * h <= n {
        butterfly_stage2(data, h);
        h *= 4;
    }
    if h < n {
        butterfly_stage(data, h);
    }
}

/// Reference staged implementation: one full pass over the slice per stage.
/// Retained as the bit-identity oracle for the blocked/fused fast path.
#[cfg(test)]
fn butterflies_reference(data: &mut [f32]) {
    let mut h = 1;
    while h < data.len() {
        butterfly_stage(data, h);
        h *= 2;
    }
}

/// Applies the unnormalized Walsh–Hadamard transform in place.
///
/// After the call, `data` holds `H_n · data`. Requires `data.len()` to be a
/// power of two.
///
/// # Errors
///
/// [`Error::Empty`] for an empty slice, [`Error::NotPowerOfTwo`] otherwise
/// when the length is not a power of two.
pub fn fwht_inplace(data: &mut [f32]) -> Result<()> {
    check_pow2(data)?;
    butterflies(data);
    Ok(())
}

/// Applies the orthonormal Walsh–Hadamard transform `(1/√n)·H_n` in place.
///
/// This version preserves the ℓ₂ norm and is an involution: applying it twice
/// returns the original vector (up to floating-point rounding).
///
/// # Errors
///
/// Same conditions as [`fwht_inplace`].
pub fn fwht_orthonormal(data: &mut [f32]) -> Result<()> {
    fwht_inplace(data)?;
    let scale = 1.0 / (data.len() as f32).sqrt();
    data.iter_mut().for_each(|v| *v *= scale);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn l2(x: &[f32]) -> f64 {
        x.iter()
            .map(|&v| f64::from(v) * f64::from(v))
            .sum::<f64>()
            .sqrt()
    }

    /// `H_n[row, col] ∈ {+1, -1}` via the parity of `row & col` (Sylvester
    /// construction).
    fn hadamard_entry(row: usize, col: usize) -> f32 {
        if (row & col).count_ones().is_multiple_of(2) {
            1.0
        } else {
            -1.0
        }
    }

    /// Naive O(n²) Walsh–Hadamard transform: the definition, as an oracle.
    fn wht_naive(data: &[f32]) -> Vec<f32> {
        (0..data.len())
            .map(|r| {
                let row = data.iter().enumerate();
                row.map(|(c, &v)| f64::from(hadamard_entry(r, c)) * f64::from(v))
                    .sum::<f64>() as f32
            })
            .collect()
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(fwht_inplace(&mut []), Err(Error::Empty));
        assert_eq!(fwht_orthonormal(&mut []), Err(Error::Empty));
    }

    #[test]
    fn rejects_non_pow2() {
        let mut v = vec![1.0; 3];
        assert_eq!(fwht_inplace(&mut v), Err(Error::NotPowerOfTwo { len: 3 }));
        let mut v = vec![1.0; 12];
        assert_eq!(
            fwht_orthonormal(&mut v),
            Err(Error::NotPowerOfTwo { len: 12 })
        );
    }

    #[test]
    fn length_one_is_identity() {
        let mut v = vec![3.25];
        fwht_inplace(&mut v).unwrap();
        assert_eq!(v, vec![3.25]);
        fwht_orthonormal(&mut v).unwrap();
        assert_eq!(v, vec![3.25]);
    }

    #[test]
    fn length_two_matches_definition() {
        let mut v = vec![1.0, 2.0];
        fwht_inplace(&mut v).unwrap();
        assert_eq!(v, vec![3.0, -1.0]); // [x+y, x-y]
    }

    #[test]
    fn known_h4_transform() {
        // H_4 * [1,0,0,0]^T = first column of H_4 = [1,1,1,1].
        let mut v = vec![1.0, 0.0, 0.0, 0.0];
        fwht_inplace(&mut v).unwrap();
        assert_eq!(v, vec![1.0, 1.0, 1.0, 1.0]);
        // H_4 * [0,1,0,0]^T = second column = [1,-1,1,-1].
        let mut v = vec![0.0, 1.0, 0.0, 0.0];
        fwht_inplace(&mut v).unwrap();
        assert_eq!(v, vec![1.0, -1.0, 1.0, -1.0]);
    }

    #[test]
    fn hadamard_entry_sylvester_h2() {
        // H_2 = [[1, 1], [1, -1]]
        assert_eq!(hadamard_entry(0, 0), 1.0);
        assert_eq!(hadamard_entry(0, 1), 1.0);
        assert_eq!(hadamard_entry(1, 0), 1.0);
        assert_eq!(hadamard_entry(1, 1), -1.0);
    }

    #[test]
    fn blocked_fused_path_is_bit_identical_to_reference() {
        // Covers: radix-4 only (n = 4^k), odd final stage (n = 2·4^k), the
        // single-block boundary (n = BLOCK), and multi-block lengths with
        // both even and odd cross-block stage counts (2·BLOCK, 8·BLOCK).
        for n in [1usize, 2, 4, 8, 64, 128, 2048, BLOCK, 2 * BLOCK, 8 * BLOCK] {
            let data: Vec<f32> = (0..n)
                .map(|i| ((i * 2_654_435_761) % 1000) as f32 / 9.7 - 51.0)
                .collect();
            let mut fast = data.clone();
            butterflies(&mut fast);
            let mut reference = data;
            butterflies_reference(&mut reference);
            for (i, (f, r)) in fast.iter().zip(&reference).enumerate() {
                assert_eq!(f.to_bits(), r.to_bits(), "n={n} i={i}");
            }
        }
    }

    #[test]
    fn matches_naive_oracle() {
        let data: Vec<f32> = (0..64).map(|i| ((i * 37) % 101) as f32 - 50.0).collect();
        let expect = wht_naive(&data);
        let mut got = data.clone();
        fwht_inplace(&mut got).unwrap();
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-3, "{g} vs {e}");
        }
    }

    #[test]
    fn double_transform_scales_by_n() {
        let data: Vec<f32> = (0..32).map(|i| (i as f32).sin()).collect();
        let mut v = data.clone();
        fwht_inplace(&mut v).unwrap();
        fwht_inplace(&mut v).unwrap();
        for (a, b) in v.iter().zip(&data) {
            assert!((a - 32.0 * b).abs() < 1e-3);
        }
    }

    proptest! {
        #[test]
        fn orthonormal_is_involution(
            raw in proptest::collection::vec(-1000.0f32..1000.0, 1..=256)
        ) {
            let n = raw.len().next_power_of_two();
            let mut v = raw.clone();
            v.resize(n, 0.0);
            let orig = v.clone();
            fwht_orthonormal(&mut v).unwrap();
            fwht_orthonormal(&mut v).unwrap();
            for (a, b) in v.iter().zip(&orig) {
                prop_assert!((a - b).abs() <= 1e-2 + 1e-4 * b.abs(),
                    "involution failed: {a} vs {b}");
            }
        }

        #[test]
        fn orthonormal_preserves_l2_norm(
            raw in proptest::collection::vec(-1000.0f32..1000.0, 1..=256)
        ) {
            let n = raw.len().next_power_of_two();
            let mut v = raw.clone();
            v.resize(n, 0.0);
            let before = l2(&v);
            fwht_orthonormal(&mut v).unwrap();
            let after = l2(&v);
            prop_assert!((before - after).abs() <= 1e-3 * (1.0 + before),
                "norm changed: {before} -> {after}");
        }

        #[test]
        fn linearity(
            raw in proptest::collection::vec(-100.0f32..100.0, 8..=8),
            raw2 in proptest::collection::vec(-100.0f32..100.0, 8..=8)
        ) {
            // H(x + y) == Hx + Hy
            let mut sum: Vec<f32> = raw.iter().zip(&raw2).map(|(a, b)| a + b).collect();
            fwht_inplace(&mut sum).unwrap();
            let mut x = raw.clone();
            let mut y = raw2.clone();
            fwht_inplace(&mut x).unwrap();
            fwht_inplace(&mut y).unwrap();
            for ((s, a), b) in sum.iter().zip(&x).zip(&y) {
                prop_assert!((s - (a + b)).abs() < 1e-2);
            }
        }
    }
}
