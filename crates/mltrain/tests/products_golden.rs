//! Bit-identity tests for the compute stage: the three matrix products, the
//! flat gradient they add up to, and the in-memory hook's mean.
//!
//! (a) The naive i-j-k dot-product loops the library computed its products
//! with until they moved onto vectorising kernels live on here as the
//! reference, and every product must match them **bit for bit** — over
//! degenerate shapes, widths that are no multiple of any block or lane
//! count, ReLU-sparse operands and IEEE special values. The reference spells
//! out the zero rule: the forward product `a·bᵀ` is dense (a zero times a
//! non-finite weight must poison the output), `a·b` and `aᵀ·b` skip exact
//! zeros of `a`. The backward kernel adds its products in groups of eight
//! per pass over an output row, so the inner dimension takes every residue
//! modulo the group and mostly-zero operands make groups span skipped runs.
//! The forward kernel tiles the batch axis 32, 8 and 1 rows wide, so its
//! batch takes every tile width with and without a remainder. NaN payloads
//! are the one thing not compared: Rust leaves them unspecified, so any NaN
//! equals any NaN here.
//!
//! (b) FNV-1a digests of `loss_and_grad`'s loss and flat gradient at both
//! benchmark shapes, recorded at the last commit that had the dot-product
//! forward, so the reference cannot drift together with the library.
//!
//! (c) A non-finite weight yields a non-finite loss.
//!
//! (d) `TrimmableHook::aggregate`'s row-by-row mean against the per-element
//! walk it replaced: losslessly, and under trimming and drops, where each
//! remote decode is what a lone channel built as the hook builds its
//! channels decodes from the same message.

use proptest::prelude::*;
use trimgrad_collective::channel::{GradChannel, TrimmingChannel};
use trimgrad_collective::chunk::MessageCodec;
use trimgrad_collective::hooks::{AggregateHook, TrimmableHook};
use trimgrad_collective::trim_inject::TrimInjector;
use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_mltrain::data::{gaussian_mixture, sample_indices};
use trimgrad_mltrain::{Matrix, Mlp};
use trimgrad_quant::SchemeId;

// ─────────────────────────── (a) products ───────────────────────────

/// `a (m×k) · bᵀ (n×k)`, dense.
fn ref_matmul_t(a: &Matrix, b: &Matrix) -> Vec<f32> {
    let mut out = Vec::with_capacity(a.rows() * b.rows());
    for i in 0..a.rows() {
        for j in 0..b.rows() {
            let mut acc = 0.0f32;
            for p in 0..a.cols() {
                acc += a.get(i, p) * b.get(j, p);
            }
            out.push(acc);
        }
    }
    out
}

/// `a (m×k) · b (k×n)`, skipping exact zeros of `a`.
fn ref_matmul(a: &Matrix, b: &Matrix) -> Vec<f32> {
    let mut out = Vec::with_capacity(a.rows() * b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f32;
            for p in 0..a.cols() {
                if a.get(i, p) != 0.0 {
                    acc += a.get(i, p) * b.get(p, j);
                }
            }
            out.push(acc);
        }
    }
    out
}

/// `aᵀ (k×m) · b (k×n)`, skipping exact zeros of `a`.
fn ref_t_matmul(a: &Matrix, b: &Matrix) -> Vec<f32> {
    let mut out = Vec::with_capacity(a.cols() * b.cols());
    for i in 0..a.cols() {
        for j in 0..b.cols() {
            let mut acc = 0.0f32;
            for p in 0..a.rows() {
                if a.get(p, i) != 0.0 {
                    acc += a.get(p, i) * b.get(p, j);
                }
            }
            out.push(acc);
        }
    }
    out
}

/// Bit patterns, with every NaN mapped to one.
fn bits(values: &[f32]) -> Vec<u32> {
    values
        .iter()
        .map(|v| if v.is_nan() { u32::MAX } else { v.to_bits() })
        .collect()
}

const SPECIALS: [f32; 9] = [
    0.0,
    -0.0,
    1.0e-40, // subnormal
    -1.0e-40,
    f32::MIN_POSITIVE,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
    f32::MAX,
];

/// How a test matrix is filled.
#[derive(Debug, Clone, Copy)]
enum Fill {
    /// Uniform in (−1, 1).
    Dense,
    /// ReLU output: negatives clamped to `+0.0`, about half the entries.
    Relu,
    /// Dense with one entry in eight drawn from [`SPECIALS`].
    Special,
    /// About seven entries in eight `+0.0`, the rest uniform in (−1, 1).
    Sparse,
}

const FILLS: [Fill; 4] = [Fill::Dense, Fill::Relu, Fill::Special, Fill::Sparse];

/// How many products the kernel adds per pass over an output row.
const GROUP: usize = 8;

fn matrix(rows: usize, cols: usize, fill: Fill, rng: &mut Xoshiro256StarStar) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| {
            let v = rng.next_f32_range(-1.0, 1.0);
            match fill {
                Fill::Dense => v,
                Fill::Relu => v.max(0.0),
                Fill::Special if rng.next_u64().is_multiple_of(8) => {
                    SPECIALS[(rng.next_u64() % SPECIALS.len() as u64) as usize]
                }
                Fill::Special => v,
                Fill::Sparse if rng.next_u64().is_multiple_of(8) => v,
                Fill::Sparse => 0.0,
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// The forward product at `(m, k, n)` against its reference.
fn check_forward(m: usize, k: usize, n: usize, fa: Fill, fb: Fill, rng: &mut Xoshiro256StarStar) {
    let ctx = format!("m={m} k={k} n={n} {fa:?}×{fb:?}");
    let a = matrix(m, k, fa, rng);
    let b = matrix(n, k, fb, rng);
    let got = a.matmul_t(&b);
    assert_eq!((got.rows(), got.cols()), (m, n), "matmul_t shape, {ctx}");
    assert_eq!(
        bits(got.as_slice()),
        bits(&ref_matmul_t(&a, &b)),
        "matmul_t, {ctx}"
    );
}

/// All three products at `(m, k, n)` against their references.
fn check_products(m: usize, k: usize, n: usize, fa: Fill, fb: Fill, seed: u64) {
    let mut rng = Xoshiro256StarStar::new(seed);
    let ctx = format!("m={m} k={k} n={n} {fa:?}×{fb:?} seed={seed}");

    check_forward(m, k, n, fa, fb, &mut rng);

    let a = matrix(m, k, fa, &mut rng);
    let b = matrix(k, n, fb, &mut rng);
    let got = a.matmul(&b);
    assert_eq!((got.rows(), got.cols()), (m, n), "matmul shape, {ctx}");
    assert_eq!(
        bits(got.as_slice()),
        bits(&ref_matmul(&a, &b)),
        "matmul, {ctx}"
    );

    let a = matrix(k, m, fa, &mut rng);
    let mut got = vec![0.0f32; m * n];
    a.t_matmul_acc(&b, &mut got);
    assert_eq!(bits(&got), bits(&ref_t_matmul(&a, &b)), "t_matmul, {ctx}");
}

/// Every inner dimension `k` from 0 through two groups (each residue
/// modulo the group, with and without a full group before it), and two long
/// ones where a sparse row fills a group across skipped runs.
#[test]
fn products_match_the_naive_loops_on_edge_shapes() {
    let dims = [0usize, 1, 3, 17];
    let ks = (0..=2 * GROUP).chain([70, 131]);
    let mut seed = 0;
    for k in ks {
        for m in dims {
            for n in dims {
                for fa in FILLS {
                    for fb in FILLS {
                        seed += 1;
                        check_products(m, k, n, fa, fb, seed);
                    }
                }
            }
        }
    }
}

/// The forward product tiles the batch axis 32, 8 and 1 rows wide, so its
/// `m` takes every tile width with and without each remainder, over the
/// same inner and output dimensions.
#[test]
fn forward_matches_the_naive_loop_on_every_batch_tiling() {
    let ks = (0..=2 * GROUP).chain([70, 131]);
    let mut rng = Xoshiro256StarStar::new(0xF0A4);
    for k in ks {
        for m in [7usize, 8, 9, 31, 32, 33, 40, 65] {
            for n in [0usize, 1, 3, 17] {
                for fa in FILLS {
                    for fb in FILLS {
                        check_forward(m, k, n, fa, fb, &mut rng);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn products_match_the_naive_loops(
        m in 0usize..71,
        k in 0usize..70,
        n in 0usize..70,
        fa in 0usize..4,
        fb in 0usize..4,
        seed in any::<u64>(),
    ) {
        check_products(m, k, n, FILLS[fa], FILLS[fb], seed);
    }
}

/// The rule itself, on the smallest case: a zero activation against an
/// infinite weight.
#[test]
fn forward_is_dense_and_the_backward_products_skip_zeros() {
    let zero = Matrix::from_vec(1, 1, vec![0.0]);
    let inf = Matrix::from_vec(1, 1, vec![f32::INFINITY]);
    assert!(zero.matmul_t(&inf).get(0, 0).is_nan(), "0·∞ reaches y");
    assert_eq!(zero.matmul(&inf).get(0, 0).to_bits(), 0, "dx skips");
    let mut dw = [0.0f32];
    zero.t_matmul_acc(&inf, &mut dw);
    assert_eq!(dw[0].to_bits(), 0, "dw skips");
}

// ─────────────────────── (b) gradient digests ───────────────────────

/// The two `BENCHMARK.json` training shapes (`train_fabric`, `train_inject`).
const SHAPES: [&[usize]; 2] = [&[128, 512, 384, 10], &[256, 512, 512, 100]];
const BATCH: usize = 32;

/// `(shape index, seed, FNV-1a over two steps' loss and gradient bits)`,
/// recorded at the last commit whose forward product was a serial dot loop.
const GOLDEN: [(usize, u64, u64); 4] = [
    (0, 11, 0xC5AA_828A_7111_1ADB),
    (0, 29, 0xDD21_E7D0_2AAE_4C25),
    (1, 11, 0x1C71_AFBB_517D_C8CC),
    (1, 29, 0x59A3_E2C2_4C4A_80B9),
];

fn fnv1a(acc: &mut u64, values: &[f32]) {
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            *acc ^= u64::from(b);
            *acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Two plain-SGD steps on the benchmark's task for `dims`, so the second
/// gradient sees non-zero biases; digests both losses and gradients.
fn gradient_digest(dims: &[usize], seed: u64) -> u64 {
    let classes = dims[dims.len() - 1];
    let (train, _) =
        gaussian_mixture(classes, dims[0], 4000 / classes, 0.25, 1.0, seed).split(0.9, seed);
    let mut model = Mlp::new(dims, seed);
    let mut rng = Xoshiro256StarStar::new(seed ^ 0xBA7C4);
    let mut acc = 0xCBF2_9CE4_8422_2325u64;
    for _ in 0..2 {
        let idx = sample_indices(train.len(), BATCH, &mut rng);
        let (bx, by) = train.batch(&idx);
        let (loss, grad) = model.loss_and_grad(&bx, &by);
        fnv1a(&mut acc, &[loss]);
        fnv1a(&mut acc, &grad);
        let mut params = model.params_flat();
        for (p, g) in params.iter_mut().zip(&grad) {
            *p -= 0.05 * g;
        }
        model.set_params_flat(&params);
    }
    acc
}

#[test]
fn loss_and_grad_matches_the_recorded_digests() {
    for (shape, seed, want) in GOLDEN {
        let got = gradient_digest(SHAPES[shape], seed);
        assert_eq!(
            got, want,
            "{:?} seed {seed}: digest 0x{got:016X}",
            SHAPES[shape]
        );
    }
}

// ──────────────────── (c) non-finite weights surface ────────────────────

/// The benchmark's failed-round oracle and the figures' "diverged" rows read
/// the loss: a weight that overflowed must show there even when the
/// activation it multiplies is an exact zero.
#[test]
fn a_non_finite_weight_yields_a_non_finite_loss() {
    let dims = [6usize, 8, 4];
    let x = Matrix::from_vec(2, 6, vec![0.0; 12]); // every product is 0 · w
    let labels = [1usize, 3];
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        for at in [0, 6 * 8 + 8 + 3] {
            let mut model = Mlp::new(&dims, 5);
            assert!(model.loss_and_grad(&x, &labels).0.is_finite());
            let mut params = model.params_flat();
            params[at] = bad;
            model.set_params_flat(&params);
            let (loss, _) = model.loss_and_grad(&x, &labels);
            assert!(!loss.is_finite(), "weight {at} = {bad} gave loss {loss}");
        }
    }
}

// ───────────────────────── (d) the hook's mean ─────────────────────────

/// The per-element walk `TrimmableHook::aggregate` used to make.
fn ref_mean_views(own: &[Vec<f32>], decoded: &[Vec<f32>]) -> Vec<Vec<f32>> {
    let w = own.len();
    (0..w)
        .map(|v| {
            (0..own[0].len())
                .map(|j| {
                    let mut acc = 0.0f32;
                    for (u, dec) in decoded.iter().enumerate() {
                        acc += if u == v { own[v][j] } else { dec[j] };
                    }
                    acc / w as f32
                })
                .collect()
        })
        .collect()
}

#[test]
fn aggregate_matches_the_per_element_walk() {
    // Rows of 4096 coordinates, so the lengths end on, just before and just
    // past a row boundary (ragged last rows). Sign-magnitude at trim 0
    // decodes every coordinate bit-exactly, so each remote decode is the
    // gradient that was sent and the walk's `decoded` is `own` itself.
    const ROW: usize = 4096;
    for len in [0usize, 1, ROW - 1, ROW, ROW + 1, 2 * ROW + 5] {
        for w in 1..=5usize {
            let mut rng = Xoshiro256StarStar::new((len * 8 + w) as u64);
            let mut draw = |_| -> Vec<f32> {
                (0..len)
                    .map(|j| match j % 11 {
                        0 => -0.0,
                        1 => 0.0,
                        _ => rng.next_f32_range(-1.0, 1.0) * 10f32.powi((j % 7) as i32 - 3),
                    })
                    .collect()
            };
            let own: Vec<Vec<f32>> = (0..w).map(&mut draw).collect();
            let mut hook = TrimmableHook::new(SchemeId::SignMagnitude, w, 0.0, 0.0, ROW, 7);
            let got = hook.aggregate(&own, 3, 5);
            let want = ref_mean_views(&own, &own);
            assert_eq!(got.len(), w);
            for (v, (g, e)) in got.iter().zip(&want).enumerate() {
                assert_eq!(bits(g), bits(e), "len {len}, {w} workers, view {v}");
            }
        }
    }
}

#[test]
fn aggregate_matches_the_per_element_walk_under_loss() {
    // The same lengths, now with trimmed and dropped packets: a dropped
    // chunk decodes to zeros, a trimmed one to its heads, so the remote
    // decodes differ from the gradients sent. Each worker `u`'s decode is
    // taken from a lone channel with the hook's geometry and injector seed
    // (`seed ^ u·0x9E37`) carrying message `round·W + u`.
    const ROW: usize = 4096;
    const SEED: u64 = 7;
    let (epoch, round) = (3, 5);
    for scheme in [
        SchemeId::SignMagnitude,
        SchemeId::Stochastic,
        SchemeId::RhtOneBit,
    ] {
        for len in [1usize, ROW - 1, ROW, ROW + 1, 2 * ROW + 5] {
            for w in [1usize, 2, 3, 5] {
                let mut rng = Xoshiro256StarStar::new((len * 8 + w) as u64);
                let own: Vec<Vec<f32>> = (0..w)
                    .map(|_| (0..len).map(|_| rng.next_f32_range(-1.0, 1.0)).collect())
                    .collect();
                let (trim, drop) = (0.3, 0.25);
                let decoded: Vec<Vec<f32>> = own
                    .iter()
                    .enumerate()
                    .map(|(u, g)| {
                        let injector =
                            TrimInjector::new(trim, SEED ^ (u as u64).wrapping_mul(0x9E37))
                                .with_drop_prob(drop);
                        let codec = MessageCodec::with_row_len(scheme, SEED, ROW);
                        let mut ch = TrimmingChannel::new(codec, injector);
                        let mut out = Vec::new();
                        ch.transfer(g, epoch, round * w as u32 + u as u32, |_, piece| {
                            out.extend_from_slice(piece);
                        });
                        out
                    })
                    .collect();
                let mut hook = TrimmableHook::new(scheme, w, trim, drop, ROW, SEED);
                let got = hook.aggregate(&own, epoch, round);
                let want = ref_mean_views(&own, &decoded);
                if len > ROW && w > 1 {
                    assert_ne!(decoded[1], own[1], "{scheme}: nothing was lost");
                }
                for (v, (g, e)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        bits(g),
                        bits(e),
                        "{scheme}, len {len}, {w} workers, view {v}"
                    );
                }
            }
        }
    }
}
