//! Micro-benchmarks for the compute stage of a round at the two shapes
//! `BENCHMARK.json` pins (`train_fabric`, `train_inject`; batch 32): the
//! forward pass alone, forward + backward into the flat gradient, the
//! forward product of every layer (and of the evaluation batch), the three
//! matrix products and the two ReLU masks one at a time at `train_inject`'s
//! widest layer, and `train_inject`'s whole in-memory exchange of four
//! workers' gradients (SQ, rows of 2¹⁵, 10 % trim). Lands in
//! `BENCH_mltrain.json` under CI's bench smoke job.

use std::hint::black_box;
use trimgrad::collective::hooks::{AggregateHook, TrimmableHook};
use trimgrad::hadamard::prng::Xoshiro256StarStar;
use trimgrad::mltrain::data::{gaussian_mixture, sample_indices};
use trimgrad::mltrain::layers::{relu, relu_backward};
use trimgrad::mltrain::{Matrix, Mlp};
use trimgrad::quant::SchemeId;
use trimgrad_bench::microbench::{BenchOpts, BenchRecord, Group, Throughput};

const SHAPES: [(&str, &[usize]); 2] = [
    ("128x512x384x10", &[128, 512, 384, 10]),
    ("256x512x512x100", &[256, 512, 512, 100]),
];
const BATCH: usize = 32;

/// A model one plain-SGD step past its initialisation (so biases are
/// non-zero) and a batch of the benchmark's task.
fn model_and_batch(dims: &[usize]) -> (Mlp, Matrix, Vec<usize>) {
    let classes = dims[dims.len() - 1];
    let data = gaussian_mixture(classes, dims[0], 4000 / classes, 0.25, 1.0, 11);
    let mut rng = Xoshiro256StarStar::new(11);
    let (bx, by) = data.batch(&sample_indices(data.len(), BATCH, &mut rng));
    let mut model = Mlp::new(dims, 11);
    let (_, grad) = model.loss_and_grad(&bx, &by);
    let mut params = model.params_flat();
    for (p, g) in params.iter_mut().zip(&grad) {
        *p -= 0.05 * g;
    }
    model.set_params_flat(&params);
    (model, bx, by)
}

fn bench_compute(opts: &BenchOpts, records: &mut Vec<BenchRecord>) {
    for (name, dims) in SHAPES {
        let (model, bx, by) = model_and_batch(dims);
        let mut g = Group::new("mltrain");
        opts.configure(&mut g);
        g.throughput(Throughput::Elements(model.param_count() as u64));
        g.bench(&format!("forward_{name}"), || model.forward(black_box(&bx)));
        g.bench(&format!("loss_and_grad_{name}"), || {
            model.loss_and_grad(black_box(&bx), &by)
        });
        records.extend(g.finish());
    }
}

/// A `rows × cols` matrix uniform in (−1, 1); `relu` clamps negatives to
/// `+0.0` (about half the entries), as backprop sees `dy`.
fn draw(rows: usize, cols: usize, relu: bool, rng: &mut Xoshiro256StarStar) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| {
            let v = rng.next_f32_range(-1.0, 1.0);
            if relu {
                v.max(0.0)
            } else {
                v
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// The forward product `x·Wᵀ` of every layer of both shapes at batch 32,
/// and of `train_inject`'s widest layer over the 400-row test set the
/// trainer evaluates; then the three products of that widest layer (512 →
/// 512, batch 32) on their own: forward, `dx = dy·W` and `dw += dyᵀ·x`, with
/// `dy` ReLU-sparse; then that layer's ReLU forward and backward.
fn bench_products(opts: &BenchOpts, records: &mut Vec<BenchRecord>) {
    const WIDTH: usize = 512;
    const EVAL_ROWS: usize = 400;
    let mut rng = Xoshiro256StarStar::new(5);
    let layers = SHAPES
        .iter()
        .flat_map(|(_, dims)| dims.windows(2).map(|l| (BATCH, l[0], l[1])))
        .chain([(EVAL_ROWS, WIDTH, WIDTH)]);
    let mut g = Group::new("mltrain");
    opts.configure(&mut g);
    for (m, k, n) in layers {
        let x = draw(m, k, false, &mut rng);
        let w = draw(n, k, false, &mut rng);
        g.throughput(Throughput::Elements((m * k * n) as u64));
        g.bench(&format!("matmul_t_{m}x{k}x{n}"), || {
            x.matmul_t(black_box(&w))
        });
    }

    let x = draw(BATCH, WIDTH, false, &mut rng);
    let w = draw(WIDTH, WIDTH, false, &mut rng);
    let dy = draw(BATCH, WIDTH, true, &mut rng);
    let mut dw = vec![0.0f32; WIDTH * WIDTH];
    g.throughput(Throughput::Elements((BATCH * WIDTH * WIDTH) as u64));
    g.bench("matmul_32x512x512_relu", || dy.matmul(black_box(&w)));
    g.bench("t_matmul_acc_32x512x512_relu", || {
        dy.t_matmul_acc(black_box(&x), &mut dw);
    });

    // The two ReLU masks over that layer's activations: `relu` on a fresh
    // copy of random-sign input each time (in place, a second pass would
    // find no negatives left), `relu_backward` with about half of the
    // activations zero.
    let mut h = x.clone();
    g.throughput(Throughput::Elements((BATCH * WIDTH) as u64));
    g.bench("relu_32x512", || {
        h.as_mut_slice().copy_from_slice(x.as_slice());
        relu(black_box(&mut h));
    });
    let act = draw(BATCH, WIDTH, true, &mut rng);
    let mut grad = draw(BATCH, WIDTH, false, &mut rng);
    g.bench("relu_backward_32x512", || {
        relu_backward(black_box(&act), &mut grad);
    });
    records.extend(g.finish());
}

fn bench_hook_aggregate(opts: &BenchOpts, records: &mut Vec<BenchRecord>) {
    const WORKERS: usize = 4;
    const LEN: usize = 445_540; // train_inject's parameter count
    let mut rng = Xoshiro256StarStar::new(3);
    let grads: Vec<Vec<f32>> = (0..WORKERS)
        .map(|_| (0..LEN).map(|_| rng.next_f32_range(-1.0, 1.0)).collect())
        .collect();
    let mut hook = TrimmableHook::new(SchemeId::Stochastic, WORKERS, 0.10, 0.0, 1 << 15, 11);
    let mut round = 0u32;
    let mut g = Group::new("mltrain");
    opts.configure(&mut g);
    g.throughput(Throughput::Elements((WORKERS * LEN) as u64));
    g.bench("hook_aggregate_sq_4x445k", || {
        round += 1;
        hook.aggregate(black_box(&grads), 0, round)
    });
    records.extend(g.finish());
}

fn main() {
    let opts = BenchOpts::from_args();
    let mut records = Vec::new();
    bench_compute(&opts, &mut records);
    bench_products(&opts, &mut records);
    bench_hook_aggregate(&opts, &mut records);
    opts.write("mltrain", &records);
}
