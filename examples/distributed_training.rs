//! Distributed data-parallel training with trimmable gradients.
//!
//! Four workers train a classifier on a synthetic 10-class task; the
//! gradient exchange goes through the paper's encodings while the simulated
//! fabric trims 30% of all gradient packets. Compare the learning curves of
//! the lossless baseline, the biased sign-magnitude scheme, and RHT.
//!
//! Run: `cargo run --release --example distributed_training`

use trimgrad::collective::hooks::{AggregateHook, BaselineHook, TrimmableHook};
use trimgrad::mltrain::data::gaussian_mixture;
use trimgrad::mltrain::optim::StepLr;
use trimgrad::mltrain::parallel::{DataParallelTrainer, ParallelConfig};
use trimgrad::quant::SchemeId;

const TRIM_RATE: f64 = 0.50;
const WORKERS: usize = 4;
const EPOCHS: u32 = 50;

fn run(hook: Box<dyn AggregateHook>) -> (String, Vec<f64>) {
    let name = hook.name();
    // Spread 1.4 + lr 0.1: the calibrated regime where gradient-compression
    // error visibly costs accuracy (see trimgrad-bench).
    let (train, test) = gaussian_mixture(10, 32, 120, 2.0, 1.4, 7).split(0.8, 7);
    let cfg = ParallelConfig {
        workers: WORKERS,
        batch_size: 32,
        schedule: StepLr {
            initial_lr: 0.1,
            step_size: 30,
            gamma: 0.5,
        },
        momentum: 0.9,
        rounds_per_epoch: 20,
        seed: 7,
    };
    let mut t = DataParallelTrainer::new(&[32, 64, 64, 10], train, test, hook, cfg);
    let mut curve = Vec::new();
    for _ in 0..EPOCHS {
        let s = t.run_epoch();
        curve.push(s.top1);
    }
    (name, curve)
}

fn main() {
    println!("4 workers, 50% of gradient packets trimmed, {EPOCHS} epochs\n");
    let runs = vec![
        run(Box::new(BaselineHook::new(WORKERS))),
        run(Box::new(TrimmableHook::new(
            SchemeId::SignMagnitude,
            WORKERS,
            TRIM_RATE,
            0.0,
            1 << 12,
            99,
        ))),
        run(Box::new(TrimmableHook::new(
            SchemeId::SubtractiveDither,
            WORKERS,
            TRIM_RATE,
            0.0,
            1 << 12,
            99,
        ))),
        run(Box::new(TrimmableHook::new(
            SchemeId::RhtOneBit,
            WORKERS,
            TRIM_RATE,
            0.0,
            1 << 12,
            99,
        ))),
    ];

    print!("{:>6}", "epoch");
    for (name, _) in &runs {
        print!("{name:>10}");
    }
    println!();
    for e in (0..EPOCHS as usize).step_by(5) {
        print!("{e:>6}");
        for (_, curve) in &runs {
            print!("{:>10.3}", curve[e]);
        }
        println!();
    }
    println!("\nfinal:");
    for (name, curve) in &runs {
        println!(
            "  {name:>9}: top-1 {:.3}",
            curve.last().expect("epochs > 0")
        );
    }
}
