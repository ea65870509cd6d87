//! Trimmable FSDP weight gathering (§5.5).
//!
//! Trains a model, shards its weights across four owners, then measures
//! inference accuracy when the gather crosses a trimming fabric — the
//! paper's conjecture that networks tolerate small weight imperfections,
//! quantified per encoding.
//!
//! Run: `cargo run --release --example fsdp_weights`

use trimgrad::collective::channel::TrimmingChannel;
use trimgrad::collective::chunk::MessageCodec;
use trimgrad::collective::hooks::BaselineHook;
use trimgrad::collective::TrimInjector;
use trimgrad::mltrain::data::gaussian_mixture;
use trimgrad::mltrain::fsdp::ShardedParams;
use trimgrad::mltrain::metrics::top1_accuracy;
use trimgrad::mltrain::parallel::{DataParallelTrainer, ParallelConfig};
use trimgrad::mltrain::Mlp;
use trimgrad::quant::SchemeId;

fn main() {
    // Train the reference model (lossless aggregation).
    let (train, test) = gaussian_mixture(10, 32, 120, 2.0, 1.4, 7).split(0.8, 7);
    let dims = [32usize, 64, 64, 10];
    let mut trainer = DataParallelTrainer::new(
        &dims,
        train,
        test.clone(),
        Box::new(BaselineHook::new(4)),
        ParallelConfig::default(),
    );
    for _ in 0..50 {
        trainer.run_epoch();
    }
    let (clean, _) = trainer.evaluate();
    println!("clean model top-1: {clean:.4}\n");
    println!("accuracy after gathering sharded weights through a trimming fabric:");
    println!("{:>8} {:>10} {:>10}", "trim", "sd", "rht");

    let sharded = ShardedParams::split(&trainer.params_of_worker0(), 4);
    for trim in [0.0, 0.1, 0.25, 0.5, 1.0] {
        let acc = |scheme: SchemeId| {
            let codec = MessageCodec::with_row_len(scheme, 5, 1 << 10);
            let mut chan = TrimmingChannel::new(codec, TrimInjector::new(trim, 42));
            let gathered = sharded.gather(0, &mut chan, 0, 0);
            let mut m = Mlp::new(&dims, 0);
            m.set_params_flat(&gathered);
            top1_accuracy(&m.forward(&test.x), &test.y)
        };
        println!(
            "{:>7.0}% {:>10.4} {:>10.4}",
            trim * 100.0,
            acc(SchemeId::SubtractiveDither),
            acc(SchemeId::RhtOneBit)
        );
    }
    println!("\nFor weights there is no round-to-round averaging, so the unbiased-but-");
    println!("noisy SD decode hurts more than RHT's low per-instance error — the RHT");
    println!("model stays usable even with every gather packet trimmed to 1 bit.");
}
