//! Macro-benchmarks for the collective layer: in-memory ring all-reduce
//! over lossless vs trimming channels, and one full aggregation round
//! through the DDP-style hook. Lands in `BENCH_collective.json` under CI's
//! bench smoke job.

use trimgrad::collective::channel::{GradChannel, LosslessChannel, TrimmingChannel};
use trimgrad::collective::chunk::MessageCodec;
use trimgrad::collective::hooks::{AggregateHook, TrimmableHook};
use trimgrad::collective::ring::ring_all_reduce;
use trimgrad::collective::TrimInjector;
use trimgrad::hadamard::prng::Xoshiro256StarStar;
use trimgrad::quant::SchemeId;
use trimgrad_bench::microbench::{BenchOpts, BenchRecord, Group, Throughput};

const WORKERS: usize = 4;
const LEN: usize = 1 << 14;

fn grads(seed: u64) -> Vec<Vec<f32>> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..WORKERS)
        .map(|_| (0..LEN).map(|_| rng.next_f32_range(-1.0, 1.0)).collect())
        .collect()
}

fn bench_ring(records: &mut Vec<BenchRecord>) {
    let input = grads(1);
    let mut g = Group::new("ring_allreduce_16k_x4");
    g.throughput(Throughput::Elements((LEN * WORKERS) as u64));
    g.quick();
    g.bench("lossless", || {
        let mut w = input.clone();
        let mut chans: Vec<LosslessChannel> =
            (0..WORKERS).map(|_| LosslessChannel::new()).collect();
        ring_all_reduce(&mut w, &mut chans, 0, 0);
        w
    });
    g.bench("trimming_50pct", || {
        let mut w = input.clone();
        let mut chans: Vec<TrimmingChannel> = (0..WORKERS)
            .map(|i| {
                TrimmingChannel::new(
                    MessageCodec::with_row_len(SchemeId::RhtOneBit, 7, 1 << 12),
                    TrimInjector::new(0.5, i as u64),
                )
            })
            .collect();
        ring_all_reduce(&mut w, &mut chans, 0, 0);
        let _bytes: u64 = chans.iter().map(GradChannel::bytes_sent).sum();
        w
    });
    records.extend(g.finish());
}

fn bench_hook_round(records: &mut Vec<BenchRecord>) {
    let input = grads(2);
    let mut g = Group::new("ddp_hook_aggregate_16k_x4");
    g.throughput(Throughput::Elements((LEN * WORKERS) as u64));
    g.quick();
    for scheme in [SchemeId::SubtractiveDither, SchemeId::RhtOneBit] {
        let mut hook = TrimmableHook::new(scheme, WORKERS, 0.5, 0.0, 1 << 12, 9);
        let mut round = 0u32;
        g.bench(scheme.name(), || {
            round += 1;
            hook.aggregate(&input, 0, round)
        });
    }
    records.extend(g.finish());
}

fn main() {
    let opts = BenchOpts::from_args();
    let mut records = Vec::new();
    bench_ring(&mut records);
    bench_hook_round(&mut records);
    opts.write("collective", &records);
}
