//! Micro-benchmarks: trimmable encode/decode throughput per scheme, on the
//! paper's 2¹⁵-coordinate rows.
//!
//! These numbers calibrate `TimeModel::{scalar,rht}_encode_ns_per_coord` and
//! verify the paper's "RHT is about 18% slower than the simpler
//! per-coordinate scalar quantization methods" claim on our implementation.
//!
//! The `row_encode_pipeline` group drives the multi-row [`MessageCodec`]
//! path serially and on a 4-wide [`WorkerPool`], which is what CI's bench
//! smoke job records to `BENCH_encode.json` for the speedup table in
//! EXPERIMENTS.md.
//!
//! [`MessageCodec`]: trimgrad::collective::chunk::MessageCodec
//! [`WorkerPool`]: trimgrad_par::WorkerPool

use std::hint::black_box;
use trimgrad::collective::chunk::MessageCodec;
use trimgrad::hadamard::prng::Xoshiro256StarStar;
use trimgrad::quant::{scheme_for, SchemeId};
use trimgrad_bench::microbench::{BenchOpts, BenchRecord, Group, Throughput};
use trimgrad_par::WorkerPool;

fn row(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..n).map(|_| rng.next_f32_range(-1.0, 1.0)).collect()
}

fn bench_encode(opts: &BenchOpts, records: &mut Vec<BenchRecord>) {
    let n = 1 << 15;
    let data = row(n, 1);
    let mut g = Group::new("encode_row_32k");
    opts.configure(&mut g);
    g.throughput(Throughput::Elements(n as u64));
    for id in SchemeId::ALL {
        let scheme = scheme_for(id);
        g.bench(id.name(), || scheme.encode(black_box(&data), 42));
    }
    records.extend(g.finish());
}

fn bench_decode_full(opts: &BenchOpts, records: &mut Vec<BenchRecord>) {
    let n = 1 << 15;
    let data = row(n, 2);
    let mut g = Group::new("decode_full_row_32k");
    opts.configure(&mut g);
    g.throughput(Throughput::Elements(n as u64));
    for id in SchemeId::ALL {
        let scheme = scheme_for(id);
        let enc = scheme.encode(&data, 42);
        g.bench(id.name(), || {
            scheme
                .decode(&black_box(&enc).full_view(), &enc.meta, 42)
                .expect("valid")
        });
    }
    records.extend(g.finish());
}

fn bench_decode_trimmed(opts: &BenchOpts, records: &mut Vec<BenchRecord>) {
    let n = 1 << 15;
    let data = row(n, 3);
    let mut g = Group::new("decode_heads_only_row_32k");
    opts.configure(&mut g);
    g.throughput(Throughput::Elements(n as u64));
    for id in SchemeId::ALL {
        let scheme = scheme_for(id);
        let enc = scheme.encode(&data, 42);
        g.bench(id.name(), || {
            scheme
                .decode(&black_box(&enc).trimmed_view(1), &enc.meta, 42)
                .expect("valid")
        });
    }
    records.extend(g.finish());
}

/// An 8-row (2¹⁸-coordinate) message through the codec's row fan-out, with
/// explicit 1- and 4-wide pools. On a multi-core host the `threads4` label
/// should show ≥2× the serial rate; on a single-core CI container the two
/// land within noise of each other (the pool adds only channel overhead).
fn bench_row_pipeline(opts: &BenchOpts, records: &mut Vec<BenchRecord>) {
    let n = 8 << 15;
    let blob = row(n, 4);
    let codec = MessageCodec::new(SchemeId::RhtOneBit, 42);
    let mut g = Group::new("row_encode_pipeline");
    opts.configure(&mut g);
    g.throughput(Throughput::Elements(n as u64));
    for (label, pool) in [
        ("serial", WorkerPool::new(1)),
        ("threads4", WorkerPool::new(4)),
    ] {
        g.bench(label, || {
            codec.encode_message_pooled(black_box(&blob), 0, 0, &pool)
        });
    }
    records.extend(g.finish());
}

fn best_ns(records: &[BenchRecord], group: &str, label: &str) -> f64 {
    records
        .iter()
        .find(|r| r.group == group && r.label == label)
        .unwrap_or_else(|| panic!("missing record {group}/{label}"))
        .best_ns
}

/// Percent by which the 4-wide pooled pipeline is slower than serial
/// (negative = faster). This is the `row_encode_pipeline` threads4
/// regression the striped fan-out fixed; CI keeps it pinned.
fn pool_over_serial_pct(records: &[BenchRecord]) -> f64 {
    let serial = best_ns(records, "row_encode_pipeline", "serial");
    let threads4 = best_ns(records, "row_encode_pipeline", "threads4");
    (threads4 / serial - 1.0) * 100.0
}

fn main() {
    let opts = BenchOpts::from_args();
    let mut records = Vec::new();
    bench_encode(&opts, &mut records);
    bench_decode_full(&opts, &mut records);
    bench_decode_trimmed(&opts, &mut records);
    bench_row_pipeline(&opts, &mut records);
    opts.write("encode_decode", &records);

    if let Some(limit) = BenchOpts::limit("--assert-encode-pool-not-slower") {
        // Best-of-batch timing still jitters on loaded CI machines; give the
        // check a few independent attempts before declaring a regression.
        let mut pct = pool_over_serial_pct(&records);
        let mut worst = f64::NEG_INFINITY;
        let mut ok = false;
        for attempt in 1..=3 {
            println!("pooled vs serial encode, attempt {attempt}: {pct:+.2}% (limit +{limit}%)");
            if pct <= limit {
                ok = true;
                break;
            }
            worst = worst.max(pct);
            if attempt < 3 {
                let mut scratch = Vec::new();
                bench_row_pipeline(&opts, &mut scratch);
                pct = pool_over_serial_pct(&scratch);
            }
        }
        if !ok {
            // trimlint: allow(no-panic) -- the whole point of the flag is to fail CI
            panic!("pooled encode is {worst:.2}% slower than serial (limit +{limit}%)");
        }
    }
}
