//! Micro-benchmarks for the FWHT substrate: raw butterfly and seeded RHT
//! (forward + inverse), plus the Rademacher diagonal on its own — one
//! `xoshiro256**` step per 64 coordinates, their signs XORed into the float
//! sign bits (wire format v2). Lands in `BENCH_hadamard.json` under CI's
//! bench smoke job.

use trimgrad::hadamard::fwht::fwht_orthonormal;
use trimgrad::hadamard::prng::Xoshiro256StarStar;
use trimgrad::hadamard::rademacher::RademacherDiagonal;
use trimgrad::hadamard::rht::RandomizedHadamard;
use trimgrad_bench::microbench::{BenchOpts, BenchRecord, Group, Throughput};

fn data(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..n).map(|_| rng.next_f32_range(-1.0, 1.0)).collect()
}

fn bench_fwht_sizes(opts: &BenchOpts, records: &mut Vec<BenchRecord>) {
    let mut g = Group::new("fwht_orthonormal");
    opts.configure(&mut g);
    for log_n in [10usize, 12, 15, 18] {
        let n = 1 << log_n;
        g.throughput(Throughput::Elements(n as u64));
        let input = data(n, 1);
        g.bench(&format!("2^{log_n}"), || {
            let mut v = input.clone();
            fwht_orthonormal(&mut v).expect("power of two");
            v
        });
    }
    records.extend(g.finish());
}

fn bench_rht_roundtrip(opts: &BenchOpts, records: &mut Vec<BenchRecord>) {
    let n = 1 << 15;
    let input = data(n, 2);
    let rht = RandomizedHadamard::new(42);
    let mut g = Group::new("rht_row_32k");
    opts.configure(&mut g);
    g.throughput(Throughput::Elements(n as u64));
    g.bench("rademacher_apply_2^15", || {
        let mut v = input.clone();
        RademacherDiagonal::new(42).apply_scaled(&mut v, 1.0);
        v
    });
    g.bench("forward", || {
        let mut v = input.clone();
        rht.forward(&mut v).expect("power of two");
        v
    });
    let mut rotated = input.clone();
    rht.forward(&mut rotated).expect("power of two");
    g.bench("inverse", || {
        let mut v = rotated.clone();
        rht.inverse(&mut v).expect("power of two");
        v
    });
    // What a decoder pays: the row inverted where it already lies, no copy.
    // (Orthonormal, so inverting the same buffer over and over stays finite.)
    let mut in_place = rotated.clone();
    g.bench("inverse_in_place", || rht.inverse_in_place(&mut in_place));
    records.extend(g.finish());
}

fn main() {
    let opts = BenchOpts::from_args();
    let mut records = Vec::new();
    bench_fwht_sizes(&opts, &mut records);
    bench_rht_roundtrip(&opts, &mut records);
    opts.write("hadamard", &records);
}
