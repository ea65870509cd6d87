//! Micro-benchmarks for the FWHT substrate: raw butterfly and seeded RHT
//! (forward + inverse).

use trimgrad::hadamard::fwht::fwht_orthonormal;
use trimgrad::hadamard::prng::Xoshiro256StarStar;
use trimgrad::hadamard::rht::RandomizedHadamard;
use trimgrad_bench::microbench::{Group, Throughput};

fn data(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..n).map(|_| rng.next_f32_range(-1.0, 1.0)).collect()
}

fn bench_fwht_sizes() {
    let mut g = Group::new("fwht_orthonormal");
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
}

fn bench_rht_roundtrip() {
    let n = 1 << 15;
    let input = data(n, 2);
    let rht = RandomizedHadamard::new(42);
    let mut g = Group::new("rht_row_32k");
    g.throughput(Throughput::Elements(n as u64));
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
}

fn main() {
    bench_fwht_sizes();
    bench_rht_roundtrip();
}
