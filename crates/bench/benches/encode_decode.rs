//! Micro-benchmarks: trimmable encode/decode throughput per scheme, on the
//! paper's 2¹⁵-coordinate rows.
//!
//! These numbers calibrate `TimeModel::{scalar,rht}_encode_ns_per_coord` and
//! verify the paper's "RHT is about 18% slower than the simpler
//! per-coordinate scalar quantization methods" claim on our implementation.
//!
//! The `kernels_32k` group times the group-of-eight bit-plane kernels on
//! their own — the 31-bit tail and 23-bit mantissa planes packed from a row,
//! and a whole row's run unpacked from its sign and field planes — so a
//! regression in a scheme row can be told apart from one in its rotation.
//!
//! The `row_encode_pipeline` group drives the multi-row [`MessageCodec`]
//! fan-out at the process's pool width (the JSON report stamps `threads`);
//! a serial-vs-parallel comparison is two runs, `TRIMGRAD_THREADS=1` and
//! unset.
//!
//! [`MessageCodec`]: trimgrad::collective::chunk::MessageCodec

use std::hint::black_box;
use trimgrad::collective::chunk::{MessageCodec, DEFAULT_ROW_LEN};
use trimgrad::hadamard::prng::Xoshiro256StarStar;
use trimgrad::quant::bitpack::pack_low_bits_into;
use trimgrad::quant::kernels::{decode_sign31, decode_sign_exp_mant, pack_exps_into};
use trimgrad::quant::SchemeId;
use trimgrad_bench::microbench::{BenchOpts, BenchRecord, Group, Throughput};

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
        g.bench(id.name(), || id.encode(black_box(&data), 42));
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
        let enc = id.encode(&data, 42);
        g.bench(id.name(), || {
            id.decode(&black_box(&enc).full_view(), &enc.meta, 42)
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
        let enc = id.encode(&data, 42);
        g.bench(id.name(), || {
            id.decode(&black_box(&enc).trimmed_view(1), &enc.meta, 42)
                .expect("valid")
        });
    }
    records.extend(g.finish());
}

/// The bit-plane kernels every sign+31 / sign+8+23 scheme goes through, one
/// 2¹⁵-coordinate row each way.
fn bench_kernels(opts: &BenchOpts, records: &mut Vec<BenchRecord>) {
    let n = 1 << 15;
    let data = row(n, 5);
    let mut g = Group::new("kernels_32k");
    opts.configure(&mut g);
    g.throughput(Throughput::Elements(n as u64));
    // Each pack fills a fresh zeroed plane, as a whole-row encode does.
    let pack = |width: usize, into: fn(&[f32], &mut [u8])| {
        let mut plane = vec![0u8; (n * width).div_ceil(8)];
        into(black_box(&data), &mut plane);
        plane
    };
    g.bench("pack_tails31_32k", || pack(31, pack_low_bits_into::<31>));
    g.bench("pack_mants23_32k", || pack(23, pack_low_bits_into::<23>));
    let mut out = vec![0.0f32; n];
    // Sign-magnitude's parts are the row's own sign and 31-bit planes.
    let planes = SchemeId::SignMagnitude.encode(&data, 0).parts;
    let (signs, tails) = (planes[0].as_bytes(), planes[1].as_bytes());
    g.bench("unpack_sign31_32k", || {
        decode_sign31(black_box(signs), tails, 0, &mut out);
    });
    let mut exps = vec![0u8; n];
    pack_exps_into(&data, &mut exps);
    let mants = pack(23, pack_low_bits_into::<23>);
    g.bench("unpack_sign_exp_mant23_32k", || {
        decode_sign_exp_mant(black_box(signs), &exps, &mants, 0, &mut out);
    });
    records.extend(g.finish());
}

/// An 8-row (2¹⁸-coordinate) message through the codec's row fan-out.
fn bench_row_pipeline(opts: &BenchOpts, records: &mut Vec<BenchRecord>) {
    let n = 8 << 15;
    let blob = row(n, 4);
    let codec = MessageCodec::with_row_len(SchemeId::RhtOneBit, 42, DEFAULT_ROW_LEN);
    let mut g = Group::new("row_encode_pipeline");
    opts.configure(&mut g);
    g.throughput(Throughput::Elements(n as u64));
    g.bench("encode_message", || {
        codec.encode_message(black_box(&blob), 0, 0)
    });
    records.extend(g.finish());
}

fn main() {
    let opts = BenchOpts::from_args();
    let mut records = Vec::new();
    bench_encode(&opts, &mut records);
    bench_decode_full(&opts, &mut records);
    bench_decode_trimmed(&opts, &mut records);
    bench_kernels(&opts, &mut records);
    bench_row_pipeline(&opts, &mut records);
    opts.write("encode_decode", &records);
}
