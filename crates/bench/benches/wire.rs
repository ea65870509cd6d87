//! Micro-benchmarks for the wire layer: packetizing a row, the in-switch
//! trim operation (the hot path of a trimming ASIC model), receiver-side
//! parse + reassembly, and the Internet checksum that all three run. All four
//! land in `BENCH_wire.json` under CI's bench smoke job.

use std::hint::black_box;
use trimgrad::hadamard::prng::Xoshiro256StarStar;
use trimgrad::quant::SchemeId;
use trimgrad::wire::internet_checksum;
use trimgrad::wire::packet::NetAddrs;
use trimgrad::wire::packetize::{packetize_row, PacketizeConfig};
use trimgrad::wire::reassemble::RowAssembler;
use trimgrad_bench::microbench::{BenchOpts, BenchRecord, Group, Throughput};

fn cfg() -> PacketizeConfig {
    PacketizeConfig {
        mtu: 1500,
        net: NetAddrs::between_hosts(1, 2),
        msg_id: 0,
        row_id: 0,
        epoch: 0,
    }
}

fn encoded_row() -> trimgrad::quant::EncodedRow {
    let mut rng = Xoshiro256StarStar::new(1);
    let row: Vec<f32> = (0..(1 << 15))
        .map(|_| rng.next_f32_range(-1.0, 1.0))
        .collect();
    SchemeId::RhtOneBit.encode(&row, 42)
}

fn bench_packetize(opts: &BenchOpts, records: &mut Vec<BenchRecord>) {
    let enc = encoded_row();
    let mut g = Group::new("wire");
    opts.configure(&mut g);
    g.throughput(Throughput::Elements(enc.n as u64));
    g.bench("packetize_row_32k", || {
        packetize_row(black_box(&enc), &cfg())
    });
    records.extend(g.finish());
}

fn bench_trim_op(opts: &BenchOpts, records: &mut Vec<BenchRecord>) {
    let enc = encoded_row();
    let pr = packetize_row(&enc, &cfg());
    let packet = pr.packets[0].clone();
    let mut g = Group::new("wire");
    opts.configure(&mut g);
    g.throughput(Throughput::Bytes(packet.wire_len() as u64));
    g.bench("switch_trim_to_heads", || {
        let mut p = packet.clone();
        p.trim_to_depth(1).expect("trimmable");
        p
    });
    records.extend(g.finish());
}

fn bench_parse_and_reassemble(opts: &BenchOpts, records: &mut Vec<BenchRecord>) {
    let enc = encoded_row();
    let pr = packetize_row(&enc, &cfg());
    let mut g = Group::new("wire");
    opts.configure(&mut g);
    g.throughput(Throughput::Elements(enc.n as u64));
    g.bench("reassemble_row_32k", || {
        let mut asm = RowAssembler::new(enc.scheme, 0, 0, enc.meta.original_len);
        asm.ingest_meta(&pr.meta).expect("meta ok");
        for p in &pr.packets {
            asm.ingest(black_box(p)).expect("packet ok");
        }
        asm.is_complete()
    });
    records.extend(g.finish());
}

/// The checksum alone, over a full frame's datagram and over an IPv4
/// header: every seal and check of the rows above runs it on both sizes.
fn bench_checksum(opts: &BenchOpts, records: &mut Vec<BenchRecord>) {
    let mut rng = Xoshiro256StarStar::new(3);
    let frame: Vec<u8> = (0..1436).map(|_| rng.next_u32() as u8).collect();
    for len in [1436, 20] {
        let mut g = Group::new("wire");
        opts.configure(&mut g);
        g.throughput(Throughput::Bytes(len as u64));
        g.bench(&format!("internet_checksum_{len}B"), || {
            internet_checksum(black_box(&frame[..len]))
        });
        records.extend(g.finish());
    }
}

fn main() {
    let opts = BenchOpts::from_args();
    let mut records = Vec::new();
    bench_packetize(&opts, &mut records);
    bench_trim_op(&opts, &mut records);
    bench_parse_and_reassemble(&opts, &mut records);
    bench_checksum(&opts, &mut records);
    opts.write("wire", &records);
}
