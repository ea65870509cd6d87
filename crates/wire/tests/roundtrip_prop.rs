//! Property tests across the whole wire layer: for any gradient row, any
//! scheme, and any per-packet trim/drop pattern, the packetize → trim →
//! reassemble → decode path must agree with decoding the equivalent
//! availability view directly — the wire format adds no loss of its own.

use proptest::prelude::*;
use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_quant::SchemeId;
use trimgrad_wire::packet::NetAddrs;
use trimgrad_wire::packetize::{packetize_row, PacketizeConfig};
use trimgrad_wire::reassemble::RowAssembler;

fn cfg(mtu: usize) -> PacketizeConfig {
    PacketizeConfig {
        mtu,
        net: NetAddrs::between_hosts(1, 2),
        msg_id: 3,
        row_id: 1,
        epoch: 2,
    }
}

fn row(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..n).map(|_| rng.next_f32_range(-10.0, 10.0)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Wire transparency: whatever per-packet fates occur, decoding the
    /// reassembled row equals decoding the directly-constructed view.
    #[test]
    fn wire_path_is_transparent(
        scheme_idx in 0usize..SchemeId::ALL.len(),
        len in 1usize..1200,
        seed in any::<u64>(),
        mtu in 300usize..1500,
        fates in proptest::collection::vec(0u8..=4, 1..64)
    ) {
        let scheme_id = SchemeId::ALL[scheme_idx];
        let data = row(len, seed);
        let enc = scheme_id.encode(&data, seed);
        let c = cfg(mtu);
        let pr = packetize_row(&enc, &c);
        prop_assert!(!pr.packets.is_empty());

        let n_parts = scheme_id.part_bits().len();
        let mut asm = RowAssembler::new(scheme_id, c.msg_id, c.row_id, len);
        asm.ingest_meta(&pr.meta).expect("meta matches");
        // Depth per coordinate, mirroring the packet fates.
        let mut depths = vec![0usize; enc.n];
        for (i, pkt) in pr.packets.iter().enumerate() {
            let fate = fates[i % fates.len()];
            let fields = pkt.quick_fields().expect("valid");
            let start = fields.coord_start as usize;
            let count = fields.coord_count as usize;
            // fate: 0 = lost, 1..=n_parts = trim to that depth, else intact.
            let depth = if fate == 0 {
                continue; // whole packet lost
            } else {
                (fate as usize).min(n_parts)
            };
            let mut p = pkt.clone();
            if depth < n_parts {
                p.trim_to_depth(depth as u8).expect("trimmable");
            }
            asm.ingest(&p).expect("ingest ok");
            for d in &mut depths[start..start + count] {
                *d = depth;
            }
        }
        let via_wire = scheme_id
            .decode(&asm.partial_row(), asm.meta().expect("meta"), seed)
            .expect("decodable");
        let direct = scheme_id
            .decode(&enc.view_with_depths(&depths), &enc.meta, seed)
            .expect("decodable");
        prop_assert_eq!(via_wire.len(), len);
        for (a, b) in via_wire.iter().zip(&direct) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "wire path altered a value");
        }
    }

    /// Telemetry agreement: running the packetize → trim → reassemble path
    /// while tallying counters into a registry must reproduce the
    /// assembler's own bookkeeping exactly — delivered + lost == made,
    /// trimmed/parts-lost counts match the applied fates, and the coords
    /// counter equals what the assembler reports as received.
    #[test]
    fn roundtrip_counters_match_telemetry(
        scheme_idx in 0usize..SchemeId::ALL.len(),
        len in 1usize..1200,
        seed in any::<u64>(),
        mtu in 300usize..1500,
        fates in proptest::collection::vec(0u8..=4, 1..64)
    ) {
        let scheme_id = SchemeId::ALL[scheme_idx];
        let data = row(len, seed);
        let enc = scheme_id.encode(&data, seed);
        let c = cfg(mtu);
        let pr = packetize_row(&enc, &c);
        let n_parts = scheme_id.part_bits().len();

        let reg = trimgrad_telemetry::Registry::new();
        let made = reg.counter("wire.packets_made");
        let delivered = reg.counter("wire.packets_delivered");
        let lost = reg.counter("wire.packets_lost");
        let trimmed = reg.counter("wire.packets_trimmed");
        let parts_lost = reg.counter("wire.parts_lost");
        let coords = reg.counter("wire.coords_delivered");

        let mut asm = RowAssembler::new(scheme_id, c.msg_id, c.row_id, len);
        asm.ingest_meta(&pr.meta).expect("meta matches");
        let mut expect_delivered = 0u64;
        let mut expect_trimmed = 0u64;
        let mut expect_parts_lost = 0u64;
        for (i, pkt) in pr.packets.iter().enumerate() {
            made.inc();
            let fate = fates[i % fates.len()];
            if fate == 0 {
                lost.inc();
                continue;
            }
            let depth = (fate as usize).min(n_parts);
            let mut p = pkt.clone();
            if depth < n_parts {
                p.trim_to_depth(depth as u8).expect("trimmable");
                trimmed.inc();
                parts_lost.add((n_parts - depth) as u64);
                expect_trimmed += 1;
                expect_parts_lost += (n_parts - depth) as u64;
            }
            let fields = p.quick_fields().expect("valid");
            asm.ingest(&p).expect("ingest ok");
            delivered.inc();
            coords.add(u64::from(fields.coord_count));
            expect_delivered += 1;
        }

        let snap = reg.snapshot();
        prop_assert_eq!(snap.counter("wire.packets_made"), pr.packets.len() as u64);
        prop_assert_eq!(
            snap.counter("wire.packets_delivered") + snap.counter("wire.packets_lost"),
            snap.counter("wire.packets_made"),
            "wire conservation violated"
        );
        prop_assert_eq!(snap.counter("wire.packets_delivered"), expect_delivered);
        prop_assert_eq!(snap.counter("wire.packets_trimmed"), expect_trimmed);
        prop_assert_eq!(snap.counter("wire.parts_lost"), expect_parts_lost);
        // Head coords the assembler holds == head coords the counters say
        // arrived (re-delivery of the same range cannot double-count in the
        // assembler, but each packet covers a disjoint range here).
        prop_assert_eq!(
            snap.counter("wire.coords_delivered") as usize,
            asm.coords_received(),
            "telemetry coords disagree with assembler bookkeeping"
        );
        // Snapshots are pure reads: a second one is identical.
        prop_assert_eq!(snap, reg.snapshot());
    }

    /// Every produced frame is structurally valid and within the MTU
    /// (plus Ethernet framing), before and after any legal trim.
    #[test]
    fn frames_respect_mtu_and_parse(
        scheme_idx in 0usize..SchemeId::ALL.len(),
        len in 1usize..2000,
        seed in any::<u64>(),
        mtu in 200usize..1500
    ) {
        let scheme_id = SchemeId::ALL[scheme_idx];
        let data = row(len, seed);
        let enc = scheme_id.encode(&data, seed);
        let pr = packetize_row(&enc, &cfg(mtu));
        let n_parts = scheme_id.part_bits().len() as u8;
        for pkt in &pr.packets {
            prop_assert!(pkt.wire_len() <= mtu + 14, "frame exceeds MTU");
            pkt.parse().expect("valid untrimmed frame");
            for depth in 1..n_parts {
                let mut p = pkt.clone();
                p.trim_to_depth(depth).expect("trim ok");
                let parsed = p.parse().expect("valid trimmed frame");
                prop_assert_eq!(parsed.fields.trim_depth, depth);
                prop_assert!(p.wire_len() <= pkt.wire_len());
            }
        }
    }
}
