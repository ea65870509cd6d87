//! Frame golden for [`packetize_row`]: FNV-1a over every data frame plus the
//! metadata frame, for every scheme and the row lengths the wire layer
//! actually sees — 1 (degenerate), 64 (one packer word), 4095 (odd tail,
//! multi-packet) and 32768 (the paper's row size) — at MTU 1500.
//!
//! The first constants were recorded at commit `bbe12a7`, where
//! `packetize_row` was still asserted byte-identical to the pooled and traced
//! variants it replaced, so a change to the bytes on the wire fails here.
//! They were re-recorded once, for wire version 2: every frame carries the
//! version byte, and the RHT schemes' payloads follow the v2 Rademacher
//! diagonal (64 signs per draw). The v1 values are listed beside them in
//! EXPERIMENTS.md.

use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_quant::SchemeId;
use trimgrad_telemetry::fnv1a;
use trimgrad_wire::packet::NetAddrs;
use trimgrad_wire::packetize::{packetize_row, PacketizeConfig};

const LENS: [usize; 4] = [1, 64, 4095, 32768];

/// `GOLDEN[scheme][len]`, schemes in [`SchemeId::ALL`] order, lengths in
/// [`LENS`] order.
const GOLDEN: [[u64; 4]; 5] = [
    [
        0x7ee2_3d4b_998a_5f4f,
        0x1505_399d_b293_abc2,
        0xb4ec_0af5_7285_d8fa,
        0x6bd1_680a_04ea_1f43,
    ],
    [
        0xe371_9582_0ecc_c307,
        0x5c91_d5ca_74aa_a6f9,
        0xa389_1095_8c53_9680,
        0x35f9_8456_3296_68fc,
    ],
    [
        0x623c_c567_e879_9a1f,
        0xa0e5_936d_b2a4_b8bd,
        0x947c_0ae9_f730_f55d,
        0xf643_953b_19b7_85b3,
    ],
    [
        0x6847_8ca4_9b6f_0099,
        0x2cc8_4939_92a7_45d2,
        0x5834_9794_2711_0c83,
        0x2369_ae5d_4bc8_f67d,
    ],
    [
        0xfbf2_2c0a_ef3e_5c63,
        0x5663_4327_f0da_9ad0,
        0xb613_546b_8337_4a2a,
        0x4b7d_f51b_689f_88df,
    ],
];

fn frames_digest(scheme_id: SchemeId, n: usize) -> u64 {
    let mut rng = Xoshiro256StarStar::new(0xF4A3 ^ n as u64);
    let row: Vec<f32> = (0..n).map(|_| rng.next_f32_range(-4.0, 4.0)).collect();
    let enc = scheme_id.encode(&row, 42);
    let cfg = PacketizeConfig {
        mtu: 1500,
        net: NetAddrs::between_hosts(1, 2),
        msg_id: 7,
        row_id: 3,
        epoch: 5,
    };
    let pr = packetize_row(&enc, &cfg);
    let mut frames: Vec<u8> = pr
        .packets
        .iter()
        .flat_map(|p| p.as_bytes().to_vec())
        .collect();
    frames.extend_from_slice(&pr.meta.build_frame(&cfg.net));
    fnv1a(&frames)
}

#[test]
fn packetize_row_frames_match_recorded_digests() {
    let computed: Vec<[u64; 4]> = SchemeId::ALL
        .into_iter()
        .map(|id| LENS.map(|n| frames_digest(id, n)))
        .collect();
    if computed != GOLDEN {
        let table: String = computed
            .iter()
            .map(|[a, b, c, d]| format!("    [{a:#018x}, {b:#018x}, {c:#018x}, {d:#018x}],\n"))
            .collect();
        panic!("frame digests differ from the recorded ones; computed:\n{table}");
    }
}
