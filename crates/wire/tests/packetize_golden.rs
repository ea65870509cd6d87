//! Frame golden for [`packetize_row`]: FNV-1a over every data frame plus the
//! metadata frame, for every scheme and the row lengths the wire layer
//! actually sees — 1 (degenerate), 64 (one packer word), 4095 (odd tail,
//! multi-packet) and 32768 (the paper's row size) — at MTU 1500.
//!
//! The constants were recorded at commit `bbe12a7`, where `packetize_row`
//! was still asserted byte-identical to the pooled and traced variants it
//! replaced, so a change to the bytes on the wire fails here.

use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_quant::{scheme_for, SchemeId};
use trimgrad_wire::packet::NetAddrs;
use trimgrad_wire::packetize::{packetize_row, PacketizeConfig};

const LENS: [usize; 4] = [1, 64, 4095, 32768];

/// `GOLDEN[scheme][len]`, schemes in [`SchemeId::ALL`] order, lengths in
/// [`LENS`] order.
const GOLDEN: [[u64; 4]; 5] = [
    [
        0x0caf_4438_91d4_17cd,
        0xe0ec_1140_6ab7_84ac,
        0xda93_5fef_a10e_ace0,
        0x35f4_6d8f_efbd_447f,
    ],
    [
        0xffa0_a46e_26c6_30fd,
        0x68cc_d7f1_3e80_fb79,
        0xccb2_3536_dd37_551b,
        0x8a81_5ee9_36ea_bbf4,
    ],
    [
        0xa98e_7a46_2056_94f5,
        0x1896_1e8b_6f7b_8699,
        0x82bb_3522_d20e_bb67,
        0xb7d5_b791_08b1_8d66,
    ],
    [
        0x1737_5bb8_94b8_f145,
        0x9c92_4b86_2758_36c2,
        0xf4eb_0151_6f29_b8ca,
        0xf234_ae02_8a0a_8adb,
    ],
    [
        0x3ce1_8890_a241_34a9,
        0x758c_a3e7_db1a_af0a,
        0x4296_7186_ebd7_f60f,
        0x245d_acea_8b4c_822f,
    ],
];

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn frames_digest(scheme_id: SchemeId, n: usize) -> u64 {
    let mut rng = Xoshiro256StarStar::new(0xF4A3 ^ n as u64);
    let row: Vec<f32> = (0..n).map(|_| rng.next_f32_range(-4.0, 4.0)).collect();
    let enc = scheme_for(scheme_id).encode(&row, 42);
    let cfg = PacketizeConfig {
        mtu: 1500,
        net: NetAddrs::between_hosts(1, 2),
        msg_id: 7,
        row_id: 3,
        epoch: 5,
    };
    let pr = packetize_row(&enc, &cfg);
    let mut h = 0xcbf2_9ce4_8422_2325;
    for pkt in &pr.packets {
        fnv1a(&mut h, pkt.as_bytes());
    }
    fnv1a(&mut h, &pr.meta.build_frame(&cfg.net));
    h
}

#[test]
fn packetize_row_frames_match_recorded_digests() {
    for (scheme_id, golden) in SchemeId::ALL.into_iter().zip(GOLDEN) {
        for (n, want) in LENS.into_iter().zip(golden) {
            let got = frames_digest(scheme_id, n);
            assert_eq!(got, want, "{scheme_id} n={n}: got {got:#018x}");
        }
    }
}
