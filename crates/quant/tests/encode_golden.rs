//! Bit-identity golden tests for the send side: every scheme's `encode` must
//! produce, byte for byte, what the per-coordinate reference encoder in this
//! file produces — the scalar loops the five scheme files carried beside
//! their fused kernels until the oracle left the library, written against
//! nothing but public items (`BitBuf::push_bits`, `stats::{std_dev,
//! drive_scale, clip, CLIP_SIGMAS}`, `RandomizedHadamard::forward_padded`,
//! the shared PRNG). On top of that differential check, one FNV-1a digest per (scheme,
//! length) — recorded from those in-library loops at the last commit that
//! had them — pins the outputs across commits, so the reference cannot
//! drift together with the library.
//!
//! Covered: all five schemes × the row lengths the wire layer actually uses
//! — 1 (degenerate), 64 (one packer word), 4095 (pads to 4096, odd tail),
//! 32768 (the paper's row size) — × seeds {0, 42, u64::MAX}, plus empty rows
//! and denormal / extreme-but-finite values.

use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_hadamard::rht::RandomizedHadamard;
use trimgrad_quant::bitpack::BitBuf;
use trimgrad_quant::scheme::{EncodedRow, RowMeta};
use trimgrad_quant::stats::{clip, drive_scale, std_dev, CLIP_SIGMAS};
use trimgrad_quant::SchemeId;

const LENGTHS: [usize; 4] = [1, 64, 4095, 32768];
const SEEDS: [u64; 3] = [0, 42, u64::MAX];

/// `(scheme, row length, FNV-1a over the encoding under every seed)`,
/// recorded at the last commit that had the in-library scalar encoders; the
/// two RHT schemes' rows re-recorded for wire version 2, whose Rademacher
/// diagonal takes 64 signs per draw (the v1 values are listed beside them
/// in EXPERIMENTS.md).
const GOLDEN: [(SchemeId, usize, u64); 20] = [
    (SchemeId::SignMagnitude, 1, 0x6ACF_05A3_F096_66E7),
    (SchemeId::SignMagnitude, 64, 0x6C44_2A4A_0553_C4C1),
    (SchemeId::SignMagnitude, 4095, 0xFF58_A671_F515_0C71),
    (SchemeId::SignMagnitude, 32768, 0xDA9C_7FC3_62BC_78D4),
    (SchemeId::Stochastic, 1, 0xB15D_A68C_4DD3_BBFE),
    (SchemeId::Stochastic, 64, 0x480D_FAD0_B83C_D58E),
    (SchemeId::Stochastic, 4095, 0x0CAB_C813_3FD6_3538),
    (SchemeId::Stochastic, 32768, 0x841F_C412_9057_DFE2),
    (SchemeId::SubtractiveDither, 1, 0xE0E5_08FD_BC48_96F2),
    (SchemeId::SubtractiveDither, 64, 0x84F6_E942_C3FC_24CA),
    (SchemeId::SubtractiveDither, 4095, 0x03A0_E956_A517_0D92),
    (SchemeId::SubtractiveDither, 32768, 0x73E3_978D_9F47_05F0),
    (SchemeId::RhtOneBit, 1, 0x6ACF_05A3_F096_66E7),
    (SchemeId::RhtOneBit, 64, 0xCA00_578F_FEB0_6084),
    (SchemeId::RhtOneBit, 4095, 0xAEC4_CDD5_12B7_1D4E),
    (SchemeId::RhtOneBit, 32768, 0xBA40_2345_B5AD_CDD9),
    (SchemeId::MultiLevelRht, 1, 0xE747_1818_2E9F_C9C1),
    (SchemeId::MultiLevelRht, 64, 0xE67E_4641_2C5B_DA10),
    (SchemeId::MultiLevelRht, 4095, 0x413C_0F2C_00A6_2636),
    (SchemeId::MultiLevelRht, 32768, 0xFBEC_E0D0_E6A2_2FED),
];

fn row(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..n)
        .map(|i| {
            // Mix magnitudes and exact zeros so every IEEE field pattern
            // (sign, exponent spread, zero mantissa) appears.
            match i % 7 {
                0 => 0.0,
                1 => -0.0,
                _ => rng.next_f32_range(-1.0, 1.0) * 10f32.powi((i % 9) as i32 - 4),
            }
        })
        .collect()
}

/// The per-coordinate encoders, one `match` arm per scheme: every field is
/// pushed on its own, coordinate by coordinate.
fn reference_encode(id: SchemeId, data: &[f32], seed: u64) -> EncodedRow {
    // The RHT schemes quantize the padded rotation, the rest the row itself.
    let rotated;
    let (coords, scale) = match id {
        SchemeId::SignMagnitude => (data, std_dev(data)),
        SchemeId::Stochastic | SchemeId::SubtractiveDither => (data, CLIP_SIGMAS * std_dev(data)),
        SchemeId::RhtOneBit | SchemeId::MultiLevelRht => {
            rotated = RandomizedHadamard::new(seed).forward_padded(data);
            (rotated.as_slice(), drive_scale(&rotated))
        }
    };
    let widths = id.part_bits();
    let mut parts = vec![BitBuf::new(); widths.len()];
    let mut rng = Xoshiro256StarStar::new(seed);
    for &v in coords {
        let bits = u64::from(v.to_bits());
        let fields = match id {
            SchemeId::SignMagnitude | SchemeId::RhtOneBit => [bits >> 31, bits & 0x7FFF_FFFF, 0],
            SchemeId::Stochastic => {
                // p₊ = (L + clip(v)) / 2L; head bit 1 encodes −L.
                let p_plus = if scale > 0.0 {
                    (scale + clip(v, scale)) / (2.0 * scale)
                } else {
                    0.5
                };
                let plus = rng.next_f32() < p_plus;
                [u64::from(!plus), bits, 0]
            }
            SchemeId::SubtractiveDither => {
                let eps = rng.next_f32_range(-scale, scale);
                [u64::from(v + eps < 0.0), bits, 0]
            }
            SchemeId::MultiLevelRht => [bits >> 31, (bits >> 23) & 0xFF, bits & 0x7F_FFFF],
        };
        for ((part, &width), field) in parts.iter_mut().zip(widths).zip(fields) {
            part.push_bits(field, width);
        }
    }
    EncodedRow {
        scheme: id,
        n: coords.len(),
        parts,
        meta: RowMeta {
            original_len: data.len(),
            scale,
        },
    }
}

fn assert_rows_identical(fast: &EncodedRow, reference: &EncodedRow, ctx: &str) {
    assert_eq!(fast.scheme, reference.scheme, "{ctx}: scheme");
    assert_eq!(fast.n, reference.n, "{ctx}: n");
    assert_eq!(
        fast.meta.original_len, reference.meta.original_len,
        "{ctx}: original_len"
    );
    assert_eq!(
        fast.meta.scale.to_bits(),
        reference.meta.scale.to_bits(),
        "{ctx}: scale bits"
    );
    assert_eq!(fast.parts.len(), reference.parts.len(), "{ctx}: part count");
    for (k, (f, r)) in fast.parts.iter().zip(&reference.parts).enumerate() {
        assert_eq!(f.len(), r.len(), "{ctx}: part {k} bit length");
        assert_eq!(f.as_bytes(), r.as_bytes(), "{ctx}: part {k} bytes");
    }
}

fn fnv1a(acc: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *acc ^= u64::from(b);
        *acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Encodes one (scheme, length) case under every seed through the library
/// and the reference, asserts they agree byte for byte, and returns the
/// digest of everything a receiver could observe.
fn digest_case(id: SchemeId, n: usize) -> u64 {
    let data = row(n, 0xBEEF ^ n as u64);
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    for seed in SEEDS {
        let fast = id.encode(&data, seed);
        let reference = reference_encode(id, &data, seed);
        assert_rows_identical(&fast, &reference, &format!("{id} n={n} seed={seed}"));
        fnv1a(&mut digest, &(fast.n as u64).to_le_bytes());
        fnv1a(&mut digest, &(fast.meta.original_len as u64).to_le_bytes());
        fnv1a(&mut digest, &fast.meta.scale.to_bits().to_le_bytes());
        for part in &fast.parts {
            fnv1a(&mut digest, &(part.len() as u64).to_le_bytes());
            fnv1a(&mut digest, part.as_bytes());
        }
    }
    digest
}

#[test]
fn encode_matches_reference_and_recorded_digests() {
    let mut computed = Vec::new();
    for id in SchemeId::ALL {
        for n in LENGTHS {
            computed.push((id, n, digest_case(id, n)));
        }
    }
    if computed != GOLDEN {
        let table: String = computed
            .iter()
            .map(|(id, n, d)| format!("    (SchemeId::{id:?}, {n}, {d:#018X}),\n"))
            .collect();
        panic!("encode digests differ from the recorded ones; computed:\n{table}");
    }
}

#[test]
fn encode_matches_reference_on_empty_rows() {
    for id in SchemeId::ALL {
        let fast = id.encode(&[], 7);
        assert_rows_identical(&fast, &reference_encode(id, &[], 7), &format!("{id} empty"));
    }
}

#[test]
fn encode_matches_reference_on_adversarial_values() {
    // Denormal and extreme-but-finite patterns must pack identically — the
    // kernels only move bits. (Non-finite inputs are outside the scheme
    // contract: the stochastic schemes derive probability ranges from the
    // data, and NaN ranges panic identically on both paths.)
    let data = vec![
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        1e-42,
        -1e-42,
        1e18,
        -1e18,
        0.0,
        -0.0,
        1.0,
        -1.0,
    ];
    for id in SchemeId::ALL {
        let fast = id.encode(&data, 3);
        assert_rows_identical(
            &fast,
            &reference_encode(id, &data, 3),
            &format!("{id} adversarial"),
        );
    }
}
