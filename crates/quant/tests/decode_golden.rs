//! Bit-identity golden tests for the receive side: every scheme's `decode`
//! must produce, bit for bit, what the per-coordinate reference decoder in
//! this file produces — the loops the five scheme files used before decode
//! went run-structured and word-at-a-time, written against nothing but the
//! row's public planes, read field by field with `BitBuf::get_bits` under
//! each view's per-coordinate depths (`get`). On top of that differential check, one FNV-1a
//! digest per (scheme, length) — recorded from the per-coordinate decoders
//! before they were replaced — pins the outputs across commits, so the
//! reference cannot drift together with the library.
//!
//! Covered: all five schemes × lengths {1, 63, 64, 65, 4095, 32768} × views
//! {full, heads only, (rht-ml) sign+exponent, packet-granular mixed depths
//! including lost packets, per-coordinate random depths, single-coordinate
//! runs straddling every 64-coordinate boundary}. Each view's runs, read
//! through `RunSource::runs`, must give every coordinate its depth.

use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_hadamard::rht::RandomizedHadamard;
use trimgrad_quant::scheme::{DecodeError, EncodedRow, PartialRow, RowMeta, RunSource};
use trimgrad_quant::SchemeId;

const LENGTHS: [usize; 6] = [1, 63, 64, 65, 4095, 32768];

/// `(scheme, row length, FNV-1a over every view's decoded bits)`, recorded
/// at the last commit whose decoders were per-coordinate loops; the two RHT
/// schemes' rows re-recorded for wire version 2, whose Rademacher diagonal
/// takes 64 signs per draw (the v1 values are listed beside them in
/// EXPERIMENTS.md).
const GOLDEN: [(SchemeId, usize, u64); 30] = [
    (SchemeId::SignMagnitude, 1, 0xEE85_FAFD_354B_0935),
    (SchemeId::SignMagnitude, 63, 0x1182_13EB_FDFF_9622),
    (SchemeId::SignMagnitude, 64, 0x8B4C_9C35_99CE_D239),
    (SchemeId::SignMagnitude, 65, 0x1F14_18BB_AFC8_39B3),
    (SchemeId::SignMagnitude, 4095, 0xD563_77DA_6142_9630),
    (SchemeId::SignMagnitude, 32768, 0x7FDB_DFD0_C534_CA00),
    (SchemeId::Stochastic, 1, 0xEE85_FAFD_354B_0935),
    (SchemeId::Stochastic, 63, 0xC107_7B89_F1F0_58AA),
    (SchemeId::Stochastic, 64, 0x8F47_DA68_0FFD_C9C3),
    (SchemeId::Stochastic, 65, 0xB9B2_BA32_3B69_AA6C),
    (SchemeId::Stochastic, 4095, 0x261C_6D81_A40F_0965),
    (SchemeId::Stochastic, 32768, 0xF491_EE35_0A3B_5245),
    (SchemeId::SubtractiveDither, 1, 0xEE85_FAFD_354B_0935),
    (SchemeId::SubtractiveDither, 63, 0xB796_677E_8D9F_6BE7),
    (SchemeId::SubtractiveDither, 64, 0xEC5A_BA3F_C358_4D39),
    (SchemeId::SubtractiveDither, 65, 0xDCFF_8A9B_1052_4452),
    (SchemeId::SubtractiveDither, 4095, 0xBF2D_39DC_7392_6B31),
    (SchemeId::SubtractiveDither, 32768, 0x1D46_33E9_825A_EA6B),
    (SchemeId::RhtOneBit, 1, 0xEE85_FAFD_354B_0935),
    (SchemeId::RhtOneBit, 63, 0x6927_3307_5165_572C),
    (SchemeId::RhtOneBit, 64, 0xAA3E_88F3_1C62_D1E3),
    (SchemeId::RhtOneBit, 65, 0x8A8D_AD12_E331_6C57),
    (SchemeId::RhtOneBit, 4095, 0x2A1D_AF4B_80B6_C053),
    (SchemeId::RhtOneBit, 32768, 0x2A28_E22D_6492_A70F),
    (SchemeId::MultiLevelRht, 1, 0x81D2_3FD7_003C_2305),
    (SchemeId::MultiLevelRht, 63, 0x0794_2E72_FE54_3390),
    (SchemeId::MultiLevelRht, 64, 0xBD75_A7FF_627E_F06A),
    (SchemeId::MultiLevelRht, 65, 0xA6DC_A737_1352_1663),
    (SchemeId::MultiLevelRht, 4095, 0x51EC_FFB3_5122_0F1D),
    (SchemeId::MultiLevelRht, 32768, 0x1140_AC72_33D3_A5AF),
];

fn row(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..n)
        .map(|i| match i % 7 {
            // Exact zeros of both signs, so every IEEE field pattern shows up.
            0 => 0.0,
            1 => -0.0,
            _ => rng.next_f32_range(-1.0, 1.0) * 10f32.powi((i % 9) as i32 - 4),
        })
        .collect()
}

fn fnv1a(acc: &mut u64, values: &[f32]) {
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            *acc ^= u64::from(b);
            *acc = acc.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Coordinate `i`'s field of part `k`, read from the plane; coordinate `i`
/// must have that part (`depths[i] > k`).
fn get(enc: &EncodedRow, depths: &[usize], k: usize, i: usize) -> u64 {
    assert!(
        depths[i] > k,
        "coordinate {i} read from part {k}, which it lacks"
    );
    let width = enc.scheme.part_bits()[k];
    enc.parts[k].get_bits(i * width as usize, width)
}

/// The per-coordinate decoders, one `match` arm per scheme, for the row
/// whose coordinate `i` has its first `depths[i]` parts.
fn reference_decode(
    id: SchemeId,
    enc: &EncodedRow,
    depths: &[usize],
    meta: &RowMeta,
    seed: u64,
) -> Vec<f32> {
    let get = |k: usize, i: usize| get(enc, depths, k, i);
    let scale = meta.scale;
    let signed = |i: usize| if get(0, i) == 1 { -scale } else { scale };
    let sign_bit = |i: usize| (get(0, i) as u32) << 31;
    let mut dither = Xoshiro256StarStar::new(seed);
    let mut coords: Vec<f32> = (0..enc.n)
        .map(|i| {
            // SD draws unconditionally to stay aligned with the encoder.
            let eps = match id {
                SchemeId::SubtractiveDither => dither.next_f32_range(-scale, scale),
                _ => 0.0,
            };
            match (id, depths[i]) {
                (_, 0) => 0.0,
                (SchemeId::SubtractiveDither, 1) => signed(i) - eps,
                (_, 1) => signed(i),
                (SchemeId::SignMagnitude | SchemeId::RhtOneBit, _) => {
                    f32::from_bits(sign_bit(i) | get(1, i) as u32)
                }
                (SchemeId::Stochastic | SchemeId::SubtractiveDither, _) => {
                    f32::from_bits(get(1, i) as u32)
                }
                (SchemeId::MultiLevelRht, 2) => {
                    let exp = get(1, i) as u32;
                    if exp == 0 {
                        f32::from_bits(sign_bit(i))
                    } else {
                        f32::from_bits(sign_bit(i) | (exp << 23) | (1 << 22))
                    }
                }
                (SchemeId::MultiLevelRht, _) => {
                    let exp = get(1, i) as u32;
                    let mant = get(2, i) as u32;
                    f32::from_bits(sign_bit(i) | (exp << 23) | mant)
                }
            }
        })
        .collect();
    if matches!(id, SchemeId::RhtOneBit | SchemeId::MultiLevelRht) && enc.n > 0 {
        RandomizedHadamard::new(seed).inverse_in_place(&mut coords);
        coords.truncate(meta.original_len);
    }
    coords
}

/// Per-coordinate depths of every non-uniform view, named for diagnostics.
fn depth_patterns(n: usize, k: usize, seed: u64) -> Vec<(&'static str, Vec<usize>)> {
    let mut rng = Xoshiro256StarStar::new(seed);
    // A packet's worth of coordinates shares one fate; 360 is what an
    // MTU-1500 frame carries of a 32-bit scheme. Short rows get short
    // packets so they still mix depths.
    let per_packet = if n >= 720 { 360 } else { (n / 5).max(1) };
    let mut packets = Vec::with_capacity(n);
    for (c, start) in (0..n).step_by(per_packet).enumerate() {
        // The first three packets cover depths 0, 1 and k; the rest draw.
        let depth = match c {
            0 => k,
            1 => 0,
            2 => 1,
            _ => (rng.next_u64() % (k as u64 + 1)) as usize,
        };
        packets.extend(std::iter::repeat_n(depth, per_packet.min(n - start)));
    }
    let scattered = (0..n)
        .map(|_| (rng.next_u64() % (k as u64 + 1)) as usize)
        .collect();
    // Single-coordinate runs on both sides of every mask-word boundary.
    let straddle = (0..n)
        .map(|i| match i % 64 {
            63 => 0,
            0 => 1,
            1 => k.saturating_sub(1),
            _ => k,
        })
        .collect();
    vec![
        ("packets", packets),
        ("scattered", scattered),
        ("straddle", straddle),
    ]
}

/// The view's depths, coordinate by coordinate, from the runs the decoder
/// of `id` reads.
fn view_depths(view: &PartialRow<'_>, id: SchemeId) -> Vec<usize> {
    let mut depths = Vec::new();
    view.runs(id.part_bits(), |run| {
        assert_eq!(run.coords.start, depths.len(), "runs tile the row");
        depths.extend(std::iter::repeat_n(run.depth, run.coords.len()));
    })
    .expect("the view's own geometry");
    depths
}

fn assert_bits_equal(got: &[f32], want: &[f32], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{ctx}: coordinate {i}: {g} vs {w}"
        );
    }
}

/// Decodes every view of one (scheme, length) case through the library and
/// the reference, asserts they agree bit for bit, and returns the digest.
fn digest_case(id: SchemeId, n: usize) -> u64 {
    let k = id.part_bits().len();
    let seed = 0xD1CE ^ ((n as u64) << 8) ^ u64::from(id.as_u8());
    let data = row(n, seed);
    let enc = id.encode(&data, seed);
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    let mut check = |name: &str, view: &PartialRow<'_>, depths: &[usize]| {
        let ctx = format!("{id} n={n} view={name}");
        assert!(view_depths(view, id) == depths, "{ctx}: depths");
        let got = id
            .decode(view, &enc.meta, seed)
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let want = reference_decode(id, &enc, depths, &enc.meta, seed);
        assert_eq!(got.len(), n, "{ctx}: length");
        assert_bits_equal(&got, &want, &ctx);
        fnv1a(&mut digest, &got);
    };
    check("full", &enc.full_view(), &vec![k; enc.n]);
    for depth in 1..k {
        let name = format!("trimmed({depth})");
        check(&name, &enc.trimmed_view(depth), &vec![depth; enc.n]);
    }
    for (name, depths) in depth_patterns(enc.n, k, seed ^ 0x5EED) {
        check(name, &enc.view_with_depths(&depths), &depths);
    }
    digest
}

#[test]
fn decode_matches_reference_and_recorded_digests() {
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
        panic!("decode digests differ from the recorded ones; computed:\n{table}");
    }
}

#[test]
fn empty_rows_decode_to_nothing() {
    for id in SchemeId::ALL {
        let enc = id.encode(&[], 3);
        for view in [
            enc.full_view(),
            enc.trimmed_view(1),
            enc.view_with_depths(&[]),
        ] {
            assert_eq!(id.decode(&view, &enc.meta, 3), Ok(Vec::new()), "{id}");
        }
    }
}

/// A view of another scheme's parts is refused before anything is decoded:
/// another part count, or another width, over the same encoded length.
#[test]
fn structural_errors_are_unchanged() {
    let data = row(100, 1);
    let enc = SchemeId::MultiLevelRht.encode(&data, 1);
    let two_parts = SchemeId::RhtOneBit.encode(&data, 1);
    assert_eq!(
        SchemeId::MultiLevelRht.decode(&two_parts.full_view(), &enc.meta, 1),
        Err(DecodeError::PartCountMismatch {
            expected: 3,
            got: 2
        })
    );
    // A 31-bit tail read as SQ's 32-bit one.
    let signmag = SchemeId::SignMagnitude.encode(&data, 1);
    assert_eq!(
        SchemeId::Stochastic.decode(&signmag.full_view(), &signmag.meta, 1),
        Err(DecodeError::LengthMismatch {
            part: 1,
            expected: 100 * 32,
            got: 100 * 31
        })
    );
    let bad_meta = RowMeta {
        original_len: 3,
        scale: 1.0,
    };
    assert_eq!(
        SchemeId::MultiLevelRht.decode(&enc.full_view(), &bad_meta, 1),
        Err(DecodeError::BadOriginalLen {
            n: enc.n,
            original_len: 3
        })
    );
}
