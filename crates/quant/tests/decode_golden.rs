//! Bit-identity golden tests for the receive side: every scheme's `decode`
//! must produce, bit for bit, what the per-coordinate reference decoder in
//! this file produces — the loops the five scheme files used before decode
//! went run-structured and word-at-a-time, written against nothing but the
//! public per-coordinate accessors (`PartialRow::avail_depth`,
//! `PartView::{has, get}`). On top of that differential check, one FNV-1a
//! digest per (scheme, length) — recorded from the per-coordinate decoders
//! before they were replaced — pins the outputs across commits, so the
//! reference cannot drift together with the library.
//!
//! Covered: all five schemes × lengths {1, 63, 64, 65, 4095, 32768} × views
//! {full, heads only, (rht-ml) sign+exponent, packet-granular mixed depths
//! including lost packets, per-coordinate random depths, single-coordinate
//! runs straddling every 64-bit mask word boundary}.

use std::borrow::Cow;
use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_hadamard::rht::RandomizedHadamard;
use trimgrad_quant::bitpack::BitMask;
use trimgrad_quant::scheme::{DecodeError, EncodedRow, PartView, PartialRow, RowMeta};
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

/// The structural checks of `PartialRow::validate`, coordinate by coordinate.
fn reference_prefix_check(row: &PartialRow<'_>) -> Result<(), DecodeError> {
    for i in 0..row.n {
        let mut seen_gap = false;
        for (k, view) in row.parts.iter().enumerate() {
            if view.has(i) {
                if seen_gap {
                    return Err(DecodeError::PrefixViolation { coord: i, part: k });
                }
            } else {
                seen_gap = true;
            }
        }
    }
    Ok(())
}

/// The per-coordinate decoders, one `match` arm per scheme.
fn reference_decode(
    id: SchemeId,
    row: &PartialRow<'_>,
    meta: &RowMeta,
    seed: u64,
) -> Result<Vec<f32>, DecodeError> {
    reference_prefix_check(row)?;
    let scale = meta.scale;
    let signed = |i: usize| {
        if row.parts[0].get(i, 1) == 1 {
            -scale
        } else {
            scale
        }
    };
    let sign_bit = |i: usize| (row.parts[0].get(i, 1) as u32) << 31;
    let mut dither = Xoshiro256StarStar::new(seed);
    let coords: Vec<f32> = (0..row.n)
        .map(|i| {
            // SD draws unconditionally to stay aligned with the encoder.
            let eps = match id {
                SchemeId::SubtractiveDither => dither.next_f32_range(-scale, scale),
                _ => 0.0,
            };
            match (id, row.avail_depth(i)) {
                (_, 0) => 0.0,
                (SchemeId::SubtractiveDither, 1) => signed(i) - eps,
                (_, 1) => signed(i),
                (SchemeId::SignMagnitude | SchemeId::RhtOneBit, _) => {
                    f32::from_bits(sign_bit(i) | row.parts[1].get(i, 31) as u32)
                }
                (SchemeId::Stochastic | SchemeId::SubtractiveDither, _) => {
                    f32::from_bits(row.parts[1].get(i, 32) as u32)
                }
                (SchemeId::MultiLevelRht, 2) => {
                    let exp = row.parts[1].get(i, 8) as u32;
                    if exp == 0 {
                        f32::from_bits(sign_bit(i))
                    } else {
                        f32::from_bits(sign_bit(i) | (exp << 23) | (1 << 22))
                    }
                }
                (SchemeId::MultiLevelRht, _) => {
                    let exp = row.parts[1].get(i, 8) as u32;
                    let mant = row.parts[2].get(i, 23) as u32;
                    f32::from_bits(sign_bit(i) | (exp << 23) | mant)
                }
            }
        })
        .collect();
    Ok(match id {
        SchemeId::RhtOneBit | SchemeId::MultiLevelRht if row.n > 0 => {
            RandomizedHadamard::new(seed).inverse_padded(&coords, meta.original_len)
        }
        _ => coords,
    })
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

/// A view of `enc` whose part `k` has coordinate `i` iff `has(k, i)`, built
/// the way `view_with_depths` built its masks before it filled them by runs:
/// one single-bit `set` per coordinate per part.
fn view_from<'a>(enc: &'a EncodedRow, has: impl Fn(usize, usize) -> bool) -> PartialRow<'a> {
    let parts = enc
        .parts
        .iter()
        .enumerate()
        .map(|(k, buf)| {
            let mut present = BitMask::absent(enc.n);
            for i in 0..enc.n {
                present.set(i, has(k, i));
            }
            match present.count_present() {
                0 => PartView::Absent,
                c if c == enc.n => PartView::Full(buf),
                _ => PartView::Masked {
                    buf,
                    present: Cow::Owned(present),
                },
            }
        })
        .collect();
    PartialRow { n: enc.n, parts }
}

fn shape(view: &PartView<'_>) -> &'static str {
    match view {
        PartView::Full(_) => "full",
        PartView::Masked { .. } => "masked",
        PartView::Absent => "absent",
    }
}

fn assert_same_view(got: &PartialRow<'_>, want: &PartialRow<'_>, ctx: &str) {
    assert_eq!(got.n, want.n, "{ctx}: n");
    assert_eq!(got.parts.len(), want.parts.len(), "{ctx}: part count");
    for (k, (g, w)) in got.parts.iter().zip(&want.parts).enumerate() {
        assert_eq!(shape(g), shape(w), "{ctx}: part {k} shape");
        if let (PartView::Masked { present: g, .. }, PartView::Masked { present: w, .. }) = (g, w) {
            assert_eq!(g, w, "{ctx}: part {k} mask");
        }
    }
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
    let mut check = |name: &str, view: &PartialRow<'_>| {
        let ctx = format!("{id} n={n} view={name}");
        let got = id
            .decode(view, &enc.meta, seed)
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let want = reference_decode(id, view, &enc.meta, seed).expect("reference decodes");
        assert_eq!(got.len(), n, "{ctx}: length");
        assert_bits_equal(&got, &want, &ctx);
        fnv1a(&mut digest, &got);
    };
    check("full", &enc.full_view());
    for depth in 1..k {
        check(&format!("trimmed({depth})"), &enc.trimmed_view(depth));
    }
    for (name, depths) in depth_patterns(enc.n, k, seed ^ 0x5EED) {
        let view = enc.view_with_depths(&depths);
        assert_same_view(
            &view,
            &view_from(&enc, |k, i| depths[i] > k),
            &format!("{id} n={n} {name}"),
        );
        for (i, &d) in depths.iter().enumerate() {
            assert_eq!(view.avail_depth(i), d, "{id} n={n} {name}: depth of {i}");
        }
        check(name, &view);
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

#[test]
fn prefix_violations_report_the_reference_coordinate_and_part() {
    for id in SchemeId::ALL {
        let k = id.part_bits().len();
        let enc = id.encode(&row(200, 9), 9);
        let n = enc.n;
        // One offender at a time, at and around the word boundaries.
        for bad in [0, 1, 62, 63, 64, 65, 127, 128, n - 1] {
            for gap in 0..k - 1 {
                // Part `gap` is missing at `bad`; everything else is there.
                let view = view_from(&enc, |part, i| !(i == bad && part == gap));
                let want = reference_prefix_check(&view);
                assert_eq!(
                    want,
                    Err(DecodeError::PrefixViolation {
                        coord: bad,
                        part: gap + 1
                    })
                );
                assert_eq!(view.validate(id.part_bits()), want, "{id} bad={bad}");
                assert_eq!(
                    id.decode(&view, &enc.meta, 9).map(|_| ()),
                    want,
                    "{id} bad={bad}"
                );
            }
        }
        // Several offenders in one word and in later words: the lowest
        // coordinate wins, and on it the lowest offending part.
        let view = view_from(&enc, |part, i| match i {
            70 | 75 | 140 => part == k - 1,
            72 => part >= 1,
            _ => true,
        });
        let want = reference_prefix_check(&view);
        assert_eq!(
            want,
            Err(DecodeError::PrefixViolation {
                coord: 70,
                part: k - 1
            })
        );
        assert_eq!(view.validate(id.part_bits()), want, "{id}");
        // Only a gap *followed by* a present part offends: a coordinate that
        // lost a suffix of its parts (or all of them) is ordinary trimming.
        let view = view_from(&enc, |part, i| part < i % (k + 1));
        assert_eq!(reference_prefix_check(&view), Ok(()));
        assert_eq!(view.validate(id.part_bits()), Ok(()), "{id}");
    }
}

#[test]
fn structural_errors_are_unchanged() {
    let enc = SchemeId::MultiLevelRht.encode(&row(100, 1), 1);
    let two_parts = PartialRow {
        n: enc.n,
        parts: vec![PartView::Full(&enc.parts[0]), PartView::Absent],
    };
    assert_eq!(
        SchemeId::MultiLevelRht.decode(&two_parts, &enc.meta, 1),
        Err(DecodeError::PartCountMismatch {
            expected: 3,
            got: 2
        })
    );
    let short_mask = PartialRow {
        n: enc.n,
        parts: vec![
            PartView::Masked {
                buf: &enc.parts[0],
                present: Cow::Owned(BitMask::present(enc.n - 1)),
            },
            PartView::Absent,
            PartView::Absent,
        ],
    };
    assert_eq!(
        SchemeId::MultiLevelRht.decode(&short_mask, &enc.meta, 1),
        Err(DecodeError::LengthMismatch {
            part: 0,
            expected: enc.n,
            got: enc.n - 1
        })
    );
    // A buffer too short for `n` fields: claim twice the coordinates.
    let long = PartialRow {
        n: enc.n * 2,
        parts: enc.parts.iter().map(PartView::Full).collect(),
    };
    assert_eq!(
        SchemeId::MultiLevelRht.decode(&long, &enc.meta, 1),
        Err(DecodeError::LengthMismatch {
            part: 0,
            expected: enc.n * 2,
            got: enc.n
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
