//! Property tests for the word-backed [`BitMask`] and for the run scan that
//! reads it ([`PartialRow::for_each_run`]), both against a `Vec<bool>` /
//! per-coordinate model: ranges that cross zero, one and two word
//! boundaries, lengths that are not a multiple of 64, and depth patterns
//! whose runs start and end anywhere.

use core::ops::Range;
use proptest::prelude::*;
use trimgrad_quant::bitpack::BitMask;
use trimgrad_quant::scheme::{PartView, PartialRow};
use trimgrad_quant::SchemeId;

fn assert_same(mask: &BitMask, model: &[bool], ctx: &str) {
    assert_eq!(mask.len(), model.len(), "{ctx}: len");
    assert_eq!(
        mask.count_present(),
        model.iter().filter(|&&b| b).count(),
        "{ctx}: count"
    );
    for (i, &b) in model.iter().enumerate() {
        assert_eq!(mask.get(i), b, "{ctx}: entry {i}");
    }
}

/// The mask the model describes, built one bit at a time.
fn mask_of(model: &[bool]) -> BitMask {
    let mut mask = BitMask::absent(model.len());
    for (i, &b) in model.iter().enumerate() {
        mask.set(i, b);
    }
    mask
}

#[test]
fn ranges_across_zero_one_and_two_word_boundaries() {
    for n in [0usize, 1, 63, 64, 65, 130, 200, 256] {
        let ranges = [
            (3, 9),
            (60, 64),
            (60, 70),
            (0, 64),
            (64, 128),
            (63, 65),
            (60, 140),
            (0, n),
            (n.saturating_sub(1), n),
            (5, 5),
            (9, 3),
        ];
        for &(start, end) in ranges.iter().filter(|&&(_, end)| end <= n) {
            for fill in [true, false] {
                // Over a background of the opposite value and over a striped one.
                for stripe in [1usize, 3] {
                    let mut model: Vec<bool> = (0..n).map(|i| (i % stripe == 0) != fill).collect();
                    let mut mask = mask_of(&model);
                    let before = model.clone();
                    if start < end {
                        model[start..end].fill(fill);
                    }
                    let changed = mask.set_range(start, end, fill);
                    let ctx = format!("n={n} [{start},{end}) fill={fill} stripe={stripe}");
                    assert_same(&mask, &model, &ctx);
                    let flipped = before.iter().zip(&model).filter(|(a, b)| a != b).count();
                    assert_eq!(changed, flipped, "{ctx}: changed");
                    // Structural equality sees no stray slack bits.
                    assert_eq!(mask, mask_of(&model), "{ctx}: equality");
                }
            }
        }
        assert_same(
            &BitMask::present(n),
            &vec![true; n],
            &format!("present({n})"),
        );
        assert_eq!(BitMask::present(n), mask_of(&vec![true; n]));
        assert_same(
            &BitMask::absent(n),
            &vec![false; n],
            &format!("absent({n})"),
        );
    }
}

#[test]
#[should_panic(expected = "out of range")]
fn set_range_rejects_a_range_past_the_end() {
    BitMask::absent(70).set_range(60, 71, true);
}

#[test]
#[should_panic(expected = "out of range")]
fn get_rejects_an_entry_past_the_end() {
    let _ = BitMask::present(70).get(70);
}

/// The runs of a depth vector, computed coordinate by coordinate.
fn model_runs(depths: &[usize]) -> Vec<(Range<usize>, usize)> {
    let mut runs: Vec<(Range<usize>, usize)> = Vec::new();
    for (i, &d) in depths.iter().enumerate() {
        match runs.last_mut() {
            Some((range, depth)) if *depth == d => range.end = i + 1,
            _ => runs.push((i..i + 1, d)),
        }
    }
    runs
}

/// Parts available for coordinate `i`, counted from part 0: the
/// per-coordinate model of a run's depth.
fn avail_depth(view: &PartialRow<'_>, i: usize) -> usize {
    view.parts
        .iter()
        .take_while(|p| match p {
            PartView::Full(_) => true,
            PartView::Masked { present, .. } => present.get(i),
            PartView::Absent => false,
        })
        .count()
}

fn scanned_runs(view: &PartialRow<'_>, part_bits: &[u32]) -> Vec<(Range<usize>, usize)> {
    let mut runs = Vec::new();
    view.for_each_run(part_bits, |range, depth| runs.push((range, depth)))
        .expect("prefix-closed view");
    runs
}

proptest! {
    /// Any sequence of range fills and clears leaves the mask equal to the
    /// model, and every call reports exactly the entries it flipped.
    #[test]
    fn set_range_and_count_present_match_a_bool_model(
        n in 0usize..300,
        ops in proptest::collection::vec((0.0f64..=1.0, 0.0f64..=1.0, any::<bool>()), 1..24)
    ) {
        let mut mask = BitMask::absent(n);
        let mut model = vec![false; n];
        for &(start_frac, len_frac, fill) in &ops {
            let start = ((n as f64) * start_frac) as usize;
            let end = start + (((n - start) as f64) * len_frac) as usize;
            let before = model.iter().filter(|&&b| b).count();
            model[start..end].fill(fill);
            let after = model.iter().filter(|&&b| b).count();
            let changed = mask.set_range(start, end, fill);
            prop_assert_eq!(changed, after.abs_diff(before));
            prop_assert_eq!(mask.count_present(), after);
        }
        assert_same(&mask, &model, "after all ops");
        prop_assert_eq!(mask, mask_of(&model));
    }

    /// The run scan tiles `0..n` with exactly the maximal constant-depth
    /// ranges of the per-coordinate depths, for two- and three-part schemes,
    /// whatever mix of Full / Masked / Absent parts the view ends up with.
    #[test]
    fn run_scan_matches_per_coordinate_depths(
        three_parts in any::<bool>(),
        len in 1usize..700,
        run_lens in proptest::collection::vec(1usize..150, 1..40),
        run_depths in proptest::collection::vec(0usize..=3, 1..40)
    ) {
        let id = if three_parts { SchemeId::MultiLevelRht } else { SchemeId::SignMagnitude };
        let k = id.part_bits().len();
        let data: Vec<f32> = (0..len).map(|i| i as f32 - 7.5).collect();
        let enc = id.encode(&data, 5);
        let mut depths = Vec::with_capacity(enc.n);
        for (r, &run_len) in run_lens.iter().cycle().enumerate() {
            if depths.len() >= enc.n {
                break;
            }
            let depth = run_depths[r % run_depths.len()].min(k);
            depths.extend(std::iter::repeat_n(depth, run_len.min(enc.n - depths.len())));
        }
        let view = enc.view_with_depths(&depths);
        let want = model_runs(&depths);
        prop_assert_eq!(scanned_runs(&view, id.part_bits()), want);
        for (i, &d) in depths.iter().enumerate() {
            prop_assert_eq!(avail_depth(&view, i), d, "coordinate {}", i);
        }
    }
}

#[test]
fn run_scan_of_uniform_and_empty_views() {
    let enc = SchemeId::SignMagnitude.encode(&[1.0; 130], 0);
    let bits = SchemeId::SignMagnitude.part_bits();
    assert_eq!(scanned_runs(&enc.full_view(), bits), [(0..130, 2)]);
    assert_eq!(scanned_runs(&enc.trimmed_view(1), bits), [(0..130, 1)]);
    assert_eq!(
        scanned_runs(&enc.view_with_depths(&[0; 130]), bits),
        [(0..130, 0)]
    );
    let empty = SchemeId::SignMagnitude.encode(&[], 0);
    assert_eq!(scanned_runs(&empty.full_view(), bits), []);
}
