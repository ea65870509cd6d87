//! Property tests for the plane view's depth runs: whatever depths a view
//! is built from, `RunSource::runs` yields exactly the maximal runs of
//! constant depth that a per-coordinate model finds, tiling `0..n` —
//! lengths that are not a multiple of 64, and depth patterns whose runs
//! start and end anywhere.

use core::ops::Range;
use proptest::prelude::*;
use trimgrad_quant::scheme::{PartialRow, RunSource};
use trimgrad_quant::SchemeId;

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

/// The runs the decoder reads from `view`, with `part_bits` its geometry.
fn scanned_runs(view: &PartialRow<'_>, part_bits: &[u32]) -> Vec<(Range<usize>, usize)> {
    let mut runs = Vec::new();
    view.runs(part_bits, |run| runs.push((run.coords, run.depth)))
        .expect("the view's own geometry");
    runs
}

proptest! {
    /// The runs tile `0..n` with exactly the maximal constant-depth ranges
    /// of the per-coordinate depths, for two- and three-part schemes.
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
        prop_assert_eq!(scanned_runs(&view, id.part_bits()), model_runs(&depths));
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
    assert_eq!(scanned_runs(&empty.view_with_depths(&[]), bits), []);
}
