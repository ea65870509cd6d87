//! Trimmable payload geometry: heads before tails, sections byte-aligned.
//!
//! A data packet carrying `c` coordinates of a scheme with part widths
//! `[w₀, …, w_{k−1}]` lays its payload out as `k` *sections*; section `j`
//! holds the `w_j`-bit fields of all `c` coordinates, bit-packed and padded
//! to a whole byte:
//!
//! ```text
//! ┌──────────────┬──────────────┬────────────────┐
//! │ section 0    │ section 1    │ …  section k−1 │
//! │ ⌈c·w₀/8⌉ B   │ ⌈c·w₁/8⌉ B   │                │
//! └──────────────┴──────────────┴────────────────┘
//! ↑ trim point 1 ↑ trim point 2 …                ↑ (= full length)
//! ```
//!
//! A switch may cut the packet at any *trim point* — the byte offset right
//! after a section — keeping a prefix of sections. This is §2 of the paper:
//! "the first `P·n` payload bits contain the compressed coordinates while the
//! remainder is the information needed to recover the coordinates' original
//! precision".

/// Upper bound on parts a scheme may define, the quant layer's: layouts
/// and parsed-section tables hold that many inline, so the per-packet paths
/// construct them without heap allocation.
pub use trimgrad_quant::scheme::MAX_PARTS;

/// Payload geometry for one packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PayloadLayout {
    /// Widths, inline; slots past `n_parts` stay zero so derived equality
    /// compares only meaningful state.
    part_bits: [u32; MAX_PARTS],
    used: usize,
    coord_count: usize,
}

impl PayloadLayout {
    /// Creates the layout for `coord_count` coordinates of a scheme with the
    /// given part widths.
    ///
    /// # Panics
    ///
    /// Panics if `part_bits` is empty, longer than [`MAX_PARTS`], or
    /// contains zero widths, or if `coord_count` is zero — empty packets are
    /// never built.
    #[must_use]
    pub fn new(part_bits: &[u32], coord_count: usize) -> Self {
        assert!(!part_bits.is_empty(), "at least one part required");
        assert!(part_bits.len() <= MAX_PARTS, "more than {MAX_PARTS} parts");
        assert!(part_bits.iter().all(|&w| w > 0), "zero-width part");
        assert!(coord_count > 0, "empty packet");
        let mut inline = [0u32; MAX_PARTS];
        inline[..part_bits.len()].copy_from_slice(part_bits);
        Self {
            part_bits: inline,
            used: part_bits.len(),
            coord_count,
        }
    }

    /// Number of parts.
    #[must_use]
    pub fn n_parts(&self) -> usize {
        self.used
    }

    /// Coordinates carried.
    #[must_use]
    pub fn coord_count(&self) -> usize {
        self.coord_count
    }

    /// Part widths.
    #[must_use]
    pub fn part_bits(&self) -> &[u32] {
        &self.part_bits[..self.used]
    }

    /// Byte length of section `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn section_len(&self, j: usize) -> usize {
        assert!(j < self.used, "section {j} out of range");
        (self.coord_count * self.part_bits[j] as usize).div_ceil(8)
    }

    /// Byte offset of section `j` within the payload.
    ///
    /// # Panics
    ///
    /// Panics if `j > n_parts()` (offset `n_parts()` is the total length).
    #[must_use]
    pub fn section_offset(&self, j: usize) -> usize {
        assert!(j <= self.n_parts(), "section {j} out of range");
        (0..j).map(|i| self.section_len(i)).sum()
    }

    /// Total payload length in bytes (all sections).
    #[must_use]
    pub fn total_len(&self) -> usize {
        self.section_offset(self.n_parts())
    }

    /// The payload length when trimmed to `depth` parts (`1..=n_parts`).
    ///
    /// # Panics
    ///
    /// Panics for out-of-range depth.
    #[must_use]
    pub fn trim_point(&self, depth: usize) -> usize {
        assert!(
            (1..=self.n_parts()).contains(&depth),
            "depth {depth} out of range 1..={}",
            self.n_parts()
        );
        self.section_offset(depth)
    }

    /// All legal trim points, shallowest first (depth 1 … n_parts).
    #[must_use]
    pub fn trim_points(&self) -> Vec<usize> {
        (1..=self.n_parts()).map(|d| self.trim_point(d)).collect()
    }

    /// The byte range of section `j` within the payload.
    #[must_use]
    pub fn section_range(&self, j: usize) -> core::ops::Range<usize> {
        let start = self.section_offset(j);
        start..start + self.section_len(j)
    }
}

/// The largest coordinate count whose payload fits in `budget_bytes`, or
/// `None` if not even one coordinate fits.
///
/// Used by the packetizer to choose how many coordinates to put in each
/// MTU-sized packet.
#[must_use]
pub fn max_coords_for_budget(part_bits: &[u32], budget_bytes: usize) -> Option<usize> {
    let bits_per_coord: u32 = part_bits.iter().sum();
    if bits_per_coord == 0 {
        return None;
    }
    // Start from the no-alignment bound and walk down past per-section
    // byte-padding (at most one byte per section).
    let mut c = budget_bytes * 8 / bits_per_coord as usize;
    while c > 0 {
        if PayloadLayout::new(part_bits, c).total_len() <= budget_bytes {
            return Some(c);
        }
        c -= 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_example_geometry() {
        // §2: P=1, Q=31, MTU-sized packet. With a 1444-byte payload budget
        // (1500 − 20 IP − 8 UDP − 28 TrimGrad), 360 coordinates fit, and the
        // trimmed payload is 45 bytes — the paper's "45 bytes of compressed
        // payload" for ~365 coordinates (the paper does not count an
        // application header).
        let budget = 1500 - 20 - 8 - 28;
        let c = max_coords_for_budget(&[1, 31], budget).unwrap();
        assert_eq!(c, 360);
        let layout = PayloadLayout::new(&[1, 31], c);
        assert_eq!(layout.trim_point(1), 45);
        assert_eq!(layout.total_len(), 45 + 1395);
        assert!(layout.total_len() <= budget);
    }

    #[test]
    fn section_offsets_and_ranges() {
        let l = PayloadLayout::new(&[1, 8, 23], 10);
        assert_eq!(l.section_len(0), 2); // 10 bits → 2 bytes
        assert_eq!(l.section_len(1), 10); // 80 bits → 10 bytes
        assert_eq!(l.section_len(2), 29); // 230 bits → 29 bytes
        assert_eq!(l.section_offset(0), 0);
        assert_eq!(l.section_offset(1), 2);
        assert_eq!(l.section_offset(2), 12);
        assert_eq!(l.total_len(), 41);
        assert_eq!(l.section_range(1), 2..12);
        assert_eq!(l.trim_points(), vec![2, 12, 41]);
    }

    #[test]
    fn trim_point_depth_full_equals_total() {
        let l = PayloadLayout::new(&[1, 31], 100);
        assert_eq!(l.trim_point(2), l.total_len());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn trim_point_zero_rejected() {
        let _ = PayloadLayout::new(&[1, 31], 10).trim_point(0);
    }

    #[test]
    #[should_panic(expected = "empty packet")]
    fn zero_coords_rejected() {
        let _ = PayloadLayout::new(&[1, 31], 0);
    }

    #[test]
    fn single_coord_packet() {
        let l = PayloadLayout::new(&[1, 31], 1);
        assert_eq!(l.section_len(0), 1);
        assert_eq!(l.section_len(1), 4); // 31 bits → 4 bytes
        assert_eq!(l.total_len(), 5);
    }

    #[test]
    fn budget_edge_cases() {
        // Not even one coordinate fits.
        assert_eq!(max_coords_for_budget(&[1, 31], 4), None);
        // Exactly one fits (1 + 4 bytes).
        assert_eq!(max_coords_for_budget(&[1, 31], 5), Some(1));
        assert_eq!(max_coords_for_budget(&[], 100), None);
    }

    #[test]
    fn trim_ratio_matches_paper_compression_claim() {
        // §2: trimming an MTU packet with P=1 keeps head section + headers;
        // compression of the *payload* is 1 − 45/1440 ≈ 96.9%, and of the
        // whole 1500-byte packet ≈ 94% once headers are included.
        let l = PayloadLayout::new(&[1, 31], 360);
        let full_packet = 20 + 8 + 28 + l.total_len();
        let trimmed_packet = 20 + 8 + 28 + l.trim_point(1);
        let ratio = 1.0 - trimmed_packet as f64 / full_packet as f64;
        assert!((0.90..0.97).contains(&ratio), "compression ratio {ratio}");
    }

    proptest! {
        #[test]
        fn sections_tile_payload_exactly(
            widths in proptest::collection::vec(1u32..=33, 1..5),
            coords in 1usize..500
        ) {
            let l = PayloadLayout::new(&widths, coords);
            let mut expected_start = 0;
            for j in 0..l.n_parts() {
                let r = l.section_range(j);
                prop_assert_eq!(r.start, expected_start);
                expected_start = r.end;
            }
            prop_assert_eq!(expected_start, l.total_len());
            // Trim points strictly increase.
            let pts = l.trim_points();
            for w in pts.windows(2) {
                prop_assert!(w[0] < w[1]);
            }
        }

        #[test]
        fn budget_is_tight(
            widths in proptest::collection::vec(1u32..=33, 1..4),
            budget in 8usize..4000
        ) {
            if let Some(c) = max_coords_for_budget(&widths, budget) {
                // c fits; c+1 must not.
                prop_assert!(PayloadLayout::new(&widths, c).total_len() <= budget);
                prop_assert!(PayloadLayout::new(&widths, c + 1).total_len() > budget);
            } else {
                prop_assert!(PayloadLayout::new(&widths, 1).total_len() > budget);
            }
        }
    }
}
