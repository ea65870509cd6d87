//! Probabilistic trim/drop injection at packet granularity.
//!
//! The paper's prototype "simulates the effect of congestion using pre-set
//! random probabilistic dropping/trimming" (§4) because NCCL's wire format is
//! closed. This module reproduces that harness: an encoded row is divided
//! into the coordinate chunks the wire packetizer would put in each packet
//! ([`packet_chunks`]), and each chunk is independently
//!
//! * trimmed to its heads with probability `trim_prob`, or
//! * dropped entirely with probability `drop_prob` (heads lost too), or
//! * left intact.
//!
//! The injector also records what a transcript-based replay needs (§5.4):
//! the exact chunk fates, reproducible from the seed.

use core::ops::Range;
use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_quant::scheme::EncodedRow;
use trimgrad_quant::SchemeId;
use trimgrad_wire::packetize::{chunk_ranges, coords_per_packet, DEFAULT_MTU};

/// Outcome counters of one injection pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectStats {
    /// Packet-chunks that passed untouched.
    pub intact: u64,
    /// Packet-chunks trimmed to heads.
    pub trimmed: u64,
    /// Packet-chunks dropped entirely.
    pub dropped: u64,
}

impl InjectStats {
    /// Total chunks processed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.intact + self.trimmed + self.dropped
    }

    /// Observed trim fraction.
    #[must_use]
    pub fn trim_fraction(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.trimmed as f64 / self.total() as f64
        }
    }

    /// Merges another pass's counters.
    pub fn merge(&mut self, other: InjectStats) {
        self.intact += other.intact;
        self.trimmed += other.trimmed;
        self.dropped += other.dropped;
    }
}

/// The coordinate ranges of the packets the wire packetizer cuts a row of
/// `scheme` whose encoded length is `n` into at [`DEFAULT_MTU`], in chunk-id
/// order: the granularity at which the in-memory harness draws, records,
/// replays and accounts packet fates.
pub fn packet_chunks(scheme: SchemeId, n: usize) -> impl Iterator<Item = Range<usize>> {
    let per_packet = coords_per_packet(scheme.part_bits(), DEFAULT_MTU)
        // trimlint: allow(no-panic) -- every scheme's single coordinate (at most 33 bits) fits the 1444-byte payload of DEFAULT_MTU
        .expect("one coordinate fits the default MTU");
    chunk_ranges(n, per_packet)
}

/// Per-packet random trim/drop injector.
///
/// The probabilities are checked where they are set ([`new`](Self::new),
/// [`with_drop_prob`](Self::with_drop_prob)) and cannot be assigned
/// around those checks:
///
/// ```compile_fail,E0616
/// use trimgrad_collective::trim_inject::TrimInjector;
///
/// let mut injector = TrimInjector::new(0.1, 7);
/// injector.drop_prob = f64::NAN;
/// ```
#[derive(Debug, Clone)]
pub struct TrimInjector {
    trim_prob: f64,
    drop_prob: f64,
    rng: Xoshiro256StarStar,
}

impl TrimInjector {
    /// Creates an injector trimming with probability `trim_prob` (no outright
    /// drops).
    #[must_use]
    pub fn new(trim_prob: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&trim_prob), "trim_prob out of range");
        Self {
            trim_prob,
            drop_prob: 0.0,
            rng: Xoshiro256StarStar::new(seed),
        }
    }

    /// Adds whole-packet drops.
    #[must_use]
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop_prob out of range");
        assert!(self.trim_prob + p <= 1.0, "trim + drop probability > 1");
        self.drop_prob = p;
        self
    }

    /// Probability a packet is trimmed to its heads.
    #[must_use]
    pub fn trim_prob(&self) -> f64 {
        self.trim_prob
    }

    /// Probability a packet is dropped outright.
    #[must_use]
    pub fn drop_prob(&self) -> f64 {
        self.drop_prob
    }

    /// Draws one fate per packet-chunk of a row of `scheme` whose encoded
    /// length is `n` (the chunks [`packet_chunks`] cuts such a row into),
    /// in chunk order, into `fates` (cleared first) and returns the outcome
    /// counts: a dropped chunk keeps no part (depth 0), a trimmed one its
    /// heads (depth 1, as in the paper), an intact one every part. One RNG
    /// draw per chunk.
    pub fn draw_row_fates(
        &mut self,
        scheme: SchemeId,
        n: usize,
        fates: &mut Vec<Fate>,
    ) -> InjectStats {
        let n_parts = scheme.part_bits().len();
        let mut stats = InjectStats::default();
        fates.clear();
        for chunk in packet_chunks(scheme, n) {
            let u = f64::from(self.rng.next_f32());
            let depth = if u < self.drop_prob {
                stats.dropped += 1;
                0
            } else if u < self.drop_prob + self.trim_prob {
                stats.trimmed += 1;
                1
            } else {
                stats.intact += 1;
                n_parts
            };
            fates.push((chunk, depth));
        }
        stats
    }

    /// [`draw_row_fates`](Self::draw_row_fates) over `enc`'s geometry,
    /// expanded to one availability depth per coordinate.
    pub fn draw_depths(&mut self, enc: &EncodedRow) -> (Vec<usize>, InjectStats) {
        let mut fates = Vec::new();
        let stats = self.draw_row_fates(enc.scheme, enc.n, &mut fates);
        (fate_depths(&fates), stats)
    }
}

/// One packet-chunk's fate: the coordinates it carries and how many of
/// their parts survived (0 = the packet was lost).
pub type Fate = (Range<usize>, usize);

/// Per-coordinate availability depths of a row whose consecutive
/// packet-chunks met `fates`: every coordinate of a chunk shares its depth.
fn fate_depths(fates: &[Fate]) -> Vec<usize> {
    fates
        .iter()
        .flat_map(|(chunk, depth)| std::iter::repeat_n(*depth, chunk.len()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{GradChannel, TrimmingChannel};
    use crate::chunk::MessageCodec;
    use trimgrad_hadamard::prng::Xoshiro256StarStar;

    fn row(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = Xoshiro256StarStar::new(seed);
        (0..n).map(|_| rng.next_f32_range(-1.0, 1.0)).collect()
    }

    /// One row through encode → `inj` → decode: a [`TrimmingChannel`] whose
    /// rows are at least as long as `r`.
    fn roundtrip_row(inj: TrimInjector, scheme: SchemeId, r: &[f32]) -> (Vec<f32>, InjectStats) {
        let mut ch = TrimmingChannel::new(MessageCodec::with_row_len(scheme, 42, r.len()), inj);
        let mut dec = Vec::new();
        ch.transfer(r, 0, 0, |_, piece| dec.extend_from_slice(piece));
        (dec, ch.inject_stats())
    }

    #[test]
    fn zero_probability_is_lossless() {
        let r = row(1000, 2);
        let (dec, stats) = roundtrip_row(TrimInjector::new(0.0, 1), SchemeId::SignMagnitude, &r);
        assert_eq!(stats.trimmed, 0);
        assert_eq!(stats.dropped, 0);
        assert!(stats.intact > 0);
        for (d, v) in dec.iter().zip(&r) {
            assert_eq!(d.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn full_probability_trims_everything() {
        let r = row(1024, 3);
        let (dec, stats) = roundtrip_row(TrimInjector::new(1.0, 1), SchemeId::RhtOneBit, &r);
        assert_eq!(stats.intact, 0);
        assert_eq!(stats.dropped, 0);
        assert!(stats.trim_fraction() == 1.0);
        // Decode is approximate but finite and non-trivial.
        assert!(dec.iter().all(|d| d.is_finite()));
        let nmse = trimgrad_quant::error::nmse(&dec, &r);
        assert!(nmse < 1.0, "RHT heads-only nmse {nmse}");
    }

    #[test]
    fn trim_fraction_matches_probability() {
        let mut ch = TrimmingChannel::new(
            MessageCodec::with_row_len(SchemeId::SignMagnitude, 42, 4096),
            TrimInjector::new(0.3, 9),
        );
        let r = row(40 * 4096, 4);
        for i in 0..40 {
            ch.transfer(&r, 0, i, |_, _| {});
        }
        let stats = ch.inject_stats();
        // 40 × 40 rows × 12 chunks; SE ≈ sqrt(0.3·0.7/19200) ≈ 0.0033.
        assert_eq!(stats.total(), 40 * 40 * 12);
        assert!(
            (stats.trim_fraction() - 0.3).abs() < 0.02,
            "trim fraction {}",
            stats.trim_fraction()
        );
    }

    #[test]
    fn drops_zero_out_coordinates() {
        let inj = TrimInjector::new(0.0, 5).with_drop_prob(1.0);
        let r = row(1200, 6);
        let (dec, stats) = roundtrip_row(inj, SchemeId::SignMagnitude, &r);
        assert_eq!(stats.dropped as usize, 4);
        assert!(dec.iter().all(|&d| d == 0.0));
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let inj = TrimInjector::new(0.5, seed);
            roundtrip_row(inj, SchemeId::RhtOneBit, &row(1 << 14, 1)).0
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn chunking_respects_packet_boundaries() {
        // Coordinates that would share a packet share their fate.
        let mut inj = TrimInjector::new(0.5, 2);
        let r = row(5000, 9);
        let enc = SchemeId::SignMagnitude.encode(&r, 0);
        let (depths, _) = inj.draw_depths(&enc);
        for chunk in depths.chunks(360) {
            assert!(chunk.iter().all(|&d| d == chunk[0]), "chunk fate differs");
        }
        assert!(depths.contains(&1) && depths.contains(&2));
    }

    #[test]
    fn mtu_derived_chunking_matches_wire_layout() {
        let mut inj = TrimInjector::new(1.0, 1);
        let r = row(1000, 1);
        let enc = SchemeId::SignMagnitude.encode(&r, 0);
        let (_, stats) = inj.draw_depths(&enc);
        // 1000 coords at 360/packet → 3 chunks, same as the wire packetizer.
        assert_eq!(stats.total(), 3);
    }

    /// The per-coordinate draw the injector made before fates were drawn
    /// per chunk, kept as the reference.
    fn ref_draw_depths(inj: &mut TrimInjector, enc: &EncodedRow) -> (Vec<usize>, InjectStats) {
        let n_parts = enc.parts.len();
        let mut depths = Vec::with_capacity(enc.n);
        let mut stats = InjectStats::default();
        for chunk in packet_chunks(enc.scheme, enc.n) {
            let u = f64::from(inj.rng.next_f32());
            let depth = if u < inj.drop_prob {
                stats.dropped += 1;
                0
            } else if u < inj.drop_prob + inj.trim_prob {
                stats.trimmed += 1;
                1
            } else {
                stats.intact += 1;
                n_parts
            };
            depths.extend(std::iter::repeat_n(depth, chunk.len()));
        }
        (depths, stats)
    }

    #[test]
    fn fates_expand_to_the_reference_depths_and_leave_the_rng_in_step() {
        for (trim, drop) in [(0.3, 0.0), (0.25, 0.15), (0.0, 1.0), (1.0, 0.0)] {
            let make = || TrimInjector::new(trim, 17).with_drop_prob(drop);
            let (mut by_fates, mut by_depths, mut reference) = (make(), make(), make());
            let mut fates = vec![(0..1, 9)]; // stale contents are cleared
            let lens = [1usize, 359, 360, 361, 5000, 1 << 15];
            for (i, n) in lens.into_iter().enumerate() {
                let enc = SchemeId::SignMagnitude.encode(&row(n, i as u64), 0);
                let (want, want_stats) = ref_draw_depths(&mut reference, &enc);
                let stats = by_fates.draw_row_fates(enc.scheme, enc.n, &mut fates);
                assert_eq!(stats, want_stats, "trim {trim} drop {drop} n {n}");
                assert_eq!(fate_depths(&fates), want, "trim {trim} drop {drop} n {n}");
                let chunks: Vec<Range<usize>> = fates.iter().map(|f| f.0.clone()).collect();
                assert_eq!(chunks, packet_chunks(enc.scheme, enc.n).collect::<Vec<_>>());
                assert_eq!(by_depths.draw_depths(&enc), (want, want_stats));
            }
            // All three generators stand at the same point of the stream.
            let next = reference.rng.next_u64();
            assert_eq!(by_fates.rng.next_u64(), next);
            assert_eq!(by_depths.rng.next_u64(), next);
        }
    }

    #[test]
    #[should_panic(expected = "trim + drop probability > 1")]
    fn rejects_inconsistent_probabilities() {
        let _ = TrimInjector::new(0.8, 0).with_drop_prob(0.3);
    }

    #[test]
    #[should_panic(expected = "drop_prob out of range")]
    fn rejects_a_nan_drop_probability() {
        let _ = TrimInjector::new(0.1, 0).with_drop_prob(f64::NAN);
    }

    #[test]
    fn reports_the_probabilities_it_was_built_with() {
        let inj = TrimInjector::new(0.25, 3).with_drop_prob(0.5);
        assert_eq!((inj.trim_prob(), inj.drop_prob()), (0.25, 0.5));
    }

    #[test]
    fn stats_merge_and_fractions() {
        let a = InjectStats {
            intact: 6,
            trimmed: 3,
            dropped: 1,
        };
        let mut b = InjectStats::default();
        b.merge(a);
        b.merge(a);
        assert_eq!(b.total(), 20);
        assert!((b.trim_fraction() - 0.3).abs() < 1e-12);
        assert_eq!(InjectStats::default().trim_fraction(), 0.0);
    }
}
