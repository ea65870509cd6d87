//! DDP-style gradient aggregation hooks.
//!
//! The paper's prototype plugs into PyTorch DDP's communication-hook
//! interface "to modify the gradient aggregation communication step". The
//! trainer in `trimgrad-mltrain` does the same through [`AggregateHook`]:
//! given every worker's local gradient, produce each worker's view of the
//! *averaged* gradient. The hook is where encoding, simulated trimming, and
//! decoding happen.

use crate::channel::{GradChannel, LosslessChannel, TrimmingChannel};
use crate::chunk::MessageCodec;
use crate::ring::ring_all_reduce;
use crate::trim_inject::{InjectStats, TrimInjector};
use trimgrad_quant::SchemeId;
use trimgrad_wire::narrow;

/// Aggregates per-worker gradients into per-worker averaged views.
pub trait AggregateHook: Send {
    /// Performs the exchange for one training round. `grads[w]` is worker
    /// `w`'s local gradient; the result is each worker's (possibly
    /// approximate) copy of the mean gradient.
    fn aggregate(&mut self, grads: &[Vec<f32>], epoch: u32, round: u32) -> Vec<Vec<f32>>;

    /// Wire bytes per ring edge so far.
    fn bytes_sent(&self) -> u64;

    /// Display name for experiment output.
    fn name(&self) -> String;
}

/// The uncompressed baseline: the exact mean, ring-reduced in place in its `W` views.
pub struct BaselineHook {
    channels: Vec<LosslessChannel>,
}

impl BaselineHook {
    /// Creates the hook for `workers` participants.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Self {
            channels: (0..workers).map(|_| LosslessChannel::new()).collect(),
        }
    }
}

impl AggregateHook for BaselineHook {
    fn aggregate(&mut self, grads: &[Vec<f32>], epoch: u32, round: u32) -> Vec<Vec<f32>> {
        ring_round(grads, &mut self.channels, epoch, round)
    }

    fn bytes_sent(&self) -> u64 {
        self.channels.iter().map(|c| c.bytes_sent()).sum()
    }

    fn name(&self) -> String {
        "baseline".into()
    }
}

/// Trimmable-gradient aggregation: every ring transfer is encoded, passed
/// through the probabilistic trim injector, and decoded.
pub struct TrimmableHook {
    scheme: SchemeId,
    channels: Vec<TrimmingChannel>,
}

impl TrimmableHook {
    /// Creates the hook: `trim_prob`/`drop_prob` apply per simulated packet
    /// on every ring edge, with deterministic per-edge seeds derived from
    /// `seed`.
    #[must_use]
    pub fn new(
        scheme: SchemeId,
        workers: usize,
        trim_prob: f64,
        drop_prob: f64,
        row_len: usize,
        seed: u64,
    ) -> Self {
        let channels = (0..workers)
            .map(|i| {
                let codec = MessageCodec::with_row_len(scheme, seed, row_len);
                let injector = TrimInjector::new(trim_prob, seed ^ (i as u64).wrapping_mul(0x9E37))
                    .with_drop_prob(drop_prob);
                TrimmingChannel::new(codec, injector)
            })
            .collect();
        Self { scheme, channels }
    }

    /// Aggregated injection outcomes across all edges.
    #[must_use]
    pub fn inject_stats(&self) -> InjectStats {
        let mut total = InjectStats::default();
        for c in &self.channels {
            total.merge(c.inject_stats());
        }
        total
    }

    /// The scheme in use.
    #[must_use]
    pub fn scheme(&self) -> SchemeId {
        self.scheme
    }
}

impl AggregateHook for TrimmableHook {
    /// Broadcast-style aggregation, matching the paper's DDP prototype:
    /// every worker's gradient is encoded **once**, crosses the (simulated)
    /// trimming fabric once, and each receiver averages its own exact
    /// gradient with the decoded remote ones. Encoding once per exchange is
    /// essential — re-encoding partial sums at every ring hop compounds the
    /// quantization error multiplicatively (the ablation test
    /// `per_hop_ring_compounds_error` measures it).
    ///
    /// Rows are the outer loop: for each row index every worker's channel
    /// transfers that row ([`TrimmingChannel::transfer_row`]; each channel
    /// still takes its own rows in order), and then each view's slice of the
    /// row is written exactly once. View `v` takes worker `v`'s own exact
    /// gradient and every other worker's decode: per coordinate the sum runs
    /// from `+0.0` over the workers in ascending order and is divided by the
    /// worker count, `((+0.0 + x₀) + x₁ + … + x_{W−1}) / W`. The views are
    /// the only blob-sized allocations, and nothing else touches them.
    ///
    /// # Panics
    ///
    /// Panics unless there is one gradient per channel, at least one, all of
    /// one length.
    fn aggregate(&mut self, grads: &[Vec<f32>], epoch: u32, round: u32) -> Vec<Vec<f32>> {
        let w = grads.len();
        assert_eq!(w, self.channels.len(), "one channel per worker");
        assert!(w > 0, "no gradients to aggregate");
        let len = grads[0].len();
        assert!(
            grads.iter().all(|g| g.len() == len),
            "gradients differ in length"
        );
        let mut views: Vec<Vec<f32>> = (0..w).map(|_| Vec::with_capacity(len)).collect();
        let rows = self.channels[0].codec().rows_for(len);
        for row_id in 0..rows {
            let range = self.channels[0].codec().row_range(len, row_id);
            let decoded: Vec<&[f32]> = self
                .channels
                .iter_mut()
                .zip(grads)
                .enumerate()
                .map(|(u, (ch, own))| {
                    let msg_id = round * w as u32 + u as u32;
                    ch.transfer_row(own, epoch, msg_id, row_id)
                })
                .collect();
            let own: Vec<&[f32]> = grads.iter().map(|g| &g[range.clone()]).collect();
            append_means(&mut views, &own, &decoded);
        }
        views
    }

    fn bytes_sent(&self) -> u64 {
        self.channels.iter().map(|c| c.bytes_sent()).sum()
    }

    fn name(&self) -> String {
        self.scheme.name().into()
    }
}

/// Coordinates of one row that [`append_means`] sums at a time: the block's
/// slice of every source stays in L1 while each view's block is summed.
const MEAN_BLOCK: usize = 256;

/// Appends one row's mean to every view: view `v` gets
/// `((+0.0 + x₀) + x₁ + … + x_{W−1}) / W` per coordinate, `x_v` taken from
/// `own[v]` and every other `x_u` from `decoded[u]`.
fn append_means(views: &mut [Vec<f32>], own: &[&[f32]], decoded: &[&[f32]]) {
    let w = views.len() as f32;
    let row_len = own[0].len();
    let mut acc = [0.0f32; MEAN_BLOCK];
    for start in (0..row_len).step_by(MEAN_BLOCK) {
        let block = start..row_len.min(start + MEAN_BLOCK);
        let acc = &mut acc[..block.len()];
        for (v, view) in views.iter_mut().enumerate() {
            acc.fill(0.0);
            for (u, (own, dec)) in own.iter().zip(decoded).enumerate() {
                let src = if u == v { own } else { dec };
                for (a, &x) in acc.iter_mut().zip(&src[block.clone()]) {
                    *a += x;
                }
            }
            view.extend(acc.iter().map(|&a| a / w));
        }
    }
}

/// One training round's ring all-reduce mean over `channels`. A ring of `W`
/// workers uses message ids `base .. base + 2W² − W`, so round `r` starts at
/// `r · 2W²`: no two rounds share a message id, and so no two transfers
/// share a row seed.
fn ring_round<C: GradChannel>(
    grads: &[Vec<f32>],
    channels: &mut [C],
    epoch: u32,
    round: u32,
) -> Vec<Vec<f32>> {
    let w = grads.len();
    let base = narrow::to_u32(round as usize * 2 * w * w, "ring message id");
    let mut workers = grads.to_vec();
    ring_all_reduce(&mut workers, channels, epoch, base);
    for v in workers.iter_mut().flatten() {
        *v /= w as f32;
    }
    workers
}

#[cfg(test)]
mod tests {
    use super::*;
    use trimgrad_hadamard::prng::Xoshiro256StarStar;

    fn grads(w: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = Xoshiro256StarStar::new(seed);
        (0..w)
            .map(|_| (0..len).map(|_| rng.next_f32_range(-1.0, 1.0)).collect())
            .collect()
    }

    fn exact_mean(grads: &[Vec<f32>]) -> Vec<f32> {
        let w = grads.len() as f32;
        (0..grads[0].len())
            .map(|j| grads.iter().map(|g| g[j]).sum::<f32>() / w)
            .collect()
    }

    /// A lossless channel that records the `(epoch, msg_id)` of every
    /// transfer it carries.
    #[derive(Default)]
    struct IdRecorder(Vec<(u32, u32)>);

    impl GradChannel for IdRecorder {
        fn transfer(
            &mut self,
            data: &[f32],
            epoch: u32,
            msg_id: u32,
            mut sink: impl FnMut(usize, &[f32]),
        ) {
            self.0.push((epoch, msg_id));
            sink(0, data);
        }

        fn bytes_sent(&self) -> u64 {
            0
        }
    }

    #[test]
    fn ring_rounds_never_reuse_a_message_id() {
        // From W = 23 a ring's 2W² − W ids outgrow a stride of 1024 per
        // round; a repeated id repeats a row seed, correlating the noise of
        // two different segments.
        for w in [23usize, 24] {
            let g = grads(w, 3 * w, 8);
            let mut channels: Vec<IdRecorder> = (0..w).map(|_| IdRecorder::default()).collect();
            for round in 0..3 {
                let _ = ring_round(&g, &mut channels, 1, round);
            }
            let mut ids: Vec<(u32, u32)> = channels.iter().flat_map(|c| c.0.clone()).collect();
            let transfers = ids.len();
            assert_eq!(transfers, 3 * 2 * (w - 1) * w);
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), transfers, "W = {w}: a message id repeats");
        }
    }

    #[test]
    fn baseline_is_exact() {
        let g = grads(4, 100, 1);
        let mean = exact_mean(&g);
        let mut hook = BaselineHook::new(4);
        let out = hook.aggregate(&g, 0, 0);
        assert_eq!(out.len(), 4);
        for view in &out {
            for (a, e) in view.iter().zip(&mean) {
                assert!((a - e).abs() < 1e-5);
            }
        }
        assert!(hook.bytes_sent() > 0);
        assert_eq!(hook.name(), "baseline");
    }

    #[test]
    fn trimmable_untrimmed_matches_mean_closely() {
        let g = grads(4, 1024, 2);
        let mean = exact_mean(&g);
        let mut hook = TrimmableHook::new(SchemeId::RhtOneBit, 4, 0.0, 0.0, 512, 7);
        let out = hook.aggregate(&g, 0, 0);
        for view in &out {
            let nmse = trimgrad_quant::error::nmse(view, &mean);
            assert!(nmse < 1e-6, "nmse {nmse}");
        }
        assert_eq!(hook.inject_stats().trimmed, 0);
        assert_eq!(hook.name(), "rht");
    }

    #[test]
    fn trimmable_with_trimming_stays_useful() {
        let g = grads(4, 2048, 3);
        let mean = exact_mean(&g);
        let mut hook = TrimmableHook::new(SchemeId::RhtOneBit, 4, 0.5, 0.0, 1024, 9);
        let out = hook.aggregate(&g, 1, 5);
        assert!(hook.inject_stats().trimmed > 0);
        for view in &out {
            let nmse = trimgrad_quant::error::nmse(view, &mean);
            assert!(nmse < 0.6, "nmse {nmse} too large at 50% trimming");
        }
    }

    #[test]
    fn signmag_heads_decode_is_biased_toward_sigma() {
        // The flawed scheme the paper warns about. On benign uniform data
        // ±σ decoding is actually fine (every |v| ≈ σ); its failure mode is
        // heavy-tailed gradients — the realistic case — where every small
        // coordinate gets inflated to ±σ. Build spiky gradients accordingly.
        let mut rng = Xoshiro256StarStar::new(4);
        let g: Vec<Vec<f32>> = (0..4)
            .map(|_| {
                (0..2048)
                    .map(|_| {
                        let u = rng.next_f32_range(-1.0, 1.0);
                        u * u * u * u * u // heavy-tailed: most mass near zero
                    })
                    .collect()
            })
            .collect();
        let mean = exact_mean(&g);
        let run = |scheme| {
            let mut hook = TrimmableHook::new(scheme, 4, 1.0, 0.0, 1024, 5);
            let out = hook.aggregate(&g, 0, 0);
            trimgrad_quant::error::nmse(&out[0], &mean)
        };
        let sm = run(SchemeId::SignMagnitude);
        let rht = run(SchemeId::RhtOneBit);
        assert!(
            rht < sm,
            "RHT ({rht}) must beat sign-magnitude ({sm}) at full trimming"
        );
    }

    #[test]
    fn per_hop_ring_compounds_error() {
        // The ablation: re-encoding at every ring hop — a ring all-reduce
        // over the hook's own per-edge trimming channels — must be strictly
        // worse than encode-once broadcast aggregation. It motivates
        // homomorphic-compression designs like THC.
        let g = grads(4, 2048, 7);
        let mean = exact_mean(&g);
        let mut once = TrimmableHook::new(SchemeId::RhtOneBit, 4, 1.0, 0.0, 1024, 3);
        let mut per_hop = TrimmableHook::new(SchemeId::RhtOneBit, 4, 1.0, 0.0, 1024, 3);
        let e_once = trimgrad_quant::error::nmse(&once.aggregate(&g, 0, 0)[0], &mean);
        let hop = ring_round(&g, &mut per_hop.channels, 0, 0);
        let e_hop = trimgrad_quant::error::nmse(&hop[0], &mean);
        assert!(
            e_once < e_hop,
            "encode-once ({e_once}) must beat per-hop ({e_hop})"
        );
    }

    #[test]
    #[should_panic(expected = "no gradients to aggregate")]
    fn aggregating_nothing_panics_with_a_message() {
        let mut hook = TrimmableHook::new(SchemeId::RhtOneBit, 0, 0.0, 0.0, 512, 1);
        let _ = hook.aggregate(&[], 0, 0);
    }

    #[test]
    #[should_panic(expected = "gradients differ in length")]
    fn ragged_gradients_panic_with_a_message() {
        let mut hook = TrimmableHook::new(SchemeId::RhtOneBit, 2, 0.0, 0.0, 512, 1);
        let _ = hook.aggregate(&[vec![0.5; 600], vec![0.5; 599]], 0, 0);
    }

    #[test]
    fn rounds_use_fresh_randomness() {
        let g = grads(2, 512, 6);
        let mut hook = TrimmableHook::new(SchemeId::RhtOneBit, 2, 0.5, 0.0, 512, 1);
        let a = hook.aggregate(&g, 0, 0);
        let b = hook.aggregate(&g, 0, 1);
        assert_ne!(a, b, "different rounds must draw different trim patterns");
    }
}
