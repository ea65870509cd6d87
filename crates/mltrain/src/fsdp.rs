//! Trimmable weight gathering for Fully Sharded Data Parallel (paper §5.5).
//!
//! Under FSDP a single copy of the weights is sharded across workers; before
//! using a layer, a worker must *gather* the missing shards over the
//! network. The paper conjectures that "a small fraction of imperfection in
//! copied weights has limited impact on training quality, due to the
//! redundant nature of large neural networks", so trimmable packets should
//! work for the gather too.
//!
//! This module makes that testable: a [`ShardedParams`] splits a flat
//! parameter blob across `W` owners; [`gather`](ShardedParams::gather)
//! reconstructs the full blob with every *remote* shard passing through a
//! [`GradChannel`] (the local shard is exact). Pair it with a
//! [`trimgrad_collective::TrimmingChannel`] to measure how inference and
//! training degrade with the gather trim rate — the `fsdp_gather` ablation
//! binary in `trimgrad-bench` does exactly that.

use trimgrad_collective::channel::GradChannel;

/// A flat parameter blob sharded across `W` owners (contiguous equal-ish
/// shards, remainder on the leading shards — same convention as the ring
/// collective's segments).
#[derive(Debug, Clone)]
pub struct ShardedParams {
    shards: Vec<Vec<f32>>,
}

impl ShardedParams {
    /// Shards `params` across `workers` owners.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    #[must_use]
    pub fn split(params: &[f32], workers: usize) -> Self {
        assert!(workers >= 1, "need at least one shard");
        let shards = (0..workers)
            .map(|w| {
                let r = trimgrad_collective::ring::segment_range(params.len(), workers, w);
                params[r].to_vec()
            })
            .collect();
        Self { shards }
    }

    /// Number of shards.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Total parameter count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(Vec::len).sum()
    }

    /// Whether the blob is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reconstructs the full blob as worker `me` sees it after a gather:
    /// the local shard is copied exactly; every remote shard passes through
    /// `chan` (encode → possibly trimmed → decode). `epoch`/`base_msg_id`
    /// seed the shared randomness per shard.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range.
    #[must_use]
    pub fn gather<C: GradChannel>(
        &self,
        me: usize,
        chan: &mut C,
        epoch: u32,
        base_msg_id: u32,
    ) -> Vec<f32> {
        assert!(me < self.workers(), "rank out of range");
        let mut out = Vec::with_capacity(self.len());
        let mut append = |_, piece: &[f32]| out.extend_from_slice(piece);
        for (w, shard) in self.shards.iter().enumerate() {
            if w == me {
                append(0, shard);
            } else {
                chan.transfer(shard, epoch, base_msg_id + w as u32, &mut append);
            }
        }
        out
    }

    /// Lossless reassembly (the reference).
    #[must_use]
    pub fn concat(&self) -> Vec<f32> {
        self.shards.concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::gaussian_mixture;
    use crate::metrics::top1_accuracy;
    use crate::model::Mlp;
    use crate::optim::SgdMomentum;
    use trimgrad_collective::channel::{LosslessChannel, TrimmingChannel};
    use trimgrad_collective::chunk::MessageCodec;
    use trimgrad_collective::TrimInjector;
    use trimgrad_quant::SchemeId;

    #[test]
    fn split_and_concat_roundtrip() {
        let params: Vec<f32> = (0..1003).map(|i| i as f32).collect();
        for w in [1, 2, 4, 7] {
            let sharded = ShardedParams::split(&params, w);
            assert_eq!(sharded.workers(), w);
            assert_eq!(sharded.len(), params.len());
            assert_eq!(sharded.concat(), params);
        }
    }

    #[test]
    fn lossless_gather_is_exact_for_every_rank() {
        let params: Vec<f32> = (0..500).map(|i| (i as f32).sin()).collect();
        let sharded = ShardedParams::split(&params, 4);
        for me in 0..4 {
            let mut chan = LosslessChannel::new();
            assert_eq!(sharded.gather(me, &mut chan, 0, 0), params);
        }
    }

    #[test]
    fn trimmed_gather_preserves_local_shard_exactly() {
        let params: Vec<f32> = (0..4096).map(|i| ((i as f32) * 0.01).cos()).collect();
        let sharded = ShardedParams::split(&params, 4);
        let codec = MessageCodec::with_row_len(SchemeId::RhtOneBit, 1, 512);
        let mut chan = TrimmingChannel::new(codec, TrimInjector::new(1.0, 3));
        let me = 2;
        let gathered = sharded.gather(me, &mut chan, 0, 0);
        assert_eq!(gathered.len(), params.len());
        let r = trimgrad_collective::ring::segment_range(params.len(), 4, me);
        // Local shard: bit exact. Remote shards: approximate but close.
        assert_eq!(&gathered[r.clone()], &params[r]);
        let nmse = trimgrad_quant::error::nmse(&gathered, &params);
        assert!(nmse > 0.0 && nmse < 1.0, "nmse {nmse}");
    }

    /// The §5.5 conjecture, tested: a model whose weights are gathered
    /// through a moderately-trimmed channel loses little accuracy; the loss
    /// grows with the trim rate.
    #[test]
    fn inference_tolerates_moderate_weight_trimming() {
        // Train a small model cleanly first.
        let (train, test) = gaussian_mixture(5, 16, 80, 2.0, 0.8, 3).split(0.8, 3);
        let mut model = Mlp::new(&[16, 32, 5], 1);
        let mut opt = SgdMomentum::new(0.05, 0.9, model.param_count());
        for _ in 0..400 {
            let idx: Vec<usize> = (0..32).map(|i| (i * 7 + 13) % train.len()).collect();
            let (bx, by) = train.batch(&idx);
            let (_, g) = model.loss_and_grad(&bx, &by);
            let mut p = model.params_flat();
            opt.step(&mut p, &g);
            model.set_params_flat(&p);
        }
        let clean_acc = top1_accuracy(&model.forward(&test.x), &test.y);
        assert!(clean_acc > 0.8, "model must be trained ({clean_acc})");

        let sharded = ShardedParams::split(&model.params_flat(), 4);
        let acc_at = |trim: f64| {
            let codec = MessageCodec::with_row_len(SchemeId::RhtOneBit, 9, 256);
            let mut chan = TrimmingChannel::new(codec, TrimInjector::new(trim, 5));
            let gathered = sharded.gather(0, &mut chan, 0, 0);
            let mut m = model.clone();
            m.set_params_flat(&gathered);
            top1_accuracy(&m.forward(&test.x), &test.y)
        };
        let acc_10 = acc_at(0.10);
        let acc_100 = acc_at(1.0);
        assert!(
            clean_acc - acc_10 < 0.05,
            "10% weight trimming should barely matter: {clean_acc} → {acc_10}"
        );
        // Even fully trimmed weights retain real signal (sign structure).
        assert!(
            acc_100 > 0.3,
            "fully trimmed weights collapsed to {acc_100}"
        );
        assert!(acc_10 >= acc_100);
    }
}
