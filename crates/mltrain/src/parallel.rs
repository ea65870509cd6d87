//! The data-parallel trainer.
//!
//! `W` workers each hold a model replica and compute a gradient on their own
//! mini-batch; the gradients are exchanged through an
//! [`AggregateHook`] (lossless baseline or trimmable encoding under
//! simulated congestion); each worker applies *its own decoded view* of the
//! averaged gradient — exactly the paper's setup, where trimming makes
//! worker views diverge slightly.

use crate::data::{sample_indices, Dataset};
use crate::metrics::{top1_accuracy, top5_accuracy};
use crate::model::Mlp;
use crate::optim::{SgdMomentum, StepLr};
use trimgrad_collective::hooks::AggregateHook;
use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_telemetry::{Histogram, Registry};
use trimgrad_trace::{TraceEvent, Tracer};

/// Trainer configuration.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Number of data-parallel workers.
    pub workers: usize,
    /// Mini-batch size per worker.
    pub batch_size: usize,
    /// Learning-rate schedule.
    pub schedule: StepLr,
    /// Momentum coefficient.
    pub momentum: f32,
    /// Rounds per epoch.
    pub rounds_per_epoch: u32,
    /// Seed for batch sampling and model init.
    pub seed: u64,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            batch_size: 32,
            schedule: StepLr {
                initial_lr: 5e-2,
                step_size: 40,
                gamma: 0.5,
            },
            momentum: 0.9,
            rounds_per_epoch: 20,
            seed: 1,
        }
    }
}

/// Per-round outcome.
#[derive(Debug, Clone, Copy)]
pub struct RoundStats {
    /// Mean training loss across workers.
    pub loss: f32,
    /// Epoch the round belonged to.
    pub epoch: u32,
}

/// Per-epoch outcome.
#[derive(Debug, Clone, Copy)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: u32,
    /// Mean training loss over the epoch.
    pub train_loss: f32,
    /// Test top-1 accuracy of worker 0's replica.
    pub top1: f64,
    /// Test top-5 accuracy of worker 0's replica.
    pub top5: f64,
}

/// The trainer.
pub struct DataParallelTrainer {
    cfg: ParallelConfig,
    models: Vec<Mlp>,
    opts: Vec<SgdMomentum>,
    /// Each worker's flat gradient, overwritten every round.
    grads: Vec<Vec<f32>>,
    hook: Box<dyn AggregateHook>,
    train: Dataset,
    test: Dataset,
    rng: Xoshiro256StarStar,
    round: u32,
    epoch: u32,
    telemetry: Option<Registry>,
    /// Modeled wall time of one synchronous round, recorded per round into
    /// the `mltrain.step_time_ns` histogram (see
    /// [`set_round_time_ns`](Self::set_round_time_ns)).
    round_time_ns: Option<u64>,
    step_hist: Option<Histogram>,
    tracer: Tracer,
}

impl DataParallelTrainer {
    /// Creates the trainer: every worker starts from the *same* seeded
    /// initialization (as DDP replicas do).
    #[must_use]
    pub fn new(
        dims: &[usize],
        train: Dataset,
        test: Dataset,
        hook: Box<dyn AggregateHook>,
        cfg: ParallelConfig,
    ) -> Self {
        assert!(cfg.workers >= 1, "need at least one worker");
        assert!(!train.is_empty(), "empty training set");
        let proto = Mlp::new(dims, cfg.seed);
        let n = proto.param_count();
        let models = vec![proto; cfg.workers];
        let opts = (0..cfg.workers)
            .map(|_| SgdMomentum::new(cfg.schedule.initial_lr, cfg.momentum, n))
            .collect();
        let grads = (0..cfg.workers).map(|_| vec![0.0; n]).collect();
        let rng = Xoshiro256StarStar::new(cfg.seed ^ 0xBA7C4);
        Self {
            cfg,
            models,
            opts,
            grads,
            hook,
            train,
            test,
            rng,
            round: 0,
            epoch: 0,
            telemetry: None,
            round_time_ns: None,
            step_hist: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a telemetry registry. Each [`run_epoch`](Self::run_epoch)
    /// then records its loss/accuracy under `mltrain.epoch.<n>.*` plus the
    /// rolling totals `mltrain.epochs`, `mltrain.rounds`,
    /// `mltrain.bytes_sent`.
    pub fn attach_telemetry(&mut self, registry: Registry) {
        self.step_hist = None; // re-register against the new registry
        self.telemetry = Some(registry);
    }

    /// Sets the modeled wall time of one synchronous round. While set and a
    /// registry is attached, every [`run_round`](Self::run_round) records
    /// the value into the `mltrain.step_time_ns` histogram — the trainer's
    /// step timer. Passing a registry scoped with
    /// `Registry::scoped("tenant.jobN")` lands it under the tenant's prefix.
    /// Drivers with a per-round time model re-set this as the model evolves.
    pub fn set_round_time_ns(&mut self, ns: u64) {
        self.round_time_ns = Some(ns);
    }

    /// Attaches a flight recorder. Each [`run_epoch`](Self::run_epoch) then
    /// emits one `epoch.tick` event carrying the mean training loss and
    /// worker 0's test top-1 accuracy, stamped `at = epoch index` (the trainer
    /// has no simulated clock).
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Total wire bytes the hook has moved.
    #[must_use]
    pub fn bytes_sent(&self) -> u64 {
        self.hook.bytes_sent()
    }

    /// Parameters per replica.
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.models[0].param_count()
    }

    /// Rounds executed so far.
    #[must_use]
    pub fn rounds_done(&self) -> u32 {
        self.round
    }

    /// Runs one synchronous round: per-worker batch → gradient → aggregate →
    /// per-worker update. The gradients are written into buffers the
    /// trainer keeps across rounds; the hook's views are the round's only
    /// parameter-sized allocations.
    pub fn run_round(&mut self) -> RoundStats {
        let lr = self.cfg.schedule.lr_at(self.epoch);
        let mut loss_sum = 0.0f32;
        for (model, grad) in self.models.iter().zip(&mut self.grads) {
            let idx = sample_indices(self.train.len(), self.cfg.batch_size, &mut self.rng);
            let (bx, by) = self.train.batch(&idx);
            loss_sum += model.loss_and_grad_into(&bx, &by, grad);
        }
        let views = self.hook.aggregate(&self.grads, self.epoch, self.round);
        for ((model, opt), view) in self.models.iter_mut().zip(&mut self.opts).zip(&views) {
            opt.lr = lr;
            opt.step_segments(model.param_segments_mut(), view);
        }
        self.round += 1;
        if let (Some(reg), Some(ns)) = (&self.telemetry, self.round_time_ns) {
            self.step_hist
                .get_or_insert_with(|| reg.histogram("mltrain.step_time_ns"))
                .record(ns);
        }
        RoundStats {
            loss: loss_sum / self.cfg.workers as f32,
            epoch: self.epoch,
        }
    }

    /// Runs one epoch (`rounds_per_epoch` rounds) and evaluates.
    pub fn run_epoch(&mut self) -> EpochStats {
        let mut loss_sum = 0.0f32;
        for _ in 0..self.cfg.rounds_per_epoch {
            loss_sum += self.run_round().loss;
        }
        let (top1, top5) = self.evaluate();
        let stats = EpochStats {
            epoch: self.epoch,
            train_loss: loss_sum / self.cfg.rounds_per_epoch as f32,
            top1,
            top5,
        };
        if let Some(reg) = &self.telemetry {
            let key = |field: &str| format!("mltrain.epoch.{}.{field}", stats.epoch);
            reg.float_gauge(&key("train_loss"))
                .set(f64::from(stats.train_loss));
            reg.float_gauge(&key("top1")).set(stats.top1);
            reg.float_gauge(&key("top5")).set(stats.top5);
            reg.counter("mltrain.epochs").inc();
            reg.counter("mltrain.rounds")
                .add(u64::from(self.cfg.rounds_per_epoch));
            reg.gauge("mltrain.bytes_sent")
                .set_max(self.hook.bytes_sent());
        }
        self.tracer
            .emit(u64::from(stats.epoch), || TraceEvent::EpochTick {
                epoch: stats.epoch,
                loss: f64::from(stats.train_loss),
                top1: stats.top1,
            });
        self.epoch += 1;
        stats
    }

    /// Test accuracy of worker 0's replica.
    #[must_use]
    pub fn evaluate(&self) -> (f64, f64) {
        let logits = self.models[0].forward(&self.test.x);
        (
            top1_accuracy(&logits, &self.test.y),
            top5_accuracy(&logits, &self.test.y),
        )
    }

    /// Worker 0's flat parameters (e.g. to shard for the FSDP experiments).
    #[must_use]
    pub fn params_of_worker0(&self) -> Vec<f32> {
        self.models[0].params_flat()
    }

    /// Maximum pairwise L2 distance between worker replicas — the divergence
    /// trimming introduces (zero for the lossless baseline).
    #[must_use]
    pub fn replica_divergence(&self) -> f64 {
        let params: Vec<Vec<f32>> = self.models.iter().map(Mlp::params_flat).collect();
        let mut max = 0.0f64;
        for i in 0..params.len() {
            for j in i + 1..params.len() {
                let d: f64 = params[i]
                    .iter()
                    .zip(&params[j])
                    .map(|(a, b)| (f64::from(*a) - f64::from(*b)).powi(2))
                    .sum();
                max = max.max(d.sqrt());
            }
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::gaussian_mixture;
    use trimgrad_collective::hooks::{BaselineHook, TrimmableHook};
    use trimgrad_quant::SchemeId;

    fn task(seed: u64) -> (Dataset, Dataset) {
        gaussian_mixture(5, 16, 60, 2.0, 0.9, seed).split(0.8, seed)
    }

    fn cfg() -> ParallelConfig {
        ParallelConfig {
            workers: 4,
            batch_size: 16,
            rounds_per_epoch: 10,
            ..ParallelConfig::default()
        }
    }

    #[test]
    fn baseline_training_learns_the_task() {
        let (train, test) = task(1);
        let mut t = DataParallelTrainer::new(
            &[16, 32, 5],
            train,
            test,
            Box::new(BaselineHook::new(4)),
            cfg(),
        );
        let first = t.run_epoch();
        let mut last = first;
        for _ in 0..25 {
            last = t.run_epoch();
        }
        assert!(
            last.top1 > 0.85,
            "baseline should learn: top1 {} (first {})",
            last.top1,
            first.top1
        );
        assert!(last.train_loss < first.train_loss);
        // Lossless aggregation keeps replicas in lock-step.
        assert!(t.replica_divergence() < 1e-4, "{}", t.replica_divergence());
        assert_eq!(t.rounds_done(), 26 * 10);
        assert!(t.bytes_sent() > 0);
    }

    #[test]
    fn trimmed_training_still_learns_with_rht() {
        let (train, test) = task(2);
        let hook = TrimmableHook::new(SchemeId::RhtOneBit, 4, 0.5, 0.0, 1024, 9);
        let mut t = DataParallelTrainer::new(&[16, 32, 5], train, test, Box::new(hook), cfg());
        for _ in 0..25 {
            t.run_epoch();
        }
        let (top1, top5) = t.evaluate();
        assert!(top1 > 0.8, "RHT@50% trim should still learn: top1 {top1}");
        assert!(top5 >= top1);
        // Lossy aggregation lets replicas drift, but only slightly.
        let div = t.replica_divergence();
        assert!(div > 0.0, "lossy hook must cause some divergence");
    }

    #[test]
    fn deterministic_given_seeds() {
        let run = || {
            let (train, test) = task(3);
            let mut t = DataParallelTrainer::new(
                &[16, 24, 5],
                train,
                test,
                Box::new(BaselineHook::new(2)),
                ParallelConfig {
                    workers: 2,
                    ..cfg()
                },
            );
            for _ in 0..3 {
                t.run_epoch();
            }
            t.evaluate()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn epoch_telemetry_records_accuracy_trajectory() {
        let (train, test) = task(5);
        let mut t = DataParallelTrainer::new(
            &[16, 24, 5],
            train,
            test,
            Box::new(BaselineHook::new(2)),
            ParallelConfig {
                workers: 2,
                ..cfg()
            },
        );
        let reg = Registry::new();
        t.attach_telemetry(reg.clone());
        let e0 = t.run_epoch();
        let e1 = t.run_epoch();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("mltrain.epochs"), 2);
        assert_eq!(snap.counter("mltrain.rounds"), 20);
        assert_eq!(snap.gauge("mltrain.bytes_sent"), t.bytes_sent());
        assert!((snap.float("mltrain.epoch.0.top1") - e0.top1).abs() < 1e-12);
        assert!((snap.float("mltrain.epoch.1.top1") - e1.top1).abs() < 1e-12);
        assert!(
            (snap.float("mltrain.epoch.1.train_loss") - f64::from(e1.train_loss)).abs() < 1e-12
        );
    }

    #[test]
    fn step_timer_records_rounds_under_the_registry_scope() {
        let (train, test) = task(7);
        let mut t = DataParallelTrainer::new(
            &[16, 24, 5],
            train,
            test,
            Box::new(BaselineHook::new(2)),
            ParallelConfig {
                workers: 2,
                ..cfg()
            },
        );
        let reg = Registry::new();
        t.attach_telemetry(reg.scoped("tenant.job3"));
        t.set_round_time_ns(55_000_000);
        t.run_epoch();
        let snap = reg.snapshot();
        let (count, sum, _) = snap
            .histogram("tenant.job3.mltrain.step_time_ns")
            .expect("step timer registered under the scope");
        assert_eq!(count, 10); // one per round
        assert_eq!(sum, 10 * 55_000_000);
        assert_eq!(snap.counter("tenant.job3.mltrain.epochs"), 1);
    }

    #[test]
    fn tracer_sees_one_epoch_tick_per_epoch() {
        let (train, test) = task(6);
        let mut t = DataParallelTrainer::new(
            &[16, 24, 5],
            train,
            test,
            Box::new(BaselineHook::new(2)),
            ParallelConfig {
                workers: 2,
                ..cfg()
            },
        );
        let tracer = Tracer::enabled(1 << 10);
        t.attach_tracer(tracer.clone());
        let e0 = t.run_epoch();
        let e1 = t.run_epoch();
        let trace = tracer.snapshot();
        let ticks: Vec<_> = trace
            .records
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::EpochTick { epoch, loss, top1 } => Some((r.at, epoch, loss, top1)),
                _ => None,
            })
            .collect();
        assert_eq!(ticks.len(), 2);
        assert_eq!(ticks[0].1, 0);
        assert_eq!(ticks[1].1, 1);
        assert_eq!(ticks[1].0, 1, "epoch index doubles as the timestamp");
        assert!((ticks[0].2 - f64::from(e0.train_loss)).abs() < 1e-12);
        assert!((ticks[1].3 - e1.top1).abs() < 1e-12);
    }

    #[test]
    fn param_count_counts_every_replica_parameter() {
        let (train, test) = task(4);
        let t = DataParallelTrainer::new(
            &[16, 8, 5],
            train,
            test,
            Box::new(BaselineHook::new(4)),
            cfg(),
        );
        assert_eq!(t.param_count(), 16 * 8 + 8 + 8 * 5 + 5);
    }
}
