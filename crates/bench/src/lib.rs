//! Shared experiment harness for the figure-regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one figure or in-text table of
//! the paper (see `DESIGN.md`'s experiment index); this library holds the
//! common machinery: the training task, the per-configuration runner that
//! couples *measured* accuracy trajectories with the *modeled* round time,
//! and plain-text table printing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod microbench;

use trimgrad::collective::hooks::{AggregateHook, BaselineHook, TrimmableHook};
use trimgrad::mltrain::data::{gaussian_mixture, Dataset};
use trimgrad::mltrain::optim::StepLr;
use trimgrad::mltrain::parallel::{DataParallelTrainer, ParallelConfig};
use trimgrad::mltrain::timemodel::{RoundTime, TimeModel};
use trimgrad::quant::SchemeId;
use trimgrad_telemetry::{json_string, Registry, Snapshot};

/// Number of data-parallel workers in every training experiment.
pub const WORKERS: usize = 4;

/// Model shape used throughout (7.8k parameters — the synthetic stand-in
/// for VGG-19; see DESIGN.md's substitution table).
pub const MODEL_DIMS: [usize; 4] = [32, 64, 64, 10];

/// The trim rates the paper's Fig 3 panels use.
pub const FIG3_TRIM_RATES: [f64; 5] = [0.001, 0.01, 0.02, 0.10, 0.50];

/// The sweep for Fig 4 (time-to-baseline-accuracy).
pub const FIG4_TRIM_RATES: [f64; 8] = [0.001, 0.005, 0.01, 0.02, 0.05, 0.10, 0.20, 0.50];

/// The encodings under test, in the paper's order.
pub const SCHEMES: [SchemeId; 4] = [
    SchemeId::SignMagnitude,
    SchemeId::Stochastic,
    SchemeId::SubtractiveDither,
    SchemeId::RhtOneBit,
];

/// The fixed dataset seed: every run trains on the *same* task, so
/// crossing times are comparable across runs and seeds (per-run seeds vary
/// only model init, batch sampling, and trim patterns).
pub const TASK_SEED: u64 = 7;

/// Builds the standard classification task (train, test).
#[must_use]
pub fn standard_task(seed: u64) -> (Dataset, Dataset) {
    // Spread 1.4 puts the task's noise-free ceiling near 0.98 while leaving
    // convergence genuinely sensitive to gradient-compression error (see
    // EXPERIMENTS.md for the calibration notes).
    gaussian_mixture(10, 32, 120, 2.0, 1.4, seed).split(0.8, seed)
}

/// The standard trainer configuration.
#[must_use]
pub fn standard_config(seed: u64) -> ParallelConfig {
    ParallelConfig {
        workers: WORKERS,
        batch_size: 32,
        schedule: StepLr {
            // 0.1 sits at the edge where compression noise visibly costs
            // accuracy without destabilizing the clean baseline.
            initial_lr: 0.1,
            step_size: 30,
            gamma: 0.5,
        },
        momentum: 0.9,
        rounds_per_epoch: 20,
        seed,
    }
}

/// One experiment configuration: which hook (scheme) and which congestion
/// level the network is at.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// `None` = uncompressed NCCL-style baseline (reliable transport);
    /// `Some(s)` = trimmable encoding `s` over the trimming fabric.
    pub scheme: Option<SchemeId>,
    /// Congestion level: the fraction of packets trimmed (trimmable runs) or
    /// dropped (baseline runs).
    pub congestion: f64,
    /// Seed for the run.
    pub seed: u64,
}

impl ExpConfig {
    /// Display label, e.g. `rht@10%`.
    #[must_use]
    pub fn label(&self) -> String {
        match self.scheme {
            None => format!("baseline@{:.2}%", self.congestion * 100.0),
            Some(s) => format!("{}@{:.2}%", s.name(), self.congestion * 100.0),
        }
    }
}

/// One point of a training trajectory.
#[derive(Debug, Clone, Copy)]
pub struct TrajectoryPoint {
    /// Epoch index.
    pub epoch: u32,
    /// Modeled cumulative wall-clock seconds.
    pub wall_s: f64,
    /// Test top-1 accuracy.
    pub top1: f64,
    /// Test top-5 accuracy.
    pub top5: f64,
    /// Mean train loss of the epoch.
    pub loss: f32,
}

/// A full training run's result.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Configuration label.
    pub label: String,
    /// Per-epoch trajectory.
    pub trajectory: Vec<TrajectoryPoint>,
    /// Best top-1 reached.
    pub best_top1: f64,
    /// Whether training diverged (loss went non-finite or collapsed).
    pub diverged: bool,
    /// Per-round time decomposition used.
    pub round_time: RoundTime,
    /// Telemetry snapshot of the run: the trainer's `mltrain.*` series plus
    /// the harness's `bench.*` series (wall clock, divergence flag, time
    /// decomposition). The figure binaries report from this, not from
    /// private tallies.
    pub snapshot: Snapshot,
}

impl RunResult {
    /// The top-1 trajectory smoothed with a centered 3-epoch window, which
    /// removes the ±1-sample evaluation jitter near the accuracy ceiling.
    #[must_use]
    pub fn smoothed_top1(&self) -> Vec<f64> {
        let n = self.trajectory.len();
        (0..n)
            .map(|i| {
                let lo = i.saturating_sub(1);
                let hi = (i + 2).min(n);
                self.trajectory[lo..hi].iter().map(|p| p.top1).sum::<f64>() / (hi - lo) as f64
            })
            .collect()
    }

    /// First wall-clock time at which `target` (smoothed) top-1 was reached
    /// **and held**: every later epoch stays above `target − slack`. A run
    /// that touches the target during a transient but then degrades (the
    /// signature of a biased encoding) does not count as finished.
    #[must_use]
    pub fn time_to_sustained_accuracy(&self, target: f64, slack: f64) -> Option<f64> {
        let smooth = self.smoothed_top1();
        for i in 0..smooth.len() {
            if smooth[i] >= target && smooth[i..].iter().all(|&q| q >= target - slack) {
                return Some(self.trajectory[i].wall_s);
            }
        }
        None
    }

    /// Mean top-1 over the final five epochs (the settled accuracy).
    #[must_use]
    pub fn settled_top1(&self) -> f64 {
        let n = self.trajectory.len().min(5);
        if n == 0 {
            return 0.0;
        }
        self.trajectory
            .iter()
            .rev()
            .take(n)
            .map(|p| p.top1)
            .sum::<f64>()
            / n as f64
    }
}

/// Builds the aggregation hook for a configuration.
#[must_use]
pub fn hook_for(cfg: &ExpConfig) -> Box<dyn AggregateHook> {
    match cfg.scheme {
        None => Box::new(BaselineHook::new(WORKERS)),
        Some(s) => Box::new(TrimmableHook::new(
            s,
            WORKERS,
            cfg.congestion,
            0.0,
            1 << 12,
            cfg.seed ^ 0x7172,
        )),
    }
}

/// Runs one training configuration for `epochs` epochs, composing the
/// measured accuracy trajectory with the modeled per-round wall time.
#[must_use]
pub fn run_training(cfg: &ExpConfig, epochs: u32, time_model: &TimeModel) -> RunResult {
    let (train, test) = standard_task(TASK_SEED);
    let pcfg = standard_config(cfg.seed);
    let rounds_per_epoch = pcfg.rounds_per_epoch;
    let mut trainer = DataParallelTrainer::new(&MODEL_DIMS, train, test, hook_for(cfg), pcfg);
    let registry = Registry::new();
    trainer.attach_telemetry(registry.clone());

    // Wire bytes per round: measure the first epoch's traffic.
    let coords = trainer.param_count() as u64;
    let mut trajectory = Vec::with_capacity(epochs as usize);
    let mut best = 0.0f64;
    let mut diverged = false;
    let mut round_time = RoundTime {
        compute_s: time_model.compute_s,
        encode_s: 0.0,
        comm_s: 0.0,
    };
    let mut wall = 0.0f64;
    for e in 0..epochs {
        let stats = trainer.run_epoch();
        // Bytes per round averaged over everything so far (stable after
        // epoch one); scale to the paper's gradient size so the time model
        // operates in its calibrated regime.
        let bytes_per_round =
            (trainer.bytes_sent() as f64 / f64::from(trainer.rounds_done())) as u64;
        let scale = 25_000_000.0 / (coords as f64 * 4.0); // as if 25 MB buckets
        let wire_bytes = (bytes_per_round as f64 * scale) as u64;
        let scaled_coords = (coords as f64 * scale) as u64;
        round_time = time_model.round_time(cfg.scheme, scaled_coords, wire_bytes, cfg.congestion);
        // Feed the modeled round time back as the trainer's step timer so
        // `mltrain.step_time_ns` tracks the same trajectory the TTA plots
        // integrate (first epoch runs before a model estimate exists).
        trainer.set_round_time_ns((round_time.total() * 1e9) as u64);
        wall += round_time.total() * f64::from(rounds_per_epoch);
        if !stats.train_loss.is_finite() || stats.train_loss > 50.0 {
            diverged = true;
        }
        best = best.max(stats.top1);
        registry
            .float_gauge(&format!("bench.epoch.{e}.wall_s"))
            .set(wall);
        trajectory.push(TrajectoryPoint {
            epoch: e,
            wall_s: wall,
            top1: stats.top1,
            top5: stats.top5,
            loss: stats.train_loss,
        });
        if diverged {
            break;
        }
    }
    registry.float_gauge("bench.best_top1").set(best);
    registry.gauge("bench.diverged").set(u64::from(diverged));
    registry
        .gauge("bench.bytes_sent")
        .set_max(trainer.bytes_sent());
    registry
        .float_gauge("bench.round_time.compute_s")
        .set(round_time.compute_s);
    registry
        .float_gauge("bench.round_time.encode_s")
        .set(round_time.encode_s);
    registry
        .float_gauge("bench.round_time.comm_s")
        .set(round_time.comm_s);
    RunResult {
        label: cfg.label(),
        trajectory,
        best_top1: best,
        diverged,
        round_time,
        snapshot: registry.snapshot(),
    }
}

/// Directory snapshot JSON files go to: `$TRIMGRAD_SNAPSHOT_DIR` when set,
/// `results/` otherwise.
#[must_use]
pub fn snapshot_dir() -> std::path::PathBuf {
    std::env::var_os("TRIMGRAD_SNAPSHOT_DIR")
        .map_or_else(|| std::path::PathBuf::from("results"), Into::into)
}

/// Serializes labeled snapshots as one JSON object
/// (`{"label": {<snapshot>}, ...}`), preserving entry order.
#[must_use]
pub fn snapshots_to_json(entries: &[(String, Snapshot)]) -> String {
    let mut out = String::from("{\n");
    for (i, (label, snap)) in entries.iter().enumerate() {
        let body = snap.to_json();
        let mut lines = body.lines();
        out.push_str("  ");
        out.push_str(&json_string(label));
        out.push_str(": ");
        out.push_str(lines.next().unwrap_or("{"));
        for line in lines {
            out.push('\n');
            out.push_str("  ");
            out.push_str(line);
        }
        if i + 1 < entries.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push('}');
    out.push('\n');
    out
}

/// Writes labeled snapshots to `<snapshot_dir>/<name>.snapshot.json` and
/// returns the path. The figure binaries call this so every `results/*.txt`
/// table has a machine-readable sibling.
///
/// # Errors
///
/// I/O errors creating the directory or writing the file.
pub fn write_snapshot_file(
    name: &str,
    entries: &[(String, Snapshot)],
) -> std::io::Result<std::path::PathBuf> {
    let dir = snapshot_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.snapshot.json"));
    std::fs::write(&path, snapshots_to_json(entries))?;
    Ok(path)
}

/// Prints a fixed-width table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let line: Vec<String> = cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect();
    println!("{}", line.join("  "));
}

/// Formats seconds human-readably.
#[must_use]
pub fn fmt_secs(s: f64) -> String {
    if s.is_infinite() {
        "DNF".to_string()
    } else if s >= 100.0 {
        format!("{s:.0}s")
    } else {
        format!("{s:.1}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_descriptive() {
        let c = ExpConfig {
            scheme: Some(SchemeId::RhtOneBit),
            congestion: 0.5,
            seed: 0,
        };
        assert_eq!(c.label(), "rht@50.00%");
        let b = ExpConfig {
            scheme: None,
            congestion: 0.01,
            seed: 0,
        };
        assert_eq!(b.label(), "baseline@1.00%");
    }

    #[test]
    fn short_training_run_produces_trajectory() {
        let cfg = ExpConfig {
            scheme: Some(SchemeId::RhtOneBit),
            congestion: 0.1,
            seed: 3,
        };
        let r = run_training(&cfg, 3, &TimeModel::default());
        assert_eq!(r.trajectory.len(), 3);
        assert!(!r.diverged);
        assert!(r.trajectory[2].wall_s > r.trajectory[0].wall_s);
        assert!(r.best_top1 > 0.0);
        assert!(r.round_time.encode_s > 0.0);
    }

    #[test]
    fn run_snapshot_reports_the_trajectory() {
        let cfg = ExpConfig {
            scheme: Some(SchemeId::RhtOneBit),
            congestion: 0.1,
            seed: 3,
        };
        let r = run_training(&cfg, 3, &TimeModel::default());
        assert_eq!(r.snapshot.counter("mltrain.epochs"), 3);
        for p in &r.trajectory {
            let top1 = r.snapshot.float(&format!("mltrain.epoch.{}.top1", p.epoch));
            assert!((top1 - p.top1).abs() < 1e-12);
            let wall = r.snapshot.float(&format!("bench.epoch.{}.wall_s", p.epoch));
            assert!((wall - p.wall_s).abs() < 1e-12);
        }
        assert_eq!(r.snapshot.gauge("bench.diverged"), 0);
        assert!(r.snapshot.float("bench.round_time.encode_s") > 0.0);
    }

    #[test]
    fn labeled_snapshot_json_is_deterministic() {
        let reg = trimgrad_telemetry::Registry::new();
        reg.counter("a.count").add(2);
        reg.float_gauge("b.val").set(0.5);
        let entries = vec![
            ("first".to_string(), reg.snapshot()),
            ("second".to_string(), reg.snapshot()),
        ];
        let j = snapshots_to_json(&entries);
        assert!(j.starts_with("{\n  \"first\": {\n"), "{j}");
        assert!(j.contains("\"a.count\""));
        assert!(j.trim_end().ends_with('}'));
        assert_eq!(j, snapshots_to_json(&entries));
    }

    #[test]
    fn fmt_secs_forms() {
        assert_eq!(fmt_secs(f64::INFINITY), "DNF");
        assert_eq!(fmt_secs(5.25), "5.2s");
        assert_eq!(fmt_secs(250.0), "250s");
    }
}
