//! Regenerates **Figure 4**: Time-To-Baseline-Accuracy vs trim rate.
//!
//! The target accuracy is what the uncompressed, congestion-free baseline
//! reaches (the paper's horizontal gray line is that baseline's training
//! time). The paper's shape (EXPERIMENTS.md says which parts reproduce):
//!
//! * at ≲ 0.5% trimming every compressed scheme is *slower* than the clean
//!   baseline (compression buys nothing, encoding costs time);
//! * at 0.5%–20%, the lightweight SQ/SD beat RHT;
//! * at ≥ 20–50%, RHT wins and is the only finisher at 50%.
//!
//! Every cell of the printed table is recorded in (and read back from) a
//! telemetry registry under `fig4.*`; the snapshot is saved to
//! `results/fig4_ttba.snapshot.json` (DNF medians serialize as `null`).
//!
//! Run: `cargo run --release -p trimgrad-bench --bin fig4_ttba`

use trimgrad::mltrain::timemodel::TimeModel;
use trimgrad::quant::SchemeId;
use trimgrad_bench::{
    fmt_secs, print_row, run_training, write_snapshot_file, ExpConfig, RunResult, FIG4_TRIM_RATES,
    SCHEMES,
};
use trimgrad_telemetry::{Registry, Snapshot};

const SEEDS: [u64; 5] = [7, 8, 9, 10, 11];

/// One training run per seed.
fn runs(scheme: Option<SchemeId>, congestion: f64, epochs: u32, tm: &TimeModel) -> Vec<RunResult> {
    SEEDS
        .iter()
        .map(|&seed| {
            let cfg = ExpConfig {
                scheme,
                congestion,
                seed,
            };
            run_training(&cfg, epochs, tm)
        })
        .collect()
}

/// Median sustained-crossing time across one run per seed, plus whether any
/// seed failed outright (the metastable-collapse signature of a biased
/// encoding). Median is DNF when a majority of seeds DNF.
fn median_crossing(runs: &[RunResult], target: f64, slack: f64) -> (f64, bool) {
    let mut times: Vec<f64> = runs
        .iter()
        .map(|r| {
            if r.diverged {
                f64::INFINITY
            } else {
                r.time_to_sustained_accuracy(target, slack)
                    .unwrap_or(f64::INFINITY)
            }
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let any_dnf = times.last().copied().unwrap_or(f64::INFINITY).is_infinite();
    (times[times.len() / 2], any_dnf)
}

/// Records one table cell into the summary registry.
fn record_cell(reg: &Registry, rate: f64, scheme: &str, median: f64, any_dnf: bool) {
    let prefix = format!("fig4.rate.{rate:.4}.{scheme}");
    reg.float_gauge(&format!("{prefix}.median_crossing_s"))
        .set(median);
    reg.gauge(&format!("{prefix}.any_dnf"))
        .set(u64::from(any_dnf));
}

/// Reads one table cell back out of the snapshot, formatted for printing;
/// `!` marks configurations where at least one seed never sustained the
/// target (training-failure events).
fn fmt_cell(snap: &Snapshot, rate: f64, scheme: &str) -> String {
    let prefix = format!("fig4.rate.{rate:.4}.{scheme}");
    let t = snap.float(&format!("{prefix}.median_crossing_s"));
    let any_dnf = snap.gauge(&format!("{prefix}.any_dnf")) == 1;
    let base = fmt_secs(t);
    if any_dnf && t.is_finite() {
        format!("{base}!")
    } else {
        base
    }
}

fn main() {
    let epochs = 100;
    let tm = TimeModel::default();
    let summary = Registry::new();

    // 1. The congestion-free uncompressed baseline defines the bar: median
    // settled accuracy over seeds, minus a point of tolerance. "Settled"
    // rather than "best" because the best epoch is often a lucky spike. The
    // same runs give the bar's own crossing time.
    let clean = runs(None, 0.0, epochs, &tm);
    let mut settled: Vec<f64> = clean.iter().map(RunResult::settled_top1).collect();
    settled.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let target = settled[settled.len() / 2] - 0.01;
    let slack = 0.02;
    let (baseline_time, _) = median_crossing(&clean, target, slack);
    assert!(
        baseline_time.is_finite(),
        "clean baseline must reach its own accuracy"
    );
    summary.float_gauge("fig4.target_top1").set(target);
    summary
        .float_gauge("fig4.baseline_clean_crossing_s")
        .set(baseline_time);

    // 2. Sweep every (rate, scheme) cell into the registry first...
    for &rate in &FIG4_TRIM_RATES {
        // Baseline under the same congestion (as drops).
        let (median, any_dnf) = median_crossing(&runs(None, rate, epochs, &tm), target, slack);
        record_cell(&summary, rate, "baseline", median, any_dnf);
        for &s in &SCHEMES {
            let (median, any_dnf) =
                median_crossing(&runs(Some(s), rate, epochs, &tm), target, slack);
            record_cell(&summary, rate, s.name(), median, any_dnf);
        }
    }

    // 3. ...then print the whole table from its snapshot.
    let snap = summary.snapshot();
    println!(
        "# Figure 4: time to baseline accuracy (target top-1 = {:.4})",
        snap.float("fig4.target_top1")
    );
    println!(
        "# NCCL no-congestion baseline: {}",
        fmt_secs(snap.float("fig4.baseline_clean_crossing_s"))
    );

    println!("# (median over seeds {SEEDS:?}, sustained-crossing criterion;");
    println!("#  '!' = at least one seed never sustained the target)");
    let widths = [9usize, 12, 12, 12, 12, 12];
    print_row(
        &[
            "trim".into(),
            "baseline".into(),
            "signmag".into(),
            "sq".into(),
            "sd".into(),
            "rht".into(),
        ],
        &widths,
    );
    for &rate in &FIG4_TRIM_RATES {
        let mut cells = vec![format!("{:.2}%", rate * 100.0)];
        cells.push(fmt_cell(&snap, rate, "baseline"));
        for &s in &SCHEMES {
            cells.push(fmt_cell(&snap, rate, s.name()));
        }
        print_row(&cells, &widths);
    }
    match write_snapshot_file("fig4_ttba", &[("summary".to_string(), snap)]) {
        Ok(path) => eprintln!("fig4_ttba: done (snapshot -> {})", path.display()),
        Err(e) => eprintln!("fig4_ttba: done (snapshot write failed: {e})"),
    }
}
