//! Regenerates **Figure 3**: Time-To-Accuracy curves.
//!
//! For each trim rate (panel) and each encoding (series), trains the
//! standard task and prints top-1 accuracy as a function of modeled wall
//! clock. The paper's qualitative claims to check:
//!
//! * sign-magnitude diverges (or stalls far below baseline) at rates ≥ 2%;
//! * RHT is slower per epoch but reaches higher accuracy at high trim rates;
//! * at 50%, RHT is the only scheme near baseline accuracy.
//!
//! Every printed number is read back out of the run's telemetry snapshot
//! (`mltrain.epoch.*` / `bench.epoch.*`), and the snapshots themselves are
//! saved to `results/fig3_tta.snapshot.json`.
//!
//! Run: `cargo run --release -p trimgrad-bench --bin fig3_tta`

use trimgrad::mltrain::timemodel::TimeModel;
use trimgrad_bench::{run_training, write_snapshot_file, ExpConfig, FIG3_TRIM_RATES, SCHEMES};

fn main() {
    let epochs = 100;
    let tm = TimeModel::default();
    let mut snapshots = Vec::new();
    println!("# Figure 3: top-1 accuracy vs wall-clock (modeled) per trim rate");
    println!("# columns: trim_rate scheme epoch wall_s top1 top5 loss");
    for &rate in &FIG3_TRIM_RATES {
        // The uncompressed baseline experiences the same congestion as drops.
        let mut configs = vec![ExpConfig {
            scheme: None,
            congestion: rate,
            seed: 7,
        }];
        configs.extend(SCHEMES.iter().map(|&s| ExpConfig {
            scheme: Some(s),
            congestion: rate,
            seed: 7,
        }));
        for cfg in configs {
            let r = run_training(&cfg, epochs, &tm);
            let name = cfg
                .scheme
                .map_or("baseline".to_string(), |s| s.name().to_string());
            // Report from the telemetry snapshot, not the in-memory
            // trajectory: the snapshot is the artifact of record.
            let snap = &r.snapshot;
            for e in 0..snap.counter("mltrain.epochs") {
                println!(
                    "{:.4} {} {} {:.3} {:.4} {:.4} {:.4}",
                    rate,
                    name,
                    e,
                    snap.float(&format!("bench.epoch.{e}.wall_s")),
                    snap.float(&format!("mltrain.epoch.{e}.top1")),
                    snap.float(&format!("mltrain.epoch.{e}.top5")),
                    snap.float(&format!("mltrain.epoch.{e}.train_loss")),
                );
            }
            if snap.gauge("bench.diverged") == 1 {
                println!("# {} DIVERGED at trim rate {:.1}%", name, rate * 100.0);
            }
            snapshots.push((format!("{:.4}/{}", rate, r.label), r.snapshot));
        }
        println!();
    }
    match write_snapshot_file("fig3_tta", &snapshots) {
        Ok(path) => eprintln!(
            "fig3_tta: done ({} snapshots -> {})",
            snapshots.len(),
            path.display()
        ),
        Err(e) => eprintln!("fig3_tta: done (snapshot write failed: {e})"),
    }
}
