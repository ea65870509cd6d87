//! The suite: every workload in its own child process, untraced then
//! traced; `results.json`; `--quick` validation; `--check-repeat`.

use crate::catalogue::{self, Metric, END_TO_END, PER_LAYER};
use crate::run::OUT_DIR;
use crate::util::{median, quartiles};
use crate::workloads::{pinned_rounds, NAMES};
use crate::Cli;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

const MANIFEST: &str = "BENCHMARK.json";
/// Runs per side of `--check-repeat`: the ten pairs the measuring rule asks
/// for.
const REPEAT_RUNS: usize = 10;

/// A box probe whose interquartile range over a child's run exceeds this
/// share of its median stamps the child's numbers `"noisy": true`.
const NOISY_DRIFT_PCT: f64 = 10.0;

struct Child {
    metrics: Vec<(String, String, f64)>,
    attempted: u64,
    failed: u64,
    exited_ok: bool,
    probe_ns: f64,
    drift_pct: f64,
}

impl Child {
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.2)
    }
}

/// Runs one workload in a child (for `rounds` rounds, or the timed window)
/// and reads back its `metric` and `info` lines and the counters of its
/// result line.
fn child(cli: &Cli, workload: &str, seed: u64, trace: bool, rounds: Option<usize>) -> Child {
    let mut cmd = Command::new(std::env::current_exe().expect("own path"));
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--build-s", &cli.build_s.to_string()])
        .env("TRIMGRAD_THREADS", "1")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(n) = rounds {
        cmd.args(["--rounds", &n.to_string()]);
    }
    let out = cmd.output();
    let mut c = Child {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        exited_ok: false,
        probe_ns: 0.0,
        drift_pct: 0.0,
    };
    let Ok(out) = out else { return c };
    c.exited_ok = out.status.success();
    let text = String::from_utf8_lossy(&out.stdout);
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f[..] {
            ["metric", _, name, unit, value] => {
                if let Ok(v) = value.parse() {
                    c.metrics.push((name.into(), unit.into(), v));
                }
            }
            ["info", _, "box_probe_ns", value] => c.probe_ns = value.parse().unwrap_or(0.0),
            ["info", _, "box_drift_pct", value] => c.drift_pct = value.parse().unwrap_or(0.0),
            _ => {}
        }
    }
    // The contract's result line is the last one; its two counters are the
    // only thing read back from it.
    let last = text.lines().last().unwrap_or("");
    let counter = |key: &str| -> u64 {
        last.split(key)
            .nth(1)
            .and_then(|rest| {
                let digits: String = rest
                    .trim_start_matches([':', ' '])
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect();
                digits.parse().ok()
            })
            .unwrap_or(0)
    };
    c.attempted = counter("\"attempted\"");
    c.failed = counter("\"failed\"");
    c
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn section(out: &mut String, key: &str, c: &Child) {
    let _ = write!(out, "      \"{key}\": {{");
    for (i, (name, unit, value)) in c.metrics.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{sep}\n        \"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("\n      }");
}

pub fn run(cli: &Cli) -> ExitCode {
    if cli.check_repeat {
        return check_repeat(cli);
    }
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"commit\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"quick\": {},\n  \
         \"nproc\": {nproc},\n  \"pool_width\": 1,\n  \"workloads\": {{",
        commit(),
        cli.seed,
        cli.seconds,
        cli.quick
    );
    let mut problems = Vec::new();
    for (i, workload) in NAMES.iter().enumerate() {
        let rounds = cli.quick.then_some(3);
        let plain = child(cli, workload, cli.seed, false, rounds);
        let traced = child(cli, workload, cli.seed, true, rounds);
        for c in [&plain, &traced] {
            for (name, unit, value) in &c.metrics {
                println!("{workload} {name} {unit} {value}");
            }
        }
        let noisy = plain.drift_pct > NOISY_DRIFT_PCT || traced.drift_pct > NOISY_DRIFT_PCT;
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            json,
            "{sep}\n    \"{workload}\": {{\n      \"noisy\": {noisy},\n      \
             \"box_probe_ns\": {},\n      \"box_drift_pct\": {},\n      \
             \"attempted\": {},\n      \"failed\": {},\n",
            plain.probe_ns,
            plain.drift_pct.max(traced.drift_pct),
            plain.attempted + traced.attempted,
            plain.failed + traced.failed
        );
        section(&mut json, "end_to_end", &plain);
        json.push_str(",\n");
        section(&mut json, "per_layer", &traced);
        json.push_str("\n    }");
        if !(plain.exited_ok && traced.exited_ok) {
            problems.push(format!("{workload}: a child exited with an error"));
        }
        if plain.failed + traced.failed > 0 {
            problems.push(format!(
                "{workload}: {} of {} rounds failed",
                plain.failed + traced.failed,
                plain.attempted + traced.attempted
            ));
        }
        if noisy {
            eprintln!("{workload}: box speed drifted over {NOISY_DRIFT_PCT}% — stamped noisy");
        }
        problems.extend(missing(workload, &plain, &END_TO_END));
        problems.extend(missing(workload, &traced, &PER_LAYER));
    }
    json.push_str("\n  }\n}\n");
    let path = Path::new(OUT_DIR).join("results.json");
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, json)) {
        problems.push(format!("cannot write {}: {e}", path.display()));
    } else {
        eprintln!("wrote {}", path.display());
    }
    problems.extend(manifest_problems());
    for p in &problems {
        eprintln!("PROBLEM {p}");
    }
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every catalogued metric must come back from the child, with its unit.
fn missing(workload: &str, c: &Child, specs: &[Metric]) -> Vec<String> {
    specs
        .iter()
        .filter(|spec| {
            !c.metrics
                .iter()
                .any(|(name, unit, _)| name == spec.name && unit == spec.unit)
        })
        .map(|spec| format!("{workload}: metric {} [{}] missing", spec.name, spec.unit))
        .collect()
}

/// The committed `BENCHMARK.json` must be the catalogue's manifest, and the
/// catalogue must respect the contract's limits.
fn manifest_problems() -> Vec<String> {
    let mut problems = Vec::new();
    match std::fs::read_to_string(MANIFEST) {
        Ok(text) if text == catalogue::manifest() => {}
        Ok(_) => problems.push(format!("{MANIFEST} differs from `run.sh --emit-manifest`")),
        Err(e) => problems.push(format!("cannot read {MANIFEST}: {e}")),
    }
    let mut seen = std::collections::BTreeSet::new();
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        if !catalogue::name_ok(m.name) {
            problems.push(format!("bad metric name {}", m.name));
        }
        if !catalogue::unit_ok(m.unit) {
            problems.push(format!("bad unit {} on {}", m.unit, m.name));
        }
        if !seen.insert(m.name) {
            problems.push(format!("metric name {} used twice", m.name));
        }
    }
    for m in &END_TO_END {
        if !(0.0..=0.25).contains(&m.bound) {
            problems.push(format!("bound of {} outside 0..0.25", m.name));
        }
    }
    for (name, why) in catalogue::WHY {
        if !catalogue::name_ok(name) || why.len() > 200 || why.contains('\n') {
            problems.push(format!("workload {name}: bad name or why"));
        }
    }
    if catalogue::manifest().len() > 64 * 1024 {
        problems.push("manifest over 64 KiB".into());
    }
    problems
}

/// Two sides of ten runs each, on this one build, seeds `seed..seed+10`.
/// The sides must agree on every end-to-end metric within the metric's own
/// bound; a metric whose run-to-run spread exceeds its bound cannot be
/// resolved either way and is reported as such, not as unchanged. For every
/// seed each side also runs the pinned epoch traced, and every metric the
/// catalogue marks exact (counts, simulated statistics, NMSE, loss, the
/// output digest) must be equal on the two sides.
fn check_repeat(cli: &Cli) -> ExitCode {
    let mut bad = 0;
    println!(
        "{:<15} {:<13} {:>10} {:>21} {:>10} {:>21} {:>8} {:>7}  verdict",
        "workload",
        "metric",
        "A median",
        "A quartiles",
        "B median",
        "B quartiles",
        "worse%",
        "bound%"
    );
    for workload in NAMES {
        let mut timed: [Vec<Child>; 2] = [Vec::new(), Vec::new()];
        let mut unequal = 0;
        let mut failed = 0;
        for i in 0..REPEAT_RUNS {
            let seed = cli.seed + i as u64;
            let mut pinned: [Option<Child>; 2] = [None, None];
            // Alternate which side runs first.
            for side in if i % 2 == 0 { [0, 1] } else { [1, 0] } {
                timed[side].push(child(cli, workload, seed, false, None));
                pinned[side] = Some(child(
                    cli,
                    workload,
                    seed,
                    true,
                    Some(pinned_rounds(workload)),
                ));
            }
            let [Some(a), Some(b)] = pinned else { continue };
            failed += a.failed + b.failed;
            for spec in PER_LAYER.iter().filter(|m| m.exact) {
                let (va, vb) = (a.get(spec.name), b.get(spec.name));
                if va.is_none() || va != vb {
                    unequal += 1;
                    println!(
                        "{workload} seed {seed}: {} differs: {va:?} vs {vb:?}",
                        spec.name
                    );
                }
            }
        }
        failed += timed.iter().flatten().map(|c| c.failed).sum::<u64>();
        if failed > 0 {
            println!("{workload}: {failed} rounds failed");
            bad += 1;
        }
        let exact = PER_LAYER.iter().filter(|m| m.exact).count();
        println!(
            "{workload:<15} {exact} exact metrics x {REPEAT_RUNS} seeds: {}",
            if unequal == 0 {
                "equal".into()
            } else {
                format!("{unequal} DIFFER")
            }
        );
        bad += usize::from(unequal > 0);
        for spec in &END_TO_END {
            let values = |side: usize| -> Vec<f64> {
                timed[side]
                    .iter()
                    .filter_map(|c| c.get(spec.name))
                    .collect()
            };
            let (a, b) = (values(0), values(1));
            let (ma, mb) = (median(&a), median(&b));
            let (qa, qb) = (quartiles(&a), quartiles(&b));
            let spread = |q: (f64, f64), m: f64| if m == 0.0 { 0.0 } else { (q.1 - q.0) / m };
            let worse = if ma == 0.0 {
                0.0
            } else if spec.higher {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let verdict = if a.len() != REPEAT_RUNS || b.len() != REPEAT_RUNS {
                bad += 1;
                "MISSING"
            } else if spec.name != "setup_s" && spread(qa, ma).max(spread(qb, mb)) > spec.bound {
                bad += 1;
                "UNRESOLVED (spread over bound)"
            } else if worse > spec.bound {
                bad += 1;
                "DISAGREE"
            } else {
                "agree"
            };
            println!(
                "{workload:<15} {:<13} {ma:>10.4} [{:>9.4},{:>9.4}] {mb:>10.4} [{:>9.4},{:>9.4}] {:>8.2} {:>7.1}  {verdict}",
                spec.name,
                qa.0,
                qa.1,
                qb.0,
                qb.1,
                100.0 * worse,
                100.0 * spec.bound
            );
        }
    }
    if bad == 0 {
        println!("check-repeat: both sides agree on every metric");
        ExitCode::SUCCESS
    } else {
        println!("check-repeat: {bad} problems");
        ExitCode::FAILURE
    }
}
