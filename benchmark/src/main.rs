//! The trimgrad benchmark driver. See README.md.
//!
//! `--workload W --seed N --seconds S --trace 0|1` runs one workload in this
//! process and ends its standard output with one JSON result line (the
//! contract `BENCHMARK.json` is written to). Without `--workload` it is the
//! suite: every workload, untraced then traced, each in a child process.
//! `run.sh` starts it from the repository root, so `benchmark/out` and
//! `BENCHMARK.json` are relative paths.

mod catalogue;
mod layers;
mod run;
mod suite;
mod trace;
mod util;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage: run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
       run.sh [--seed N] [--seconds S] [--quick | --check-repeat]
       run.sh --emit-manifest
workloads: codec_loopback train_fabric netsim_storm train_inject";

pub(crate) struct Cli {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub check_repeat: bool,
    pub emit_manifest: bool,
    /// Internal (the suite's children): a fixed round count instead of a
    /// timed window.
    pub rounds: Option<usize>,
    /// Internal (the width-2 child): print only the digest and round time.
    pub digest_only: bool,
    /// Internal (`run.sh`): how long `cargo build` took.
    pub build_s: f64,
}

fn parse() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 11,
        seconds: f64::from(catalogue::RUN_SECONDS),
        trace: false,
        quick: false,
        check_repeat: false,
        emit_manifest: false,
        rounds: None,
        digest_only: false,
        build_s: 0.0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: bad value {v}"))
        }
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a name")?),
            "--seed" => cli.seed = num(&flag, value("a number")?)?,
            "--seconds" => cli.seconds = num(&flag, value("a number")?)?,
            "--trace" => cli.trace = num::<u8>(&flag, value("0 or 1")?)? != 0,
            "--quick" => cli.quick = true,
            "--check-repeat" => cli.check_repeat = true,
            "--emit-manifest" => cli.emit_manifest = true,
            "--rounds" => cli.rounds = Some(num(&flag, value("a count")?)?),
            "--digest-only" => cli.digest_only = true,
            "--build-s" => cli.build_s = num(&flag, value("seconds")?)?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.seconds.is_nan() || cli.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if let Some(w) = &cli.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}"));
        }
    }
    Ok(cli)
}

/// JSON has no NaN or infinity; a metric that is either is reported as 0
/// (and an empty sum's `-0` as plain 0).
fn json_num(v: f64) -> f64 {
    if v.is_finite() && v != 0.0 {
        v
    } else {
        0.0
    }
}

fn main() -> ExitCode {
    let cli = match parse() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.emit_manifest {
        print!("{}", catalogue::manifest());
        return ExitCode::SUCCESS;
    }
    // Every number is taken at pool width 1 unless the caller pinned another
    // (the width-2 child). Nothing has read the variable yet, and no other
    // thread exists.
    if std::env::var_os("TRIMGRAD_THREADS").is_none() {
        std::env::set_var("TRIMGRAD_THREADS", "1");
    }
    let Some(workload) = cli.workload.clone() else {
        return suite::run(&cli);
    };
    // A panicking round is a failed round, reported once in the summary.
    std::panic::set_hook(Box::new(|_| {}));
    let report = run::run(&run::Args {
        workload: workload.clone(),
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        rounds: cli.rounds,
        build_s: cli.build_s,
        digest_only: cli.digest_only,
    });
    for why in &report.reasons {
        eprintln!("{workload}: FAILED {why}");
    }
    let mut json = String::new();
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let value = json_num(*value);
        println!("metric {workload} {name} {unit} {value}");
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed
    );
    ExitCode::SUCCESS
}
