//! One workload, one process: set-up, the timed plain pass, and (with
//! `--trace 1`) the staged traced pass and the per-layer metrics.
//!
//! Every duration is reported **at nominal box speed**: the box probe
//! (`util::BoxProbe`) runs before and after every round and every set-up,
//! and a duration is scaled by `NOMINAL_PROBE_NS / probe`.

use crate::catalogue::{Metric, END_TO_END, PER_LAYER};
use crate::layers;
use crate::trace::{Span, Tracer};
use crate::util::{self, median, BoxProbe, Digest, NOMINAL_PROBE_NS};
use crate::workloads::{self, Epoch, Outcome, Workload};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

/// Where the trace files and `results.json` go (`run.sh` starts the driver
/// from the repository root).
pub const OUT_DIR: &str = "benchmark/out";

const WARMUP_ROUNDS: u32 = 2;
const SETUPS: usize = 3;
/// A run of this many rejected rounds in a row ends the pass early: the
/// state is beyond recovery and the remaining window would only repeat it.
const GIVE_UP_AFTER: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Fixed round count instead of a timed window (`--quick`, the
    /// width-2 child, `--check-repeat`'s pinned-epoch children).
    pub rounds: Option<usize>,
    pub build_s: f64,
    /// Print only `digest` and `round_ms` lines (the width-2 child).
    pub digest_only: bool,
}

pub struct Report {
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

/// One attempted round: what it produced (`None`: it panicked) and the box
/// probe around it (mean of the run before and the run after).
struct Round {
    out: Option<Outcome>,
    probe_ns: f64,
}

impl Round {
    fn ok(&self) -> Option<&Outcome> {
        self.out.as_ref().filter(|o| o.verdict.is_none())
    }
}

#[derive(Default)]
struct Pass {
    rounds: Vec<Round>,
    failed: u64,
    reasons: Vec<String>,
    /// `VmHWM` when the pinned epoch ended: a point every run reaches after
    /// the same sequence of allocations, however many rounds follow.
    rss_at_pinned_mb: f64,
}

impl Pass {
    fn record(&mut self, round: u32, out: Result<Outcome, String>, probe_ns: f64) {
        let out = match out {
            Ok(o) => {
                if let Some(why) = &o.verdict {
                    self.fail(round, why.clone());
                }
                Some(o)
            }
            Err(panic) => {
                self.fail(round, format!("panic: {panic}"));
                None
            }
        };
        self.rounds.push(Round { out, probe_ns });
    }

    fn fail(&mut self, round: u32, why: String) {
        self.failed += 1;
        if self.reasons.len() < 8 {
            self.reasons.push(format!("round {round}: {why}"));
        }
    }

    fn attempted(&self) -> usize {
        self.rounds.len()
    }

    fn consecutive_failures(&self) -> usize {
        self.rounds
            .iter()
            .rev()
            .take_while(|r| r.ok().is_none())
            .count()
    }

    fn ok(&self) -> impl Iterator<Item = (&Outcome, f64)> {
        self.rounds
            .iter()
            .filter_map(|r| r.ok().map(|o| (o, r.probe_ns)))
    }

    /// Each accepted round at nominal box speed, by its own two probes.
    fn rounds_ms(&self) -> Vec<f64> {
        self.ok()
            .map(|(o, p)| o.host_ns as f64 / p * NOMINAL_PROBE_NS / 1e6)
            .collect()
    }

    /// The accepted rounds `[from, from + n)` by attempt index, if the pass
    /// got that far.
    fn epoch(&self, from: usize, n: usize) -> Option<Vec<&Outcome>> {
        let rounds = self.rounds.get(from..from + n)?;
        Some(rounds.iter().filter_map(Round::ok).collect())
    }

    /// Mean round at nominal box speed: round time over probe time, both
    /// summed over the whole pass so that a probe that misses a speed change
    /// inside one round averages out.
    fn round_ms(&self) -> f64 {
        let host: f64 = self.ok().map(|(o, _)| o.host_ns as f64).sum();
        let probe: f64 = self.ok().map(|(_, p)| p).sum();
        if probe > 0.0 {
            host / probe * NOMINAL_PROBE_NS / 1e6
        } else {
            0.0
        }
    }

    /// Each round's digest by round index (0 for a panicked round).
    fn digests(&self) -> Vec<u64> {
        self.rounds
            .iter()
            .map(|r| r.out.as_ref().map_or(0, |o| o.digest))
            .collect()
    }

    fn epoch_digest(&self, pinned: usize) -> u64 {
        let mut d = Digest::new();
        for v in self.digests().iter().take(pinned) {
            d.u64(*v);
        }
        d.raw()
    }

    fn probes(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.probe_ns).collect()
    }
}

fn guarded(f: impl FnOnce() -> Outcome) -> Result<Outcome, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "non-string panic".into())
    })
}

/// Builds the workload and warms it up. Returns it with the set-up's
/// duration in seconds at nominal box speed.
fn set_up(name: &str, seed: u64, probe: &mut BoxProbe) -> (Box<dyn Workload>, f64) {
    let before = probe.run();
    let start = Instant::now();
    let mut w = workloads::build(name, seed).expect("workload name checked by the caller");
    for r in 0..WARMUP_ROUNDS {
        // A failing warm-up round fails again in the timed pass, where it
        // is counted.
        let _ = guarded(|| w.plain_round(r));
    }
    let raw = start.elapsed().as_secs_f64();
    let after = probe.run();
    (w, raw * NOMINAL_PROBE_NS / ((before + after) / 2.0))
}

/// Runs rounds while `more(done, elapsed)` holds, the box probe between
/// every two.
fn pass(
    probe: &mut BoxProbe,
    first_round: u32,
    mut more: impl FnMut(usize, Duration) -> bool,
    mut round_fn: impl FnMut(u32) -> Outcome,
    mut after_round: impl FnMut(&mut Pass),
) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    let mut before = probe.run();
    while more(pass.attempted(), start.elapsed()) && pass.consecutive_failures() < GIVE_UP_AFTER {
        let round = first_round + pass.attempted() as u32;
        let out = guarded(|| round_fn(round));
        let after = probe.run();
        pass.record(round, out, (before + after) / 2.0);
        before = after;
        after_round(&mut pass);
    }
    pass
}

pub fn run(args: &Args) -> Report {
    let t0 = Instant::now();
    let mut probe = BoxProbe::new();
    let n_setups = if args.trace || args.rounds.is_some() {
        1
    } else {
        SETUPS
    };
    let mut setups = Vec::with_capacity(n_setups);
    let mut w = None;
    for _ in 0..n_setups {
        drop(w.take());
        let (built, s) = set_up(&args.workload, args.seed, &mut probe);
        setups.push(s);
        w = Some(built);
    }
    let mut w = w.expect("at least one set-up");
    let setup_s = median(&setups);

    // The traced run splits its window between the two passes.
    let window = Duration::from_secs_f64(args.seconds / if args.trace { 2.0 } else { 1.0 });
    let pinned = workloads::pinned_rounds(&args.workload);
    let mut plain = pass(
        &mut probe,
        WARMUP_ROUNDS,
        |done, elapsed| match args.rounds {
            Some(n) => done < n,
            None => done < pinned || elapsed < window,
        },
        |round| w.plain_round(round),
        |pass| {
            if pass.attempted() == pinned {
                pass.rss_at_pinned_mb = util::peak_rss_mb();
            }
        },
    );
    // The epoch oracle: the limits on accuracy, bytes and simulated time.
    let plain_epoch = plain.epoch(0, pinned).map(|e| Epoch::of(w.as_ref(), &e));
    if let Some(why) = plain_epoch.and_then(|e| e.verdict(&w.caps())) {
        plain.fail(pinned as u32, why);
    }
    if plain.rss_at_pinned_mb == 0.0 {
        // `--rounds` stopped short of the pinned epoch.
        plain.rss_at_pinned_mb = util::peak_rss_mb();
    }

    if args.digest_only {
        println!("digest {}", plain.epoch_digest(pinned));
        println!("round_ms {}", plain.round_ms());
        std::process::exit(i32::from(plain.failed > 0));
    }

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("round_ms", plain.round_ms());
    m.insert("setup_s", setup_s);
    m.insert("peak_rss_mb", plain.rss_at_pinned_mb);

    let mut report = Report {
        metrics: Vec::new(),
        attempted: plain.attempted().max(1) as u64,
        failed: plain.failed,
        reasons: plain.reasons.clone(),
    };
    let mut probes = plain.probes();
    if args.trace {
        let traced = traced_pass(args, w.as_mut(), &plain, window, &mut probe);
        report.attempted += traced.pass.attempted() as u64;
        report.failed += traced.pass.failed;
        report.reasons.extend(traced.pass.reasons.iter().cloned());
        probes.extend(traced.pass.probes());
        m.extend(traced.metrics);
        plain_outcomes(&mut m, w.as_ref(), &plain, pinned);
        m.insert(
            "e2e.failed_share",
            report.failed as f64 / report.attempted as f64,
        );
        m.insert("bench.build_s", args.build_s);
    }
    // How fast, and how steady, the box was while this run measured.
    let box_probe_ns = median(&probes);
    let (q1, q3) = util::quartiles(&probes);
    let box_drift_pct = 100.0 * (q3 - q1) / box_probe_ns.max(1.0);
    m.insert("bench.box_probe_ns", box_probe_ns);
    m.insert("bench.box_drift_pct", box_drift_pct);
    println!("info {} box_probe_ns {box_probe_ns}", args.workload);
    println!("info {} box_drift_pct {box_drift_pct}", args.workload);

    let wanted: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for spec in wanted {
        let v = m.get(spec.name).copied().unwrap_or(0.0);
        report.metrics.push((spec.name, v, spec.unit));
    }
    eprintln!(
        "{}: {} rounds in {:.1}s (seed {}, trace {}, box probe {:.2} ms, drift {:.0}%)",
        args.workload,
        report.attempted,
        t0.elapsed().as_secs_f64(),
        args.seed,
        u8::from(args.trace),
        box_probe_ns / 1e6,
        box_drift_pct
    );
    report
}

/// What the plain pass says beyond `round_ms`: the outcomes the contract
/// keeps out of `end_to_end` (see catalogue.rs) and the pass's own shape.
fn plain_outcomes(
    m: &mut BTreeMap<&'static str, f64>,
    w: &dyn Workload,
    plain: &Pass,
    pinned: usize,
) {
    let pinned = pinned.min(plain.attempted());
    let rounds = plain.epoch(0, pinned).unwrap_or_default();
    let epoch = Epoch::of(w, &rounds);
    let round_ms = plain.round_ms();
    let rounds_per_s = if round_ms > 0.0 { 1e3 / round_ms } else { 0.0 };
    m.insert("e2e.coords_per_s", w.coords() as f64 * rounds_per_s);
    if let Some(s) = rounds.iter().find_map(|o| o.sim) {
        m.insert("e2e.sim_events_per_s", s.events as f64 * rounds_per_s);
    }
    m.insert("e2e.sim_round_us", epoch.sim_round_us);
    m.insert("e2e.agg_nmse", epoch.agg_nmse);
    m.insert("e2e.wire_bytes_per_coord", epoch.wire_bytes_per_coord);
    m.insert("e2e.final_loss", epoch.final_loss);
    m.insert("bench.output_digest", {
        let mut d = Digest::new();
        d.u64(plain.epoch_digest(pinned));
        d.value()
    });
    let ms = plain.rounds_ms();
    m.insert("bench.rounds", ms.len() as f64);
    let (pct, tail_ms) = util::tail(&ms);
    m.insert("bench.round_tail_ms", tail_ms);
    println!(
        "info bench.round_tail_ms is percentile {pct} of {} rounds",
        ms.len()
    );
    m.insert("bench.round_iqr_pct", util::iqr_pct(&ms));
    m.insert("mltrain.params", w.params() as f64);
    m.insert("mltrain.replica_divergence", w.replica_divergence());
    m.insert("par.pool_width", layers::pool_width() as f64);
}

struct Traced {
    metrics: BTreeMap<&'static str, f64>,
    pass: Pass,
}

/// The staged pass: same inputs from round 0, every layer call in a span,
/// each round's digest checked against the plain pass's.
fn traced_pass(
    args: &Args,
    w: &mut dyn Workload,
    plain: &Pass,
    window: Duration,
    probe: &mut BoxProbe,
) -> Traced {
    let round_ms = plain.round_ms();
    let baseline_ms = w.baseline_round_ms(10, probe);
    w.begin_traced();
    let mut t = Tracer::new(true);
    // The staged pass starts from round 0, the plain pass after the warm-up
    // rounds: staged round `skip + i` is plain round `i`. The plain pass is
    // the reference: stop where it did.
    let skip = WARMUP_ROUNDS as usize;
    let reference = plain.digests();
    let limit = reference.len() + skip;
    let mut traced = pass(
        probe,
        0,
        |done, elapsed| {
            done < limit
                && match args.rounds {
                    Some(_) => true,
                    None => done < 5 || elapsed < window,
                }
        },
        |round| w.traced_round(&mut t, round),
        |_| {},
    );
    let pinned = workloads::pinned_rounds(&args.workload);
    let staged_epoch = traced.epoch(skip, pinned).map(|e| Epoch::of(w, &e));
    if let Some(why) = staged_epoch.and_then(|e| e.verdict(&w.caps())) {
        traced.fail((skip + pinned) as u32, format!("staged: {why}"));
    }
    if w.staged_is_plain() {
        for (i, got) in traced.digests().iter().enumerate().skip(skip) {
            if reference[i - skip] != *got {
                traced.fail(i as u32, "staged output differs from the plain pass".into());
            }
        }
    }
    let mut m = layer_metrics(&t, &traced, round_ms);
    m.insert("mltrain.baseline_round_ms", baseline_ms);
    if baseline_ms > 0.0 {
        m.insert(
            "bench.encode_overhead_pct",
            100.0 * (round_ms / baseline_ms - 1.0),
        );
    }
    if let Some(scheme) = w.scheme() {
        let codec_ns: f64 = [
            "quant.encode_ns_per_coord",
            "quant.decode_mixed_ns_per_coord",
            "hadamard.forward_ns_per_coord",
            "hadamard.inverse_ns_per_coord",
        ]
        .iter()
        .map(|k| m.get(k).copied().unwrap_or(0.0))
        .sum();
        if codec_ns > 0.0 {
            m.insert(
                "mltrain.timemodel_codec_ratio",
                layers::timemodel_codec_s(scheme, 1_000_000) * 1e3 / codec_ns,
            );
        }
    }
    if args.workload == "codec_loopback" && args.rounds.is_none() {
        match width2_ratio(args, plain, pinned) {
            Ok(ratio) => {
                m.insert("par.width2_round_ratio", ratio);
            }
            Err(why) => traced.fail(0, why),
        }
    }
    let path = Path::new(OUT_DIR).join(format!("trace_{}.json", args.workload));
    if let Err(e) = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, t.to_json(&args.workload, args.seed)))
    {
        eprintln!("cannot write {}: {e}", path.display());
    }
    Traced {
        metrics: m,
        pass: traced,
    }
}

/// Re-runs the pinned epoch in a child at `TRIMGRAD_THREADS=2` and returns
/// its round time over this run's; the child's digest must equal ours.
fn width2_ratio(args: &Args, plain: &Pass, pinned: usize) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .env("TRIMGRAD_THREADS", "2")
        .args(["--workload", &args.workload, "--digest-only"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--rounds", &pinned.to_string()])
        .output()
        .map_err(|e| format!("width-2 child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .map(str::trim)
    };
    if field("digest ").and_then(|v| v.parse().ok()) != Some(plain.epoch_digest(pinned)) {
        return Err("width-2 output differs from width 1".into());
    }
    let ms: f64 = field("round_ms ")
        .and_then(|v| v.parse().ok())
        .ok_or("width-2 child printed no round_ms")?;
    Ok(ms / plain.round_ms())
}

/// The spans of the rounds the oracle accepted, grouped by round, with
/// every duration scaled to nominal box speed by its round's probe.
struct PerRound {
    rounds: Vec<Vec<Span>>,
    /// Summed child durations by span id (scaled like the spans).
    child_ns: Vec<f64>,
}

impl PerRound {
    fn new(t: &Tracer, pass: &Pass) -> Self {
        let mut rounds = Vec::new();
        let mut child_ns = vec![0f64; t.spans.len() + 1];
        for (i, r) in pass.rounds.iter().enumerate() {
            if r.ok().is_none() {
                continue;
            }
            let speed = NOMINAL_PROBE_NS / r.probe_ns;
            let scaled: Vec<Span> = t
                .spans
                .iter()
                .filter(|s| s.round == i as u32)
                .map(|s| Span {
                    end_ns: s.start_ns + (s.dur_ns() as f64 * speed) as u64,
                    counts: s
                        .counts
                        .iter()
                        .map(|&(k, v)| match k {
                            "off_clock_ns" => (k, (v as f64 * speed) as u64),
                            _ => (k, v),
                        })
                        .collect(),
                    ..*s
                })
                .collect();
            for s in &scaled {
                child_ns[s.parent as usize] += s.dur_ns() as f64;
            }
            rounds.push(scaled);
        }
        Self { rounds, child_ns }
    }

    /// Median over rounds of `f(that round's spans named name)`.
    fn med(&self, name: &str, f: impl Fn(&[&Span]) -> f64) -> f64 {
        let per: Vec<f64> = self
            .rounds
            .iter()
            .map(|r| f(&r.iter().filter(|s| s.name == name).collect::<Vec<_>>()))
            .collect();
        median(&per)
    }

    fn ms(&self, name: &str) -> f64 {
        self.med(name, |s| dur(s) / 1e6)
    }

    /// Self time: duration minus direct children's, real or replayed.
    fn self_ns(&self, spans: &[&Span]) -> f64 {
        spans
            .iter()
            .map(|s| (s.dur_ns() as f64 - self.child_ns[s.id as usize]).max(0.0))
            .sum()
    }

    fn self_ms(&self, name: &str) -> f64 {
        self.med(name, |s| self.self_ns(s) / 1e6)
    }

    /// Sum of count `key` over every span named `name` in the pass.
    fn total(&self, name: &str, key: &str) -> f64 {
        self.rounds
            .iter()
            .flatten()
            .filter(|s| s.name == name)
            .map(|s| s.count(key) as f64)
            .sum()
    }
}

fn real<'a>(spans: &[&'a Span]) -> Vec<&'a Span> {
    spans.iter().copied().filter(|s| !s.replay).collect()
}

fn dur(spans: &[&Span]) -> f64 {
    spans.iter().map(|s| s.dur_ns() as f64).sum()
}

fn cnt(spans: &[&Span], key: &str) -> f64 {
    spans.iter().map(|s| s.count(key) as f64).sum()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn layer_metrics(t: &Tracer, pass: &Pass, plain_round_ms: f64) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let pr = PerRound::new(t, pass);
    // Time per unit of count `key`, over a round's spans named `name`.
    let per = |name: &'static str, key: &'static str, own: bool| {
        pr.med(name, |s| {
            ratio(if own { pr.self_ns(s) } else { dur(s) }, cnt(s, key))
        })
    };
    let count = |name: &'static str, key: &'static str| pr.med(name, |s| cnt(s, key));

    m.insert(
        "hadamard.forward_ns_per_coord",
        per("hadamard.forward", "coords", false),
    );
    m.insert(
        "hadamard.inverse_ns_per_coord",
        per("hadamard.inverse", "coords", false),
    );
    m.insert(
        "hadamard.rows_per_round",
        pr.med("hadamard.forward", |s| s.len() as f64)
            + pr.med("hadamard.inverse", |s| s.len() as f64),
    );
    m.insert(
        "quant.encode_ns_per_coord",
        per("quant.encode", "coords", true),
    );
    m.insert(
        "quant.decode_mixed_ns_per_coord",
        per("quant.decode_mixed", "coords", true),
    );
    m.insert(
        "quant.decode_full_ns_per_coord",
        per("quant.decode_full", "coords", true),
    );
    m.insert(
        "quant.decode_heads_ns_per_coord",
        per("quant.decode_heads", "coords", true),
    );
    m.insert(
        "quant.rows_encoded_per_round",
        count("quant.encode", "rows"),
    );
    m.insert(
        "quant.rows_decoded_per_round",
        count("quant.decode_mixed", "rows"),
    );
    m.insert(
        "quant.decode_errors",
        [
            "quant.decode_mixed",
            "quant.decode_full",
            "quant.decode_heads",
            "core.decode",
        ]
        .iter()
        .map(|n| pr.total(n, "errors"))
        .sum(),
    );
    m.insert(
        "quant.encoded_bits_per_coord",
        pr.med("quant.encode", |s| ratio(cnt(s, "bits"), cnt(s, "coords"))),
    );
    m.insert(
        "wire.packetize_ns_per_packet",
        per("wire.packetize", "packets", false),
    );
    m.insert(
        "wire.trim_ns_per_packet",
        per("wire.trim", "trimmed", false),
    );
    m.insert(
        "wire.reassemble_ns_per_packet",
        per("wire.reassemble", "packets", false),
    );
    m.insert("wire.packets_per_round", count("wire.packetize", "packets"));
    m.insert("wire.bytes_per_round", count("wire.packetize", "bytes"));
    m.insert(
        "wire.ingest_rejected",
        pr.total("wire.reassemble", "rejected"),
    );
    m.insert(
        "wire.header_overhead_pct",
        pr.med("wire.packetize", |s| {
            let payload = cnt(s, "payload_bits") / 8.0;
            100.0 * (ratio(cnt(s, "bytes"), payload) - 1.0).max(0.0)
        }),
    );
    m.insert("core.encode_ms", pr.ms("core.encode"));
    m.insert("core.decode_ms", pr.ms("core.decode"));
    m.insert(
        "core.self_ms",
        pr.self_ms("core.encode") + pr.self_ms("core.decode"),
    );
    m.insert(
        "netsim.build_ms",
        pr.med("netsim.build", |s| dur(&real(s)) / 1e6),
    );
    m.insert("netsim.run_ms", pr.ms("netsim.run"));
    m.insert("netsim.ns_per_event", per("netsim.run", "events", false));
    // Simulated statistics come from the round's real simulation: the real
    // `netsim.run`, or the `collective.aggregate` that ran one inside.
    let sim_count = |key: &'static str| {
        pr.med("netsim.run", |s| cnt(&real(s), key)) + count("collective.aggregate", key)
    };
    m.insert("netsim.events_per_round", sim_count("events"));
    m.insert("netsim.packets_sent", sim_count("sent"));
    m.insert("netsim.packets_delivered", sim_count("delivered"));
    m.insert("netsim.packets_trimmed", sim_count("trimmed"));
    m.insert("netsim.packets_dropped", sim_count("dropped"));
    m.insert("netsim.max_queue_bytes", sim_count("max_queue_bytes"));
    m.insert("netsim.arena_high_water", sim_count("arena_high_water"));
    m.insert(
        "netsim.conservation_failures",
        pr.total("netsim.run", "conservation_failures")
            + pr.total("collective.aggregate", "conservation_failures"),
    );
    let sims: Vec<_> = pass.ok().filter_map(|(o, _)| o.sim).collect();
    if !sims.is_empty() {
        let med =
            |f: fn(&layers::SimOutcome) -> f64| median(&sims.iter().map(f).collect::<Vec<_>>());
        m.insert("netsim.trim_fraction", med(|s| s.trim_fraction));
        m.insert("netsim.fct_p50_us", med(|s| s.fct_p50_us));
        m.insert("netsim.fct_max_us", med(|s| s.fct_max_us));
    }
    let agg = pr.ms("collective.aggregate");
    let agg_self = pr.self_ms("collective.aggregate");
    m.insert("collective.aggregate_ms", agg);
    m.insert("collective.self_ms", agg_self);
    m.insert(
        "collective.steps_per_round",
        count("collective.aggregate", "steps"),
    );
    m.insert(
        "collective.bytes_sent_per_round",
        count("collective.aggregate", "bytes_sent"),
    );
    if agg > 0.0 {
        m.insert(
            "collective.trimmed_received_pct",
            median(&pass.ok().map(|(o, _)| o.trimmed_pct).collect::<Vec<_>>()),
        );
    }
    m.insert(
        "collective.unfinished_rounds",
        pass.reasons
            .iter()
            .filter(|r| r.contains("did not finish"))
            .count() as f64,
    );
    m.insert("mltrain.grad_ms", pr.ms("mltrain.grad"));
    m.insert("mltrain.step_ms", pr.ms("mltrain.step"));

    // Round accounting: the traced round's clock, what its top-level real
    // spans cover, and the cost of tracing itself.
    let traced_ms = pass.round_ms();
    let unattributed: Vec<f64> = pr
        .rounds
        .iter()
        .filter_map(|r| {
            let round = r.iter().find(|s| s.name == "bench.round")?;
            let clock = round.dur_ns() as f64 - round.count("off_clock_ns") as f64;
            let covered: f64 = r
                .iter()
                .filter(|s| s.parent == round.id && !s.replay)
                .map(|s| s.dur_ns() as f64)
                .sum();
            Some(100.0 * ratio(clock - covered, clock))
        })
        .collect();
    m.insert("bench.unattributed_pct", median(&unattributed));
    m.insert(
        "bench.trace_overhead_pct",
        100.0 * (ratio(traced_ms, plain_round_ms) - 1.0),
    );
    m.insert(
        "collective.self_share_pct",
        100.0 * ratio(agg_self, traced_ms),
    );
    m
}
