//! A minimal wall-clock micro-benchmark harness.
//!
//! The workspace builds fully offline, so the `benches/` targets cannot use
//! Criterion. This harness keeps the same ergonomics — named groups,
//! per-element / per-byte throughput — on nothing but `std::time::Instant`:
//! warm up briefly, time batches until a measurement window fills, report
//! the best batch (least-interference estimate) and the mean.
//!
//! Benches run with `cargo bench`; each `[[bench]]` target has
//! `harness = false` and drives [`Group`] directly from `main`.

use std::hint::black_box;
use std::time::{Duration, Instant};
use trimgrad_telemetry::json_string;

/// Throughput units to report alongside time per iteration.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration (coordinates, packets, events).
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// One measured benchmark result, as printed and as serialized to JSON.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Group the benchmark belongs to.
    pub group: String,
    /// Benchmark label within the group.
    pub label: String,
    /// Best (least-interference) batch time, ns per iteration.
    pub best_ns: f64,
    /// Mean time over the whole measurement window, ns per iteration.
    pub mean_ns: f64,
    /// Throughput at the best time, with its unit (`"elem/s"` / `"B/s"`).
    pub rate: Option<(f64, &'static str)>,
}

/// Command-line options shared by every bench binary.
///
/// `cargo bench -- --json BENCH_x.json [--quick]` writes machine-readable
/// results next to the human table; unknown flags (including the
/// `--bench` cargo appends) are ignored.
#[derive(Debug, Default, Clone)]
pub struct BenchOpts {
    /// Write results as JSON to this path after the run.
    pub json: Option<String>,
    /// Shrink warmup/measure windows (CI smoke mode).
    pub quick: bool,
}

impl BenchOpts {
    /// Parses the process arguments.
    #[must_use]
    pub fn from_args() -> Self {
        let mut opts = Self::default();
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--json" => opts.json = args.next(),
                "--quick" => opts.quick = true,
                _ => {}
            }
        }
        opts
    }

    /// Applies window options to a group.
    pub fn configure(&self, g: &mut Group) {
        if self.quick {
            g.quick();
        }
    }

    /// Writes `records` as JSON if `--json` was given. The report carries
    /// the bench name and the global worker-pool width so speedup tables can
    /// pair serial and parallel runs.
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be written — a bench run whose results
    /// silently vanish is worse than a loud failure.
    pub fn write(&self, bench_name: &str, records: &[BenchRecord]) {
        if let Some(path) = &self.json {
            let json = render_json(bench_name, records);
            // Cargo runs benches with cwd = the crate dir; create missing
            // parents so `--json results/…` works from any invocation root.
            if let Some(dir) = std::path::Path::new(path).parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir).expect("create bench JSON dir");
                }
            }
            std::fs::write(path, json).expect("write bench JSON");
            println!("\nwrote {} records to {path}", records.len());
        }
    }
}

/// Renders the report as a hand-rolled JSON document (no serde offline).
/// Besides the records it stamps the pool width and whether the flight
/// recorder is armed (`trace_enabled`) so a result file taken with tracing
/// on is never mistaken for a clean-timing run.
fn render_json(bench_name: &str, records: &[BenchRecord]) -> String {
    let threads = trimgrad_par::WorkerPool::global().threads();
    let trace_enabled = trimgrad_trace::Tracer::from_env().is_enabled();
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"bench\": {},\n", json_string(bench_name)));
    s.push_str(&format!("  \"threads\": {threads},\n"));
    s.push_str(&format!("  \"trace_enabled\": {trace_enabled},\n"));
    s.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        s.push_str("    {");
        s.push_str(&format!("\"group\": {}, ", json_string(&r.group)));
        s.push_str(&format!("\"label\": {}, ", json_string(&r.label)));
        s.push_str(&format!("\"best_ns\": {:.1}, ", r.best_ns));
        s.push_str(&format!("\"mean_ns\": {:.1}", r.mean_ns));
        if let Some((rate, unit)) = r.rate {
            s.push_str(&format!(", \"rate\": {rate:.1}, \"rate_unit\": \"{unit}\""));
        }
        s.push('}');
        s.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// One named group of related benchmarks, printed as a table.
#[derive(Debug)]
pub struct Group {
    name: String,
    warmup: Duration,
    measure: Duration,
    throughput: Option<Throughput>,
    records: Vec<BenchRecord>,
}

impl Group {
    /// Starts a group; prints its header immediately.
    #[must_use]
    pub fn new(name: &str) -> Self {
        println!("\n== {name} ==");
        Self {
            name: name.to_string(),
            warmup: Duration::from_millis(150),
            measure: Duration::from_millis(600),
            throughput: None,
            records: Vec::new(),
        }
    }

    /// Consumes the group, returning its measured records (for JSON output).
    #[must_use]
    pub fn finish(self) -> Vec<BenchRecord> {
        self.records
    }

    /// Sets the per-iteration throughput used for rate reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Shrinks warmup/measure windows (for expensive macro-benchmarks).
    pub fn quick(&mut self) -> &mut Self {
        self.warmup = Duration::from_millis(50);
        self.measure = Duration::from_millis(250);
        self
    }

    /// Times `f`, reporting ns/iter and throughput under `label`.
    ///
    /// The closure's result is passed through [`black_box`] so the computation
    /// cannot be optimized away.
    pub fn bench<R>(&mut self, label: &str, mut f: impl FnMut() -> R) {
        // Warm-up: establish caches/branch predictors and estimate cost.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warmup {
            black_box(f());
            warm_iters += 1;
        }
        let est_per_iter = self.warmup.as_secs_f64() / warm_iters as f64;

        // Measure in batches of roughly 10ms each.
        let batch = ((0.01 / est_per_iter).ceil() as u64).max(1);
        let mut best = f64::INFINITY;
        let mut total_time = 0.0f64;
        let mut total_iters: u64 = 0;
        let window = Instant::now();
        while window.elapsed() < self.measure {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let dt = t0.elapsed().as_secs_f64();
            let per_iter = dt / batch as f64;
            best = best.min(per_iter);
            total_time += dt;
            total_iters += batch;
        }
        let mean = total_time / total_iters as f64;

        let rate = match self.throughput {
            Some(Throughput::Elements(n)) => format!("  {:>10}/s", fmt_rate(n as f64 / best)),
            Some(Throughput::Bytes(n)) => format!("  {:>9}B/s", fmt_rate(n as f64 / best)),
            None => String::new(),
        };
        println!(
            "{:<34} {:>12}/iter  (mean {:>10}){rate}",
            format!("{}/{label}", self.name),
            fmt_time(best),
            fmt_time(mean),
        );
        self.records.push(BenchRecord {
            group: self.name.clone(),
            label: label.to_string(),
            best_ns: best * 1e9,
            mean_ns: mean * 1e9,
            rate: match self.throughput {
                Some(Throughput::Elements(n)) => Some((n as f64 / best, "elem/s")),
                Some(Throughput::Bytes(n)) => Some((n as f64 / best, "B/s")),
                None => None,
            },
        });
    }
}

/// Formats seconds-per-iteration with an adaptive unit.
fn fmt_time(s: f64) -> String {
    if s < 1e-6 {
        format!("{:.1} ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.2} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.3} s")
    }
}

/// Formats an ops/sec rate with an adaptive SI prefix.
fn fmt_rate(r: f64) -> String {
    if r >= 1e9 {
        format!("{:.2} G", r / 1e9)
    } else if r >= 1e6 {
        format!("{:.2} M", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.2} k", r / 1e3)
    } else {
        format!("{r:.1} ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_are_sane() {
        assert!(fmt_time(2.5e-9).ends_with("ns"));
        assert!(fmt_time(2.5e-5).contains("µs"));
        assert!(fmt_time(2.5e-2).contains("ms"));
        assert!(fmt_rate(3.0e9).ends_with('G'));
        assert!(fmt_rate(3.0e4).ends_with('k'));
    }

    #[test]
    fn groups_record_what_they_print() {
        let mut g = Group::new("rec");
        g.quick();
        g.throughput(Throughput::Elements(100));
        g.bench("noop", || 1 + 1);
        let records = g.finish();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].group, "rec");
        assert_eq!(records[0].label, "noop");
        assert!(records[0].best_ns > 0.0);
        assert!(records[0].mean_ns >= records[0].best_ns);
        assert_eq!(records[0].rate.unwrap().1, "elem/s");
    }

    #[test]
    fn json_report_is_well_formed() {
        let records = vec![
            BenchRecord {
                group: "g".into(),
                label: "a".into(),
                best_ns: 12.34,
                mean_ns: 15.0,
                rate: Some((1.0e9, "elem/s")),
            },
            BenchRecord {
                group: "g".into(),
                label: "b\"q\"\n".into(),
                best_ns: 1.0,
                mean_ns: 2.0,
                rate: None,
            },
        ];
        let json = render_json("encode", &records);
        assert!(json.starts_with("{\n"));
        assert!(json.contains("\"bench\": \"encode\""));
        assert!(json.contains("\"threads\": "));
        assert!(json.contains("\"trace_enabled\": "));
        assert!(json.contains("\"best_ns\": 12.3"));
        assert!(json.contains("\"rate_unit\": \"elem/s\""));
        assert!(
            json.contains("b\\\"q\\\"\\n\""),
            "quotes and newline escaped: {json}"
        );
        // Balanced braces/brackets — the closest to a parse check offline.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_report_still_renders() {
        let json = render_json("none", &[]);
        assert!(json.contains("\"results\": [\n  ]"));
    }
}
