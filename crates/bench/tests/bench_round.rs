//! `results/BENCH_round.jsonl` is the committed trajectory of the benchmark:
//! one line per merged change, oldest first, with the commit it was merged
//! onto (`parent`; its own `commit` is `null` on a line written before that
//! commit existed), where the numbers come from, the three end-to-end
//! metrics of `BENCHMARK.json` on each of the four workloads (seed 11,
//! medians of the recorded runs, `null` where none was recorded), each
//! workload's `bench.output_digest`, and `digest_change`. From line
//! [`LAYERED_FROM`] on, each line also carries, per workload, the run's
//! `box_probe_ns` and a `layers_ms` object with the traced per-layer times
//! [`LAYERS`] (`core.encode_decode_ms` is `core.encode_ms + core.decode_ms`;
//! `null` where a workload has no such layer). From line [`OVERHEAD_FROM`]
//! on, each line also carries `encode_overhead_pct`: the traced
//! `bench.encode_overhead_pct` of the two training workloads ([`OVERHEAD`]),
//! `null` for the other two. This test parses every line and holds the file
//! to its one rule: a line whose digest differs from the previous line's,
//! where both are known, says why in `digest_change`.

use std::collections::{BTreeMap, BTreeSet};

const WORKLOADS: [&str; 4] = [
    "codec_loopback",
    "train_fabric",
    "netsim_storm",
    "train_inject",
];
const METRICS: [&str; 3] = ["round_ms", "peak_rss_mb", "setup_s"];
/// The traced layer times of a `layers_ms` cell.
const LAYERS: [&str; 4] = [
    "collective.self_ms",
    "core.encode_decode_ms",
    "mltrain.grad_ms",
    "netsim.run_ms",
];
/// The first line (1-based) that carries `box_probe_ns` and `layers_ms`.
const LAYERED_FROM: usize = 15;
/// The workloads whose round has an uncompressed baseline to compare with.
const OVERHEAD: [&str; 2] = ["train_fabric", "train_inject"];
/// The first line (1-based) that carries `encode_overhead_pct`.
const OVERHEAD_FROM: usize = 18;

/// The JSON subset the file uses.
#[derive(Debug)]
enum Json {
    Null,
    Num(f64),
    Str(String),
    Obj(BTreeMap<String, Json>),
}

/// A recursive-descent parser over one line; `Err` names the byte offset.
struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn parse(line: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: line.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.at == p.s.len() {
            Ok(v)
        } else {
            Err(format!("trailing bytes at {}", p.at))
        }
    }

    fn ws(&mut self) {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        match self.s.get(self.at) {
            Some(&b) if b == c => {
                self.at += 1;
                Ok(())
            }
            _ => Err(format!("expected {:?} at {}", c as char, self.at)),
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.at) {
            Some(b'{') => self.object(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'n') if self.s[self.at..].starts_with(b"null") => {
                self.at += 4;
                Ok(Json::Null)
            }
            Some(b'-' | b'0'..=b'9') => {
                let start = self.at;
                while self
                    .s
                    .get(self.at)
                    .is_some_and(|b| b"+-.eE0123456789".contains(b))
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.at]).expect("ASCII");
                text.parse()
                    .map(Json::Num)
                    .map_err(|e| format!("number {text:?} at {start}: {e}"))
            }
            _ => Err(format!("unexpected value at {}", self.at)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let start = self.at;
        while let Some(&b) = self.s.get(self.at) {
            match b {
                b'"' => {
                    self.at += 1;
                    return String::from_utf8(self.s[start..self.at - 1].to_vec())
                        .map_err(|e| e.to_string());
                }
                b'\\' => return Err(format!("escapes are not used (at {})", self.at)),
                _ => self.at += 1,
            }
        }
        Err("unterminated string".into())
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut fields = BTreeMap::new();
        self.ws();
        if self.s.get(self.at) == Some(&b'}') {
            self.at += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.eat(b':')?;
            let value = self.value()?;
            if fields.insert(key.clone(), value).is_some() {
                return Err(format!("duplicate key {key:?}"));
            }
            self.ws();
            match self.s.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at {}", self.at)),
            }
        }
    }
}

/// One checked line of the trajectory.
struct Line {
    parent: String,
    digests: [Option<f64>; 4],
    digest_change: Option<String>,
}

/// A number that is non-negative and finite, or `null`.
fn measured(v: Option<&Json>) -> Result<Option<f64>, String> {
    match v {
        Some(Json::Null) => Ok(None),
        Some(Json::Num(v)) if *v >= 0.0 && v.is_finite() => Ok(Some(*v)),
        other => Err(format!("{other:?}")),
    }
}

/// Checks line `n` (1-based); from [`LAYERED_FROM`] on it must carry the
/// layer keys, and from [`OVERHEAD_FROM`] on the overhead pair; before,
/// it must not.
fn check_line(n: usize, text: &str) -> Result<Line, String> {
    let Json::Obj(obj) = Parser::parse(text)? else {
        return Err("not an object".into());
    };
    let layered = n >= LAYERED_FROM;
    let overhead = n >= OVERHEAD_FROM;
    let mut want = vec![
        "commit",
        "digest_change",
        "output_digest",
        "parent",
        "source",
    ];
    want.extend(METRICS);
    if layered {
        want.extend(["box_probe_ns", "layers_ms"]);
    }
    if overhead {
        want.push("encode_overhead_pct");
    }
    want.sort_unstable();
    let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
    if keys != want {
        return Err(format!("keys {keys:?}, want {want:?}"));
    }
    let is_hash = |h: &str| h.len() >= 7 && h.bytes().all(|b| b.is_ascii_hexdigit());
    let parent = match obj.get("parent") {
        Some(Json::Str(h)) if is_hash(h) => h.clone(),
        other => return Err(format!("parent = {other:?}")),
    };
    match obj.get("commit") {
        Some(Json::Null) => {}
        Some(Json::Str(h)) if is_hash(h) => {}
        other => return Err(format!("commit = {other:?}")),
    }
    let Some(Json::Str(_)) = obj.get("source") else {
        return Err("source is not a string".into());
    };
    // Every metric and the digest: an object over exactly the four
    // workloads, each value a non-negative number or null.
    let workloads = |name: &str| -> Result<&BTreeMap<String, Json>, String> {
        match obj.get(name) {
            Some(Json::Obj(m)) if m.len() == WORKLOADS.len() => Ok(m),
            other => Err(format!(
                "{name} is not an object over the workloads: {other:?}"
            )),
        }
    };
    let per_workload = |name: &str| -> Result<[Option<f64>; 4], String> {
        let m = workloads(name)?;
        let mut out = [None; 4];
        for (slot, w) in out.iter_mut().zip(WORKLOADS) {
            *slot = measured(m.get(w)).map_err(|e| format!("{name}.{w} = {e}"))?;
        }
        Ok(out)
    };
    for metric in METRICS {
        per_workload(metric)?;
    }
    if layered {
        per_workload("box_probe_ns")?;
        let cells = workloads("layers_ms")?;
        for w in WORKLOADS {
            let Some(Json::Obj(cell)) = cells.get(w) else {
                return Err(format!("layers_ms.{w} is not an object"));
            };
            let keys: Vec<&str> = cell.keys().map(String::as_str).collect();
            if keys != LAYERS {
                return Err(format!("layers_ms.{w} keys {keys:?}, want {LAYERS:?}"));
            }
            for layer in LAYERS {
                measured(cell.get(layer)).map_err(|e| format!("layers_ms.{w}.{layer} = {e}"))?;
            }
        }
    }
    if overhead {
        // A percentage over the baseline round: finite, of either sign.
        let cells = workloads("encode_overhead_pct")?;
        for w in WORKLOADS {
            match (OVERHEAD.contains(&w), cells.get(w)) {
                (true, Some(Json::Num(v))) if v.is_finite() => {}
                (false, Some(Json::Null)) => {}
                (_, other) => return Err(format!("encode_overhead_pct.{w} = {other:?}")),
            }
        }
    }
    let digests = per_workload("output_digest")?;
    if digests.iter().flatten().any(|d| d.fract() != 0.0) {
        return Err("a digest is not an integer".into());
    }
    let digest_change = match obj.get("digest_change") {
        Some(Json::Null) => None,
        Some(Json::Str(why)) if !why.trim().is_empty() => Some(why.clone()),
        other => return Err(format!("digest_change = {other:?}")),
    };
    Ok(Line {
        parent,
        digests,
        digest_change,
    })
}

/// The file's rule over consecutive lines; `Err` names the offending line.
fn check_trajectory(text: &str) -> Result<usize, String> {
    let mut prev: Option<Line> = None;
    let mut seen = BTreeSet::new();
    let mut count = 0;
    for (i, raw) in text.lines().enumerate() {
        let n = i + 1;
        let line = check_line(n, raw).map_err(|e| format!("line {n}: {e}"))?;
        if !seen.insert(line.parent.clone()) {
            return Err(format!("line {n}: parent {} listed twice", line.parent));
        }
        if let Some(p) = &prev {
            for (w, (a, b)) in WORKLOADS.iter().zip(p.digests.iter().zip(&line.digests)) {
                if let (Some(a), Some(b)) = (a, b) {
                    if a != b && line.digest_change.is_none() {
                        return Err(format!(
                            "line {n} (onto {}): {w} digest {a} -> {b} without digest_change",
                            line.parent
                        ));
                    }
                }
            }
        }
        prev = Some(line);
        count = n;
    }
    Ok(count)
}

fn trajectory() -> String {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/BENCH_round.jsonl"
    );
    std::fs::read_to_string(path).expect("results/BENCH_round.jsonl")
}

#[test]
fn every_line_parses_and_every_digest_change_is_explained() {
    let text = trajectory();
    let lines = check_trajectory(&text).unwrap_or_else(|e| panic!("BENCH_round.jsonl {e}"));
    assert!(lines >= OVERHEAD_FROM, "{lines} lines");
}

#[test]
fn a_layered_line_needs_every_layer_of_every_workload() {
    let per = |v: &str| {
        let cells: Vec<String> = WORKLOADS.iter().map(|w| format!("\"{w}\": {v}")).collect();
        format!("{{{}}}", cells.join(", "))
    };
    let layers = |v: &str| {
        let cells: Vec<String> = LAYERS.iter().map(|l| format!("\"{l}\": {v}")).collect();
        format!("{{{}}}", cells.join(", "))
    };
    let line = |extra: &str| {
        format!(
            "{{\"commit\": null, \"parent\": \"abcdef1\", \"source\": \"test\", \
             \"round_ms\": {r}, \"peak_rss_mb\": {r}, \"setup_s\": {r}, \
             \"output_digest\": {r}{extra}, \"digest_change\": null}}",
            r = per("1")
        )
    };
    let full = line(&format!(
        ", \"box_probe_ns\": {}, \"layers_ms\": {}",
        per("9000000.5"),
        per(&layers("null"))
    ));
    assert!(check_line(LAYERED_FROM, &full).is_ok());
    assert!(
        check_line(LAYERED_FROM - 1, &full).is_err(),
        "no layer keys before"
    );
    assert!(
        check_line(LAYERED_FROM, &line("")).is_err(),
        "required from"
    );
    let three = format!(
        "{{{}}}",
        LAYERS[..3]
            .iter()
            .map(|l| format!("\"{l}\": 2.5"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let short = line(&format!(
        ", \"box_probe_ns\": {}, \"layers_ms\": {}",
        per("1"),
        per(&three)
    ));
    assert!(check_line(LAYERED_FROM, &short)
        .err()
        .is_some_and(|e| e.contains("keys")));
    let negative = line(&format!(
        ", \"box_probe_ns\": {}, \"layers_ms\": {}",
        per("1"),
        per(&layers("-1"))
    ));
    assert!(check_line(LAYERED_FROM, &negative).is_err());
}

#[test]
fn the_overhead_pair_is_required_from_its_line() {
    let per = |v: &str| {
        let cells: Vec<String> = WORKLOADS.iter().map(|w| format!("\"{w}\": {v}")).collect();
        format!("{{{}}}", cells.join(", "))
    };
    let layers: Vec<String> = LAYERS.iter().map(|l| format!("\"{l}\": null")).collect();
    let line = |extra: &str| {
        format!(
            "{{\"commit\": null, \"parent\": \"abcdef1\", \"source\": \"test\", \
             \"round_ms\": {r}, \"peak_rss_mb\": {r}, \"setup_s\": {r}, \
             \"output_digest\": {r}, \"box_probe_ns\": {r}, \"layers_ms\": {l}{extra}, \
             \"digest_change\": null}}",
            r = per("1"),
            l = per(&format!("{{{}}}", layers.join(", ")))
        )
    };
    let pair = |fabric: &str, inject: &str, other: &str| {
        line(&format!(
            ", \"encode_overhead_pct\": {{\"codec_loopback\": {other}, \
             \"train_fabric\": {fabric}, \"netsim_storm\": {other}, \
             \"train_inject\": {inject}}}"
        ))
    };
    assert!(check_line(OVERHEAD_FROM, &pair("119.5", "-2.25", "null")).is_ok());
    assert!(
        check_line(OVERHEAD_FROM - 1, &pair("119.5", "7.5", "null")).is_err(),
        "no pair before"
    );
    assert!(check_line(OVERHEAD_FROM - 1, &line("")).is_ok());
    assert!(
        check_line(OVERHEAD_FROM, &line("")).is_err(),
        "required from"
    );
    for bad in [
        pair("null", "7.5", "null"),
        pair("119.5", "null", "null"),
        pair("119.5", "7.5", "3"),
    ] {
        assert!(check_line(OVERHEAD_FROM, &bad)
            .err()
            .is_some_and(|e| e.contains("encode_overhead_pct")));
    }
}

#[test]
fn an_unexplained_digest_change_is_refused() {
    let line = |n: u32, digest: &str, why: &str| {
        let per = |v: &str| {
            let cells: Vec<String> = WORKLOADS.iter().map(|w| format!("\"{w}\": {v}")).collect();
            format!("{{{}}}", cells.join(", "))
        };
        format!(
            "{{\"commit\": null, \"parent\": \"abcdef{n}\", \"source\": \"test\", \
             \"round_ms\": {}, \"peak_rss_mb\": {}, \"setup_s\": {}, \
             \"output_digest\": {}, \"digest_change\": {why}}}",
            per("1.5"),
            per("null"),
            per("0.1"),
            per(digest)
        )
    };
    let ok = [line(1, "7", "null"), line(2, "7", "null")].join("\n");
    assert_eq!(check_trajectory(&ok), Ok(2));
    let unknown = [line(1, "null", "null"), line(2, "8", "null")].join("\n");
    assert_eq!(
        check_trajectory(&unknown),
        Ok(2),
        "an unknown digest is no change"
    );
    let silent = [line(1, "7", "null"), line(2, "8", "null")].join("\n");
    assert!(check_trajectory(&silent)
        .unwrap_err()
        .contains("without digest_change"));
    let explained = [line(1, "7", "null"), line(2, "8", "\"new format\"")].join("\n");
    assert_eq!(check_trajectory(&explained), Ok(2));
    assert!(check_line(1, "{\"commit\": \"abcdef1\"}").is_err());
    let twice = [line(1, "7", "null"), line(1, "7", "null")].join("\n");
    assert!(check_trajectory(&twice)
        .unwrap_err()
        .contains("listed twice"));
    assert!(check_line(1, &line(1, "7.5", "null")).is_err());
}
