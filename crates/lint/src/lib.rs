//! `trimgrad-lint` — repo-native static analysis for the trimgrad workspace.
//!
//! The paper's evaluation depends on two properties nothing in the type
//! system enforces: the simulator must be **bit-deterministic** (identical
//! seeds ⇒ identical transcripts and snapshots) and the **wire encoding**
//! must agree byte-for-byte between the encoder, the switch trimmer, and the
//! decoder. PR 1's telemetry makes violations observable at runtime; this
//! crate prevents the well-known source-level bug classes from compiling at
//! all — it runs as `cargo run -p trimgrad-lint -- check .` in CI and as a
//! `#[test]` so it rides tier-1.
//!
//! There are no dependencies. A small hand-rolled lexer ([`mod@lex`]) feeds a
//! token-level rule engine ([`rules`]), a wire-format consistency pass
//! ([`wirecheck`]), and — since PR 7 — an interprocedural layer: an
//! item-level parser ([`parse`]) recovers every function, a workspace-wide
//! call graph (`callgraph`) proves functions annotated
//! `// trimlint: hot-path` cannot transitively reach a panic or a per-call
//! allocation (the offending call chain is printed), an intraprocedural
//! dataflow pass (`taint`) stops nondeterministic values (HashMap iteration
//! order, wall clocks, unseeded RNGs) from flowing into wire/trace/telemetry
//! sinks, and a suppression audit flags every `trimlint: allow` that no
//! longer suppresses anything.
//!
//! Suppress a diagnostic with an explicit, reasoned comment on the same line
//! or the line above:
//!
//! ```text
//! // trimlint: allow(no-panic) -- buffer is statically HEADER_LEN bytes
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lex;
pub mod parse;
pub mod rules;
pub mod wirecheck;

mod callgraph;
mod taint;

use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;

use lex::{lex, test_mask, LexOut};
use rules::Finding;

/// Crates whose non-test code bans panicking constructs and lossy casts.
const HOT_CRATES: &[&str] = &["netsim", "wire", "collective", "core"];

/// Crates whose iteration order leaks into snapshots, events, or traffic.
const ORDER_CRATES: &[&str] = &["netsim", "wire", "collective", "core", "telemetry", "trace"];

/// Crates the linter never walks: `bench` legitimately uses wall clocks and
/// ad-hoc casts, `proptest` is the offline test-infrastructure shim, and
/// `lint` is this crate.
const SKIP_CRATES: &[&str] = &["bench", "lint", "proptest"];

/// Rule ids with one-line summaries (the order diagnostics sort in).
pub const RULES: &[(&str, &str)] = &[
    (
        "no-panic",
        "no unwrap()/expect()/panic!-family in non-test code of netsim/wire/collective/core",
    ),
    (
        "ordered-map",
        "no HashMap/HashSet in ordering-sensitive crates; use BTreeMap/BTreeSet",
    ),
    (
        "wall-clock",
        "no std::time::{Instant,SystemTime} or thread::sleep outside bench",
    ),
    (
        "unseeded-rng",
        "no OS-entropy RNG construction (thread_rng, from_entropy, OsRng, …)",
    ),
    (
        "no-raw-spawn",
        "no raw thread spawn outside crates/par; use trimgrad_par::WorkerPool",
    ),
    (
        "float-eq",
        "no ==/!= against float literals; use trimgrad_quant::fcmp helpers",
    ),
    (
        "lossy-cast",
        "no narrowing `as` casts on byte/packet-count expressions; use try_from",
    ),
    (
        "unchecked-len-index",
        "no indexing with packet-supplied lengths without a bounds check or trimgrad_wire::narrow",
    ),
    (
        "wire-consistency",
        "HEADER_LEN constants in crates/wire must match the bytes serializers touch",
    ),
    (
        "trace-event-naming",
        "flight-recorder span/mark and telemetry metric/scope names must be dot-separated lowercase",
    ),
    (
        "hot-path-panic",
        "fns annotated `trimlint: hot-path` must not transitively reach a panicking construct",
    ),
    (
        "hot-path-alloc",
        "fns annotated `trimlint: hot-path` must not transitively allocate per call",
    ),
    (
        "determinism-taint",
        "HashMap iteration / wall clocks / unseeded RNGs must not flow into wire/trace/telemetry",
    ),
    (
        "stale-suppression",
        "trimlint: allow comments that no longer suppress any finding must be removed",
    ),
    (
        "parse-error",
        "source must parse under the lint item parser; hot-path annotations must precede a fn",
    ),
    (
        "bad-suppression",
        "trimlint comments must be `trimlint: allow(rule, …) -- reason`",
    ),
];

/// One lint finding, formatted as `file:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path relative to the checked root.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Stable machine-readable rule id.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub msg: String,
    /// For interprocedural findings: the call chain from the hot-path root
    /// to the offending construct, one `name (file:line)` entry per hop.
    /// Empty for intraprocedural findings.
    pub chain: Vec<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )
    }
}

/// The result of analyzing a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// All diagnostics, sorted by path, line, then rule.
    pub diags: Vec<Diagnostic>,
    /// How many of them are `parse-error`s (distinct CLI exit code: the
    /// analysis could not see the whole file, so a clean result means less).
    pub parse_error_count: usize,
    /// Number of non-test functions annotated `// trimlint: hot-path` —
    /// the reachability analysis silently proves nothing when this is zero,
    /// so CI gates on it.
    pub hot_path_count: usize,
}

/// Per-file analysis context shared by the interprocedural passes.
pub(crate) struct FileCtx {
    /// Workspace-relative path.
    pub rel: String,
    /// Owning crate (decides which rule sets apply and scopes call
    /// resolution).
    pub krate: String,
    /// Lexer output.
    pub out: LexOut,
    /// Per-token test-code mask.
    pub mask: Vec<bool>,
    /// Item-level parse.
    pub parsed: parse::ParsedFile,
}

/// `(suppression index, rule id)` pairs proven useful — either they dropped
/// a token/taint finding or exempted an interprocedural source. Anything not
/// in this set is reported stale by the audit.
pub(crate) type UsedSet = BTreeSet<(usize, String)>;

/// Analyzes a set of `(workspace-relative path, source)` files as one unit:
/// token rules and taint per file, then the cross-file call-graph pass, then
/// the suppression audit. Files outside the linted crates are ignored.
#[must_use]
pub fn analyze_files(files: &[(String, String)]) -> Report {
    let mut ctxs: Vec<FileCtx> = Vec::new();
    for (rel, src) in files {
        let Some(krate) = crate_of(rel) else {
            continue;
        };
        let out = lex(src);
        let mask = test_mask(&out.toks);
        let parsed = parse::parse_file(&out, &mask);
        ctxs.push(FileCtx {
            rel: rel.clone(),
            krate: krate.to_string(),
            out,
            mask,
            parsed,
        });
    }

    let mut used: Vec<UsedSet> = (0..ctxs.len()).map(|_| UsedSet::new()).collect();
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut parse_error_count = 0usize;

    // Per-file: token rules + taint, filtered through suppressions (tracking
    // which suppressions earned their keep), plus lexer/parser errors.
    for (ci, ctx) in ctxs.iter().enumerate() {
        let mut raw = token_rules(ctx);
        raw.extend(taint::analyze(ctx));
        diags.extend(apply_suppressions(raw, &ctx.out, &mut used[ci]));
        for line in &ctx.out.malformed {
            diags.push(Diagnostic {
                file: ctx.rel.clone(),
                line: *line,
                rule: "bad-suppression",
                msg: "malformed trimlint comment; expected \
                      `trimlint: allow(rule, …) -- reason` or `trimlint: hot-path`"
                    .to_string(),
                chain: Vec::new(),
            });
        }
        for (line, what) in &ctx.parsed.errors {
            parse_error_count += 1;
            diags.push(Diagnostic {
                file: ctx.rel.clone(),
                line: *line,
                rule: "parse-error",
                msg: format!("item parser lost the file here: {what}"),
                chain: Vec::new(),
            });
        }
        for line in &ctx.parsed.unattached_hot {
            parse_error_count += 1;
            diags.push(Diagnostic {
                file: ctx.rel.clone(),
                line: *line,
                rule: "parse-error",
                msg: "`trimlint: hot-path` annotation does not precede a function".to_string(),
                chain: Vec::new(),
            });
        }
    }

    // Cross-file: panic/alloc reachability from the hot-path roots.
    diags.extend(callgraph::analyze(&ctxs, &mut used));

    // Suppression audit: every (suppression, rule) pair must have suppressed
    // or exempted something. Suppressions whose target line is test code are
    // left alone (test fixtures exercise the syntax deliberately).
    for (ci, ctx) in ctxs.iter().enumerate() {
        for (si, s) in ctx.out.suppressions.iter().enumerate() {
            let target = ctx.out.covered_line(s.line, s.standalone);
            if is_test_line(ctx, target) {
                continue;
            }
            for r in &s.rules {
                if !used[ci].contains(&(si, r.clone())) {
                    diags.push(Diagnostic {
                        file: ctx.rel.clone(),
                        line: s.line,
                        rule: "stale-suppression",
                        msg: format!("`allow({r})` suppresses nothing; remove it"),
                        chain: Vec::new(),
                    });
                }
            }
        }
    }

    let hot_path_count = ctxs
        .iter()
        .flat_map(|c| &c.parsed.fns)
        .filter(|f| f.is_hot && !f.is_test)
        .count();

    diags.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    diags.dedup();
    Report {
        diags,
        parse_error_count,
        hot_path_count,
    }
}

/// Runs the per-crate token rules on one file, pre-suppression.
fn token_rules(ctx: &FileCtx) -> Vec<Diagnostic> {
    let out = &ctx.out;
    let mask = &ctx.mask;
    let crate_name = ctx.krate.as_str();
    let mut diags: Vec<Diagnostic> = Vec::new();

    let mut push = |rule: &'static str, findings: Vec<Finding>| {
        for (line, msg) in findings {
            diags.push(Diagnostic {
                file: ctx.rel.clone(),
                line,
                rule,
                msg,
                chain: Vec::new(),
            });
        }
    };

    if HOT_CRATES.contains(&crate_name) {
        push("no-panic", rules::no_panic(out, mask));
        push("lossy-cast", rules::lossy_cast(out, mask));
        push("unchecked-len-index", rules::unchecked_len_index(out, mask));
    }
    if ORDER_CRATES.contains(&crate_name) {
        push("ordered-map", rules::ordered_map(out, mask));
    }
    push("wall-clock", rules::wall_clock(out, mask));
    push("unseeded-rng", rules::unseeded_rng(out, mask));
    // `par` is the one crate allowed to touch std::thread: it *is* the
    // deterministic pool everyone else must go through.
    if crate_name != "par" {
        push("no-raw-spawn", rules::no_raw_spawn(out, mask));
    }
    push("float-eq", rules::float_eq(out, mask));
    push("trace-event-naming", rules::trace_event_naming(out, mask));
    if crate_name == "wire" {
        push("wire-consistency", wirecheck::check(out, mask));
    }
    diags
}

/// Lints one source file given its workspace-relative path (the path decides
/// which rules apply). Runs the full pipeline — token rules, taint, the
/// (single-file) call-graph pass, and the suppression audit.
#[must_use]
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    analyze_files(&[(rel_path.to_string(), src.to_string())]).diags
}

/// Drops findings covered by a well-formed `trimlint: allow` comment on the
/// same line, or — for a standalone comment — on the next line that carries
/// code. Each suppression that drops a finding is marked used for the audit.
fn apply_suppressions(diags: Vec<Diagnostic>, out: &LexOut, used: &mut UsedSet) -> Vec<Diagnostic> {
    diags
        .into_iter()
        .filter(|d| {
            let mut dropped = false;
            for (si, s) in out.suppressions.iter().enumerate() {
                let covers = s.line == d.line || out.covered_line(s.line, s.standalone) == d.line;
                if !covers {
                    continue;
                }
                for r in &s.rules {
                    if r == d.rule {
                        used.insert((si, r.clone()));
                        dropped = true;
                    }
                }
            }
            !dropped
        })
        .collect()
}

/// Whether any token on `line` sits inside test-only code.
fn is_test_line(ctx: &FileCtx, line: u32) -> bool {
    ctx.out
        .toks
        .iter()
        .position(|t| t.line == line)
        .is_some_and(|i| ctx.mask[i])
}

/// Maps a workspace-relative path to the crate whose rule set applies:
/// `crates/<name>/src/**` → `<name>`, the umbrella `src/**` → `"suite"`,
/// anything else (tests, benches, examples, skipped crates) → `None`.
fn crate_of(rel_path: &str) -> Option<&str> {
    let parts: Vec<&str> = rel_path.split('/').collect();
    match parts.as_slice() {
        ["crates", name, "src", ..] if !SKIP_CRATES.contains(name) => Some(name),
        ["src", ..] => Some("suite"),
        _ => None,
    }
}

/// Walks `root`, lints every in-scope `.rs` file as one workspace, and
/// returns the full [`Report`]. Build/VCS/output directories (`target/`,
/// `.git/`, `results/`, anything hidden) are never descended into.
///
/// # Errors
///
/// Propagates I/O errors from directory traversal or file reads.
pub fn analyze_path(root: &Path) -> std::io::Result<Report> {
    let mut rels = Vec::new();
    collect_rs_files(root, root, &mut rels)?;
    rels.sort();
    let mut files = Vec::with_capacity(rels.len());
    for rel in rels {
        let src = std::fs::read_to_string(root.join(&rel))?;
        files.push((rel, src));
    }
    Ok(analyze_files(&files))
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "results", "node_modules"];

fn collect_rs_files(root: &Path, dir: &Path, files: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, files)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                let rel = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                if crate_of(&rel).is_some() {
                    files.push(rel);
                }
            }
        }
    }
    Ok(())
}
