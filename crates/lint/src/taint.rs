//! Intraprocedural determinism-taint analysis.
//!
//! Values whose bits depend on anything other than the seeded simulation
//! state must never reach an output the paper's reproducibility story relies
//! on. Taint **sources** are: iteration over `HashMap`/`HashSet` (unordered),
//! wall clocks (`Instant`, `SystemTime`), and unseeded randomness
//! (`thread_rng`, `from_entropy`, `OsRng`, `getrandom`, `rand::random`).
//! Taint **sinks** are calls that serialize to the wire, emit trace events,
//! key telemetry, or encode workloads. The analysis is a per-function-body
//! fixpoint over `let` bindings and `for` patterns — deliberately
//! intraprocedural: cross-function flows are already closed off at the
//! source level by the `ordered-map`, `wall-clock`, and `unseeded-rng` token
//! rules, so this pass exists to catch flows *within* the functions those
//! rules exempt (and to pin the contract in fixtures).

use std::collections::BTreeMap;

use crate::lex::{matching, Tok, TokKind};
use crate::{Diagnostic, FileCtx};

/// Unordered collection types whose iteration order is nondeterministic.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

/// Methods that iterate a collection (order-revealing).
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// Identifiers whose appearance in an expression taints it directly.
const DIRECT_SOURCES: &[(&str, &str)] = &[
    ("Instant", "wall clock"),
    ("SystemTime", "wall clock"),
    ("OsRng", "unseeded RNG"),
    ("thread_rng", "unseeded RNG"),
    ("from_entropy", "unseeded RNG"),
    ("getrandom", "unseeded RNG"),
    ("random", "unseeded RNG"),
];

/// Call names that serialize, trace, or key telemetry — determinism sinks.
const SINKS: &[&str] = &[
    "serialize",
    "build",
    "build_with",
    "build_frame",
    "packetize_row",
    "packetize_message",
    "emit",
    "span",
    "span_at",
    "mark",
    "counter",
    "gauge",
    "observe",
    "record",
    "encode",
    "to_bytes",
    "write",
    "digest",
    "snapshot",
];

/// Runs the taint analysis over every non-test function body in `ctx`.
/// Diagnostics are pre-suppression: `analyze_files` filters them through the
/// usual `trimlint: allow` machinery.
pub(crate) fn analyze(ctx: &FileCtx) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for f in &ctx.parsed.fns {
        if f.is_test {
            continue;
        }
        if let Some((lo, hi)) = f.body {
            analyze_body(ctx, f.params, lo, hi, &mut diags);
        }
    }
    diags
}

/// Analyzes one body token range; `params` is the signature's parameter-list
/// range, which seeds hash-typed parameters.
fn analyze_body(
    ctx: &FileCtx,
    params: (usize, usize),
    lo: usize,
    hi: usize,
    diags: &mut Vec<Diagnostic>,
) {
    let toks = &ctx.out.toks;

    // Pass 1: hash-typed bindings — `let` statements mentioning a hash type,
    // plus parameters declared with one.
    let mut hash_vars: Vec<String> = Vec::new();
    for (name, init_lo, init_hi) in let_bindings(toks, lo, hi) {
        if toks[init_lo..init_hi]
            .iter()
            .any(|t| t.kind == TokKind::Ident && HASH_TYPES.contains(&t.text.as_str()))
        {
            hash_vars.push(name);
        }
    }
    for (name, ty_lo, ty_hi) in param_bindings(toks, params.0, params.1) {
        if toks[ty_lo..ty_hi]
            .iter()
            .any(|t| t.kind == TokKind::Ident && HASH_TYPES.contains(&t.text.as_str()))
        {
            hash_vars.push(name);
        }
    }

    // Pass 2: fixpoint over `let` and `for` bindings — a binding is tainted
    // when its initializer mentions a tainted variable, a direct source, or
    // iterates a hash-typed variable.
    let mut tainted: BTreeMap<String, String> = BTreeMap::new();
    loop {
        let mut changed = false;
        // A `for`-loop iterable taints its pattern even when the hash var
        // appears bare (`for x in &set` iterates just like `set.iter()`).
        for (bare_hash, bindings) in [
            (false, let_bindings(toks, lo, hi)),
            (true, for_bindings(toks, lo, hi)),
        ] {
            for (name, init_lo, init_hi) in bindings {
                if tainted.contains_key(&name) {
                    continue;
                }
                if let Some(origin) =
                    expr_taint(toks, init_lo, init_hi, &hash_vars, &tainted, bare_hash)
                {
                    tainted.insert(name, origin);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Pass 3: sink calls whose argument list mentions a tainted value.
    let mut i = lo;
    while i < hi {
        let t = &toks[i];
        let callee = if t.is_punct(".") && i + 1 < hi && toks[i + 1].kind == TokKind::Ident {
            Some((i + 1, toks[i + 1].text.as_str()))
        } else if t.kind == TokKind::Ident && (i == lo || !toks[i - 1].is_punct(".")) {
            Some((i, t.text.as_str()))
        } else {
            None
        };
        if let Some((ni, name)) = callee {
            if SINKS.contains(&name) && ni + 1 < hi && toks[ni + 1].is_punct("(") {
                if let Some(close) = matching(toks, ni + 1, "(", ")") {
                    if let Some(origin) =
                        expr_taint(toks, ni + 2, close.min(hi), &hash_vars, &tainted, false)
                    {
                        diags.push(Diagnostic {
                            file: ctx.rel.clone(),
                            line: toks[ni].line,
                            rule: "determinism-taint",
                            msg: format!(
                                "value derived from {origin} flows into `{name}(…)` — \
                                 nondeterministic bits must not reach wire/trace/telemetry \
                                 outputs"
                            ),
                            chain: Vec::new(),
                        });
                    }
                    i = ni + 2;
                    continue;
                }
            }
        }
        i += 1;
    }
}

/// Whether the expression tokens `[lo, hi)` carry taint; returns the origin.
/// With `bare_hash` set (a `for`-loop iterable), a hash-typed variable taints
/// even without an explicit `.iter()`-family call.
fn expr_taint(
    toks: &[Tok],
    lo: usize,
    hi: usize,
    hash_vars: &[String],
    tainted: &BTreeMap<String, String>,
    bare_hash: bool,
) -> Option<String> {
    let mut j = lo;
    while j < hi {
        let t = &toks[j];
        if t.kind == TokKind::Ident {
            if let Some((_, origin)) = DIRECT_SOURCES.iter().find(|(s, _)| *s == t.text) {
                return Some((*origin).to_string());
            }
            if let Some(origin) = tainted.get(&t.text) {
                return Some(origin.clone());
            }
            if hash_vars.contains(&t.text) {
                // The collection taints when its order is revealed: an
                // `.iter()`-family call, or direct use as a loop iterable.
                let iterated = j + 1 < hi
                    && toks[j + 1].is_punct(".")
                    && j + 2 < hi
                    && ITER_METHODS.contains(&toks[j + 2].text.as_str());
                if iterated || bare_hash {
                    return Some(format!("`{}` (HashMap/HashSet iteration order)", t.text));
                }
            }
        }
        j += 1;
    }
    None
}

/// All `let` bindings in `[lo, hi)` as `(name, init_lo, init_hi)` — the
/// initializer range runs from after `=` to the terminating `;` at the same
/// nesting depth. Pattern bindings take the first identifier after `let`.
fn let_bindings(toks: &[Tok], lo: usize, hi: usize) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    let mut i = lo;
    while i < hi {
        if !toks[i].is_ident("let") {
            i += 1;
            continue;
        }
        // Binding name: first identifier that isn't `mut`/`ref`.
        let mut j = i + 1;
        let mut name: Option<String> = None;
        while j < hi && !toks[j].is_punct("=") && !toks[j].is_punct(";") {
            let t = &toks[j];
            if t.kind == TokKind::Ident && t.text != "mut" && t.text != "ref" && name.is_none() {
                name = Some(t.text.clone());
            }
            // Don't run into a `==`/`=>`-free comparison; `=` is the split.
            j += 1;
        }
        let Some(name) = name else {
            i = j + 1;
            continue;
        };
        if j >= hi || !toks[j].is_punct("=") {
            i = j + 1;
            continue;
        }
        // Initializer: up to the `;` at bracket depth 0 relative to here.
        let init_lo = j + 1;
        let mut depth = 0i64;
        let mut k = init_lo;
        while k < hi {
            let t = &toks[k];
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                depth -= 1;
            } else if t.is_punct(";") && depth <= 0 {
                break;
            }
            k += 1;
        }
        out.push((name, init_lo, k));
        i = k + 1;
    }
    out
}

/// Parameters in the signature range `[lo, hi)` as `(name, type_lo,
/// type_hi)`: depth-0 comma-separated segments, name before the `:`, type
/// after it.
fn param_bindings(toks: &[Tok], lo: usize, hi: usize) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    let mut seg_lo = lo;
    let mut depth = 0i64;
    let mut i = lo;
    while i <= hi {
        let at_end = i == hi;
        if !at_end {
            let t = &toks[i];
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("<") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct(">") {
                depth -= 1;
            } else if t.is_punct(">>") {
                depth -= 2;
            }
        }
        if at_end || (depth <= 0 && toks[i].is_punct(",")) {
            let seg = &toks[seg_lo..i];
            if let Some(colon) = seg.iter().position(|t| t.is_punct(":")) {
                if let Some(name) = seg[..colon]
                    .iter()
                    .find(|t| t.kind == TokKind::Ident && t.text != "mut" && t.text != "ref")
                {
                    out.push((name.text.clone(), seg_lo + colon + 1, i));
                }
            }
            seg_lo = i + 1;
        }
        i += 1;
    }
    out
}

/// All `for <pat> in <expr> {` loops in `[lo, hi)` as `(name, expr_lo,
/// expr_hi)`; the pattern's first identifier receives the iterable's taint.
fn for_bindings(toks: &[Tok], lo: usize, hi: usize) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    let mut i = lo;
    while i < hi {
        if !toks[i].is_ident("for") {
            i += 1;
            continue;
        }
        // Pattern: first identifier before `in`.
        let mut j = i + 1;
        let mut name: Option<String> = None;
        while j < hi && !toks[j].is_ident("in") {
            let t = &toks[j];
            if t.kind == TokKind::Ident && t.text != "mut" && t.text != "ref" && name.is_none() {
                name = Some(t.text.clone());
            }
            j += 1;
        }
        if j >= hi {
            break;
        }
        // Iterable expression: up to the loop's `{` at depth 0.
        let expr_lo = j + 1;
        let mut depth = 0i64;
        let mut k = expr_lo;
        while k < hi {
            let t = &toks[k];
            if t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                depth -= 1;
            } else if t.is_punct("{") && depth <= 0 {
                break;
            }
            k += 1;
        }
        if let Some(name) = name {
            out.push((name, expr_lo, k));
        }
        i = k + 1;
    }
    out
}
