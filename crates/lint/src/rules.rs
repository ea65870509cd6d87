//! Token-level lint rules.
//!
//! Every rule walks the token stream produced by [`mod@crate::lex`] with the
//! test-code mask applied, and emits `(line, message)` pairs; the caller
//! attaches the rule id and file path. See `DESIGN.md` §7 for the rationale
//! behind each rule; per-crate scoping lives in [`crate::lint_source`].

use crate::lex::{is_float_literal, matching, matching_open, LexOut, Tok, TokKind};

/// A rule's raw findings: source line plus human-readable message.
pub type Finding = (u32, String);

/// Panicking constructs banned from non-test code of the hot crates (shared
/// with the interprocedural reachability pass in `crate::callgraph`).
pub(crate) const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
pub(crate) const PANIC_METHODS: &[&str] = &["unwrap", "expect", "unwrap_err", "expect_err"];

/// `no-panic`: no `unwrap()`/`expect()`/`panic!`-family in non-test code.
#[must_use]
pub fn no_panic(out: &LexOut, mask: &[bool]) -> Vec<Finding> {
    let toks = &out.toks;
    let mut f = Vec::new();
    for i in 0..toks.len() {
        if mask[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        if PANIC_MACROS.contains(&name) && i + 1 < toks.len() && toks[i + 1].is_punct("!") {
            f.push((
                toks[i].line,
                format!("`{name}!` in non-test hot-crate code; return a typed error instead"),
            ));
        }
        if PANIC_METHODS.contains(&name)
            && i > 0
            && toks[i - 1].is_punct(".")
            && i + 1 < toks.len()
            && toks[i + 1].is_punct("(")
        {
            f.push((
                toks[i].line,
                format!("`.{name}()` in non-test hot-crate code; return a typed error instead"),
            ));
        }
    }
    f
}

/// `ordered-map`: ban `HashMap`/`HashSet` where iteration order leaks into
/// snapshots, events, or wire traffic — require `BTreeMap`/`BTreeSet`.
#[must_use]
pub fn ordered_map(out: &LexOut, mask: &[bool]) -> Vec<Finding> {
    let mut f = Vec::new();
    for (i, t) in out.toks.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "HashMap" || t.text == "HashSet" {
            let alt = if t.text == "HashMap" {
                "BTreeMap"
            } else {
                "BTreeSet"
            };
            f.push((
                t.line,
                format!(
                    "`{}` iteration order is nondeterministic; use `{alt}` in \
                     ordering-sensitive code",
                    t.text
                ),
            ));
        }
    }
    f
}

/// `wall-clock`: ban wall-clock time and real sleeps outside `bench` — the
/// simulator's only clock is `SimTime`.
#[must_use]
pub fn wall_clock(out: &LexOut, mask: &[bool]) -> Vec<Finding> {
    let toks = &out.toks;
    let mut f = Vec::new();
    for i in 0..toks.len() {
        if mask[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        if name == "Instant" || name == "SystemTime" {
            f.push((
                toks[i].line,
                format!("wall-clock `{name}` breaks bit-determinism; use simulated `SimTime`"),
            ));
        }
        if name == "sleep" && i >= 2 && toks[i - 1].is_punct("::") && toks[i - 2].is_ident("thread")
        {
            f.push((
                toks[i].line,
                "`thread::sleep` has no place in a discrete-event simulation".to_string(),
            ));
        }
    }
    f
}

/// `no-raw-spawn`: thread creation outside `crates/par` — `thread::spawn`,
/// `scope.spawn`, `Builder::spawn` — bypasses the deterministic
/// [`WorkerPool`]'s fixed chunk/merge order, so parallel output can stop
/// being bit-identical to serial. All fan-out must route through
/// `trimgrad_par`.
///
/// [`WorkerPool`]: https://docs.rs/trimgrad-par
#[must_use]
pub fn no_raw_spawn(out: &LexOut, mask: &[bool]) -> Vec<Finding> {
    let toks = &out.toks;
    let mut f = Vec::new();
    for i in 0..toks.len() {
        if mask[i] || !toks[i].is_ident("spawn") {
            continue;
        }
        let called = i + 1 < toks.len() && toks[i + 1].is_punct("(");
        let qualified = i > 0 && (toks[i - 1].is_punct("::") || toks[i - 1].is_punct("."));
        if called && qualified {
            f.push((
                toks[i].line,
                "raw thread `spawn`; route parallelism through \
                 `trimgrad_par::WorkerPool` so results stay deterministic"
                    .to_string(),
            ));
        }
    }
    f
}

/// `unseeded-rng`: every random stream must be constructed from an explicit
/// seed, or runs stop being reproducible.
#[must_use]
pub fn unseeded_rng(out: &LexOut, mask: &[bool]) -> Vec<Finding> {
    let toks = &out.toks;
    let mut f = Vec::new();
    for i in 0..toks.len() {
        if mask[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        let entropy_source = matches!(
            name,
            "thread_rng" | "from_entropy" | "from_os_rng" | "OsRng" | "RandomState" | "getrandom"
        );
        let rand_random = name == "random"
            && i >= 2
            && toks[i - 1].is_punct("::")
            && toks[i - 2].is_ident("rand");
        if entropy_source || rand_random {
            f.push((
                toks[i].line,
                format!("`{name}` draws OS entropy; construct RNGs from an explicit seed"),
            ));
        }
    }
    f
}

/// `float-eq`: `==`/`!=` against a float literal. Exact float comparison is
/// only meaningful through the shared helpers in `trimgrad_quant::fcmp`.
#[must_use]
pub fn float_eq(out: &LexOut, mask: &[bool]) -> Vec<Finding> {
    let toks = &out.toks;
    let mut f = Vec::new();
    for i in 0..toks.len() {
        if mask[i] || !(toks[i].is_punct("==") || toks[i].is_punct("!=")) {
            continue;
        }
        let float_neighbor = [i.checked_sub(1), Some(i + 1)]
            .into_iter()
            .flatten()
            .filter_map(|j| toks.get(j))
            .any(|t| t.kind == TokKind::Num && is_float_literal(&t.text));
        if float_neighbor {
            f.push((
                toks[i].line,
                format!(
                    "float `{}` comparison; use `trimgrad_quant::fcmp` \
                     (`exactly_zero` / `approx_eq`)",
                    toks[i].text
                ),
            ));
        }
    }
    f
}

/// Identifier fragments that mark an expression as a byte/packet count.
const COUNT_LIKE: &[&str] = &[
    "len", "size", "count", "total", "byte", "depth", "chunk", "seq", "offset", "part",
];

/// Narrow integer targets for which a count-expression `as` cast can
/// silently truncate.
const NARROW_INTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// `lossy-cast`: `expr as u8/u16/u32/…` where `expr` names a byte or packet
/// count — truncation silently corrupts accounting; use `try_from`.
#[must_use]
pub fn lossy_cast(out: &LexOut, mask: &[bool]) -> Vec<Finding> {
    let toks = &out.toks;
    let mut f = Vec::new();
    for i in 0..toks.len() {
        if mask[i] || !toks[i].is_ident("as") {
            continue;
        }
        let Some(target) = toks.get(i + 1) else {
            continue;
        };
        if target.kind != TokKind::Ident || !NARROW_INTS.contains(&target.text.as_str()) {
            continue;
        }
        let Some(src_name) = cast_source_ident(toks, i) else {
            continue;
        };
        let lower = src_name.to_lowercase();
        if COUNT_LIKE.iter().any(|frag| lower.contains(frag)) {
            f.push((
                toks[i].line,
                format!(
                    "lossy `as {}` on count-like `{src_name}`; use `{}::try_from` \
                     and surface the error",
                    target.text, target.text
                ),
            ));
        }
    }
    f
}

/// Header fields whose values arrive from the wire and size packet regions.
/// An expression indexing a buffer with one of these reads at an
/// attacker-chosen offset unless the range was validated first.
pub(crate) const PACKET_LEN_IDENTS: &[&str] = &[
    "total_len",
    "udp_len",
    "coord_count",
    "coord_start",
    "trim_depth",
    "n_parts",
];

/// `unchecked-len-index`: indexing or slicing with a packet-supplied length
/// field (`total_len`, `coord_count`, …). Receive paths must bounds-check
/// the range (and suppress with the reason) or convert through
/// `trimgrad_wire::narrow`, which panics with context instead of reading
/// out of bounds silently.
#[must_use]
pub fn unchecked_len_index(out: &LexOut, mask: &[bool]) -> Vec<Finding> {
    let toks = &out.toks;
    let mut f = Vec::new();
    for i in 0..toks.len() {
        if mask[i] || !toks[i].is_punct("[") {
            continue;
        }
        // Only index expressions: the token before the bracket must end an
        // expression (`buf[`, `payload()[`, `rows[0][`). Array literals,
        // attributes, and type syntax keep their opening bracket after
        // punctuation and stay out of scope.
        let indexing = i > 0 && {
            let p = &toks[i - 1];
            p.kind == TokKind::Ident || p.is_punct(")") || p.is_punct("]")
        };
        if !indexing {
            continue;
        }
        let mut depth = 1usize;
        let mut j = i + 1;
        while j < toks.len() && depth > 0 {
            if toks[j].is_punct("[") {
                depth += 1;
            } else if toks[j].is_punct("]") {
                depth -= 1;
            } else if depth == 1
                && toks[j].kind == TokKind::Ident
                && PACKET_LEN_IDENTS.contains(&toks[j].text.as_str())
            {
                f.push((
                    toks[j].line,
                    format!(
                        "index bound uses packet-supplied `{}`; validate the range \
                         first or convert via `trimgrad_wire::narrow`",
                        toks[j].text
                    ),
                ));
            }
            j += 1;
        }
    }
    f
}

/// `trace-event-naming`: span and mark names handed to the flight recorder
/// — and metric names registered in the telemetry registry — must be
/// dot-separated lowercase segments of `[a-z0-9_]`: the convention every
/// built-in event kind (`pkt.trimmed`, `step.applied`, …) and metric
/// (`netsim.trim_bytes`, `collective.rank.0.steps_applied`, …) follows,
/// and what keeps span counters, scoped tenant prefixes, and trace/series
/// queries greppable. Matches `.span(…)` / `.span_at(…)` / `.mark(…)`
/// method calls whose name argument is a string literal anywhere in the
/// call, and `.counter(…)` / `.gauge(…)` /
/// `.float_gauge(…)` / `.histogram(…)` / `.scoped(…)` calls whose *first*
/// argument (past a leading `&`) is a string literal — the telemetry
/// accessors routinely take `&format!(…)` names whose literal fragments
/// must not be judged in isolation. Names built at runtime are out of
/// reach and stay unchecked.
#[must_use]
pub fn trace_event_naming(out: &LexOut, mask: &[bool]) -> Vec<Finding> {
    let toks = &out.toks;
    let mut f = Vec::new();
    for i in 0..toks.len() {
        if mask[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        let is_method =
            i > 0 && toks[i - 1].is_punct(".") && i + 1 < toks.len() && toks[i + 1].is_punct("(");
        let telemetry = is_method
            && matches!(
                name,
                "counter" | "gauge" | "float_gauge" | "histogram" | "scoped"
            );
        let recorder = is_method && matches!(name, "span" | "span_at" | "mark");
        if !(recorder || telemetry) {
            continue;
        }
        let open = i + 1;
        let Some(close) = matching(toks, open, "(", ")") else {
            continue;
        };
        let lit = if telemetry {
            // Only a *direct* literal first argument is a registered name;
            // `&format!("rank.{r}.x")` or `&key("loss")` literals are
            // fragments of a runtime-built name.
            let mut j = open + 1;
            while j < close && toks[j].is_punct("&") {
                j += 1;
            }
            (j < close && toks[j].kind == TokKind::Str).then(|| &toks[j])
        } else {
            toks[open + 1..close]
                .iter()
                .find(|t| t.kind == TokKind::Str)
        };
        let Some(lit) = lit else {
            continue;
        };
        if !valid_trace_name(&lit.text) {
            let what = if telemetry { "metric" } else { "trace" };
            f.push((
                lit.line,
                format!(
                    "{what} name `{}` must be dot-separated lowercase \
                     (`[a-z0-9_]` segments, e.g. `ring.send_step`)",
                    lit.text
                ),
            ));
        }
    }
    f
}

/// The flight recorder's naming convention, duplicated from `trimgrad-trace`
/// so the linter stays dependency-free.
fn valid_trace_name(name: &str) -> bool {
    !name.is_empty()
        && name.split('.').all(|seg| {
            !seg.is_empty()
                && seg
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

/// Walks left from the `as` at index `i` to find the identifier naming the
/// cast's source expression (the method or variable whose value is cast).
fn cast_source_ident(toks: &[Tok], i: usize) -> Option<&str> {
    let mut j = i.checked_sub(1)?;
    loop {
        let t = &toks[j];
        if t.kind == TokKind::Ident {
            return Some(&t.text);
        }
        if t.is_punct("?") {
            j = j.checked_sub(1)?;
            continue;
        }
        if t.is_punct(")") || t.is_punct("]") {
            let (op, cl) = if t.is_punct(")") {
                ("(", ")")
            } else {
                ("[", "]")
            };
            let open = matching_open(toks, j, op, cl)?;
            j = open.checked_sub(1)?;
            continue;
        }
        return None;
    }
}
