//! Workspace-wide call graph and panic/alloc reachability.
//!
//! Every function [`crate::parse`] recovers becomes a node; call edges are
//! resolved by name with a same-crate-first policy (see [`resolve`]).
//! Functions annotated `// trimlint: hot-path` are reachability roots: a
//! breadth-first search from each root reports every transitively reachable
//! panic source (`panic!`-family macros, `.unwrap()`/`.expect()`, slice
//! indexing by packet-supplied lengths) and allocation source (`vec!`/
//! `format!`, `with_capacity`, `to_vec`, `collect`, `Box::new`, …), printing
//! the full call chain from the root to the offending construct.
//!
//! `assert!`/`debug_assert!` are *not* treated as panic sources: they are the
//! workspace's sanctioned diagnosed-guard idiom (the token-level `no-panic`
//! rule draws the same line). `Vec::new`/`String::new` are not allocation
//! sources (they do not allocate), and amortized growth (`push`, `extend`,
//! `resize`) is allowed — the rule targets per-call allocations.
//!
//! A source is exempt when a `trimlint: allow` on its line (or a standalone
//! allow above it) lists `no-panic`/`hot-path-panic` (panics),
//! `unchecked-len-index`/`hot-path-panic` (indexing), or `hot-path-alloc`
//! (allocations); the exemption marks that suppression as used for the
//! suppression audit.
//!
//! The same allow standing directly above a `fn` exempts the whole function:
//! the search neither descends into it nor reports its own sources. That is
//! how a per-packet root says where per-packet work ends — the step it
//! completes, the assembly it creates once per message — without an allow on
//! every allocation the amortized work goes on to make.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::lex::{matching, Tok, TokKind};
use crate::rules::{PACKET_LEN_IDENTS, PANIC_MACROS, PANIC_METHODS};
use crate::{Diagnostic, FileCtx, UsedSet};

/// Method calls that allocate on every invocation.
const ALLOC_METHODS: &[&str] = &[
    "with_capacity",
    "to_vec",
    "to_owned",
    "to_string",
    "collect",
];

/// Identifiers that look like calls but are control-flow keywords.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "else", "fn", "let",
    "mut", "ref", "break", "continue", "where", "impl", "use", "pub", "struct", "enum", "trait",
    "type", "const", "static", "unsafe", "dyn", "box", "await", "async", "yield",
];

/// Method/function names that default to `std` when no same-crate definition
/// exists: cross-crate fallback resolution is skipped for these, so `.iter()`
/// or `cmp::min(...)` never produce spurious edges into workspace functions
/// that happen to share a standard-library name.
const STD_NAMES: &[&str] = &[
    "abs",
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "back",
    "binary_search",
    "binary_search_by",
    "bytes",
    "ceil",
    "chars",
    "checked_add",
    "checked_div",
    "checked_mul",
    "checked_sub",
    "chunks",
    "chunks_exact",
    "chunks_exact_mut",
    "chunks_mut",
    "clear",
    "clone",
    "clone_from_slice",
    "cloned",
    "cmp",
    "contains",
    "contains_key",
    "copied",
    "copy_from_slice",
    "count",
    "count_ones",
    "default",
    "div_ceil",
    "div_euclid",
    "drain",
    "drop",
    "ends_with",
    "enumerate",
    "err",
    "extend",
    "extend_from_slice",
    "fill",
    "filter",
    "filter_map",
    "find",
    "first",
    "flat_map",
    "flatten",
    "floor",
    "fold",
    "from_be_bytes",
    "from_le_bytes",
    "front",
    "get",
    "get_mut",
    "get_or_insert_with",
    "insert",
    "into_iter",
    "is_empty",
    "is_power_of_two",
    "iter",
    "iter_mut",
    "join",
    "last",
    "leading_zeros",
    "len",
    "lock",
    "map",
    "map_err",
    "max",
    "max_by",
    "max_by_key",
    "min",
    "min_by",
    "min_by_key",
    "next",
    "next_power_of_two",
    "ok",
    "ok_or",
    "ok_or_else",
    "parse",
    "peek",
    "pop",
    "pop_back",
    "pop_front",
    "position",
    "pow",
    "powf",
    "powi",
    "product",
    "push",
    "push_back",
    "push_front",
    "recv",
    "rem_euclid",
    "remove",
    "replace",
    "reserve",
    "resize",
    "resize_with",
    "retain",
    "rev",
    "rotate_left",
    "rotate_right",
    "round",
    "saturating_add",
    "saturating_mul",
    "saturating_sub",
    "send",
    "set",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "split",
    "split_at",
    "split_at_mut",
    "split_whitespace",
    "sqrt",
    "starts_with",
    "step_by",
    "sum",
    "swap",
    "swap_remove",
    "take",
    "then",
    "to_be_bytes",
    "to_le_bytes",
    "trailing_zeros",
    "trim",
    "trim_end",
    "trim_start",
    "truncate",
    "try_recv",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "windows",
    "wrapping_add",
    "wrapping_sub",
    "zip",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SrcKind {
    Panic,
    Alloc,
}

/// One panic/alloc construct found in a function body.
struct SourceHit {
    line: u32,
    kind: SrcKind,
    what: String,
}

/// One unresolved call site.
enum CallKind {
    /// `recv.name(…)` — resolved same-crate-first by method name.
    Method(String),
    /// `Type::name(…)` — resolved by workspace impl-type name.
    Typed(String, String),
    /// `name(…)` or `path::name(…)` — resolved same-crate-first by fn name.
    Free(String),
}

struct Node {
    file: usize,
    f: usize,
    calls: Vec<CallKind>,
    sources: Vec<SourceHit>,
    /// A hot-path allow on the `fn` line: reachability stops here.
    exempt: bool,
}

/// Runs the interprocedural panic/alloc reachability analysis.
pub(crate) fn analyze(files: &[FileCtx], used: &mut [UsedSet]) -> Vec<Diagnostic> {
    // 1. Nodes + per-body call/source extraction (test fns excluded).
    let mut nodes: Vec<Node> = Vec::new();
    for (fi, ctx) in files.iter().enumerate() {
        for (gi, f) in ctx.parsed.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let mut node = Node {
                file: fi,
                f: gi,
                calls: Vec::new(),
                sources: Vec::new(),
                exempt: exempt(
                    ctx,
                    &mut used[fi],
                    f.line,
                    &["hot-path-alloc", "hot-path-panic"],
                ),
            };
            if let Some((lo, hi)) = f.body {
                extract(
                    ctx,
                    lo,
                    hi,
                    f.impl_type.as_deref(),
                    &mut node,
                    &mut used[fi],
                );
            }
            nodes.push(node);
        }
    }

    // 2. Name indexes for resolution.
    let mut method_same: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    let mut method_all: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut free_same: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    let mut free_all: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut typed: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    for (ni, n) in nodes.iter().enumerate() {
        let ctx = &files[n.file];
        let f = &ctx.parsed.fns[n.f];
        if let Some(t) = &f.impl_type {
            method_same
                .entry((ctx.krate.clone(), f.name.clone()))
                .or_default()
                .push(ni);
            method_all.entry(f.name.clone()).or_default().push(ni);
            typed
                .entry((t.clone(), f.name.clone()))
                .or_default()
                .push(ni);
        } else {
            free_same
                .entry((ctx.krate.clone(), f.name.clone()))
                .or_default()
                .push(ni);
            free_all.entry(f.name.clone()).or_default().push(ni);
        }
    }

    // 3. Resolve call sites to adjacency lists.
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (ni, n) in nodes.iter().enumerate() {
        let krate = &files[n.file].krate;
        let mut out: BTreeSet<usize> = BTreeSet::new();
        for call in &n.calls {
            match call {
                CallKind::Method(name) => {
                    if let Some(v) = method_same.get(&(krate.clone(), name.clone())) {
                        out.extend(v);
                    } else if !STD_NAMES.contains(&name.as_str()) {
                        if let Some(v) = method_all.get(name) {
                            out.extend(v);
                        }
                    }
                }
                CallKind::Typed(t, name) => {
                    if let Some(v) = typed.get(&(t.clone(), name.clone())) {
                        out.extend(v);
                    }
                }
                CallKind::Free(name) => {
                    if let Some(v) = free_same.get(&(krate.clone(), name.clone())) {
                        out.extend(v);
                    } else if !STD_NAMES.contains(&name.as_str()) {
                        if let Some(v) = free_all.get(name) {
                            out.extend(v);
                        }
                    }
                }
            }
        }
        out.remove(&ni); // direct recursion adds nothing to reachability
        edges[ni] = out.into_iter().collect();
    }

    // 4. BFS from every hot root; report each source once, with the chain
    //    from the first (deterministically ordered) root that reaches it.
    let roots: Vec<usize> = (0..nodes.len())
        .filter(|&ni| {
            let n = &nodes[ni];
            files[n.file].parsed.fns[n.f].is_hot
        })
        .collect();
    let mut reported: BTreeSet<(usize, u32, String)> = BTreeSet::new();
    let mut diags = Vec::new();
    for &root in &roots {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut queue = VecDeque::new();
        seen.insert(root);
        queue.push_back(root);
        while let Some(ni) = queue.pop_front() {
            for src in &nodes[ni].sources {
                let key = (nodes[ni].file, src.line, src.what.clone());
                if reported.contains(&key) {
                    continue;
                }
                reported.insert(key);
                diags.push(source_diag(files, &nodes, &parent, root, ni, src));
            }
            for &next in &edges[ni] {
                if !nodes[next].exempt && seen.insert(next) {
                    parent.insert(next, ni);
                    queue.push_back(next);
                }
            }
        }
    }
    diags
}

/// Builds the chain diagnostic for `src` in node `ni`, reached from `root`.
fn source_diag(
    files: &[FileCtx],
    nodes: &[Node],
    parent: &BTreeMap<usize, usize>,
    root: usize,
    ni: usize,
    src: &SourceHit,
) -> Diagnostic {
    let display = |n: usize| -> String {
        let node = &nodes[n];
        let ctx = &files[node.file];
        let f = &ctx.parsed.fns[node.f];
        let name = match &f.impl_type {
            Some(t) => format!("{t}::{}", f.name),
            None => f.name.clone(),
        };
        format!("{name} ({}:{})", ctx.rel, f.line)
    };
    let mut chain_nodes = vec![ni];
    let mut cur = ni;
    while cur != root {
        cur = parent[&cur];
        chain_nodes.push(cur);
    }
    chain_nodes.reverse();
    let mut chain: Vec<String> = chain_nodes.iter().map(|&n| display(n)).collect();
    let ctx = &files[nodes[ni].file];
    chain.push(format!("{} ({}:{})", src.what, ctx.rel, src.line));
    let (rule, verb) = match src.kind {
        SrcKind::Panic => ("hot-path-panic", "can reach a panic"),
        SrcKind::Alloc => ("hot-path-alloc", "allocates"),
    };
    Diagnostic {
        file: ctx.rel.clone(),
        line: src.line,
        rule,
        msg: format!("hot-path fn {verb}: {}", chain.join(" → ")),
        chain,
    }
}

/// Scans the body token range `[lo, hi)` for call sites and panic/alloc
/// sources. `impl_type` resolves `Self::` paths.
fn extract(
    ctx: &FileCtx,
    lo: usize,
    hi: usize,
    impl_type: Option<&str>,
    node: &mut Node,
    used: &mut UsedSet,
) {
    let toks = &ctx.out.toks;
    let mut i = lo;
    while i < hi {
        let t = &toks[i];
        // Macro invocation: `name!(…)`.
        if t.kind == TokKind::Ident && i + 1 < hi && toks[i + 1].is_punct("!") {
            let name = t.text.as_str();
            if PANIC_MACROS.contains(&name) {
                push_source(
                    ctx,
                    node,
                    used,
                    t.line,
                    SrcKind::Panic,
                    format!("`{name}!`"),
                );
            } else if name == "vec" || name == "format" {
                push_source(
                    ctx,
                    node,
                    used,
                    t.line,
                    SrcKind::Alloc,
                    format!("`{name}!`"),
                );
            }
            i += 2;
            continue;
        }
        // Method call: `.name(…)` (with optional turbofish).
        if t.is_punct(".") && i + 1 < hi && toks[i + 1].kind == TokKind::Ident {
            let name = toks[i + 1].text.as_str();
            if let Some(paren) = call_paren(toks, i + 2) {
                let line = toks[i + 1].line;
                if PANIC_METHODS.contains(&name) {
                    push_source(
                        ctx,
                        node,
                        used,
                        line,
                        SrcKind::Panic,
                        format!("`.{name}()`"),
                    );
                } else if ALLOC_METHODS.contains(&name) {
                    push_source(
                        ctx,
                        node,
                        used,
                        line,
                        SrcKind::Alloc,
                        format!("`.{name}()`"),
                    );
                } else {
                    node.calls.push(CallKind::Method(name.to_string()));
                }
                i = paren + 1;
                continue;
            }
            i += 2;
            continue;
        }
        // Path call: `seg::name(…)`.
        if t.kind == TokKind::Ident
            && i + 2 < hi
            && toks[i + 1].is_punct("::")
            && toks[i + 2].kind == TokKind::Ident
        {
            if let Some(paren) = call_paren(toks, i + 3) {
                let seg = t.text.as_str();
                let name = toks[i + 2].text.as_str();
                let line = toks[i + 2].line;
                let capital = |s: &str| s.chars().next().is_some_and(char::is_uppercase);
                if capital(name) {
                    // `EventKind::Arrive(…)` — an enum-variant constructor.
                    i = paren + 1;
                    continue;
                }
                let ty = if seg == "Self" {
                    impl_type.unwrap_or(seg)
                } else {
                    seg
                };
                if capital(ty) {
                    if name == "with_capacity"
                        || (ty == "Box" && name == "new")
                        || ((ty == "String" || ty == "Vec") && name == "from")
                    {
                        push_source(
                            ctx,
                            node,
                            used,
                            line,
                            SrcKind::Alloc,
                            format!("`{ty}::{name}`"),
                        );
                    } else if !(matches!(ty, "Vec" | "String" | "VecDeque" | "BinaryHeap")
                        && name == "new")
                    {
                        node.calls
                            .push(CallKind::Typed(ty.to_string(), name.to_string()));
                    }
                } else {
                    // `module::helper(…)` — resolved by bare fn name.
                    node.calls.push(CallKind::Free(name.to_string()));
                }
                i = paren + 1;
                continue;
            }
        }
        // Bare call: `name(…)` — skip keywords and tuple/variant constructors.
        if t.kind == TokKind::Ident
            && (i == lo || (!toks[i - 1].is_punct(".") && !toks[i - 1].is_punct("::")))
        {
            if let Some(paren) = call_paren(toks, i + 1) {
                let name = t.text.as_str();
                let capital = name.chars().next().is_some_and(char::is_uppercase);
                if !capital && !KEYWORDS.contains(&name) {
                    node.calls.push(CallKind::Free(name.to_string()));
                    i = paren; // descend into the argument list
                    continue;
                }
            }
        }
        // Indexing by a packet-supplied length: `…[… total_len …]`.
        if t.is_punct("[") && (i == lo || !toks[i - 1].is_punct("#")) {
            if let Some(close) = matching(toks, i, "[", "]") {
                if close <= hi {
                    let hit: BTreeSet<&str> = toks[i + 1..close]
                        .iter()
                        .filter(|tt| tt.kind == TokKind::Ident)
                        .filter_map(|tt| {
                            PACKET_LEN_IDENTS
                                .iter()
                                .copied()
                                .find(|p| *p == tt.text.as_str())
                        })
                        .collect();
                    let line = t.line;
                    for id in hit {
                        push_index_source(ctx, node, used, line, id);
                    }
                }
            }
        }
        i += 1;
    }
}

/// Records a panic/alloc source unless a suppression on its line exempts it
/// (marking the suppression used for the audit).
fn push_source(
    ctx: &FileCtx,
    node: &mut Node,
    used: &mut UsedSet,
    line: u32,
    kind: SrcKind,
    what: String,
) {
    let by: &[&str] = match kind {
        SrcKind::Panic => &["no-panic", "hot-path-panic"],
        SrcKind::Alloc => &["hot-path-alloc"],
    };
    if !exempt(ctx, used, line, by) {
        node.sources.push(SourceHit { line, kind, what });
    }
}

/// Records an unchecked-index panic source unless exempted.
fn push_index_source(ctx: &FileCtx, node: &mut Node, used: &mut UsedSet, line: u32, ident: &str) {
    if !exempt(ctx, used, line, &["unchecked-len-index", "hot-path-panic"]) {
        node.sources.push(SourceHit {
            line,
            kind: SrcKind::Panic,
            what: format!("index by `{ident}`"),
        });
    }
}

/// Whether a suppression covering `line` lists one of the rules in `by`;
/// every matching `(suppression, rule)` pair is marked used.
fn exempt(ctx: &FileCtx, used: &mut UsedSet, line: u32, by: &[&str]) -> bool {
    let mut hit = false;
    for (si, s) in ctx.out.suppressions.iter().enumerate() {
        if s.line != line && ctx.out.covered_line(s.line, s.standalone) != line {
            continue;
        }
        for r in &s.rules {
            if by.iter().any(|b| b == r) {
                used.insert((si, r.clone()));
                hit = true;
            }
        }
    }
    hit
}

/// Given the index just past a callee name, returns the index of the call's
/// opening `(` — directly adjacent or after a `::<…>` turbofish.
fn call_paren(toks: &[Tok], j: usize) -> Option<usize> {
    if j < toks.len() && toks[j].is_punct("(") {
        return Some(j);
    }
    if j + 1 < toks.len() && toks[j].is_punct("::") && toks[j + 1].is_punct("<") {
        let mut depth = 0i64;
        let mut k = j + 1;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_punct("<") {
                depth += 1;
            } else if t.is_punct(">") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.is_punct(">>") {
                depth -= 2;
                if depth <= 0 {
                    break;
                }
            }
            k += 1;
        }
        if k + 1 < toks.len() && toks[k + 1].is_punct("(") {
            return Some(k + 1);
        }
    }
    None
}
