//! Golden fixtures for the interprocedural analyses: panic-reachability,
//! determinism taint, and the suppression audit. Each positive fixture pins a
//! caught violation (rule id, line, and for reachability the printed call
//! chain); each negative fixture pins the calibration decision that keeps the
//! real workspace clean.

use trimgrad_lint::{analyze_files, lint_source, Diagnostic};

fn netsim(src: &str) -> Vec<Diagnostic> {
    lint_source("crates/netsim/src/fixture.rs", src)
}

/// Fixture path in a crate without the token-level `no-panic` rule, so the
/// interprocedural findings stand alone (a suppression at the source would
/// exempt the whole chain — that exemption is itself under test below).
fn quant(src: &str) -> Vec<Diagnostic> {
    lint_source("crates/quant/src/fixture.rs", src)
}

fn rules_of(diags: &[Diagnostic]) -> Vec<(u32, &str)> {
    diags.iter().map(|d| (d.line, d.rule)).collect()
}

// ---------------------------------------------------------------------------
// Panic reachability
// ---------------------------------------------------------------------------

#[test]
fn panic_chain_two_calls_deep_is_reported_at_the_source() {
    let diags = quant(
        "// trimlint: hot-path -- fixture root\n\
         pub fn forward(x: Option<u32>) -> u32 { classify(x) }\n\
         fn classify(x: Option<u32>) -> u32 { decode(x) }\n\
         fn decode(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    let hot: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == "hot-path-panic")
        .collect();
    assert_eq!(hot.len(), 1, "expected one reachability finding: {diags:?}");
    let d = hot[0];
    // Reported at the panic source, not at the root.
    assert_eq!(d.line, 4);
    // root → classify → decode, then the offending call itself.
    assert_eq!(d.chain.len(), 4, "chain: {:?}", d.chain);
    assert!(d.chain[0].starts_with("forward"), "chain: {:?}", d.chain);
    assert!(d.chain[1].starts_with("classify"), "chain: {:?}", d.chain);
    assert!(d.chain[2].starts_with("decode"), "chain: {:?}", d.chain);
    assert!(d.chain[3].contains("unwrap"), "chain: {:?}", d.chain);
    assert!(d.msg.contains("forward"), "msg: {}", d.msg);
    assert!(d.msg.contains(" → "), "msg: {}", d.msg);
}

#[test]
fn direct_panic_macro_in_hot_fn_is_reported() {
    let diags = netsim(
        "// trimlint: hot-path\n\
         pub fn drain(q: &[u32]) -> u32 {\n\
             if q.is_empty() { panic!(\"empty\") } else { q[0] }\n\
         }\n",
    );
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "hot-path-panic" && d.line == 3),
        "diags: {diags:?}"
    );
}

#[test]
fn hot_path_annotation_works_on_impl_methods() {
    let diags = quant(
        "pub struct Port;\n\
         impl Port {\n\
             // trimlint: hot-path -- forward path\n\
             pub fn enqueue(&self, x: Option<u32>) -> u32 { self.slot(x) }\n\
             fn slot(&self, x: Option<u32>) -> u32 { x.expect(\"slot\") }\n\
         }\n",
    );
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "hot-path-panic" && d.line == 5 && d.chain.len() == 3),
        "diags: {diags:?}"
    );
}

#[test]
fn unchecked_packet_len_index_is_a_reachable_panic_source() {
    // Indexing by a wire-header length field without a `narrow` check is a
    // panic source even through a call.
    let diags = netsim(
        "// trimlint: hot-path\n\
         pub fn rx(buf: &[u8], total_len: usize) -> u8 { first(buf, total_len) }\n\
         fn first(buf: &[u8], total_len: usize) -> u8 { buf[total_len - 1] }\n",
    );
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "hot-path-panic" && d.line == 3 && d.msg.contains("total_len")),
        "diags: {diags:?}"
    );
}

#[test]
fn alloc_in_callee_of_hot_fn_is_reported() {
    let diags = netsim(
        "// trimlint: hot-path\n\
         pub fn serialize(n: usize) -> usize { scratch(n).len() }\n\
         fn scratch(n: usize) -> Vec<u8> { Vec::with_capacity(n) }\n",
    );
    let hits: Vec<&Diagnostic> = diags
        .iter()
        .filter(|d| d.rule == "hot-path-alloc")
        .collect();
    assert_eq!(hits.len(), 1, "diags: {diags:?}");
    assert_eq!(hits[0].line, 3);
    assert_eq!(hits[0].chain.len(), 3, "chain: {:?}", hits[0].chain);
}

#[test]
fn vec_new_and_amortized_growth_are_not_alloc_sources() {
    // Calibration: constructing empty containers and amortized push/extend
    // are allowed on the hot path; only up-front allocation calls count.
    let diags = netsim(
        "// trimlint: hot-path\n\
         pub fn acc(xs: &[u32]) -> Vec<u32> {\n\
             let mut v = Vec::new();\n\
             v.extend(xs);\n\
             v.push(0);\n\
             v\n\
         }\n",
    );
    assert!(
        !diags.iter().any(|d| d.rule == "hot-path-alloc"),
        "diags: {diags:?}"
    );
}

#[test]
fn asserts_are_not_panic_sources() {
    // Calibration: `assert!`/`debug_assert!` are the sanctioned
    // diagnosed-guard idiom, not latent panics.
    let diags = netsim(
        "// trimlint: hot-path\n\
         pub fn step(depth: usize) -> usize {\n\
             assert!(depth > 0, \"depth\");\n\
             debug_assert_eq!(depth % 2, 0);\n\
             depth / 2\n\
         }\n",
    );
    assert!(
        !diags.iter().any(|d| d.rule == "hot-path-panic"),
        "diags: {diags:?}"
    );
}

#[test]
fn suppressed_source_does_not_poison_reachability() {
    // An allow(hot-path-panic) at the source exempts every chain through it.
    let diags = netsim(
        "// trimlint: hot-path\n\
         pub fn forward(x: Option<u32>) -> u32 { decode(x) }\n\
         // trimlint: allow(hot-path-panic) -- diagnosed misuse guard, fixture\n\
         // trimlint: allow(no-panic) -- fixture\n\
         fn decode(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    assert!(
        !diags.iter().any(|d| d.rule == "hot-path-panic"),
        "diags: {diags:?}"
    );
    // And both suppressions count as used — no stale-suppression either.
    assert!(
        !diags.iter().any(|d| d.rule == "stale-suppression"),
        "diags: {diags:?}"
    );
}

#[test]
fn allow_on_the_fn_line_stops_reachability_at_that_function() {
    // `flush` is amortized work the per-packet root triggers: the allow above
    // it exempts its own allocation and everything it calls, but not what
    // the root reaches another way.
    let src = |allow: &str| {
        format!(
            "// trimlint: hot-path\n\
             pub fn on_packet(x: usize) {{ if x == 0 {{ flush(x) }} else {{ tally(x) }} }}\n\
             {allow}\
             fn flush(x: usize) {{ let _: Vec<u8> = Vec::with_capacity(x); rebuild(x); }}\n\
             fn rebuild(x: usize) {{ let _ = vec![0u8; x]; }}\n\
             fn tally(x: usize) {{ let _ = vec![1u8; x]; }}\n"
        )
    };
    let allocs = |diags: &[Diagnostic]| -> Vec<u32> {
        let mut lines: Vec<u32> = diags
            .iter()
            .filter(|d| d.rule == "hot-path-alloc")
            .map(|d| d.line)
            .collect();
        lines.sort_unstable();
        lines
    };
    assert_eq!(allocs(&quant(&src(""))), [3, 4, 5]);
    let diags = quant(&src(
        "// trimlint: allow(hot-path-alloc) -- once per flush, fixture\n",
    ));
    assert_eq!(allocs(&diags), [6], "diags: {diags:?}");
    assert!(
        !diags.iter().any(|d| d.rule == "stale-suppression"),
        "diags: {diags:?}"
    );
}

#[test]
fn test_functions_are_not_roots_and_not_sources() {
    let diags = netsim(
        "// trimlint: hot-path\n\
         pub fn hot(x: u32) -> u32 { x + 1 }\n\
         #[cfg(test)]\n\
         mod tests {\n\
             #[test]\n\
             fn t() { assert_eq!(super::hot(0), 1); Vec::<u8>::with_capacity(4); }\n\
         }\n",
    );
    assert!(
        !diags
            .iter()
            .any(|d| d.rule == "hot-path-panic" || d.rule == "hot-path-alloc"),
        "diags: {diags:?}"
    );
}

#[test]
fn cross_crate_chain_resolves_through_analyze_files() {
    // A hot root in netsim calling into another crate's helper: the method
    // is not a std name, so the cross-crate fallback links them.
    let report = analyze_files(&[
        (
            "crates/netsim/src/fwd.rs".to_string(),
            "// trimlint: hot-path -- fixture\n\
             pub fn forward(f: &crate::Frame) -> u32 { f.decode_grad() }\n"
                .to_string(),
        ),
        (
            "crates/quant/src/frame.rs".to_string(),
            "pub struct Frame;\n\
             impl Frame {\n\
                 pub fn decode_grad(&self) -> u32 { unreachable!(\"fixture\") }\n\
             }\n"
            .to_string(),
        ),
    ]);
    let hot: Vec<&Diagnostic> = report
        .diags
        .iter()
        .filter(|d| d.rule == "hot-path-panic")
        .collect();
    assert_eq!(hot.len(), 1, "diags: {:?}", report.diags);
    assert_eq!(hot[0].file, "crates/quant/src/frame.rs");
    assert_eq!(hot[0].line, 3);
    assert_eq!(hot[0].chain.len(), 3, "chain: {:?}", hot[0].chain);
    assert_eq!(report.hot_path_count, 1);
}

#[test]
fn std_method_names_do_not_cross_crates() {
    // `.get(` exists in std; without a same-crate definition it must NOT
    // resolve to some other crate's `get` — that would drown the analysis
    // in false chains.
    let report = analyze_files(&[
        (
            "crates/netsim/src/fwd.rs".to_string(),
            "// trimlint: hot-path\n\
             pub fn forward(m: &[u32]) -> Option<&u32> { m.get(0) }\n"
                .to_string(),
        ),
        (
            "crates/quant/src/other.rs".to_string(),
            "pub struct T;\n\
             impl T {\n\
                 pub fn get(&self) -> u32 { panic!(\"not me\") }\n\
             }\n"
            .to_string(),
        ),
    ]);
    assert!(
        !report.diags.iter().any(|d| d.rule == "hot-path-panic"),
        "diags: {:?}",
        report.diags
    );
}

// ---------------------------------------------------------------------------
// Determinism taint
// ---------------------------------------------------------------------------

#[test]
fn hashmap_iteration_order_must_not_reach_a_sink() {
    let diags = netsim(
        "use std::collections::HashMap;\n\
         pub fn dump(t: &mut crate::Trace) {\n\
             let m: HashMap<u32, u32> = HashMap::new();\n\
             for (k, _) in m.iter() {\n\
                 t.emit(k);\n\
             }\n\
         }\n",
    );
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "determinism-taint" && d.line == 5 && d.msg.contains("HashMap")),
        "diags: {diags:?}"
    );
}

#[test]
fn hash_typed_parameter_taints_through_for_loop() {
    // The tainted container arrives as a parameter and is iterated without
    // an explicit `.iter()` call.
    let diags = netsim(
        "use std::collections::HashMap;\n\
         pub fn flush(m: &HashMap<u32, u32>, w: &mut crate::Wire) {\n\
             for (k, v) in m {\n\
                 w.encode(*k, *v);\n\
             }\n\
         }\n",
    );
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "determinism-taint" && d.line == 4),
        "diags: {diags:?}"
    );
}

#[test]
fn wall_clock_must_not_reach_serialization() {
    let diags = netsim(
        "pub fn stamp(w: &mut crate::Wire) {\n\
             let now = std::time::Instant::now();\n\
             w.serialize(now);\n\
         }\n",
    );
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "determinism-taint" && d.msg.contains("wall clock")),
        "diags: {diags:?}"
    );
}

#[test]
fn sorted_iteration_into_a_sink_is_clean() {
    // BTreeMap has deterministic order: same shape, no finding.
    let diags = netsim(
        "use std::collections::BTreeMap;\n\
         pub fn dump(t: &mut crate::Trace) {\n\
             let m: BTreeMap<u32, u32> = BTreeMap::new();\n\
             for (k, _) in m.iter() {\n\
                 t.emit(k);\n\
             }\n\
         }\n",
    );
    assert!(
        !diags.iter().any(|d| d.rule == "determinism-taint"),
        "diags: {diags:?}"
    );
}

#[test]
fn hashmap_point_lookup_is_not_tainted() {
    // Keyed access does not depend on iteration order.
    let diags = netsim(
        "use std::collections::HashMap;\n\
         pub fn one(m: &HashMap<u32, u32>, t: &mut crate::Trace) {\n\
             let v = m.get(&3);\n\
             t.emit(v);\n\
         }\n",
    );
    assert!(
        !diags.iter().any(|d| d.rule == "determinism-taint"),
        "diags: {diags:?}"
    );
}

// ---------------------------------------------------------------------------
// Suppression audit
// ---------------------------------------------------------------------------

#[test]
fn suppression_with_no_finding_is_stale() {
    let diags = netsim(
        "pub fn fine(x: u32) -> u32 {\n\
             // trimlint: allow(no-panic) -- nothing here panics any more\n\
             x + 1\n\
         }\n",
    );
    assert_eq!(rules_of(&diags), vec![(2, "stale-suppression")]);
}

#[test]
fn suppression_for_the_wrong_rule_is_stale_and_finding_survives() {
    let diags = netsim(
        "pub fn nope(x: Option<u32>) -> u32 {\n\
             // trimlint: allow(hot-path-alloc) -- wrong rule for this line\n\
             x.unwrap()\n\
         }\n",
    );
    assert_eq!(
        rules_of(&diags),
        vec![(2, "stale-suppression"), (3, "no-panic")]
    );
}

#[test]
fn unknown_rule_id_in_suppression_is_flagged() {
    let diags = netsim(
        "pub fn f(x: u32) -> u32 {\n\
             // trimlint: allow(no-such-rule) -- typo\n\
             x\n\
         }\n",
    );
    assert!(
        diags
            .iter()
            .any(|d| d.rule == "bad-suppression" || d.rule == "stale-suppression"),
        "diags: {diags:?}"
    );
}

#[test]
fn live_suppression_is_not_stale() {
    let diags = netsim(
        "pub fn g(x: Option<u32>) -> u32 {\n\
             // trimlint: allow(no-panic) -- fixture: documented contract\n\
             x.unwrap()\n\
         }\n",
    );
    assert!(diags.is_empty(), "diags: {diags:?}");
}

#[test]
fn suppressions_inside_test_code_are_not_audited() {
    // Test-only suppressions may legitimately cover rules that only fire in
    // non-test code (e.g. wall-clock); the audit must not churn on them.
    let diags = netsim(
        "#[cfg(test)]\n\
         mod tests {\n\
             #[test]\n\
             fn t() {\n\
                 // trimlint: allow(wall-clock) -- timing a test locally\n\
                 let x = 1;\n\
                 assert_eq!(x, 1);\n\
             }\n\
         }\n",
    );
    assert!(
        !diags.iter().any(|d| d.rule == "stale-suppression"),
        "diags: {diags:?}"
    );
}

// ---------------------------------------------------------------------------
// Parse errors and annotation attachment
// ---------------------------------------------------------------------------

#[test]
fn unbalanced_delimiters_are_a_parse_error() {
    let report = analyze_files(&[(
        "crates/netsim/src/broken.rs".to_string(),
        "pub fn f(x: u32) -> u32 {\n    x\n".to_string(),
    )]);
    assert!(
        report.diags.iter().any(|d| d.rule == "parse-error"),
        "diags: {:?}",
        report.diags
    );
    assert_eq!(report.parse_error_count, 1);
}

#[test]
fn unattached_hot_path_annotation_is_a_parse_error() {
    // An annotation with no following function is a broken contract, not a
    // silently ignored comment.
    let report = analyze_files(&[(
        "crates/netsim/src/tail.rs".to_string(),
        "pub fn f(x: u32) -> u32 { x }\n\n// trimlint: hot-path -- dangling\n".to_string(),
    )]);
    assert!(
        report
            .diags
            .iter()
            .any(|d| d.rule == "parse-error" && d.line == 3),
        "diags: {:?}",
        report.diags
    );
    assert_eq!(report.parse_error_count, 1);
    assert_eq!(report.hot_path_count, 0);
}

#[test]
fn hot_path_count_excludes_test_functions() {
    let report = analyze_files(&[(
        "crates/netsim/src/mix.rs".to_string(),
        "// trimlint: hot-path\n\
         pub fn real(x: u32) -> u32 { x }\n\
         #[cfg(test)]\n\
         mod tests {\n\
             // trimlint: hot-path\n\
             #[test]\n\
             fn t() {}\n\
         }\n"
        .to_string(),
    )]);
    assert_eq!(report.hot_path_count, 1);
}
