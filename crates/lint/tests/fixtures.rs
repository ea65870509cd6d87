//! Golden-fixture tests for every lint rule: positive snippets must produce
//! exactly the expected diagnostics (line + rule id), negative snippets must
//! stay quiet, and suppression comments must behave precisely as documented.

use trimgrad_lint::lint_source;

/// Lints `src` as non-test code of a hot, ordering-sensitive crate.
fn lint_netsim(src: &str) -> Vec<(u32, &'static str)> {
    lint_source("crates/netsim/src/fixture.rs", src)
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect()
}

/// Lints `src` as a wire-crate header module.
fn lint_wire(src: &str) -> Vec<(u32, &'static str)> {
    lint_source("crates/wire/src/fixture.rs", src)
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect()
}

#[test]
fn diagnostic_renders_machine_readable_format() {
    let diags = lint_source(
        "crates/netsim/src/fixture.rs",
        "fn f(v: Option<u32>) -> u32 {\n    v.unwrap()\n}\n",
    );
    assert_eq!(diags.len(), 1);
    assert_eq!(
        diags[0].to_string(),
        "crates/netsim/src/fixture.rs:2: [no-panic] `.unwrap()` in non-test \
         hot-crate code; return a typed error instead"
    );
}

#[test]
fn no_panic_flags_every_construct() {
    let src = "\
fn f(v: Option<u32>, r: Result<u32, ()>) -> u32 {
    let a = v.unwrap();
    let b = r.expect(\"msg\");
    if a == 0 {
        panic!(\"boom\");
    }
    if b == 0 {
        unreachable!();
    }
    todo!()
}
";
    assert_eq!(
        lint_netsim(src),
        vec![
            (2, "no-panic"),
            (3, "no-panic"),
            (5, "no-panic"),
            (8, "no-panic"),
            (10, "no-panic"),
        ]
    );
}

#[test]
fn no_panic_ignores_test_code_and_lookalikes() {
    // unwrap_or_else is not unwrap; a path call `expect(x)` without a
    // receiver dot is not the method; #[test] fns and #[cfg(test)] mods are
    // out of scope entirely.
    let src = "\
fn f(v: Option<u32>) -> u32 {
    v.unwrap_or_else(|| 7)
}

#[cfg(test)]
mod tests {
    #[test]
    fn inside() {
        Some(1).unwrap();
        panic!(\"fine in tests\");
    }
}
";
    assert_eq!(lint_netsim(src), vec![]);
}

#[test]
fn cfg_not_test_is_still_linted() {
    let src = "\
#[cfg(not(test))]
fn f(v: Option<u32>) -> u32 {
    v.unwrap()
}
";
    assert_eq!(lint_netsim(src), vec![(3, "no-panic")]);
}

#[test]
fn ordered_map_flags_hash_collections() {
    let src = "\
use std::collections::HashMap;
struct S {
    seen: std::collections::HashSet<u32>,
}
";
    assert_eq!(
        lint_netsim(src),
        vec![(1, "ordered-map"), (3, "ordered-map")]
    );
    // BTreeMap is the sanctioned replacement.
    assert_eq!(lint_netsim("use std::collections::BTreeMap;\n"), vec![]);
}

#[test]
fn ordered_map_scope_is_per_crate() {
    // quant is hot for nothing order-related; HashMap is allowed there.
    let diags = lint_source(
        "crates/quant/src/fixture.rs",
        "use std::collections::HashMap;\n",
    );
    assert_eq!(diags, vec![]);
}

#[test]
fn wall_clock_flags_instant_systemtime_sleep() {
    let src = "\
fn f() {
    let t = std::time::Instant::now();
    let s = std::time::SystemTime::now();
    std::thread::sleep(core::time::Duration::from_secs(1));
    let _ = (t, s);
}
";
    assert_eq!(
        lint_netsim(src),
        vec![(2, "wall-clock"), (3, "wall-clock"), (4, "wall-clock")]
    );
    // A local fn named sleep is not thread::sleep.
    assert_eq!(lint_netsim("fn g() { sleep(); }\nfn sleep() {}\n"), vec![]);
}

#[test]
fn unseeded_rng_flags_entropy_sources() {
    let src = "\
fn f() {
    let mut rng = rand::thread_rng();
    let x: f32 = rand::random();
    let _ = (rng, x);
}
";
    assert_eq!(
        lint_netsim(src),
        vec![(2, "unseeded-rng"), (3, "unseeded-rng")]
    );
    // Explicitly seeded construction is the sanctioned pattern.
    assert_eq!(
        lint_netsim("fn g(seed: u64) { let _ = Xoshiro256StarStar::new(seed); }\n"),
        vec![]
    );
}

#[test]
fn no_raw_spawn_flags_thread_creation() {
    let src = "\
fn f() {
    let h = std::thread::spawn(|| 1 + 1);
    std::thread::scope(|s| {
        s.spawn(|| ());
    });
    let _ = h.join();
}
";
    assert_eq!(
        lint_netsim(src),
        vec![(2, "no-raw-spawn"), (4, "no-raw-spawn")]
    );
}

#[test]
fn no_raw_spawn_exempts_par_and_ignores_lookalikes() {
    // crates/par is the deterministic pool itself — raw spawn is its job.
    let diags = lint_source(
        "crates/par/src/fixture.rs",
        "fn f() { std::thread::scope(|s| { s.spawn(|| ()); }); }\n",
    );
    assert_eq!(diags, vec![]);
    // A free function named spawn (no `::`/`.` qualifier) is not a thread.
    assert_eq!(lint_netsim("fn g() { spawn(); }\nfn spawn() {}\n"), vec![]);
    // Test code may spawn raw threads (e.g. to provoke races on purpose).
    let test_src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        std::thread::spawn(|| ()).join().unwrap();
    }
}
";
    assert_eq!(lint_netsim(test_src), vec![]);
}

#[test]
fn float_eq_flags_literal_comparisons() {
    let src = "\
fn f(x: f32) -> bool {
    if x == 0.0 {
        return true;
    }
    x != 1.5
}
";
    assert_eq!(lint_netsim(src), vec![(2, "float-eq"), (5, "float-eq")]);
    // Integer equality and float ordering comparisons are fine.
    assert_eq!(
        lint_netsim("fn g(n: u32, x: f32) -> bool { n == 0 && x < 1.5 }\n"),
        vec![]
    );
}

#[test]
fn lossy_cast_flags_count_like_sources_only() {
    let src = "\
fn f(data: &[u8], frame: &Frame, value: u64) {
    let a = data.len() as u16;
    let b = frame.wire_len() as u32;
    let c = value as u16;
    let d = data.len() as u64;
    let _ = (a, b, c, d);
}
";
    // `value as u16` has no count-like name; `len as u64` widens.
    assert_eq!(lint_netsim(src), vec![(2, "lossy-cast"), (3, "lossy-cast")]);
}

#[test]
fn lossy_cast_sees_through_try_and_index_chains() {
    let src = "\
fn f(sizes: &[usize]) -> u16 {
    sizes[0] as u16
}
";
    // Walks back through `[0]` to the ident `sizes` — count-like.
    assert_eq!(lint_netsim(src), vec![(2, "lossy-cast")]);
}

#[test]
fn unchecked_len_index_flags_packet_supplied_bounds() {
    let src = "\
fn f(buf: &[u8], hdr: &Hdr, coord_start: usize) -> &[u8] {
    let head = &buf[..hdr.total_len() as usize];
    let tail = &hdr.payload()[coord_start..];
    let _ = head;
    tail
}
";
    assert_eq!(
        lint_netsim(src),
        vec![(2, "unchecked-len-index"), (3, "unchecked-len-index")]
    );
}

#[test]
fn unchecked_len_index_ignores_literals_array_syntax_and_cold_crates() {
    // Literal bounds, array literals holding a length, and slice types are
    // not index expressions over packet-supplied values.
    let src = "\
fn f(buf: &[u8], n_parts: usize, idx: usize) -> u8 {
    let table = [n_parts, 2];
    let _ = (table, &buf[..4]);
    buf[idx]
}
";
    assert_eq!(lint_netsim(src), vec![]);
    // The rule is scoped to hot crates; mltrain may index freely.
    let diags = lint_source(
        "crates/mltrain/src/fixture.rs",
        "fn f(buf: &[u8], total_len: usize) -> &[u8] {\n    &buf[..total_len]\n}\n",
    );
    assert_eq!(diags, vec![]);
}

#[test]
fn unchecked_len_index_respects_suppression() {
    let src = "\
fn f(buf: &[u8], total_len: usize) -> &[u8] {
    // trimlint: allow(unchecked-len-index) -- caller validated total_len
    &buf[..total_len]
}
";
    assert_eq!(lint_netsim(src), vec![]);
}

// --------------------------------------------------------- trace-event-naming

#[test]
fn trace_event_naming_flags_bad_names() {
    let src = "\
fn f(tracer: &Tracer, at: u64) {
    let _a = tracer.span(\"Ring.SendStep\");
    let _b = tracer.span_at(\"ring send\", at);
    tracer.mark(at, \"conservation!violation\", 1);
}
";
    assert_eq!(
        lint_netsim(src),
        vec![
            (2, "trace-event-naming"),
            (3, "trace-event-naming"),
            (4, "trace-event-naming"),
        ]
    );
}

#[test]
fn trace_event_naming_accepts_convention_and_ignores_lookalikes() {
    let src = "\
fn f(tracer: &Tracer, at: u64, name: &'static str) {
    let _a = tracer.span(\"ring.send_step\");
    let _b = tracer.span_at(\"core.pipeline.encode\", at);
    tracer.mark(at, \"conservation.violation\", 42);
    // A runtime-built name is out of the rule's reach.
    let _d = tracer.span_at(name, at);
    // A free fn named span (no receiver dot) is not the recorder.
    let _e = span(\"Whatever Goes\");
}
fn span(_s: &str) {}
";
    assert_eq!(lint_netsim(src), vec![]);
}

#[test]
fn trace_event_naming_flags_literal_metric_names() {
    let src = "\
fn f(reg: &Registry) {
    let _a = reg.counter(\"Bad.Name\");
    let _b = reg.gauge(\"netsim queue\");
    let _c = reg.float_gauge(\"Train-Loss\");
    let _d = reg.histogram(\"steps..applied\");
    let _e = reg.scoped(\"Tenant.Job0\");
}
";
    assert_eq!(
        lint_netsim(src),
        vec![
            (2, "trace-event-naming"),
            (3, "trace-event-naming"),
            (4, "trace-event-naming"),
            (5, "trace-event-naming"),
            (6, "trace-event-naming"),
        ]
    );
}

#[test]
fn trace_event_naming_accepts_metric_convention_and_runtime_names() {
    let src = "\
fn f(reg: &Registry, rank: usize) {
    let _a = reg.counter(\"netsim.trim_bytes\");
    let _b = reg.scoped(\"tenant.job0\").histogram(\"mltrain.step_time_ns\");
    // A literal inside a runtime-built name is a fragment, not the name:
    // judging `Loss` or `rank.{rank}.x` in isolation would misfire.
    let _c = reg.float_gauge(&format!(\"collective.rank.{rank}.x\"));
    let _d = reg.counter(&name(\"Train Loss\"));
    let _e = counter(\"Not A Method Call\");
}
fn name(_s: &str) -> String { String::new() }
fn counter(_s: &str) {}
";
    assert_eq!(lint_netsim(src), vec![]);
}

#[test]
fn trace_event_naming_respects_suppression_and_test_mask() {
    let suppressed = "\
fn f(tracer: &Tracer) {
    // trimlint: allow(trace-event-naming) -- legacy name kept for golden traces
    let _g = tracer.span(\"Legacy.Name\");
}
";
    assert_eq!(lint_netsim(suppressed), vec![]);
    let test_code = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let _g = Tracer::disabled().span(\"AnyThing\");
    }
}
";
    assert_eq!(lint_netsim(test_code), vec![]);
}

// ---------------------------------------------------------------- suppression

#[test]
fn same_line_suppression_silences_the_rule() {
    let src = "\
fn f(v: Option<u32>) -> u32 {
    v.unwrap() // trimlint: allow(no-panic) -- fixture invariant
}
";
    assert_eq!(lint_netsim(src), vec![]);
}

#[test]
fn standalone_suppression_covers_next_code_line_only() {
    let quiet = "\
fn f(v: Option<u32>) -> u32 {
    // trimlint: allow(no-panic) -- fixture invariant
    v.unwrap()
}
";
    assert_eq!(lint_netsim(quiet), vec![]);
    // Further comment lines may sit between a standalone directive and the
    // code it covers.
    let commented = "\
fn f(v: Option<u32>) -> u32 {
    // trimlint: allow(no-panic) -- fixture invariant
    // (the unwrap below is the fixture's point)
    v.unwrap()
}
";
    assert_eq!(lint_netsim(commented), vec![]);
    // But the first *code* line ends its reach: a violation past it is
    // reported, and the suppression — now covering nothing — is stale.
    let loud = "\
fn f(v: Option<u32>) -> u32 {
    // trimlint: allow(no-panic) -- fixture invariant
    let w = v;
    w.unwrap()
}
";
    assert_eq!(
        lint_netsim(loud),
        vec![(2, "stale-suppression"), (4, "no-panic")]
    );
}

#[test]
fn suppression_is_rule_specific() {
    let src = "\
fn f(v: Option<u32>) -> u32 {
    // trimlint: allow(float-eq) -- wrong rule on purpose
    v.unwrap()
}
";
    // The wrong-rule allow leaves the finding alive and is itself reported
    // stale by the suppression audit.
    assert_eq!(
        lint_netsim(src),
        vec![(2, "stale-suppression"), (3, "no-panic")]
    );
}

#[test]
fn suppression_accepts_multiple_rules() {
    let src = "\
fn f(data: &[u8]) -> u16 {
    // trimlint: allow(no-panic, lossy-cast) -- fixture invariant
    u16::try_from(data.len()).unwrap() + data.len() as u16
}
";
    assert_eq!(lint_netsim(src), vec![]);
}

#[test]
fn malformed_suppression_is_itself_a_diagnostic() {
    let src = "\
fn f(v: Option<u32>) -> u32 {
    // trimlint: allow no-panic
    v.unwrap()
}
";
    // The broken comment suppresses nothing AND is reported.
    assert_eq!(
        lint_netsim(src),
        vec![(2, "bad-suppression"), (3, "no-panic")]
    );
}

#[test]
fn suppression_without_reason_is_malformed() {
    let src = "\
fn f(v: Option<u32>) -> u32 {
    // trimlint: allow(no-panic)
    v.unwrap()
}
";
    assert_eq!(
        lint_netsim(src),
        vec![(2, "bad-suppression"), (3, "no-panic")]
    );
}

// ----------------------------------------------------------- wire-consistency

/// A minimal header module in the wire-view idiom: HEADER_LEN plus getters
/// and setters that index the buffer with literal offsets reaching byte 8.
fn header_fixture(header_len: usize, last_setter_end: usize) -> String {
    format!(
        "\
pub const HEADER_LEN: usize = {header_len};
pub struct View<T> {{
    buffer: T,
}}
impl<T: AsRef<[u8]> + AsMut<[u8]>> View<T> {{
    fn b(&self) -> &[u8] {{
        self.buffer.as_ref()
    }}
    pub fn kind(&self) -> u8 {{
        self.b()[0]
    }}
    pub fn len_field(&self) -> u16 {{
        u16::from_be_bytes([self.b()[1], self.b()[2]])
    }}
    pub fn set_tag(&mut self, v: u32) {{
        self.buffer.as_mut()[4..{last_setter_end}].copy_from_slice(&v.to_be_bytes());
    }}
}}
"
    )
}

#[test]
fn wire_consistency_accepts_matching_header() {
    assert_eq!(lint_wire(&header_fixture(8, 8)), vec![]);
}

#[test]
fn wire_consistency_catches_constant_larger_than_serializer() {
    // Someone bumped HEADER_LEN without adding the field bytes.
    let diags = lint_source("crates/wire/src/fixture.rs", &header_fixture(12, 8));
    assert_eq!(diags.len(), 1);
    assert_eq!((diags[0].line, diags[0].rule), (1, "wire-consistency"));
    assert!(
        diags[0].msg.contains("HEADER_LEN is 12"),
        "{}",
        diags[0].msg
    );
    assert!(diags[0].msg.contains("offset 8"), "{}", diags[0].msg);
}

#[test]
fn wire_consistency_catches_serializer_past_constant() {
    // Someone widened a field without bumping HEADER_LEN.
    let diags = lint_source("crates/wire/src/fixture.rs", &header_fixture(8, 10));
    assert_eq!(diags.len(), 1);
    assert_eq!((diags[0].line, diags[0].rule), (1, "wire-consistency"));
    assert!(diags[0].msg.contains("offset 10"), "{}", diags[0].msg);
}

/// A header module in the idiom the wire crate uses: HEADER_LEN beside a
/// slice writer and reader that index with literal offsets.
fn slice_header_fixture(last_write_end: usize) -> String {
    format!(
        "\
pub const HEADER_LEN: usize = 8;
pub(crate) fn write(buf: &mut [u8], kind: u8, tag: u32) {{
    buf[0] = kind;
    buf[4..{last_write_end}].copy_from_slice(&tag.to_be_bytes());
}}
pub(crate) fn read(b: &[u8]) -> Option<(u8, u16)> {{
    if b.len() < HEADER_LEN {{
        return None;
    }}
    Some((b[0], u16::from_be_bytes([b[1], b[2]])))
}}
"
    )
}

#[test]
fn wire_consistency_checks_slice_writers_and_readers() {
    assert_eq!(lint_wire(&slice_header_fixture(8)), vec![]);
    // The writer reaches one byte past HEADER_LEN.
    let diags = lint_source("crates/wire/src/fixture.rs", &slice_header_fixture(9));
    assert_eq!(diags.len(), 1);
    assert_eq!((diags[0].line, diags[0].rule), (1, "wire-consistency"));
    assert!(
        diags[0].msg.contains("offset 9 (line 4)"),
        "{}",
        diags[0].msg
    );
}

#[test]
fn wire_consistency_ignores_symbolic_indexing() {
    // Fewer than three literal accesses: the file indexes via constants, so
    // the rule stays quiet rather than guessing.
    let src = "\
pub const HEADER_LEN: usize = 8;
fn f(buf: &[u8], off: usize) -> u8 {
    buf[off]
}
";
    assert_eq!(lint_wire(src), vec![]);
}

#[test]
fn wire_consistency_only_applies_to_wire_crate() {
    // The same desynchronized fixture in another crate is not checked.
    let diags: Vec<_> = lint_source("crates/netsim/src/fixture.rs", &header_fixture(12, 8))
        .into_iter()
        .filter(|d| d.rule == "wire-consistency")
        .collect();
    assert_eq!(diags, vec![]);
}

// ------------------------------------------------- workload generator scoping

/// The workload generator lives at `crates/netsim/src/workload.rs`, inside
/// the hot + ordering-sensitive scope; these fixtures pin that the two
/// determinism rules its docs promise (single seeded stream, no hash-order
/// dependence) actually fire on that exact path.
#[test]
fn workload_module_bans_unseeded_rng() {
    let src = "\
pub fn storm(hosts: &[NodeId], n_flows: usize) -> FlowSchedule {
    let mut rng = rand::thread_rng();
    let seeded = Xoshiro256StarStar::new(0xD15C);
    let _ = (rng, seeded, hosts, n_flows);
    FlowSchedule { flows: Vec::new() }
}
";
    let diags: Vec<_> = lint_source("crates/netsim/src/workload.rs", src)
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect();
    assert_eq!(diags, vec![(2, "unseeded-rng")]);
}

#[test]
fn workload_module_bans_hash_collections() {
    let src = "\
use std::collections::HashMap;
pub fn group_by_src(flows: &[FlowSpec]) -> HashMap<NodeId, Vec<FlowSpec>> {
    unimplemented!()
}
";
    let diags: Vec<_> = lint_source("crates/netsim/src/workload.rs", src)
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect();
    // Both use-site and signature mentions are flagged, plus the panicking
    // placeholder (workload.rs is in a hot crate too).
    assert_eq!(
        diags,
        vec![(1, "ordered-map"), (2, "ordered-map"), (3, "no-panic"),]
    );
}

#[test]
fn workload_idiom_is_clean() {
    // The sanctioned shape: one explicitly seeded stream, BTreeMap grouping.
    let src = "\
pub fn install(flows: &[FlowSpec], seed: u64) {
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut by_src: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    by_src.insert(rng.next_u64(), 0);
}
";
    assert_eq!(lint_source("crates/netsim/src/workload.rs", src), vec![]);
}

// ------------------------------------------------------------------- scoping

#[test]
fn skip_crates_and_test_dirs_are_out_of_scope() {
    let panicky = "fn f() { panic!(\"x\"); }\n";
    for path in [
        "crates/bench/src/fixture.rs",
        "crates/lint/src/fixture.rs",
        "crates/proptest/src/fixture.rs",
        "crates/netsim/tests/fixture.rs",
        "crates/netsim/benches/fixture.rs",
    ] {
        assert_eq!(lint_source(path, panicky), vec![], "path {path}");
    }
}

#[test]
fn non_hot_crates_keep_determinism_rules_only() {
    // mltrain may unwrap (not a hot crate) but may not read wall clocks.
    let src = "\
fn f(v: Option<u32>) -> u32 {
    let t = std::time::Instant::now();
    let _ = t;
    v.unwrap()
}
";
    let diags: Vec<_> = lint_source("crates/mltrain/src/fixture.rs", src)
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect();
    assert_eq!(diags, vec![(2, "wall-clock")]);
}
