//! Deterministic flight recorder for the trimgrad stack.
//!
//! The telemetry crate answers *how many*; this crate answers *which one and
//! why*. Every layer emits typed [`TraceEvent`]s — packet enqueued / trimmed
//! / dropped / delivered at each switch port, row encode/decode, all-reduce
//! step boundaries, fault injections, epoch ticks — stamped with sim-time and
//! the causal identifiers (flow id + packet seq, or message + row id) needed
//! to follow one packet end to end. A bounded ring buffer keeps the most
//! recent events; a binary + JSONL sink persists them; the `trimgrad-trace`
//! CLI queries them.
//!
//! Design constraints, in order:
//!
//! 1. **Off means free.** Tracing is gated by `TRIMGRAD_TRACE`. A disabled
//!    [`Tracer`] is an `Option` that is `None`: [`Tracer::emit`] takes the
//!    event as a closure, so the disabled path is one branch and never
//!    constructs the event, formats a name, or allocates.
//! 2. **Determinism.** Events are only emitted from serial sections (the
//!    simulator event loop; the index-ordered merge loops after parallel
//!    maps), so the trace of a seeded run is byte-identical across runs and
//!    across `TRIMGRAD_THREADS` widths. Spans aggregate deterministic
//!    call/event *counts* into the telemetry [`Registry`] — never wall-clock
//!    durations, which the lint bans and determinism forbids. There is **no
//!    process-wide ring**: every simulation starts from its own
//!    [`Tracer::from_env`] ring, so a span counts that simulation's events
//!    only, however many others run beside it (concurrent tests, a sweep).
//! 3. **Failures leave artifacts.** Each simulation holds a [`PanicDump`]
//!    on its ring: when it is dropped by a panic unwinding its thread, the
//!    ring — that one run's events — is written to
//!    `trace_panic.bin`/`.jsonl` (in `TRIMGRAD_TRACE_DIR`, default `.`), so
//!    a failed chaos run is replayable instead of a counter diff.
//!
//! ```
//! use trimgrad_trace::{TraceEvent, Tracer};
//! let tracer = Tracer::enabled(1024);
//! {
//!     let _span = tracer.span("ring.send_step");
//!     tracer.emit(500, || TraceEvent::Mark {
//!         name: "demo".into(),
//!         value: 7,
//!     });
//! }
//! assert_eq!(tracer.snapshot().records.len(), 3); // enter, mark, exit
//! ```

#![forbid(unsafe_code)]

mod event;
pub mod query;
mod sink;

pub use event::{DropReason, TraceEvent};
pub use sink::{Record, Trace, MAGIC};

use std::borrow::Cow;
use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use trimgrad_telemetry::Registry;

/// Default ring-buffer capacity in events (override with
/// `TRIMGRAD_TRACE_CAP`).
pub const DEFAULT_CAP: usize = 1 << 18;

struct RingState {
    records: VecDeque<Record>,
    next_seq: u64,
    dropped: u64,
}

struct Inner {
    state: Mutex<RingState>,
    cap: usize,
}

/// Poison-tolerant lock: a [`PanicDump`] must still be able to dump the ring
/// after a panic that happened while a guard was held.
fn lock(m: &Mutex<RingState>) -> MutexGuard<'_, RingState> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A cloneable handle to a flight recorder (or to nothing, when disabled).
///
/// Clones share the event ring; the attached telemetry [`Registry`] lives on
/// the *handle*, so two holders of one ring still aggregate their span
/// counters into their own registries (see [`Tracer::with_registry`]).
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
    registry: Option<Registry>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("has_registry", &self.registry.is_some())
            .finish()
    }
}

impl Tracer {
    /// A disabled tracer: every operation is a no-op behind one branch.
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled tracer holding at most `cap` events (oldest evicted first).
    #[must_use]
    pub fn enabled(cap: usize) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                state: Mutex::new(RingState {
                    records: VecDeque::with_capacity(cap.min(4096)),
                    next_seq: 0,
                    dropped: 0,
                }),
                cap: cap.max(1),
            })),
            registry: None,
        }
    }

    /// Builds from the environment: enabled iff `TRIMGRAD_TRACE` is set to a
    /// non-empty value other than `0`, with capacity from
    /// `TRIMGRAD_TRACE_CAP` (default [`DEFAULT_CAP`]).
    #[must_use]
    pub fn from_env() -> Self {
        Self::from_env_values(
            std::env::var("TRIMGRAD_TRACE").ok().as_deref(),
            std::env::var("TRIMGRAD_TRACE_CAP").ok().as_deref(),
        )
    }

    fn from_env_values(gate: Option<&str>, cap: Option<&str>) -> Self {
        match gate {
            Some(v) if !v.is_empty() && v != "0" => {
                let cap = cap
                    .and_then(|c| c.parse::<usize>().ok())
                    .unwrap_or(DEFAULT_CAP);
                Self::enabled(cap)
            }
            _ => Self::disabled(),
        }
    }

    /// Returns this handle with `registry` attached; span counters aggregate
    /// there. The event ring (if any) is shared with `self`.
    #[must_use]
    pub fn with_registry(mut self, registry: Registry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Whether events are being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records an event at sim-time `at` (nanoseconds). The closure is only
    /// evaluated when the tracer is enabled, so a disabled tracer pays one
    /// branch and never constructs the event.
    #[inline]
    pub fn emit(&self, at: u64, make: impl FnOnce() -> TraceEvent) {
        if let Some(inner) = &self.inner {
            let event = make();
            let mut st = lock(&inner.state);
            let seq = st.next_seq;
            st.next_seq += 1;
            if st.records.len() >= inner.cap {
                st.records.pop_front();
                st.dropped += 1;
            }
            st.records.push_back(Record { seq, at, event });
        }
    }

    /// Opens a scoped span at sim-time 0 (host-side work outside a
    /// simulation). See [`Tracer::span_at`].
    #[must_use = "dropping the guard immediately closes the span"]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_at(name, 0)
    }

    /// Opens a scoped span: emits [`TraceEvent::SpanEnter`] now and, when the
    /// guard drops, [`TraceEvent::SpanExit`] carrying the number of events
    /// recorded while the span was open. If a registry is attached, the drop
    /// also bumps `trace.span.<name>.calls` and adds that event count to
    /// `trace.span.<name>.events` — deterministic counts, never wall-clock.
    ///
    /// Disabled tracer ⇒ the guard is inert. Spans nest; each guard settles
    /// its own bookkeeping independently.
    #[must_use = "dropping the guard immediately closes the span"]
    pub fn span_at(&self, name: &'static str, at: u64) -> SpanGuard {
        if self.inner.is_none() {
            return SpanGuard {
                tracer: Self::disabled(),
                name,
                at,
                entered_at_seq: 0,
            };
        }
        self.emit(at, || TraceEvent::SpanEnter {
            name: Cow::Borrowed(name),
        });
        SpanGuard {
            tracer: self.clone(),
            name,
            at,
            entered_at_seq: self.events_emitted(),
        }
    }

    /// Records a named point event with one value.
    pub fn mark(&self, at: u64, name: &'static str, value: u64) {
        self.emit(at, || TraceEvent::Mark {
            name: Cow::Borrowed(name),
            value,
        });
    }

    /// Total events ever emitted through this ring (monotone; not reduced by
    /// eviction). Zero when disabled.
    #[must_use]
    pub fn events_emitted(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| lock(&i.state).next_seq)
    }

    /// Events evicted by the bounded ring so far. Zero when disabled.
    #[must_use]
    pub fn dropped_oldest(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| lock(&i.state).dropped)
    }

    /// An owned copy of the current ring contents.
    #[must_use]
    pub fn snapshot(&self) -> Trace {
        self.inner.as_ref().map_or_else(Trace::default, |i| {
            let st = lock(&i.state);
            Trace {
                records: st.records.iter().cloned().collect(),
                dropped_oldest: st.dropped,
            }
        })
    }

    /// Empties the ring and resets the sequence/eviction counters. Used by
    /// tests and by figure binaries that record several runs in one process.
    pub fn clear(&self) {
        if let Some(i) = &self.inner {
            let mut st = lock(&i.state);
            st.records.clear();
            st.next_seq = 0;
            st.dropped = 0;
        }
    }

    /// Writes `<stem>.bin` (binary trace) and `<stem>.jsonl` under `dir`,
    /// creating the directory if needed. No-op returning `Ok(None)` when
    /// disabled.
    ///
    /// # Errors
    ///
    /// Filesystem failures, with the offending path in the message.
    pub fn dump(&self, dir: &Path, stem: &str) -> Result<Option<(PathBuf, PathBuf)>, String> {
        if !self.is_enabled() {
            return Ok(None);
        }
        let trace = self.snapshot();
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        let bin = dir.join(format!("{stem}.bin"));
        let jsonl = dir.join(format!("{stem}.jsonl"));
        std::fs::write(&bin, trace.to_binary())
            .map_err(|e| format!("write {}: {e}", bin.display()))?;
        std::fs::write(&jsonl, trace.to_jsonl())
            .map_err(|e| format!("write {}: {e}", jsonl.display()))?;
        Ok(Some((bin, jsonl)))
    }

    /// A guard on this ring that writes the `trace_panic` black box if a
    /// panic drops it; see [`PanicDump`].
    #[must_use = "the black box is written when the guard drops during a panic"]
    pub fn dump_on_panic(&self) -> PanicDump {
        PanicDump(self.clone())
    }
}

/// The black box. Dropped normally it does nothing; dropped while its thread
/// unwinds from a panic it writes the ring to `trace_panic.bin`/`.jsonl`
/// under `TRIMGRAD_TRACE_DIR` (default `.`) and says so on stderr. Whoever
/// owns a ring for the length of a run (a `Simulator`) keeps one beside it,
/// so the file holds the events of the run that was alive when the thread
/// died. Several guards unwinding together each overwrite the file, in drop
/// order. A disabled tracer writes nothing.
pub struct PanicDump(Tracer);

impl Drop for PanicDump {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let dir = std::env::var("TRIMGRAD_TRACE_DIR").unwrap_or_else(|_| ".".to_string());
        // `Drop` must not panic (a second panic while unwinding aborts), so
        // stderr write failures are ignored rather than `eprintln!`ed.
        let mut err = std::io::stderr();
        let _ = match self.0.dump(Path::new(&dir), "trace_panic") {
            Ok(Some((bin, _))) => writeln!(
                err,
                "trimgrad-trace: dumped flight record to {}",
                bin.display()
            ),
            Ok(None) => Ok(()),
            Err(e) => writeln!(err, "trimgrad-trace: panic dump failed: {e}"),
        };
    }
}

/// RAII guard returned by [`Tracer::span_at`]; see there for drop semantics.
#[must_use = "a span closes when the guard drops"]
pub struct SpanGuard {
    tracer: Tracer,
    name: &'static str,
    at: u64,
    entered_at_seq: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.tracer.is_enabled() {
            return;
        }
        let events = self
            .tracer
            .events_emitted()
            .saturating_sub(self.entered_at_seq);
        self.tracer.emit(self.at, || TraceEvent::SpanExit {
            name: Cow::Borrowed(self.name),
            events,
        });
        if let Some(reg) = &self.tracer.registry {
            reg.counter(&format!("trace.span.{}.calls", self.name))
                .inc();
            reg.counter(&format!("trace.span.{}.events", self.name))
                .add(events);
        }
    }
}

/// `usize` → `u32`, saturating. Event fields are fixed-width; call sites in
/// no-lossy-cast crates use this instead of `as`.
#[must_use]
pub fn sat32(v: usize) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

/// `usize` → `u64`, saturating (total on every supported platform).
#[must_use]
pub fn sat64(v: usize) -> u64 {
    u64::try_from(v).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` follows the telemetry-key convention: dot-separated,
    /// lowercase `[a-z0-9_]` segments, no empty segment. Shared with the
    /// event taxonomy tests.
    pub(crate) fn is_valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.split('.').all(|seg| {
                !seg.is_empty()
                    && seg
                        .bytes()
                        .all(|b| matches!(b, b'a'..=b'z' | b'0'..=b'9' | b'_'))
            })
    }

    #[test]
    fn disabled_tracer_never_evaluates_the_closure() {
        let t = Tracer::disabled();
        t.emit(0, || unreachable!("closure must not run when disabled"));
        assert!(!t.is_enabled());
        assert_eq!(t.events_emitted(), 0);
        assert_eq!(t.snapshot(), Trace::default());
        let _span = t.span("noop.span");
        t.mark(0, "noop.mark", 1);
        assert_eq!(t.snapshot(), Trace::default());
        assert!(t.dump(Path::new("/nonexistent"), "x").unwrap().is_none());
    }

    #[test]
    fn events_record_in_order_with_gapless_seqs() {
        let t = Tracer::enabled(64);
        for i in 0..5u64 {
            t.mark(i * 10, "tick", i);
        }
        let trace = t.snapshot();
        assert_eq!(trace.records.len(), 5);
        assert_eq!(trace.dropped_oldest, 0);
        for (i, rec) in trace.records.iter().enumerate() {
            assert_eq!(rec.seq, i as u64);
            assert_eq!(rec.at, i as u64 * 10);
        }
    }

    #[test]
    fn ring_evicts_oldest_at_capacity() {
        let t = Tracer::enabled(3);
        for i in 0..10u64 {
            t.mark(0, "tick", i);
        }
        let trace = t.snapshot();
        assert_eq!(trace.records.len(), 3);
        assert_eq!(trace.dropped_oldest, 7);
        assert_eq!(trace.records[0].seq, 7, "oldest surviving event");
        assert_eq!(t.events_emitted(), 10);
    }

    #[test]
    fn spans_nest_and_aggregate_into_registry() {
        let reg = Registry::new();
        let t = Tracer::enabled(64).with_registry(reg.clone());
        {
            let _outer = t.span_at("outer", 100);
            t.mark(110, "inside.outer", 1);
            {
                let _inner = t.span_at("inner", 120);
                t.mark(130, "inside.inner", 2);
            }
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("trace.span.outer.calls"), 1);
        assert_eq!(snap.counter("trace.span.inner.calls"), 1);
        // inner saw: its own mark + nothing else.
        assert_eq!(snap.counter("trace.span.inner.events"), 1);
        // outer saw: mark, inner enter, inner mark, inner exit.
        assert_eq!(snap.counter("trace.span.outer.events"), 4);
        let kinds: Vec<&str> = t
            .snapshot()
            .records
            .iter()
            .map(|r| r.event.kind_name())
            .collect();
        assert_eq!(
            kinds,
            [
                "span.enter",
                "mark",
                "span.enter",
                "mark",
                "span.exit",
                "span.exit"
            ]
        );
    }

    #[test]
    fn clear_resets_ring_and_counters() {
        let t = Tracer::enabled(2);
        for i in 0..5u64 {
            t.mark(0, "tick", i);
        }
        t.clear();
        assert_eq!(t.events_emitted(), 0);
        assert_eq!(t.dropped_oldest(), 0);
        assert!(t.snapshot().records.is_empty());
    }

    #[test]
    fn handles_share_the_ring_but_not_the_registry() {
        let t = Tracer::enabled(16);
        let a = t.clone().with_registry(Registry::new());
        let b = t.clone().with_registry(Registry::new());
        a.mark(0, "from.a", 1);
        b.mark(0, "from.b", 2);
        assert_eq!(t.snapshot().records.len(), 2);
        {
            let _s = a.span("only.a");
        }
        let bs = b.registry.as_ref().unwrap().snapshot();
        assert_eq!(bs.counter("trace.span.only.a.calls"), 0);
        let as_ = a.registry.as_ref().unwrap().snapshot();
        assert_eq!(as_.counter("trace.span.only.a.calls"), 1);
    }

    #[test]
    fn env_gate_parses() {
        assert!(Tracer::from_env_values(Some("1"), None).is_enabled());
        assert!(Tracer::from_env_values(Some("yes"), None).is_enabled());
        assert!(!Tracer::from_env_values(Some("0"), None).is_enabled());
        assert!(!Tracer::from_env_values(Some(""), None).is_enabled());
        assert!(!Tracer::from_env_values(None, None).is_enabled());
        let capped = Tracer::from_env_values(Some("1"), Some("5"));
        for i in 0..9u64 {
            capped.mark(0, "tick", i);
        }
        assert_eq!(capped.snapshot().records.len(), 5);
    }

    #[test]
    fn dump_writes_binary_and_jsonl() {
        let t = Tracer::enabled(16);
        t.mark(5, "artifact", 42);
        let dir = std::env::temp_dir().join(format!("trimgrad_trace_test_{}", std::process::id()));
        let (bin, jsonl) = t.dump(&dir, "dump_test").unwrap().unwrap();
        let loaded = Trace::load(&bin).unwrap();
        assert_eq!(loaded, t.snapshot());
        let text = std::fs::read_to_string(&jsonl).unwrap();
        assert!(text.contains("\"kind\":\"mark\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn name_validity_rules() {
        for good in ["pkt.sent", "ring.send_step", "a.b_c.d0", "mark"] {
            assert!(is_valid_name(good), "{good}");
        }
        for bad in ["", ".", "a..b", "A.b", "a-b", "a.b.", ".a", "has space"] {
            assert!(!is_valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn saturating_helpers() {
        assert_eq!(sat32(7), 7);
        assert_eq!(sat32(usize::MAX), u32::MAX);
        assert_eq!(sat64(7), 7);
    }
}
