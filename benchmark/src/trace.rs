//! In-memory span recorder for the traced pass.
//!
//! The driver wraps every call into a library layer in a span
//! `{id, parent, round, name, layer, start_ns, end_ns, replay, counts}` and
//! writes them out when the workload ends. Two kinds of span exist:
//!
//! * a **real** span brackets a call the round actually needs;
//! * a **replay** span (`replay: true`) re-runs, right after the real span
//!   it explains, a child call that span made internally on the same input,
//!   because the child cannot be wrapped from outside the library. It names
//!   that span as its parent but lies outside its interval.
//!
//! Replays (and the bookkeeping around them) run inside an
//! [`off_clock`](Tracer::off_clock) block whose wall time is taken off the
//! round's clock. A span's self time is its duration minus the durations of
//! its direct children, real or replayed.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `parent == 0` marks a top-level span (ids start at 1).
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub round: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub replay: bool,
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer is the span name's prefix: `quant.encode` → `quant`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn count(&self, key: &str) -> u64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |(_, v)| *v)
    }
}

/// The recorder. A disabled tracer runs a real span's closure and nothing
/// else, and skips off-clock blocks entirely, so the untraced pass goes
/// through the same wrappers at the cost of one branch per call.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    round: u32,
    stack: Vec<u32>,
    last_closed: u32,
    off_clock_depth: u32,
    off_clock_ns: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            round: 0,
            stack: Vec::new(),
            last_closed: 0,
            off_clock_depth: 0,
            off_clock_ns: 0,
            spans: Vec::new(),
        }
    }

    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Records a real span around `f`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let parent = self.stack.last().copied().unwrap_or(0);
        self.record(name, false, parent, f)
    }

    /// Runs `f` off the round's clock (traced pass only): replays, the
    /// input copies they need, and the staged-vs-library comparisons.
    pub fn off_clock(&mut self, f: impl FnOnce(&mut Tracer)) {
        if !self.enabled {
            return;
        }
        self.off_clock_depth += 1;
        let start = self.now_ns();
        f(self);
        let elapsed = self.now_ns() - start;
        self.off_clock_depth -= 1;
        if self.off_clock_depth == 0 {
            self.off_clock_ns += elapsed;
        }
    }

    /// Records a replay span around `f`, parented to the already-closed
    /// span `parent`. Only meaningful inside [`off_clock`](Self::off_clock).
    pub fn replay<R>(
        &mut self,
        parent: u32,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        assert!(self.off_clock_depth > 0, "replay {name} on the clock");
        self.record(name, true, parent, f)
    }

    fn record<R>(
        &mut self,
        name: &'static str,
        replay: bool,
        parent: u32,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            round: self.round,
            name,
            start_ns: 0,
            end_ns: 0,
            replay,
            counts: Vec::new(),
        });
        self.stack.push(id);
        let start = self.now_ns();
        let out = f(self);
        let end = self.now_ns();
        self.stack.pop();
        let s = &mut self.spans[id as usize - 1];
        s.start_ns = start;
        s.end_ns = end;
        self.last_closed = id;
        out
    }

    /// Id of the span that closed last: right after a wrapper returns, the
    /// span it recorded (0 when disabled).
    pub fn last_closed(&self) -> u32 {
        self.last_closed
    }

    /// Id of the innermost open span (0 when none, or disabled).
    pub fn open_id(&self) -> u32 {
        self.stack.last().copied().unwrap_or(0)
    }

    /// Adds `value` to count `key` of the innermost open span.
    pub fn count(&mut self, key: &'static str, value: u64) {
        if let Some(&id) = self.stack.last() {
            self.count_on(id, key, value);
        }
    }

    /// Adds `value` to count `key` of span `id`.
    pub fn count_on(&mut self, id: u32, key: &'static str, value: u64) {
        if id == 0 || !self.enabled {
            return;
        }
        let counts = &mut self.spans[id as usize - 1].counts;
        match counts.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v += value,
            None => counts.push((key, value)),
        }
    }

    /// Off-clock time accumulated since the last call; the round loop
    /// subtracts it from the round's wall-clock.
    pub fn take_off_clock_ns(&mut self) -> u64 {
        std::mem::take(&mut self.off_clock_ns)
    }

    /// `{"workload":…, "seed":…, "spans":[…]}`, one span per line.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(self.spans.len() * 160 + 64);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{},\"parent\":{},\"round\":{},\"name\":\"{}\",\"layer\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"replay\":{},\"counts\":{{",
                s.id,
                s.parent,
                s.round,
                s.name,
                s.layer(),
                s.start_ns,
                s.end_ns,
                s.replay
            );
            for (j, (k, v)) in s.counts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{k}\":{v}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}
