//! The deterministic event calendar.
//!
//! Events fire in (time, insertion-sequence) order, so two events scheduled
//! for the same instant run in the order they were scheduled — simulations
//! are bit-reproducible regardless of hash seeds or allocator behavior.
//!
//! [`EventQueue`] is a calendar queue (timing wheel): near-future events land
//! in per-window `Vec` buckets with O(1) insertion and are only heap-ordered
//! one window at a time, which suits the bursty near-monotone schedules a
//! packet simulation produces. Events beyond the wheel horizon go to an
//! overflow heap; scheduling behind the active window re-anchors the wheel
//! backward. Both stores order by the same `(time, seq)` key, so pop order —
//! and therefore every simulation byte — is that of a single priority queue.
//! The differential harness in `tests/event_queue_oracle.rs` pins that
//! against a sorted-`Vec` oracle; DESIGN.md §11 has the proof sketch.

use crate::time::SimTime;
use crate::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What happens when an event fires.
#[derive(Debug)]
pub enum EventKind {
    /// A packet finishes propagating and arrives at `node` via the link from
    /// `from`.
    Arrive {
        /// Receiving node.
        node: NodeId,
        /// Sending neighbor (identifies the ingress link).
        from: NodeId,
        /// The packet, boxed so the variant stays pointer-sized: a packet is
        /// allocated once when it leaves its source host and the same box is
        /// moved through every port queue and arrival event on its path.
        packet: Box<crate::packet::Packet>,
    },
    /// An egress port of `node` toward `to` finishes serializing its current
    /// packet and may start the next one.
    PortFree {
        /// The node owning the port.
        node: NodeId,
        /// The neighbor the port faces.
        to: NodeId,
    },
    /// An application timer on `node` fires with an app-chosen token.
    AppTimer {
        /// The host whose app scheduled the timer.
        node: NodeId,
        /// Opaque app token.
        token: u64,
    },
    /// The periodic statistics sampler.
    StatsSample,
    /// The periodic telemetry time-series sampler: snapshots the registry
    /// into the simulator's bounded [`trimgrad_telemetry::TimeSeries`] ring.
    TelemetrySample,
}

/// One scheduled event.
#[derive(Debug)]
pub struct Event {
    /// When it fires.
    pub at: SimTime,
    seq: u64,
    /// What fires.
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Default bucket width: `1 << 13` = 8192 ns ≈ one fabric RTT, so a busy
/// port's serialize/arrive churn stays within a window or two while bucket
/// `Vec`s see enough traffic to amortize their growth (a wheel of many
/// barely-used buckets spends more on allocation than it saves on ordering).
const DEFAULT_BUCKET_SHIFT: u32 = 13;

/// Default wheel size (buckets). With the default width the horizon is
/// ~2 ms — beyond any modeled RTT, so in steady state the overflow heap only
/// ever holds coarse timers (stats samples, app timers).
const DEFAULT_N_BUCKETS: usize = 256;

/// A deterministic calendar queue of events.
///
/// Pop order is exactly ascending `(time, insertion-sequence)`. Internally
/// events live in one of three places, classified by the window index
/// `w = time >> bucket_shift`:
///
/// * `active` — a heap of events in the current window `cur_window`;
/// * `buckets` — unsorted `Vec`s for windows in `(cur_window, cur_window + n)`
///   (O(1) insertion, the hot path); a bucket holds exactly one window at a
///   time, recorded in `bucket_window`;
/// * `overflow` — a heap for events at or beyond the wheel horizon.
///
/// Events are stored inline — an [`Event`] is 48 bytes now that `Arrive`
/// boxes its packet, so moving whole events costs less than indirecting
/// every pop through a payload slab.
///
/// Scheduling behind the active window (impossible in a forward-running
/// simulation, but required of a drop-in priority queue and exercised hard
/// by the differential harness) re-anchors the wheel backward: the active
/// set is parked back onto the wheel, buckets beyond the shrunken horizon
/// are evicted to `overflow`, and the earlier event starts a new active
/// window.
///
/// Invariant after every mutation: if any bucket is occupied, `active` is
/// non-empty — so `peek_time` is a constant-time min over two heap peeks.
#[derive(Debug)]
pub struct EventQueue {
    /// Bucket width is `1 << bucket_shift` nanoseconds.
    bucket_shift: u32,
    /// `buckets.len() - 1`; bucket for window `w` is `w & bucket_mask`.
    bucket_mask: u64,
    /// Unsorted per-window event lists; stored pre-`Reverse`d so a refill can
    /// move a whole bucket into `active` by O(k) heapify with zero copies
    /// (the bucket's allocation and the heap's swap back and forth).
    buckets: Vec<Vec<Reverse<Event>>>,
    /// The window whose events bucket `i` currently holds (meaningful only
    /// while the bucket is non-empty). Every resident window `w` satisfies
    /// `cur_window < w < cur_window + n`, so distinct resident windows map to
    /// distinct buckets and each bucket is window-pure.
    bucket_window: Vec<u64>,
    /// Occupancy bitmap over `buckets`, one bit per bucket, so a refill scan
    /// skips empty buckets a word at a time.
    occupied: Vec<u64>,
    /// Events in `buckets` (not counting `active`/`overflow`).
    wheel_len: usize,
    /// High-watermark of windows ever parked on the wheel since it was last
    /// empty; lets a backward re-anchor skip the far-bucket eviction scan
    /// when nothing can be beyond the new horizon.
    max_window: u64,
    /// Window index of the active window.
    cur_window: u64,
    /// Heap of events whose window is `cur_window`.
    active: BinaryHeap<Reverse<Event>>,
    /// Heap of events at or beyond the wheel horizon.
    overflow: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
    scheduled: u64,
    fired: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::with_geometry(DEFAULT_BUCKET_SHIFT, DEFAULT_N_BUCKETS)
    }
}

impl EventQueue {
    /// Creates an empty queue with the default wheel geometry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty queue with `n_buckets` buckets of `1 << bucket_shift`
    /// nanoseconds each. Exposed so tests can force tiny wheels whose horizon
    /// is crossed constantly; simulations use [`EventQueue::new`].
    ///
    /// # Panics
    ///
    /// Panics if `n_buckets` is not a power of two ≥ 2 or `bucket_shift`
    /// does not leave at least one window bit.
    #[must_use]
    pub fn with_geometry(bucket_shift: u32, n_buckets: usize) -> Self {
        assert!(
            n_buckets >= 2 && n_buckets.is_power_of_two(),
            "n_buckets must be a power of two >= 2"
        );
        assert!(bucket_shift < 64, "bucket_shift must leave window bits");
        let mut buckets = Vec::with_capacity(n_buckets);
        buckets.resize_with(n_buckets, Vec::new);
        Self {
            bucket_shift,
            bucket_mask: n_buckets as u64 - 1,
            buckets,
            bucket_window: vec![0u64; n_buckets],
            occupied: vec![0u64; n_buckets.div_ceil(64)],
            wheel_len: 0,
            max_window: 0,
            cur_window: 0,
            active: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            next_seq: 0,
            scheduled: 0,
            fired: 0,
        }
    }

    fn window_of(&self, at: SimTime) -> u64 {
        at.0 >> self.bucket_shift
    }

    /// Schedules `kind` to fire at `at`.
    // trimlint: hot-path -- every simulated packet passes through here
    pub fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        let event = Event { at, seq, kind };
        let w = self.window_of(at);
        // With nothing on the wheel or in the active window, the wheel can
        // re-anchor forward for free; this keeps a drained-then-refilled
        // queue (or one that jumped far ahead) on the fast bucket path
        // instead of pushing everything to `overflow` against a stale anchor.
        if w > self.cur_window && self.wheel_len == 0 && self.active.is_empty() {
            self.cur_window = w;
        }
        if w < self.cur_window {
            self.re_anchor_back(w);
            self.active.push(Reverse(event));
        } else if w == self.cur_window {
            self.active.push(Reverse(event));
        } else if w - self.cur_window <= self.bucket_mask {
            let b = (w & self.bucket_mask) as usize;
            if self.buckets[b].is_empty() {
                self.bucket_window[b] = w;
                self.occupied[b / 64] |= 1u64 << (b % 64);
            }
            // Window-purity: a resident window within the horizon that maps
            // to `b` can only be `w` itself (they would be congruent mod n
            // and less than n apart).
            debug_assert_eq!(self.bucket_window[b], w);
            self.buckets[b].push(Reverse(event));
            self.wheel_len += 1;
            self.max_window = self.max_window.max(w);
            if self.active.is_empty() {
                self.refill();
            }
        } else {
            self.overflow.push(Reverse(event));
        }
    }

    /// Re-anchors the wheel at window `w < cur_window`: the active set goes
    /// back onto the wheel (or to `overflow` if the backward jump exceeds
    /// the horizon), and any bucket now beyond the horizon is evicted to
    /// `overflow`. Never happens in a forward-running simulation; the cost —
    /// `O(|active| + occupied buckets)` worst case — only matters to
    /// adversarial schedules like the differential harness.
    fn re_anchor_back(&mut self, w: u64) {
        let w_old = self.cur_window;
        self.cur_window = w;
        if self.wheel_len > 0 && self.max_window > w + self.bucket_mask {
            // Evict buckets that fell off the far edge of the new horizon.
            for word_i in 0..self.occupied.len() {
                let mut word = self.occupied[word_i];
                while word != 0 {
                    let b = word_i * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    if self.bucket_window[b] > w + self.bucket_mask {
                        self.wheel_len -= self.buckets[b].len();
                        self.occupied[b / 64] &= !(1u64 << (b % 64));
                        self.overflow.extend(self.buckets[b].drain(..));
                    }
                }
            }
            // Everything left on the wheel now fits the new horizon.
            self.max_window = if self.wheel_len == 0 {
                0
            } else {
                w + self.bucket_mask
            };
        }
        if !self.active.is_empty() {
            if w_old - w <= self.bucket_mask {
                let b = (w_old & self.bucket_mask) as usize;
                debug_assert!(self.buckets[b].is_empty());
                self.bucket_window[b] = w_old;
                self.occupied[b / 64] |= 1u64 << (b % 64);
                self.wheel_len += self.active.len();
                self.max_window = self.max_window.max(w_old);
                // Park the whole active set by swapping allocations.
                let parked = std::mem::take(&mut self.active).into_vec();
                let spare = std::mem::replace(&mut self.buckets[b], parked);
                self.active = BinaryHeap::from(spare);
                debug_assert!(self.active.is_empty());
            } else {
                self.overflow.extend(self.active.drain());
            }
        }
    }

    /// Moves the earliest occupied bucket into `active` and advances
    /// `cur_window` to its window. Caller guarantees `wheel_len > 0` and
    /// `active` is empty.
    fn refill(&mut self) {
        let n = (self.bucket_mask + 1) as usize;
        // Every occupied bucket holds exactly one window in
        // (cur_window, cur_window + n), and distinct windows occupy distinct
        // buckets, so the first occupied bucket at or after offset 1
        // (cyclically) is the earliest window. Scan the occupancy bitmap a
        // word at a time.
        let start = ((self.cur_window + 1) & self.bucket_mask) as usize;
        let words = self.occupied.len();
        let mut wi = start / 64;
        let mut word = self.occupied[wi] & (!0u64 << (start % 64));
        let b = loop {
            if word != 0 {
                break wi * 64 + word.trailing_zeros() as usize;
            }
            wi += 1;
            if wi == words {
                wi = 0;
            }
            if wi == start / 64 {
                // Wrapped: only bits below `start` in the start word remain.
                word = self.occupied[wi] & !(!0u64 << (start % 64));
                if word == 0 {
                    debug_assert!(self.wheel_len == 0, "occupancy bitmap out of sync");
                    return;
                }
            } else {
                word = self.occupied[wi];
            }
        };
        let cur_b = (self.cur_window & self.bucket_mask) as usize;
        // Offset of bucket `b` ahead of the current window's bucket, in 1..n.
        let i = (b + n - cur_b) & (n - 1);
        debug_assert!(i != 0, "the active window's own bucket is never occupied");
        self.cur_window += i as u64;
        self.occupied[b / 64] &= !(1u64 << (b % 64));
        self.wheel_len -= self.buckets[b].len();
        // Steal the bucket's allocation: O(k) in-place heapify, and the
        // heap's spent Vec becomes the bucket's next allocation.
        debug_assert!(self.active.is_empty());
        let spare = std::mem::take(&mut self.active).into_vec();
        let bucket = std::mem::replace(&mut self.buckets[b], spare);
        self.active = BinaryHeap::from(bucket);
    }

    /// Removes and returns the earliest event.
    // trimlint: hot-path -- the simulator's main-loop drain
    pub fn pop(&mut self) -> Option<Event> {
        // The refill invariant keeps the wheel's minimum visible through
        // `active`, so the global minimum is in `active` or `overflow`.
        // Their windows can coincide (evicted or horizon-straddling events),
        // so compare the full (time, seq) key.
        let from_overflow = match (self.active.peek(), self.overflow.peek()) {
            (None, None) => return None,
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (Some(Reverse(a)), Some(Reverse(o))) => o < a,
        };
        let event = if from_overflow {
            self.overflow.pop()
        } else {
            self.active.pop()
        }
        .map(|Reverse(e)| e)?;
        self.fired += 1;
        if self.active.is_empty() && self.wheel_len > 0 {
            self.refill();
        }
        Some(event)
    }

    /// The firing time of the earliest event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        // The refill invariant (buckets occupied ⇒ active non-empty) makes
        // the wheel's minimum visible through `active`.
        debug_assert!(self.wheel_len == 0 || !self.active.is_empty());
        let t = |h: &BinaryHeap<Reverse<Event>>| h.peek().map(|Reverse(e)| e.at);
        match (t(&self.active), t(&self.overflow)) {
            (Some(a), Some(o)) => Some(a.min(o)),
            (a, o) => a.or(o),
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.wheel_len + self.active.len() + self.overflow.len()
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events scheduled over the queue's lifetime.
    #[must_use]
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Total events fired over the queue's lifetime.
    #[must_use]
    pub fn total_fired(&self) -> u64 {
        self.fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(node: usize, token: u64) -> EventKind {
        EventKind::AppTimer {
            node: NodeId(node),
            token,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), timer(0, 3));
        q.schedule(SimTime(10), timer(0, 1));
        q.schedule(SimTime(20), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::AppTimer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for token in 0..100 {
            q.schedule(SimTime(5), timer(0, token));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::AppTimer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime(7), timer(1, 0));
        q.schedule(SimTime(3), timer(1, 1));
        assert_eq!(q.peek_time(), Some(SimTime(3)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_scheduled(), 2);
        let _ = q.pop();
        assert_eq!(q.total_fired(), 1);
        assert_eq!(q.peek_time(), Some(SimTime(7)));
    }

    #[test]
    fn interleaved_schedule_and_pop_stay_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), timer(0, 10));
        q.schedule(SimTime(5), timer(0, 5));
        assert!(matches!(
            q.pop().unwrap().kind,
            EventKind::AppTimer { token: 5, .. }
        ));
        // Schedule something earlier than the remaining event.
        q.schedule(SimTime(7), timer(0, 7));
        assert!(matches!(
            q.pop().unwrap().kind,
            EventKind::AppTimer { token: 7, .. }
        ));
        assert!(matches!(
            q.pop().unwrap().kind,
            EventKind::AppTimer { token: 10, .. }
        ));
        assert!(q.pop().is_none());
    }

    #[test]
    fn crossing_the_wheel_horizon_stays_ordered() {
        // A 4-bucket, 16 ns wheel: horizon is 64 ns, so these schedules land
        // in every store (active, bucket, overflow) and still pop in global
        // (time, seq) order.
        let mut q = EventQueue::with_geometry(4, 4);
        q.schedule(SimTime(1_000_000), timer(0, 4)); // far future: overflow
        q.schedule(SimTime(0), timer(0, 0)); // active window
        q.schedule(SimTime(40), timer(0, 2)); // wheel bucket
        q.schedule(SimTime(70), timer(0, 3)); // beyond horizon: overflow
        q.schedule(SimTime(17), timer(0, 1)); // next window
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::AppTimer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn scheduling_behind_the_active_window_still_pops_first() {
        let mut q = EventQueue::with_geometry(4, 4);
        q.schedule(SimTime(100), timer(0, 1)); // re-anchors to window 6
        q.schedule(SimTime(3), timer(0, 0)); // behind the anchor: re-anchors back
        assert_eq!(q.peek_time(), Some(SimTime(3)));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::AppTimer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1]);
    }
}
