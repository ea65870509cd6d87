//! The deterministic event calendar.
//!
//! Events fire in (time, insertion-sequence) order, so two events scheduled
//! for the same instant run in the order they were scheduled — simulations
//! are bit-reproducible regardless of hash seeds or allocator behavior.
//!
//! [`EventQueue`] is a calendar queue (timing wheel): near-future events land
//! in per-window `Vec` buckets with O(1) insertion, and the one window being
//! drained lives in a `Lane` — fine time slots, each a FIFO threaded
//! through one node slab — so popping is "first occupied slot, unlink its
//! head" with no comparisons. Events beyond the wheel horizon go to an
//! overflow heap. Every store orders by the same `(time, seq)` key, so pop
//! order — and therefore every simulation byte — is that of a single
//! priority queue.
//!
//! The calendar only runs forward: the active window is the window of the
//! last event fired, and scheduling behind it panics. A simulation never
//! does — every handler schedules at or after the clock it was fired at.
//! The differential harness in `tests/event_queue_oracle.rs` pins the order
//! against a sorted-`Vec` oracle under that contract; DESIGN.md §5 has the
//! proof sketch.

use crate::ports::PortId;
use crate::time::SimTime;
use crate::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What happens when an event fires.
#[derive(Debug)]
pub enum EventKind {
    /// A packet finishes propagating over the link behind `port` and arrives
    /// at the node that port faces.
    Arrive {
        /// The egress port (directed link) the packet was serialized on.
        port: PortId,
        /// The packet, boxed so the variant stays small: a packet is boxed
        /// once when it leaves its source host and the same box is moved
        /// through every port queue and arrival event on its path.
        packet: Box<crate::packet::InFlight>,
        /// What forwarding needs of the packet, so it never reads the box.
        hop: crate::packet::Hop,
    },
    /// An egress port finishes serializing its current packet and may start
    /// the next one.
    PortFree {
        /// The port whose serializer frees up.
        port: PortId,
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

impl Event {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        self.key().cmp(&other.key())
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

/// The lane never has more than `1 << 13` slots: at the default bucket width
/// that is one slot per nanosecond, and wider windows get wider slots.
const MAX_LANE_SLOTS_SHIFT: u32 = 13;

/// "No node" in the lane's intrusive lists.
const NIL: u32 = u32::MAX;

/// One slab cell: an event linked into a slot (`kind` is `Some`), or a spent
/// cell on the free list. `next` threads whichever list the cell is on.
#[derive(Debug)]
struct LaneNode {
    at: SimTime,
    seq: u64,
    kind: Option<EventKind>,
    next: u32,
}

/// The active window, pre-sorted by construction.
///
/// The window is cut into `slots` equal time slices in time order; each slot
/// is a singly linked FIFO through `nodes`, kept sorted by `(time, seq)`.
/// Slots partition the window in time order and each list is sorted, so
/// walking occupied slots upward and each list head to tail visits the
/// window's events in exactly `(time, seq)` order.
///
/// Invariant: no slot below `cursor` is occupied, and while the lane is
/// non-empty `cursor` *is* the first occupied slot — so peeking is one load
/// and popping never compares keys.
#[derive(Debug)]
struct Lane {
    /// Slot width is `1 << slot_shift` nanoseconds.
    slot_shift: u32,
    /// `slots.len() - 1`; the slot of time `t` is `(t >> slot_shift) & slot_mask`.
    slot_mask: u64,
    /// `[head, tail]` node of each slot's list (`NIL` when empty).
    slots: Vec<[u32; 2]>,
    /// One bit per slot: set iff the slot's list is non-empty.
    occupied: Vec<u64>,
    cursor: usize,
    nodes: Vec<LaneNode>,
    /// Head of the free list threaded through spent nodes' `next`.
    free: u32,
    len: usize,
}

impl Lane {
    fn new(window_shift: u32) -> Self {
        let slots_shift = window_shift.min(MAX_LANE_SLOTS_SHIFT);
        let n_slots = 1usize << slots_shift;
        Self {
            slot_shift: window_shift - slots_shift,
            slot_mask: n_slots as u64 - 1,
            slots: vec![[NIL; 2]; n_slots],
            occupied: vec![0u64; n_slots.div_ceil(64)],
            cursor: 0,
            nodes: Vec::new(),
            free: NIL,
            len: 0,
        }
    }

    fn key_of(&self, node: u32) -> (SimTime, u64) {
        let node = &self.nodes[node as usize];
        (node.at, node.seq)
    }

    /// Links `event` into its slot, after every event already there with a
    /// key `<=` its own. Events arrive in key order within a slot whenever
    /// the slot is 1 ns wide and is fed in schedule order or from a coarse
    /// bucket in push order — then this is a tail append; wider slots take
    /// the sorted walk, so order never depends on slot width or on how the
    /// events got here.
    // trimlint: hot-path -- every event of the active window is linked in here
    fn push(&mut self, event: Event) {
        let s = ((event.at.0 >> self.slot_shift) & self.slot_mask) as usize;
        let key = event.key();
        let cell = LaneNode {
            at: event.at,
            seq: event.seq,
            kind: Some(event.kind),
            next: NIL,
        };
        let n = if self.free == NIL {
            // trimlint: allow(lossy-cast) -- the slab holds one window's events; u32 links bound it at 4 G nodes
            let n = self.nodes.len() as u32;
            self.nodes.push(cell);
            n
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = cell;
            n
        };
        let [head, tail] = self.slots[s];
        if tail == NIL {
            self.slots[s] = [n, n];
            self.occupied[s / 64] |= 1u64 << (s % 64);
            if self.len == 0 || s < self.cursor {
                self.cursor = s;
            }
        } else if self.key_of(tail) <= key {
            self.nodes[tail as usize].next = n;
            self.slots[s][1] = n;
        } else if key < self.key_of(head) {
            self.nodes[n as usize].next = head;
            self.slots[s][0] = n;
        } else {
            // head <= key < tail: insert after the last node that is <= key.
            let mut prev = head;
            loop {
                let next = self.nodes[prev as usize].next;
                if key < self.key_of(next) {
                    break;
                }
                prev = next;
            }
            self.nodes[n as usize].next = self.nodes[prev as usize].next;
            self.nodes[prev as usize].next = n;
        }
        self.len += 1;
    }

    /// Unlinks and returns the earliest event.
    // trimlint: hot-path -- the simulator's main-loop drain
    fn pop(&mut self) -> Option<Event> {
        if self.len == 0 {
            return None;
        }
        let s = self.cursor;
        let n = self.slots[s][0];
        let node = &mut self.nodes[n as usize];
        let (at, seq, kind) = (node.at, node.seq, node.kind.take()?);
        let next = node.next;
        node.next = self.free;
        self.free = n;
        self.len -= 1;
        if next == NIL {
            self.slots[s] = [NIL; 2];
            self.occupied[s / 64] &= !(1u64 << (s % 64));
            self.cursor = if self.len == 0 {
                0
            } else {
                self.first_occupied_after(s)
            };
        } else {
            self.slots[s][0] = next;
        }
        debug_assert!(
            self.occupied[..self.cursor / 64].iter().all(|&w| w == 0)
                && self.occupied[self.cursor / 64] & !(!0u64 << (self.cursor % 64)) == 0,
            "occupied slot below the cursor"
        );
        Some(Event { at, seq, kind })
    }

    /// The first occupied slot above `s`. Caller guarantees one exists.
    fn first_occupied_after(&self, s: usize) -> usize {
        let mut wi = s / 64;
        // Bits strictly above `s` in its own word; the shift is split so
        // `s % 64 == 63` shifts everything out instead of overflowing.
        let mut word = self.occupied[wi] & ((!0u64 << (s % 64)) << 1);
        while word == 0 {
            wi += 1;
            word = self.occupied[wi];
        }
        wi * 64 + word.trailing_zeros() as usize
    }

    /// The `(time, seq)` key of the earliest event, if any.
    fn peek(&self) -> Option<(SimTime, u64)> {
        (self.len > 0).then(|| self.key_of(self.slots[self.cursor][0]))
    }
}

/// A deterministic, forward-only calendar queue of events.
///
/// Pop order is exactly ascending `(time, insertion-sequence)`. Internally
/// events live in one of three places, classified by the window index
/// `w = time >> bucket_shift`:
///
/// * `lane` — the events of the active window `cur_window`, already in pop
///   order (see `Lane`);
/// * `buckets` — unsorted `Vec`s for windows in `(cur_window, cur_window + n)`
///   (O(1) insertion, the hot path); a bucket holds exactly one window at a
///   time, recorded in `bucket_window`;
/// * `overflow` — a heap for events at or beyond the wheel horizon when they
///   were scheduled; never behind the active window.
///
/// The active window advances lazily: only when [`EventQueue::pop`] finds
/// the lane empty does it make active the earlier of the earliest occupied
/// bucket's window (streaming that bucket into the lane) and the overflow
/// heap's first window. The active window is therefore always the window of
/// the last event fired, and a handler of that event may schedule anywhere
/// from its own time on.
#[derive(Debug)]
pub struct EventQueue {
    /// Bucket width is `1 << bucket_shift` nanoseconds.
    bucket_shift: u32,
    /// `buckets.len() - 1`; bucket for window `w` is `w & bucket_mask`.
    bucket_mask: u64,
    /// Unsorted per-window event lists, in push order.
    buckets: Vec<Vec<Event>>,
    /// The window whose events bucket `i` currently holds (meaningful only
    /// while the bucket is non-empty). Every resident window `w` satisfies
    /// `cur_window < w < cur_window + n`, so distinct resident windows map to
    /// distinct buckets and each bucket is window-pure.
    bucket_window: Vec<u64>,
    /// Occupancy bitmap over `buckets`, one bit per bucket, so the scan for
    /// the earliest bucket skips empty buckets a word at a time.
    occupied: Vec<u64>,
    /// Events in `buckets` (not counting the lane or `overflow`).
    wheel_len: usize,
    /// Window index of the active window: that of the last event fired.
    cur_window: u64,
    /// The events whose window is `cur_window`.
    lane: Lane,
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
    /// is crossed constantly and wide windows whose lane slots span many
    /// nanoseconds; simulations use [`EventQueue::new`].
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
            cur_window: 0,
            lane: Lane::new(bucket_shift),
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
    ///
    /// # Panics
    ///
    /// Panics if `at` lies in a window before the active one — behind the
    /// window of the last event fired. The calendar only runs forward; a
    /// handler scheduling at or after the time it fired at never trips this.
    // trimlint: hot-path -- every simulated packet passes through here
    pub fn schedule(&mut self, at: SimTime, kind: EventKind) {
        let w = self.window_of(at);
        assert!(
            w >= self.cur_window,
            "event at {} ns scheduled behind the active window (window {} of 2^{} ns): the calendar only runs forward",
            at.0,
            self.cur_window,
            self.bucket_shift
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        let event = Event { at, seq, kind };
        if w == self.cur_window {
            self.lane.push(event);
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
            self.buckets[b].push(event);
            self.wheel_len += 1;
        } else {
            self.overflow.push(Reverse(event));
        }
    }

    /// The occupied bucket holding the earliest window, if any. Every
    /// occupied bucket holds exactly one window in
    /// `(cur_window, cur_window + n)` and distinct windows occupy distinct
    /// buckets, so it is the first occupied bucket cyclically after the
    /// active window's own. Scans the occupancy bitmap a word at a time.
    fn first_bucket(&self) -> Option<usize> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = ((self.cur_window + 1) & self.bucket_mask) as usize;
        let (first, bit) = (start / 64, start % 64);
        let words = self.occupied.len();
        (0..=words).find_map(|k| {
            let wi = (first + k) % words;
            let word = match k {
                0 => self.occupied[wi] & (!0u64 << bit),
                // Wrapped: only bits below `start` in the start word remain.
                _ if k == words => self.occupied[wi] & !(!0u64 << bit),
                _ => self.occupied[wi],
            };
            (word != 0).then(|| wi * 64 + word.trailing_zeros() as usize)
        })
    }

    /// Makes the next window active once the lane has drained: the earlier
    /// of the earliest occupied bucket's window, whose events are streamed
    /// into the lane, and the overflow heap's first window. Either way the
    /// next event popped lies in the new active window.
    fn advance(&mut self) {
        let overflow = self.overflow.peek().map(|Reverse(e)| self.window_of(e.at));
        let earliest = self
            .first_bucket()
            .filter(|&b| overflow.is_none_or(|o| self.bucket_window[b] <= o));
        let Some(b) = earliest else {
            if let Some(o) = overflow {
                self.cur_window = o;
            }
            return;
        };
        self.cur_window = self.bucket_window[b];
        self.occupied[b / 64] &= !(1u64 << (b % 64));
        self.wheel_len -= self.buckets[b].len();
        // The bucket keeps its allocation for the next window that maps here.
        let mut bucket = std::mem::take(&mut self.buckets[b]);
        for event in bucket.drain(..) {
            self.lane.push(event);
        }
        self.buckets[b] = bucket;
    }

    /// Removes and returns the earliest event.
    // trimlint: hot-path -- the simulator's main-loop drain
    pub fn pop(&mut self) -> Option<Event> {
        if self.lane.len == 0 {
            self.advance();
        }
        // The lane holds the active window and every bucket a later one, so
        // the global minimum is in the lane or `overflow`. Their windows can
        // coincide (the active window caught up with an overflow event), so
        // compare the full (time, seq) key.
        let from_overflow = match (self.lane.peek(), self.overflow.peek()) {
            (None, None) => return None,
            (Some(_), None) => false,
            (None, Some(_)) => true,
            (Some(a), Some(Reverse(o))) => o.key() < a,
        };
        let event = if from_overflow {
            self.overflow.pop().map(|Reverse(e)| e)
        } else {
            self.lane.pop()
        }?;
        self.fired += 1;
        Some(event)
    }

    /// The firing time of the earliest event, if any. Leaves the active
    /// window where it is: with the lane drained, this reads the earliest
    /// bucket's minimum.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        let near = match self.lane.peek() {
            Some((at, _)) => Some(at),
            None => self
                .first_bucket()
                .and_then(|b| self.buckets[b].iter().map(|e| e.at).min()),
        };
        let far = self.overflow.peek().map(|Reverse(e)| e.at);
        near.into_iter().chain(far).min()
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.wheel_len + self.lane.len + self.overflow.len()
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

    /// A lane event: only `at` and `seq` matter to the lane; the token
    /// echoes `seq` so pops can be identified.
    fn lane_event(at: u64, seq: u64) -> Event {
        Event {
            at: SimTime(at),
            seq,
            kind: timer(0, seq),
        }
    }

    fn drain_keys(lane: &mut Lane) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| lane.pop())
            .map(|e| (e.at.0, e.seq))
            .collect()
    }

    #[test]
    fn lane_slot_stays_sorted_whatever_the_insert_order() {
        // A 2^16 ns window has 8 ns slots, so all of these share slot 0.
        let mut lane = Lane::new(16);
        assert_eq!(lane.slot_shift, 3);
        lane.push(lane_event(3, 0)); // first in the slot
        lane.push(lane_event(5, 1)); // tail append
        lane.push(lane_event(4, 2)); // between head and tail: sorted walk
        lane.push(lane_event(1, 3)); // before the head
        lane.push(lane_event(5, 4)); // ties the tail: appended after it
        lane.push(lane_event(4, 5)); // ties a middle node: lands after it
        assert_eq!(lane.len, 6);
        assert_eq!(lane.peek(), Some((SimTime(1), 3)));
        assert_eq!(
            drain_keys(&mut lane),
            vec![(1, 3), (3, 0), (4, 2), (4, 5), (5, 1), (5, 4)]
        );
        assert!(lane.occupied.iter().all(|&w| w == 0));
    }

    #[test]
    fn lane_cursor_rewinds_for_an_earlier_insert() {
        let mut lane = Lane::new(13); // 1 ns slots
        lane.push(lane_event(100, 0));
        lane.push(lane_event(4000, 1));
        assert_eq!(lane.pop().map(|e| e.at.0), Some(100));
        assert_eq!(lane.cursor, 4000, "cursor rests on the first occupied slot");
        // Earlier than the cursor (and than the event just popped).
        lane.push(lane_event(50, 2));
        assert_eq!(lane.cursor, 50);
        lane.push(lane_event(8191, 3));
        assert_eq!(
            drain_keys(&mut lane),
            vec![(50, 2), (4000, 1), (8191, 3)],
            "last slot of the last bitmap word included"
        );
    }

    #[test]
    fn lane_reuses_slab_nodes_after_a_drain() {
        let mut lane = Lane::new(13);
        for round in 0..3u64 {
            for i in 0..64u64 {
                lane.push(lane_event((i * 97) % 8192, round * 64 + i));
            }
            assert_eq!(lane.nodes.len(), 64, "round {round} grew the slab");
            let keys = drain_keys(&mut lane);
            assert_eq!(keys.len(), 64);
            assert!(keys.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(lane.len, 0);
            assert_eq!(lane.pop().map(|e| e.seq), None);
        }
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn an_arrival_carries_its_hop_state_in_24_bytes() {
        // The hop's class flag lends its niche to the discriminant, so the
        // variant adds nothing to what a timer event already costs.
        assert_eq!(core::mem::size_of::<EventKind>(), 24);
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
    fn a_drained_window_stays_active_until_the_next_pop() {
        // 16 ns windows: 5 and 10 share window 0, 20 is in window 1.
        let mut q = EventQueue::with_geometry(4, 4);
        q.schedule(SimTime(5), timer(0, 0));
        q.schedule(SimTime(20), timer(0, 2));
        assert_eq!(q.pop().map(|e| e.at), Some(SimTime(5)));
        // The lane is empty, but the last event fired in window 0, so its
        // handler may still schedule there.
        q.schedule(SimTime(10), timer(0, 1));
        assert_eq!(q.peek_time(), Some(SimTime(10)));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::AppTimer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "behind the active window")]
    fn scheduling_behind_the_last_fired_window_panics() {
        let mut q = EventQueue::with_geometry(4, 4);
        q.schedule(SimTime(100), timer(0, 1)); // window 6, in overflow
        assert_eq!(q.pop().map(|e| e.at), Some(SimTime(100)));
        q.schedule(SimTime(3), timer(0, 0)); // window 0, behind window 6
    }
}
