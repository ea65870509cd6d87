//! Shallow-buffer output-queued switching with trim / drop / ECN policies.
//!
//! Every egress port has two FIFO queues — a small **high-priority** queue
//! (control, metadata, trimmed headers) and a shallow **data** queue — plus
//! the serializer state. When a data packet arrives to a full data queue the
//! port applies its [`QueuePolicy`]:
//!
//! * [`FullAction::Trim`] — cut the packet to its head sections
//!   ([`crate::packet::Packet::trim`]) and enqueue the remnant in the
//!   high-priority queue, the behavior of NDP / EODS / UEC trimming switches;
//! * [`FullAction::DropTail`] — discard it, the classic baseline.
//!
//! An optional ECN threshold marks packets when the data queue is deep,
//! independent of the full-queue action.

use crate::packet::{Hop, InFlight};
use std::collections::VecDeque;
use trimgrad_telemetry::Registry;

/// What to do with a data packet that arrives to a full data queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FullAction {
    /// Discard the packet.
    DropTail,
    /// Trim gradient frames to `grad_depth` parts (synthetic packets shrink
    /// to a stub) and requeue high-priority; packets that refuse to trim are
    /// dropped.
    Trim {
        /// Part depth gradient frames are cut to (1 = heads only).
        grad_depth: u8,
    },
}

/// Per-port queueing policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuePolicy {
    /// Capacity of the data (low-priority) queue in bytes. "Shallow buffer":
    /// the default is 150 KB ≈ 100 MTU packets.
    pub data_capacity: u32,
    /// Capacity of the high-priority queue in bytes.
    pub prio_capacity: u32,
    /// Mark ECN on data packets enqueued beyond this depth.
    pub ecn_threshold: Option<u32>,
    /// Full-queue action.
    pub action: FullAction,
}

impl QueuePolicy {
    /// The paper's switch: trim to heads on overflow, 150 KB shallow buffer,
    /// 64 KB priority queue.
    #[must_use]
    pub fn trim_default() -> Self {
        Self {
            data_capacity: 150_000,
            prio_capacity: 64_000,
            ecn_threshold: None,
            action: FullAction::Trim { grad_depth: 1 },
        }
    }

    /// A tail-drop switch with the same buffering (the baseline fabric).
    #[must_use]
    pub fn droptail_default() -> Self {
        Self {
            action: FullAction::DropTail,
            ..Self::trim_default()
        }
    }
}

/// What became of an enqueued packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Queued untouched in the data queue.
    Data,
    /// Queued untouched in the high-priority queue.
    Priority,
    /// Trimmed, then queued high-priority.
    Trimmed,
    /// Dropped: data queue full and the policy (or the packet) forbade trimming.
    DroppedDataFull,
    /// Dropped: high-priority queue full.
    DroppedPrioFull,
}

impl EnqueueOutcome {
    /// Whether the packet survived (was queued in some form).
    #[must_use]
    pub fn survived(self) -> bool {
        !matches!(
            self,
            EnqueueOutcome::DroppedDataFull | EnqueueOutcome::DroppedPrioFull
        )
    }
}

/// Monotone per-port outcome tallies: one count per packet offered to the
/// port, under what became of it. The port's arrivals are their sum
/// ([`PortCounters::arrived`]) and its dequeues what was queued and has
/// left ([`PortState::dequeued`]). Exported into a [`Registry`] on demand
/// (see [`PortState::export_to`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PortCounters {
    /// Packets queued untouched in the data queue.
    pub queued_data: u64,
    /// Intact priority packets queued in the high-priority queue.
    pub queued_prio: u64,
    /// Packets trimmed on overflow and requeued high-priority.
    pub trimmed: u64,
    /// Packets dropped at a full data queue.
    pub dropped_data_full: u64,
    /// Packets dropped at a full priority queue.
    pub dropped_prio_full: u64,
    /// Packets freshly ECN-marked at this port.
    pub ecn_marked: u64,
}

impl PortCounters {
    /// Packets that survived enqueue in some form.
    #[must_use]
    pub fn queued_total(&self) -> u64 {
        self.queued_data + self.queued_prio + self.trimmed
    }

    /// Packets dropped at this port, either queue.
    #[must_use]
    pub fn dropped_total(&self) -> u64 {
        self.dropped_data_full + self.dropped_prio_full
    }

    /// Packets offered to the port: every one was queued in some form or
    /// dropped.
    #[must_use]
    pub fn arrived(&self) -> u64 {
        self.queued_total() + self.dropped_total()
    }

    /// Counts what became of one arrival.
    // trimlint: hot-path -- per enqueue
    pub(crate) fn count(&mut self, outcome: EnqueueOutcome) {
        match outcome {
            EnqueueOutcome::Data => self.queued_data += 1,
            EnqueueOutcome::Priority => self.queued_prio += 1,
            EnqueueOutcome::Trimmed => self.trimmed += 1,
            EnqueueOutcome::DroppedDataFull => self.dropped_data_full += 1,
            EnqueueOutcome::DroppedPrioFull => self.dropped_prio_full += 1,
        }
    }
}

/// A recount's first disagreement: what, its kept value, its recount.
pub(crate) type Mismatch = (&'static str, u64, u64);

/// A queued packet: its record and its [`Hop`] state, 16 bytes; the class is
/// the queue the entry sits in.
#[derive(Debug)]
struct Entry {
    packet: Box<InFlight>,
    size: u32,
    cursor: u32,
}

/// The queues and serializer state of one egress port.
#[derive(Debug, Default)]
pub struct PortState {
    high: VecDeque<Entry>,
    low: VecDeque<Entry>,
    high_bytes: u32,
    low_bytes: u32,
    /// Deepest data-queue occupancy seen (bytes).
    pub max_low_bytes: u32,
    /// Monotone outcome tallies for this port.
    pub counters: PortCounters,
}

impl PortState {
    /// Creates an idle, empty port.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current data-queue depth in bytes.
    #[must_use]
    pub fn low_bytes(&self) -> u32 {
        self.low_bytes
    }

    /// Current priority-queue depth in bytes.
    #[must_use]
    pub fn high_bytes(&self) -> u32 {
        self.high_bytes
    }

    /// Queued packets (both classes).
    #[must_use]
    pub fn queued_packets(&self) -> usize {
        self.high.len() + self.low.len()
    }

    /// Whether both queues are empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.high.is_empty() && self.low.is_empty()
    }

    /// Packets handed to the serializer: those queued that have left.
    #[must_use]
    pub fn dequeued(&self) -> u64 {
        self.counters.queued_total() - self.queued_packets() as u64
    }

    /// Adds the port's tallies to `registry` as counters named
    /// `{prefix}.{field}`, and its watermark as the gauge
    /// `{prefix}.max_low_bytes`.
    pub fn export_to(&self, registry: &Registry, prefix: &str) {
        let c = &self.counters;
        let fields = [
            ("arrived", c.arrived()),
            ("queued_data", c.queued_data),
            ("queued_prio", c.queued_prio),
            ("trimmed", c.trimmed),
            ("dropped_data_full", c.dropped_data_full),
            ("dropped_prio_full", c.dropped_prio_full),
            ("ecn_marked", c.ecn_marked),
            ("dequeued", self.dequeued()),
        ];
        for (field, value) in fields {
            registry.counter(&format!("{prefix}.{field}")).add(value);
        }
        registry
            .gauge(&format!("{prefix}.max_low_bytes"))
            .set_max(u64::from(self.max_low_bytes));
    }

    /// The size of the newest priority entry: after a
    /// [`EnqueueOutcome::Trimmed`], the remnant's.
    pub(crate) fn newest_priority_size(&self) -> u32 {
        self.high.back().map_or(0, |e| e.size)
    }

    /// Enqueues under `policy`, possibly trimming or dropping. The packet
    /// arrives boxed — the same allocation that rode the arrival event — and
    /// parks in the queue without a copy, beside its `hop` state; the record
    /// is read only to ECN-mark or trim it. On a `Dropped*` outcome the
    /// rejected box comes back, so its allocation can be recycled.
    // trimlint: hot-path -- switch forward path (trim/drop decision)
    pub fn enqueue(
        &mut self,
        pkt: Box<InFlight>,
        hop: Hop,
        policy: &QueuePolicy,
    ) -> (EnqueueOutcome, Option<Box<InFlight>>) {
        let (outcome, rejected) = self.enqueue_inner(pkt, hop, policy);
        self.counters.count(outcome);
        (outcome, rejected)
    }

    fn enqueue_inner(
        &mut self,
        mut pkt: Box<InFlight>,
        hop: Hop,
        policy: &QueuePolicy,
    ) -> (EnqueueOutcome, Option<Box<InFlight>>) {
        let entry = |packet, size| Entry {
            packet,
            size,
            cursor: hop.cursor,
        };
        if hop.priority {
            return match self.enqueue_high(entry(pkt, hop.size), policy) {
                Ok(()) => (EnqueueOutcome::Priority, None),
                Err(pkt) => (EnqueueOutcome::DroppedPrioFull, Some(pkt)),
            };
        }
        if self.low_bytes + hop.size <= policy.data_capacity {
            if let Some(thresh) = policy.ecn_threshold {
                if self.low_bytes + hop.size > thresh && !pkt.ecn {
                    pkt.ecn = true;
                    self.counters.ecn_marked += 1;
                }
            }
            self.low_bytes += hop.size;
            self.max_low_bytes = self.max_low_bytes.max(self.low_bytes);
            self.low.push_back(entry(pkt, hop.size));
            return (EnqueueOutcome::Data, None);
        }
        match policy.action {
            FullAction::DropTail => (EnqueueOutcome::DroppedDataFull, Some(pkt)),
            FullAction::Trim { grad_depth } => {
                if pkt.trim(grad_depth) {
                    // A trim shrinks the record; the entry takes its size.
                    let size = pkt.size;
                    match self.enqueue_high(entry(pkt, size), policy) {
                        Ok(()) => (EnqueueOutcome::Trimmed, None),
                        Err(pkt) => (EnqueueOutcome::DroppedPrioFull, Some(pkt)),
                    }
                } else {
                    (EnqueueOutcome::DroppedDataFull, Some(pkt))
                }
            }
        }
    }

    /// Queues `entry` high-priority, or hands its packet back when the queue
    /// is full.
    fn enqueue_high(&mut self, entry: Entry, policy: &QueuePolicy) -> Result<(), Box<InFlight>> {
        if self.high_bytes + entry.size <= policy.prio_capacity {
            self.high_bytes += entry.size;
            self.high.push_back(entry);
            Ok(())
        } else {
            Err(entry.packet)
        }
    }

    /// Dequeues the next packet to serialize, with its hop state: strict
    /// priority, FIFO within each class.
    // trimlint: hot-path -- switch forward path (egress serialize)
    pub fn dequeue(&mut self) -> Option<(Box<InFlight>, Hop)> {
        let (e, priority) = if let Some(e) = self.high.pop_front() {
            self.high_bytes -= e.size;
            (e, true)
        } else {
            let e = self.low.pop_front()?;
            self.low_bytes -= e.size;
            (e, false)
        };
        let hop = Hop {
            size: e.size,
            cursor: e.cursor,
            priority,
        };
        Some((e.packet, hop))
    }

    /// Recounts the port (entries against records and byte totals) and the
    /// port table's mirrors of it (`depth`, `queued`, `busy`: a port with a
    /// backlog is serializing).
    pub(crate) fn recount(&self, depth: u32, queued: u32, busy: bool) -> Result<(), Mismatch> {
        let sum = |q: &VecDeque<Entry>| q.iter().map(|e| u64::from(e.size)).sum();
        let strays = |q: &VecDeque<Entry>, high| {
            q.iter().filter(|e| e.packet.priority != high).count() as u64
        };
        let mut entries = self.high.iter().chain(&self.low);
        let resized = entries.find(|e| e.size != e.packet.size);
        let (size, record) = resized.map_or((0, 0), |e| (e.size, e.packet.size));
        let n = self.queued_packets() as u64;
        let checks = [
            ("entry size", size.into(), record.into()),
            (
                "class strays",
                0,
                strays(&self.high, true) + strays(&self.low, false),
            ),
            ("high_bytes", self.high_bytes.into(), sum(&self.high)),
            ("low_bytes", self.low_bytes.into(), sum(&self.low)),
            ("depth mirror", depth.into(), self.low_bytes.into()),
            ("queued mirror", queued.into(), n),
            ("busy or empty", u64::from(busy || n == 0), 1),
        ];
        let mut mismatches = checks.into_iter().filter(|&(_, kept, real)| kept != real);
        mismatches.next().map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Packet, PacketArena, PacketBody, SYNTHETIC_TRIM_STUB};
    use crate::{FlowId, NodeId};

    fn data_pkt(id: u64, size: u32) -> Box<InFlight> {
        let pkt = Packet {
            id,
            flow: FlowId(1),
            src: NodeId(0),
            dst: NodeId(1),
            size,
            priority: false,
            reliable: false,
            trimmed: false,
            ecn: false,
            seq: id,
            fin: false,
            body: PacketBody::Synthetic,
        };
        PacketArena::new().alloc(pkt, 0)
    }

    fn prio_pkt(id: u64, size: u32) -> Box<InFlight> {
        let mut pkt = data_pkt(id, size);
        pkt.priority = true;
        pkt.reliable = true;
        pkt
    }

    impl PortState {
        /// Enqueues `pkt` with the hop state its record implies.
        fn offer(&mut self, pkt: Box<InFlight>, policy: &QueuePolicy) -> EnqueueOutcome {
            let hop = Hop::of(&pkt, 0);
            self.enqueue(pkt, hop, policy).0
        }

        /// Dequeues, checking the carried hop state against the record.
        fn take(&mut self) -> Option<Box<InFlight>> {
            let (pkt, hop) = self.dequeue()?;
            assert_eq!(hop, Hop::of(&pkt, 0));
            Some(pkt)
        }
    }

    fn tiny_policy(action: FullAction) -> QueuePolicy {
        QueuePolicy {
            data_capacity: 3000,
            prio_capacity: 200,
            ecn_threshold: None,
            action,
        }
    }

    #[test]
    fn fifo_within_class_and_strict_priority_across() {
        let mut port = PortState::new();
        let pol = QueuePolicy::trim_default();
        assert_eq!(port.offer(data_pkt(1, 100), &pol), EnqueueOutcome::Data);
        assert_eq!(port.offer(data_pkt(2, 100), &pol), EnqueueOutcome::Data);
        assert_eq!(port.offer(prio_pkt(3, 64), &pol), EnqueueOutcome::Priority);
        let order: Vec<u64> = std::iter::from_fn(|| port.take()).map(|p| p.id).collect();
        assert_eq!(order, vec![3, 1, 2]);
        assert!(port.is_empty());
        assert_eq!(port.low_bytes(), 0);
        assert_eq!(port.high_bytes(), 0);
    }

    #[test]
    fn droptail_drops_when_full() {
        let mut port = PortState::new();
        let pol = tiny_policy(FullAction::DropTail);
        assert!(port.offer(data_pkt(1, 1500), &pol).survived());
        assert!(port.offer(data_pkt(2, 1500), &pol).survived());
        assert_eq!(
            port.offer(data_pkt(3, 1500), &pol),
            EnqueueOutcome::DroppedDataFull
        );
        assert_eq!(port.queued_packets(), 2);
    }

    #[test]
    fn trim_policy_salvages_overflow_into_priority_queue() {
        let mut port = PortState::new();
        let pol = tiny_policy(FullAction::Trim { grad_depth: 1 });
        assert!(port.offer(data_pkt(1, 1500), &pol).survived());
        assert!(port.offer(data_pkt(2, 1500), &pol).survived());
        let out = port.offer(data_pkt(3, 1500), &pol);
        assert_eq!(out, EnqueueOutcome::Trimmed);
        // The trimmed remnant jumps the queue.
        let first = port.take().unwrap();
        assert_eq!(first.id, 3);
        assert!(first.trimmed);
        assert_eq!(first.size, SYNTHETIC_TRIM_STUB);
    }

    #[test]
    fn trim_policy_drops_untrimmable_overflow() {
        let mut port = PortState::new();
        let pol = tiny_policy(FullAction::Trim { grad_depth: 1 });
        port.offer(data_pkt(1, 3000), &pol);
        // A packet already at stub size cannot shrink → dropped.
        assert_eq!(
            port.offer(data_pkt(2, SYNTHETIC_TRIM_STUB), &pol),
            EnqueueOutcome::DroppedDataFull
        );
    }

    #[test]
    fn priority_queue_overflow_drops() {
        let mut port = PortState::new();
        let pol = tiny_policy(FullAction::Trim { grad_depth: 1 });
        assert!(port.offer(prio_pkt(1, 150), &pol).survived());
        assert_eq!(
            port.offer(prio_pkt(2, 150), &pol),
            EnqueueOutcome::DroppedPrioFull
        );
        // Trimmed overflow that cannot fit in the priority queue also drops:
        // high already holds 150 B, the 64 B stub would exceed the 200 B cap.
        port.offer(data_pkt(3, 3000), &pol);
        assert_eq!(
            port.offer(data_pkt(4, 1500), &pol),
            EnqueueOutcome::DroppedPrioFull
        );
    }

    #[test]
    fn rejected_packets_come_back_with_the_outcome() {
        let enqueue = |port: &mut PortState, pkt: Box<InFlight>, pol: &QueuePolicy| {
            let hop = Hop::of(&pkt, 0);
            port.enqueue(pkt, hop, pol)
        };
        let mut port = PortState::new();
        let pol = tiny_policy(FullAction::DropTail);
        let (outcome, rejected) = enqueue(&mut port, data_pkt(1, 3000), &pol);
        assert!(outcome.survived() && rejected.is_none());
        let (outcome, rejected) = enqueue(&mut port, data_pkt(2, 1500), &pol);
        assert_eq!(outcome, EnqueueOutcome::DroppedDataFull);
        assert_eq!(rejected.expect("dropped box comes back").id, 2);
        // The trim path hands back the trimmed remnant when the priority
        // queue overflows too.
        let mut port = PortState::new();
        let pol = tiny_policy(FullAction::Trim { grad_depth: 1 });
        port.offer(data_pkt(1, 3000), &pol);
        port.offer(prio_pkt(2, 150), &pol);
        let (outcome, rejected) = enqueue(&mut port, data_pkt(3, 1500), &pol);
        assert_eq!(outcome, EnqueueOutcome::DroppedPrioFull);
        let rejected = rejected.expect("prio-full box comes back");
        assert_eq!(rejected.id, 3);
        assert!(rejected.trimmed, "the remnant was trimmed before rejection");
    }

    #[test]
    fn a_trim_updates_record_and_entry_together() {
        let mut port = PortState::new();
        let pol = tiny_policy(FullAction::Trim { grad_depth: 1 });
        port.offer(data_pkt(1, 3000), &pol);
        let hop = Hop {
            size: 1500,
            cursor: 9,
            priority: false,
        };
        let (outcome, _) = port.enqueue(data_pkt(2, 1500), hop, &pol);
        assert_eq!(outcome, EnqueueOutcome::Trimmed);
        assert_eq!(port.recount(port.low_bytes(), 2, true), Ok(()));
        let (pkt, carried) = port.dequeue().expect("remnant first");
        assert_eq!(pkt.size, SYNTHETIC_TRIM_STUB);
        assert_eq!(
            carried,
            Hop {
                size: SYNTHETIC_TRIM_STUB,
                cursor: 9,
                priority: true
            }
        );
    }

    #[test]
    fn ecn_marks_beyond_threshold() {
        let mut port = PortState::new();
        let pol = QueuePolicy {
            ecn_threshold: Some(2000),
            ..QueuePolicy::droptail_default()
        };
        port.offer(data_pkt(1, 1500), &pol);
        port.offer(data_pkt(2, 1500), &pol); // crosses 2000
        let a = port.take().unwrap();
        let b = port.take().unwrap();
        assert!(!a.ecn);
        assert!(b.ecn);
    }

    #[test]
    fn max_depth_watermark_tracks() {
        let mut port = PortState::new();
        let pol = QueuePolicy::trim_default();
        port.offer(data_pkt(1, 1000), &pol);
        port.offer(data_pkt(2, 2000), &pol);
        let _ = port.take();
        port.offer(data_pkt(3, 100), &pol);
        assert_eq!(port.max_low_bytes, 3000);
    }

    #[test]
    fn port_counters_count_outcomes_and_export() {
        let mut port = PortState::new();
        let pol = tiny_policy(FullAction::Trim { grad_depth: 1 });
        port.offer(data_pkt(1, 1500), &pol);
        port.offer(data_pkt(2, 1500), &pol);
        port.offer(prio_pkt(3, 64), &pol);
        port.offer(data_pkt(4, 1500), &pol); // trimmed
        port.offer(data_pkt(5, SYNTHETIC_TRIM_STUB), &pol); // untrimmable → drop
        assert!(port.take().is_some());
        let c = port.counters;
        assert_eq!(c.arrived(), 5);
        assert_eq!(c.queued_data, 2);
        assert_eq!(c.queued_prio, 1);
        assert_eq!(c.trimmed, 1);
        assert_eq!(c.dropped_data_full, 1);
        assert_eq!(port.dequeued(), 1);
        while port.take().is_some() {}
        assert_eq!(port.dequeued(), 4);

        let reg = Registry::new();
        port.export_to(&reg, "netsim.port.0->1");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("netsim.port.0->1.arrived"), 5);
        assert_eq!(snap.counter("netsim.port.0->1.trimmed"), 1);
        assert_eq!(snap.counter("netsim.port.0->1.dequeued"), 4);
        assert_eq!(snap.gauge("netsim.port.0->1.max_low_bytes"), 3000);
    }

    #[test]
    fn ecn_mark_counts_fresh_marks_only() {
        let mut port = PortState::new();
        let pol = QueuePolicy {
            ecn_threshold: Some(1000),
            ..QueuePolicy::droptail_default()
        };
        port.offer(data_pkt(1, 1500), &pol); // crosses threshold → marked
        let mut pre_marked = data_pkt(2, 1500);
        pre_marked.ecn = true;
        port.offer(pre_marked, &pol); // already marked upstream
        assert_eq!(port.counters.ecn_marked, 1);
    }

    #[test]
    fn byte_accounting_is_exact() {
        let mut port = PortState::new();
        let pol = QueuePolicy::trim_default();
        for i in 0..10 {
            port.offer(data_pkt(i, 100 + i as u32), &pol);
        }
        let expected: u32 = (0..10).map(|i| 100 + i as u32).sum();
        assert_eq!(port.low_bytes(), expected);
        while port.take().is_some() {}
        assert_eq!(port.low_bytes(), 0);
    }
}
