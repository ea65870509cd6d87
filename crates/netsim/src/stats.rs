//! Simulation statistics: conservation counters, flow completion times,
//! queue watermarks.
//!
//! The fabric keeps one record of each packet event:
//!
//! * each egress port's outcome counts and data-queue watermark, in its
//!   [`crate::switch::PortState`] beside the queues;
//! * each flow's send and delivery counts, in its [`FlowRecord`];
//! * each fault's count, in the plan's [`crate::fault::FaultStats`];
//! * the packets inside the network, as [`crate::packet::PacketArena::live`];
//! * in the simulator's ledger, only what no other record holds: random
//!   link loss, the sends a host had no route for and the arrivals a switch
//!   had no route for, and the queue-depth distribution.
//!
//! [`Stats`] is a borrowed view over those records: every fabric total is a
//! sum over them, taken when it is read or published. The conservation
//! identity every run must satisfy:
//!
//! ```text
//! sent + injected = delivered + dropped_data_full + dropped_prio_full
//!                   + dropped_random + dropped_fault + in_flight
//! ```
//!
//! `injected` counts packets a [`crate::fault::FaultPlan`] materialized out
//! of thin air (duplicates, stale replays) and `dropped_fault` the packets
//! it destroyed; both are zero when no plan is installed, collapsing the
//! identity to the original `sent = delivered + dropped + in_flight`.
//! [`Stats::conservation_report`] checks it; the simulator's tests assert
//! it after every run.

use crate::fault::FaultStats;
use crate::ports::DensePortTable;
use crate::time::SimTime;
use crate::topology::{NodeKind, Topology};
use crate::FlowId;
use core::cell::Cell;
use std::collections::BTreeMap;
use trimgrad_telemetry::{Counter, Gauge, Histogram, Registry, HISTOGRAM_BUCKETS};

/// Per-flow record.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlowRecord {
    /// Packets sent on the flow.
    pub sent: u64,
    /// Packets delivered to the destination host.
    pub delivered: u64,
    /// Of the delivered packets, how many arrived trimmed.
    pub delivered_trimmed: u64,
    /// When the first packet was sent.
    pub first_sent: Option<SimTime>,
    /// When the flow's owner declared it complete
    /// ([`crate::host::HostApi::complete_flow`]).
    pub completed_at: Option<SimTime>,
}

impl FlowRecord {
    /// Flow completion time, if the flow was declared complete.
    #[must_use]
    pub fn fct(&self) -> Option<SimTime> {
        match (self.first_sent, self.completed_at) {
            (Some(s), Some(c)) => Some(c.since(s)),
            _ => None,
        }
    }
}

/// Registry names of the fabric totals [`Stats::publish`] forwards.
const TOTAL_NAMES: [&str; 11] = [
    "netsim.sent",
    "netsim.delivered",
    "netsim.delivered_trimmed",
    "netsim.forwarded",
    "netsim.trimmed",
    "netsim.dropped.data_full",
    "netsim.dropped.prio_full",
    "netsim.dropped.random",
    "netsim.dropped.fault",
    "netsim.injected",
    "netsim.ecn_marked",
];

/// Sums over the port records, with the no-route drops no port sees folded
/// into `forwarded` and `dropped_data_full` (see [`Stats::port_totals`]).
#[derive(Debug, Default)]
struct PortTotals {
    /// Arrivals at switch ports, plus arrivals a switch had no route for.
    forwarded: u64,
    trimmed: u64,
    /// Full data-queue drops, plus the no-route drops at hosts and switches.
    dropped_data_full: u64,
    dropped_prio_full: u64,
    ecn_marked: u64,
    max_queue_bytes: u32,
}

/// The data-queue depth distribution, log2-bucketed exactly like
/// [`trimgrad_telemetry::Histogram`].
#[derive(Debug, Clone, Copy)]
struct DepthHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    sum: u64,
}

/// The simulator's own records: the flow table, the drops no port sees, the
/// depth distribution, and the registry handles and last-published values
/// [`Stats::publish`] forwards deltas through.
#[derive(Debug)]
pub(crate) struct Ledger {
    counters: [Counter; TOTAL_NAMES.len()],
    max_queue_gauge: Gauge,
    depth_histogram: Histogram,
    depth: DepthHistogram,
    /// The totals and depth distribution as of the last publish.
    published: Cell<([u64; TOTAL_NAMES.len()], DepthHistogram)>,
    /// Flow records, indexed by the slot `on_sent` hands back.
    flows: Vec<FlowRecord>,
    /// `FlowId` → slot in `flows`; only consulted when a flow is named.
    flow_index: BTreeMap<FlowId, u32>,
    /// The last `flow_slot` answer: sends arrive in per-flow bursts.
    last_flow: Option<(FlowId, u32)>,
    /// Packets lost to a link's random `drop_prob`.
    pub(crate) dropped_random: u64,
    /// Sends whose source host had no route to the destination.
    pub(crate) no_route_at_host: u64,
    /// Arrivals at a switch with no route onward.
    pub(crate) no_route_at_switch: u64,
}

impl Ledger {
    /// An empty ledger registering its metrics in `registry`.
    pub(crate) fn with_registry(registry: &Registry) -> Self {
        let zero = DepthHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            sum: 0,
        };
        Self {
            counters: TOTAL_NAMES.map(|name| registry.counter(name)),
            max_queue_gauge: registry.gauge("netsim.queue.max_bytes"),
            depth_histogram: registry.histogram("netsim.queue.depth_bytes"),
            depth: zero,
            published: Cell::new(([0; TOTAL_NAMES.len()], zero)),
            flows: Vec::new(),
            flow_index: BTreeMap::new(),
            last_flow: None,
            dropped_random: 0,
            no_route_at_host: 0,
            no_route_at_switch: 0,
        }
    }

    /// The slot of `flow`'s record, created on first mention.
    pub(crate) fn flow_slot(&mut self, flow: FlowId) -> u32 {
        if let Some((last, slot)) = self.last_flow {
            if last == flow {
                return slot;
            }
        }
        // trimlint: allow(lossy-cast) -- one slot per flow; in-flight packets carry it as u32
        let next = self.flows.len() as u32;
        let slot = *self.flow_index.entry(flow).or_insert(next);
        if slot == next {
            self.flows.push(FlowRecord::default());
        }
        self.last_flow = Some((flow, slot));
        slot
    }

    /// Counts a send on `flow` and returns the flow's slot, which the packet
    /// carries so its delivery finds the record without a lookup.
    pub(crate) fn on_sent(&mut self, flow: FlowId, now: SimTime) -> u32 {
        let slot = self.flow_slot(flow);
        let rec = &mut self.flows[slot as usize];
        rec.sent += 1;
        rec.first_sent.get_or_insert(now);
        slot
    }

    pub(crate) fn on_delivered(&mut self, flow_slot: u32, trimmed: bool) {
        let rec = &mut self.flows[flow_slot as usize];
        rec.delivered += 1;
        rec.delivered_trimmed += u64::from(trimmed);
    }

    pub(crate) fn on_flow_complete(&mut self, flow: FlowId, now: SimTime) {
        let slot = self.flow_slot(flow);
        self.flows[slot as usize].completed_at.get_or_insert(now);
    }

    /// Records one data-queue depth observation in the log2 distribution
    /// behind windowed depth percentiles (the dashboard heatmap).
    pub(crate) fn observe_queue(&mut self, bytes: u32) {
        self.depth.buckets[Histogram::bucket_of(u64::from(bytes))] += 1;
        self.depth.sum += u64::from(bytes);
    }
}

/// The fabric's statistics: a view over the port, flow and fault records,
/// the arena's live count and the simulator's ledger (see the module docs).
///
/// Every total is summed when it is read. [`Stats::publish`] forwards what
/// has accumulated since the last call to the `netsim.*` metrics of a
/// [`trimgrad_telemetry::Registry`], so every number the simulator reports
/// is also available in a [`trimgrad_telemetry::Snapshot`]. The simulator
/// publishes whenever `run_until` returns, before each time-series sample
/// and in [`crate::sim::Simulator::telemetry_snapshot`], so the registry is
/// current wherever it can be read from outside an app callback. Per-flow
/// records stay plain data: flow identities are unbounded and belong in
/// [`Stats::fct_summary`], not the metric namespace.
#[derive(Debug, Clone, Copy)]
pub struct Stats<'a> {
    pub(crate) ledger: &'a Ledger,
    pub(crate) ports: &'a DensePortTable,
    pub(crate) topo: &'a Topology,
    pub(crate) faults: FaultStats,
    pub(crate) in_flight: u64,
}

impl<'a> Stats<'a> {
    /// Forwards everything counted since the last call to the registry.
    /// Idempotent: a second call with nothing new adds nothing.
    pub fn publish(&self) {
        let ledger = self.ledger;
        let (before, depth) = ledger.published.get();
        let (flows, ports) = (self.flow_totals(), self.port_totals());
        let totals = [
            flows.sent,
            flows.delivered,
            flows.delivered_trimmed,
            ports.forwarded,
            ports.trimmed,
            ports.dropped_data_full,
            ports.dropped_prio_full,
            self.dropped_random(),
            self.dropped_fault(),
            self.injected_packets(),
            ports.ecn_marked,
        ];
        for ((counter, &now), &before) in ledger.counters.iter().zip(&totals).zip(&before) {
            counter.add(now - before);
        }
        let max_queue_bytes = u64::from(ports.max_queue_bytes);
        ledger.max_queue_gauge.set_max(max_queue_bytes);
        let mut fresh = ledger.depth.buckets;
        for (b, &before) in fresh.iter_mut().zip(&depth.buckets) {
            *b -= before;
        }
        let sum = ledger.depth.sum - depth.sum;
        ledger.depth_histogram.record_bucketed(&fresh, sum);
        ledger.published.set((totals, ledger.depth));
    }

    /// The flow records' counts summed in one pass (its times stay unset).
    fn flow_totals(&self) -> FlowRecord {
        let mut t = FlowRecord::default();
        for f in &self.ledger.flows {
            t.sent += f.sent;
            t.delivered += f.delivered;
            t.delivered_trimmed += f.delivered_trimmed;
        }
        t
    }

    /// Sums the port records in one pass over the port table, row by row so
    /// each node's kind is looked up once, and adds the no-route drops.
    fn port_totals(&self) -> PortTotals {
        let ledger = self.ledger;
        let mut t = PortTotals {
            forwarded: ledger.no_route_at_switch,
            dropped_data_full: ledger.no_route_at_host + ledger.no_route_at_switch,
            ..PortTotals::default()
        };
        for (node, _, row) in self.ports.rows() {
            let switch = matches!(self.topo.kind(node), NodeKind::Switch(_));
            for p in row {
                let c = &p.counters;
                if switch {
                    t.forwarded += c.arrived();
                }
                t.trimmed += c.trimmed;
                t.dropped_data_full += c.dropped_data_full;
                t.dropped_prio_full += c.dropped_prio_full;
                t.ecn_marked += c.ecn_marked;
                t.max_queue_bytes = t.max_queue_bytes.max(p.max_low_bytes);
            }
        }
        t
    }

    /// Packets handed to NICs by apps.
    #[must_use]
    pub fn sent_packets(&self) -> u64 {
        self.flow_totals().sent
    }

    /// Packets delivered to destination hosts.
    #[must_use]
    pub fn delivered_packets(&self) -> u64 {
        self.flow_totals().delivered
    }

    /// Delivered packets that arrived trimmed.
    #[must_use]
    pub fn delivered_trimmed_packets(&self) -> u64 {
        self.flow_totals().delivered_trimmed
    }

    /// Packets trimmed by switches.
    #[must_use]
    pub fn trimmed_packets(&self) -> u64 {
        self.port_totals().trimmed
    }

    /// Packets dropped at full data queues, or for want of a route (at the
    /// sending host or at a switch).
    #[must_use]
    pub fn dropped_data_full(&self) -> u64 {
        self.port_totals().dropped_data_full
    }

    /// Packets dropped at full priority queues.
    #[must_use]
    pub fn dropped_prio_full(&self) -> u64 {
        self.port_totals().dropped_prio_full
    }

    /// Packets dropped by random link loss.
    #[must_use]
    pub fn dropped_random(&self) -> u64 {
        self.ledger.dropped_random
    }

    /// Packets destroyed by an installed [`crate::fault::FaultPlan`].
    #[must_use]
    pub fn dropped_fault(&self) -> u64 {
        self.faults.dropped
    }

    /// Extra packets a [`crate::fault::FaultPlan`] injected (duplicates and
    /// stale replays the sender never sent).
    #[must_use]
    pub fn injected_packets(&self) -> u64 {
        self.faults.injected()
    }

    /// Total drops of all causes.
    #[must_use]
    pub fn dropped_total(&self) -> u64 {
        let ports = self.port_totals();
        ports.dropped_data_full
            + ports.dropped_prio_full
            + self.dropped_random()
            + self.dropped_fault()
    }

    /// ECN marks applied.
    #[must_use]
    pub fn ecn_marked(&self) -> u64 {
        self.port_totals().ecn_marked
    }

    /// The deepest data-queue occupancy any port reached, in bytes.
    #[must_use]
    pub fn max_queue_bytes(&self) -> u32 {
        self.port_totals().max_queue_bytes
    }

    /// Fraction of delivered packets that arrived trimmed (0 when nothing
    /// was delivered).
    #[must_use]
    pub fn trim_fraction(&self) -> f64 {
        let delivered = self.delivered_packets();
        if delivered == 0 {
            0.0
        } else {
            self.delivered_trimmed_packets() as f64 / delivered as f64
        }
    }

    /// Record for one flow, if any packet was sent on it.
    #[must_use]
    pub fn flow(&self, flow: FlowId) -> Option<&'a FlowRecord> {
        let slot = *self.ledger.flow_index.get(&flow)?;
        Some(&self.ledger.flows[slot as usize])
    }

    /// All flows with records, in `FlowId` order.
    pub fn flows(&self) -> impl Iterator<Item = (&'a FlowId, &'a FlowRecord)> {
        let ledger = self.ledger;
        let slots = ledger.flow_index.iter();
        slots.map(|(flow, &slot)| (flow, &ledger.flows[slot as usize]))
    }

    /// The slowest declared flow completion time, if any flow completed —
    /// the tail latency that gates a synchronous training round.
    #[must_use]
    pub fn max_fct(&self) -> Option<SimTime> {
        self.ledger.flows.iter().filter_map(FlowRecord::fct).max()
    }

    /// Verifies packet conservation against the packets still inside the
    /// network (queued or propagating). Fault-injected packets count as
    /// extra supply (`sent + injected`); fault drops count with the other
    /// drop classes. A failure names the offending counters: the supply and
    /// accounted sides of the global identity with every term spelled out,
    /// so a violated run can be diagnosed from the panic message (and from
    /// the dumped trace) instead of a bare `false`.
    ///
    /// # Errors
    ///
    /// The violation, when the identity does not hold.
    pub fn conservation_report(&self) -> Result<(), ConservationViolation> {
        let in_flight = self.in_flight;
        let supply = self.sent_packets() + self.injected_packets();
        let accounted = self.delivered_packets() + self.dropped_total() + in_flight;
        if supply == accounted {
            return Ok(());
        }
        Err(ConservationViolation {
            scope: "global".to_string(),
            lhs: ("sent + injected".to_string(), supply),
            rhs: (
                "delivered + dropped_total + in_flight".to_string(),
                accounted,
            ),
            detail: format!(
                "sent={} injected={} delivered={} dropped_data_full={} dropped_prio_full={} \
                 dropped_random={} dropped_fault={} in_flight={in_flight}",
                self.sent_packets(),
                self.injected_packets(),
                self.delivered_packets(),
                self.dropped_data_full(),
                self.dropped_prio_full(),
                self.dropped_random(),
                self.dropped_fault(),
            ),
        })
    }

    /// Flow-completion-time summary over all completed flows — the paper's
    /// motivation is exactly the *tail* of this distribution ("the slowest
    /// flow completion time is especially important" for synchronous
    /// training). Returns `None` when no flow completed.
    #[must_use]
    pub fn fct_summary(&self) -> Option<FctSummary> {
        // Slot order is first-send order, not `FlowId` order; the sort below
        // makes every statistic (the `f64` mean included) independent of it.
        let flows = self.ledger.flows.iter();
        let mut fcts: Vec<SimTime> = flows.filter_map(FlowRecord::fct).collect();
        if fcts.is_empty() {
            return None;
        }
        fcts.sort_unstable();
        let max = *fcts.last()?;
        let pick = |q: f64| {
            let idx = ((fcts.len() - 1) as f64 * q).round() as usize;
            fcts[idx]
        };
        let mean_ns = fcts.iter().map(|t| t.as_nanos() as f64).sum::<f64>() / fcts.len() as f64;
        Some(FctSummary {
            completed: fcts.len(),
            mean: SimTime::from_nanos(mean_ns as u64),
            p50: pick(0.50),
            p90: pick(0.90),
            p99: pick(0.99),
            max,
        })
    }
}

/// A failed packet-conservation check, naming the first identity that broke.
///
/// `scope` is `"global"` for the fabric-wide identity or
/// `"port <from>-><to>"` for a per-port one; `lhs`/`rhs` are the two sides of
/// the identity as (expression, value); `detail` spells out every individual
/// counter feeding the sums.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConservationViolation {
    /// Where the identity broke.
    pub scope: String,
    /// Left side of the identity: expression and value.
    pub lhs: (String, u64),
    /// Right side of the identity: expression and value.
    pub rhs: (String, u64),
    /// Every counter feeding the two sums, rendered `name=value`.
    pub detail: String,
}

impl core::fmt::Display for ConservationViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "conservation violated at {}: {} = {} but {} = {} ({})",
            self.scope, self.lhs.0, self.lhs.1, self.rhs.0, self.rhs.1, self.detail
        )
    }
}

/// Distribution summary of flow completion times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FctSummary {
    /// Flows that completed.
    pub completed: usize,
    /// Mean FCT.
    pub mean: SimTime,
    /// Median FCT.
    pub p50: SimTime,
    /// 90th-percentile FCT.
    pub p90: SimTime,
    /// 99th-percentile FCT.
    pub p99: SimTime,
    /// The straggler: the slowest flow.
    pub max: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Hop, Packet, PacketArena};
    use crate::switch::{FullAction, QueuePolicy};
    use crate::time::gbps;
    use trimgrad_telemetry::Snapshot;

    /// A ledger, the records a view reads beside it, and the registry it
    /// publishes to.
    struct Fixture {
        ledger: Ledger,
        registry: Registry,
        topo: Topology,
        ports: DensePortTable,
        faults: FaultStats,
        in_flight: u64,
    }

    impl Fixture {
        /// A fresh ledger over `topo`'s idle ports.
        fn over(topo: Topology) -> Self {
            let registry = Registry::new();
            Self {
                ledger: Ledger::with_registry(&registry),
                registry,
                ports: DensePortTable::new(&topo),
                topo,
                faults: FaultStats::default(),
                in_flight: 0,
            }
        }

        /// A fresh ledger over an empty fabric.
        fn new() -> Self {
            Self::over(Topology::new())
        }

        fn view(&self) -> Stats<'_> {
            Stats {
                ledger: &self.ledger,
                ports: &self.ports,
                topo: &self.topo,
                faults: self.faults,
                in_flight: self.in_flight,
            }
        }

        /// Publishes, then snapshots the registry.
        fn publish_and_snapshot(&self) -> Snapshot {
            self.view().publish();
            self.registry.snapshot()
        }
    }

    #[test]
    fn flow_counts_accumulate() {
        let mut f = Fixture::new();
        let flow = FlowId(1);
        f.ledger.on_sent(flow, SimTime::from_micros(1));
        let slot = f.ledger.on_sent(flow, SimTime::from_micros(2));
        f.ledger.on_delivered(slot, false);
        f.ledger.on_delivered(slot, true);
        let s = f.view();
        assert_eq!(s.sent_packets(), 2);
        assert_eq!(s.delivered_packets(), 2);
        assert_eq!(s.delivered_trimmed_packets(), 1);
        assert!((s.trim_fraction() - 0.5).abs() < 1e-12);
        let rec = s.flow(flow).unwrap();
        assert_eq!(rec.sent, 2);
        assert_eq!(rec.first_sent, Some(SimTime::from_micros(1)));
    }

    #[test]
    fn port_totals_sum_the_ports_and_forwarded_counts_switch_arrivals() {
        // a - s - b: the host port a->s and the switch port s->b each see
        // traffic, and s finds no route for one more arrival.
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        let s = t.add_switch(QueuePolicy::trim_default());
        t.link(a, s, gbps(10.0), SimTime::from_micros(1));
        t.link(s, b, gbps(10.0), SimTime::from_micros(1));
        let mut f = Fixture::over(t);
        let policy = QueuePolicy {
            data_capacity: 3000,
            prio_capacity: 64,
            ecn_threshold: Some(2000),
            action: FullAction::Trim { grad_depth: 1 },
        };
        let offer = |f: &mut Fixture, from, to| {
            let pkt = Packet {
                size: 1500,
                ..Packet::stub()
            };
            let hop = Hop::of(&pkt, 0);
            let pkt = PacketArena::new().alloc(pkt, 0);
            let _ = f
                .ports
                .get_mut(f.ports.key(from, to))
                .enqueue(pkt, hop, &policy);
        };
        offer(&mut f, a, s);
        // Two fill s->b's data queue (the second is marked), the third is
        // trimmed, the fourth's remnant finds the priority queue full.
        for _ in 0..4 {
            offer(&mut f, s, b);
        }
        f.ledger.no_route_at_switch += 1;
        let v = f.view();
        assert_eq!(v.port_totals().forwarded, 4 + 1);
        assert_eq!(v.trimmed_packets(), 1);
        assert_eq!(v.ecn_marked(), 1);
        assert_eq!(v.dropped_prio_full(), 1);
        assert_eq!(v.dropped_data_full(), 1, "the switch's no-route drop");
        assert_eq!(v.max_queue_bytes(), 3000);
        // Publishing forwards the same port sums, once.
        let snap = f.publish_and_snapshot();
        let published = [
            ("netsim.forwarded", 5),
            ("netsim.trimmed", 1),
            ("netsim.ecn_marked", 1),
            ("netsim.dropped.prio_full", 1),
            ("netsim.dropped.data_full", 1),
        ];
        for (name, want) in published {
            assert_eq!(snap.counter(name), want, "{name}");
        }
        assert_eq!(snap.gauge("netsim.queue.max_bytes"), 3000);
        assert_eq!(f.publish_and_snapshot(), snap, "republishing adds nothing");
    }

    #[test]
    fn fct_measures_first_send_to_completion() {
        let mut f = Fixture::new();
        let flow = FlowId(7);
        f.ledger.on_sent(flow, SimTime::from_micros(10));
        f.ledger.on_flow_complete(flow, SimTime::from_micros(110));
        // A second completion does not overwrite the first.
        f.ledger.on_flow_complete(flow, SimTime::from_micros(500));
        let s = f.view();
        assert_eq!(s.flow(flow).unwrap().fct(), Some(SimTime::from_micros(100)));
        assert_eq!(s.max_fct(), Some(SimTime::from_micros(100)));
    }

    #[test]
    fn conservation_identity() {
        let mut f = Fixture::new();
        for i in 0..10 {
            f.ledger.on_sent(FlowId(i % 2), SimTime(i));
        }
        let slot = f.ledger.flow_slot(FlowId(0));
        for _ in 0..6 {
            f.ledger.on_delivered(slot, false);
        }
        f.ledger.no_route_at_host += 1;
        f.ledger.dropped_random += 1;
        assert_eq!(f.view().dropped_total(), 2);
        assert!(f.view().conservation_report().is_err());
        f.in_flight = 2;
        assert!(f.view().conservation_report().is_ok());
    }

    #[test]
    fn conservation_identity_with_fault_injection() {
        let mut f = Fixture::new();
        for i in 0..10 {
            f.ledger.on_sent(FlowId(i), SimTime(i));
        }
        // The fault layer injects 3 clones and destroys 4 packets; 8 arrive.
        f.faults = FaultStats {
            dropped: 4,
            duplicated: 2,
            replayed: 1,
            ..FaultStats::default()
        };
        let slot = f.ledger.flow_slot(FlowId(0));
        for _ in 0..8 {
            f.ledger.on_delivered(slot, false);
        }
        // 10 + 3 = 8 + 4 + 1 in flight.
        assert!(f.view().conservation_report().is_err());
        f.in_flight = 1;
        let s = f.view();
        assert!(s.conservation_report().is_ok());
        assert_eq!(s.dropped_total(), 4);
        assert_eq!(s.injected_packets(), 3);
        assert_eq!(s.dropped_fault(), 4);
        let snap = f.publish_and_snapshot();
        assert_eq!(snap.counter("netsim.dropped.fault"), 4);
        assert_eq!(snap.counter("netsim.injected"), 3);
        assert_eq!(snap.counter_sum("netsim.dropped."), 4);
    }

    #[test]
    fn conservation_report_names_the_offending_counters() {
        let mut f = Fixture::new();
        f.ledger.on_sent(FlowId(1), SimTime::ZERO);
        let slot = f.ledger.on_sent(FlowId(1), SimTime::ZERO);
        f.ledger.on_delivered(slot, false);
        let v = f.view().conservation_report().unwrap_err();
        assert_eq!(v.scope, "global");
        assert_eq!(v.lhs, ("sent + injected".to_string(), 2));
        assert_eq!(v.rhs.1, 1);
        let msg = v.to_string();
        assert!(msg.contains("conservation violated at global"), "{msg}");
        assert!(msg.contains("sent=2"), "{msg}");
        assert!(msg.contains("in_flight=0"), "{msg}");
        f.in_flight = 1;
        assert!(f.view().conservation_report().is_ok());
    }

    #[test]
    fn trim_fraction_empty_is_zero() {
        let f = Fixture::new();
        assert_eq!(f.view().trim_fraction(), 0.0);
        assert_eq!(f.view().max_fct(), None);
    }

    #[test]
    fn fct_summary_percentiles() {
        let mut f = Fixture::new();
        // 100 flows with FCTs 1µs .. 100µs.
        for i in 1..=100u64 {
            let flow = FlowId(i);
            f.ledger.on_sent(flow, SimTime::ZERO);
            f.ledger.on_flow_complete(flow, SimTime::from_micros(i));
        }
        let sum = f.view().fct_summary().expect("flows completed");
        assert_eq!(sum.completed, 100);
        assert_eq!(sum.max, SimTime::from_micros(100));
        // Nearest-rank on 0..=99: round(99·0.5) = 50 → the 51st value.
        assert_eq!(sum.p50, SimTime::from_micros(51));
        assert_eq!(sum.p90, SimTime::from_micros(90));
        assert_eq!(sum.p99, SimTime::from_micros(99));
        assert!((sum.mean.as_nanos() as i64 - 50_500).abs() < 1_000);
    }

    #[test]
    fn fct_summary_requires_completions() {
        let mut f = Fixture::new();
        f.ledger.on_sent(FlowId(1), SimTime::ZERO); // sent but never completed
        assert!(f.view().fct_summary().is_none());
    }

    #[test]
    fn snapshot_mirrors_getters() {
        let mut f = Fixture::new();
        let flow = FlowId(3);
        f.ledger.on_sent(flow, SimTime::ZERO);
        let slot = f.ledger.on_sent(flow, SimTime::from_micros(1));
        f.ledger.on_delivered(slot, true);
        f.ledger.dropped_random += 1;
        f.ledger.no_route_at_switch += 1;
        f.ledger.observe_queue(4096);
        let snap = f.publish_and_snapshot();
        let s = f.view();
        assert_eq!(snap.counter("netsim.sent"), s.sent_packets());
        assert_eq!(snap.counter("netsim.delivered"), 1);
        assert_eq!(snap.counter("netsim.delivered_trimmed"), 1);
        assert_eq!(snap.counter("netsim.forwarded"), 1);
        assert_eq!(snap.counter("netsim.dropped.random"), 1);
        assert_eq!(snap.counter("netsim.dropped.data_full"), 1);
        assert_eq!(snap.counter_sum("netsim.dropped."), s.dropped_total());
        let (count, sum, buckets) = snap.histogram("netsim.queue.depth_bytes").unwrap();
        assert_eq!((count, sum, buckets[12]), (1, 4096, 1));
    }

    #[test]
    fn publishing_is_idempotent_and_delta_exact() {
        let mut f = Fixture::new();
        f.ledger.on_sent(FlowId(1), SimTime::ZERO);
        f.ledger.observe_queue(100);
        assert_eq!(f.registry.snapshot().counter("netsim.sent"), 0);
        let first = f.publish_and_snapshot();
        assert_eq!(first.counter("netsim.sent"), 1);
        assert_eq!(
            f.publish_and_snapshot(),
            first,
            "republishing nothing adds nothing"
        );
        // Only what happened since the last publish is forwarded.
        f.ledger.on_sent(FlowId(1), SimTime::ZERO);
        f.faults.dropped = 1;
        f.ledger.observe_queue(100);
        f.ledger.observe_queue(9000);
        let snap = f.publish_and_snapshot();
        assert_eq!(snap.counter("netsim.sent"), 2);
        assert_eq!(snap.counter("netsim.dropped.fault"), 1);
        let (count, sum, buckets) = snap.histogram("netsim.queue.depth_bytes").unwrap();
        assert_eq!((count, sum), (3, 9200));
        assert_eq!((buckets[6], buckets[13]), (2, 1)); // 100 twice, 9000 once
    }

    #[test]
    fn fct_summary_single_flow() {
        let mut f = Fixture::new();
        f.ledger.on_sent(FlowId(1), SimTime::from_micros(5));
        f.ledger
            .on_flow_complete(FlowId(1), SimTime::from_micros(25));
        let sum = f.view().fct_summary().expect("one flow");
        assert_eq!(sum.completed, 1);
        let t = SimTime::from_micros(20);
        assert_eq!((sum.p50, sum.p99, sum.max, sum.mean), (t, t, t, t));
    }
}
