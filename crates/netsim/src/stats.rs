//! Simulation statistics: conservation counters, flow completion times,
//! queue watermarks.
//!
//! The conservation identity every run must satisfy:
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
//!
//! [`Stats::conservation_holds`] checks it given the current in-flight count;
//! the simulator's tests assert it after every run.

use crate::time::SimTime;
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
    /// Bytes delivered.
    pub bytes_delivered: u64,
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

/// The fabric-wide tallies, indexing [`Stats::tally`] and [`TALLY_NAMES`].
#[derive(Debug, Clone, Copy)]
enum Tally {
    Sent,
    Delivered,
    DeliveredTrimmed,
    Forwarded,
    Trimmed,
    DroppedDataFull,
    DroppedPrioFull,
    DroppedRandom,
    DroppedFault,
    Injected,
    EcnMarked,
}

/// Registry name of each [`Tally`], in declaration order.
const TALLY_NAMES: [&str; 11] = [
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

/// The data-queue depth distribution, log2-bucketed exactly like
/// [`trimgrad_telemetry::Histogram`].
#[derive(Debug, Clone, Copy)]
struct DepthHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    sum: u64,
}

/// Global and per-flow counters.
///
/// The data plane counts in plain integers; [`Stats::publish`] forwards what
/// has accumulated since the last call to the `netsim.*` metrics of a
/// [`trimgrad_telemetry::Registry`], so every number the simulator reports
/// is also available in a [`trimgrad_telemetry::Snapshot`]. The simulator publishes whenever
/// `run_until` returns and before each time-series sample, and
/// [`Simulator::telemetry_snapshot`](crate::sim::Simulator::telemetry_snapshot)
/// publishes first — so the registry is current at every point it can be
/// read from outside an app callback. Per-flow records stay
/// plain data: flow identities are unbounded and belong in
/// [`Stats::fct_summary`], not the metric namespace.
#[derive(Debug)]
pub struct Stats {
    counters: [Counter; TALLY_NAMES.len()],
    max_queue_gauge: Gauge,
    depth_histogram: Histogram,
    tally: [u64; TALLY_NAMES.len()],
    max_queue_bytes: u32,
    depth: DepthHistogram,
    /// The tallies and depth distribution as of the last publish.
    published: Cell<([u64; TALLY_NAMES.len()], DepthHistogram)>,
    /// Flow records, indexed by the slot `on_sent` hands back.
    flows: Vec<FlowRecord>,
    /// `FlowId` → slot in `flows`; only consulted when a flow is named.
    flow_index: BTreeMap<FlowId, u32>,
    /// The last `flow_slot` answer: sends arrive in per-flow bursts.
    last_flow: Option<(FlowId, u32)>,
}

impl Stats {
    /// Fresh statistics registering their counters in `registry`.
    #[must_use]
    pub fn with_registry(registry: Registry) -> Self {
        let zero = DepthHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            sum: 0,
        };
        Self {
            counters: TALLY_NAMES.map(|name| registry.counter(name)),
            max_queue_gauge: registry.gauge("netsim.queue.max_bytes"),
            depth_histogram: registry.histogram("netsim.queue.depth_bytes"),
            tally: [0; TALLY_NAMES.len()],
            max_queue_bytes: 0,
            depth: zero,
            published: Cell::new(([0; TALLY_NAMES.len()], zero)),
            flows: Vec::new(),
            flow_index: BTreeMap::new(),
            last_flow: None,
        }
    }

    /// Forwards everything counted since the last call to the registry.
    /// Idempotent: a second call with nothing new adds nothing.
    pub fn publish(&self) {
        let (sent, depth) = self.published.get();
        for ((counter, &now), &before) in self.counters.iter().zip(&self.tally).zip(&sent) {
            counter.add(now - before);
        }
        self.max_queue_gauge
            .set_max(u64::from(self.max_queue_bytes));
        let mut fresh = self.depth.buckets;
        for (b, &before) in fresh.iter_mut().zip(&depth.buckets) {
            *b -= before;
        }
        self.depth_histogram
            .record_bucketed(&fresh, self.depth.sum - depth.sum);
        self.published.set((self.tally, self.depth));
    }

    fn bump(&mut self, what: Tally) {
        self.tally[what as usize] += 1;
    }

    fn get(&self, what: Tally) -> u64 {
        self.tally[what as usize]
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
        self.bump(Tally::Sent);
        let slot = self.flow_slot(flow);
        let rec = &mut self.flows[slot as usize];
        rec.sent += 1;
        rec.first_sent.get_or_insert(now);
        slot
    }

    pub(crate) fn on_delivered(&mut self, flow_slot: u32, bytes: u32, trimmed: bool) {
        self.bump(Tally::Delivered);
        if trimmed {
            self.bump(Tally::DeliveredTrimmed);
        }
        let rec = &mut self.flows[flow_slot as usize];
        rec.delivered += 1;
        rec.bytes_delivered += u64::from(bytes);
        rec.delivered_trimmed += u64::from(trimmed);
    }

    pub(crate) fn on_forwarded(&mut self) {
        self.bump(Tally::Forwarded);
    }

    pub(crate) fn on_trimmed(&mut self) {
        self.bump(Tally::Trimmed);
    }

    pub(crate) fn on_dropped_data_full(&mut self) {
        self.bump(Tally::DroppedDataFull);
    }

    pub(crate) fn on_dropped_prio_full(&mut self) {
        self.bump(Tally::DroppedPrioFull);
    }

    pub(crate) fn on_dropped_random(&mut self) {
        self.bump(Tally::DroppedRandom);
    }

    pub(crate) fn on_dropped_fault(&mut self) {
        self.bump(Tally::DroppedFault);
    }

    pub(crate) fn on_injected(&mut self) {
        self.bump(Tally::Injected);
    }

    pub(crate) fn on_ecn_marked(&mut self) {
        self.bump(Tally::EcnMarked);
    }

    pub(crate) fn on_flow_complete(&mut self, flow: FlowId, now: SimTime) {
        let slot = self.flow_slot(flow);
        self.flows[slot as usize].completed_at.get_or_insert(now);
    }

    /// Records one data-queue depth observation: the watermark and the log2
    /// distribution behind windowed depth percentiles (the dashboard
    /// heatmap).
    pub(crate) fn observe_queue(&mut self, bytes: u32) {
        self.max_queue_bytes = self.max_queue_bytes.max(bytes);
        self.depth.buckets[Histogram::bucket_of(u64::from(bytes))] += 1;
        self.depth.sum += u64::from(bytes);
    }

    /// Packets handed to NICs by apps.
    #[must_use]
    pub fn sent_packets(&self) -> u64 {
        self.get(Tally::Sent)
    }

    /// Packets delivered to destination hosts.
    #[must_use]
    pub fn delivered_packets(&self) -> u64 {
        self.get(Tally::Delivered)
    }

    /// Delivered packets that arrived trimmed.
    #[must_use]
    pub fn delivered_trimmed_packets(&self) -> u64 {
        self.get(Tally::DeliveredTrimmed)
    }

    /// Packets trimmed by switches.
    #[must_use]
    pub fn trimmed_packets(&self) -> u64 {
        self.get(Tally::Trimmed)
    }

    /// Packets dropped at full data queues.
    #[must_use]
    pub fn dropped_data_full(&self) -> u64 {
        self.get(Tally::DroppedDataFull)
    }

    /// Packets dropped at full priority queues.
    #[must_use]
    pub fn dropped_prio_full(&self) -> u64 {
        self.get(Tally::DroppedPrioFull)
    }

    /// Packets dropped by random link loss.
    #[must_use]
    pub fn dropped_random(&self) -> u64 {
        self.get(Tally::DroppedRandom)
    }

    /// Packets destroyed by an installed [`crate::fault::FaultPlan`].
    #[must_use]
    pub fn dropped_fault(&self) -> u64 {
        self.get(Tally::DroppedFault)
    }

    /// Extra packets a [`crate::fault::FaultPlan`] injected (duplicates and
    /// stale replays the sender never sent).
    #[must_use]
    pub fn injected_packets(&self) -> u64 {
        self.get(Tally::Injected)
    }

    /// Total drops of all causes.
    #[must_use]
    pub fn dropped_total(&self) -> u64 {
        self.dropped_data_full()
            + self.dropped_prio_full()
            + self.dropped_random()
            + self.dropped_fault()
    }

    /// ECN marks applied.
    #[must_use]
    pub fn ecn_marked(&self) -> u64 {
        self.get(Tally::EcnMarked)
    }

    /// The deepest data-queue occupancy observed anywhere, in bytes.
    #[must_use]
    pub fn max_queue_bytes(&self) -> u32 {
        self.max_queue_bytes
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
    pub fn flow(&self, flow: FlowId) -> Option<&FlowRecord> {
        self.flow_index
            .get(&flow)
            .map(|&slot| &self.flows[slot as usize])
    }

    /// All flows with records, in `FlowId` order.
    pub fn flows(&self) -> impl Iterator<Item = (&FlowId, &FlowRecord)> {
        self.flow_index
            .iter()
            .map(|(flow, &slot)| (flow, &self.flows[slot as usize]))
    }

    /// The slowest declared flow completion time, if any flow completed —
    /// the tail latency that gates a synchronous training round.
    #[must_use]
    pub fn max_fct(&self) -> Option<SimTime> {
        self.flows.iter().filter_map(FlowRecord::fct).max()
    }

    /// Verifies packet conservation given the number of packets still inside
    /// the network (queued or propagating). Fault-injected packets count as
    /// extra supply (`sent + injected`); fault drops count with the other
    /// drop classes.
    #[must_use]
    pub fn conservation_holds(&self, in_flight: u64) -> bool {
        self.conservation_report(in_flight).is_ok()
    }

    /// Like [`Stats::conservation_holds`], but a failure names the offending
    /// counters: the supply and accounted sides of the global identity with
    /// every term spelled out, so a violated run can be diagnosed from the
    /// panic message (and from the dumped trace) instead of a bare `false`.
    ///
    /// # Errors
    ///
    /// The violation, when the identity does not hold.
    pub fn conservation_report(&self, in_flight: u64) -> Result<(), ConservationViolation> {
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
        let mut fcts: Vec<SimTime> = self.flows.iter().filter_map(FlowRecord::fct).collect();
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
    use trimgrad_telemetry::Snapshot;

    /// Fresh statistics publishing to a registry of their own.
    fn stats() -> Stats {
        Stats::with_registry(Registry::new())
    }

    /// Fresh statistics and the registry they publish to.
    fn stats_and_registry() -> (Stats, Registry) {
        let registry = Registry::new();
        (Stats::with_registry(registry.clone()), registry)
    }

    /// Publishes `s`, then snapshots `registry`.
    fn publish_and_snapshot(s: &Stats, registry: &Registry) -> Snapshot {
        s.publish();
        registry.snapshot()
    }

    #[test]
    fn counters_accumulate() {
        let mut s = stats();
        let f = FlowId(1);
        s.on_sent(f, SimTime::from_micros(1));
        let slot = s.on_sent(f, SimTime::from_micros(2));
        s.on_delivered(slot, 1500, false);
        s.on_delivered(slot, 64, true);
        s.on_trimmed();
        s.on_forwarded();
        s.on_ecn_marked();
        assert_eq!(s.sent_packets(), 2);
        assert_eq!(s.delivered_packets(), 2);
        assert_eq!(s.delivered_trimmed_packets(), 1);
        assert_eq!(s.trimmed_packets(), 1);
        assert_eq!(s.get(Tally::Forwarded), 1);
        assert_eq!(s.ecn_marked(), 1);
        assert!((s.trim_fraction() - 0.5).abs() < 1e-12);
        let rec = s.flow(f).unwrap();
        assert_eq!(rec.sent, 2);
        assert_eq!(rec.bytes_delivered, 1564);
        assert_eq!(rec.first_sent, Some(SimTime::from_micros(1)));
    }

    #[test]
    fn fct_measures_first_send_to_completion() {
        let mut s = stats();
        let f = FlowId(7);
        s.on_sent(f, SimTime::from_micros(10));
        s.on_flow_complete(f, SimTime::from_micros(110));
        // A second completion does not overwrite the first.
        s.on_flow_complete(f, SimTime::from_micros(500));
        assert_eq!(s.flow(f).unwrap().fct(), Some(SimTime::from_micros(100)));
        assert_eq!(s.max_fct(), Some(SimTime::from_micros(100)));
    }

    #[test]
    fn conservation_identity() {
        let mut s = stats();
        for i in 0..10 {
            s.on_sent(FlowId(i % 2), SimTime(i));
        }
        let slot = s.flow_slot(FlowId(0));
        for _ in 0..6 {
            s.on_delivered(slot, 100, false);
        }
        s.on_dropped_data_full();
        s.on_dropped_random();
        assert!(s.conservation_holds(2));
        assert!(!s.conservation_holds(0));
        assert_eq!(s.dropped_total(), 2);
    }

    #[test]
    fn conservation_identity_with_fault_injection() {
        let (mut s, registry) = stats_and_registry();
        for i in 0..10 {
            s.on_sent(FlowId(i), SimTime(i));
        }
        // The fault layer injects 3 clones and destroys 4 packets; 8 arrive.
        for _ in 0..3 {
            s.on_injected();
        }
        for _ in 0..4 {
            s.on_dropped_fault();
        }
        let slot = s.flow_slot(FlowId(0));
        for _ in 0..8 {
            s.on_delivered(slot, 100, false);
        }
        // 10 + 3 = 8 + 4 + 1 in flight.
        assert!(s.conservation_holds(1));
        assert!(!s.conservation_holds(0));
        assert_eq!(s.dropped_total(), 4);
        assert_eq!(s.injected_packets(), 3);
        assert_eq!(s.dropped_fault(), 4);
        let snap = publish_and_snapshot(&s, &registry);
        assert_eq!(snap.counter("netsim.dropped.fault"), 4);
        assert_eq!(snap.counter("netsim.injected"), 3);
        assert_eq!(snap.counter_sum("netsim.dropped."), 4);
    }

    #[test]
    fn conservation_report_names_the_offending_counters() {
        let mut s = stats();
        s.on_sent(FlowId(1), SimTime::ZERO);
        let slot = s.on_sent(FlowId(1), SimTime::ZERO);
        s.on_delivered(slot, 100, false);
        assert!(s.conservation_report(1).is_ok());
        let v = s.conservation_report(0).unwrap_err();
        assert_eq!(v.scope, "global");
        assert_eq!(v.lhs, ("sent + injected".to_string(), 2));
        assert_eq!(v.rhs.1, 1);
        let msg = v.to_string();
        assert!(msg.contains("conservation violated at global"), "{msg}");
        assert!(msg.contains("sent=2"), "{msg}");
        assert!(msg.contains("in_flight=0"), "{msg}");
    }

    #[test]
    fn queue_watermark() {
        let mut s = stats();
        s.observe_queue(100);
        s.observe_queue(5000);
        s.observe_queue(300);
        assert_eq!(s.max_queue_bytes(), 5000);
    }

    #[test]
    fn trim_fraction_empty_is_zero() {
        assert_eq!(stats().trim_fraction(), 0.0);
        assert_eq!(stats().max_fct(), None);
    }

    #[test]
    fn fct_summary_percentiles() {
        let mut s = stats();
        // 100 flows with FCTs 1µs .. 100µs.
        for i in 1..=100u64 {
            let f = FlowId(i);
            s.on_sent(f, SimTime::ZERO);
            s.on_flow_complete(f, SimTime::from_micros(i));
        }
        let sum = s.fct_summary().expect("flows completed");
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
        let mut s = stats();
        s.on_sent(FlowId(1), SimTime::ZERO); // sent but never completed
        assert!(s.fct_summary().is_none());
    }

    #[test]
    fn snapshot_mirrors_getters() {
        let (mut s, registry) = stats_and_registry();
        let f = FlowId(3);
        s.on_sent(f, SimTime::ZERO);
        let slot = s.on_sent(f, SimTime::from_micros(1));
        s.on_delivered(slot, 64, true);
        s.on_trimmed();
        s.on_dropped_random();
        s.observe_queue(4096);
        let snap = publish_and_snapshot(&s, &registry);
        assert_eq!(snap.counter("netsim.sent"), s.sent_packets());
        assert_eq!(snap.counter("netsim.delivered"), 1);
        assert_eq!(snap.counter("netsim.delivered_trimmed"), 1);
        assert_eq!(snap.counter("netsim.trimmed"), 1);
        assert_eq!(snap.counter("netsim.dropped.random"), 1);
        assert_eq!(snap.counter_sum("netsim.dropped."), s.dropped_total());
        assert_eq!(snap.gauge("netsim.queue.max_bytes"), 4096);
        let (count, sum, buckets) = snap.histogram("netsim.queue.depth_bytes").unwrap();
        assert_eq!((count, sum, buckets[12]), (1, 4096, 1));
    }

    #[test]
    fn publishing_is_idempotent_and_delta_exact() {
        let (mut s, registry) = stats_and_registry();
        s.on_sent(FlowId(1), SimTime::ZERO);
        s.observe_queue(100);
        assert_eq!(registry.snapshot().counter("netsim.sent"), 0);
        s.publish();
        let first = registry.snapshot();
        assert_eq!(first.counter("netsim.sent"), 1);
        s.publish();
        assert_eq!(
            publish_and_snapshot(&s, &registry),
            first,
            "republishing nothing adds nothing"
        );
        // Only what happened since the last publish is forwarded.
        s.on_sent(FlowId(1), SimTime::ZERO);
        s.on_dropped_fault();
        s.observe_queue(100);
        s.observe_queue(9000);
        let snap = publish_and_snapshot(&s, &registry);
        assert_eq!(snap.counter("netsim.sent"), 2);
        assert_eq!(snap.counter("netsim.dropped.fault"), 1);
        assert_eq!(snap.gauge("netsim.queue.max_bytes"), 9000);
        let (count, sum, buckets) = snap.histogram("netsim.queue.depth_bytes").unwrap();
        assert_eq!((count, sum), (3, 9200));
        assert_eq!((buckets[6], buckets[13]), (2, 1)); // 100 twice, 9000 once
    }

    #[test]
    fn fct_summary_single_flow() {
        let mut s = stats();
        s.on_sent(FlowId(1), SimTime::from_micros(5));
        s.on_flow_complete(FlowId(1), SimTime::from_micros(25));
        let sum = s.fct_summary().expect("one flow");
        assert_eq!(sum.completed, 1);
        let t = SimTime::from_micros(20);
        assert_eq!((sum.p50, sum.p99, sum.max, sum.mean), (t, t, t, t));
    }
}
