//! The event loop.
//!
//! [`Simulator`] owns the topology, routing tables, every egress-port queue,
//! the installed apps, and the statistics. Time advances strictly
//! monotonically through the deterministic [`crate::event::EventQueue`];
//! identical inputs (topology, apps, seed) produce bit-identical runs.
//!
//! The data plane is flat: port state lives in a [`DensePortTable`] (O(1)
//! indexing by precomputed [`crate::ports::PortId`], cached link params, a
//! dense queue-depth mirror), packet boxes are recycled through a
//! [`PacketArena`] instead of being allocated once per packet lifetime, and
//! conservation is tracked incrementally so [`Simulator::conservation_holds`]
//! is O(1).

use crate::event::{EventKind, EventQueue};
use crate::fault::{FaultPlan, FaultStats};
use crate::host::{App, HostApi, SinkApp};
use crate::packet::{Packet, PacketArena, PacketSpec};
use crate::ports::{DensePortTable, PortId};
use crate::stats::{ConservationViolation, Stats};
use crate::switch::{EnqueueOutcome, PortCounters, QueuePolicy};
use crate::time::SimTime;
use crate::topology::{NodeKind, Routes, Topology};
use crate::NodeId;
use std::collections::BTreeMap;
use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_telemetry::{Counter, Registry, Snapshot, TimeSeries};
use trimgrad_trace::{sat32, DropReason, TraceEvent, Tracer};

/// The host NIC queue policy: deep FIFO, no trimming (the sending host can
/// hold its own backlog; congestion logic lives in the fabric's switches).
fn host_nic_policy() -> QueuePolicy {
    QueuePolicy {
        data_capacity: 1 << 30,
        prio_capacity: 1 << 30,
        ecn_threshold: None,
        action: crate::switch::FullAction::DropTail,
    }
}

/// The discrete-event network simulator.
pub struct Simulator {
    topo: Topology,
    routes: Routes,
    ports: DensePortTable,
    /// Running roll-up of every port's counters, updated at each enqueue
    /// and dequeue so the conservation check never re-scans the table.
    port_totals: PortCounters,
    arena: PacketArena,
    apps: Vec<Option<Box<dyn App>>>,
    started: bool,
    queue: EventQueue,
    now: SimTime,
    stats: Stats,
    next_pkt_id: u64,
    in_flight: u64,
    rng: Xoshiro256StarStar,
    queue_sample_interval: Option<SimTime>,
    registry: Registry,
    /// Per-host scoped registries (see [`Simulator::set_node_scope`]); hosts
    /// absent here publish through the unscoped `registry`.
    node_scopes: BTreeMap<usize, Registry>,
    /// Per-tenant trim attribution (see [`Simulator::set_flow_scope`]),
    /// keyed by `flow.0 >> 32`.
    flow_scopes: BTreeMap<u64, TenantTrim>,
    time_series_interval: Option<SimTime>,
    time_series: Option<TimeSeries>,
    fault_plan: Option<FaultPlan>,
    tracer: Tracer,
}

/// Per-tenant fabric-side trim counters, bumped as the switch trims packets
/// belonging to that tenant's flows.
struct TenantTrim {
    trimmed: Counter,
    trim_bytes: Counter,
}

impl Simulator {
    /// Builds a simulator over `topo` (routes are computed here) with the
    /// default loss-RNG seed.
    #[must_use]
    pub fn new(topo: Topology) -> Self {
        Self::with_seed(topo, 0x7261_6E64)
    }

    /// Builds with an explicit seed for the random-loss generator.
    #[must_use]
    pub fn with_seed(topo: Topology, seed: u64) -> Self {
        let routes = topo.build_routes();
        Self::with_routes(topo, routes, seed)
    }

    /// Builds with a caller-supplied routing table. Datacenter-scale runs
    /// pair this with [`Topology::build_routes_towards`] so the table stays
    /// linear in the destinations actually addressed instead of quadratic in
    /// fabric size.
    #[must_use]
    pub fn with_routes(topo: Topology, routes: Routes, seed: u64) -> Self {
        let n = topo.len();
        let mut apps: Vec<Option<Box<dyn App>>> = Vec::with_capacity(n);
        for i in 0..n {
            apps.push(match topo.kind(NodeId(i)) {
                NodeKind::Host => Some(Box::new(SinkApp::default()) as Box<dyn App>),
                NodeKind::Switch(_) => None,
            });
        }
        let registry = Registry::new();
        // The process-global tracer (gated by TRIMGRAD_TRACE) shares one
        // event ring across simulations, but each simulator's handle
        // aggregates span counters into its own registry.
        let tracer = Tracer::global().clone().with_registry(registry.clone());
        let ports = DensePortTable::new(&topo);
        Self {
            topo,
            routes,
            ports,
            port_totals: PortCounters::default(),
            arena: PacketArena::new(),
            apps,
            started: false,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            stats: Stats::with_registry(registry.clone()),
            next_pkt_id: 0,
            in_flight: 0,
            rng: Xoshiro256StarStar::new(seed),
            queue_sample_interval: None,
            registry,
            node_scopes: BTreeMap::new(),
            flow_scopes: BTreeMap::new(),
            time_series_interval: None,
            time_series: None,
            fault_plan: None,
            tracer,
        }
    }

    /// Replaces the flight recorder (by default the process-global,
    /// `TRIMGRAD_TRACE`-gated one). Tests hand each simulation its own
    /// enabled [`Tracer`] so rings never interleave across concurrent tests.
    /// The handle is re-bound to this simulation's registry.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer.with_registry(self.registry.clone());
    }

    /// The flight recorder this simulation emits into.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Installs a deterministic fault-injection plan (see [`crate::fault`]).
    /// The plan is consulted once per packet as it starts serializing on an
    /// egress port, after the link's independent `drop_prob` draw.
    ///
    /// # Panics
    ///
    /// Panics if the simulation already started: mid-run installation would
    /// make the fault schedule depend on when it was installed, breaking
    /// seed-replayability.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        assert!(
            !self.started,
            "fault plans must be installed before the first run"
        );
        self.fault_plan = Some(plan);
    }

    /// Per-fault tallies of the installed plan (all-zero when none is
    /// installed).
    #[must_use]
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_plan
            .as_ref()
            .map_or_else(FaultStats::default, FaultPlan::stats)
    }

    /// Installs `app` on a host (replacing the default sink).
    ///
    /// # Panics
    ///
    /// Panics if `node` is a switch or the simulation already started.
    pub fn install_app(&mut self, node: NodeId, app: Box<dyn App>) {
        assert!(
            matches!(self.topo.kind(node), NodeKind::Host),
            "{node} is not a host"
        );
        assert!(!self.started, "apps must be installed before the first run");
        self.apps[node.0] = Some(app);
    }

    /// Enables periodic sampling of every data queue's depth into
    /// [`Stats::max_queue_bytes`].
    pub fn enable_queue_sampling(&mut self, interval: SimTime) {
        assert!(interval > SimTime::ZERO, "zero sampling interval");
        self.queue_sample_interval = Some(interval);
    }

    /// Enables the telemetry time-series sampler: every `interval` of sim
    /// time, the registry is snapshotted into a bounded
    /// [`TimeSeries`] ring of `capacity` points (counter/histogram deltas,
    /// gauge levels). Driven entirely by the event clock, so the resulting
    /// series is bit-identical per seed at any thread width.
    ///
    /// # Panics
    ///
    /// Panics on a zero interval or if the simulation already started.
    pub fn enable_time_series(&mut self, interval: SimTime, capacity: usize) {
        assert!(interval > SimTime::ZERO, "zero time-series interval");
        assert!(
            !self.started,
            "time series must be enabled before the first run"
        );
        self.time_series_interval = Some(interval);
        self.time_series = Some(TimeSeries::new(capacity));
    }

    /// The sampled telemetry time series, if [`Simulator::enable_time_series`]
    /// was called.
    #[must_use]
    pub fn time_series(&self) -> Option<&TimeSeries> {
        self.time_series.as_ref()
    }

    /// Publishes everything the apps on `node` emit through
    /// [`HostApi::telemetry`] under `scope.` (via [`Registry::scoped`]),
    /// instead of the registry root. Fabric-side `netsim.*` metrics are
    /// unaffected — scope those per flow with [`Simulator::set_flow_scope`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is a switch or the simulation already started.
    pub fn set_node_scope(&mut self, node: NodeId, scope: &str) {
        assert!(
            matches!(self.topo.kind(node), NodeKind::Host),
            "{node} is not a host"
        );
        assert!(
            !self.started,
            "node scopes must be set before the first run"
        );
        self.node_scopes.insert(node.0, self.registry.scoped(scope));
    }

    /// Attributes fabric-side trimming of flows whose `flow.0 >> 32` equals
    /// `tenant_key` to `scope.netsim.{trimmed,trim_bytes}` counters — the
    /// per-tenant inputs of a trim-fairness (Jain's index) computation.
    ///
    /// # Panics
    ///
    /// Panics if the simulation already started.
    pub fn set_flow_scope(&mut self, tenant_key: u64, scope: &str) {
        assert!(
            !self.started,
            "flow scopes must be set before the first run"
        );
        let scoped = self.registry.scoped(scope);
        self.flow_scopes.insert(
            tenant_key,
            TenantTrim {
                trimmed: scoped.counter("netsim.trimmed"),
                trim_bytes: scoped.counter("netsim.trim_bytes"),
            },
        );
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Packets currently inside the network (queued or propagating).
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    /// Total events dispatched so far — the numerator of an events/s
    /// simulation-throughput measurement.
    #[must_use]
    pub fn events_fired(&self) -> u64 {
        self.queue.total_fired()
    }

    /// The packet-box recycler. Its `live` count equals
    /// [`Simulator::in_flight`] at all times, and its high-water mark is the
    /// peak number of simultaneously boxed packets (the scale bench's
    /// memory proxy).
    #[must_use]
    pub fn arena(&self) -> &PacketArena {
        &self.arena
    }

    /// The running roll-up of every port's counters (the incremental side
    /// of the conservation check). Tests cross-check it against a full
    /// scan of [`crate::switch::PortCounters`] per port.
    #[must_use]
    pub fn port_totals(&self) -> PortCounters {
        self.port_totals
    }

    /// The simulation-wide telemetry registry. The fabric's `netsim.*`
    /// counters live here, and every installed [`App`] sees the same registry
    /// through [`HostApi::telemetry`].
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A point-in-time [`Snapshot`] of every metric the simulation tracks:
    /// the live `netsim.*` / app counters plus per-port series
    /// (`netsim.port.<from>-><to>.*`, see [`crate::link::channel_label`])
    /// materialized from each egress port's [`crate::switch::PortCounters`].
    ///
    /// Port tallies are exported into a scratch registry on every call, so
    /// repeated snapshots never double-count.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> Snapshot {
        let scratch = Registry::new();
        for ((from, to), port) in self.ports.ports_touched() {
            let label = crate::link::channel_label(NodeId(from), NodeId(to));
            let prefix = format!("netsim.port.{label}");
            port.counters.export_to(&scratch, &prefix);
            scratch
                .gauge(&format!("{prefix}.max_low_bytes"))
                .set_max(u64::from(port.max_low_bytes));
        }
        if let Some(plan) = &self.fault_plan {
            plan.stats().export_to(&scratch, "netsim.fault");
        }
        let mut snap = self.registry.snapshot();
        snap.merge(&scratch.snapshot());
        snap
    }

    /// The topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Borrows an installed app, downcast to its concrete type.
    #[must_use]
    pub fn app_ref<T: 'static>(&self, node: NodeId) -> Option<&T> {
        self.apps[node.0]
            .as_deref()
            .and_then(|a| (a as &dyn core::any::Any).downcast_ref::<T>())
    }

    /// Runs until the event queue drains or `t_end` is reached, whichever is
    /// first. Returns the simulated time afterwards.
    pub fn run_until(&mut self, t_end: SimTime) -> SimTime {
        if !self.started {
            self.started = true;
            for i in 0..self.apps.len() {
                if self.apps[i].is_some() {
                    self.with_app(NodeId(i), |app, api| app.on_start(api));
                }
            }
            if let Some(interval) = self.queue_sample_interval {
                self.queue
                    .schedule(self.now + interval, EventKind::StatsSample);
            }
            if let Some(interval) = self.time_series_interval {
                self.queue
                    .schedule(self.now + interval, EventKind::TelemetrySample);
            }
        }
        while let Some(at) = self.queue.peek_time() {
            if at > t_end {
                break;
            }
            let Some(ev) = self.queue.pop() else { break };
            debug_assert!(ev.at >= self.now, "time went backwards");
            self.now = ev.at;
            self.dispatch(ev.kind);
        }
        // If the queue drained before t_end, time still advances to t_end.
        if self.queue.peek_time().is_none() && self.now < t_end {
            self.now = t_end;
        }
        self.now
    }

    /// Verifies packet conservation (see [`Stats::conservation_holds`]):
    /// the aggregated per-port identity plus the global one.
    ///
    /// O(1): the per-port roll-up is maintained incrementally at every
    /// enqueue/dequeue instead of re-scanning the port table. The
    /// authoritative per-port scan (which also names an offender) lives in
    /// [`Simulator::conservation_report`]; the differential and property
    /// tests assert the two always agree.
    #[must_use]
    pub fn conservation_holds(&self) -> bool {
        self.port_totals.conserved() && self.stats.conservation_holds(self.in_flight)
    }

    /// Like [`Simulator::conservation_holds`], but scans every port and a
    /// failure names the first offending port/counter pair (ports checked
    /// in deterministic `(from, to)` order, then the global identity).
    ///
    /// # Errors
    ///
    /// The first violated identity.
    pub fn conservation_report(&self) -> Result<(), ConservationViolation> {
        for ((from, to), port) in self.ports.ports_touched() {
            let c = &port.counters;
            if !c.conserved() {
                return Err(ConservationViolation {
                    scope: format!("port {from}->{to}"),
                    lhs: ("arrived".to_string(), c.arrived),
                    rhs: (
                        "queued_data + queued_prio + trimmed + dropped_data_full \
                         + dropped_prio_full"
                            .to_string(),
                        c.queued_total() + c.dropped_total(),
                    ),
                    detail: format!(
                        "queued_data={} queued_prio={} trimmed={} dropped_data_full={} \
                         dropped_prio_full={} dequeued={}",
                        c.queued_data,
                        c.queued_prio,
                        c.trimmed,
                        c.dropped_data_full,
                        c.dropped_prio_full,
                        c.dequeued,
                    ),
                });
            }
        }
        self.stats.conservation_report(self.in_flight)
    }

    /// Panics on a conservation violation, with the first offending
    /// port/counter pair in the message. The violation is recorded in the
    /// trace first, so when the global tracer is enabled the panic hook dumps
    /// a flight record that ends with the `conservation.violation` mark.
    ///
    /// # Panics
    ///
    /// When any conservation identity is violated.
    pub fn assert_conservation(&self) {
        if let Err(v) = self.conservation_report() {
            self.tracer.mark(
                self.now.as_nanos(),
                "conservation.violation",
                v.lhs.1.abs_diff(v.rhs.1),
            );
            // trimlint: allow(no-panic) -- deliberate invariant check; the message carries the per-port diagnosis
            panic!("{v}");
        }
    }

    // ------------------------------------------------------------------
    // Event dispatch
    // ------------------------------------------------------------------

    // Not a lint hot-path root: dispatch also runs app/endpoint logic
    // (timers, transports) that legitimately allocates. The data-plane
    // spine it calls into (enqueue_on_port, port_try_start, the port
    // table, the arena) carries the hot-path annotations instead.
    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Arrive { node, from, packet } => self.handle_arrive(node, from, packet),
            EventKind::PortFree { node, to } => {
                if let Some(key) = self.ports.try_key(node, to) {
                    // Dense fast path: clear the busy flag and bail on an
                    // empty backlog without ever touching the (cold, ~150B)
                    // PortState — only the small busy/queued mirrors.
                    self.ports.set_busy(key, false);
                    if self.ports.has_backlog(key) {
                        self.port_try_start(node, to, key);
                    }
                }
            }
            EventKind::AppTimer { node, token } => {
                self.with_app(node, |app, api| app.on_timer(token, api));
            }
            EventKind::StatsSample => {
                // Allocation-free: walk the dense depth mirror instead of
                // collecting a scratch Vec.
                for &d in self.ports.depths() {
                    self.stats.observe_queue(d);
                }
                if let Some(interval) = self.queue_sample_interval {
                    if !self.queue.is_empty() {
                        self.queue
                            .schedule(self.now + interval, EventKind::StatsSample);
                    }
                }
            }
            EventKind::TelemetrySample => {
                // Registry-only snapshot: the per-port export in
                // `telemetry_snapshot` formats thousands of names per call
                // at datacenter scale, far too hot for a periodic sampler.
                let snap = self.registry.snapshot();
                if let Some(ts) = &mut self.time_series {
                    ts.sample(self.now.as_nanos(), &snap);
                }
                if let Some(interval) = self.time_series_interval {
                    if !self.queue.is_empty() {
                        self.queue
                            .schedule(self.now + interval, EventKind::TelemetrySample);
                    }
                }
            }
        }
    }

    // Delivery hands packets to app code via `with_app`, so this is not a
    // lint hot-path root either; the spine calls it makes are annotated.
    fn handle_arrive(&mut self, node: NodeId, _from: NodeId, mut packet: Box<Packet>) {
        match self.topo.kind(node) {
            NodeKind::Host => {
                assert_eq!(packet.dst, node, "misrouted packet reached a host");
                self.in_flight -= 1;
                self.stats
                    .on_delivered(packet.flow, packet.size, packet.trimmed);
                self.tracer
                    .emit(self.now.as_nanos(), || TraceEvent::PktDelivered {
                        node: sat32(node.0),
                        flow: packet.flow.0,
                        pseq: packet.seq,
                        pkt: packet.id,
                        size: packet.size,
                        trimmed: packet.trimmed,
                    });
                // Move the payload out and recycle the box: the `App` trait
                // keeps taking packets by value, while the allocation that
                // rode the event queue returns to the arena for the next
                // send.
                let inner = core::mem::replace(&mut *packet, Packet::stub());
                self.arena.free(packet);
                self.with_app(node, |app, api| app.on_packet(inner, api));
            }
            NodeKind::Switch(policy) => {
                self.stats.on_forwarded();
                let Some(next) = self.routes.next_hop(node, packet.dst, packet.flow) else {
                    // Unreachable destination: count as a drop.
                    self.in_flight -= 1;
                    self.stats.on_dropped_data_full();
                    self.tracer
                        .emit(self.now.as_nanos(), || TraceEvent::PktDropped {
                            node: sat32(node.0),
                            to: sat32(node.0),
                            flow: packet.flow.0,
                            pseq: packet.seq,
                            pkt: packet.id,
                            reason: DropReason::NoRoute,
                        });
                    self.arena.free(packet);
                    return;
                };
                self.enqueue_on_port(node, next, packet, &policy);
            }
        }
    }

    // trimlint: hot-path -- switch enqueue + trim/drop accounting
    fn enqueue_on_port(
        &mut self,
        node: NodeId,
        to: NodeId,
        packet: Box<Packet>,
        policy: &QueuePolicy,
    ) {
        let was_ecn = packet.ecn;
        let (flow, pseq, pkt, size) = (packet.flow.0, packet.seq, packet.id, packet.size);
        let key = self.ports.key(node, to);
        let port = self.ports.get_mut(key);
        let outcome = port.enqueue(packet, policy);
        let rejected = port.take_rejected();
        // After a trim, the surviving remnant sits at the back of the
        // priority queue; read its size before the port borrow ends.
        let trimmed_size = port.high_back_size();
        let low = port.low_bytes();
        let queued = u32::try_from(port.queued_packets()).unwrap_or(u32::MAX);
        self.ports.record_depth(key, low, queued);
        // Incremental conservation: mirror the port's own tally so the
        // whole-run check never re-scans the table.
        self.port_totals.arrived += 1;
        match outcome {
            EnqueueOutcome::Data => self.port_totals.queued_data += 1,
            EnqueueOutcome::Priority => self.port_totals.queued_prio += 1,
            EnqueueOutcome::Trimmed => self.port_totals.trimmed += 1,
            EnqueueOutcome::DroppedDataFull => self.port_totals.dropped_data_full += 1,
            EnqueueOutcome::DroppedPrioFull => self.port_totals.dropped_prio_full += 1,
        }
        if let Some(slot) = rejected {
            self.arena.free(slot);
        }
        self.stats.observe_queue(low);
        let at = self.now.as_nanos();
        match outcome {
            EnqueueOutcome::Data | EnqueueOutcome::Priority => {
                self.tracer.emit(at, || TraceEvent::PktEnqueued {
                    node: sat32(node.0),
                    to: sat32(to.0),
                    flow,
                    pseq,
                    pkt,
                    size,
                    prio: outcome == EnqueueOutcome::Priority,
                });
            }
            EnqueueOutcome::Trimmed => {
                self.stats.on_trimmed();
                if !self.flow_scopes.is_empty() {
                    if let Some(t) = self.flow_scopes.get(&(flow >> 32)) {
                        t.trimmed.inc();
                        t.trim_bytes
                            .add(u64::from(size.saturating_sub(trimmed_size.unwrap_or(0))));
                    }
                }
                self.tracer.emit(at, || TraceEvent::PktTrimmed {
                    node: sat32(node.0),
                    to: sat32(to.0),
                    flow,
                    pseq,
                    pkt,
                    old_size: size,
                    new_size: trimmed_size.unwrap_or(0),
                });
            }
            EnqueueOutcome::DroppedDataFull => {
                self.in_flight -= 1;
                self.stats.on_dropped_data_full();
                self.tracer.emit(at, || TraceEvent::PktDropped {
                    node: sat32(node.0),
                    to: sat32(to.0),
                    flow,
                    pseq,
                    pkt,
                    reason: DropReason::DataFull,
                });
                return;
            }
            EnqueueOutcome::DroppedPrioFull => {
                self.in_flight -= 1;
                self.stats.on_dropped_prio_full();
                self.tracer.emit(at, || TraceEvent::PktDropped {
                    node: sat32(node.0),
                    to: sat32(to.0),
                    flow,
                    pseq,
                    pkt,
                    reason: DropReason::PrioFull,
                });
                return;
            }
        }
        // ECN accounting: count fresh marks only.
        if !was_ecn {
            if let Some(thresh) = policy.ecn_threshold {
                if low > thresh {
                    self.stats.on_ecn_marked();
                }
            }
        }
        self.port_try_start(node, to, key);
    }

    // trimlint: hot-path -- egress serializer start (dequeue + schedule)
    fn port_try_start(&mut self, node: NodeId, to: NodeId, key: PortId) {
        // Consult the dense busy/queued mirrors first so the common
        // "port already serializing" / "nothing queued" cases never pull a
        // scattered PortState line into cache.
        if self.ports.is_busy(key) || !self.ports.has_backlog(key) {
            return;
        }
        let port = self.ports.get_mut(key);
        let Some(mut packet) = port.dequeue() else {
            return;
        };
        let low = port.low_bytes();
        let queued = u32::try_from(port.queued_packets()).unwrap_or(u32::MAX);
        self.ports.set_busy(key, true);
        self.ports.record_depth(key, low, queued);
        self.port_totals.dequeued += 1;
        // Link params come from the port table's build-time cache, not a
        // linear adjacency scan per packet.
        let params = self.ports.params(key);
        let ser = params.rate.serialize_time(packet.size as usize);
        self.queue
            .schedule(self.now + ser, EventKind::PortFree { node, to });
        // Random in-flight loss.
        if params.drop_prob > 0.0 && f64::from(self.rng.next_f32()) < params.drop_prob {
            self.in_flight -= 1;
            self.stats.on_dropped_random();
            self.tracer
                .emit(self.now.as_nanos(), || TraceEvent::PktDropped {
                    node: sat32(node.0),
                    to: sat32(to.0),
                    flow: packet.flow.0,
                    pseq: packet.seq,
                    pkt: packet.id,
                    reason: DropReason::Random,
                });
            self.arena.free(packet);
            return;
        }
        // Fault injection: the installed plan draws this packet's fate on
        // the channel, possibly mutating it (corruption/truncation),
        // destroying it, delaying it, or materializing extra clones.
        let mut extra_delay = SimTime::ZERO;
        if let Some(plan) = &mut self.fault_plan {
            let outcome = plan.apply(node, to, &mut packet);
            if outcome.drop {
                self.in_flight -= 1;
                self.stats.on_dropped_fault();
                self.tracer
                    .emit(self.now.as_nanos(), || TraceEvent::PktDropped {
                        node: sat32(node.0),
                        to: sat32(to.0),
                        flow: packet.flow.0,
                        pseq: packet.seq,
                        pkt: packet.id,
                        reason: DropReason::Fault,
                    });
                self.arena.free(packet);
                return;
            }
            extra_delay = outcome.extra_delay;
            for (clone, jitter) in outcome.injected {
                self.in_flight += 1;
                self.stats.on_injected();
                self.tracer
                    .emit(self.now.as_nanos(), || TraceEvent::FaultInjected {
                        node: sat32(node.0),
                        to: sat32(to.0),
                        flow: clone.flow.0,
                        pseq: clone.seq,
                        pkt: clone.id,
                    });
                self.queue.schedule(
                    self.now + ser + params.delay + jitter,
                    EventKind::Arrive {
                        node: to,
                        from: node,
                        packet: self.arena.alloc(clone),
                    },
                );
            }
        }
        self.queue.schedule(
            self.now + ser + params.delay + extra_delay,
            EventKind::Arrive {
                node: to,
                from: node,
                packet,
            },
        );
    }

    /// Runs `f` on the app installed at `node`, then applies the buffered
    /// API actions (sends, timers, completions).
    fn with_app<F: FnOnce(&mut dyn App, &mut HostApi)>(&mut self, node: NodeId, f: F) {
        let Some(mut app) = self.apps[node.0].take() else {
            return;
        };
        // Hosts carry their tenant's scoped registry when one was set; the
        // common (unscoped) case is a pair of Arc bumps either way.
        let registry = self
            .node_scopes
            .get(&node.0)
            .unwrap_or(&self.registry)
            .clone();
        let mut api = HostApi::new(self.now, node, registry, self.tracer.clone());
        f(app.as_mut(), &mut api);
        self.apps[node.0] = Some(app);
        let HostApi {
            outbox,
            timers,
            completed_flows,
            ..
        } = api;
        for (at, token) in timers {
            self.queue.schedule(at, EventKind::AppTimer { node, token });
        }
        for flow in completed_flows {
            self.stats.on_flow_complete(flow, self.now);
        }
        for spec in outbox {
            self.send_from_host(node, spec);
        }
    }

    fn send_from_host(&mut self, node: NodeId, spec: PacketSpec) {
        let Some(next) = self.routes.next_hop(node, spec.dst, spec.flow) else {
            // No route: the send is silently dropped before entering the
            // network (counted so conservation still holds). No packet id
            // was ever assigned, hence the u64::MAX sentinel.
            self.stats.on_sent(spec.flow, self.now);
            self.stats.on_dropped_data_full();
            self.tracer
                .emit(self.now.as_nanos(), || TraceEvent::PktDropped {
                    node: sat32(node.0),
                    to: sat32(node.0),
                    flow: spec.flow.0,
                    pseq: spec.seq,
                    pkt: u64::MAX,
                    reason: DropReason::NoRoute,
                });
            return;
        };
        let packet = self.arena.alloc(Packet {
            id: self.next_pkt_id,
            flow: spec.flow,
            src: node,
            dst: spec.dst,
            size: spec.size,
            priority: spec.priority,
            reliable: spec.reliable,
            trimmed: false,
            ecn: false,
            seq: spec.seq,
            fin: spec.fin,
            sent_at: self.now,
            body: spec.body,
        });
        self.next_pkt_id += 1;
        self.stats.on_sent(packet.flow, self.now);
        self.in_flight += 1;
        self.tracer
            .emit(self.now.as_nanos(), || TraceEvent::PktSent {
                node: sat32(node.0),
                flow: packet.flow.0,
                pseq: packet.seq,
                pkt: packet.id,
                size: packet.size,
            });
        let policy = host_nic_policy();
        self.enqueue_on_port(node, next, packet, &policy);
    }
}

impl core::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("nodes", &self.topo.len())
            .field("in_flight", &self.in_flight)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crosstraffic::BulkSenderApp;
    use crate::switch::FullAction;
    use crate::time::gbps;
    use crate::FlowId;

    fn line_topology(policy: QueuePolicy) -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        let s = t.add_switch(policy);
        t.link(a, s, gbps(10.0), SimTime::from_micros(1));
        t.link(s, b, gbps(10.0), SimTime::from_micros(1));
        (t, a, b)
    }

    #[test]
    fn single_packet_end_to_end_latency() {
        let (t, a, b) = line_topology(QueuePolicy::trim_default());
        let mut sim = Simulator::new(t);
        sim.install_app(a, Box::new(BulkSenderApp::new(b, 1500, 1500, 7)));
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.stats().delivered_packets(), 1);
        assert!(sim.conservation_holds());
        // Latency = 2 × (serialization 1.2 µs + propagation 1 µs) = 4.4 µs.
        let rec = sim.stats().flow(FlowId(7)).unwrap();
        let fct = rec.fct().expect("bulk sender completes");
        assert_eq!(fct, SimTime::from_nanos(4_400));
    }

    #[test]
    fn store_and_forward_pipeline_throughput() {
        let (t, a, b) = line_topology(QueuePolicy::trim_default());
        let mut sim = Simulator::new(t);
        // 100 packets of 1500 B at 10 Gbps: bottleneck serialization is
        // 1.2 µs per packet → last delivery ≈ 100 × 1.2 µs + overheads.
        sim.install_app(a, Box::new(BulkSenderApp::new(b, 150_000, 1500, 1)));
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.stats().delivered_packets(), 100);
        let fct = sim.stats().flow(FlowId(1)).unwrap().fct().unwrap();
        let expect_ns = 100 * 1200 + 1200 + 2000; // pipeline + 1 extra ser + props
        assert!(
            (fct.as_nanos() as i64 - expect_ns).unsigned_abs() < 3000,
            "fct {fct} vs expected ≈{expect_ns}ns"
        );
        assert!(sim.conservation_holds());
    }

    #[test]
    fn incast_with_droptail_loses_packets() {
        // 8 senders × 150 KB into one 10 Gbps egress with a 150 KB buffer:
        // tail drop must occur.
        let mut t = Topology::new();
        let recv = t.add_host();
        let s = t.add_switch(QueuePolicy::droptail_default());
        t.link(recv, s, gbps(10.0), SimTime::from_micros(1));
        let senders: Vec<NodeId> = (0..8)
            .map(|_| {
                let h = t.add_host();
                t.link(h, s, gbps(10.0), SimTime::from_micros(1));
                h
            })
            .collect();
        let mut sim = Simulator::new(t);
        for (i, &h) in senders.iter().enumerate() {
            sim.install_app(
                h,
                Box::new(BulkSenderApp::new(recv, 150_000, 1500, i as u64)),
            );
        }
        sim.run_until(SimTime::from_millis(100));
        assert!(sim.stats().dropped_data_full() > 0, "incast must overflow");
        assert_eq!(sim.stats().trimmed_packets(), 0);
        assert!(sim.conservation_holds());
    }

    #[test]
    fn incast_with_trimming_loses_nothing() {
        let mut t = Topology::new();
        let recv = t.add_host();
        let s = t.add_switch(QueuePolicy::trim_default());
        t.link(recv, s, gbps(10.0), SimTime::from_micros(1));
        let senders: Vec<NodeId> = (0..8)
            .map(|_| {
                let h = t.add_host();
                t.link(h, s, gbps(10.0), SimTime::from_micros(1));
                h
            })
            .collect();
        let mut sim = Simulator::new(t);
        for (i, &h) in senders.iter().enumerate() {
            sim.install_app(
                h,
                Box::new(BulkSenderApp::new(recv, 150_000, 1500, i as u64)),
            );
        }
        sim.run_until(SimTime::from_millis(100));
        // Same offered load as the droptail test, but trimming salvages
        // every overflow: no data-queue drops, some trimmed deliveries.
        assert_eq!(sim.stats().dropped_data_full(), 0);
        assert!(sim.stats().trimmed_packets() > 0);
        assert_eq!(sim.stats().delivered_packets(), sim.stats().sent_packets());
        assert!(sim.stats().trim_fraction() > 0.0);
        assert!(sim.conservation_holds());
        // The sink on the receiver saw the trimmed arrivals.
        let sink: &SinkApp = sim.app_ref(recv).unwrap();
        assert_eq!(sink.trimmed, sim.stats().delivered_trimmed_packets());
    }

    #[test]
    fn random_loss_drops_expected_fraction() {
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        t.link_with(
            a,
            b,
            crate::link::LinkParams::new(gbps(10.0), SimTime::from_micros(1)).with_drop_prob(0.1),
        );
        let mut sim = Simulator::new(t);
        sim.install_app(a, Box::new(BulkSenderApp::new(b, 15_000_000, 1500, 1)));
        sim.run_until(SimTime::from_secs(10));
        let sent = sim.stats().sent_packets() as f64;
        let dropped = sim.stats().dropped_random() as f64;
        assert_eq!(sent, 10_000.0);
        let rate = dropped / sent;
        assert!((rate - 0.1).abs() < 0.02, "drop rate {rate}");
        assert!(sim.conservation_holds());
    }

    #[test]
    fn ecn_marks_are_delivered_and_counted() {
        let mut t = Topology::new();
        let recv = t.add_host();
        let s = t.add_switch(QueuePolicy::ecn_default());
        t.link(recv, s, gbps(1.0), SimTime::from_micros(1));
        let h1 = t.add_host();
        let h2 = t.add_host();
        t.link(h1, s, gbps(10.0), SimTime::from_micros(1));
        t.link(h2, s, gbps(10.0), SimTime::from_micros(1));
        let mut sim = Simulator::new(t);
        sim.install_app(h1, Box::new(BulkSenderApp::new(recv, 75_000, 1500, 1)));
        sim.install_app(h2, Box::new(BulkSenderApp::new(recv, 75_000, 1500, 2)));
        sim.run_until(SimTime::from_millis(100));
        assert!(sim.stats().ecn_marked() > 0, "queue must cross threshold");
        assert!(sim.conservation_holds());
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerApp {
            fired: Vec<u64>,
        }
        impl App for TimerApp {
            fn on_start(&mut self, api: &mut HostApi) {
                api.timer_in(SimTime::from_micros(30), 3);
                api.timer_in(SimTime::from_micros(10), 1);
                api.timer_in(SimTime::from_micros(20), 2);
            }
            fn on_packet(&mut self, _pkt: Packet, _api: &mut HostApi) {}
            fn on_timer(&mut self, token: u64, _api: &mut HostApi) {
                self.fired.push(token);
            }
        }
        let mut t = Topology::new();
        let a = t.add_host();
        let mut sim = Simulator::new(t.clone());
        sim.install_app(a, Box::new(TimerApp { fired: Vec::new() }));
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(sim.app_ref::<TimerApp>(a).unwrap().fired, vec![1, 2, 3]);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let t = Topology::new();
        let mut sim = Simulator::new(t);
        let end = sim.run_until(SimTime::from_millis(5));
        assert_eq!(end, SimTime::from_millis(5));
    }

    #[test]
    fn unreachable_destination_counts_as_drop() {
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host(); // not linked
        let mut sim = Simulator::new(t);
        sim.install_app(a, Box::new(BulkSenderApp::new(b, 1500, 1500, 1)));
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(sim.stats().delivered_packets(), 0);
        assert_eq!(sim.stats().dropped_total(), 1);
        assert!(sim.conservation_holds());
    }

    #[test]
    fn telemetry_snapshot_matches_stats_and_is_idempotent() {
        // Fast ingress, slow egress: the switch queue must overflow and trim.
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        let s = t.add_switch(QueuePolicy {
            data_capacity: 4500,
            prio_capacity: 64_000,
            ecn_threshold: None,
            action: FullAction::Trim { grad_depth: 1 },
        });
        t.link(a, s, gbps(10.0), SimTime::from_micros(1));
        t.link(s, b, gbps(1.0), SimTime::from_micros(1));
        let mut sim = Simulator::new(t);
        sim.install_app(a, Box::new(BulkSenderApp::new(b, 45_000, 1500, 1)));
        sim.run_until(SimTime::from_millis(50));
        assert!(sim.stats().trimmed_packets() > 0, "load must trim");

        let snap = sim.telemetry_snapshot();
        assert_eq!(snap.counter("netsim.sent"), sim.stats().sent_packets());
        assert_eq!(
            snap.counter("netsim.delivered"),
            sim.stats().delivered_packets()
        );
        assert_eq!(
            snap.counter("netsim.trimmed"),
            sim.stats().trimmed_packets()
        );
        // The per-port trim tally aggregates to the fabric-wide counter: only
        // the switch's egress port toward `b` trims.
        let mut trim_sum = 0;
        for (name, _) in snap.iter() {
            if name.starts_with("netsim.port.") && name.ends_with(".trimmed") {
                trim_sum += snap.counter(name);
            }
        }
        assert_eq!(trim_sum, sim.stats().trimmed_packets());
        // Conservation straight off the snapshot (everything drained).
        assert_eq!(
            snap.counter("netsim.sent"),
            snap.counter("netsim.delivered") + snap.counter_sum("netsim.dropped.")
        );
        // Snapshotting twice never double-counts the port export.
        assert_eq!(snap, sim.telemetry_snapshot());
        // JSON export is deterministic.
        assert_eq!(snap.to_json(), sim.telemetry_snapshot().to_json());
    }

    #[test]
    fn fault_loss_is_counted_and_conserved() {
        use crate::fault::{FaultPlan, FaultPolicy};
        let (t, a, b) = line_topology(QueuePolicy::trim_default());
        let mut sim = Simulator::new(t);
        sim.install_fault_plan(FaultPlan::new(21).with_default(FaultPolicy::none().with_loss(0.3)));
        sim.install_app(a, Box::new(BulkSenderApp::new(b, 300_000, 1500, 1)));
        sim.run_until(SimTime::from_millis(50));
        let fstats = sim.fault_stats();
        assert!(fstats.dropped > 0, "30% loss must destroy packets");
        assert_eq!(sim.stats().dropped_fault(), fstats.dropped);
        assert!(sim.stats().delivered_packets() < sim.stats().sent_packets());
        assert!(sim.conservation_holds());
        let snap = sim.telemetry_snapshot();
        assert_eq!(snap.counter("netsim.fault.dropped"), fstats.dropped);
        assert_eq!(
            snap.counter("netsim.sent") + snap.counter("netsim.injected"),
            snap.counter("netsim.delivered") + snap.counter_sum("netsim.dropped.")
        );
        // Snapshotting twice never double-counts the fault export.
        assert_eq!(snap, sim.telemetry_snapshot());
    }

    #[test]
    fn fault_duplication_injects_extra_deliveries() {
        use crate::fault::{FaultPlan, FaultPolicy};
        let (t, a, b) = line_topology(QueuePolicy::trim_default());
        let mut sim = Simulator::new(t);
        // Duplicate only on the host's own uplink so each clone is counted
        // once, not re-duplicated at the switch.
        let s = NodeId(2);
        sim.install_fault_plan(FaultPlan::new(5).with_channel(
            a,
            s,
            FaultPolicy::none().with_duplicate(1.0),
        ));
        sim.install_app(a, Box::new(BulkSenderApp::new(b, 15_000, 1500, 1)));
        sim.run_until(SimTime::from_millis(50));
        let fstats = sim.fault_stats();
        assert_eq!(fstats.duplicated, 10, "every packet must duplicate");
        assert_eq!(sim.stats().injected_packets(), 10);
        assert_eq!(sim.stats().delivered_packets(), 20);
        assert!(sim.conservation_holds());
    }

    #[test]
    fn fault_plan_keeps_runs_deterministic() {
        use crate::fault::{FaultPlan, FaultPolicy};
        let run = || {
            let (t, a, b) = line_topology(QueuePolicy::trim_default());
            let mut sim = Simulator::with_seed(t, 99);
            sim.install_fault_plan(
                FaultPlan::new(13).with_default(
                    FaultPolicy::none()
                        .with_loss_burst(0.05, 1, 3)
                        .with_duplicate(0.1)
                        .with_reorder(0.1, SimTime::from_micros(20))
                        .with_replay(0.05),
                ),
            );
            sim.install_app(a, Box::new(BulkSenderApp::new(b, 300_000, 1500, 1)));
            sim.run_until(SimTime::from_millis(50));
            assert!(sim.conservation_holds());
            sim.telemetry_snapshot().to_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn tracer_records_packet_lifecycle_and_follow_reconstructs_a_trim() {
        // Fast ingress, slow egress: the switch must trim.
        let run = || {
            let mut t = Topology::new();
            let a = t.add_host();
            let b = t.add_host();
            let s = t.add_switch(QueuePolicy {
                data_capacity: 4500,
                prio_capacity: 64_000,
                ecn_threshold: None,
                action: FullAction::Trim { grad_depth: 1 },
            });
            t.link(a, s, gbps(10.0), SimTime::from_micros(1));
            t.link(s, b, gbps(1.0), SimTime::from_micros(1));
            let mut sim = Simulator::with_seed(t, 7);
            sim.set_tracer(trimgrad_trace::Tracer::enabled(1 << 16));
            sim.install_app(a, Box::new(BulkSenderApp::new(b, 45_000, 1500, 0x77)));
            sim.run_until(SimTime::from_millis(50));
            sim.assert_conservation();
            sim.tracer().snapshot()
        };
        let trace = run();
        let count = |kind: &str| {
            trace
                .records
                .iter()
                .filter(|r| r.event.kind_name() == kind)
                .count() as u64
        };
        assert_eq!(count("pkt.sent"), 30);
        assert!(count("pkt.enqueued") > 0);
        assert!(count("pkt.trimmed") > 0, "scenario must trim");
        assert_eq!(count("pkt.delivered"), 30);
        // Sim-time stamps are monotone (the ring preserves emission order).
        assert!(trace.records.windows(2).all(|w| w[0].at <= w[1].at));

        // Follow the first trimmed packet end to end: its life must read
        // sent → … → trimmed → … → delivered-with-trimmed-flag.
        let pseq = trace
            .records
            .iter()
            .find_map(|r| match r.event {
                trimgrad_trace::TraceEvent::PktTrimmed { pseq, .. } => Some(pseq),
                _ => None,
            })
            .expect("a trim event exists");
        let path = trimgrad_trace::query::follow_records(&trace, 0x77, pseq);
        let kinds: Vec<&str> = path.iter().map(|r| r.event.kind_name()).collect();
        assert_eq!(kinds.first(), Some(&"pkt.sent"), "{kinds:?}");
        assert!(kinds.contains(&"pkt.trimmed"), "{kinds:?}");
        assert_eq!(kinds.last(), Some(&"pkt.delivered"), "{kinds:?}");
        let rendered = trimgrad_trace::query::follow(&trace, 0x77, pseq);
        assert!(rendered.contains("trimmed"), "{rendered}");

        // Same seed ⇒ byte-identical trace.
        assert_eq!(trace.to_binary(), run().to_binary());
    }

    #[test]
    fn time_series_samples_on_the_event_clock_and_is_deterministic() {
        let run = || {
            let (t, a, b) = line_topology(QueuePolicy::trim_default());
            let mut sim = Simulator::with_seed(t, 3);
            sim.enable_time_series(SimTime::from_micros(20), 64);
            sim.install_app(a, Box::new(BulkSenderApp::new(b, 150_000, 1500, 1)));
            sim.run_until(SimTime::from_millis(10));
            assert!(sim.conservation_holds());
            sim.time_series().expect("enabled").clone()
        };
        let ts = run();
        assert!(!ts.is_empty(), "sampler must fire during the run");
        // Stamps advance by exactly the interval, starting one interval in.
        let ats: Vec<u64> = ts.points().map(|p| p.at_ns).collect();
        for (i, &at) in ats.iter().enumerate() {
            assert_eq!(at, (i as u64 + 1) * 20_000);
        }
        // Interval deltas of `netsim.delivered` sum to the final counter.
        let delivered: f64 = ts.series("netsim.delivered").iter().map(|p| p.1).sum();
        assert_eq!(delivered as u64, 100);
        assert_eq!(ts.digest(), run().digest());
    }

    #[test]
    fn node_and_flow_scopes_attribute_per_tenant_metrics() {
        // Fast ingress, slow egress so tenant 1's flow trims.
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        let s = t.add_switch(QueuePolicy {
            data_capacity: 4500,
            prio_capacity: 64_000,
            ecn_threshold: None,
            action: FullAction::Trim { grad_depth: 1 },
        });
        t.link(a, s, gbps(10.0), SimTime::from_micros(1));
        t.link(s, b, gbps(1.0), SimTime::from_micros(1));
        let mut sim = Simulator::new(t);
        let flow = FlowId(1 << 32); // tenant key 1
        sim.set_node_scope(b, "tenant.job0");
        sim.set_flow_scope(1, "tenant.job0");
        sim.install_app(a, Box::new(BulkSenderApp::new(b, 45_000, 1500, flow.0)));
        sim.run_until(SimTime::from_millis(50));
        assert!(sim.stats().trimmed_packets() > 0, "load must trim");
        let snap = sim.registry().snapshot();
        assert_eq!(
            snap.counter("tenant.job0.netsim.trimmed"),
            sim.stats().trimmed_packets()
        );
        assert!(snap.counter("tenant.job0.netsim.trim_bytes") > 0);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let run = || {
            let (t, a, b) = line_topology(QueuePolicy {
                data_capacity: 4500,
                prio_capacity: 1000,
                ecn_threshold: None,
                action: FullAction::Trim { grad_depth: 1 },
            });
            let mut sim = Simulator::with_seed(t, 99);
            sim.install_app(a, Box::new(BulkSenderApp::new(b, 45_000, 1500, 1)));
            sim.run_until(SimTime::from_millis(50));
            (
                sim.stats().delivered_packets(),
                sim.stats().trimmed_packets(),
                sim.stats().flow(FlowId(1)).unwrap().fct(),
            )
        };
        assert_eq!(run(), run());
    }
}
