//! The event loop.
//!
//! [`Simulator`] owns the topology, routing tables, every egress-port queue,
//! the installed apps, and the statistics. Time advances strictly
//! monotonically through the deterministic [`crate::event::EventQueue`];
//! identical inputs (topology, apps, seed) produce bit-identical runs.
//!
//! This file is construction, [`Simulator::run_until`] with its event
//! dispatch, host-app callbacks and the two samplers. What happens to a
//! packet — host send, switch arrival, port enqueue, serializer start — is
//! the `impl Simulator` block in `dataplane.rs`. The data plane is flat:
//! port state lives in a [`DensePortTable`] (O(1) indexing by precomputed
//! [`crate::ports::PortId`], cached link params, a dense queue-depth
//! mirror), each flow's port path is resolved once, packet boxes are
//! recycled through a [`PacketArena`] instead of being allocated once per
//! packet lifetime.

use crate::dataplane::FlowPaths;
use crate::event::{EventKind, EventQueue};
use crate::fault::{FaultPlan, FaultStats};
use crate::host::{App, HostActions, HostApi, SinkApp};
use crate::packet::PacketArena;
use crate::ports::DensePortTable;
use crate::stats::{ConservationViolation, Ledger, Stats};
use crate::switch::Mismatch;
use crate::time::SimTime;
use crate::topology::{NodeKind, Routes, Topology};
use crate::NodeId;
use std::collections::BTreeMap;
use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_telemetry::{Counter, Registry, Snapshot, TimeSeries};
use trimgrad_trace::{PanicDump, Tracer};

/// The discrete-event network simulator.
pub struct Simulator {
    pub(crate) topo: Topology,
    pub(crate) routes: Routes,
    pub(crate) ports: DensePortTable,
    /// Every flow's port path, resolved from `routes` when it first sends.
    pub(crate) paths: FlowPaths,
    pub(crate) arena: PacketArena,
    apps: Vec<Option<Box<dyn App>>>,
    /// The action buffers lent to each app callback's [`HostApi`] and taken
    /// back drained, so they are grown once per run, not once per delivery.
    host_actions: HostActions,
    started: bool,
    pub(crate) queue: EventQueue,
    pub(crate) now: SimTime,
    /// What the fabric counts beside the port, flow and fault records (see
    /// [`crate::stats`]).
    pub(crate) ledger: Ledger,
    pub(crate) next_pkt_id: u64,
    pub(crate) rng: Xoshiro256StarStar,
    queue_sample_interval: Option<SimTime>,
    registry: Registry,
    /// Per-host scoped registries (see [`Simulator::set_node_scope`]); hosts
    /// absent here publish through the unscoped `registry`.
    node_scopes: BTreeMap<usize, Registry>,
    /// Per-tenant trim attribution (see [`Simulator::set_flow_scope`]),
    /// keyed by `flow.0 >> 32`.
    pub(crate) flow_scopes: BTreeMap<u64, TenantTrim>,
    time_series_interval: Option<SimTime>,
    time_series: Option<TimeSeries>,
    pub(crate) fault_plan: Option<FaultPlan>,
    pub(crate) tracer: Tracer,
    /// Writes `tracer`'s ring to `trace_panic.*` if a panic drops this
    /// simulation. A field, not `impl Drop for Simulator`, so the simulator
    /// stays destructurable.
    black_box: PanicDump,
}

/// Per-tenant fabric-side trim counters, bumped as the switch trims packets
/// belonging to that tenant's flows.
pub(crate) struct TenantTrim {
    pub(crate) trimmed: Counter,
    pub(crate) trim_bytes: Counter,
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
        // This simulation's own ring (gated by TRIMGRAD_TRACE): spans count
        // its events only, whatever else the process is simulating.
        let tracer = Tracer::from_env().with_registry(registry.clone());
        let black_box = tracer.dump_on_panic();
        let ports = DensePortTable::new(&topo);
        Self {
            topo,
            routes,
            ports,
            paths: FlowPaths::default(),
            arena: PacketArena::new(),
            apps,
            host_actions: HostActions::default(),
            started: false,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            ledger: Ledger::with_registry(&registry),
            next_pkt_id: 0,
            rng: Xoshiro256StarStar::new(seed),
            queue_sample_interval: None,
            registry,
            node_scopes: BTreeMap::new(),
            flow_scopes: BTreeMap::new(),
            time_series_interval: None,
            time_series: None,
            fault_plan: None,
            tracer,
            black_box,
        }
    }

    /// Replaces the flight recorder (by default this simulation's own
    /// `TRIMGRAD_TRACE`-gated ring, see [`Tracer::from_env`]): with an
    /// enabled [`Tracer`] to record whatever the environment says, or with a
    /// clone of one ring to collect several simulations in one trace. The
    /// handle is re-bound to this simulation's registry.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer.with_registry(self.registry.clone());
        self.black_box = self.tracer.dump_on_panic();
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

    /// Enables periodic sampling of every data queue's depth into the
    /// `netsim.queue.depth_bytes` distribution.
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

    /// Statistics so far: a view whose fabric totals are summed, when read,
    /// over the port, flow and fault records, the arena and the ledger.
    #[must_use]
    pub fn stats(&self) -> Stats<'_> {
        Stats {
            ledger: &self.ledger,
            ports: &self.ports,
            topo: &self.topo,
            faults: self.fault_stats(),
            in_flight: self.in_flight(),
        }
    }

    /// Packets currently inside the network (queued or propagating): the
    /// arena's live boxes, since every such packet holds one.
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.arena.live()
    }

    /// Total events dispatched so far — the numerator of an events/s
    /// simulation-throughput measurement.
    #[must_use]
    pub fn events_fired(&self) -> u64 {
        self.queue.total_fired()
    }

    /// The packet-box recycler. Its `live` count is
    /// [`Simulator::in_flight`], and its high-water mark is the peak number
    /// of simultaneously boxed packets (the scale bench's memory proxy).
    #[must_use]
    pub fn arena(&self) -> &PacketArena {
        &self.arena
    }

    /// The simulation-wide telemetry registry. The fabric's `netsim.*`
    /// counters live here — summed from the fabric's records and forwarded
    /// whenever [`Simulator::run_until`] returns and before each
    /// time-series sample, see [`Stats::publish`] — and every installed
    /// [`App`] sees the same registry through [`HostApi::telemetry`].
    #[must_use]
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A point-in-time [`Snapshot`] of every metric the simulation tracks:
    /// the live `netsim.*` / app counters plus per-port series
    /// (`netsim.port.<from>-><to>.*`, see [`crate::link::channel_label`])
    /// materialized from each egress port's records
    /// ([`crate::switch::PortState::export_to`]).
    ///
    /// Port tallies are exported into a scratch registry on every call, so
    /// repeated snapshots never double-count.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> Snapshot {
        self.stats().publish();
        let scratch = Registry::new();
        for ((from, to), port) in self.ports.ports_touched() {
            let label = crate::link::channel_label(NodeId(from), NodeId(to));
            port.export_to(&scratch, &format!("netsim.port.{label}"));
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

    /// Mutably borrows an installed app, downcast to its concrete type: the
    /// way to move a result out of an app after a run.
    #[must_use]
    pub fn app_mut<T: 'static>(&mut self, node: NodeId) -> Option<&mut T> {
        self.apps[node.0]
            .as_deref_mut()
            .and_then(|a| (a as &mut dyn core::any::Any).downcast_mut::<T>())
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
        self.stats().publish();
        self.now
    }

    /// Whether [`Simulator::check_invariants`] finds nothing: packet
    /// conservation (see [`Stats::conservation_report`]) among them.
    #[must_use]
    pub fn conservation_holds(&self) -> bool {
        self.check_invariants().is_ok()
    }

    /// Recounts what the data plane keeps incrementally: per port, in
    /// `(from, to)` order, byte totals against queue entries, each entry's
    /// size and class against its record (hot/cold coherence) and the dense
    /// mirrors; then global conservation and a monotone clock. Debug builds
    /// run it at every queue-sampling tick.
    ///
    /// # Errors
    ///
    /// The first violated invariant.
    pub fn check_invariants(&self) -> Result<(), ConservationViolation> {
        let violation = |(scope, (what, kept, real)): (String, Mismatch)| ConservationViolation {
            scope,
            lhs: (what.to_string(), kept),
            rhs: ("recounted".to_string(), real),
            detail: "kept incrementally, then recounted".to_string(),
        };
        self.ports.recount().map_err(violation)?;
        self.stats().conservation_report()?;
        let next = self.queue.peek_time().map_or(self.now, |t| t.min(self.now));
        if next != self.now {
            let clock = ("now vs next event", self.now.0, next.0);
            return Err(violation(("clock".to_string(), clock)));
        }
        Ok(())
    }

    /// Panics on the first violated invariant ([`Simulator::check_invariants`],
    /// packet conservation among them), recording it in the trace first, so a
    /// traced run's `trace_panic` black box ends with the
    /// `conservation.violation` mark.
    ///
    /// # Panics
    ///
    /// When any invariant is violated.
    pub fn assert_conservation(&self) {
        if let Err(v) = self.check_invariants() {
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
            EventKind::Arrive { port, packet, hop } => self.handle_arrive(port, packet, hop),
            EventKind::PortFree { port } => {
                // Dense fast path: clear the busy flag and bail on an empty
                // backlog without ever touching the (cold, ~150B) PortState
                // — only the small busy/queued mirrors.
                self.ports.set_busy(port, false);
                if self.ports.has_backlog(port) {
                    self.port_try_start(port);
                }
            }
            EventKind::AppTimer { node, token } => {
                self.with_app(node, |app, api| app.on_timer(token, api));
            }
            EventKind::StatsSample => {
                if cfg!(debug_assertions) {
                    self.assert_conservation();
                }
                // Allocation-free: walk the dense depth mirror instead of
                // collecting a scratch Vec.
                for &d in self.ports.depths() {
                    self.ledger.observe_queue(d);
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
                self.stats().publish();
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

    /// Runs `f` on the app installed at `node`, then applies the buffered
    /// API actions (sends, timers, completions).
    pub(crate) fn with_app<F: FnOnce(&mut dyn App, &mut HostApi)>(&mut self, node: NodeId, f: F) {
        let Some(mut app) = self.apps[node.0].take() else {
            return;
        };
        // Hosts see their tenant's scoped registry when one was set.
        let registry = self.node_scopes.get(&node.0).unwrap_or(&self.registry);
        let actions = core::mem::take(&mut self.host_actions);
        let mut api = HostApi::new(self.now, node, registry, &self.tracer, actions);
        f(app.as_mut(), &mut api);
        self.apps[node.0] = Some(app);
        let mut actions = api.into_actions();
        for (at, token) in actions.timers.drain(..) {
            self.queue.schedule(at, EventKind::AppTimer { node, token });
        }
        for flow in actions.completed_flows.drain(..) {
            self.ledger.on_flow_complete(flow, self.now);
        }
        for spec in actions.outbox.drain(..) {
            self.send_from_host(node, spec);
        }
        self.host_actions = actions;
    }
}

impl core::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("nodes", &self.topo.len())
            .field("in_flight", &self.in_flight())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crosstraffic::BulkSenderApp;
    use crate::packet::Packet;
    use crate::switch::{FullAction, QueuePolicy};
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
        let s = t.add_switch(QueuePolicy {
            ecn_threshold: Some(50_000),
            ..QueuePolicy::droptail_default()
        });
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
    fn destination_outside_the_topology_counts_as_drop() {
        let (t, a, _) = line_topology(QueuePolicy::trim_default());
        let mut sim = Simulator::new(t);
        sim.install_app(a, Box::new(BulkSenderApp::new(NodeId(999), 3000, 1500, 1)));
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(sim.stats().delivered_packets(), 0);
        assert_eq!(sim.stats().dropped_total(), 2);
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
    fn every_sample_sees_a_current_registry() {
        // Fast ingress, slow lossy egress: trims, drops and deliveries all
        // tick. Every packet event here falls on a multiple of 8 ns and the
        // k-th sample (k < 8) on an instant ≡ k mod 8 — so when `run_until`
        // stops at a sample instant nothing else happened at it, and the
        // getters read exactly what that sample saw.
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        let s = t.add_switch(QueuePolicy {
            data_capacity: 4500,
            prio_capacity: 64_000,
            ecn_threshold: Some(2000),
            action: FullAction::Trim { grad_depth: 1 },
        });
        t.link(a, s, gbps(10.0), SimTime::from_micros(1));
        let lossy =
            crate::link::LinkParams::new(gbps(1.0), SimTime::from_micros(1)).with_drop_prob(0.2);
        t.link_with(s, b, lossy);
        let mut sim = Simulator::with_seed(t, 5);
        let interval = SimTime::from_nanos(30_001);
        sim.enable_time_series(interval, 256);
        sim.install_app(a, Box::new(BulkSenderApp::new(b, 600_000, 1500, 1)));
        let mut delivered_so_far = 0.0;
        for k in 1..8u64 {
            sim.run_until(interval * k);
            let delivered = sim.time_series().unwrap().series("netsim.delivered");
            let (at, delta) = delivered[k as usize - 1];
            assert_eq!(at, interval.as_nanos() * k, "sampler must still be running");
            delivered_so_far += delta;
            assert_eq!(
                delivered_so_far as u64,
                sim.stats().delivered_packets(),
                "sample #{k} saw a stale registry"
            );
        }
        assert!(sim.stats().delivered_packets() > 0 && sim.in_flight() > 0);
        sim.run_until(SimTime::from_millis(50));
        let s = sim.stats();
        assert!(s.trimmed_packets() > 0 && s.dropped_random() > 0 && s.ecn_marked() > 0);
        // Snapshotting (which publishes again) changes nothing.
        let before = sim.registry().snapshot();
        let _ = sim.telemetry_snapshot();
        assert_eq!(before, sim.registry().snapshot());
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
