//! Fleet scenario: N concurrent tenant training jobs on one shared fat-tree.
//!
//! Each tenant runs repeated ring all-reduce rounds (its "training job")
//! with its own encoding scheme, blob size, and seeded arrival/departure
//! schedule, over a k=8 fat-tree shared with latency-sensitive on/off
//! cross-traffic. Every tenant publishes its collective metrics under a
//! `tenant.jobN` registry scope ([`Simulator::set_node_scope`]) and its
//! fabric trim attribution under the same scope
//! ([`Simulator::set_flow_scope`]); the simulator samples the registry into
//! a bounded [`trimgrad_telemetry::TimeSeries`] ring on its own event
//! clock, so the whole run — per-tenant series, SLO report, rendered
//! dashboard — is bit-identical for a fixed seed at any thread width.
//!
//! [`run_fleet`] is the library entry point shared by the `fleet` binary
//! and the determinism test.

use trimgrad::collective::ring_netsim::{RingNetConfig, RingWorkerApp};
use trimgrad::hadamard::prng::Xoshiro256StarStar;
use trimgrad::netsim::crosstraffic::{BulkSenderApp, OnOffApp};
use trimgrad::netsim::host::{App, HostApi};
use trimgrad::netsim::packet::Packet;
use trimgrad::netsim::sim::Simulator;
use trimgrad::netsim::switch::{FullAction, QueuePolicy};
use trimgrad::netsim::time::{gbps, SimTime};
use trimgrad::netsim::topology::Topology;
use trimgrad::netsim::NodeId;
use trimgrad::quant::SchemeId;
use trimgrad_slo::{evaluate, FleetReport, SloSpec, TenantSpec};
use trimgrad_telemetry::fnv1a;

/// Ranks per tenant job.
pub const RANKS: usize = 4;

/// Fleet scenario parameters.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Concurrent tenant jobs (≥ 2; the dashboard acceptance runs ≥ 4).
    pub tenants: usize,
    /// Seed for arrival/departure churn and cross-traffic phases.
    pub seed: u64,
    /// Simulated horizon.
    pub horizon: SimTime,
    /// Time-series sampling interval.
    pub sample_interval: SimTime,
    /// Time-series ring capacity.
    pub ring_capacity: usize,
    /// Gap between consecutive training rounds of one tenant.
    pub round_period: SimTime,
    /// Trace ring capacity (0 disables the flight recorder).
    pub trace_capacity: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            tenants: 4,
            seed: 0xF1EE7,
            horizon: SimTime::from_millis(40),
            sample_interval: SimTime::from_micros(500),
            ring_capacity: 128,
            round_period: SimTime::from_millis(4),
            trace_capacity: 0,
        }
    }
}

/// Everything one fleet run produces.
pub struct FleetOutcome {
    /// The simulator after the run (stats, tracer, apps still installed).
    pub sim: Simulator,
    /// Tenant descriptors handed to the SLO evaluator.
    pub tenants: Vec<TenantSpec>,
    /// The SLO spec the fleet was judged against.
    pub slo: SloSpec,
    /// The evaluated report.
    pub report: FleetReport,
    /// Rendered dashboard page.
    pub dashboard_html: String,
    /// Deterministic JSON of the sampled time-series ring.
    pub series_json: String,
    /// FNV-1a digest of [`FleetOutcome::series_json`].
    pub series_digest: u64,
    /// Deterministic JSON of the final registry snapshot (per-tenant scopes
    /// included).
    pub snapshot_json: String,
    /// FNV-1a digest of [`FleetOutcome::snapshot_json`].
    pub snapshot_digest: u64,
    /// Training rounds completed, per tenant.
    pub rounds_completed: Vec<u64>,
    /// Rounds cut short because the next round's timer arrived first.
    pub rounds_stalled: Vec<u64>,
}

/// The encoding each tenant index uses (cycled when there are more tenants
/// than entries): scheme, row length, blob length.
const TENANT_ENCODINGS: [(SchemeId, usize, usize); 4] = [
    (SchemeId::RhtOneBit, 1024, 16_000),
    (SchemeId::SignMagnitude, 512, 12_000),
    (SchemeId::Stochastic, 1024, 20_000),
    (SchemeId::SubtractiveDither, 256, 8_000),
];

/// Wraps a tenant rank: delays arrival, restarts a fresh
/// [`RingWorkerApp`] every `round_period` (the training loop), and stops
/// scheduling after the tenant's departure round — seeded churn without any
/// change to the worker itself.
struct TenantRankApp {
    cfg: RingNetConfig,
    rank: usize,
    blob: Vec<f32>,
    arrive: SimTime,
    period: SimTime,
    rounds: u64,
    inner: Option<RingWorkerApp>,
    completed: u64,
    stalled: u64,
}

impl TenantRankApp {
    fn new(
        cfg: RingNetConfig,
        rank: usize,
        blob: Vec<f32>,
        arrive: SimTime,
        period: SimTime,
        rounds: u64,
    ) -> Self {
        Self {
            cfg,
            rank,
            blob,
            arrive,
            period,
            rounds,
            inner: None,
            completed: 0,
            stalled: 0,
        }
    }

    /// Rounds this rank finished (the in-flight round counted once done).
    fn rounds_completed(&self) -> u64 {
        self.completed + u64::from(self.inner.as_ref().is_some_and(RingWorkerApp::is_done))
    }

    /// Retires the current round's worker, keeping its reduced blob as the
    /// next round's input (the training loop's state carry).
    fn retire_inner(&mut self) {
        if let Some(prev) = self.inner.take() {
            if prev.is_done() {
                self.completed += 1;
                self.blob = prev.blob().to_vec();
            } else {
                self.stalled += 1;
            }
        }
    }
}

impl App for TenantRankApp {
    fn on_start(&mut self, api: &mut HostApi) {
        // The whole arrival/departure schedule is fixed up front: round k
        // of this tenant starts at `arrive + k·period` on every rank, so
        // peers swap epochs at the same instant and churn stays a pure
        // function of the seed.
        for k in 0..self.rounds {
            let at = self.arrive.as_nanos() + k * self.period.as_nanos();
            api.timer_in(SimTime::from_nanos(at), k);
        }
    }

    fn on_packet(&mut self, pkt: Packet, api: &mut HostApi) {
        // Packets racing an epoch swap hit the new worker and are rejected
        // by its epoch check — counted, never silently lost.
        if let Some(inner) = &mut self.inner {
            inner.on_packet(pkt, api);
        }
    }

    fn on_timer(&mut self, token: u64, api: &mut HostApi) {
        self.retire_inner();
        let mut cfg = self.cfg.clone();
        cfg.epoch = u32::try_from(token + 1).unwrap_or(u32::MAX);
        let mut worker = RingWorkerApp::new(cfg, self.rank, self.blob.clone());
        worker.on_start(api);
        self.inner = Some(worker);
    }
}

/// Builds and runs the fleet scenario, evaluates the SLOs, and renders the
/// dashboard. Pure function of `cfg` — see the module docs.
///
/// # Panics
///
/// Panics if `cfg.tenants < 2`, the topology cannot host the fleet, or
/// packet conservation fails.
#[must_use]
pub fn run_fleet(cfg: &FleetConfig) -> FleetOutcome {
    assert!(cfg.tenants >= 2, "a fleet needs at least two tenants");
    let policy = QueuePolicy {
        data_capacity: 12_000,
        prio_capacity: 512_000,
        ecn_threshold: None,
        action: FullAction::Trim { grad_depth: 1 },
    };
    let (topo, hosts) =
        Topology::fat_tree(8, gbps(10.0), gbps(40.0), SimTime::from_micros(1), policy);
    assert!(
        cfg.tenants * RANKS <= hosts.len() / 2,
        "fleet of {} tenants does not fit {} hosts",
        cfg.tenants,
        hosts.len()
    );
    let mut sim = Simulator::with_seed(topo, cfg.seed);
    if cfg.trace_capacity > 0 {
        sim.set_tracer(trimgrad_trace::Tracer::enabled(cfg.trace_capacity));
    }
    sim.enable_time_series(cfg.sample_interval, cfg.ring_capacity);

    let mut rng = Xoshiro256StarStar::new(cfg.seed);
    // Spread tenant ranks uniformly across pods so ring traffic crosses the
    // fabric instead of staying behind one edge switch.
    let stride = (hosts.len() / (cfg.tenants * RANKS * 2)).max(1);
    let mut tenants = Vec::with_capacity(cfg.tenants);
    let mut job_hosts = Vec::with_capacity(cfg.tenants);
    for t in 0..cfg.tenants {
        let scope = format!("tenant.job{t}");
        let (scheme, row_len, blob_len) = TENANT_ENCODINGS[t % TENANT_ENCODINGS.len()];
        let ring: Vec<NodeId> = (0..RANKS)
            .map(|r| hosts[(t * RANKS + r) * stride])
            .collect();
        let flow_base = ((t as u64) + 1) << 32;
        for &h in &ring {
            sim.set_node_scope(h, &scope);
        }
        sim.set_flow_scope(flow_base >> 32, &scope);
        // Seeded churn: staggered arrivals in the first quarter of the
        // horizon, departures from per-tenant round budgets.
        let arrive = SimTime::from_nanos(rng.next_u64() % (cfg.horizon.as_nanos() / 4 + 1));
        let span = cfg.horizon.as_nanos().saturating_sub(arrive.as_nanos());
        let max_rounds = (span / cfg.round_period.as_nanos().max(1)).max(1);
        let rounds = 1 + rng.next_u64() % max_rounds;
        let ring_cfg = RingNetConfig {
            scheme,
            row_len,
            base_seed: cfg.seed ^ (t as u64),
            epoch: 1,
            mtu: 1500,
            hosts: ring.clone(),
            blob_len,
            flow_base,
        };
        for (rank, &h) in ring.iter().enumerate() {
            let blob: Vec<f32> = (0..blob_len)
                .map(|_| rng.next_f32_range(-1.0, 1.0))
                .collect();
            sim.install_app(
                h,
                Box::new(TenantRankApp::new(
                    ring_cfg.clone(),
                    rank,
                    blob,
                    arrive,
                    cfg.round_period,
                    rounds,
                )),
            );
        }
        tenants.push(TenantSpec {
            scope,
            flow_base,
            label: format!("{scheme:?} blob={blob_len} rounds={rounds}"),
        });
        job_hosts.push(ring);
    }

    // Cross-traffic from the otherwise-idle hosts. Bulk incasts share each
    // tenant's rank-1 downlink (that contention is what makes the shallow
    // data queues trim), and seeded on/off bursts play the latency-sensitive
    // tenant whose priority-queued RPCs cut through.
    let free: Vec<NodeId> = hosts
        .iter()
        .copied()
        .filter(|h| !job_hosts.iter().any(|ring| ring.contains(h)))
        .collect();
    let mut next_free = 0;
    // Two bulk flows incast onto each ring's second member. Sized so each
    // flow alone would keep a 10 Gbps host link busy for the whole horizon
    // (1.25 bytes/ns): the downlink stays 2.5x oversubscribed end to end,
    // so every round — including late arrivals after churn — sees fabric
    // trimming, not just the ones that overlap an initial burst.
    let bulk_bytes = (cfg.horizon.as_nanos() * 5) / 4;
    for ring in &job_hosts {
        for burst in 0..2 {
            let src = free[next_free % free.len()];
            next_free += 1;
            sim.install_app(
                src,
                Box::new(BulkSenderApp::new(
                    ring[1],
                    bulk_bytes,
                    1_500,
                    0x0B00_0000 + next_free as u64 * 16 + burst,
                )),
            );
        }
    }
    let sources = ((free.len() - next_free) / 2).min(8);
    for i in 0..sources {
        let src = free[next_free + i];
        let dst = free[free.len() - 1 - i];
        sim.install_app(
            src,
            Box::new(OnOffApp::new(
                dst,
                64_000,
                1_500,
                SimTime::from_micros(300),
                cfg.horizon,
                0x0C00_0000 + ((i as u64) << 8),
                cfg.seed ^ 0x9E37_79B9 ^ i as u64,
            )),
        );
    }

    sim.run_until(cfg.horizon);
    assert!(sim.conservation_holds(), "packet conservation violated");

    let mut rounds_completed = vec![0u64; cfg.tenants];
    let mut rounds_stalled = vec![0u64; cfg.tenants];
    for (t, ring) in job_hosts.iter().enumerate() {
        for &h in ring {
            let app = sim
                .app_ref::<TenantRankApp>(h)
                .expect("tenant rank app installed");
            rounds_completed[t] = rounds_completed[t].max(app.rounds_completed());
            rounds_stalled[t] += app.stalled;
        }
    }

    let series = sim.time_series().expect("time series enabled");
    let series_json = series.to_json();
    let series_digest = series.digest();
    let snapshot_json = sim.registry().snapshot().to_json();
    let snapshot_digest = fnv1a(snapshot_json.as_bytes());

    let slo = SloSpec {
        p99_step_time_ns: 2_000_000,
        min_goodput_bps: 1e6,
        max_trim_fraction: 0.9,
        error_budget: 0.25,
        warn_burn_rate: 0.5,
    };
    let report = evaluate(series, &tenants, &slo);
    let dashboard_html = trimgrad_slo::dashboard::render_dashboard(
        &report,
        &slo,
        &format!(
            "trimgrad fleet — {} tenants, seed {:#x}",
            cfg.tenants, cfg.seed
        ),
    );
    FleetOutcome {
        sim,
        tenants,
        slo,
        report,
        dashboard_html,
        series_json,
        series_digest,
        snapshot_json,
        snapshot_digest,
        rounds_completed,
        rounds_stalled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> FleetConfig {
        FleetConfig {
            tenants: 4,
            horizon: SimTime::from_millis(8),
            round_period: SimTime::from_millis(2),
            sample_interval: SimTime::from_micros(250),
            ..FleetConfig::default()
        }
    }

    #[test]
    fn fleet_produces_per_tenant_series_and_a_valid_dashboard() {
        let out = run_fleet(&quick_cfg());
        assert_eq!(out.tenants.len(), 4);
        // Every tenant completed at least one training round and its
        // step-time series made it into the sampled ring.
        for (t, spec) in out.tenants.iter().enumerate() {
            assert!(out.rounds_completed[t] >= 1, "tenant {t} never finished");
            let series = out
                .sim
                .time_series()
                .unwrap()
                .series(&format!("{}.collective.rank.0.steps_applied", spec.scope));
            assert!(
                series.iter().map(|&(_, v)| v).sum::<f64>() > 0.0,
                "tenant {t} has no sampled step activity"
            );
        }
        trimgrad_slo::dashboard::check_dashboard(&out.dashboard_html, out.tenants.len())
            .expect("dashboard well-formed");
        // The shared switches trimmed somebody, and the per-tenant fabric
        // attribution shows up in the report.
        assert!(
            out.report.tenants.iter().any(|t| t.trim_bytes > 0),
            "no tenant saw fabric trimming"
        );
    }

    #[test]
    fn fleet_is_deterministic_within_a_process() {
        let a = run_fleet(&quick_cfg());
        let b = run_fleet(&quick_cfg());
        assert_eq!(a.series_digest, b.series_digest);
        assert_eq!(a.snapshot_digest, b.snapshot_digest);
        assert_eq!(a.dashboard_html, b.dashboard_html);
    }
}
