//! Golden harness for the dense port table: replays the k=4 fat-tree
//! incast+storm chaos leg and pins everything the leg observes — the trace
//! hash, the telemetry snapshot, the event count, deliveries, drops, and the
//! conservation verdict — to digests recorded per seed.
//!
//! The digests were recorded at commit `bbe12a7`, the last one where the
//! same leg was also replayed on the historical `BTreeMap`-backed port map
//! and asserted equal to the dense table. Because the trace hash covers
//! every per-packet event (sends, trims, drops, fault injections,
//! deliveries) and the telemetry JSON covers every counter and queue-depth
//! maximum, equality here means nothing observable changed since: PortId
//! assignment order, parallel-link parameter resolution, which ports an
//! export lists, and the incremental conservation counters.
//!
//! A second, single-switch accounting leg covers what the k=4 leg never
//! reaches: an ECN threshold, a lossy link, priority-queue drops of trimmed
//! remnants, no-route drops at a host and at a switch, the queue sampler and
//! the telemetry time series. It pins every fabric accessor mid-run and
//! after the drain, the telemetry JSON at both points, the time-series
//! digest and the event count, so a change to how the fabric counts can
//! move no number anyone reads.
//!
//! `CHAOS_SEED=<seed>` narrows the sweep to one seed for replaying a
//! recorded divergence (a seed outside the table only gets the run-twice
//! check).

use trimgrad::netsim::crosstraffic::BulkSenderApp;
use trimgrad::netsim::fault::{FaultPlan, FaultPolicy};
use trimgrad::netsim::link::LinkParams;
use trimgrad::netsim::sim::Simulator;
use trimgrad::netsim::switch::{FullAction, QueuePolicy};
use trimgrad::netsim::time::{gbps, SimTime};
use trimgrad::netsim::topology::Topology;
use trimgrad::netsim::workload::FlowSchedule;
use trimgrad::netsim::{FlowId, NodeId};
use trimgrad_telemetry::fnv1a;
use trimgrad_trace::{DropReason, TraceEvent, Tracer};

mod common;
use common::chaos_seeds;

fn full_matrix_policy() -> FaultPolicy {
    FaultPolicy::none()
        .with_loss_burst(0.02, 1, 3)
        .with_reorder(0.08, SimTime::from_micros(40))
        .with_duplicate(0.05)
        .with_corrupt(0.05)
        .with_truncate(0.05)
        .with_replay(0.03)
}

/// Everything the chaos leg observes about a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    trace_fnv: u64,
    telemetry_fnv: u64,
    events_fired: u64,
    delivered: u64,
    dropped: u64,
    conservation: bool,
}

/// Per-seed fingerprints recorded at `bbe12a7` (see the module docs).
const GOLDEN: [(u64, Fingerprint); 4] = [
    (
        0x00C0_FFEE,
        Fingerprint {
            trace_fnv: 0x6b15_d2d4_e859_8315,
            telemetry_fnv: 0xa997_21f8_0d0b_4390,
            events_fired: 5277,
            delivered: 528,
            dropped: 98,
            conservation: true,
        },
    ),
    (
        0xDEC0_DE01,
        Fingerprint {
            trace_fnv: 0x8e2c_953b_fe34_f491,
            telemetry_fnv: 0x2690_6ece_8363_0436,
            events_fired: 4945,
            delivered: 480,
            dropped: 117,
            conservation: true,
        },
    ),
    (
        0x0072_13AB,
        Fingerprint {
            trace_fnv: 0xba36_c2e9_69a7_84da,
            telemetry_fnv: 0xd86f_9890_1ee1_d133,
            events_fired: 4920,
            delivered: 483,
            dropped: 111,
            conservation: true,
        },
    ),
    (
        0xFA57_F00D,
        Fingerprint {
            trace_fnv: 0x1fc5_6129_fb58_d905,
            telemetry_fnv: 0x5d55_b5fc_f5e1_6e67,
            events_fired: 5002,
            delivered: 494,
            dropped: 110,
            conservation: true,
        },
    ),
];

fn run_leg(seed: u64) -> Fingerprint {
    let (topo, hosts) = Topology::fat_tree(
        4,
        gbps(10.0),
        gbps(10.0),
        SimTime::from_micros(1),
        QueuePolicy::trim_default(),
    );
    let mut sched = FlowSchedule::incast(&hosts, 12, 30_000, 1500, seed);
    let storm = FlowSchedule::storm(
        &hosts,
        24,
        20_000,
        1500,
        SimTime::from_micros(200),
        seed ^ 0x5707_0000,
    );
    let base = sched.flows.len() as u64;
    sched.flows.extend(storm.flows.into_iter().map(|mut f| {
        f.flow = FlowId(f.flow.0 + base);
        f
    }));
    let mut sim = Simulator::with_seed(topo, seed);
    sim.set_tracer(Tracer::enabled(1 << 18));
    sim.install_fault_plan(FaultPlan::new(seed).with_default(full_matrix_policy()));
    sched.install(&mut sim);
    sim.run_until(SimTime::from_millis(100));
    if let Err(v) = sim.check_invariants() {
        panic!("seed {seed:#x}: {v}");
    }
    Fingerprint {
        trace_fnv: fnv1a(&sim.tracer().snapshot().to_binary()),
        telemetry_fnv: fnv1a(sim.telemetry_snapshot().to_json().as_bytes()),
        events_fired: sim.events_fired(),
        delivered: sim.stats().delivered_packets(),
        dropped: sim.stats().dropped_total(),
        conservation: sim.conservation_holds(),
    }
}

/// The k=4 fat-tree incast+storm chaos leg reproduces the recorded
/// fingerprint for every canonical seed.
#[test]
fn dense_port_table_matches_recorded_fingerprints() {
    for seed in chaos_seeds() {
        let Some(&(_, golden)) = GOLDEN.iter().find(|(s, _)| *s == seed) else {
            continue;
        };
        assert_eq!(
            run_leg(seed),
            golden,
            "seed {seed:#x}: dense port table diverged from its recorded fingerprint"
        );
    }
}

/// Run-twice determinism, so a divergence above can be attributed to a
/// behaviour change rather than nondeterminism (and a `CHAOS_SEED` outside
/// the golden table still checks something).
#[test]
fn dense_port_table_is_run_twice_deterministic() {
    for seed in chaos_seeds() {
        assert_eq!(
            run_leg(seed),
            run_leg(seed),
            "seed {seed:#x}: dense plane nondeterministic"
        );
    }
}

/// Every fabric-wide number a reader can take off a simulator at one
/// instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Accounts {
    telemetry_fnv: u64,
    sent: u64,
    delivered: u64,
    delivered_trimmed: u64,
    trimmed: u64,
    dropped_data_full: u64,
    dropped_prio_full: u64,
    dropped_random: u64,
    dropped_fault: u64,
    dropped_total: u64,
    injected: u64,
    ecn_marked: u64,
    max_queue_bytes: u32,
    in_flight: u64,
    conservation: bool,
}

fn accounts(sim: &Simulator) -> Accounts {
    let s = sim.stats();
    Accounts {
        telemetry_fnv: fnv1a(sim.telemetry_snapshot().to_json().as_bytes()),
        sent: s.sent_packets(),
        delivered: s.delivered_packets(),
        delivered_trimmed: s.delivered_trimmed_packets(),
        trimmed: s.trimmed_packets(),
        dropped_data_full: s.dropped_data_full(),
        dropped_prio_full: s.dropped_prio_full(),
        dropped_random: s.dropped_random(),
        dropped_fault: s.dropped_fault(),
        dropped_total: s.dropped_total(),
        injected: s.injected_packets(),
        ecn_marked: s.ecn_marked(),
        max_queue_bytes: s.max_queue_bytes(),
        in_flight: sim.in_flight(),
        conservation: sim.conservation_holds(),
    }
}

/// What the accounting leg observes: the fabric mid-run and drained, the
/// time series and the event count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ledger {
    mid_run: Accounts,
    drained: Accounts,
    series_digest: u64,
    events_fired: u64,
}

/// The accounting leg's fingerprint, recorded before the fabric totals
/// became sums over the port, flow and fault records.
const ACCOUNTING_GOLDEN: Ledger = Ledger {
    mid_run: Accounts {
        telemetry_fnv: 0x51e8_1b9a_56af_bed8,
        sent: 105,
        delivered: 50,
        delivered_trimmed: 48,
        trimmed: 52,
        dropped_data_full: 5,
        dropped_prio_full: 33,
        dropped_random: 0,
        dropped_fault: 1,
        dropped_total: 39,
        injected: 5,
        ecn_marked: 4,
        max_queue_bytes: 88500,
        in_flight: 21,
        conservation: true,
    },
    drained: Accounts {
        telemetry_fnv: 0x9357_e5a2_e214_4ed7,
        sent: 105,
        delivered: 65,
        delivered_trimmed: 59,
        trimmed: 59,
        dropped_data_full: 5,
        dropped_prio_full: 37,
        dropped_random: 1,
        dropped_fault: 2,
        dropped_total: 45,
        injected: 5,
        ecn_marked: 5,
        max_queue_bytes: 88500,
        in_flight: 0,
        conservation: true,
    },
    series_digest: 0x773f_aee9_cea6_55d8,
    events_fired: 12475,
};

/// Two senders overrun one ECN-marking, trimming switch whose small
/// priority queue overflows with remnants and whose egress link loses
/// packets; a fault plan drops and duplicates on one uplink; one host sends
/// to an isolated host (no route at the host) and one to the switch itself
/// (no route at the switch: the path ends there).
fn run_accounting_leg() -> Ledger {
    let mut t = Topology::new();
    let recv = t.add_host();
    let s = t.add_switch(QueuePolicy {
        data_capacity: 4500,
        prio_capacity: 300,
        ecn_threshold: Some(2000),
        action: FullAction::Trim { grad_depth: 1 },
    });
    let lossy = LinkParams::new(gbps(1.0), SimTime::from_micros(1)).with_drop_prob(0.05);
    t.link_with(s, recv, lossy);
    let senders: Vec<NodeId> = (0..4)
        .map(|_| {
            let h = t.add_host();
            t.link(h, s, gbps(10.0), SimTime::from_micros(1));
            h
        })
        .collect();
    let isolated = t.add_host();
    let mut sim = Simulator::with_seed(t, 0xACC0_0417);
    sim.set_tracer(Tracer::enabled(1 << 16));
    sim.install_fault_plan(FaultPlan::new(0x00FA_17ED).with_channel(
        senders[0],
        s,
        FaultPolicy::none().with_loss(0.05).with_duplicate(0.05),
    ));
    sim.enable_queue_sampling(SimTime::from_nanos(7_001));
    sim.enable_time_series(SimTime::from_nanos(10_007), 1024);
    let dsts = [
        (recv, 90_000),
        (recv, 60_000),
        (isolated, 4_500),
        (s, 3_000),
    ];
    for (flow, (&h, (dst, bytes))) in (1..).zip(senders.iter().zip(dsts)) {
        sim.install_app(h, Box::new(BulkSenderApp::new(dst, bytes, 1500, flow)));
    }
    sim.run_until(SimTime::from_micros(60));
    let mid_run = accounts(&sim);
    sim.run_until(SimTime::from_millis(50));
    let drained = accounts(&sim);
    if let Err(v) = sim.check_invariants() {
        panic!("accounting leg: {v}");
    }
    // The leg must reach what it exists to cover.
    let no_route_at = |node: NodeId| {
        sim.tracer().snapshot().records.iter().any(|r| {
            matches!(r.event, TraceEvent::PktDropped { node: n, reason: DropReason::NoRoute, .. }
                if n as usize == node.0)
        })
    };
    assert!(
        no_route_at(senders[2]) && no_route_at(s),
        "both no-route drops"
    );
    assert!(drained.dropped_prio_full > 0 && drained.dropped_random > 0);
    assert!(drained.ecn_marked > 0 && drained.trimmed > 0);
    assert!(drained.dropped_fault > 0 && drained.injected > 0);
    assert!(mid_run.in_flight > 0);
    Ledger {
        mid_run,
        drained,
        series_digest: sim.time_series().expect("enabled").digest(),
        events_fired: sim.events_fired(),
    }
}

/// The accounting leg reproduces its recorded fingerprint.
#[test]
fn accounting_leg_matches_recorded_fingerprint() {
    assert_eq!(run_accounting_leg(), ACCOUNTING_GOLDEN);
}
