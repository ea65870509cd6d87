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
//! `CHAOS_SEED=<seed>` narrows the sweep to one seed for replaying a
//! recorded divergence (a seed outside the table only gets the run-twice
//! check).

use trimgrad::netsim::fault::{FaultPlan, FaultPolicy};
use trimgrad::netsim::sim::Simulator;
use trimgrad::netsim::switch::QueuePolicy;
use trimgrad::netsim::time::{gbps, SimTime};
use trimgrad::netsim::topology::Topology;
use trimgrad::netsim::workload::FlowSchedule;
use trimgrad::netsim::FlowId;
use trimgrad_telemetry::fnv1a;
use trimgrad_trace::Tracer;

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
