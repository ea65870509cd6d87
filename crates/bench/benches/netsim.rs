//! Macro-benchmark: event throughput of the discrete-event simulator under
//! an 8-to-1 incast at a trimming switch, a datacenter-scale fat-tree sweep
//! (64 → 4096 incast hosts), plus a micro-benchmark of the [`EventQueue`]
//! itself on the forward-only schedule a simulation produces.
//!
//! `crates/netsim/tests/event_queue_oracle.rs` pins the queue's ordering
//! semantics and `tests/port_map_differential.rs` the data plane's observable
//! behaviour; this bench (recorded to `BENCH_netsim.json` by CI's bench smoke
//! job) records their cost. Regressions are gated end to end by
//! `benchmark/run.sh` (`round_ms` on `netsim_storm`), parent against change.
//! The `arena_high_water_4096_hosts` record is not a timing — it carries
//! the peak live boxed-packet count, a proxy for peak data-plane memory.
//!
//! The `sampling` group re-times the 4096-host storm with the telemetry
//! time-series sampler enabled (the configuration the fleet scenario runs
//! with), so the instrumentation cost is on record beside the bare run.
//!
//! [`EventQueue`]: trimgrad::netsim::event::EventQueue

use trimgrad::hadamard::prng::Xoshiro256StarStar;
use trimgrad::netsim::crosstraffic::install_incast;
use trimgrad::netsim::event::{EventKind, EventQueue};
use trimgrad::netsim::sim::Simulator;
use trimgrad::netsim::switch::QueuePolicy;
use trimgrad::netsim::time::{gbps, SimTime};
use trimgrad::netsim::topology::{Routes, Topology};
use trimgrad::netsim::workload::FlowSchedule;
use trimgrad::netsim::NodeId;
use trimgrad_bench::microbench::{BenchOpts, BenchRecord, Group, Throughput};

fn run_incast(policy: QueuePolicy) -> u64 {
    let mut topo = Topology::new();
    let recv = topo.add_host();
    let sw = topo.add_switch(policy);
    topo.link(recv, sw, gbps(10.0), SimTime::from_micros(1));
    let senders: Vec<NodeId> = (0..8)
        .map(|_| {
            let h = topo.add_host();
            topo.link(h, sw, gbps(10.0), SimTime::from_micros(1));
            h
        })
        .collect();
    let mut sim = Simulator::new(topo);
    install_incast(&mut sim, &senders, recv, 150_000, 1500, 0);
    sim.run_until(SimTime::from_secs(1));
    sim.stats().delivered_packets() + sim.stats().dropped_total()
}

fn timer(token: u64) -> EventKind {
    EventKind::AppTimer {
        node: NodeId((token % 64) as usize),
        token,
    }
}

/// The schedule a simulation produces: a few seed events, then every pop
/// schedules one or two events 12 ns to 2.2 µs after the popped time (a
/// serialization or a propagation ahead) — never behind the clock — until
/// `ops` operations are spent; ends with a full drain.
fn event_queue_forward(ops: usize, seed: u64) -> u64 {
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut q = EventQueue::new();
    let mut spent = 0;
    while spent < 16 {
        q.schedule(SimTime(rng.next_u64() % 1_000), timer(spent as u64));
        spent += 1;
    }
    while spent < ops {
        let Some(event) = q.pop() else { break };
        spent += 1;
        for _ in 0..1 + rng.next_u64() % 2 {
            let ahead = 12 + rng.next_u64() % 2_189;
            q.schedule(SimTime(event.at.0 + ahead), timer(spent as u64));
            spent += 1;
        }
    }
    while q.pop().is_some() {}
    q.total_fired()
}

fn bench_event_queue(opts: &BenchOpts, records: &mut Vec<BenchRecord>) {
    let ops = 10_000;
    let mut g = Group::new("event_queue");
    opts.configure(&mut g);
    g.throughput(Throughput::Elements(ops as u64));
    g.bench("forward_push_pop_10k", || event_queue_forward(ops, 0xF0F0));
    records.extend(g.finish());
}

fn bench_incast(opts: &BenchOpts, records: &mut Vec<BenchRecord>) {
    let mut g = Group::new("netsim_incast_8to1");
    opts.configure(&mut g);
    // 800 packets, each traversing 2 hops → ~3200 port events.
    g.throughput(Throughput::Elements(800));
    g.quick();
    g.bench("trim_switch", || run_incast(QueuePolicy::trim_default()));
    g.bench("droptail_switch", || {
        run_incast(QueuePolicy::droptail_default())
    });
    records.extend(g.finish());
}

/// One seeded incast storm on a prebuilt fat-tree: `fan_in` senders, two
/// MTU-sized packets each, all released at t = 0, optionally with the
/// telemetry time-series sampler enabled (every 50 µs of sim time the
/// simulator snapshots its registry into the bounded ring — the instrumented
/// configuration the fleet scenario runs with). Returns (events dispatched,
/// arena high-water mark) — both deterministic for a given
/// topology/schedule/seed.
fn run_fat_tree_incast(
    topo: &Topology,
    routes: &Routes,
    sched: &FlowSchedule,
    sampled: bool,
) -> (u64, u64) {
    let mut sim = Simulator::with_routes(topo.clone(), routes.clone(), 0xA5);
    if sampled {
        sim.enable_time_series(SimTime::from_micros(50), 256);
    }
    sched.install(&mut sim);
    sim.run_until(SimTime::from_secs(1));
    (sim.events_fired(), sim.arena().high_water())
}

fn fat_tree_scale_case(k: usize, fan_in: usize) -> (Topology, Routes, FlowSchedule) {
    let (topo, hosts) = Topology::fat_tree(
        k,
        gbps(100.0),
        gbps(100.0),
        SimTime::from_micros(1),
        QueuePolicy::trim_default(),
    );
    let sched = FlowSchedule::incast(&hosts, fan_in, 3_000, 1_500, 0xA5);
    let routes = topo.build_routes_towards(&sched.destinations());
    (topo, routes, sched)
}

/// Events/s at datacenter scale: k-ary fat-trees sized so 64, 512, and 4096
/// hosts storm one receiver. Topology and routes (built only toward the
/// workload's destinations — the full table is quadratic in fabric size) are
/// constructed once outside the timed loop; each iteration clones them,
/// replays the schedule, and counts dispatched events. Also records the
/// 4096-host arena high-water mark (live boxed packets, a peak-memory
/// proxy).
fn bench_scale(opts: &BenchOpts, records: &mut Vec<BenchRecord>) {
    let mut g = Group::new("scale");
    opts.configure(&mut g);
    g.quick();
    let mut high_water_4096 = 0u64;
    for (k, fan_in) in [(8usize, 64usize), (16, 512), (26, 4096)] {
        let (topo, routes, sched) = fat_tree_scale_case(k, fan_in);
        // A pilot run pins the deterministic event count for the rate (and
        // the arena's high-water mark, identical across repetitions).
        let (events, high_water) = run_fat_tree_incast(&topo, &routes, &sched, false);
        if fan_in == 4096 {
            high_water_4096 = high_water;
        }
        g.throughput(Throughput::Elements(events));
        g.bench(&format!("events_per_s_{fan_in}_hosts"), || {
            run_fat_tree_incast(&topo, &routes, &sched, false)
        });
    }
    records.extend(g.finish());
    // Not a timing: the record carries the peak count of live boxed packets
    // at 4096 hosts, the arena's proxy for peak data-plane memory.
    records.push(BenchRecord {
        group: "scale".into(),
        label: "arena_high_water_4096_hosts".into(),
        best_ns: high_water_4096 as f64,
        mean_ns: high_water_4096 as f64,
        rate: Some((high_water_4096 as f64, "live packets peak")),
    });
}

/// Times the 4096-host storm with and without time-series sampling.
fn bench_sampling(opts: &BenchOpts, records: &mut Vec<BenchRecord>) {
    let (topo, routes, sched) = fat_tree_scale_case(26, 4096);
    let mut g = Group::new("sampling");
    opts.configure(&mut g);
    g.quick();
    let (events, _) = run_fat_tree_incast(&topo, &routes, &sched, false);
    g.throughput(Throughput::Elements(events));
    g.bench("events_per_s_4096_hosts_unsampled", || {
        run_fat_tree_incast(&topo, &routes, &sched, false)
    });
    g.bench("events_per_s_4096_hosts_sampled", || {
        run_fat_tree_incast(&topo, &routes, &sched, true)
    });
    records.extend(g.finish());
}

fn main() {
    let opts = BenchOpts::from_args();
    let mut records = Vec::new();
    bench_event_queue(&opts, &mut records);
    bench_incast(&opts, &mut records);
    bench_scale(&opts, &mut records);
    bench_sampling(&opts, &mut records);
    opts.write("netsim", &records);
}
