//! Macro-benchmark: event throughput of the discrete-event simulator under
//! an 8-to-1 incast at a trimming switch, a datacenter-scale fat-tree sweep
//! (64 → 4096 incast hosts), plus a micro-benchmark of the [`EventQueue`]
//! itself under a chaotic push/pop mix.
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
//! with); `--assert-sampling-overhead <pct>` turns the instrumentation cost
//! into a CI gate.
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

/// A seeded chaos mix over the event queue: bursts of schedules at random
/// times interleaved with pops, ending with a full drain. This is the access
/// pattern the simulator's hot loop produces (queue depth oscillates instead
/// of growing monotonically).
fn event_queue_chaos(ops: usize, seed: u64) -> u64 {
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut q = EventQueue::new();
    for i in 0..ops {
        // ~60% schedule, ~40% pop: the queue stays non-trivially full.
        if rng.next_u64() % 5 < 3 {
            let at = SimTime(rng.next_u64() % 1_000_000);
            q.schedule(
                at,
                EventKind::AppTimer {
                    node: NodeId(i % 64),
                    token: i as u64,
                },
            );
        } else {
            let _ = q.pop();
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
    g.bench("chaos_push_pop_10k", || event_queue_chaos(ops, 0xE7E7));
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
/// Returns the sampling overhead in percent (negative = sampled faster,
/// i.e. noise).
fn bench_sampling_overhead(opts: &BenchOpts, group: &str, records: &mut Vec<BenchRecord>) -> f64 {
    let (topo, routes, sched) = fat_tree_scale_case(26, 4096);
    let mut g = Group::new(group);
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
    let rec = g.finish();
    let best = |suffix: &str| {
        rec.iter()
            .find(|r| r.label.ends_with(suffix))
            .map(|r| r.best_ns)
            .unwrap_or(f64::NAN)
    };
    let pct = (best("_sampled") - best("_unsampled")) / best("_unsampled") * 100.0;
    records.extend(rec);
    pct
}

fn main() {
    let opts = BenchOpts::from_args();
    let mut records = Vec::new();
    bench_event_queue(&opts, &mut records);
    bench_incast(&opts, &mut records);
    bench_scale(&opts, &mut records);
    let mut sampling_pct = bench_sampling_overhead(&opts, "sampling", &mut records);
    opts.write("netsim", &records);
    if let Some(limit) = BenchOpts::limit("--assert-sampling-overhead") {
        // Sub-percent deltas are at the mercy of CI noise; re-time before
        // declaring that the sampler regressed the hot loop.
        let mut scratch = Vec::new();
        let mut worst = f64::NEG_INFINITY;
        let mut ok = false;
        for attempt in 1..=3 {
            println!(
                "time-series sampling overhead (4096 hosts), attempt {attempt}: \
                 {sampling_pct:+.2}% (limit +{limit}%)"
            );
            if sampling_pct <= limit {
                ok = true;
                break;
            }
            worst = worst.max(sampling_pct);
            if attempt < 3 {
                sampling_pct = bench_sampling_overhead(&opts, "sampling_retry", &mut scratch);
            }
        }
        if !ok {
            // trimlint: allow(no-panic) -- the whole point of the flag is to fail CI
            panic!("time-series sampling costs {worst:.2}% at 4096 hosts (limit +{limit}%)");
        }
    }
}
