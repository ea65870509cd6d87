//! Regenerates the **§4.4 in-text baseline-tolerance numbers** ("T-baseline"
//! in DESIGN.md) by *measurement* in the discrete-event simulator.
//!
//! The paper: the unmodified-NCCL baseline "can only tolerate 0.15%-0.25%
//! packet drops (retransmissions) without disproportional slowdown, and with
//! only 1%-2% drops, the training round becomes 5x-10x slower or starts
//! reporting timeout errors."
//!
//! Here the reliable retransmitting transport moves a 1.5 MB message across
//! a lossy dumbbell for a sweep of drop rates; measured completion-time
//! inflation is printed next to the two analytic models from
//! `trimgrad-mltrain::timemodel`. The trimming transport runs the same sweep
//! to show it does not care (losses are repaired by NACK without stalling
//! the window).
//!
//! Run: `cargo run --release -p trimgrad-bench --bin baseline_drops`

use trimgrad::mltrain::timemodel::{ReliableSlowdown, TimeModel};
use trimgrad::netsim::link::LinkParams;
use trimgrad::netsim::sim::Simulator;
use trimgrad::netsim::switch::QueuePolicy;
use trimgrad::netsim::time::{gbps, SimTime};
use trimgrad::netsim::topology::Topology;
use trimgrad::netsim::transport::{
    ReliableReceiverApp, ReliableSenderApp, TrimmingReceiverApp, TrimmingSenderApp,
};
use trimgrad::netsim::FlowId;
use trimgrad_bench::print_row;

const MSG_BYTES: u64 = 1_500_000; // 1000 packets

fn topo(drop: f64) -> (Topology, trimgrad::netsim::NodeId, trimgrad::netsim::NodeId) {
    let mut t = Topology::new();
    let a = t.add_host();
    let b = t.add_host();
    let s1 = t.add_switch(QueuePolicy::droptail_default());
    let s2 = t.add_switch(QueuePolicy::droptail_default());
    t.link(a, s1, gbps(10.0), SimTime::from_micros(2));
    t.link(b, s2, gbps(10.0), SimTime::from_micros(2));
    t.link_with(
        s1,
        s2,
        LinkParams::new(gbps(10.0), SimTime::from_micros(5)).with_drop_prob(drop),
    );
    (t, a, b)
}

fn run_reliable(drop: f64, seed: u64) -> (f64, u64) {
    let (t, a, b) = topo(drop);
    let mut sim = Simulator::with_seed(t, seed);
    sim.install_app(a, Box::new(ReliableSenderApp::new(b, MSG_BYTES, 1)));
    sim.install_app(b, Box::new(ReliableReceiverApp::new()));
    sim.run_until(SimTime::from_secs(60));
    let tx: &ReliableSenderApp = sim.app_ref(a).expect("sender installed");
    assert!(tx.is_done(), "reliable transfer incomplete at drop {drop}");
    let fct = sim
        .stats()
        .flow(FlowId(1))
        .and_then(|f| f.fct())
        .expect("flow completed");
    (fct.as_secs_f64(), tx.retransmissions)
}

fn run_trimming(drop: f64, seed: u64) -> f64 {
    let (t, a, b) = topo(drop);
    let mut sim = Simulator::with_seed(t, seed);
    sim.install_app(a, Box::new(TrimmingSenderApp::new(b, MSG_BYTES, 1)));
    sim.install_app(b, Box::new(TrimmingReceiverApp::new(1)));
    sim.run_until(SimTime::from_secs(60));
    let rx: &TrimmingReceiverApp = sim.app_ref(b).expect("receiver installed");
    assert!(rx.is_done(), "trimming transfer incomplete at drop {drop}");
    sim.stats()
        .flow(FlowId(1))
        .and_then(|f| f.fct())
        .expect("flow completed")
        .as_secs_f64()
}

fn main() {
    println!("# S4.4 baseline drop tolerance: measured (netsim) vs modeled");
    let (clean_rel, _) = run_reliable(0.0, 7);
    let clean_trim = run_trimming(0.0, 7);
    println!("# clean FCT: reliable {clean_rel:.6}s, trimming-transport {clean_trim:.6}s");

    let anchored = TimeModel::default();
    let wave = TimeModel {
        slowdown: ReliableSlowdown::WaveModel { rto_s: 500e-6 },
        ..TimeModel::default()
    };
    let n_packets = MSG_BYTES / 1500;

    let widths = [8usize, 12, 10, 12, 12, 12];
    print_row(
        &[
            "drop".into(),
            "measured".into(),
            "retrans".into(),
            "anchored".into(),
            "wave-model".into(),
            "trim-xport".into(),
        ],
        &widths,
    );
    for p in [0.0005, 0.0015, 0.0025, 0.005, 0.01, 0.02, 0.05] {
        // Average a few seeds for the measured column.
        let mut slow = 0.0;
        let mut retrans = 0;
        let seeds = 3u64;
        for s in 0..seeds {
            let (fct, r) = run_reliable(p, 100 + s);
            slow += fct / clean_rel;
            retrans += r;
        }
        slow /= seeds as f64;
        retrans /= seeds;
        let trim_slow = run_trimming(p, 100) / clean_trim;
        print_row(
            &[
                format!("{:.2}%", p * 100.0),
                format!("{slow:.2}x"),
                format!("{retrans}"),
                format!("{:.2}x", anchored.reliable_slowdown(p, n_packets)),
                format!("{:.2}x", wave.reliable_slowdown(p, n_packets)),
                format!("{trim_slow:.2}x"),
            ],
            &widths,
        );
    }
    eprintln!("baseline_drops: done");
}
