//! Flight-recorder determinism: the acceptance bar for PR 5's tracing is
//! that a trace is part of the reproducible transcript — two runs of the
//! same seed must serialize to byte-identical files, at every worker-pool
//! width. CI runs this file under both `TRIMGRAD_THREADS=1` and
//! `TRIMGRAD_THREADS=4`; all trace emission happens in serial sections
//! (the event loop and the post-fan-out merge loops), so the pool width
//! must never leak into the record stream.

use trimgrad::collective::ring_netsim::{run_ring_allreduce, RingNetConfig};
use trimgrad::hadamard::prng::Xoshiro256StarStar;
use trimgrad::netsim::crosstraffic::BulkSenderApp;
use trimgrad::netsim::sim::Simulator;
use trimgrad::netsim::switch::{FullAction, QueuePolicy};
use trimgrad::netsim::time::{gbps, SimTime};
use trimgrad::netsim::topology::Topology;
use trimgrad::netsim::NodeId;
use trimgrad::quant::SchemeId;
use trimgrad_telemetry::fnv1a;
use trimgrad_trace::{Trace, Tracer};

/// The canonical congested ring: the same shape the fig3/queue studies and
/// the CI `trace_smoke` binary run, scaled down to keep the suite fast.
fn canonical_trace() -> Trace {
    let w = 4;
    let len = 8_000;
    let policy = QueuePolicy {
        data_capacity: 10_000,
        prio_capacity: 512_000,
        ecn_threshold: None,
        action: FullAction::Trim { grad_depth: 1 },
    };
    let mut topo = Topology::new();
    let switch = topo.add_switch(policy);
    let hosts: Vec<NodeId> = (0..w)
        .map(|_| {
            let h = topo.add_host();
            topo.link(h, switch, gbps(10.0), SimTime::from_micros(1));
            h
        })
        .collect();
    let cross: Vec<NodeId> = (0..2)
        .map(|_| {
            let h = topo.add_host();
            topo.link(h, switch, gbps(10.0), SimTime::from_micros(1));
            h
        })
        .collect();
    let mut sim = Simulator::new(topo);
    sim.set_tracer(Tracer::enabled(1 << 18));
    for (i, &c) in cross.iter().enumerate() {
        sim.install_app(
            c,
            Box::new(BulkSenderApp::new(
                hosts[i + 1],
                1_500_000,
                1500,
                0x9000 + i as u64,
            )),
        );
    }
    let blobs: Vec<Vec<f32>> = {
        let mut rng = Xoshiro256StarStar::new(2);
        (0..w)
            .map(|_| (0..len).map(|_| rng.next_f32_range(-1.0, 1.0)).collect())
            .collect()
    };
    let cfg = RingNetConfig {
        scheme: SchemeId::RhtOneBit,
        row_len: 1024,
        base_seed: 42,
        epoch: 1,
        mtu: 1500,
        hosts,
        blob_len: len,
        flow_base: 0,
    };
    let (_, trim_frac) = run_ring_allreduce(&mut sim, &cfg, blobs, SimTime::from_secs(60));
    assert!(trim_frac > 0.0, "the canonical run must congest and trim");
    assert!(sim.conservation_holds());
    sim.tracer().snapshot()
}

/// Two runs of the same seed serialize byte-identically — binary and JSONL.
#[test]
fn same_seed_produces_byte_identical_traces() {
    let a = canonical_trace();
    let b = canonical_trace();
    let bin_a = a.to_binary();
    let bin_b = b.to_binary();
    assert!(!a.records.is_empty());
    assert_eq!(bin_a, bin_b, "binary trace diverged between identical runs");
    assert_eq!(
        a.to_jsonl(),
        b.to_jsonl(),
        "JSONL trace diverged between identical runs"
    );
    // And the binary form round-trips losslessly.
    let back = Trace::from_binary(&bin_a).expect("own serialization parses");
    assert_eq!(back.to_binary(), bin_a);
}

/// Golden-trace regression: the canonical run's binary trace hashes to a
/// pinned constant. This is the strongest tripwire in the suite — ANY change
/// to packet scheduling, trim decisions, event taxonomy, or serialization
/// moves it. If you changed one of those on purpose, rerun with
/// `UPDATE_GOLDEN=1 cargo test -q --test trace_determinism -- --nocapture`
/// and paste the printed hash here; the value must be identical at
/// `TRIMGRAD_THREADS=1` and `=4` before it lands.
#[test]
fn canonical_trace_matches_golden_hash() {
    const GOLDEN_FNV1A: u64 = 0x6d7d_0162_c016_275a;
    let h = fnv1a(&canonical_trace().to_binary());
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        println!("golden trace hash: {h:#018x}");
        return;
    }
    assert_eq!(
        h, GOLDEN_FNV1A,
        "canonical trace hash {h:#018x} != pinned {GOLDEN_FNV1A:#018x}; \
         the simulation schedule or trace format changed"
    );
}
