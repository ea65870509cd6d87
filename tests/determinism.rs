//! Determinism regression tests (§5.4 reproducibility): running the same
//! seeded experiment twice must produce *byte-identical* artifacts — the
//! telemetry snapshot JSON, the all-reduced gradients, and the trim
//! transcript. Any hidden nondeterminism (hash-map iteration order,
//! uninitialized state, wall-clock leakage) shows up here as a diff.

use trimgrad::collective::ring_netsim::{run_ring_allreduce, RingNetConfig};
use trimgrad::collective::TrimInjector;
use trimgrad::hadamard::prng::Xoshiro256StarStar;
use trimgrad::netsim::crosstraffic::BulkSenderApp;
use trimgrad::netsim::sim::Simulator;
use trimgrad::netsim::switch::{FullAction, QueuePolicy};
use trimgrad::netsim::time::{gbps, SimTime};
use trimgrad::netsim::topology::Topology;
use trimgrad::netsim::NodeId;
use trimgrad::quant::SchemeId;
use trimgrad::transcript::RecordingInjector;
use trimgrad_telemetry::Snapshot;

fn blobs(w: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..w)
        .map(|_| (0..len).map(|_| rng.next_f32_range(-1.0, 1.0)).collect())
        .collect()
}

/// One full congested ring all-reduce: star fabric with bursty cross-traffic
/// overflowing two downlinks, so the switch genuinely trims ring frames.
/// Returns the per-worker results and the run's telemetry snapshot.
fn congested_ring_run(base_seed: u64) -> (Vec<Vec<f32>>, Snapshot) {
    let w = 4;
    let len = 20_000;
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
    let mut sim = Simulator::with_seed(topo, base_seed);
    for (i, &c) in cross.iter().enumerate() {
        sim.install_app(
            c,
            Box::new(BulkSenderApp::new(
                hosts[i + 1],
                4_000_000,
                1500,
                0x9000 + i as u64,
            )),
        );
    }
    let cfg = RingNetConfig {
        scheme: SchemeId::RhtOneBit,
        row_len: 1024,
        base_seed,
        epoch: 1,
        mtu: 1500,
        hosts,
        blob_len: len,
        flow_base: 0,
    };
    let b = blobs(w, len, base_seed);
    let (out, trim_frac) = run_ring_allreduce(&mut sim, &cfg, b, SimTime::from_secs(60));
    assert!(trim_frac > 0.0, "congestion must trim something");
    (out, sim.telemetry_snapshot())
}

/// Two seeded runs of the congested all-reduce agree bit-for-bit: equal
/// snapshots, byte-identical snapshot JSON, and bit-identical gradients.
#[test]
fn seeded_ring_allreduce_is_byte_reproducible() {
    let (out_a, snap_a) = congested_ring_run(42);
    let (out_b, snap_b) = congested_ring_run(42);

    assert_eq!(snap_a, snap_b, "telemetry snapshots differ between runs");
    assert_eq!(
        snap_a.to_json().into_bytes(),
        snap_b.to_json().into_bytes(),
        "snapshot JSON is not byte-identical"
    );
    assert_eq!(out_a.len(), out_b.len());
    for (wa, wb) in out_a.iter().zip(&out_b) {
        assert_eq!(wa.len(), wb.len());
        for (a, b) in wa.iter().zip(wb) {
            assert_eq!(a.to_bits(), b.to_bits(), "gradient bits differ");
        }
    }
    // The runs were genuinely lossy — this is not vacuous determinism.
    assert!(snap_a.counter("netsim.trimmed") > 0);
    // And the snapshot's own conservation identity holds.
    assert_eq!(
        snap_a.counter("netsim.sent"),
        snap_a.counter("netsim.delivered") + snap_a.counter_sum("netsim.dropped."),
    );
}

/// A different seed must actually change the run's data (guards against the
/// seed being ignored, which would make the test above pass trivially).
/// Counter-level telemetry may legitimately coincide — the traffic *shape*
/// is seed-invariant — but the reduced gradients cannot.
#[test]
fn different_seed_changes_the_result() {
    let (out_a, _) = congested_ring_run(42);
    let (out_b, _) = congested_ring_run(43);
    let bits =
        |out: &[Vec<f32>]| -> Vec<u32> { out.iter().flatten().map(|x| x.to_bits()).collect() };
    assert_ne!(
        bits(&out_a),
        bits(&out_b),
        "base_seed appears to be ignored"
    );
}

/// Two recordings of the same seeded trim process serialize to identical
/// transcript bytes.
#[test]
fn seeded_trim_transcript_is_byte_reproducible() {
    let (scheme, n) = (SchemeId::RhtOneBit, 4096);
    let record = || {
        let mut rec = RecordingInjector::new(TrimInjector::new(0.5, 123));
        let _ = rec.draw_row_fates(scheme, n, 0, 1, 2, &mut Vec::new());
        rec.into_transcript().to_bytes()
    };
    let a = record();
    assert_eq!(a, record(), "transcript bytes differ between runs");
    assert!(!a.is_empty(), "a 50% trim rate must record some fates");

    // A different injector seed draws different fates.
    let mut other = RecordingInjector::new(TrimInjector::new(0.5, 124));
    let _ = other.draw_row_fates(scheme, n, 0, 1, 2, &mut Vec::new());
    assert_ne!(
        a,
        other.into_transcript().to_bytes(),
        "injector seed appears to be ignored"
    );
}
