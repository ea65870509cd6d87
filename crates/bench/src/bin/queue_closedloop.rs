//! Runs the **§5.1 closed-loop study** the paper defers to future work
//! ("E-queue" in DESIGN.md): how queueing, cross-traffic intensity, trimming
//! depth, and the resulting trimmed fraction interact.
//!
//! A ring all-reduce of real TrimGrad frames runs across a single-switch
//! fabric while bursty incast cross-traffic loads two of the workers'
//! downlinks. Swept: cross-traffic volume × switch trim depth (1-bit heads
//! vs the multi-level scheme's 9-bit sign+exponent prefix). Reported: the
//! observed trim fraction, all-reduce completion time, gradient NMSE, and
//! queue watermark — the raw material for the paper's "more packets trimmed
//! to 50% vs fewer trimmed to 3%" optimization question.
//!
//! Run: `cargo run --release -p trimgrad-bench --bin queue_closedloop`

use trimgrad::collective::ring_netsim::{run_ring_allreduce, RingNetConfig};
use trimgrad::hadamard::prng::Xoshiro256StarStar;
use trimgrad::netsim::crosstraffic::BulkSenderApp;
use trimgrad::netsim::sim::Simulator;
use trimgrad::netsim::switch::{FullAction, QueuePolicy};
use trimgrad::netsim::time::{gbps, SimTime};
use trimgrad::netsim::topology::Topology;
use trimgrad::netsim::NodeId;
use trimgrad::quant::SchemeId;
use trimgrad_bench::print_row;
use trimgrad_trace::Tracer;

const WORKERS: usize = 4;
const BLOB_LEN: usize = 16_384;

fn run_one(
    cross_bytes: u64,
    grad_depth: u8,
    scheme: SchemeId,
    tracer: &Tracer,
) -> (f64, f64, f64, u32) {
    let policy = QueuePolicy {
        data_capacity: 15_000,
        prio_capacity: 1 << 20,
        ecn_threshold: None,
        action: FullAction::Trim { grad_depth },
    };
    let mut topo = Topology::new();
    let switch = topo.add_switch(policy);
    let hosts: Vec<NodeId> = (0..WORKERS)
        .map(|_| {
            let h = topo.add_host();
            topo.link(h, switch, gbps(10.0), SimTime::from_micros(1));
            h
        })
        .collect();
    // Cross-traffic sources congesting workers 1 and 2.
    let cross: Vec<NodeId> = (0..2)
        .map(|_| {
            let h = topo.add_host();
            topo.link(h, switch, gbps(10.0), SimTime::from_micros(1));
            h
        })
        .collect();
    let mut sim = Simulator::new(topo);
    sim.set_tracer(tracer.clone());
    if cross_bytes > 0 {
        for (i, &c) in cross.iter().enumerate() {
            sim.install_app(
                c,
                Box::new(BulkSenderApp::new(
                    hosts[i + 1],
                    cross_bytes,
                    1500,
                    0x9900 + i as u64,
                )),
            );
        }
    }
    let mut rng = Xoshiro256StarStar::new(5);
    let blobs: Vec<Vec<f32>> = (0..WORKERS)
        .map(|_| {
            (0..BLOB_LEN)
                .map(|_| rng.next_f32_range(-1.0, 1.0))
                .collect()
        })
        .collect();
    let expected: Vec<f32> = (0..BLOB_LEN)
        .map(|j| blobs.iter().map(|b| b[j]).sum())
        .collect();
    let cfg = RingNetConfig {
        scheme,
        row_len: 1024,
        base_seed: 11,
        epoch: 0,
        mtu: 1500,
        hosts,
        blob_len: BLOB_LEN,
        flow_base: 0,
    };
    let t0 = sim.now();
    let (out, trim_frac) = run_ring_allreduce(&mut sim, &cfg, blobs, SimTime::from_secs(120));
    let elapsed = sim
        .stats()
        .max_fct()
        .map_or((sim.now().since(t0)).as_secs_f64(), |f| f.as_secs_f64());
    let nmse = out
        .iter()
        .map(|w| trimgrad::quant::error::nmse(w, &expected))
        .fold(0.0f64, f64::max);
    (trim_frac, elapsed, nmse, sim.stats().max_queue_bytes())
}

fn main() {
    println!("# S5.1 closed-loop queueing study: ring all-reduce of real frames");
    println!("# under incast cross-traffic, for two switch trim depths");
    let widths = [12usize, 10, 10, 12, 10, 12];
    // One TRIMGRAD_TRACE-gated ring for the whole sweep: every cell records
    // into it, and its tail annotates the run below.
    let tracer = Tracer::from_env();
    print_row(
        &[
            "cross(B)".into(),
            "scheme".into(),
            "depth".into(),
            "trim-frac".into(),
            "fct(ms)".into(),
            "nmse".into(),
        ],
        &widths,
    );
    // Burst sizes chosen so the congestion episode covers a growing fraction
    // of the all-reduce: 0 (clean) through bursts that outlast it entirely.
    for &cross in &[0u64, 30_000, 60_000, 120_000, 500_000] {
        for (scheme, depth) in [
            (SchemeId::RhtOneBit, 1u8),
            (SchemeId::MultiLevelRht, 1),
            (SchemeId::MultiLevelRht, 2),
        ] {
            let (trim_frac, fct, nmse, _wm) = run_one(cross, depth, scheme, &tracer);
            print_row(
                &[
                    format!("{cross}"),
                    scheme.name().into(),
                    format!("{depth}"),
                    format!("{:.3}", trim_frac),
                    format!("{:.3}", fct * 1e3),
                    format!("{nmse:.4}"),
                ],
                &widths,
            );
        }
    }
    println!("# depth 1 = trim to 1-bit heads (~3% of payload);");
    println!("# depth 2 (rht-ml) = trim to sign+exponent (~28%), the paper's 'trim to 25%'.");
    match tracer.dump(std::path::Path::new("results"), "queue_closedloop_trace") {
        Ok(Some((bin, _))) => eprintln!("queue_closedloop: trace written to {}", bin.display()),
        Ok(None) => {}
        Err(e) => eprintln!("queue_closedloop: trace dump failed: {e}"),
    }
    eprintln!("queue_closedloop: done");
}
