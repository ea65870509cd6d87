//! Chaos suite: deterministic fault matrices swept across both transports
//! and the full packetize → trim → reassemble → decode pipeline.
//!
//! Every fault (whole-packet loss bursts, reordering, duplication, payload
//! corruption, header/frame truncation, stale replay) is drawn from the
//! seeded [`FaultPlan`] RNG, so each scenario is byte-reproducible: a
//! failing run is replayed exactly by re-running with the seed printed in
//! the assertion message (or by exporting `CHAOS_SEED=<seed>`).
//!
//! Invariants checked on every seed:
//! * nothing panics;
//! * no wrong-row, wrong-epoch, or truncated payload is ever accepted;
//! * receiver availability only ever grows;
//! * packet counters conserve (`sent + injected == delivered + dropped`),
//!   and every other incrementally kept invariant survives a recount
//!   (`Simulator::check_invariants`);
//! * the run is deterministic — same seed, same telemetry snapshot.

use trimgrad::collective::ring_netsim::{run_ring_allreduce, RingNetConfig};
use trimgrad::hadamard::prng::Xoshiro256StarStar;
use trimgrad::netsim::fault::{FaultPlan, FaultPolicy};
use trimgrad::netsim::host::{App, HostApi};
use trimgrad::netsim::packet::{Packet, PacketBody, PacketSpec};
use trimgrad::netsim::sim::Simulator;
use trimgrad::netsim::switch::QueuePolicy;
use trimgrad::netsim::time::{gbps, SimTime};
use trimgrad::netsim::topology::Topology;
use trimgrad::netsim::transport::{
    ReliableReceiverApp, ReliableSenderApp, TrimmingReceiverApp, TrimmingSenderApp,
};
use trimgrad::netsim::{FlowId, NodeId};
use trimgrad::quant::scheme::PartView;
use trimgrad::quant::SchemeId;
use trimgrad::wire::meta::RowMetaPacket;
use trimgrad::wire::packet::{GradPacket, NetAddrs};
use trimgrad::wire::packetize::{packetize_row, PacketizeConfig};
use trimgrad::wire::reassemble::RowAssembler;
use trimgrad_telemetry::fnv1a;

mod common;
use common::chaos_seeds;

/// Recounts every invariant the simulator keeps incrementally — packet
/// conservation, queue entries against their records, the dense mirrors,
/// the arena — and fails naming the seed and the first one broken.
fn assert_invariants(sim: &Simulator, seed: u64) {
    if let Err(v) = sim.check_invariants() {
        panic!("seed {seed:#x}: {v}");
    }
}

/// Every fault class at once, at rates a transport should survive.
fn full_matrix_policy() -> FaultPolicy {
    FaultPolicy::none()
        .with_loss_burst(0.02, 1, 3)
        .with_reorder(0.08, SimTime::from_micros(40))
        .with_duplicate(0.05)
        .with_corrupt(0.05)
        .with_truncate(0.05)
        .with_replay(0.03)
}

/// One trimming-transport flow across a faulted link. Returns the sim for
/// post-run inspection.
fn trimming_run(seed: u64) -> (Simulator, NodeId) {
    let mut topo = Topology::new();
    let a = topo.add_host();
    let b = topo.add_host();
    topo.link(a, b, gbps(10.0), SimTime::from_micros(5));
    let mut sim = Simulator::with_seed(topo, seed);
    sim.install_fault_plan(FaultPlan::new(seed).with_default(full_matrix_policy()));
    sim.install_app(a, Box::new(TrimmingSenderApp::new(b, 750_000, 1)));
    sim.install_app(b, Box::new(TrimmingReceiverApp::new(1)));
    sim.run_until(SimTime::from_secs(30));
    (sim, a)
}

#[test]
fn trimming_transport_survives_full_fault_matrix() {
    for seed in chaos_seeds() {
        let (sim, sender_node) = trimming_run(seed);
        let sender: &TrimmingSenderApp = sim.app_ref(sender_node).expect("sender installed");
        assert!(
            sender.is_done() || sender.is_failed(),
            "seed {seed:#x}: sender neither done nor terminally failed"
        );
        assert_invariants(&sim, seed);
        // The matrix must actually have fired, and the per-fault tallies
        // must surface unchanged in the telemetry snapshot.
        let fs = sim.fault_stats();
        assert!(fs.total() > 0, "seed {seed:#x}: no fault ever fired");
        assert!(fs.dropped > 0, "seed {seed:#x}: loss bursts never fired");
        let snap = sim.telemetry_snapshot();
        assert_eq!(snap.counter("netsim.fault.dropped"), fs.dropped);
        assert_eq!(snap.counter("netsim.fault.duplicated"), fs.duplicated);
        assert_eq!(snap.counter("netsim.fault.reordered"), fs.reordered);
        assert_eq!(snap.counter("netsim.fault.corrupted"), fs.corrupted);
        assert_eq!(snap.counter("netsim.fault.truncated"), fs.truncated);
        assert_eq!(snap.counter("netsim.fault.replayed"), fs.replayed);
        assert_eq!(snap.counter("netsim.dropped.fault"), fs.dropped);
        assert_eq!(snap.counter("netsim.injected"), fs.injected());
    }
}

#[test]
fn reliable_transport_survives_full_fault_matrix() {
    for seed in chaos_seeds() {
        let mut topo = Topology::new();
        let a = topo.add_host();
        let b = topo.add_host();
        topo.link(a, b, gbps(10.0), SimTime::from_micros(5));
        let mut sim = Simulator::with_seed(topo, seed);
        // Slightly gentler loss than the trimming matrix: go-back-N loses a
        // whole window per event, and the point here is invariants, not FCT.
        let policy = FaultPolicy::none()
            .with_loss_burst(0.01, 1, 2)
            .with_reorder(0.05, SimTime::from_micros(40))
            .with_duplicate(0.03)
            .with_truncate(0.03)
            .with_replay(0.02);
        sim.install_fault_plan(FaultPlan::new(seed).with_default(policy));
        let total_packets = 1000u64;
        sim.install_app(
            a,
            Box::new(ReliableSenderApp::new(b, total_packets * 1500, 1)),
        );
        sim.install_app(b, Box::new(ReliableReceiverApp::new()));
        sim.run_until(SimTime::from_secs(30));
        let st = sim.stats();
        assert!(
            st.flow(FlowId(1)).and_then(|f| f.fct()).is_some(),
            "seed {seed:#x}: reliable flow never completed"
        );
        let recv: &ReliableReceiverApp = sim.app_ref(NodeId(1)).expect("receiver installed");
        // Exactly-once in-order acceptance: every fault-truncated packet was
        // NACKed and retransmitted in full, duplicates and stale replays
        // were re-ACKed without being re-accepted.
        assert_eq!(
            recv.received, total_packets,
            "seed {seed:#x}: wrong number of packets accepted"
        );
        assert!(
            recv.nacked_trimmed > 0,
            "seed {seed:#x}: truncation faults never reached the receiver"
        );
        assert_invariants(&sim, seed);
    }
}

#[test]
fn ring_pipeline_with_nonlossy_faults_matches_clean_run() {
    let w = 3;
    let len = 2000;
    let blobs = |seed: u64| -> Vec<Vec<f32>> {
        let mut rng = Xoshiro256StarStar::new(seed);
        (0..w)
            .map(|_| (0..len).map(|_| rng.next_f32_range(-1.0, 1.0)).collect())
            .collect()
    };
    let topo = || {
        let mut t = Topology::new();
        let s = t.add_switch(QueuePolicy::trim_default());
        let hosts: Vec<NodeId> = (0..w)
            .map(|_| {
                let h = t.add_host();
                t.link(h, s, gbps(100.0), SimTime::from_micros(1));
                h
            })
            .collect();
        (t, hosts)
    };
    let ring_cfg = |hosts: Vec<NodeId>| RingNetConfig {
        scheme: SchemeId::RhtOneBit,
        row_len: 1024,
        base_seed: 42,
        epoch: 1,
        mtu: 1500,
        hosts,
        blob_len: len,
        flow_base: 0,
    };

    let (t, hosts) = topo();
    let mut clean_sim = Simulator::new(t);
    let clean = run_ring_allreduce(
        &mut clean_sim,
        &ring_cfg(hosts),
        blobs(9),
        SimTime::from_secs(5),
    )
    .0;

    for seed in chaos_seeds() {
        let plan = FaultPlan::new(seed).with_default(
            FaultPolicy::none()
                .with_duplicate(0.25)
                .with_reorder(0.4, SimTime::from_micros(25))
                .with_replay(0.15),
        );
        let (t, hosts) = topo();
        let mut sim = Simulator::new(t);
        sim.install_fault_plan(plan);
        let faulted =
            run_ring_allreduce(&mut sim, &ring_cfg(hosts), blobs(9), SimTime::from_secs(5)).0;
        assert_eq!(
            clean, faulted,
            "seed {seed:#x}: non-lossy faults changed the all-reduce result"
        );
        assert_invariants(&sim, seed);
        assert!(
            sim.fault_stats().injected() > 0,
            "seed {seed:#x}: no duplicate or replay ever fired"
        );
    }
}

/// Sends one packetized row (meta first) plus hostile wrong-row and
/// stale-epoch packets over a corrupting link.
struct RowSenderApp {
    dst: NodeId,
    meta: Option<RowMetaPacket>,
    frames: Vec<GradPacket>,
}

impl App for RowSenderApp {
    fn on_start(&mut self, api: &mut HostApi) {
        let meta = self.meta.take().expect("meta set");
        api.send(PacketSpec::grad_meta(self.dst, FlowId(1), 0, meta));
        for (i, frame) in self.frames.drain(..).enumerate() {
            api.send(PacketSpec::grad_data(
                self.dst,
                FlowId(1),
                1 + i as u64,
                frame,
            ));
        }
    }
    fn on_packet(&mut self, _pkt: Packet, _api: &mut HostApi) {}
}

/// Reassembles one row, checking on every arrival that availability never
/// shrinks and tallying what the receive path refused.
struct RowCollectorApp {
    asm: RowAssembler,
    monotone: bool,
    accepted: u64,
    rejected: u64,
}

fn availability(asm: &RowAssembler) -> usize {
    asm.partial_row()
        .parts
        .iter()
        .map(|p| match p {
            PartView::Full(_) => asm.n(),
            PartView::Absent => 0,
            PartView::Masked { present, .. } => present.count_present(),
        })
        .sum()
}

impl App for RowCollectorApp {
    fn on_packet(&mut self, pkt: Packet, _api: &mut HostApi) {
        match &pkt.body {
            PacketBody::GradData(frame) => {
                let before = availability(&self.asm);
                match self.asm.ingest(frame) {
                    Ok(()) => self.accepted += 1,
                    Err(_) => self.rejected += 1,
                }
                let after = availability(&self.asm);
                if after < before {
                    self.monotone = false;
                }
            }
            PacketBody::GradMeta(meta) => {
                self.asm.ingest_meta(meta).expect("legit meta");
            }
            _ => {}
        }
    }
}

#[test]
fn pipeline_chaos_rejects_mangled_and_foreign_packets() {
    for seed in chaos_seeds() {
        let scheme_id = SchemeId::RhtOneBit;
        let len = 3000;
        let data: Vec<f32> = {
            let mut rng = Xoshiro256StarStar::new(seed);
            (0..len).map(|_| rng.next_f32_range(-1.0, 1.0)).collect()
        };
        let enc = scheme_id.encode(&data, 7);
        let cfg = PacketizeConfig {
            mtu: 1500,
            net: NetAddrs::between_hosts(0, 1),
            msg_id: 5,
            row_id: 1,
            epoch: 2,
        };
        let pr = packetize_row(&enc, &cfg);
        let mut frames = pr.packets.clone();
        // Hostile traffic riding the same flow: another row and a stale epoch.
        let foreign = packetize_row(&enc, &PacketizeConfig { row_id: 999, ..cfg });
        let stale = packetize_row(&enc, &PacketizeConfig { epoch: 7, ..cfg });
        frames.push(foreign.packets[0].clone());
        frames.push(stale.packets[0].clone());
        let legit = pr.packets.len() as u64;

        let mut topo = Topology::new();
        let a = topo.add_host();
        let b = topo.add_host();
        topo.link(a, b, gbps(10.0), SimTime::from_micros(5));
        let mut sim = Simulator::with_seed(topo, seed);
        // Corruption and truncation only — the row metadata must survive, and
        // GradMeta is immune to both (reliable packets are never mangled),
        // so availability is attacked while decodability is preserved.
        sim.install_fault_plan(FaultPlan::new(seed).with_channel(
            a,
            b,
            FaultPolicy::none().with_corrupt(0.2).with_truncate(0.2),
        ));
        sim.install_app(
            a,
            Box::new(RowSenderApp {
                dst: b,
                meta: Some(pr.meta),
                frames,
            }),
        );
        sim.install_app(
            b,
            Box::new(RowCollectorApp {
                asm: RowAssembler::new(scheme_id, cfg.msg_id, cfg.row_id, len),
                monotone: true,
                accepted: 0,
                rejected: 0,
            }),
        );
        sim.run_until(SimTime::from_secs(1));
        assert_invariants(&sim, seed);

        let col: &RowCollectorApp = sim.app_ref(b).expect("collector installed");
        assert!(col.monotone, "seed {seed:#x}: availability shrank");
        assert_eq!(
            col.accepted + col.rejected,
            legit + 2,
            "seed {seed:#x}: arrivals unaccounted for"
        );
        // The two foreign packets must be refused; mangled legit packets may
        // be refused too, but never accepted with wrong content.
        assert!(
            col.rejected >= 2,
            "seed {seed:#x}: foreign packets were accepted"
        );
        assert_eq!(col.asm.epoch(), Some(cfg.epoch), "seed {seed:#x}");
        let fs = sim.fault_stats();
        assert!(
            fs.corrupted + fs.truncated > 0,
            "seed {seed:#x}: the mangling matrix never fired"
        );
        // Whatever survived decodes finitely, and every surviving coordinate
        // decodes identically to a clean assembler fed the same accepted set
        // (spot-checked via bit-identical decode of the collector's view).
        let dec = scheme_id
            .decode(&col.asm.partial_row(), col.asm.meta().expect("meta"), 7)
            .expect("partial row decodes");
        assert_eq!(dec.len(), len);
        assert!(
            dec.iter().all(|d| d.is_finite()),
            "seed {seed:#x}: non-finite decode"
        );
    }
}

/// The faulted ring, run twice with identical seeds, must produce
/// byte-identical blobs and telemetry — *including* when the process runs
/// with a multi-threaded worker pool. CI executes this binary under both
/// `TRIMGRAD_THREADS=1` and `TRIMGRAD_THREADS=4`; the encode/packetize/
/// decode fan-outs inside the ring workers split work by row index and merge
/// in row order, so the pool width must never leak into the transcript.
#[test]
fn faulted_ring_is_bit_deterministic_across_runs() {
    let w = 3;
    let len = 2000;
    let run = |seed: u64| {
        let mut t = Topology::new();
        let s = t.add_switch(QueuePolicy::trim_default());
        let hosts: Vec<NodeId> = (0..w)
            .map(|_| {
                let h = t.add_host();
                t.link(h, s, gbps(100.0), SimTime::from_micros(1));
                h
            })
            .collect();
        let cfg = RingNetConfig {
            scheme: SchemeId::RhtOneBit,
            row_len: 512,
            base_seed: 42,
            epoch: 1,
            mtu: 1500,
            hosts,
            blob_len: len,
            flow_base: 0,
        };
        let blobs: Vec<Vec<f32>> = {
            let mut rng = Xoshiro256StarStar::new(seed);
            (0..w)
                .map(|_| (0..len).map(|_| rng.next_f32_range(-1.0, 1.0)).collect())
                .collect()
        };
        let plan = FaultPlan::new(seed).with_default(
            FaultPolicy::none()
                .with_duplicate(0.2)
                .with_reorder(0.3, SimTime::from_micros(25))
                .with_replay(0.1),
        );
        let mut sim = Simulator::new(t);
        sim.install_fault_plan(plan);
        let (out, _) = run_ring_allreduce(&mut sim, &cfg, blobs, SimTime::from_secs(5));
        assert_invariants(&sim, seed);
        let bits: Vec<Vec<u32>> = out
            .iter()
            .map(|b| b.iter().map(|v| v.to_bits()).collect())
            .collect();
        (bits, sim.telemetry_snapshot().to_json())
    };
    for seed in chaos_seeds() {
        let (bits1, snap1) = run(seed);
        let (bits2, snap2) = run(seed);
        assert_eq!(bits1, bits2, "seed {seed:#x}: blob bits diverged");
        assert_eq!(snap1, snap2, "seed {seed:#x}: telemetry diverged");
    }
}

/// Debugging story for a chaos seed: run a congested faulted ring with the
/// flight recorder on, pick a packet the switch actually trimmed, and
/// reconstruct its full lifecycle with the trace query layer — the exact
/// workflow EXPERIMENTS.md documents for `trimgrad-trace query --follow`.
#[test]
fn trace_follow_reconstructs_a_trimmed_packets_path() {
    use trimgrad_trace::{query, TraceEvent, Tracer};
    let w = 4;
    let len = 8_000;
    let policy = QueuePolicy {
        data_capacity: 10_000,
        prio_capacity: 512_000,
        ecn_threshold: None,
        action: trimgrad::netsim::switch::FullAction::Trim { grad_depth: 1 },
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
            Box::new(trimgrad::netsim::crosstraffic::BulkSenderApp::new(
                hosts[i + 1],
                1_500_000,
                1500,
                0x9000 + i as u64,
            )),
        );
    }
    // Non-lossy faults on top of congestion: duplicates and reordering make
    // the lifecycle richer without dropping anything.
    sim.install_fault_plan(
        FaultPlan::new(0x00C0_FFEE).with_default(
            FaultPolicy::none()
                .with_duplicate(0.05)
                .with_reorder(0.1, SimTime::from_micros(25)),
        ),
    );
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
    assert!(trim_frac > 0.0, "congestion must trim something");
    let trace = sim.tracer().snapshot();

    // Pick the first packet the fabric trimmed and follow it.
    let (flow, pseq) = trace
        .records
        .iter()
        .find_map(|r| match r.event {
            TraceEvent::PktTrimmed { flow, pseq, .. } => Some((flow, pseq)),
            _ => None,
        })
        .expect("a congested run records pkt.trimmed events");
    let path = query::follow_records(&trace, flow, pseq);
    assert!(path.len() >= 3, "lifecycle has sent/trimmed/delivered");
    assert_eq!(path[0].event.kind_name(), "pkt.sent");
    assert!(
        path.iter().any(|r| r.event.kind_name() == "pkt.trimmed"),
        "the followed packet must show its trim"
    );
    assert_eq!(
        path.last().expect("nonempty").event.kind_name(),
        "pkt.delivered",
        "trimmed packets still deliver (that is the whole point of trimming)"
    );
    // Timestamps along the path never go backwards.
    assert!(path.windows(2).all(|p| p[0].at <= p[1].at));
    // The human rendering says so too.
    let rendered = query::follow(&trace, flow, pseq);
    assert!(rendered.contains("trimmed"), "{rendered}");
    assert!(rendered.contains("delivered"), "{rendered}");
}

/// A synchronized incast plus a cross-traffic storm on a k=4 fat-tree,
/// pushed through the full fault matrix with the flight recorder armed. The
/// two generated schedules are merged into one [`FlowSchedule`] (storm flow
/// ids offset past the incast's), so the seeded workload layer, ECMP
/// fabric routing, fault injection, and tracing are all load-bearing at
/// once. Per seed: packet conservation must hold, faults must actually
/// fire, and the run must be bit-deterministic — two runs produce the same
/// FNV fingerprint of the trace's canonical binary form and the same
/// telemetry snapshot.
///
/// [`FlowSchedule`]: trimgrad::netsim::workload::FlowSchedule
#[test]
fn fat_tree_incast_storm_survives_fault_matrix_deterministically() {
    use trimgrad::netsim::workload::FlowSchedule;
    use trimgrad_trace::Tracer;

    let run = |seed: u64| {
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
        let expected: u64 = sched.flows.iter().map(|f| f.packet_count()).sum();
        let mut sim = Simulator::with_seed(topo, seed);
        sim.set_tracer(Tracer::enabled(1 << 18));
        sim.install_fault_plan(FaultPlan::new(seed).with_default(full_matrix_policy()));
        sched.install(&mut sim);
        sim.run_until(SimTime::from_millis(100));
        assert_invariants(&sim, seed);
        assert!(
            sim.fault_stats().total() > 0,
            "seed {seed:#x}: fault matrix never fired"
        );
        // Every emitted packet is accounted for: lost to faults, dropped or
        // trimmed at a congested port, or delivered.
        assert!(
            sim.stats().delivered_packets() + sim.stats().dropped_total() >= expected,
            "seed {seed:#x}: packets unaccounted for"
        );
        (
            fnv1a(&sim.tracer().snapshot().to_binary()),
            sim.telemetry_snapshot().to_json(),
        )
    };

    let mut hashes = Vec::new();
    for seed in chaos_seeds() {
        let (trace1, snap1) = run(seed);
        let (trace2, snap2) = run(seed);
        assert_eq!(trace1, trace2, "seed {seed:#x}: trace hash diverged");
        assert_eq!(snap1, snap2, "seed {seed:#x}: telemetry diverged");
        hashes.push(trace1);
    }
    let seeds = hashes.len();
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(
        hashes.len(),
        seeds,
        "distinct seeds produced identical traces"
    );
}

#[test]
fn chaos_runs_are_deterministic_per_seed() {
    for seed in chaos_seeds() {
        let (sim1, _) = trimming_run(seed);
        let (sim2, _) = trimming_run(seed);
        assert_eq!(
            sim1.telemetry_snapshot().to_json(),
            sim2.telemetry_snapshot().to_json(),
            "seed {seed:#x}: same seed produced different runs"
        );
    }
    // And distinct seeds genuinely explore different schedules.
    let (a, _) = trimming_run(0x00C0_FFEE);
    let (b, _) = trimming_run(0xDEC0_DE01);
    assert_ne!(
        a.telemetry_snapshot().to_json(),
        b.telemetry_snapshot().to_json(),
        "different seeds produced identical runs"
    );
}
