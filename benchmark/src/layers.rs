//! Every call the benchmark makes into the library, one thin wrapper per
//! span name. Nothing else in this package touches a `trimgrad-*` function
//! that does work, so this file is the whole surface a later PR can break.
//!
//! Only entry points expected to survive the "one implementation per
//! concept" clean-up are used: fallible constructors (`try_build`,
//! `MessageCodec::checked`), the plain (un-`_pooled`) transforms and
//! packetizer, `Simulator::with_routes`, and no oracle (`encode_scalar`,
//! `BTreePortMap`, `HeapEventQueue`, `with_*_in`).

use crate::trace::Tracer;
use trimgrad::PipelineConfig;
use trimgrad_collective::ring_netsim::{run_ring_allreduce, RingNetConfig};
use trimgrad_hadamard::RandomizedHadamard;
use trimgrad_netsim::crosstraffic::{install_incast, BulkSenderApp};
use trimgrad_netsim::sim::Simulator;
use trimgrad_netsim::switch::{FullAction, QueuePolicy};
use trimgrad_netsim::time::{gbps, SimTime};
use trimgrad_quant::scheme::{PartialRow, RowMeta};
use trimgrad_wire::packet::NetAddrs;
use trimgrad_wire::packetize::{packetize_row, PacketizeConfig, PacketizedRow};
use trimgrad_wire::reassemble::RowAssembler;

pub use trimgrad::pipeline::TxMessage;
pub use trimgrad::TrimmablePipeline;
pub use trimgrad_collective::chunk::MessageCodec;
pub use trimgrad_collective::hooks::{AggregateHook, BaselineHook, TrimmableHook};
pub use trimgrad_collective::reducescatter::segment_range;
pub use trimgrad_collective::trim_inject::TrimInjector;
pub use trimgrad_hadamard::prng::Xoshiro256StarStar as Rng;
pub use trimgrad_mltrain::data::Dataset;
pub use trimgrad_mltrain::model::Mlp;
pub use trimgrad_mltrain::optim::SgdMomentum;
pub use trimgrad_mltrain::parallel::{DataParallelTrainer, ParallelConfig};
pub use trimgrad_netsim::topology::{Routes, Topology};
pub use trimgrad_netsim::workload::FlowSchedule;
pub use trimgrad_netsim::NodeId;
pub use trimgrad_quant::error::nmse;
pub use trimgrad_quant::scheme::EncodedRow;
pub use trimgrad_quant::SchemeId;
pub use trimgrad_wire::meta::RowMetaPacket;
pub use trimgrad_wire::packet::GradPacket;

pub const MTU: usize = 1500;
pub const ROW_LEN: usize = 1 << 15;

// ───────────────────────── par ─────────────────────────

/// Width of the process-wide worker pool (`TRIMGRAD_THREADS`).
pub fn pool_width() -> usize {
    trimgrad_par::WorkerPool::global().threads()
}

// ─────────────────────── hadamard ──────────────────────

/// `hadamard.forward`: in-place RHT of one power-of-two row.
pub fn hadamard_forward(t: &mut Tracer, parent: u32, seed: u64, row: &mut [f32]) {
    t.replay(parent, "hadamard.forward", |t| {
        t.count("coords", row.len() as u64);
        RandomizedHadamard::new(seed)
            .forward(row)
            .expect("power-of-two row");
    });
}

/// `hadamard.inverse`: in-place inverse RHT of one power-of-two row.
pub fn hadamard_inverse(t: &mut Tracer, parent: u32, seed: u64, row: &mut [f32]) {
    t.replay(parent, "hadamard.inverse", |t| {
        t.count("coords", row.len() as u64);
        RandomizedHadamard::new(seed)
            .inverse(row)
            .expect("power-of-two row");
    });
}

/// A row zero-padded to the next power of two, as the RHT schemes rotate it.
fn padded(row: &[f32]) -> Vec<f32> {
    let mut buf = row.to_vec();
    buf.resize(trimgrad_hadamard::next_pow2(row.len()), 0.0);
    buf
}

// ───────────────────────── quant ───────────────────────

pub fn codec(scheme: SchemeId, base_seed: u64, row_len: usize) -> MessageCodec {
    MessageCodec::checked(scheme, base_seed, row_len).expect("non-zero row length")
}

fn is_rht(scheme: SchemeId) -> bool {
    matches!(scheme, SchemeId::RhtOneBit | SchemeId::MultiLevelRht)
}

/// `quant.encode`: blob → encoded rows, plus (RHT schemes) a
/// `hadamard.forward` replay per row, the rotation `encode` ran inside.
pub fn quant_encode(
    t: &mut Tracer,
    parent: u32,
    codec: &MessageCodec,
    blob: &[f32],
    epoch: u32,
    msg_id: u32,
) -> Vec<EncodedRow> {
    let rows = t.replay(parent, "quant.encode", |t| {
        let rows = codec.encode_message(blob, epoch, msg_id);
        t.count("coords", blob.len() as u64);
        t.count("rows", rows.len() as u64);
        t.count("bits", codec.encoded_bits(&rows) as u64);
        rows
    });
    let me = t.last_closed();
    if is_rht(codec.scheme_id()) {
        for (row_id, row) in blob.chunks(codec.row_len()).enumerate() {
            let mut buf = padded(row);
            hadamard_forward(
                t,
                me,
                codec.row_seed(epoch, msg_id, row_id as u32),
                &mut buf,
            );
        }
    }
    rows
}

/// Which view a decode replay is given.
#[derive(Clone, Copy)]
pub enum DecodeKind {
    /// What actually arrived (full-depth and heads-only packets mixed).
    Mixed,
    /// Every part present.
    Full,
    /// Heads only.
    Heads,
}

impl DecodeKind {
    fn span(self) -> &'static str {
        match self {
            DecodeKind::Mixed => "quant.decode_mixed",
            DecodeKind::Full => "quant.decode_full",
            DecodeKind::Heads => "quant.decode_heads",
        }
    }
}

/// `quant.decode_*`: one row view → coordinates, plus (RHT schemes) the
/// `hadamard.inverse` replay. `Err` is counted, not propagated.
pub fn quant_decode(
    t: &mut Tracer,
    parent: u32,
    kind: DecodeKind,
    codec: &MessageCodec,
    view: &PartialRow<'_>,
    meta: &RowMeta,
    (epoch, msg_id, row_id): (u32, u32, u32),
) -> Option<Vec<f32>> {
    let out = t.replay(parent, kind.span(), |t| {
        let out = codec.decode_row(view, meta, epoch, msg_id, row_id).ok();
        t.count("coords", meta.original_len as u64);
        t.count("rows", 1);
        t.count("errors", u64::from(out.is_none()));
        out
    });
    let me = t.last_closed();
    if let (true, Some(dec)) = (is_rht(codec.scheme_id()), &out) {
        let mut buf = padded(dec);
        hadamard_inverse(t, me, codec.row_seed(epoch, msg_id, row_id), &mut buf);
    }
    out
}

// ───────────────────────── wire ────────────────────────

/// `wire.packetize`: one encoded row → MTU-sized frames + its meta packet.
pub fn wire_packetize(
    t: &mut Tracer,
    parent: u32,
    enc: &EncodedRow,
    net: NetAddrs,
    (epoch, msg_id, row_id): (u32, u32, u32),
) -> PacketizedRow {
    t.replay(parent, "wire.packetize", |t| {
        let pr = packetize_row(
            enc,
            &PacketizeConfig {
                mtu: MTU,
                net,
                msg_id,
                row_id,
                epoch,
            },
        );
        t.count("packets", pr.packets.len() as u64);
        t.count(
            "bytes",
            pr.packets.iter().map(GradPacket::wire_len).sum::<usize>() as u64,
        );
        t.count("payload_bits", enc.total_bits() as u64);
        pr
    })
}

pub fn net_between(src: u32, dst: u32) -> NetAddrs {
    NetAddrs::between_hosts(src, dst)
}

/// `wire.trim`: cuts the packets `pick` selects down to their heads, the
/// way a congested switch would. A real span: the round needs it.
pub fn wire_trim(t: &mut Tracer, packets: &mut [GradPacket], mut pick: impl FnMut() -> bool) {
    t.span("wire.trim", |t| {
        let mut trimmed = 0u64;
        for p in packets.iter_mut() {
            if pick() {
                trim_packet(p);
                trimmed += 1;
            }
        }
        t.count("packets", packets.len() as u64);
        t.count("trimmed", trimmed);
    });
}

/// `wire.reassemble`: one row's assembler fed its meta and data packets.
/// Refused packets are counted on the span.
pub fn wire_reassemble(
    t: &mut Tracer,
    parent: u32,
    meta: &RowMetaPacket,
    packets: &[&GradPacket],
) -> RowAssembler {
    t.replay(parent, "wire.reassemble", |t| {
        let mut asm = RowAssembler::new(
            meta.scheme,
            meta.msg_id,
            meta.row_id,
            meta.original_len as usize,
        );
        let mut rejected = u64::from(asm.ingest_meta(meta).is_err());
        for p in packets {
            rejected += u64::from(asm.ingest(p).is_err());
        }
        t.count("packets", packets.len() as u64);
        t.count("rejected", rejected);
        asm
    })
}

/// Row id a data packet belongs to (header peek, no checksum validation).
pub fn packet_row(p: &GradPacket) -> usize {
    p.quick_fields().map_or(usize::MAX, |f| f.row_id as usize)
}

/// Cuts one frame to its heads, as a full switch queue would (replay
/// support: the real trimming happened inside the simulator).
pub fn trim_packet(p: &mut GradPacket) {
    p.trim_to_depth(1).expect("locally built frame trims");
}

// ───────────────────────── core ────────────────────────

pub fn pipeline(scheme: SchemeId, base_seed: u64) -> TrimmablePipeline {
    let cfg = PipelineConfig::builder()
        .scheme(scheme)
        .row_len(ROW_LEN)
        .mtu(MTU)
        .base_seed(base_seed)
        .try_build()
        .expect("valid pipeline configuration");
    TrimmablePipeline::new(cfg)
}

/// `core.encode`: `TrimmablePipeline::encode` of one rank's blob.
pub fn core_encode(
    t: &mut Tracer,
    p: &TrimmablePipeline,
    blob: &[f32],
    (epoch, msg_id): (u32, u32),
    (src, dst): (u32, u32),
) -> TxMessage {
    t.span("core.encode", |t| {
        let tx = p.encode(blob, epoch, msg_id, src, dst);
        t.count("coords", blob.len() as u64);
        t.count("packets", tx.packets.len() as u64);
        t.count("wire_bytes", tx.wire_bytes() as u64);
        tx
    })
}

/// `core.decode`: `TrimmablePipeline::decode` of what arrived. `None` on a
/// decode error (counted by the caller as a failed round).
pub fn core_decode(
    t: &mut Tracer,
    p: &TrimmablePipeline,
    packets: &[GradPacket],
    metas: &[RowMetaPacket],
    (epoch, msg_id): (u32, u32),
) -> Option<Vec<f32>> {
    t.span("core.decode", |t| {
        let out = p.decode(packets, metas, epoch, msg_id).ok();
        t.count("packets", packets.len() as u64);
        t.count("errors", u64::from(out.is_none()));
        out
    })
}

// ──────────────────────── netsim ───────────────────────

/// The paper's trimming switch with a shallow `data_capacity`-byte queue.
pub fn trim_policy(data_capacity: u32) -> QueuePolicy {
    QueuePolicy {
        data_capacity,
        prio_capacity: 1 << 20,
        ecn_threshold: None,
        action: FullAction::Trim { grad_depth: 1 },
    }
}

/// A k-ary fat-tree, 10 G host links, 40 G fabric links, 1 µs per hop.
pub fn fat_tree(k: usize, policy: QueuePolicy) -> (Topology, Vec<NodeId>) {
    Topology::fat_tree(k, gbps(10.0), gbps(40.0), SimTime::from_micros(1), policy)
}

pub fn routes_towards(topo: &Topology, dsts: &[NodeId]) -> Routes {
    topo.build_routes_towards(dsts)
}

/// A storm of `flows` random host pairs, 1500 to 60 000 B each, released
/// over 200 simulated microseconds.
pub fn storm(hosts: &[NodeId], flows: usize, seed: u64) -> FlowSchedule {
    FlowSchedule::storm(hosts, flows, 60_000, 1500, SimTime::from_micros(200), seed)
}

/// What one simulation left behind, read off its public accessors.
#[derive(Clone, Copy, Default, Debug)]
pub struct SimOutcome {
    pub events: u64,
    pub sent: u64,
    pub delivered: u64,
    pub trimmed: u64,
    pub dropped: u64,
    pub trim_fraction: f64,
    pub max_queue_bytes: u64,
    pub arena_high_water: u64,
    pub conserved: bool,
    pub fct_p50_us: f64,
    pub fct_max_us: f64,
    pub flows_completed: u64,
}

pub fn sim_outcome(sim: &Simulator) -> SimOutcome {
    let s = sim.stats();
    let fct = s.fct_summary();
    let us = |t: SimTime| t.as_nanos() as f64 / 1e3;
    SimOutcome {
        events: sim.events_fired(),
        sent: s.sent_packets(),
        delivered: s.delivered_packets(),
        trimmed: s.trimmed_packets(),
        dropped: s.dropped_total(),
        trim_fraction: s.trim_fraction(),
        max_queue_bytes: u64::from(s.max_queue_bytes()),
        arena_high_water: sim.arena().high_water(),
        conserved: sim.conservation_holds(),
        fct_p50_us: fct.map_or(0.0, |f| us(f.p50)),
        fct_max_us: fct.map_or(0.0, |f| us(f.max)),
        flows_completed: fct.map_or(0, |f| f.completed as u64),
    }
}

fn count_outcome(t: &mut Tracer, o: &SimOutcome) {
    t.count("events", o.events);
    t.count("sent", o.sent);
    t.count("delivered", o.delivered);
    t.count("trimmed", o.trimmed);
    t.count("dropped", o.dropped);
    t.count("max_queue_bytes", o.max_queue_bytes);
    t.count("arena_high_water", o.arena_high_water);
    t.count("conservation_failures", u64::from(!o.conserved));
}

const SIM_LIMIT: SimTime = SimTime(120_000_000_000);

/// `netsim.build`: fabric (from `make`) → simulator with `install`'s apps.
pub fn netsim_build(
    t: &mut Tracer,
    make: impl FnOnce() -> (Topology, Routes),
    seed: u64,
    install: impl FnOnce(&mut Simulator),
) -> Simulator {
    t.span("netsim.build", |t| {
        let (topo, routes) = make();
        t.count("nodes", topo.len() as u64);
        let mut sim = Simulator::with_routes(topo, routes, seed);
        sim.enable_queue_sampling(SimTime::from_micros(20));
        install(&mut sim);
        sim
    })
}

pub fn install_schedule(sim: &mut Simulator, schedule: &FlowSchedule) {
    schedule.install(sim);
}

/// The 8→1 incast that congests one ring member's downlink.
pub fn install_cross_incast(sim: &mut Simulator, senders: &[NodeId], victim: NodeId, bytes: u64) {
    install_incast(sim, senders, victim, bytes, MTU as u32, 0xC0_0000);
}

/// One bulk sender per ring edge carrying the bytes the ring put on it.
pub fn install_ring_bulk(sim: &mut Simulator, ring: &[NodeId], bytes_per_edge: &[u64]) {
    for (r, &host) in ring.iter().enumerate() {
        let next = ring[(r + 1) % ring.len()];
        sim.install_app(
            host,
            Box::new(BulkSenderApp::new(
                next,
                bytes_per_edge[r].max(1),
                MTU as u32,
                0x5249_0000 + r as u64,
            )),
        );
    }
}

/// `netsim.run`: drives a built simulator to quiescence.
pub fn netsim_run(t: &mut Tracer, parent: Option<u32>, sim: &mut Simulator) -> SimOutcome {
    let body = |t: &mut Tracer| {
        sim.run_until(SIM_LIMIT);
        let out = sim_outcome(sim);
        count_outcome(t, &out);
        out
    };
    match parent {
        Some(p) => t.replay(p, "netsim.run", body),
        None => t.span("netsim.run", body),
    }
}

// ────────────────────── collective ─────────────────────

pub fn ring_config(
    hosts: Vec<NodeId>,
    blob_len: usize,
    base_seed: u64,
    epoch: u32,
) -> RingNetConfig {
    RingNetConfig {
        scheme: SchemeId::RhtOneBit,
        row_len: ROW_LEN,
        base_seed,
        epoch,
        mtu: MTU,
        hosts,
        blob_len,
        flow_base: 0,
    }
}

/// What the ring reported about itself through the simulation's registry.
#[derive(Clone, Default, Debug)]
pub struct RingOutcome {
    /// Per-rank sums (not yet divided by W); empty if a worker never finished.
    pub sums: Vec<Vec<f32>>,
    pub trim_fraction: f64,
    pub bytes_sent_per_rank: Vec<u64>,
    pub steps: u64,
}

/// `collective.aggregate` on the fabric: `run_ring_allreduce` inside `sim`.
/// A ring that cannot finish panics inside the library; the round loop's
/// `catch_unwind` turns that into a failed round.
pub fn collective_ring(
    t: &mut Tracer,
    sim: &mut Simulator,
    cfg: &RingNetConfig,
    grads: &[Vec<f32>],
) -> (RingOutcome, SimOutcome) {
    t.span("collective.aggregate", |t| {
        let (sums, trim_fraction) = run_ring_allreduce(sim, cfg, grads.to_vec(), SIM_LIMIT);
        let snap = sim.telemetry_snapshot();
        let per_rank = |field: &str| -> Vec<u64> {
            (0..cfg.hosts.len())
                .map(|r| snap.counter(&format!("collective.rank.{r}.{field}")))
                .collect()
        };
        let ring = RingOutcome {
            sums,
            trim_fraction,
            bytes_sent_per_rank: per_rank("bytes_sent"),
            steps: per_rank("steps_applied").iter().sum(),
        };
        let simo = sim_outcome(sim);
        t.count("steps", ring.steps);
        t.count("bytes_sent", ring.bytes_sent_per_rank.iter().sum());
        t.count("coords", cfg.blob_len as u64);
        count_outcome(t, &simo);
        (ring, simo)
    })
}

/// `collective.aggregate` in memory: any [`AggregateHook`].
pub fn collective_hook(
    t: &mut Tracer,
    hook: &mut dyn AggregateHook,
    grads: &[Vec<f32>],
    epoch: u32,
    round: u32,
) -> Vec<Vec<f32>> {
    t.span("collective.aggregate", |t| {
        let before = hook.bytes_sent();
        let views = hook.aggregate(grads, epoch, round);
        t.count("bytes_sent", hook.bytes_sent() - before);
        t.count("coords", grads[0].len() as u64);
        views
    })
}

/// The probabilistic trim the in-memory hook applies to one encoded row:
/// per-coordinate surviving depths. Collective-layer work, so it stays in
/// `collective.aggregate`'s self time; the replay only needs its result.
pub fn inject_depths(injector: &mut TrimInjector, enc: &EncodedRow) -> Vec<usize> {
    injector.draw_depths(enc).0
}

// ──────────────────────── mltrain ──────────────────────

/// A seeded Gaussian-mixture classification task, split 90/10. Class means
/// lie within `mean_scale` of the origin and points scatter with unit
/// spread, so a small `mean_scale` keeps classes overlapping and the loss
/// away from zero for the length of a run.
pub fn dataset(
    classes: usize,
    dim: usize,
    per_class: usize,
    mean_scale: f32,
    seed: u64,
) -> (Dataset, Dataset) {
    trimgrad_mltrain::data::gaussian_mixture(classes, dim, per_class, mean_scale, 1.0, seed)
        .split(0.9, seed)
}

pub fn trainer(
    dims: &[usize],
    data: &(Dataset, Dataset),
    hook: Box<dyn AggregateHook>,
    cfg: &ParallelConfig,
) -> DataParallelTrainer {
    DataParallelTrainer::new(dims, data.0.clone(), data.1.clone(), hook, cfg.clone())
}

/// `cfg.workers` identical seeded replicas with an optimizer each, for the
/// staged round.
pub fn replicas(dims: &[usize], cfg: &ParallelConfig) -> (Vec<Mlp>, Vec<SgdMomentum>) {
    let proto = Mlp::new(dims, cfg.seed);
    let n = proto.param_count();
    let opts = (0..cfg.workers)
        .map(|_| SgdMomentum::new(cfg.schedule.initial_lr, cfg.momentum, n))
        .collect();
    (vec![proto; cfg.workers], opts)
}

/// `mltrain.grad`: one worker's batch draw, forward and backward.
pub fn mltrain_grad(
    t: &mut Tracer,
    model: &Mlp,
    train: &Dataset,
    batch_size: usize,
    rng: &mut Rng,
) -> (f32, Vec<f32>) {
    t.span("mltrain.grad", |t| {
        let idx = trimgrad_mltrain::data::sample_indices(train.len(), batch_size, rng);
        let (bx, by) = train.batch(&idx);
        t.count("samples", idx.len() as u64);
        model.loss_and_grad(&bx, &by)
    })
}

/// `mltrain.step`: one worker's optimizer update from its aggregated view.
pub fn mltrain_step(t: &mut Tracer, model: &mut Mlp, opt: &mut SgdMomentum, lr: f32, view: &[f32]) {
    t.span("mltrain.step", |t| {
        opt.lr = lr;
        let mut params = model.params_flat();
        opt.step(&mut params, view);
        model.set_params_flat(&params);
        t.count("params", view.len() as u64);
    });
}

/// What `mltrain::timemodel` predicts for encode + decode of `coords`.
pub fn timemodel_codec_s(scheme: SchemeId, coords: u64) -> f64 {
    trimgrad_mltrain::timemodel::TimeModel::default().encode_time(Some(scheme), coords)
}
