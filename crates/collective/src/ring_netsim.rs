//! Ring all-reduce executed inside the network simulator.
//!
//! This is the full-fidelity path of the reproduction: each training worker
//! is a [`trimgrad_netsim::host::App`] that encodes its gradient segments
//! with a [`MessageCodec`], packetizes them into **real TrimGrad frames**
//! (`trimgrad-wire`), and sends them hop-by-hop through simulated
//! shallow-buffer switches. When a switch queue fills, the switch *actually
//! truncates the frame bytes*; the receiving worker keeps whatever frames
//! survived and decodes them where they lie — there is no injection
//! shortcut anywhere in this path.
//!
//! The ring protocol is [`crate::ring`]'s schedule: `W − 1` reduce-scatter
//! steps (accumulate), then `W − 1` all-gather steps (overwrite); step `t`
//! travels as message id `t`. A worker sends its step-`t+1` segment as soon
//! as its step-`t` inbound message is fully assembled (every packet arrived,
//! trimmed or not, plus the reliable row metadata).

use crate::chunk::MessageCodec;
use crate::ring::{step, total_steps, Step};
use std::borrow::Cow;
use std::collections::BTreeMap;
use trimgrad_netsim::host::{App, HostApi};
use trimgrad_netsim::packet::{Packet, PacketBody, PacketSpec};
use trimgrad_netsim::{FlowId, NodeId};
use trimgrad_quant::SchemeId;
use trimgrad_telemetry::{Counter, Histogram, Registry};
use trimgrad_trace::{sat32, TraceEvent};
use trimgrad_wire::packet::NetAddrs;
use trimgrad_wire::packetize::{coords_per_packet, PacketizeConfig};
use trimgrad_wire::reassemble::RowFrames;

/// Static configuration shared by every ring worker.
#[derive(Debug, Clone)]
pub struct RingNetConfig {
    /// Encoding scheme.
    pub scheme: SchemeId,
    /// Row length (coordinates) for the codec.
    pub row_len: usize,
    /// Shared base seed.
    pub base_seed: u64,
    /// Training epoch (seed context carried in every packet).
    pub epoch: u32,
    /// IP MTU for packetization.
    pub mtu: usize,
    /// The ring: `hosts[r]` is the host of rank `r`; rank `r` sends to
    /// `(r+1) % W`.
    pub hosts: Vec<NodeId>,
    /// Blob length in coordinates (identical on every worker).
    pub blob_len: usize,
    /// Added to every worker's flow id, so concurrent rings on one fabric
    /// keep distinct flows. Multi-tenant runs use `(tenant + 1) << 32`,
    /// making `flow >> 32` the tenant key (see
    /// `Simulator::set_flow_scope`); single-job runs leave it 0.
    pub flow_base: u64,
}

impl RingNetConfig {
    fn codec(&self) -> MessageCodec {
        MessageCodec::with_row_len(self.scheme, self.base_seed, self.row_len)
    }

    fn workers(&self) -> usize {
        self.hosts.len()
    }

    /// Protocol step `t` as `rank` sees it.
    fn step(&self, rank: usize, t: usize) -> Step {
        step(self.blob_len, self.workers(), rank, t)
    }
}

/// Assembly state of one inbound message (one step's segment): the frames
/// each row kept, decoded where they lie once the message is complete.
struct MsgAssembly {
    rows: Vec<RowFrames<'static>>,
    /// Rows not yet [`row_ready`]; the message applies when it reaches zero.
    incomplete: usize,
}

/// A row can be decoded once every coordinate's head arrived (possibly
/// trimmed deeper) and so did its reliable metadata. Both are O(1).
fn row_ready(row: &RowFrames) -> bool {
    row.heads_complete() && row.meta().is_some()
}

impl MsgAssembly {
    /// Assembly for a `seg_len`-coordinate segment of the ring's `epoch`,
    /// with exactly the rows (and row lengths) `codec` produces when
    /// encoding it, each refusing a frame off its sender's
    /// `per_packet`-coordinate chunks. An empty segment has no rows and is
    /// complete from the start.
    // trimlint: allow(hot-path-alloc) -- once per inbound message, on its first packet: the rows' chunk tables every later frame is kept in
    fn new(
        codec: &MessageCodec,
        epoch: u32,
        msg_id: u32,
        seg_len: usize,
        per_packet: usize,
    ) -> Self {
        let rows: Vec<RowFrames> = (0..codec.rows_for(seg_len))
            .map(|r| {
                let row_len = codec.row_range(seg_len, r).len();
                let (scheme, row_id) = (codec.scheme_id(), r as u32);
                RowFrames::new(scheme, epoch, msg_id, row_id, row_len, per_packet)
            })
            .collect();
        let incomplete = rows.len();
        Self { rows, incomplete }
    }

    fn is_complete(&self) -> bool {
        self.incomplete == 0
    }

    /// Feeds row `row_id` one frame or metadata packet through `ingest` and
    /// keeps the incomplete-row count in step. `false` if there is no such
    /// row or `ingest` refused (a refused packet changes nothing).
    fn ingest_into(
        &mut self,
        row_id: usize,
        ingest: impl FnOnce(&mut RowFrames<'static>) -> bool,
    ) -> bool {
        let Some(row) = self.rows.get_mut(row_id) else {
            return false;
        };
        let was_ready = row_ready(row);
        if !ingest(row) {
            return false;
        }
        if !was_ready && row_ready(row) {
            self.incomplete -= 1;
        }
        true
    }
}

/// Telemetry handles for one rank: detached cells until the worker's first
/// callback, [`App::on_start`], registers them in the simulation's registry
/// under `collective.rank.<rank>.*`; every later callback borrows them.
#[derive(Default)]
struct RankMetrics {
    packets_sent: Counter,
    bytes_sent: Counter,
    packets_received: Counter,
    bytes_received: Counter,
    trimmed_received: Counter,
    parts_lost: Counter,
    meta_received: Counter,
    steps_applied: Counter,
    rejected_frames: Counter,
    rejected_meta: Counter,
    /// Sim-time from sending a protocol step's segment to applying that
    /// step's inbound message — the per-step latency an SLO's p99 is
    /// computed over.
    step_time_ns: Histogram,
}

impl RankMetrics {
    fn register(registry: &Registry, rank: usize) -> Self {
        let name = |field: &str| format!("collective.rank.{rank}.{field}");
        Self {
            packets_sent: registry.counter(&name("packets_sent")),
            bytes_sent: registry.counter(&name("bytes_sent")),
            packets_received: registry.counter(&name("packets_received")),
            bytes_received: registry.counter(&name("bytes_received")),
            trimmed_received: registry.counter(&name("trimmed_received")),
            parts_lost: registry.counter(&name("parts_lost")),
            meta_received: registry.counter(&name("meta_received")),
            steps_applied: registry.counter(&name("steps_applied")),
            rejected_frames: registry.counter(&name("rejected_frames")),
            rejected_meta: registry.counter(&name("rejected_meta")),
            step_time_ns: registry.histogram(&name("step_time_ns")),
        }
    }
}

/// One ring worker.
pub struct RingWorkerApp {
    cfg: RingNetConfig,
    rank: usize,
    blob: Vec<f32>,
    codec: MessageCodec,
    step: usize,
    inbox: BTreeMap<u32, MsgAssembly>,
    done: bool,
    metrics: RankMetrics,
    /// Sim time when the current step's segment was sent; consumed by
    /// `apply_step` to record `step_time_ns`.
    step_sent_at: u64,
    /// Where a reduce step's inbound segment is decoded before it is added
    /// to the blob; grows to the longest segment once and is reused.
    scratch: Vec<f32>,
    /// Coordinates per frame at the ring's MTU: the chunk geometry every
    /// inbound row holds frames to.
    per_packet: usize,
}

impl RingWorkerApp {
    /// Creates the worker of `rank` with its local gradient.
    ///
    /// # Panics
    ///
    /// Panics if the blob length disagrees with the config, the ring has
    /// fewer than two workers, `cfg.row_len` is zero (the codec's
    /// [`MessageCodec::with_row_len`] refuses it), or the MTU cannot fit one
    /// coordinate.
    #[must_use]
    pub fn new(cfg: RingNetConfig, rank: usize, blob: Vec<f32>) -> Self {
        assert!(cfg.workers() >= 2, "a ring needs at least two workers");
        assert_eq!(blob.len(), cfg.blob_len, "blob length mismatch");
        assert!(rank < cfg.workers(), "rank out of range");
        let codec = cfg.codec();
        let per_packet = coords_per_packet(cfg.scheme.part_bits(), cfg.mtu)
            // trimlint: allow(no-panic) -- documented # Panics contract: an MTU too small for one coordinate is a static misconfiguration the packetizer would panic on at the first send
            .unwrap_or_else(|| panic!("MTU {} cannot fit one coordinate", cfg.mtu));
        Self {
            per_packet,
            cfg,
            rank,
            blob,
            codec,
            step: 0,
            inbox: BTreeMap::new(),
            done: false,
            metrics: RankMetrics::default(),
            step_sent_at: 0,
            scratch: Vec::new(),
        }
    }

    /// Whether the all-reduce finished on this worker.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The (post-all-reduce) blob. Meaningful once [`is_done`](Self::is_done);
    /// empty after [`run_ring_allreduce`], which moves it out to return it.
    #[must_use]
    pub fn blob(&self) -> &[f32] {
        &self.blob
    }

    fn flow(&self) -> FlowId {
        FlowId(self.cfg.flow_base + 0x5249_0000 + self.rank as u64)
    }

    fn next_host(&self) -> NodeId {
        self.cfg.hosts[(self.rank + 1) % self.cfg.workers()]
    }

    /// Encodes and sends the segment for protocol step `t`.
    fn send_step(&mut self, t: usize, api: &mut HostApi) {
        let at = api.now().as_nanos();
        let _span = api.tracer().span_at("ring.send_step", at);
        let (rank, s) = (self.rank, self.cfg.step(self.rank, t));
        api.tracer().emit(at, || TraceEvent::StepStarted {
            rank: sat32(rank),
            step: sat32(t),
            reduce: s.reduce,
        });
        self.step_sent_at = at;
        let m = &self.metrics;
        let msg_id = t as u32;
        let (src, dst) = (api.node(), self.next_host());
        let (flow, tracer) = (self.flow(), api.tracer());
        let mut seq = 0u64;
        let mut send = |spec: PacketSpec| {
            m.packets_sent.inc();
            m.bytes_sent.add(u64::from(spec.size));
            api.send(spec);
        };
        self.codec.packetize_message(
            &self.blob[s.send],
            &PacketizeConfig {
                mtu: self.cfg.mtu,
                net: NetAddrs::between_hosts(src.0 as u32, dst.0 as u32),
                msg_id,
                row_id: 0, // message-wide template: each row gets its own index
                epoch: self.cfg.epoch,
            },
            tracer,
            at,
            // The sink runs serially, so frames enter the fabric in (row,
            // chunk) order for every pool width.
            |pr| {
                for frame in pr.packets {
                    send(PacketSpec::grad_data(dst, flow, seq, frame));
                    seq += 1;
                }
                send(PacketSpec::grad_meta(dst, flow, seq, pr.meta));
                seq += 1;
            },
        );
    }

    /// Applies the fully-assembled step-`t` message and advances the
    /// protocol. The caller ([`drain_ready`](Self::drain_ready)) has already
    /// removed the assembly from the inbox and verified it is complete.
    // trimlint: allow(hot-path-panic) -- once per protocol step, on the packet that completes its message; the one panic edge is the structural-validity expect below
    fn apply_step(&mut self, t: usize, asm: &MsgAssembly, api: &mut HostApi) {
        let at = api.now().as_nanos();
        let _span = api.tracer().span_at("ring.apply_step", at);
        let msg_id = t as u32;
        let Step {
            recv: range,
            reduce,
            ..
        } = self.cfg.step(self.rank, t);
        let (codec, epoch, tracer) = (&self.codec, self.cfg.epoch, api.tracer());
        let decode_to = |dst: &mut [f32]| {
            codec
                .decode_assembled_into(&asm.rows, epoch, msg_id, tracer, at, dst)
                // trimlint: allow(no-panic) -- is_complete() verified every row has its metadata before the assembly left the inbox, and every packet of every row passed ingest, so a failure here is a codec geometry bug, not a runtime condition
                .expect("complete assembly is structurally valid");
        };
        if reduce {
            self.scratch.resize(range.len(), 0.0);
            decode_to(&mut self.scratch);
            for (acc, v) in self.blob[range].iter_mut().zip(&self.scratch) {
                *acc += v;
            }
        } else {
            // An all-gather step overwrites: its rows decode where they stay.
            decode_to(&mut self.blob[range]);
        }
        self.metrics.steps_applied.inc();
        let step_time = at.saturating_sub(self.step_sent_at);
        self.metrics.step_time_ns.record(step_time);
        let rank = self.rank;
        api.tracer().emit(at, || TraceEvent::StepApplied {
            rank: sat32(rank),
            step: sat32(t),
        });
        self.step = t + 1;
        if self.step < total_steps(self.cfg.workers()) {
            self.send_step(self.step, api);
        } else {
            self.done = true;
            api.complete_flow(self.flow());
        }
    }

    /// Applies every consecutive step whose inbound message is already fully
    /// assembled. A fast predecessor can deliver step `t+1` completely while
    /// this worker is still waiting on step `t`; when `t` finally lands, the
    /// buffered `t+1` must be applied immediately — no further packet will
    /// arrive to trigger it. Likewise an empty inbound segment
    /// (`blob_len < workers`) is complete without any packet ever arriving,
    /// which is why this also runs right after the first send.
    fn drain_ready(&mut self, api: &mut HostApi) {
        while !self.done {
            let t = self.step;
            if !self.ensure_assembly(t as u32).is_complete() {
                break;
            }
            let Some(asm) = self.inbox.remove(&(t as u32)) else {
                break;
            };
            self.apply_step(t, &asm, api);
        }
    }

    /// The assembly of the step-`msg_id` inbound message, created on first
    /// use. Only called with a step still [`pending`](Self::pending).
    fn ensure_assembly(&mut self, msg_id: u32) -> &mut MsgAssembly {
        let seg_len = self.cfg.step(self.rank, msg_id as usize).recv.len();
        let (codec, epoch, per_packet) = (&self.codec, self.cfg.epoch, self.per_packet);
        self.inbox
            .entry(msg_id)
            .or_insert_with(|| MsgAssembly::new(codec, epoch, msg_id, seg_len, per_packet))
    }

    /// Whether a frame or metadata packet stamped `(epoch, msg_id)` is one
    /// this worker still expects: this ring's epoch and a step not yet
    /// applied. Checked before any assembly exists, so a stale, replayed or
    /// foreign packet allocates nothing and cannot poison a row.
    fn pending(&self, epoch: u32, msg_id: u32) -> bool {
        epoch == self.cfg.epoch
            && (self.step..total_steps(self.cfg.workers())).contains(&(msg_id as usize))
    }
}

impl App for RingWorkerApp {
    fn on_start(&mut self, api: &mut HostApi) {
        self.metrics = RankMetrics::register(api.telemetry(), self.rank);
        self.send_step(0, api);
        self.drain_ready(api);
    }

    // trimlint: hot-path -- runs once per delivered frame of the ring
    fn on_packet(&mut self, pkt: Packet, api: &mut HostApi) {
        match pkt.body {
            PacketBody::GradData(frame) => {
                // A frame the receive path refuses is dropped the way real
                // hardware drops garbage, but loudly: the rejected counters
                // make fault-injected runs observable, and the final
                // is_done() assertion turns a resulting stall into a test
                // failure instead of silent corruption.
                let Ok(fields) = frame.quick_fields() else {
                    self.metrics.rejected_frames.inc();
                    return;
                };
                let m = &self.metrics;
                m.packets_received.inc();
                m.bytes_received.add(u64::from(pkt.size));
                if fields.trim_depth < fields.n_parts {
                    m.trimmed_received.inc();
                    m.parts_lost
                        .add(u64::from(fields.n_parts) - u64::from(fields.trim_depth));
                }
                let (msg, row) = (fields.msg_id, fields.row_id);
                let (at, tracer) = (api.now().as_nanos(), api.tracer());
                // The row keeps the frame itself; the frame that completes
                // its heads marks the decodable-prefix milestone.
                let accepted = self.pending(fields.epoch, msg)
                    && self
                        .ensure_assembly(msg)
                        .ingest_into(row as usize, |frames| {
                            let had_heads = frames.heads_complete();
                            if frames.ingest(Cow::Owned(frame)).is_err() {
                                return false;
                            }
                            if !had_heads && frames.heads_complete() {
                                let coords = sat32(frames.coords_received());
                                tracer.emit(at, || TraceEvent::RowAssembled { msg, row, coords });
                            }
                            true
                        });
                if !accepted {
                    self.metrics.rejected_frames.inc();
                    return;
                }
                self.drain_ready(api);
            }
            PacketBody::GradMeta(meta) => {
                self.metrics.meta_received.inc();
                self.metrics.bytes_received.add(u64::from(pkt.size));
                let msg_id = meta.msg_id;
                let row_id = meta.row_id as usize;
                let accepted = self.pending(meta.epoch, msg_id)
                    && self
                        .ensure_assembly(msg_id)
                        .ingest_into(row_id, |row| row.ingest_meta(&meta).is_ok());
                if !accepted {
                    self.metrics.rejected_meta.inc();
                    return;
                }
                self.drain_ready(api);
            }
            _ => {}
        }
    }
}

/// Builds the ring, installs a worker per host, runs the simulation to
/// quiescence, and returns each worker's resulting blob plus the global trim
/// fraction observed by the workers. The blobs are moved out of the
/// workers, not copied: each installed worker's [`RingWorkerApp::blob`] is
/// empty afterwards.
///
/// # Panics
///
/// Panics as [`RingWorkerApp::new`] does — a `cfg.row_len` of zero among
/// its cases — or if any worker failed to finish (packets were dropped, not
/// merely trimmed — enlarge the priority queues or add links).
pub fn run_ring_allreduce(
    sim: &mut trimgrad_netsim::sim::Simulator,
    cfg: &RingNetConfig,
    blobs: Vec<Vec<f32>>,
    time_limit: trimgrad_netsim::time::SimTime,
) -> (Vec<Vec<f32>>, f64) {
    assert_eq!(blobs.len(), cfg.workers(), "one blob per worker");
    for (rank, blob) in blobs.into_iter().enumerate() {
        sim.install_app(
            cfg.hosts[rank],
            Box::new(RingWorkerApp::new(cfg.clone(), rank, blob)),
        );
    }
    sim.run_until(time_limit);
    let mut out = Vec::with_capacity(cfg.workers());
    let (mut trimmed, mut total) = (0, 0);
    for (rank, &host) in cfg.hosts.iter().enumerate() {
        let app: &mut RingWorkerApp = sim
            .app_mut(host)
            // trimlint: allow(no-panic) -- documented # Panics contract: every host got its worker installed in the loop above
            .expect("worker installed");
        assert!(
            app.is_done(),
            "worker {rank} did not finish (step {} of {})",
            app.step,
            total_steps(cfg.workers())
        );
        trimmed += app.metrics.trimmed_received.get();
        total += app.metrics.packets_received.get();
        out.push(core::mem::take(&mut app.blob));
    }
    let frac = if total == 0 {
        0.0
    } else {
        trimmed as f64 / total as f64
    };
    (out, frac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trimgrad_hadamard::prng::Xoshiro256StarStar;
    use trimgrad_netsim::sim::Simulator;
    use trimgrad_netsim::switch::QueuePolicy;
    use trimgrad_netsim::time::{gbps, SimTime};
    use trimgrad_netsim::topology::Topology;
    use trimgrad_wire::meta::RowMetaPacket;
    use trimgrad_wire::packetize::packetize_row;

    fn star_topology(
        workers: usize,
        policy: QueuePolicy,
        rate_gbps: f64,
    ) -> (Topology, Vec<NodeId>) {
        let mut t = Topology::new();
        let s = t.add_switch(policy);
        let hosts: Vec<NodeId> = (0..workers)
            .map(|_| {
                let h = t.add_host();
                t.link(h, s, gbps(rate_gbps), SimTime::from_micros(1));
                h
            })
            .collect();
        (t, hosts)
    }

    fn blobs(w: usize, len: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = Xoshiro256StarStar::new(seed);
        (0..w)
            .map(|_| (0..len).map(|_| rng.next_f32_range(-1.0, 1.0)).collect())
            .collect()
    }

    fn expected_sum(blobs: &[Vec<f32>]) -> Vec<f32> {
        (0..blobs[0].len())
            .map(|j| blobs.iter().map(|b| b[j]).sum())
            .collect()
    }

    fn cfg(scheme: SchemeId, hosts: Vec<NodeId>, blob_len: usize) -> RingNetConfig {
        RingNetConfig {
            scheme,
            row_len: 1024,
            base_seed: 42,
            epoch: 1,
            mtu: 1500,
            hosts,
            blob_len,
            flow_base: 0,
        }
    }

    #[test]
    #[should_panic(expected = "zero row length")]
    fn a_zero_row_length_panics_before_the_ring_runs() {
        let (topo, hosts) = star_topology(2, QueuePolicy::trim_default(), 100.0);
        let c = RingNetConfig {
            row_len: 0,
            ..cfg(SchemeId::RhtOneBit, hosts, 64)
        };
        let mut sim = Simulator::new(topo);
        let _ = run_ring_allreduce(&mut sim, &c, blobs(2, 64, 1), SimTime::from_secs(1));
    }

    #[test]
    fn uncongested_ring_is_numerically_exact() {
        let w = 4;
        let len = 3000;
        let (topo, hosts) = star_topology(w, QueuePolicy::trim_default(), 100.0);
        let mut sim = Simulator::new(topo);
        let b = blobs(w, len, 1);
        let expect = expected_sum(&b);
        let c = cfg(SchemeId::RhtOneBit, hosts, len);
        let (out, trim_frac) = run_ring_allreduce(&mut sim, &c, b, SimTime::from_secs(5));
        assert_eq!(trim_frac, 0.0, "no congestion expected");
        assert!(sim.conservation_holds());
        for worker in &out {
            let nmse = trimgrad_quant::error::nmse(worker, &expect);
            assert!(nmse < 1e-6, "nmse {nmse}");
        }
    }

    #[test]
    fn congested_ring_trims_but_still_converges_approximately() {
        // A ring through a single switch is one-to-one and never congests
        // itself; add bursty cross-traffic into two workers' downlinks so
        // the shared egress queues overflow and the switch genuinely trims
        // ring frames at the byte level.
        let w = 4;
        let len = 20_000;
        let policy = QueuePolicy {
            data_capacity: 10_000,
            prio_capacity: 512_000,
            ecn_threshold: None,
            action: trimgrad_netsim::switch::FullAction::Trim { grad_depth: 1 },
        };
        let (mut topo, hosts) = star_topology(w, policy, 10.0);
        // Two cross-traffic sources attached to the same switch.
        let switch = NodeId(0);
        let cross: Vec<NodeId> = (0..2)
            .map(|_| {
                let h = topo.add_host();
                topo.link(h, switch, gbps(10.0), SimTime::from_micros(1));
                h
            })
            .collect();
        let mut sim = Simulator::new(topo);
        for (i, &c) in cross.iter().enumerate() {
            sim.install_app(
                c,
                Box::new(trimgrad_netsim::crosstraffic::BulkSenderApp::new(
                    hosts[i + 1],
                    4_000_000,
                    1500,
                    0x9000 + i as u64,
                )),
            );
        }
        let b = blobs(w, len, 2);
        let expect = expected_sum(&b);
        let c = cfg(SchemeId::RhtOneBit, hosts, len);
        let (out, trim_frac) = run_ring_allreduce(&mut sim, &c, b, SimTime::from_secs(60));
        assert!(trim_frac > 0.0, "congestion must trim something");
        assert!(sim.conservation_holds());
        // The reported fraction is the ranks' own counters.
        let snap = sim.telemetry_snapshot();
        let sum = |f: &str| -> u64 {
            (0..w)
                .map(|r| snap.counter(&format!("collective.rank.{r}.{f}")))
                .sum()
        };
        assert_eq!(
            trim_frac,
            sum("trimmed_received") as f64 / sum("packets_received") as f64
        );
        for worker in &out {
            let nmse = trimgrad_quant::error::nmse(worker, &expect);
            assert!(nmse < 1.0, "nmse {nmse} (trim fraction {trim_frac})");
        }
    }

    #[test]
    fn telemetry_counters_match_worker_tallies() {
        let w = 3;
        let len = 4000;
        let (topo, hosts) = star_topology(w, QueuePolicy::trim_default(), 100.0);
        let mut sim = Simulator::new(topo);
        let b = blobs(w, len, 5);
        let c = cfg(SchemeId::RhtOneBit, hosts, len);
        let _ = run_ring_allreduce(&mut sim, &c, b, SimTime::from_secs(5));
        let snap = sim.telemetry_snapshot();
        for rank in 0..w {
            let name = |f: &str| format!("collective.rank.{rank}.{f}");
            assert_eq!(snap.counter(&name("steps_applied")), total_steps(w) as u64);
            assert!(snap.counter(&name("bytes_sent")) > 0);
        }
        // The workers are the only senders, so their send tally is exactly
        // the fabric's: one `collective.*` packet per `netsim.sent`.
        let sent: u64 = (0..w)
            .map(|r| snap.counter(&format!("collective.rank.{r}.packets_sent")))
            .sum();
        assert_eq!(sent, snap.counter("netsim.sent"));
        // Grad data + meta received equals everything the fabric delivered.
        let received: u64 = (0..w)
            .map(|r| {
                snap.counter(&format!("collective.rank.{r}.packets_received"))
                    + snap.counter(&format!("collective.rank.{r}.meta_received"))
            })
            .sum();
        assert_eq!(received, snap.counter("netsim.delivered"));
    }

    #[test]
    fn faulted_ring_with_nonlossy_faults_is_exact() {
        use trimgrad_netsim::fault::{FaultPlan, FaultPolicy};
        let w = 3;
        let len = 2000;
        let b = blobs(w, len, 7);
        let expect = expected_sum(&b);
        let run = |plan: Option<FaultPlan>| {
            let (topo, hosts) = star_topology(w, QueuePolicy::trim_default(), 100.0);
            let mut sim = Simulator::new(topo);
            sim.set_tracer(trimgrad_trace::Tracer::enabled(1 << 16));
            let c = cfg(SchemeId::RhtOneBit, hosts.clone(), len);
            if let Some(p) = plan {
                sim.install_fault_plan(p);
            }
            let (out, _) = run_ring_allreduce(&mut sim, &c, b.clone(), SimTime::from_secs(5));
            (
                out,
                sim.telemetry_snapshot(),
                sim.tracer().snapshot(),
                hosts,
            )
        };
        let (clean, ..) = run(None);
        let plan = FaultPlan::new(0xFA11).with_default(
            FaultPolicy::none()
                .with_duplicate(0.3)
                .with_replay(0.2)
                .with_reorder(0.5, SimTime::from_micros(30)),
        );
        let (faulted, snap, trace, hosts) = run(Some(plan));
        // Duplication, replay, and reordering never lose data, so the ring
        // must converge to the identical bits the clean run produced.
        assert_eq!(clean, faulted, "non-lossy faults changed the result");
        for worker in &faulted {
            let nmse = trimgrad_quant::error::nmse(worker, &expect);
            assert!(nmse < 1e-6, "nmse {nmse}");
        }
        assert!(snap.counter("netsim.injected") > 0, "no fault ever fired");
        assert!(snap.counter("netsim.fault.duplicated") > 0);
        assert!(snap.counter("netsim.fault.replayed") > 0);
        assert!(snap.counter("netsim.fault.reordered") > 0);
        assert_eq!(trace.records[0].seq, 0, "the recorder wrapped");
        assert_completing_frames_mark_rows(&trace, &hosts);
    }

    /// Replays `trace` against a model of what each rank received: every
    /// `row.assembled` is recorded right after the delivery of the frame
    /// that first gave its row a head on every chunk (duplicates, replays
    /// and reordering included), a row is marked once, and there are as
    /// many marks as decoded rows.
    fn assert_completing_frames_mark_rows(trace: &trimgrad_trace::Trace, hosts: &[NodeId]) {
        use std::collections::{BTreeMap, BTreeSet, VecDeque};
        let node = |rank: u32| hosts[rank as usize].0 as u32;
        let next = |n: u32| {
            let rank = hosts.iter().position(|h| h.0 as u32 == n).unwrap();
            hosts[(rank + 1) % hosts.len()].0 as u32
        };
        // The node whose send step is being recorded; per node, the steps
        // recorded but not yet sent (one callback may send several, and
        // their packets follow it) with each row's frame count, and the
        // step whose packets are going out.
        let mut sending = 0;
        let mut recorded: BTreeMap<u32, VecDeque<(u32, Vec<u32>)>> = BTreeMap::new();
        let mut steps: BTreeMap<u32, (u32, Vec<u32>)> = BTreeMap::new();
        // Packet id → (receiver, msg, row, chunk); meta packets map to none.
        let mut frames: BTreeMap<u64, (u32, u32, u32, u32)> = BTreeMap::new();
        // (receiver, msg, row) → (chunks with a head, frames in the row).
        let mut heads: BTreeMap<(u32, u32, u32), (BTreeSet<u32>, u32)> = BTreeMap::new();
        let (mut marked, mut completed) = (0, 0);
        for (i, r) in trace.records.iter().enumerate() {
            match r.event {
                TraceEvent::StepStarted { rank, step, .. } => {
                    sending = node(rank);
                    recorded
                        .entry(sending)
                        .or_default()
                        .push_back((step, Vec::new()));
                }
                TraceEvent::RowEncoded { msg, packets, .. } => {
                    let (step, rows) = recorded.get_mut(&sending).unwrap().back_mut().unwrap();
                    assert_eq!(msg, *step);
                    rows.push(packets);
                }
                TraceEvent::PktSent {
                    node, pseq, pkt, ..
                } => {
                    // Sequence numbers restart at 0 with each step's first
                    // frame; a step with no rows sends nothing.
                    if pseq == 0 {
                        let queue = recorded.get_mut(&node).unwrap();
                        let sent = std::iter::from_fn(|| queue.pop_front())
                            .find(|(_, rows)| !rows.is_empty())
                            .unwrap();
                        steps.insert(node, sent);
                    }
                    // Each row's frames, then its metadata, numbered from 0.
                    let (step, rows) = &steps[&node];
                    let (mut row, mut at) = (0, pseq as u32);
                    while at > rows[row] {
                        at -= rows[row] + 1;
                        row += 1;
                    }
                    if at < rows[row] {
                        frames.insert(pkt, (next(node), *step, row as u32, at));
                        heads
                            .entry((next(node), *step, row as u32))
                            .or_insert((BTreeSet::new(), rows[row]));
                    }
                }
                TraceEvent::PktDelivered { node, pkt, .. } => {
                    let Some(&(to, msg, row, chunk)) = frames.get(&pkt) else {
                        continue;
                    };
                    assert_eq!(to, node);
                    let (got, of) = heads.get_mut(&(node, msg, row)).unwrap();
                    let was_complete = got.len() as u32 == *of;
                    got.insert(chunk);
                    let completes = !was_complete && got.len() as u32 == *of;
                    completed += usize::from(completes);
                    // The mark, if any, is the very next record.
                    let mark = trace.records.get(i + 1).and_then(|m| match m.event {
                        TraceEvent::RowAssembled { msg, row, .. } => Some((m.at, msg, row)),
                        _ => None,
                    });
                    let want = completes.then_some((r.at, msg, row));
                    assert_eq!(mark, want, "record {i}: frame {pkt} to node {node}");
                }
                TraceEvent::RowAssembled { .. } => {
                    assert!(
                        matches!(trace.records[i - 1].event, TraceEvent::PktDelivered { .. }),
                        "record {i}: a mark off any delivery"
                    );
                    marked += 1;
                }
                _ => {}
            }
        }
        let decoded = trace
            .records
            .iter()
            .filter(|r| r.event.kind_name() == "row.decoded")
            .count();
        assert!(marked > 0);
        assert_eq!((marked, completed), (decoded, decoded));
    }

    #[test]
    fn garbage_frames_are_counted_as_rejected() {
        struct GarbageApp {
            dst: NodeId,
        }
        impl App for GarbageApp {
            fn on_start(&mut self, api: &mut HostApi) {
                // A frame of zeros: fails header validation at the receiver.
                let frame = trimgrad_wire::packet::GradPacket::from_frame(vec![0u8; 80]);
                api.send(PacketSpec::grad_data(self.dst, FlowId(0xBAD), 0, frame));
            }
            fn on_packet(&mut self, _pkt: Packet, _api: &mut HostApi) {}
        }

        let w = 2;
        let len = 100;
        let (mut topo, hosts) = star_topology(w, QueuePolicy::trim_default(), 100.0);
        let switch = NodeId(0);
        let attacker = topo.add_host();
        topo.link(attacker, switch, gbps(100.0), SimTime::from_micros(1));
        let mut sim = Simulator::new(topo);
        sim.install_app(attacker, Box::new(GarbageApp { dst: hosts[0] }));
        let b = blobs(w, len, 3);
        let expect = expected_sum(&b);
        let c = cfg(SchemeId::SignMagnitude, hosts.clone(), len);
        let (out, _) = run_ring_allreduce(&mut sim, &c, b, SimTime::from_secs(5));
        let snap = sim.telemetry_snapshot();
        assert_eq!(snap.counter("collective.rank.0.rejected_frames"), 1);
        // The garbage frame must not perturb the all-reduce.
        for worker in &out {
            for (a, e) in worker.iter().zip(&expect) {
                assert!((a - e).abs() < 1e-4, "{a} vs {e}");
            }
        }
    }

    /// Sends one packet after `delay`.
    struct InjectApp {
        delay: SimTime,
        body: Option<PacketSpec>,
    }

    impl App for InjectApp {
        fn on_start(&mut self, api: &mut HostApi) {
            api.timer_in(self.delay, 0);
        }
        fn on_timer(&mut self, _token: u64, api: &mut HostApi) {
            if let Some(spec) = self.body.take() {
                api.send(spec);
            }
        }
        fn on_packet(&mut self, _pkt: Packet, _api: &mut HostApi) {}
    }

    /// A two-worker star at 10 Gb/s plus a third host on a 100 Gb/s link
    /// that sends `spec(third host, rank 1)` to rank 1 after `delay`. Returns
    /// the ring's output, the expected sum and the simulator.
    fn run_with_injected(
        len: usize,
        delay: SimTime,
        spec: impl FnOnce(NodeId, NodeId) -> PacketSpec,
    ) -> (Vec<Vec<f32>>, Vec<f32>, Simulator) {
        run_with(len, delay, |src, dst| Some(spec(src, dst)))
    }

    /// [`run_with_injected`], the third host sending nothing when `spec`
    /// returns `None`: the same fabric, clean.
    fn run_with(
        len: usize,
        delay: SimTime,
        spec: impl FnOnce(NodeId, NodeId) -> Option<PacketSpec>,
    ) -> (Vec<Vec<f32>>, Vec<f32>, Simulator) {
        let w = 2;
        let (mut topo, hosts) = star_topology(w, QueuePolicy::trim_default(), 10.0);
        let injector = topo.add_host();
        topo.link(injector, NodeId(0), gbps(100.0), SimTime::from_micros(1));
        let mut sim = Simulator::new(topo);
        let body = spec(injector, hosts[1]);
        sim.install_app(injector, Box::new(InjectApp { delay, body }));
        let b = blobs(w, len, 17);
        let expect = expected_sum(&b);
        let c = cfg(SchemeId::RhtOneBit, hosts, len);
        let (out, _) = run_ring_allreduce(&mut sim, &c, b, SimTime::from_secs(5));
        (out, expect, sim)
    }

    /// Each worker's output, bit for bit.
    fn bits(out: &[Vec<f32>]) -> Vec<Vec<u32>> {
        out.iter()
            .map(|b| b.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn a_stale_epoch_meta_is_refused_and_the_ring_finishes() {
        // Rank 1's first inbound message is step 0 of the ring at epoch 1:
        // rows of 1024 and 476 coordinates. A metadata packet for its row 0
        // stamped with the previous epoch, landing before any of that row's
        // frames, used to be adopted: the row then refused every fresh
        // frame as a wrong epoch and the ring never finished. One claiming
        // 1000 coordinates, which pad to the same 1024, used to be adopted
        // while the row's own was still on its way, and the worker then
        // panicked decoding a row shorter than its slice.
        let genuine = RowMetaPacket {
            scheme: SchemeId::RhtOneBit,
            msg_id: 0,
            row_id: 0,
            original_len: 1024,
            scale: 1.0,
            epoch: 1,
        };
        let stale = RowMetaPacket {
            epoch: 0,
            ..genuine
        };
        let forged = RowMetaPacket {
            original_len: 1000,
            ..genuine
        };
        let (clean, _, _) = run_with(3000, SimTime::ZERO, |_, _| None);
        for injected in [stale, forged] {
            for delay_ns in [0, 1_000, 2_000, 3_000, 3_500, 10_000] {
                let (out, _, sim) =
                    run_with_injected(3000, SimTime::from_nanos(delay_ns), |_, dst| {
                        PacketSpec::grad_meta(dst, FlowId(0xBAD), 0, injected)
                    });
                let snap = sim.telemetry_snapshot();
                let case = format!("{injected:?} at {delay_ns} ns");
                assert_eq!(snap.counter("collective.rank.1.rejected_meta"), 1, "{case}");
                assert_eq!(bits(&out), bits(&clean), "{case}");
            }
        }
    }

    #[test]
    fn a_frame_for_no_pending_step_allocates_nothing() {
        // A well-formed frame of the ring's scheme and epoch whose message id
        // names no protocol step: refused before an assembly exists.
        let len = 100;
        let msg_id = total_steps(2) as u32 + 3;
        let (out, expect, sim) = run_with_injected(len, SimTime::ZERO, |src, dst| {
            let codec = MessageCodec::with_row_len(SchemeId::RhtOneBit, 42, 1024);
            let enc = &codec.encode_message(&vec![0.5; len / 2], 1, msg_id)[0];
            let net = NetAddrs::between_hosts(src.0 as u32, dst.0 as u32);
            let pkt = PacketizeConfig {
                mtu: 1500,
                net,
                msg_id,
                row_id: 0,
                epoch: 1,
            };
            let frame = packetize_row(enc, &pkt).packets.remove(0);
            PacketSpec::grad_data(dst, FlowId(0xBAD), 0, frame)
        });
        let snap = sim.telemetry_snapshot();
        assert_eq!(snap.counter("collective.rank.1.rejected_frames"), 1);
        // Rank 1's host: the switch is node 0, rank 0's host node 1.
        let app: &RingWorkerApp = sim.app_ref(NodeId(2)).unwrap();
        assert!(
            app.inbox.is_empty(),
            "a never-drained assembly was allocated"
        );
        for worker in &out {
            for (a, e) in worker.iter().zip(&expect) {
                assert!((a - e).abs() < 1e-4, "{a} vs {e}");
            }
        }
    }

    #[test]
    fn a_frame_off_its_chunk_is_refused_mid_row() {
        // Rank 1's first inbound message is step 0 at epoch 1: rows of 1024
        // and 476 RHT coordinates, cut into frames of 360. A frame of its
        // row 0 cut at a smaller MTU, from other values, claims chunk 0 but
        // carries coordinates 0..p for p < 360. Landing after the genuine
        // chunk 0 and before the row completes, it used to overwrite them.
        let len = 3000;
        let (clean, _, _) = run_with(len, SimTime::ZERO, |_, _| None);
        for delay_ns in [2_000, 3_000, 4_000] {
            let (out, _, sim) =
                run_with_injected(len, SimTime::from_nanos(delay_ns), |src, dst| {
                    let codec = MessageCodec::with_row_len(SchemeId::RhtOneBit, 42, 1024);
                    let other = blobs(1, 1024, 99).remove(0);
                    let enc = &codec.encode_message(&other, 1, 0)[0];
                    let pkt = PacketizeConfig {
                        mtu: 1000,
                        net: NetAddrs::between_hosts(src.0 as u32, dst.0 as u32),
                        msg_id: 0,
                        row_id: 0,
                        epoch: 1,
                    };
                    let frame = packetize_row(enc, &pkt).packets.remove(0);
                    let fields = frame.quick_fields().unwrap();
                    assert_eq!((fields.chunk_id, fields.coord_start), (0, 0));
                    assert!(fields.coord_count < 360, "{}", fields.coord_count);
                    PacketSpec::grad_data(dst, FlowId(0xBAD), 0, frame)
                });
            let snap = sim.telemetry_snapshot();
            assert_eq!(
                snap.counter("collective.rank.1.rejected_frames"),
                1,
                "{delay_ns} ns"
            );
            assert_eq!(bits(&out), bits(&clean), "{delay_ns} ns");
        }
    }

    #[test]
    fn ring_steps_and_rows_land_in_the_flight_recorder() {
        use trimgrad_trace::Tracer;
        let w = 3;
        let len = 4000;
        let run = || {
            let (topo, hosts) = star_topology(w, QueuePolicy::trim_default(), 100.0);
            let mut sim = Simulator::new(topo);
            sim.set_tracer(Tracer::enabled(1 << 16));
            let b = blobs(w, len, 11);
            let c = cfg(SchemeId::RhtOneBit, hosts, len);
            let _ = run_ring_allreduce(&mut sim, &c, b, SimTime::from_secs(5));
            let trace = sim.tracer().snapshot();
            let snap = sim.telemetry_snapshot();
            (trace, snap)
        };
        let (trace, snap) = run();
        let count = |kind: &str| {
            trace
                .records
                .iter()
                .filter(|r| r.event.kind_name() == kind)
                .count()
        };
        // Every rank runs every protocol step: one started/applied pair each.
        let steps = w * (2 * (w - 1));
        assert_eq!(count("step.started"), steps);
        assert_eq!(count("step.applied"), steps);
        // Each applied step decoded at least one row, and each decoded row
        // was first encoded by the sender and fully assembled here.
        assert!(count("row.encoded") >= steps);
        assert_eq!(count("row.decoded"), count("row.encoded"));
        assert_eq!(count("row.assembled"), count("row.decoded"));
        // Span aggregation is deterministic call counts, not wall time.
        assert_eq!(
            snap.counter("trace.span.ring.send_step.calls"),
            steps as u64
        );
        assert_eq!(
            snap.counter("trace.span.ring.apply_step.calls"),
            steps as u64
        );
        // Same seed, same trace — byte for byte.
        let (again, _) = run();
        assert_eq!(trace.to_binary(), again.to_binary());
    }

    #[test]
    fn blob_shorter_than_the_ring_sums_exactly() {
        // With blob_len < workers some segments are empty: no packet ever
        // announces them, so the worker must advance past them on its own.
        let w = 4;
        for len in [1usize, 2, 3, 5] {
            let (topo, hosts) = star_topology(w, QueuePolicy::trim_default(), 100.0);
            let mut sim = Simulator::new(topo);
            let b = blobs(w, len, 13);
            let expect = expected_sum(&b);
            let c = cfg(SchemeId::SignMagnitude, hosts, len);
            let (out, _) = run_ring_allreduce(&mut sim, &c, b, SimTime::from_secs(5));
            assert!(sim.conservation_holds(), "len {len}");
            for worker in &out {
                for (a, e) in worker.iter().zip(&expect) {
                    assert!((a - e).abs() < 1e-4, "len {len}: {a} vs {e}");
                }
            }
        }
    }

    #[test]
    fn two_worker_ring_smallest_case() {
        let w = 2;
        let len = 100;
        let (topo, hosts) = star_topology(w, QueuePolicy::trim_default(), 100.0);
        let mut sim = Simulator::new(topo);
        let b = blobs(w, len, 3);
        let expect = expected_sum(&b);
        let c = cfg(SchemeId::SignMagnitude, hosts, len);
        let (out, _) = run_ring_allreduce(&mut sim, &c, b, SimTime::from_secs(5));
        for worker in &out {
            for (a, e) in worker.iter().zip(&expect) {
                assert!((a - e).abs() < 1e-4, "{a} vs {e}");
            }
        }
    }
}
