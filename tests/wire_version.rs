//! A frame of the previous wire version is refused, never decoded.
//!
//! Version 1 drew one Rademacher sign per `xoshiro256**` step; version 2
//! takes 64 per draw. A v1 RHT row decoded under v2 would be rotated back
//! by the wrong diagonal — plausible-looking garbage — so every entry point
//! that reads bytes off the wire must stop a v1 frame at its version byte
//! with the typed `WireError::BadVersion`, and the receivers built on them
//! must count it as rejected and carry on. The v1 frames here are valid in
//! every other respect: their stack is resealed after the version byte is
//! rewritten, so the version check, not the checksum check, is what fires.

use trimgrad::collective::ring_netsim::{run_ring_allreduce, RingNetConfig};
use trimgrad::hadamard::prng::Xoshiro256StarStar;
use trimgrad::netsim::host::{App, HostApi};
use trimgrad::netsim::packet::{Packet, PacketSpec};
use trimgrad::netsim::sim::Simulator;
use trimgrad::netsim::switch::QueuePolicy;
use trimgrad::netsim::time::{gbps, SimTime};
use trimgrad::netsim::topology::Topology;
use trimgrad::netsim::{FlowId, NodeId};
use trimgrad::pipeline::{PipelineConfig, TrimmablePipeline};
use trimgrad::quant::SchemeId;
use trimgrad::wire::ipv4::{DSCP_BULK, DSCP_TRIMMED};
use trimgrad::wire::meta::RowMetaPacket;
use trimgrad::wire::packet::{GradPacket, NetAddrs};
use trimgrad::wire::packetize::{packetize_row, PacketizeConfig, PacketizedRow};
use trimgrad::wire::reassemble::RowAssembler;
use trimgrad::wire::stack::{self, PAYLOAD_START};
use trimgrad::wire::{trimhdr, WireError};

/// Offset of the version byte in a data frame (TrimGrad header byte 2) and
/// in a metadata frame (payload byte 2).
const VERSION_AT: usize = PAYLOAD_START + 2;

fn row(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Xoshiro256StarStar::new(seed);
    (0..n).map(|_| rng.next_f32_range(-1.0, 1.0)).collect()
}

/// One RHT row of 1024 coordinates, packetized as message 0, row 0, epoch 1.
fn packetized(net: NetAddrs) -> PacketizedRow {
    let enc = SchemeId::RhtOneBit.encode(&row(1024, 5), 9);
    let cfg = PacketizeConfig {
        mtu: 1500,
        net,
        msg_id: 0,
        row_id: 0,
        epoch: 1,
    };
    packetize_row(&enc, &cfg)
}

/// `frame` with its version byte set to 1 and its stack resealed with its
/// DSCP (bulk for data, priority for metadata).
fn as_v1(mut frame: Vec<u8>, dscp: u8) -> Vec<u8> {
    assert_eq!(
        frame[VERSION_AT],
        trimhdr::VERSION,
        "starts as a current frame"
    );
    frame[VERSION_AT] = 1;
    stack::reseal(&mut frame, dscp);
    frame
}

#[test]
fn a_v1_data_frame_is_refused_on_every_parse_path() {
    let net = NetAddrs::between_hosts(1, 2);
    let pr = packetized(net);
    let current = &pr.packets[0];
    assert!(current.parse().is_ok());
    let v1 = GradPacket::from_frame(as_v1(current.as_bytes().to_vec(), DSCP_BULK));
    // Receiver: full parse and the header-only fast path.
    assert_eq!(v1.parse().unwrap_err(), WireError::BadVersion);
    assert_eq!(v1.quick_fields().unwrap_err(), WireError::BadVersion);
    // Switch: a v1 frame is not trimmed, and not changed.
    let mut trimmed = v1.clone();
    assert_eq!(trimmed.trim_to_depth(1).unwrap_err(), WireError::BadVersion);
    assert_eq!(trimmed, v1);
    // Reassembly: refused, and the row is as if it never arrived.
    let mut asm = RowAssembler::from_meta(&pr.meta);
    assert_eq!(asm.ingest(&v1).unwrap_err(), WireError::BadVersion);
    assert_eq!(asm.coords_received(), 0);
    assert_eq!(asm.epoch(), Some(1), "from the meta, not the v1 frame");
    asm.ingest(current).unwrap();
    assert!(asm.coords_received() > 0);
    // Without the recomputed checksum the checksum check fires first.
    let mut stale = current.as_bytes().to_vec();
    stale[VERSION_AT] = 1;
    let stale = GradPacket::from_frame(stale);
    assert_eq!(stale.parse().unwrap_err(), WireError::BadChecksum);
}

#[test]
fn a_v1_meta_frame_is_refused() {
    let net = NetAddrs::between_hosts(3, 4);
    let meta = packetized(net).meta;
    let frame = meta.build_frame(&net);
    assert_eq!(RowMetaPacket::parse_frame(&frame).unwrap(), meta);
    let v1 = as_v1(frame, DSCP_TRIMMED);
    assert_eq!(
        RowMetaPacket::parse_frame(&v1).unwrap_err(),
        WireError::BadVersion
    );
    let mut payload = meta.to_bytes();
    assert_eq!(payload[2], trimhdr::VERSION);
    payload[2] = 1;
    assert_eq!(
        RowMetaPacket::from_bytes(&payload).unwrap_err(),
        WireError::BadVersion
    );
}

#[test]
fn the_pipeline_refuses_a_message_holding_a_v1_frame() {
    let pipe = TrimmablePipeline::new(PipelineConfig::builder().row_len(1024).build());
    let blob = row(3000, 7);
    let tx = pipe.encode(&blob, 1, 0, 1, 2);
    let mut packets = tx.packets.clone();
    let last = packets.len() - 1;
    packets[last] = GradPacket::from_frame(as_v1(packets[last].as_bytes().to_vec(), DSCP_BULK));
    assert_eq!(
        pipe.decode(&packets, &tx.metas, 1, 0).unwrap_err(),
        WireError::BadVersion
    );
    // The same message without the v1 frame decodes.
    assert!(pipe.decode(&tx.packets, &tx.metas, 1, 0).is_ok());
}

/// Sends one pre-built frame to `dst` when the simulation starts.
struct InjectorApp {
    dst: NodeId,
    frame: Option<GradPacket>,
}

impl App for InjectorApp {
    fn on_start(&mut self, api: &mut HostApi) {
        if let Some(frame) = self.frame.take() {
            api.send(PacketSpec::grad_data(self.dst, FlowId(0x7631), 0, frame));
        }
    }
    fn on_packet(&mut self, _pkt: Packet, _api: &mut HostApi) {}
}

#[test]
fn the_ring_counts_a_v1_frame_as_rejected_and_finishes() {
    let workers = 2;
    let len = 1024;
    let mut topo = Topology::new();
    let sw = topo.add_switch(QueuePolicy::trim_default());
    let mut host = || {
        let h = topo.add_host();
        topo.link(h, sw, gbps(100.0), SimTime::from_micros(1));
        h
    };
    let hosts: Vec<NodeId> = (0..workers).map(|_| host()).collect();
    let injector = host();
    let cfg = RingNetConfig {
        scheme: SchemeId::RhtOneBit,
        row_len: len,
        base_seed: 42,
        epoch: 1,
        mtu: 1500,
        hosts: hosts.clone(),
        blob_len: len,
        flow_base: 0,
    };
    let blobs: Vec<Vec<f32>> = (0..workers).map(|r| row(len, 20 + r as u64)).collect();
    let run = |frame: Option<GradPacket>| {
        let mut sim = Simulator::new(topo.clone());
        sim.install_app(
            injector,
            Box::new(InjectorApp {
                dst: hosts[0],
                frame,
            }),
        );
        let (out, _) = run_ring_allreduce(&mut sim, &cfg, blobs.clone(), SimTime::from_secs(5));
        (out, sim.telemetry_snapshot())
    };
    // A frame of exactly the shape rank 0 waits for — message 0, row 0, the
    // ring's scheme and epoch — but of version 1.
    let net = NetAddrs::between_hosts(injector.0 as u32, hosts[0].0 as u32);
    let v1 = GradPacket::from_frame(as_v1(
        packetized(net).packets[0].as_bytes().to_vec(),
        DSCP_BULK,
    ));
    let (clean, _) = run(None);
    let (out, snap) = run(Some(v1));
    assert_eq!(snap.counter("collective.rank.0.rejected_frames"), 1);
    assert_eq!(snap.counter("collective.rank.1.rejected_frames"), 0);
    assert_eq!(out, clean, "a refused frame must not touch the result");
}
