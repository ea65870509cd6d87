//! The simulator's packet representation.
//!
//! A [`Packet`] is what queues, links, and switches handle: a size, a
//! priority class, trimming attributes, and a typed [`PacketBody`]. Gradient
//! experiments carry real `trimgrad-wire` frames so that the switch's trim
//! operation exercises the actual byte-level truncation; cross-traffic and
//! transport-control packets are synthetic.

use crate::{FlowId, NodeId};
use trimgrad_wire::meta::RowMetaPacket;
use trimgrad_wire::packet::GradPacket;

/// Wire size of a trimmed synthetic packet (the surviving "header"):
/// Ethernet 14 + IPv4 20 + UDP 8 + a 22-byte stub ≈ NDP's trimmed header.
pub const SYNTHETIC_TRIM_STUB: u32 = 64;

/// Wire size of a transport control packet (ACK/NACK/pull).
pub const CONTROL_SIZE: u32 = 64;

/// Transport-level control messages (carried reliably, high priority).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlMsg {
    /// Cumulative acknowledgment: everything below `upto` received.
    CumAck {
        /// One past the highest contiguously received sequence.
        upto: u64,
    },
    /// Asks the sender to retransmit `seq` (receiver-driven, NDP-style,
    /// triggered by a trimmed-synthetic arrival under the reliable model).
    Nack {
        /// Missing sequence number.
        seq: u64,
    },
}

/// Packet payloads.
#[derive(Debug, Clone)]
pub enum PacketBody {
    /// Opaque bytes (cross-traffic, reliable-transport test data).
    Synthetic,
    /// A real trimmable gradient data frame.
    GradData(GradPacket),
    /// A reliable row-metadata packet.
    GradMeta(RowMetaPacket),
    /// A transport control message.
    Control(ControlMsg),
}

/// One simulated packet.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Globally unique id, assigned by the simulator at send time.
    pub id: u64,
    /// Flow this packet belongs to (ECMP hash + statistics key).
    pub flow: FlowId,
    /// Originating host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Current wire size in bytes (shrinks when trimmed).
    pub size: u32,
    /// High-priority queue class (control, metadata, trimmed packets).
    pub priority: bool,
    /// Policy-protected: never trimmed (transports retransmit it on loss).
    pub reliable: bool,
    /// Whether a switch has trimmed this packet.
    pub trimmed: bool,
    /// ECN congestion-experienced mark.
    pub ecn: bool,
    /// Transport sequence number within the flow.
    pub seq: u64,
    /// Marks the highest-sequence packet of its flow (flow comprises
    /// sequences `0..=seq`); receivers use it to detect flow completion.
    pub fin: bool,
    /// Payload.
    pub body: PacketBody,
}

/// What an application specifies when sending (the simulator fills in
/// identity and timing).
#[derive(Debug, Clone)]
pub struct PacketSpec {
    /// Destination host.
    pub dst: NodeId,
    /// Flow id.
    pub flow: FlowId,
    /// Wire size in bytes.
    pub size: u32,
    /// High-priority class.
    pub priority: bool,
    /// Policy-protected from trimming.
    pub reliable: bool,
    /// Transport sequence number.
    pub seq: u64,
    /// Flow-final marker (see [`Packet::fin`]).
    pub fin: bool,
    /// Payload.
    pub body: PacketBody,
}

impl PacketSpec {
    /// Marks this packet as the final sequence of its flow.
    #[must_use]
    pub fn with_fin(mut self) -> Self {
        self.fin = true;
        self
    }

    /// A synthetic bulk-data packet (trimmable, low priority).
    #[must_use]
    pub fn synthetic(dst: NodeId, flow: FlowId, size: u32, seq: u64) -> Self {
        Self {
            dst,
            flow,
            size,
            priority: false,
            reliable: false,
            seq,
            fin: false,
            body: PacketBody::Synthetic,
        }
    }

    /// A control packet (reliable, high priority, fixed small size).
    #[must_use]
    pub fn control(dst: NodeId, flow: FlowId, msg: ControlMsg) -> Self {
        Self {
            dst,
            flow,
            size: CONTROL_SIZE,
            priority: true,
            reliable: true,
            seq: 0,
            fin: false,
            body: PacketBody::Control(msg),
        }
    }

    /// A gradient data packet; size is the frame's wire length.
    #[must_use]
    pub fn grad_data(dst: NodeId, flow: FlowId, seq: u64, frame: GradPacket) -> Self {
        Self {
            dst,
            flow,
            size: trimgrad_wire::narrow::to_u32(frame.wire_len(), "frame length"),
            priority: false,
            reliable: false,
            seq,
            fin: false,
            body: PacketBody::GradData(frame),
        }
    }

    /// A gradient metadata packet (reliable, high priority).
    #[must_use]
    pub fn grad_meta(dst: NodeId, flow: FlowId, seq: u64, meta: RowMetaPacket) -> Self {
        Self {
            dst,
            flow,
            // trimlint: allow(lossy-cast) -- a compile-time constant (66 bytes)
            size: trimgrad_wire::meta::FRAME_LEN as u32,
            priority: true,
            reliable: true,
            seq,
            fin: false,
            body: PacketBody::GradMeta(meta),
        }
    }
}

impl Packet {
    /// A zero-valued placeholder packet. Swapped into a recycled box at the
    /// delivery boundary ([`PacketArena`]) so the real payload can move out
    /// to the application while the allocation returns to the freelist.
    /// Carries no heap data.
    #[must_use]
    pub fn stub() -> Self {
        Self {
            id: u64::MAX,
            flow: FlowId(0),
            src: NodeId(0),
            dst: NodeId(0),
            size: 0,
            priority: false,
            reliable: false,
            trimmed: false,
            ecn: false,
            seq: 0,
            fin: false,
            body: PacketBody::Synthetic,
        }
    }

    /// Attempts the in-switch trim. Returns `true` if the packet shrank (it
    /// is then re-classified high priority), `false` if it must not be
    /// trimmed (reliable, already at minimum, or a control body).
    ///
    /// `grad_depth` is the part depth gradient frames are trimmed to
    /// (1 = heads only).
    pub fn trim(&mut self, grad_depth: u8) -> bool {
        if self.reliable {
            return false;
        }
        match &mut self.body {
            PacketBody::Synthetic => {
                if self.size <= SYNTHETIC_TRIM_STUB {
                    return false;
                }
                self.size = SYNTHETIC_TRIM_STUB;
            }
            PacketBody::GradData(frame) => {
                if frame.trim_to_depth(grad_depth).is_err() {
                    return false;
                }
                let new_size = trimgrad_wire::narrow::to_u32(frame.wire_len(), "frame length");
                if new_size >= self.size {
                    return false; // already at (or below) this depth
                }
                self.size = new_size;
            }
            PacketBody::GradMeta(_) | PacketBody::Control(_) => return false,
        }
        self.trimmed = true;
        self.priority = true;
        true
    }
}

/// What every hop needs of a packet in flight. It rides beside the packet's
/// box — in the port-queue entry and the `Arrive` event — so forwarding never
/// reads the record, whose `size` and `priority` it always equals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Current wire size in bytes.
    pub size: u32,
    /// Index of the next egress port in the simulator's flat path table.
    pub cursor: u32,
    /// High-priority class.
    pub priority: bool,
}

impl Hop {
    /// The hop state of `packet` whose next egress port is at `cursor`.
    // trimlint: hot-path -- per send, per fault-plan clone and refresh
    #[must_use]
    pub fn of(packet: &Packet, cursor: u32) -> Self {
        Self {
            size: packet.size,
            cursor,
            priority: packet.priority,
        }
    }
}

/// A packet inside the fabric: the app-facing [`Packet`] plus the slot of
/// its flow record, resolved at send. Only [`PacketArena::alloc`] makes one;
/// it derefs to the packet it carries. Its per-hop state is a [`Hop`].
#[derive(Debug)]
pub struct InFlight {
    pkt: Packet,
    /// Slot of the packet's flow record in [`crate::stats::Stats`].
    pub(crate) flow_slot: u32,
}

impl InFlight {
    /// Slot of the packet's flow record.
    #[must_use]
    pub fn flow_slot(&self) -> u32 {
        self.flow_slot
    }

    /// Moves the packet out for delivery, leaving an inert
    /// [`Packet::stub`] behind so the box can go back to the arena.
    pub(crate) fn take_packet(&mut self) -> Packet {
        core::mem::replace(&mut self.pkt, Packet::stub())
    }
}

impl core::ops::Deref for InFlight {
    type Target = Packet;
    fn deref(&self) -> &Packet {
        &self.pkt
    }
}

impl core::ops::DerefMut for InFlight {
    fn deref_mut(&mut self) -> &mut Packet {
        &mut self.pkt
    }
}

/// A freelist recycler for the `Box<InFlight>` allocations that ride the
/// event queue.
///
/// The simulator boxes every packet once at send time and the same box
/// travels hop to hop inside `Arrive` events; historically the box was
/// dropped at delivery (or at a drop site) and a fresh one allocated for
/// the next send — one allocator round-trip per packet lifetime, which at
/// datacenter scale dominates the data plane. The arena keeps retired
/// boxes on a LIFO freelist instead: [`PacketArena::alloc`] overwrites
/// every field of a recycled box with the new packet and its flow slot
/// (so no stale payload/flow/seq/slot can leak across reuses —
/// `tests/arena_prop.rs` proves it), and [`PacketArena::free`] returns a
/// box to the list.
///
/// The counters double as a memory probe and a conservation cross-check:
/// `live` equals the simulator's in-flight count at all times, and
/// `high_water` is the peak number of simultaneously live boxes — the
/// arena's resident-set proxy reported by the scale bench.
#[derive(Debug, Default)]
pub struct PacketArena {
    // The boxes themselves are what gets recycled, so the free list holds
    // them boxed.
    #[allow(clippy::vec_box)]
    pool: Vec<Box<InFlight>>,
    fresh: u64,
    recycled: u64,
    freed: u64,
    live: u64,
    high_water: u64,
}

impl PacketArena {
    /// An empty arena (no boxes pooled, all counters zero).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Boxes `packet` with its flow slot, reusing a pooled allocation when
    /// one is available. Every field of a recycled box is overwritten.
    // trimlint: hot-path -- per-send/per-injection packet boxing
    pub fn alloc(&mut self, packet: Packet, flow_slot: u32) -> Box<InFlight> {
        self.live += 1;
        if self.live > self.high_water {
            self.high_water = self.live;
        }
        let in_flight = InFlight {
            pkt: packet,
            flow_slot,
        };
        if let Some(mut slot) = self.pool.pop() {
            self.recycled += 1;
            *slot = in_flight;
            slot
        } else {
            self.fresh += 1;
            // trimlint: allow(hot-path-alloc) -- pool-miss slow path; steady state recycles from the freelist
            Box::new(in_flight)
        }
    }

    /// Returns a box to the freelist for reuse.
    // trimlint: hot-path -- per-delivery/per-drop packet retirement
    pub fn free(&mut self, slot: Box<InFlight>) {
        self.live -= 1;
        self.freed += 1;
        self.pool.push(slot);
    }

    /// Boxes currently checked out (allocated and not yet freed).
    #[must_use]
    pub fn live(&self) -> u64 {
        self.live
    }

    /// Peak simultaneous live boxes — the arena's memory high-water mark.
    #[must_use]
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Allocations served by the system allocator (freelist was empty).
    #[must_use]
    pub fn fresh_allocations(&self) -> u64 {
        self.fresh
    }

    /// Allocations served by recycling a pooled box.
    #[must_use]
    pub fn recycled_allocations(&self) -> u64 {
        self.recycled
    }

    /// Boxes returned through [`PacketArena::free`].
    #[must_use]
    pub fn freed(&self) -> u64 {
        self.freed
    }

    /// Total allocations, fresh and recycled.
    #[must_use]
    pub fn total_allocations(&self) -> u64 {
        self.fresh + self.recycled
    }

    /// Boxes currently parked on the freelist.
    #[must_use]
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trimgrad_quant::scheme::RowScratch;
    use trimgrad_quant::SchemeId;
    use trimgrad_wire::packet::NetAddrs;
    use trimgrad_wire::packetize::{packetize_with, PacketizeConfig};

    fn pkt(spec: PacketSpec) -> Packet {
        Packet {
            id: 1,
            flow: spec.flow,
            src: NodeId(0),
            dst: spec.dst,
            size: spec.size,
            priority: spec.priority,
            reliable: spec.reliable,
            trimmed: false,
            ecn: false,
            seq: spec.seq,
            fin: spec.fin,
            body: spec.body,
        }
    }

    fn grad_frame() -> GradPacket {
        let row: Vec<f32> = (0..360).map(|i| i as f32 - 180.0).collect();
        let mut scratch = RowScratch::default();
        let staged = SchemeId::SignMagnitude.stage(&row, 0, &mut scratch);
        let cfg = PacketizeConfig {
            mtu: 1500,
            net: NetAddrs::between_hosts(1, 2),
            msg_id: 0,
            row_id: 0,
            epoch: 0,
        };
        let (n, meta) = (staged.n(), staged.meta());
        packetize_with(
            SchemeId::SignMagnitude,
            n,
            meta,
            &cfg,
            |part, coords, dst| {
                staged.pack_range(part, coords, dst);
            },
        )
        .packets
        .into_iter()
        .next()
        .unwrap()
    }

    #[test]
    fn synthetic_trim_shrinks_to_stub() {
        let mut p = pkt(PacketSpec::synthetic(NodeId(1), FlowId(1), 1500, 0));
        assert!(p.trim(1));
        assert_eq!(p.size, SYNTHETIC_TRIM_STUB);
        assert!(p.trimmed && p.priority);
        // Second trim is refused (already minimal).
        assert!(!p.trim(1));
    }

    #[test]
    fn tiny_synthetic_refuses_trim() {
        let mut p = pkt(PacketSpec::synthetic(NodeId(1), FlowId(1), 64, 0));
        assert!(!p.trim(1));
        assert!(!p.trimmed);
    }

    #[test]
    fn control_and_meta_never_trim() {
        let mut c = pkt(PacketSpec::control(
            NodeId(1),
            FlowId(1),
            ControlMsg::CumAck { upto: 3 },
        ));
        assert!(!c.trim(1));
        let meta = RowMetaPacket {
            scheme: trimgrad_quant::SchemeId::RhtOneBit,
            msg_id: 1,
            row_id: 1,
            original_len: 10,
            scale: 1.0,
            epoch: 0,
        };
        let mut m = pkt(PacketSpec::grad_meta(NodeId(1), FlowId(1), 0, meta));
        assert!(m.reliable && m.priority);
        assert!(!m.trim(1));
    }

    #[test]
    fn grad_data_trim_performs_real_truncation() {
        let frame = grad_frame();
        let full_len = frame.wire_len() as u32;
        let mut p = pkt(PacketSpec::grad_data(NodeId(2), FlowId(9), 0, frame));
        assert_eq!(p.size, full_len);
        assert!(p.trim(1));
        assert!(p.size < full_len / 10);
        // The carried frame is genuinely trimmed and still parses.
        if let PacketBody::GradData(f) = &p.body {
            let parsed = f.parse().unwrap();
            assert_eq!(parsed.fields.trim_depth, 1);
        } else {
            panic!("body changed type");
        }
        // Re-trimming to the same depth is refused (no further shrink).
        assert!(!p.trim(1));
    }

    #[test]
    fn reliable_flag_blocks_trim_regardless_of_body() {
        let mut p = pkt(PacketSpec::synthetic(NodeId(1), FlowId(1), 1500, 0));
        p.reliable = true;
        assert!(!p.trim(1));
    }

    #[test]
    fn arena_recycles_and_counts() {
        let mut arena = PacketArena::new();
        let a = arena.alloc(pkt(PacketSpec::synthetic(NodeId(1), FlowId(1), 1500, 0)), 1);
        let b = arena.alloc(pkt(PacketSpec::synthetic(NodeId(1), FlowId(2), 1500, 1)), 2);
        assert_eq!(arena.live(), 2);
        assert_eq!(arena.high_water(), 2);
        assert_eq!(arena.fresh_allocations(), 2);
        arena.free(a);
        arena.free(b);
        assert_eq!(arena.live(), 0);
        assert_eq!(arena.pooled(), 2);
        let c = arena.alloc(pkt(PacketSpec::synthetic(NodeId(2), FlowId(3), 640, 7)), 3);
        assert_eq!(arena.recycled_allocations(), 1);
        assert_eq!(arena.fresh_allocations(), 2);
        assert_eq!(arena.high_water(), 2, "high water does not regress");
        // The recycled box carries only the new packet's fields.
        assert_eq!(c.flow, FlowId(3));
        assert_eq!(c.seq, 7);
        assert_eq!(c.size, 640);
        assert_eq!(c.dst, NodeId(2));
        assert_eq!(c.flow_slot(), 3);
        assert_eq!(
            Hop::of(&c, 4),
            Hop {
                size: 640,
                cursor: 4,
                priority: false
            }
        );
        assert_eq!(arena.total_allocations(), 3);
        assert_eq!(arena.freed(), 2);
    }

    #[test]
    fn stub_is_inert() {
        let s = Packet::stub();
        assert_eq!(s.size, 0);
        assert!(!s.priority && !s.reliable && !s.trimmed && !s.ecn);
        assert!(matches!(s.body, PacketBody::Synthetic));
    }

    #[test]
    fn meta_packet_size_is_small() {
        let meta = RowMetaPacket {
            scheme: trimgrad_quant::SchemeId::RhtOneBit,
            msg_id: 0,
            row_id: 0,
            original_len: 0,
            scale: 0.0,
            epoch: 0,
        };
        let spec = PacketSpec::grad_meta(NodeId(1), FlowId(1), 0, meta);
        assert_eq!(spec.size as usize, 14 + 20 + 8 + 24);
    }
}
