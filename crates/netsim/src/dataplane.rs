//! The per-packet data plane: host send, switch arrival, port enqueue and
//! serializer start, and the per-flow port paths packets follow.
//!
//! A flow's route is resolved once, when it first sends: [`FlowPaths`] walks
//! the routing table from source to destination and records the egress
//! [`PortId`] of every hop in one flat table. A packet in flight carries a
//! cursor into that table ([`Hop::cursor`]), so a switch arrival is a load
//! and an increment instead of an ECMP-set lookup, a flow hash and a
//! neighbor search; events likewise name the port they concern. The packet
//! record is read only at send, at a trim or ECN mark, under a fault plan,
//! for the flight recorder and at delivery.

use crate::event::EventKind;
use crate::packet::{Hop, InFlight, Packet, PacketSpec};
use crate::ports::{DensePortTable, PortId};
use crate::sim::Simulator;
use crate::switch::{EnqueueOutcome, FullAction, QueuePolicy};
use crate::time::SimTime;
use crate::topology::{NodeKind, Routes};
use crate::{FlowId, NodeId};
use std::collections::BTreeMap;
use trimgrad_trace::{sat32, DropReason, TraceEvent};

/// The host NIC queue policy: deep FIFO, no trimming (the sending host can
/// hold its own backlog; congestion logic lives in the fabric's switches).
fn host_nic_policy() -> QueuePolicy {
    QueuePolicy {
        data_capacity: 1 << 30,
        prio_capacity: 1 << 30,
        ecn_threshold: None,
        action: FullAction::DropTail,
    }
}

/// The path-table entry that ends every path: there is no onward port at
/// the node reached. At the destination host it is never read; anywhere else
/// it is where the packet is dropped for want of a route.
const NO_ROUTE: u32 = u32::MAX;

/// What identifies a route: ECMP hashes the flow id, so two flows that share
/// an id but not endpoints take different paths.
type FlowKey = (NodeId, NodeId, FlowId);

/// Every flow's path through the fabric, resolved on first use.
#[derive(Debug, Default)]
pub(crate) struct FlowPaths {
    /// Concatenated paths: the egress `PortId` of each hop from source to
    /// destination, then [`NO_ROUTE`].
    hops: Vec<u32>,
    /// Where each flow's path starts in `hops`.
    starts: BTreeMap<FlowKey, u32>,
    /// The last answer: hosts send in per-flow bursts.
    last: Option<(FlowKey, u32)>,
}

impl FlowPaths {
    /// Index in `hops` of the first port of `key`'s path.
    // trimlint: hot-path -- once per send; a burst of one flow hits the memo
    fn start(&mut self, routes: &Routes, ports: &DensePortTable, key: FlowKey) -> u32 {
        if let Some((last, start)) = self.last {
            if last == key {
                return start;
            }
        }
        let start = match self.starts.get(&key) {
            Some(&start) => start,
            None => {
                let start = self.resolve(routes, ports, key);
                self.starts.insert(key, start);
                start
            }
        };
        self.last = Some((key, start));
        start
    }

    /// Appends the path of `(src, dst, flow)`: the same hop-by-hop
    /// `Routes::next_hop` walk a packet would make, so it ends — with
    /// [`NO_ROUTE`] — exactly where that walk finds no next hop.
    fn resolve(&mut self, routes: &Routes, ports: &DensePortTable, key: FlowKey) -> u32 {
        let (src, dst, flow) = key;
        // trimlint: allow(lossy-cast) -- in-flight packets index the table with a u32 cursor
        let start = self.hops.len() as u32;
        let mut node = src;
        // Shortest-path next hops strictly approach `dst`, so the walk ends.
        while let Some(next) = routes.next_hop(node, dst, flow) {
            self.hops.push(ports.key(node, next).0);
            node = next;
        }
        self.hops.push(NO_ROUTE);
        start
    }
}

impl Simulator {
    pub(crate) fn send_from_host(&mut self, node: NodeId, spec: PacketSpec) {
        let start = self
            .paths
            .start(&self.routes, &self.ports, (node, spec.dst, spec.flow));
        let first = self.paths.hops[start as usize];
        let flow_slot = self.ledger.on_sent(spec.flow, self.now);
        if first == NO_ROUTE {
            // No route: the send is silently dropped before entering the
            // network (counted so conservation still holds). No packet id
            // was ever assigned, hence the u64::MAX sentinel.
            self.ledger.no_route_at_host += 1;
            self.tracer
                .emit(self.now.as_nanos(), || TraceEvent::PktDropped {
                    node: sat32(node.0),
                    to: sat32(node.0),
                    flow: spec.flow.0,
                    pseq: spec.seq,
                    pkt: u64::MAX,
                    reason: DropReason::NoRoute,
                });
            return;
        }
        let packet = Packet {
            id: self.next_pkt_id,
            flow: spec.flow,
            src: node,
            dst: spec.dst,
            size: spec.size,
            priority: spec.priority,
            reliable: spec.reliable,
            trimmed: false,
            ecn: false,
            seq: spec.seq,
            fin: spec.fin,
            body: spec.body,
        };
        let hop = Hop::of(&packet, start + 1);
        let packet = self.arena.alloc(packet, flow_slot);
        self.next_pkt_id += 1;
        self.tracer
            .emit(self.now.as_nanos(), || TraceEvent::PktSent {
                node: sat32(node.0),
                flow: packet.flow.0,
                pseq: packet.seq,
                pkt: packet.id,
                size: packet.size,
            });
        self.enqueue_on_port(PortId(first), packet, hop, &host_nic_policy());
    }

    // Delivery hands packets to app code via `with_app`, so this is not a
    // lint hot-path root; the spine calls it makes are annotated.
    pub(crate) fn handle_arrive(&mut self, port: PortId, mut packet: Box<InFlight>, mut hop: Hop) {
        let node = self.ports.to(port);
        match self.topo.kind(node) {
            NodeKind::Host => {
                assert_eq!(packet.dst, node, "misrouted packet reached a host");
                self.ledger.on_delivered(packet.flow_slot, packet.trimmed);
                self.tracer
                    .emit(self.now.as_nanos(), || TraceEvent::PktDelivered {
                        node: sat32(node.0),
                        flow: packet.flow.0,
                        pseq: packet.seq,
                        pkt: packet.id,
                        size: packet.size,
                        trimmed: packet.trimmed,
                    });
                // Move the payload out and recycle the box: the `App` trait
                // keeps taking packets by value, while the allocation that
                // rode the event queue returns to the arena for the next
                // send.
                let inner = packet.take_packet();
                self.arena.free(packet);
                self.with_app(node, |app, api| app.on_packet(inner, api));
            }
            NodeKind::Switch(policy) => {
                let next = self.paths.hops[hop.cursor as usize];
                if next == NO_ROUTE {
                    // Unreachable destination: count as a drop.
                    self.ledger.no_route_at_switch += 1;
                    self.tracer
                        .emit(self.now.as_nanos(), || TraceEvent::PktDropped {
                            node: sat32(node.0),
                            to: sat32(node.0),
                            flow: packet.flow.0,
                            pseq: packet.seq,
                            pkt: packet.id,
                            reason: DropReason::NoRoute,
                        });
                    self.arena.free(packet);
                    return;
                }
                hop.cursor += 1;
                self.enqueue_on_port(PortId(next), packet, hop, &policy);
            }
        }
    }

    // trimlint: hot-path -- switch enqueue + trim/drop accounting
    fn enqueue_on_port(&mut self, key: PortId, pkt: Box<InFlight>, hop: Hop, policy: &QueuePolicy) {
        // The record's identity is read only for the recorder or tenant scopes.
        let (flow, pseq, id) = if self.tracer.is_enabled() || !self.flow_scopes.is_empty() {
            (pkt.flow.0, pkt.seq, pkt.id)
        } else {
            (0, 0, 0)
        };
        // The port counts the outcome (and any ECN mark) itself.
        let port = self.ports.get_mut(key);
        let (outcome, rejected) = port.enqueue(pkt, hop, policy);
        let trimmed_size = if outcome == EnqueueOutcome::Trimmed {
            port.newest_priority_size()
        } else {
            0
        };
        let low = port.low_bytes();
        let queued = u32::try_from(port.queued_packets()).unwrap_or(u32::MAX);
        self.ports.record_depth(key, low, queued);
        if let Some(slot) = rejected {
            self.arena.free(slot);
        }
        self.ledger.observe_queue(low);
        let at = self.now.as_nanos();
        // The link's two ends, for trace events only (a search, not a load).
        let ports = &self.ports;
        let ends = || (sat32(ports.from(key).0), sat32(ports.to(key).0));
        let size = hop.size;
        match outcome {
            EnqueueOutcome::Data | EnqueueOutcome::Priority => {
                self.tracer.emit(at, || {
                    let (node, to) = ends();
                    TraceEvent::PktEnqueued {
                        node,
                        to,
                        flow,
                        pseq,
                        pkt: id,
                        size,
                        prio: outcome == EnqueueOutcome::Priority,
                    }
                });
            }
            EnqueueOutcome::Trimmed => {
                if let Some(t) = self.flow_scopes.get(&(flow >> 32)) {
                    t.trimmed.inc();
                    t.trim_bytes
                        .add(u64::from(size.saturating_sub(trimmed_size)));
                }
                self.tracer.emit(at, || {
                    let (node, to) = ends();
                    TraceEvent::PktTrimmed {
                        node,
                        to,
                        flow,
                        pseq,
                        pkt: id,
                        old_size: size,
                        new_size: trimmed_size,
                    }
                });
            }
            EnqueueOutcome::DroppedDataFull | EnqueueOutcome::DroppedPrioFull => {
                let reason = if outcome == EnqueueOutcome::DroppedDataFull {
                    DropReason::DataFull
                } else {
                    DropReason::PrioFull
                };
                self.tracer.emit(at, || {
                    let (node, to) = ends();
                    TraceEvent::PktDropped {
                        node,
                        to,
                        flow,
                        pseq,
                        pkt: id,
                        reason,
                    }
                });
                return;
            }
        }
        self.port_try_start(key);
    }

    // trimlint: hot-path -- egress serializer start (dequeue + schedule)
    pub(crate) fn port_try_start(&mut self, port: PortId) {
        // Consult the dense busy/queued mirrors first so the common
        // "port already serializing" / "nothing queued" cases never pull a
        // scattered PortState line into cache.
        if self.ports.is_busy(port) || !self.ports.has_backlog(port) {
            return;
        }
        let state = self.ports.get_mut(port);
        let Some((mut packet, mut hop)) = state.dequeue() else {
            return;
        };
        let low = state.low_bytes();
        let queued = u32::try_from(state.queued_packets()).unwrap_or(u32::MAX);
        self.ports.set_busy(port, true);
        self.ports.record_depth(port, low, queued);
        // Link params come from the port table's build-time cache, not a
        // linear adjacency scan per packet.
        let params = self.ports.params(port);
        let ser = params.rate.serialize_time(hop.size as usize);
        self.queue
            .schedule(self.now + ser, EventKind::PortFree { port });
        let ports = &self.ports;
        let dropped = |packet: &InFlight, reason| TraceEvent::PktDropped {
            node: sat32(ports.from(port).0),
            to: sat32(ports.to(port).0),
            flow: packet.flow.0,
            pseq: packet.seq,
            pkt: packet.id,
            reason,
        };
        // Random in-flight loss.
        if params.drop_prob > 0.0 && f64::from(self.rng.next_f32()) < params.drop_prob {
            self.ledger.dropped_random += 1;
            self.tracer
                .emit(self.now.as_nanos(), || dropped(&packet, DropReason::Random));
            self.arena.free(packet);
            return;
        }
        // Fault injection: the installed plan draws this packet's fate on
        // the channel, possibly mutating it (corruption/truncation),
        // destroying it, delaying it, or materializing extra clones.
        let mut extra_delay = SimTime::ZERO;
        if let Some(plan) = &mut self.fault_plan {
            let (node, to) = (ports.from(port), ports.to(port));
            let outcome = plan.apply(node, to, &mut packet);
            if outcome.drop {
                self.tracer
                    .emit(self.now.as_nanos(), || dropped(&packet, DropReason::Fault));
                self.arena.free(packet);
                return;
            }
            extra_delay = outcome.extra_delay;
            // A truncation may have shrunk or reclassified the record.
            hop = Hop::of(&packet, hop.cursor);
            for (clone, jitter) in outcome.injected {
                self.tracer
                    .emit(self.now.as_nanos(), || TraceEvent::FaultInjected {
                        node: sat32(node.0),
                        to: sat32(to.0),
                        flow: clone.flow.0,
                        pseq: clone.seq,
                        pkt: clone.id,
                    });
                let (cursor, flow_slot) = self.clone_route(port, &clone);
                self.queue.schedule(
                    self.now + ser + params.delay + jitter,
                    EventKind::Arrive {
                        port,
                        hop: Hop::of(&clone, cursor),
                        packet: self.arena.alloc(clone, flow_slot),
                    },
                );
            }
        }
        self.queue.schedule(
            self.now + ser + params.delay + extra_delay,
            EventKind::Arrive { port, packet, hop },
        );
    }

    /// The path cursor and flow slot of a fault-plan clone about to arrive
    /// over `key`. A duplicate shares the original's; a stale replay is some
    /// earlier packet of this channel and may belong to another flow, so
    /// both are found from the clone's own path: it crossed `key`, and its
    /// next port is the one after.
    fn clone_route(&mut self, key: PortId, clone: &Packet) -> (u32, u32) {
        let start = self.paths.start(
            &self.routes,
            &self.ports,
            (clone.src, clone.dst, clone.flow),
        );
        let mut cursor = start;
        loop {
            let port = self.paths.hops[cursor as usize];
            if port == NO_ROUTE {
                break;
            }
            cursor += 1;
            if port == key.0 {
                break;
            }
        }
        (cursor, self.ledger.flow_slot(clone.flow))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::QueuePolicy;
    use crate::time::gbps;
    use crate::topology::Topology;

    #[test]
    fn paths_are_resolved_once_and_shared_ids_stay_apart() {
        // a - s1 - b and c - s1: flow 7 from a and flow 7 from c both go to
        // b, over different first ports.
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        let c = t.add_host();
        let s = t.add_switch(QueuePolicy::trim_default());
        for h in [a, b, c] {
            t.link(h, s, gbps(10.0), SimTime::from_micros(1));
        }
        let routes = t.build_routes();
        let ports = DensePortTable::new(&t);
        let mut paths = FlowPaths::default();
        let from_a = paths.start(&routes, &ports, (a, b, FlowId(7)));
        let from_c = paths.start(&routes, &ports, (c, b, FlowId(7)));
        assert_ne!(from_a, from_c);
        let path = |start: u32| paths.hops[start as usize..start as usize + 3].to_vec();
        assert_eq!(
            path(from_a),
            vec![ports.key(a, s).0, ports.key(s, b).0, NO_ROUTE]
        );
        assert_eq!(
            path(from_c),
            vec![ports.key(c, s).0, ports.key(s, b).0, NO_ROUTE]
        );
        // Asking again (memo hit, then index hit) appends nothing.
        let len = paths.hops.len();
        assert_eq!(paths.start(&routes, &ports, (c, b, FlowId(7))), from_c);
        assert_eq!(paths.start(&routes, &ports, (a, b, FlowId(7))), from_a);
        assert_eq!(paths.hops.len(), len);
    }

    #[test]
    fn an_unreachable_destination_is_a_path_of_one_sentinel() {
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        let routes = t.build_routes();
        let ports = DensePortTable::new(&t);
        let mut paths = FlowPaths::default();
        let start = paths.start(&routes, &ports, (a, b, FlowId(1)));
        assert_eq!(paths.hops[start as usize..], [NO_ROUTE]);
    }
}
