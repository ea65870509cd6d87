//! The ports a packet takes are the hop-by-hop routing walk.
//!
//! The simulator resolves a flow's route once, when it first sends, into a
//! flat port path that every later packet of the flow follows by cursor. The
//! definition of the route is still [`Routes::next_hop`] asked at each node
//! in turn — so over random small fabrics (sparse switch meshes that may be
//! partitioned, routing tables built toward only some destinations, packets
//! addressed to hosts and to switches, flow ids reused across endpoint
//! pairs) every packet's traced hops must equal that walk, and a packet with
//! no onward route must be dropped at the node where the walk ends, with the
//! `NoRoute` event the walk predicts.
//!
//! [`Routes::next_hop`]: trimgrad_netsim::topology::Routes::next_hop

use proptest::prelude::*;
use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_netsim::host::{App, HostApi};
use trimgrad_netsim::packet::{Packet, PacketSpec};
use trimgrad_netsim::sim::Simulator;
use trimgrad_netsim::switch::QueuePolicy;
use trimgrad_netsim::time::{gbps, SimTime};
use trimgrad_netsim::topology::{NodeKind, Topology};
use trimgrad_netsim::{FlowId, NodeId};
use trimgrad_trace::{sat32, DropReason, TraceEvent, Tracer};

/// Sends a fixed list of packets when the simulation starts.
struct SendAtStart(Vec<PacketSpec>);

impl App for SendAtStart {
    fn on_start(&mut self, api: &mut HostApi) {
        for spec in self.0.drain(..) {
            api.send(spec);
        }
    }
    fn on_packet(&mut self, _pkt: Packet, _api: &mut HostApi) {}
}

/// What the trace says happened to one packet, hop by hop.
#[derive(Debug, PartialEq, Eq)]
enum Step {
    Enqueued {
        node: u32,
        to: u32,
    },
    Delivered {
        node: u32,
    },
    /// `before_id`: dropped at the source, before a packet id was assigned.
    NoRoute {
        node: u32,
        to: u32,
        before_id: bool,
    },
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn packets_follow_the_hop_by_hop_routing_walk(
        n_switches in 1usize..6,
        n_hosts in 2usize..7,
        partial_table in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = Xoshiro256StarStar::new(seed);
        let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
        // Hosts hang off one switch each (so a host is only ever a path's
        // end); the switch mesh keeps each possible link with probability
        // 1/2 and may fall apart into islands.
        let mut topo = Topology::new();
        let delay = SimTime::from_micros(1);
        let switches: Vec<NodeId> = (0..n_switches)
            .map(|_| topo.add_switch(QueuePolicy::trim_default()))
            .collect();
        for i in 0..n_switches {
            for j in i + 1..n_switches {
                if pick(2) == 0 {
                    topo.link(switches[i], switches[j], gbps(40.0), delay);
                }
            }
        }
        let hosts: Vec<NodeId> = (0..n_hosts)
            .map(|_| {
                let h = topo.add_host();
                topo.link(h, switches[pick(n_switches)], gbps(10.0), delay);
                h
            })
            .collect();
        let routes = if partial_table {
            let towards: Vec<NodeId> = (0..topo.len()).filter(|_| pick(2) == 0).map(NodeId).collect();
            topo.build_routes_towards(&towards)
        } else {
            topo.build_routes()
        };

        // Twelve packets from random hosts to random other nodes (hosts or
        // switches, reachable or not), on three flow ids shared by all
        // senders; the sequence number identifies the packet in the trace.
        let mut sends: Vec<(NodeId, NodeId, FlowId)> = Vec::new();
        let mut outboxes: Vec<Vec<PacketSpec>> = vec![Vec::new(); n_hosts];
        for seq in 0..12u64 {
            let h = pick(n_hosts);
            let mut dst = NodeId(pick(topo.len()));
            if dst == hosts[h] {
                dst = switches[0];
            }
            let flow = FlowId(pick(3) as u64);
            sends.push((hosts[h], dst, flow));
            outboxes[h].push(PacketSpec::synthetic(dst, flow, 200, seq));
        }
        let mut sim = Simulator::with_routes(topo.clone(), routes.clone(), seed);
        sim.set_tracer(Tracer::enabled(1 << 12));
        for (h, specs) in outboxes.into_iter().enumerate() {
            sim.install_app(hosts[h], Box::new(SendAtStart(specs)));
        }
        sim.run_until(SimTime::from_millis(10));
        sim.assert_conservation();
        prop_assert_eq!(sim.in_flight(), 0);
        let trace = sim.tracer().snapshot();

        for (seq, &(src, dst, flow)) in sends.iter().enumerate() {
            // The definition: ask the routing table at every node in turn.
            let mut want = Vec::new();
            let mut node = src;
            loop {
                let Some(next) = routes.next_hop(node, dst, flow) else {
                    want.push(Step::NoRoute {
                        node: sat32(node.0),
                        to: sat32(node.0),
                        before_id: node == src,
                    });
                    break;
                };
                want.push(Step::Enqueued { node: sat32(node.0), to: sat32(next.0) });
                node = next;
                if matches!(topo.kind(node), NodeKind::Host) {
                    want.push(Step::Delivered { node: sat32(node.0) });
                    break;
                }
            }
            // What happened: the packet's lifecycle events, in order.
            let got: Vec<Step> = trace
                .records
                .iter()
                .filter(|r| r.event.pkt_seq() == Some(seq as u64))
                .filter_map(|r| match r.event {
                    TraceEvent::PktSent { .. } => None,
                    TraceEvent::PktEnqueued { node, to, .. } => Some(Step::Enqueued { node, to }),
                    TraceEvent::PktDelivered { node, .. } => Some(Step::Delivered { node }),
                    TraceEvent::PktDropped { node, to, pkt, reason: DropReason::NoRoute, .. } => {
                        Some(Step::NoRoute { node, to, before_id: pkt == u64::MAX })
                    }
                    ref other => panic!("unexpected event for packet {seq}: {other:?}"),
                })
                .collect();
            prop_assert_eq!(&got, &want, "packet {} {} → {} on {}", seq, src, dst, flow);
        }
    }
}
