//! Discrete-event data-center network simulator with packet trimming.
//!
//! This crate is the substrate for the paper's networking claims: it models
//! hosts, links, and shallow-buffer output-queued switches that can react to
//! congestion by **trimming** packets (keeping a short prefix and forwarding
//! it in a high-priority queue, as in NDP / EODS / Ultra Ethernet), by
//! dropping (the tail-drop baseline), or by ECN marking.
//!
//! # Architecture
//!
//! * [`time`] — nanosecond simulated clock and rate arithmetic.
//! * [`event`] — deterministic calendar queue (time, then FIFO sequence).
//! * [`packet`] — the simulator's packet: size + priority + a typed body
//!   (real TrimGrad frames from `trimgrad-wire`, or synthetic cross-traffic).
//! * [`link`] / [`switch`] / [`topology`] — the dataplane: store-and-forward
//!   output-queued switches, two priority queues per port, a configurable
//!   full-queue policy, static shortest-path routing with ECMP by flow hash.
//! * [`fault`] — deterministic, seeded fault injection: per-link/per-switch
//!   loss bursts, reordering, duplication, corruption, truncation, and stale
//!   replay, replayable from the plan's seed.
//! * [`host`] — the [`host::App`] trait: endpoint logic (transports,
//!   collectives, traffic generators) runs as apps installed on hosts.
//! * [`ports`] — dense per-directed-link port table
//!   ([`ports::DensePortTable`]): build-time `PortId` assignment from the
//!   CSR adjacency, O(1) indexed `PortState` storage, cached link params,
//!   and an allocation-free queue-depth mirror.
//! * [`sim`] — the event loop: construction, `run_until`, event dispatch,
//!   host-app callbacks and the samplers; the per-packet data plane it
//!   drives (host send, switch arrival, port enqueue, serializer start, the
//!   per-flow port paths) is the crate-private `dataplane` module.
//! * [`transport`] — message-level services on top of packets: a reliable
//!   retransmitting transport (the "NCCL baseline") and the trimming
//!   transport (no payload retransmission; trimmed heads are final).
//! * [`crosstraffic`] — on/off bursts and incast generators.
//! * [`workload`] — seeded datacenter workload schedules (incast, outcast,
//!   permutation, cross-traffic storm) materialized from a single seed.
//! * [`stats`] — flow completion times, queue depths, trim/drop/retransmit
//!   counters, conservation checks.
//!
//! # Example
//!
//! ```
//! use trimgrad_netsim::topology::Topology;
//! use trimgrad_netsim::sim::Simulator;
//! use trimgrad_netsim::switch::QueuePolicy;
//! use trimgrad_netsim::crosstraffic::BulkSenderApp;
//! use trimgrad_netsim::time::{SimTime, gbps};
//!
//! // Two hosts across one switch; 10 Gbps links, trimming switch.
//! let mut topo = Topology::new();
//! let h = [topo.add_host(), topo.add_host()];
//! let s = topo.add_switch(QueuePolicy::trim_default());
//! topo.link(h[0], s, gbps(10.0), SimTime::from_micros(1));
//! topo.link(h[1], s, gbps(10.0), SimTime::from_micros(1));
//! let mut sim = Simulator::new(topo);
//! sim.install_app(h[0], Box::new(BulkSenderApp::new(h[1], 100_000, 1500, 1)));
//! sim.run_until(SimTime::from_millis(100));
//! assert_eq!(sim.stats().delivered_packets(), 67); // ⌈100000 / 1500⌉
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crosstraffic;
mod dataplane;
pub mod event;
pub mod fault;
pub mod host;
pub mod link;
pub mod packet;
pub mod ports;
pub mod sim;
pub mod stats;
pub mod switch;
pub mod time;
pub mod topology;
pub mod transport;
pub mod workload;

/// Identifies a node (host or switch) in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies a flow (sender-chosen; used for ECMP hashing and statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

impl core::fmt::Display for FlowId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "f{}", self.0)
    }
}
