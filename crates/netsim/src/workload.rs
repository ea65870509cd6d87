//! Seeded workload generation for datacenter-scale scenarios.
//!
//! A [`FlowSchedule`] is a fully materialized list of flows — who sends to
//! whom, how much, starting when — derived from a workload shape and a
//! single seed. Generation is pure (one [`Xoshiro256StarStar`] stream, no
//! ambient randomness, no hash-order dependence), so the same seed always
//! yields the byte-identical schedule: [`FlowSchedule::encode`] is the
//! canonical byte form and [`FlowSchedule::digest`] its FNV-1a fingerprint,
//! which the determinism tests pin across thread-pool widths.
//!
//! Shapes, after the incast/outcast/permutation/storm taxonomy datacenter
//! transport papers evaluate against:
//!
//! * [`FlowSchedule::incast`] — many synchronized senders into one receiver,
//!   the paper's motivating congestion storm;
//! * [`FlowSchedule::outcast`] — one source fanning out to many receivers
//!   (e.g. a parameter broadcast);
//! * [`FlowSchedule::permutation`] — every host sends to exactly one other
//!   host and receives from exactly one, the classic full-bisection load;
//! * [`FlowSchedule::storm`] — random pairs at random start times with
//!   random sizes, the unpredictable cross-traffic background.

use crate::host::{App, HostApi, SinkApp};
use crate::packet::Packet;
use crate::sim::Simulator;
use crate::time::SimTime;
use crate::{FlowId, NodeId};
use trimgrad_hadamard::prng::Xoshiro256StarStar;

/// One flow of a workload: `bytes` from `src` to `dst` in `packet_size`
/// chunks, first packet handed to the NIC at `start`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSpec {
    /// Sending host.
    pub src: NodeId,
    /// Receiving host.
    pub dst: NodeId,
    /// Flow id (unique within the schedule).
    pub flow: FlowId,
    /// Total payload bytes.
    pub bytes: u64,
    /// Chunk size (the last packet may be short).
    pub packet_size: u32,
    /// When the source starts sending.
    pub start: SimTime,
}

impl FlowSpec {
    /// Number of packets the flow comprises.
    #[must_use]
    pub fn packet_count(&self) -> u64 {
        self.bytes.div_ceil(u64::from(self.packet_size))
    }
}

/// A deterministic, fully materialized traffic schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSchedule {
    /// Flows sorted by `(start, flow id)`.
    pub flows: Vec<FlowSpec>,
}

/// Draws `count` distinct indices out of `0..n` (a partial Fisher–Yates
/// shuffle over an index vector), deterministically from `rng`.
fn draw_distinct(rng: &mut Xoshiro256StarStar, n: usize, count: usize) -> Vec<usize> {
    debug_assert!(count <= n);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..count {
        let j = i + (rng.next_u64() % (n - i) as u64) as usize;
        idx.swap(i, j);
    }
    idx.truncate(count);
    idx
}

impl FlowSchedule {
    /// `fan_in` senders, drawn from `hosts`, each sending `bytes` to one
    /// receiver (also drawn from `hosts`) starting simultaneously at time
    /// zero — the synchronized incast burst.
    ///
    /// # Panics
    ///
    /// Panics unless `hosts` has more than `fan_in` members.
    #[must_use]
    pub fn incast(
        hosts: &[NodeId],
        fan_in: usize,
        bytes: u64,
        packet_size: u32,
        seed: u64,
    ) -> Self {
        assert!(fan_in < hosts.len(), "incast needs fan_in + 1 hosts");
        let mut rng = Xoshiro256StarStar::new(seed);
        let picks = draw_distinct(&mut rng, hosts.len(), fan_in + 1);
        let receiver = hosts[picks[0]];
        let flows = picks[1..]
            .iter()
            .enumerate()
            .map(|(i, &s)| FlowSpec {
                src: hosts[s],
                dst: receiver,
                flow: FlowId(i as u64),
                bytes,
                packet_size,
                start: SimTime::ZERO,
            })
            .collect();
        Self { flows }
    }

    /// One source, drawn from `hosts`, fanning `bytes` out to `fan_out`
    /// distinct receivers starting at time zero.
    ///
    /// # Panics
    ///
    /// Panics unless `hosts` has more than `fan_out` members.
    #[must_use]
    pub fn outcast(
        hosts: &[NodeId],
        fan_out: usize,
        bytes: u64,
        packet_size: u32,
        seed: u64,
    ) -> Self {
        assert!(fan_out < hosts.len(), "outcast needs fan_out + 1 hosts");
        let mut rng = Xoshiro256StarStar::new(seed);
        let picks = draw_distinct(&mut rng, hosts.len(), fan_out + 1);
        let source = hosts[picks[0]];
        let flows = picks[1..]
            .iter()
            .enumerate()
            .map(|(i, &d)| FlowSpec {
                src: source,
                dst: hosts[d],
                flow: FlowId(i as u64),
                bytes,
                packet_size,
                start: SimTime::ZERO,
            })
            .collect();
        Self { flows }
    }

    /// A random cyclic permutation: every host sends `bytes` to the next
    /// host along a seed-chosen cycle through all of `hosts`, so each host
    /// sends exactly once and receives exactly once (never from itself).
    ///
    /// # Panics
    ///
    /// Panics unless `hosts` has at least 2 members.
    #[must_use]
    pub fn permutation(hosts: &[NodeId], bytes: u64, packet_size: u32, seed: u64) -> Self {
        assert!(hosts.len() >= 2, "permutation needs at least 2 hosts");
        let mut rng = Xoshiro256StarStar::new(seed);
        let order = draw_distinct(&mut rng, hosts.len(), hosts.len());
        let flows = (0..order.len())
            .map(|i| FlowSpec {
                src: hosts[order[i]],
                dst: hosts[order[(i + 1) % order.len()]],
                flow: FlowId(i as u64),
                bytes,
                packet_size,
                start: SimTime::ZERO,
            })
            .collect();
        Self { flows }
    }

    /// A cross-traffic storm: `n_flows` random source→destination pairs
    /// (never self-paired), each sending between `packet_size` and
    /// `max_bytes` bytes, starting uniformly within `horizon`. Flows are
    /// ordered by `(start, flow id)`.
    ///
    /// # Panics
    ///
    /// Panics unless `hosts` has at least 2 members and `max_bytes ≥
    /// packet_size`.
    #[must_use]
    pub fn storm(
        hosts: &[NodeId],
        n_flows: usize,
        max_bytes: u64,
        packet_size: u32,
        horizon: SimTime,
        seed: u64,
    ) -> Self {
        assert!(hosts.len() >= 2, "storm needs at least 2 hosts");
        assert!(
            max_bytes >= u64::from(packet_size),
            "max_bytes < packet_size"
        );
        let mut rng = Xoshiro256StarStar::new(seed);
        let mut flows: Vec<FlowSpec> = (0..n_flows)
            .map(|i| {
                let s = (rng.next_u64() % hosts.len() as u64) as usize;
                // Offset into the other hosts, so src ≠ dst by construction.
                let d =
                    (s + 1 + (rng.next_u64() % (hosts.len() - 1) as u64) as usize) % hosts.len();
                let span = max_bytes - u64::from(packet_size) + 1;
                let bytes = u64::from(packet_size) + rng.next_u64() % span;
                let start = SimTime(if horizon.0 == 0 {
                    0
                } else {
                    rng.next_u64() % horizon.0
                });
                FlowSpec {
                    src: hosts[s],
                    dst: hosts[d],
                    flow: FlowId(i as u64),
                    bytes,
                    packet_size,
                    start,
                }
            })
            .collect();
        flows.sort_by_key(|f| (f.start, f.flow));
        Self { flows }
    }

    /// The canonical byte encoding: each flow's fields in declaration order,
    /// little-endian, concatenated in schedule order. Two schedules are the
    /// same workload iff their encodings are byte-identical.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.flows.len() * 44);
        for f in &self.flows {
            out.extend_from_slice(&(f.src.0 as u64).to_le_bytes());
            out.extend_from_slice(&(f.dst.0 as u64).to_le_bytes());
            out.extend_from_slice(&f.flow.0.to_le_bytes());
            out.extend_from_slice(&f.bytes.to_le_bytes());
            out.extend_from_slice(&f.packet_size.to_le_bytes());
            out.extend_from_slice(&f.start.0.to_le_bytes());
        }
        out
    }

    /// FNV-1a over [`FlowSchedule::encode`] — the schedule's fingerprint,
    /// stable across platforms and thread-pool widths.
    #[must_use]
    pub fn digest(&self) -> u64 {
        trimgrad_telemetry::fnv1a(&self.encode())
    }

    /// Every destination addressed by the schedule, deduplicated and sorted —
    /// exactly the set [`crate::topology::Topology::build_routes_towards`]
    /// needs to route this workload.
    #[must_use]
    pub fn destinations(&self) -> Vec<NodeId> {
        let mut dsts: Vec<NodeId> = self.flows.iter().map(|f| f.dst).collect();
        dsts.sort_unstable();
        dsts.dedup();
        dsts
    }

    /// Total payload bytes across all flows.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.flows.iter().map(|f| f.bytes).sum()
    }

    /// Total packets across all flows.
    #[must_use]
    pub fn total_packets(&self) -> u64 {
        self.flows.iter().map(FlowSpec::packet_count).sum()
    }

    /// Installs the schedule on `sim`: one [`ScheduledSenderApp`] per
    /// sending host, which releases each of its flows at that flow's start
    /// time. Hosts that only receive keep their default sink.
    ///
    /// # Panics
    ///
    /// Panics if the simulation already started (see
    /// [`Simulator::install_app`]).
    pub fn install(&self, sim: &mut Simulator) {
        let mut by_src: std::collections::BTreeMap<NodeId, Vec<FlowSpec>> =
            std::collections::BTreeMap::new();
        for f in &self.flows {
            by_src.entry(f.src).or_default().push(f.clone());
        }
        for (src, flows) in by_src {
            sim.install_app(src, Box::new(ScheduledSenderApp::new(flows)));
        }
    }
}

/// Sends a set of [`FlowSpec`]s from one host, each released by a timer at
/// its start time. Doubles as a [`SinkApp`] for deliveries, so a host that
/// both sends and receives (permutation workloads) keeps sink accounting
/// and flow-completion detection.
#[derive(Debug)]
pub struct ScheduledSenderApp {
    flows: Vec<FlowSpec>,
    /// Delivery accounting for flows terminating at this host.
    pub sink: SinkApp,
}

impl ScheduledSenderApp {
    /// Creates the sender. Every spec's `src` must be the host this app is
    /// installed on.
    #[must_use]
    pub fn new(flows: Vec<FlowSpec>) -> Self {
        Self {
            flows,
            sink: SinkApp::default(),
        }
    }
}

impl App for ScheduledSenderApp {
    fn on_start(&mut self, api: &mut HostApi) {
        for (i, f) in self.flows.iter().enumerate() {
            api.timer_in(f.start, i as u64);
        }
    }

    fn on_packet(&mut self, pkt: Packet, api: &mut HostApi) {
        self.sink.on_packet(pkt, api);
    }

    fn on_timer(&mut self, token: u64, api: &mut HostApi) {
        let f = &self.flows[token as usize];
        api.send_flow(f.dst, f.flow, f.bytes, f.packet_size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::QueuePolicy;
    use crate::time::gbps;
    use crate::topology::Topology;

    fn hosts(n: usize) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn incast_shape() {
        let s = FlowSchedule::incast(&hosts(16), 8, 150_000, 1500, 7);
        assert_eq!(s.flows.len(), 8);
        let recv = s.flows[0].dst;
        for f in &s.flows {
            assert_eq!(f.dst, recv);
            assert_ne!(f.src, recv);
            assert_eq!(f.start, SimTime::ZERO);
        }
        // Senders are distinct.
        let mut srcs: Vec<_> = s.flows.iter().map(|f| f.src).collect();
        srcs.sort_unstable();
        srcs.dedup();
        assert_eq!(srcs.len(), 8);
        assert_eq!(s.destinations(), vec![recv]);
    }

    #[test]
    fn outcast_shape() {
        let s = FlowSchedule::outcast(&hosts(16), 6, 30_000, 1500, 9);
        assert_eq!(s.flows.len(), 6);
        let src = s.flows[0].src;
        let mut dsts: Vec<_> = s.flows.iter().map(|f| f.dst).collect();
        dsts.sort_unstable();
        dsts.dedup();
        assert_eq!(dsts.len(), 6);
        for f in &s.flows {
            assert_eq!(f.src, src);
            assert_ne!(f.dst, src);
        }
    }

    #[test]
    fn permutation_is_a_single_cycle() {
        let hs = hosts(10);
        let s = FlowSchedule::permutation(&hs, 10_000, 1000, 3);
        assert_eq!(s.flows.len(), 10);
        // Each host sends once and receives once, never to itself.
        let mut sends = [0u32; 10];
        let mut recvs = [0u32; 10];
        for f in &s.flows {
            assert_ne!(f.src, f.dst);
            sends[f.src.0] += 1;
            recvs[f.dst.0] += 1;
        }
        assert!(sends.iter().all(|&c| c == 1));
        assert!(recvs.iter().all(|&c| c == 1));
    }

    #[test]
    fn storm_bounds_and_order() {
        let s = FlowSchedule::storm(&hosts(12), 40, 50_000, 1500, SimTime::from_millis(1), 11);
        assert_eq!(s.flows.len(), 40);
        for w in s.flows.windows(2) {
            assert!((w[0].start, w[0].flow) < (w[1].start, w[1].flow));
        }
        for f in &s.flows {
            assert_ne!(f.src, f.dst);
            assert!(f.bytes >= 1500 && f.bytes <= 50_000);
            assert!(f.start < SimTime::from_millis(1));
        }
    }

    #[test]
    fn same_seed_same_bytes_different_seed_different_bytes() {
        let hs = hosts(32);
        let a = FlowSchedule::storm(&hs, 64, 100_000, 1500, SimTime::from_millis(5), 42);
        let b = FlowSchedule::storm(&hs, 64, 100_000, 1500, SimTime::from_millis(5), 42);
        let c = FlowSchedule::storm(&hs, 64, 100_000, 1500, SimTime::from_millis(5), 43);
        assert_eq!(a.encode(), b.encode());
        assert_eq!(a.digest(), b.digest());
        assert_ne!(a.encode(), c.encode());
    }

    #[test]
    fn install_runs_to_completion_on_a_small_fabric() {
        let (topo, hs) =
            Topology::leaf_spine(2, 4, 2, gbps(10.0), gbps(10.0), SimTime::from_micros(1), {
                QueuePolicy::trim_default()
            });
        let sched = FlowSchedule::permutation(&hs, 15_000, 1500, 5);
        let expected = sched.total_packets();
        let mut sim = Simulator::new(topo);
        sched.install(&mut sim);
        sim.run_until(SimTime::from_millis(100));
        assert_eq!(
            sim.stats().delivered_packets() + sim.stats().dropped_total(),
            expected
        );
        assert!(sim.conservation_holds());
        // Every flow's completion was detected despite senders doubling as
        // receivers.
        for f in &sched.flows {
            assert!(
                sim.stats().flow(f.flow).unwrap().fct().is_some(),
                "flow {} incomplete",
                f.flow
            );
        }
    }
}
