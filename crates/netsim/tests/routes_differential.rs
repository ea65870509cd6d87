//! Differential test of the routing table against a per-destination oracle.
//!
//! [`Topology::build_routes_towards`] shares one column between a
//! destination with a single link and the node at the link's other end (its
//! access node), and answers the two special rows — the destination itself
//! and its access node — without a column. The oracle here is the plain
//! construction: one BFS from every destination, every destination its own
//! column. Every `(node, dst)` ECMP set, and the next hop of a few flows at
//! each, must be equal — on fabrics where every host shares (fat-trees,
//! leaf–spine, dumbbell), and on the shapes the rule must leave alone: a
//! host with two links to one switch, a host on two switches, and hosts
//! linked straight to each other.
//!
//! [`Topology::build_routes_towards`]: trimgrad_netsim::topology::Topology::build_routes_towards

use std::collections::VecDeque;
use trimgrad_netsim::switch::QueuePolicy;
use trimgrad_netsim::time::{gbps, SimTime};
use trimgrad_netsim::topology::{NodeKind, Routes, Topology};
use trimgrad_netsim::{FlowId, NodeId};

/// Per-destination routing: `sets[dst][node]` is the ascending ECMP set at
/// `node` toward `dst`, `None` for a destination the table was not built
/// toward.
struct Oracle {
    sets: Vec<Option<Vec<Vec<NodeId>>>>,
}

impl Oracle {
    fn build(t: &Topology, dsts: &[NodeId]) -> Self {
        let n = t.len();
        let mut sets = vec![None; n];
        for &dst in dsts {
            let mut dist = vec![u32::MAX; n];
            dist[dst.0] = 0;
            let mut frontier = VecDeque::from([dst]);
            while let Some(u) = frontier.pop_front() {
                for &(v, _) in t.neighbors(u) {
                    if dist[v.0] == u32::MAX {
                        dist[v.0] = dist[u.0] + 1;
                        frontier.push_back(v);
                    }
                }
            }
            let column = (0..n)
                .map(|node| {
                    if node == dst.0 || dist[node] == u32::MAX {
                        return Vec::new();
                    }
                    let mut set: Vec<NodeId> = t
                        .neighbors(NodeId(node))
                        .iter()
                        .filter(|(v, _)| dist[v.0] + 1 == dist[node])
                        .map(|&(v, _)| v)
                        .collect();
                    set.sort_unstable();
                    set
                })
                .collect();
            sets[dst.0] = Some(column);
        }
        Self { sets }
    }

    fn ecmp_set(&self, node: NodeId, dst: NodeId) -> &[NodeId] {
        match self.sets.get(dst.0) {
            Some(Some(column)) => &column[node.0],
            _ => &[],
        }
    }

    /// The flow-hash pick `Routes::next_hop` documents: SplitMix64's
    /// finalizer over the flow id, modulo the set size.
    fn next_hop(&self, node: NodeId, dst: NodeId, flow: FlowId) -> Option<NodeId> {
        let set = self.ecmp_set(node, dst);
        if set.is_empty() {
            return None;
        }
        let mut h = flow.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        Some(set[(h % set.len() as u64) as usize])
    }
}

const FLOWS: [FlowId; 5] = [
    FlowId(0),
    FlowId(1),
    FlowId(7),
    FlowId(0xC0_0000),
    FlowId(u64::MAX),
];

/// Asserts `routes` and the oracle agree on every `(node, dst)` pair of `t`
/// and on a destination outside it.
fn assert_agrees(name: &str, t: &Topology, routes: &Routes, dsts: &[NodeId]) {
    let oracle = Oracle::build(t, dsts);
    let outside = NodeId(t.len() + 5);
    for node in (0..t.len()).map(NodeId) {
        for dst in (0..t.len()).map(NodeId).chain([outside]) {
            let got: Vec<NodeId> = routes.ecmp_set(node, dst).iter().collect();
            assert_eq!(
                got,
                oracle.ecmp_set(node, dst),
                "{name}: ECMP set at {node} toward {dst}, table built toward {dsts:?}"
            );
            for flow in FLOWS {
                assert_eq!(
                    routes.next_hop(node, dst, flow),
                    oracle.next_hop(node, dst, flow),
                    "{name}: next hop of {flow} at {node} toward {dst}"
                );
            }
        }
    }
}

/// The destination sets each topology's table is built toward: everything,
/// the hosts, the switches, every third node backwards, and an access node
/// listed between its own hosts.
fn subsets(t: &Topology) -> Vec<Vec<NodeId>> {
    let all: Vec<NodeId> = (0..t.len()).map(NodeId).collect();
    let mut out = vec![
        all.clone(),
        t.hosts(),
        t.switches(),
        all.iter().copied().step_by(3).rev().collect(),
    ];
    if let Some(&h) = t.hosts().iter().find(|&&h| t.neighbors(h).len() == 1) {
        let access = t.neighbors(h)[0].0;
        let mut group = vec![h, access];
        group.extend(
            t.neighbors(access)
                .iter()
                .map(|&(v, _)| v)
                .filter(|&v| v != h && t.kind(v) == NodeKind::Host),
        );
        out.push(group);
    }
    out
}

fn check(name: &str, t: &Topology) {
    let all: Vec<NodeId> = (0..t.len()).map(NodeId).collect();
    assert_agrees(name, t, &t.build_routes(), &all);
    for dsts in subsets(t) {
        assert_agrees(name, t, &t.build_routes_towards(&dsts), &dsts);
    }
}

fn delay() -> SimTime {
    SimTime::from_micros(1)
}

fn policy() -> QueuePolicy {
    QueuePolicy::trim_default()
}

#[test]
fn fat_trees_agree_with_the_oracle() {
    for k in [2, 4, 8] {
        let (t, _) = Topology::fat_tree(k, gbps(10.0), gbps(40.0), delay(), policy());
        check(&format!("fat-tree k={k}"), &t);
    }
}

#[test]
fn leaf_spine_and_dumbbells_agree_with_the_oracle() {
    let (t, _) = Topology::leaf_spine(3, 2, 2, gbps(100.0), gbps(40.0), delay(), policy());
    check("leaf-spine", &t);
    let (t, _, _) = Topology::dumbbell(3, 2, gbps(10.0), gbps(10.0), delay(), policy());
    check("dumbbell", &t);
    // No right hosts: the right switch itself has a single link.
    let (t, _, _) = Topology::dumbbell(2, 0, gbps(10.0), gbps(10.0), delay(), policy());
    check("one-sided dumbbell", &t);
}

#[test]
fn two_hosts_on_a_switch_agree_with_the_oracle() {
    let mut t = Topology::new();
    let a = t.add_host();
    let s = t.add_switch(policy());
    let b = t.add_host();
    t.link(a, s, gbps(10.0), delay());
    t.link(s, b, gbps(10.0), delay());
    check("two-host line", &t);
}

#[test]
fn hosts_linked_to_each_other_agree_with_the_oracle() {
    // Each host is the other's access node, and an unlinked host is
    // unreachable from both.
    let mut t = Topology::new();
    let a = t.add_host();
    let b = t.add_host();
    t.add_host();
    t.link(a, b, gbps(10.0), delay());
    check("host-to-host link", &t);
}

#[test]
fn a_host_with_parallel_links_agrees_with_the_oracle() {
    // Two links from `h` to one switch: the switch's set toward `h` holds
    // `h` once per link, so `h` must keep a column of its own.
    let mut t = Topology::new();
    let h = t.add_host();
    let s = t.add_switch(policy());
    let s2 = t.add_switch(policy());
    let others: Vec<NodeId> = (0..3).map(|_| t.add_host()).collect();
    t.link(h, s, gbps(10.0), delay());
    t.link(h, s, gbps(10.0), delay());
    t.link(s, s2, gbps(40.0), delay());
    t.link(s, s2, gbps(40.0), delay());
    for &o in &others {
        t.link(o, s2, gbps(10.0), delay());
    }
    check("parallel-link host", &t);
    assert_eq!(t.build_routes().ecmp_set(s, h).len(), 2);
}

#[test]
fn a_host_on_two_switches_agrees_with_the_oracle() {
    let mut t = Topology::new();
    let h = t.add_host();
    let s1 = t.add_switch(policy());
    let s2 = t.add_switch(policy());
    let core = t.add_switch(policy());
    let far = t.add_host();
    t.link(h, s1, gbps(10.0), delay());
    t.link(h, s2, gbps(10.0), delay());
    t.link(s1, core, gbps(40.0), delay());
    t.link(s2, core, gbps(40.0), delay());
    t.link(far, core, gbps(10.0), delay());
    check("dual-homed host", &t);
    assert_eq!(t.build_routes().ecmp_set(core, h).len(), 2);
}
