//! Structural invariants of the ready-made fabrics.
//!
//! The fat-tree builder is pinned to the Al-Fares arithmetic — `k³/4` hosts,
//! `5k²/4` switches, `3k³/4` links, and `(k/2)²` equal-length paths between
//! inter-pod host pairs — for k ∈ {2, 4, 8}. Path multiplicity is counted by
//! dynamic programming over [`Routes::ecmp_set`], which simultaneously
//! checks that every ECMP alternative has the same hop count (unequal-length
//! sets would reorder packets within a flow's path-length distribution).
//! Dumbbell and leaf–spine keep regression coverage for their shapes and
//! configured oversubscription ratios.
//!
//! [`Routes::ecmp_set`]: trimgrad_netsim::topology::Routes::ecmp_set

use std::collections::BTreeMap;
use trimgrad_netsim::switch::QueuePolicy;
use trimgrad_netsim::time::{gbps, SimTime};
use trimgrad_netsim::topology::{Routes, Topology};
use trimgrad_netsim::NodeId;

fn delay() -> SimTime {
    SimTime::from_micros(1)
}

/// Hop count and number of distinct shortest paths from `node` to `dst`,
/// following the routing table's ECMP sets. Asserts every alternative at
/// every branch point has the same remaining length (ECMP sets are
/// equal-length by construction — this re-derives it from the built table).
fn path_stats(
    routes: &Routes,
    node: NodeId,
    dst: NodeId,
    memo: &mut BTreeMap<usize, (usize, u64)>,
) -> (usize, u64) {
    if node == dst {
        return (0, 1);
    }
    if let Some(&cached) = memo.get(&node.0) {
        return cached;
    }
    let set = routes.ecmp_set(node, dst);
    assert!(!set.is_empty(), "no route {node} → {dst}");
    let mut hops = None;
    let mut paths = 0u64;
    for next in set.iter() {
        let (h, p) = path_stats(routes, next, dst, memo);
        match hops {
            None => hops = Some(h + 1),
            Some(prev) => assert_eq!(prev, h + 1, "unequal ECMP path lengths at {node} → {dst}"),
        }
        paths += p;
    }
    let out = (hops.unwrap(), paths);
    memo.insert(node.0, out);
    out
}

fn fat_tree_k(k: usize) -> (Topology, Vec<NodeId>) {
    Topology::fat_tree(
        k,
        gbps(100.0),
        gbps(100.0),
        delay(),
        QueuePolicy::trim_default(),
    )
}

#[test]
fn fat_tree_counts_match_al_fares_arithmetic() {
    for k in [2usize, 4, 8] {
        let (t, hosts) = fat_tree_k(k);
        assert_eq!(hosts.len(), k * k * k / 4, "hosts at k={k}");
        assert_eq!(t.switches().len(), 5 * k * k / 4, "switches at k={k}");
        assert_eq!(t.link_count(), 3 * k * k * k / 4, "links at k={k}");
        assert_eq!(t.len(), hosts.len() + t.switches().len());
        // The pod-ordered host list is exactly the topology's host set.
        let mut sorted = hosts.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, t.hosts(), "host list mismatch at k={k}");
    }
}

#[test]
fn fat_tree_ecmp_multiplicity_by_pod_distance() {
    for k in [2usize, 4, 8] {
        let (t, hosts) = fat_tree_k(k);
        let half = k / 2;
        let hosts_per_pod = half * half;
        let mut dsts = vec![hosts[0], hosts[1], hosts[hosts_per_pod]];
        dsts.sort_unstable();
        dsts.dedup();
        let routes = t.build_routes_towards(&dsts);
        if half >= 2 {
            // Same edge switch: one 2-hop path through the shared edge.
            let (hops, paths) = path_stats(&routes, hosts[1], hosts[0], &mut BTreeMap::new());
            assert_eq!((hops, paths), (2, 1), "same-edge pair at k={k}");
            // Same pod, different edge: k/2 4-hop paths (one per agg).
            let (hops, paths) = path_stats(&routes, hosts[half], hosts[0], &mut BTreeMap::new());
            assert_eq!((hops, paths), (4, half as u64), "intra-pod pair at k={k}");
        }
        // Inter-pod: (k/2)² 6-hop paths (every agg × its core group).
        let (hops, paths) = path_stats(
            &routes,
            hosts[0],
            hosts[hosts_per_pod],
            &mut BTreeMap::new(),
        );
        assert_eq!(
            (hops, paths),
            (6, (half * half) as u64),
            "inter-pod pair at k={k}"
        );
    }
}

#[test]
fn fat_tree_routes_toward_subset_are_loop_free() {
    let (t, hosts) = fat_tree_k(4);
    let dst = hosts[0];
    let routes = t.build_routes_towards(&[dst]);
    for &src in &hosts[1..] {
        let mut at = src;
        let mut hops = 0;
        while at != dst {
            at = routes
                .next_hop(at, dst, trimgrad_netsim::FlowId(99))
                .expect("reachable");
            hops += 1;
            assert!(hops <= t.len(), "routing loop {src} → {dst}");
        }
        assert!(hops <= 6, "fat-tree path longer than 6 hops");
    }
}

#[test]
fn dumbbell_bottleneck_oversubscription() {
    // 4:1 oversubscription: four 10G senders share a 10G core link.
    let (t, left, right) = Topology::dumbbell(
        4,
        4,
        gbps(10.0),
        gbps(10.0),
        delay(),
        QueuePolicy::trim_default(),
    );
    assert_eq!(t.len(), 10);
    assert_eq!(t.link_count(), 9);
    let switches = t.switches();
    assert_eq!(switches.len(), 2);
    let core = t.link_params(switches[0], switches[1]);
    let edge = t.link_params(left[0], switches[0]);
    let ingress = edge.rate.0 * left.len() as u64;
    assert_eq!(
        ingress / core.rate.0,
        4,
        "dumbbell left side should oversubscribe the core 4:1"
    );
    // Cross traffic funnels through the single core link for every pair.
    let routes = t.build_routes_towards(&[right[0]]);
    let (hops, paths) = path_stats(&routes, left[0], right[0], &mut BTreeMap::new());
    assert_eq!((hops, paths), (3, 1));
}

#[test]
fn leaf_spine_uplink_oversubscription() {
    // 2 racks × 4 hosts at 100G, 2 spines at 40G uplinks:
    // 400G of host ingress vs 80G of uplink = 5:1 oversubscription.
    let (t, hosts) = Topology::leaf_spine(
        2,
        4,
        2,
        gbps(100.0),
        gbps(40.0),
        delay(),
        QueuePolicy::trim_default(),
    );
    assert_eq!(hosts.len(), 8);
    assert_eq!(t.switches().len(), 4);
    assert_eq!(t.link_count(), 8 + 4);
    let leaf = t.neighbors(hosts[0])[0].0;
    let host_in: u64 = gbps(100.0).0 * 4;
    let uplink_out: u64 = t
        .neighbors(leaf)
        .iter()
        .filter(|(n, _)| t.switches().contains(n))
        .map(|(_, p)| p.rate.0)
        .sum();
    assert_eq!(
        host_in / uplink_out,
        5,
        "leaf uplinks should be 5:1 oversubscribed"
    );
    // Cross-rack pairs see one path per spine, all equal length.
    let cross = hosts[4];
    let routes = t.build_routes_towards(&[cross]);
    let (hops, paths) = path_stats(&routes, hosts[0], cross, &mut BTreeMap::new());
    assert_eq!((hops, paths), (4, 2));
}
