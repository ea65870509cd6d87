//! Topology construction and static routing.
//!
//! Nodes are hosts (run apps, terminate packets) or switches (forward with a
//! [`QueuePolicy`]). Links are bidirectional and symmetric. Routing is
//! shortest-path, precomputed by BFS toward every destination (a host shares
//! its access switch's BFS, see [`Routes`]); when several
//! neighbors lie on equal-length paths the forwarding choice is ECMP by flow
//! hash, so one flow always takes one path (no reordering by routing) while
//! different flows spread across the fabric.
//!
//! Ready-made fabrics: [`Topology::dumbbell`] and [`Topology::leaf_spine`].

use crate::link::LinkParams;
use crate::switch::QueuePolicy;
use crate::time::{Rate, SimTime};
use crate::{FlowId, NodeId};

/// Node kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeKind {
    /// An endpoint that runs applications.
    Host,
    /// A store-and-forward switch.
    Switch(QueuePolicy),
}

/// The static network graph.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    kinds: Vec<NodeKind>,
    /// `adj[n]` = (neighbor, link params of channel n→neighbor).
    adj: Vec<Vec<(NodeId, LinkParams)>>,
}

impl Topology {
    /// An empty topology.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a host, returning its id.
    pub fn add_host(&mut self) -> NodeId {
        self.kinds.push(NodeKind::Host);
        self.adj.push(Vec::new());
        NodeId(self.kinds.len() - 1)
    }

    /// Adds a switch with the given queueing policy.
    pub fn add_switch(&mut self, policy: QueuePolicy) -> NodeId {
        self.kinds.push(NodeKind::Switch(policy));
        self.adj.push(Vec::new());
        NodeId(self.kinds.len() - 1)
    }

    /// Connects `a` and `b` with a symmetric full-duplex link.
    ///
    /// # Panics
    ///
    /// Panics on self-links or unknown nodes.
    pub fn link(&mut self, a: NodeId, b: NodeId, rate: Rate, delay: SimTime) {
        self.link_with(a, b, LinkParams::new(rate, delay));
    }

    /// Connects with explicit [`LinkParams`] (e.g. random loss).
    ///
    /// # Panics
    ///
    /// Panics on self-links or unknown nodes.
    pub fn link_with(&mut self, a: NodeId, b: NodeId, params: LinkParams) {
        assert_ne!(a, b, "self-link");
        assert!(a.0 < self.len() && b.0 < self.len(), "unknown node");
        self.adj[a.0].push((b, params));
        self.adj[b.0].push((a, params));
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the topology has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The kind of `n`.
    #[must_use]
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.kinds[n.0]
    }

    /// All hosts, in id order.
    #[must_use]
    pub fn hosts(&self) -> Vec<NodeId> {
        (0..self.len())
            .filter(|&i| matches!(self.kinds[i], NodeKind::Host))
            .map(NodeId)
            .collect()
    }

    /// All switches, in id order.
    #[must_use]
    pub fn switches(&self) -> Vec<NodeId> {
        (0..self.len())
            .filter(|&i| matches!(self.kinds[i], NodeKind::Switch(_)))
            .map(NodeId)
            .collect()
    }

    /// Number of (bidirectional) links.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Neighbors of `n` with their link params.
    #[must_use]
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, LinkParams)] {
        &self.adj[n.0]
    }

    /// Link params of the channel `from → to`.
    ///
    /// # Panics
    ///
    /// Panics if the link does not exist.
    #[must_use]
    pub fn link_params(&self, from: NodeId, to: NodeId) -> LinkParams {
        self.adj[from.0]
            .iter()
            .find(|(n, _)| *n == to)
            .map(|(_, p)| *p)
            // trimlint: allow(no-panic) -- documented # Panics contract: callers route over links taken from this same adjacency, so a missing link is a topology-construction bug
            .unwrap_or_else(|| panic!("no link {from} → {to}"))
    }

    /// Precomputes the full routing table: the ECMP set of shortest-path
    /// next hops for every `(node, dst)` pair. Unreachable pairs get an
    /// empty set.
    ///
    /// The table is quadratic in topology size; datacenter-scale runs that
    /// only ever send toward a few destinations should use
    /// [`Topology::build_routes_towards`] instead.
    #[must_use]
    pub fn build_routes(&self) -> Routes {
        let all: Vec<NodeId> = (0..self.len()).map(NodeId).collect();
        self.build_routes_towards(&all)
    }

    /// Precomputes routes toward the given destinations only, in
    /// `O(columns × (nodes + links))` time and memory. Packets to any other
    /// destination are treated as unroutable (dropped at their source), so
    /// `dsts` must cover every node the installed workload addresses.
    ///
    /// A destination with exactly one link shares the column of the node at
    /// its other end, its *access node* — every host of a fat-tree shares its
    /// edge switch's — so the table grows with switches, not with hosts. Any
    /// other destination gets a column of its own, one BFS each. See
    /// [`Routes`] for why the shared column answers exactly.
    ///
    /// # Panics
    ///
    /// Panics if `dsts` contains a duplicate.
    #[must_use]
    pub fn build_routes_towards(&self, dsts: &[NodeId]) -> Routes {
        let n = self.len();
        // trimlint: allow(no-panic) -- build-time conversion; the table is u32-indexed by design, like `DensePortTable`
        let narrow = |v: usize| u32::try_from(v).expect("routing table index fits u32");
        let mut targets = vec![
            Target {
                column: NO_SLOT,
                access: NO_SLOT,
                id: NO_SLOT,
            };
            n
        ];
        // One column per BFS root, in order of first use.
        let mut roots = Vec::new();
        let mut root_column = vec![NO_SLOT; n];
        for &dst in dsts {
            assert!(
                targets[dst.0].column == NO_SLOT,
                "duplicate destination {dst}"
            );
            let access = match self.adj[dst.0].as_slice() {
                [(s, _)] if *s != dst => Some(s.0),
                _ => None,
            };
            let root = access.unwrap_or(dst.0);
            if root_column[root] == NO_SLOT {
                root_column[root] = narrow(roots.len());
                roots.push(root);
            }
            targets[dst.0] = Target {
                column: root_column[root],
                access: access.map_or(NO_SLOT, narrow),
                id: narrow(dst.0),
            };
        }
        let mut offsets = Vec::with_capacity(roots.len() * n + 1);
        offsets.push(0u32);
        let mut hops: Vec<u32> = Vec::new();
        let mut dist = vec![u32::MAX; n];
        let mut frontier = std::collections::VecDeque::new();
        let mut set = Vec::new();
        for &root in &roots {
            // BFS from the root over the undirected graph.
            dist.fill(u32::MAX);
            dist[root] = 0;
            frontier.push_back(root);
            while let Some(u) = frontier.pop_front() {
                for &(v, _) in &self.adj[u] {
                    if dist[v.0] == u32::MAX {
                        dist[v.0] = dist[u] + 1;
                        frontier.push_back(v.0);
                    }
                }
            }
            // Next hops: neighbors strictly closer to the root.
            for node in 0..n {
                if node != root && dist[node] != u32::MAX {
                    set.extend(
                        self.adj[node]
                            .iter()
                            .filter(|(v, _)| dist[v.0] + 1 == dist[node])
                            .map(|(v, _)| narrow(v.0)),
                    );
                    // Deterministic ECMP order.
                    set.sort_unstable();
                    hops.append(&mut set);
                }
                offsets.push(narrow(hops.len()));
            }
        }
        Routes {
            n,
            targets,
            offsets,
            hops,
        }
    }

    /// A dumbbell: `n_left` hosts — switch — switch — `n_right` hosts, with
    /// `edge_rate` access links and a `core_rate` bottleneck.
    #[must_use]
    pub fn dumbbell(
        n_left: usize,
        n_right: usize,
        edge_rate: Rate,
        core_rate: Rate,
        delay: SimTime,
        policy: QueuePolicy,
    ) -> (Topology, Vec<NodeId>, Vec<NodeId>) {
        let mut t = Topology::new();
        let left: Vec<NodeId> = (0..n_left).map(|_| t.add_host()).collect();
        let right: Vec<NodeId> = (0..n_right).map(|_| t.add_host()).collect();
        let s1 = t.add_switch(policy);
        let s2 = t.add_switch(policy);
        for &h in &left {
            t.link(h, s1, edge_rate, delay);
        }
        for &h in &right {
            t.link(h, s2, edge_rate, delay);
        }
        t.link(s1, s2, core_rate, delay);
        (t, left, right)
    }

    /// A two-tier leaf–spine fabric: `racks` leaves × `hosts_per_rack`,
    /// `spines` spine switches. Host links run at `edge_rate`; each
    /// leaf–spine uplink at `up_rate` (choose `up_rate < edge_rate ×
    /// hosts_per_rack / spines` for oversubscription).
    #[must_use]
    pub fn leaf_spine(
        racks: usize,
        hosts_per_rack: usize,
        spines: usize,
        edge_rate: Rate,
        up_rate: Rate,
        delay: SimTime,
        policy: QueuePolicy,
    ) -> (Topology, Vec<NodeId>) {
        let mut t = Topology::new();
        let mut hosts = Vec::new();
        let leaves: Vec<NodeId> = (0..racks).map(|_| t.add_switch(policy)).collect();
        let spine_ids: Vec<NodeId> = (0..spines).map(|_| t.add_switch(policy)).collect();
        for &leaf in &leaves {
            for _ in 0..hosts_per_rack {
                let h = t.add_host();
                t.link(h, leaf, edge_rate, delay);
                hosts.push(h);
            }
            for &sp in &spine_ids {
                t.link(leaf, sp, up_rate, delay);
            }
        }
        (t, hosts)
    }

    /// A three-tier k-ary fat-tree (Al-Fares et al.): `k` pods of `k/2` edge
    /// and `k/2` aggregation switches, `(k/2)²` core switches, and `k³/4`
    /// hosts on `3k³/4` links — full bisection bandwidth when `fabric_rate ==
    /// host_rate`. Aggregation switch `j` of every pod connects to core group
    /// `j`, so any inter-pod host pair has `(k/2)²` equal-length paths and
    /// ECMP fans flows across all of them.
    ///
    /// Returns the topology and its hosts in pod order.
    ///
    /// # Panics
    ///
    /// Panics unless `k` is even and ≥ 2.
    #[must_use]
    pub fn fat_tree(
        k: usize,
        host_rate: Rate,
        fabric_rate: Rate,
        delay: SimTime,
        policy: QueuePolicy,
    ) -> (Topology, Vec<NodeId>) {
        assert!(k >= 2 && k.is_multiple_of(2), "fat-tree arity must be even");
        let half = k / 2;
        let mut t = Topology::new();
        // Core group j serves aggregation switch j of every pod.
        let core: Vec<Vec<NodeId>> = (0..half)
            .map(|_| (0..half).map(|_| t.add_switch(policy)).collect())
            .collect();
        let mut hosts = Vec::with_capacity(k * half * half);
        for _pod in 0..k {
            let edges: Vec<NodeId> = (0..half).map(|_| t.add_switch(policy)).collect();
            let aggs: Vec<NodeId> = (0..half).map(|_| t.add_switch(policy)).collect();
            for &e in &edges {
                for &a in &aggs {
                    t.link(e, a, fabric_rate, delay);
                }
                for _ in 0..half {
                    let h = t.add_host();
                    t.link(h, e, host_rate, delay);
                    hosts.push(h);
                }
            }
            for (j, &a) in aggs.iter().enumerate() {
                for &c in &core[j] {
                    t.link(a, c, fabric_rate, delay);
                }
            }
        }
        (t, hosts)
    }
}

/// "None" in a [`Target`] field.
const NO_SLOT: u32 = u32::MAX;

/// How a [`Routes`] table answers for one destination.
#[derive(Debug, Clone, Copy)]
struct Target {
    /// Dense column index — the destination's own or its access node's —
    /// or [`NO_SLOT`] if the table was not built toward it.
    column: u32,
    /// The access node whose column the destination shares, [`NO_SLOT`] if
    /// the column is its own.
    access: u32,
    /// The destination's id, so the one-hop set `[dst]` at `access` is a
    /// slice of the table.
    id: u32,
}

/// Precomputed shortest-path routing with deterministic ECMP.
///
/// Stored in compressed-sparse-row form: all next-hop sets live in one flat
/// `hops` arena, bracketed by `offsets[column * n + node]` where `column` is
/// a dense column index. A table built by
/// [`Topology::build_routes_towards`] only has columns for the requested
/// destinations, which is what makes thousand-host fabrics affordable; ids
/// are stored as `u32` (narrowed once, at build time) because the table is
/// the largest thing a big simulation keeps resident.
///
/// A destination `h` whose one link leads to `s` shares `s`'s column, and
/// the answer is exact: the set at `h` is empty, the set at `s` is `[h]`,
/// and every other node `X` reaches `h` only through `s`, so
/// `d(X, h) = d(X, s) + 1` for `X` and for each of its neighbors (none of
/// which is `h`) — the neighbors one step closer to `h` are exactly those
/// one step closer to `s`, link for link and in the same order.
#[derive(Debug, Clone)]
pub struct Routes {
    /// Node count of the topology the table was built over.
    n: usize,
    /// Per destination node: its column and access node.
    targets: Vec<Target>,
    /// CSR row offsets into `hops`, length `columns * n + 1`.
    offsets: Vec<u32>,
    /// Concatenated ECMP sets, each sorted by node id.
    hops: Vec<u32>,
}

/// One ECMP set of a [`Routes`] table: the equal-cost next hops at a node
/// toward a destination, in ascending node-id order.
#[derive(Debug, Clone, Copy)]
pub struct EcmpSet<'a>(&'a [u32]);

impl EcmpSet<'_> {
    /// Number of equal-cost next hops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there is no next hop (unreachable, or no column for the
    /// destination).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The next hops, ascending by node id.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.0.iter().map(|&v| NodeId(v as usize))
    }
}

impl Routes {
    /// The ECMP set at `node` toward `dst` (empty at `dst` itself, when
    /// unreachable, or when the table was not built toward `dst` — a `dst`
    /// outside the topology included).
    #[must_use]
    pub fn ecmp_set(&self, node: NodeId, dst: NodeId) -> EcmpSet<'_> {
        let Some(target) = self.targets.get(dst.0) else {
            return EcmpSet(&[]);
        };
        if target.column == NO_SLOT || node == dst {
            return EcmpSet(&[]);
        }
        if node.0 == target.access as usize {
            return EcmpSet(std::slice::from_ref(&target.id));
        }
        let row = target.column as usize * self.n + node.0;
        let (lo, hi) = (self.offsets[row] as usize, self.offsets[row + 1] as usize);
        EcmpSet(&self.hops[lo..hi])
    }

    /// The next hop for a packet of `flow` at `node` heading to `dst`, or
    /// `None` if unreachable.
    #[must_use]
    pub fn next_hop(&self, node: NodeId, dst: NodeId, flow: FlowId) -> Option<NodeId> {
        let set = self.ecmp_set(node, dst).0;
        if set.is_empty() {
            return None;
        }
        // Deterministic flow hash (SplitMix64 finalizer).
        let mut h = flow.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        Some(NodeId(set[(h % set.len() as u64) as usize] as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::gbps;

    fn default_delay() -> SimTime {
        SimTime::from_micros(1)
    }

    #[test]
    fn build_simple_line() {
        let mut t = Topology::new();
        let a = t.add_host();
        let s = t.add_switch(QueuePolicy::trim_default());
        let b = t.add_host();
        t.link(a, s, gbps(10.0), default_delay());
        t.link(s, b, gbps(10.0), default_delay());
        assert_eq!(t.len(), 3);
        assert_eq!(t.hosts(), vec![a, b]);
        assert!(matches!(t.kind(s), NodeKind::Switch(_)));
        let routes = t.build_routes();
        assert_eq!(routes.next_hop(a, b, FlowId(1)), Some(s));
        assert_eq!(routes.next_hop(s, b, FlowId(1)), Some(b));
        assert_eq!(routes.next_hop(b, a, FlowId(9)), Some(s));
    }

    #[test]
    fn unreachable_has_no_route() {
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        let routes = t.build_routes();
        assert_eq!(routes.next_hop(a, b, FlowId(0)), None);
        assert!(routes.ecmp_set(a, b).is_empty());
    }

    #[test]
    #[should_panic(expected = "self-link")]
    fn rejects_self_link() {
        let mut t = Topology::new();
        let a = t.add_host();
        t.link(a, a, gbps(1.0), default_delay());
    }

    #[test]
    fn link_params_lookup() {
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        let p = LinkParams::new(gbps(40.0), default_delay()).with_drop_prob(0.01);
        t.link_with(a, b, p);
        assert_eq!(t.link_params(a, b), p);
        assert_eq!(t.link_params(b, a), p);
    }

    #[test]
    fn dumbbell_shape() {
        let (t, left, right) = Topology::dumbbell(
            3,
            2,
            gbps(10.0),
            gbps(10.0),
            default_delay(),
            QueuePolicy::trim_default(),
        );
        assert_eq!(left.len(), 3);
        assert_eq!(right.len(), 2);
        assert_eq!(t.len(), 7);
        let routes = t.build_routes();
        // Left host to right host goes through both switches: path length 3.
        let hop1 = routes.next_hop(left[0], right[0], FlowId(0)).unwrap();
        let hop2 = routes.next_hop(hop1, right[0], FlowId(0)).unwrap();
        let hop3 = routes.next_hop(hop2, right[0], FlowId(0)).unwrap();
        assert_eq!(hop3, right[0]);
    }

    #[test]
    fn leaf_spine_ecmp_spreads_flows() {
        let (t, hosts) = Topology::leaf_spine(
            2,
            2,
            2,
            gbps(100.0),
            gbps(40.0),
            default_delay(),
            QueuePolicy::trim_default(),
        );
        assert_eq!(hosts.len(), 4);
        let routes = t.build_routes();
        // Cross-rack traffic: the leaf has two equal-cost spines.
        let src = hosts[0];
        let dst = hosts[2];
        let leaf = routes.next_hop(src, dst, FlowId(0)).unwrap();
        let set = routes.ecmp_set(leaf, dst);
        assert_eq!(set.len(), 2, "two spines expected, got {set:?}");
        assert!(set.iter().all(|sp| t.switches().contains(&sp)));
        // Different flows hit different spines (with 64 flows, both appear).
        let mut seen = std::collections::HashSet::new();
        for f in 0..64 {
            seen.insert(routes.next_hop(leaf, dst, FlowId(f)).unwrap());
        }
        assert_eq!(seen.len(), 2);
        // Same flow always routes the same way.
        let h1 = routes.next_hop(leaf, dst, FlowId(7));
        assert_eq!(h1, routes.next_hop(leaf, dst, FlowId(7)));
        // Intra-rack traffic never leaves the leaf.
        let same_rack_dst = hosts[1];
        let nh = routes.next_hop(src, same_rack_dst, FlowId(3)).unwrap();
        assert_eq!(
            routes.next_hop(nh, same_rack_dst, FlowId(3)),
            Some(same_rack_dst)
        );
    }

    #[test]
    fn routes_are_loop_free() {
        let (t, hosts) = Topology::leaf_spine(
            3,
            2,
            2,
            gbps(100.0),
            gbps(40.0),
            default_delay(),
            QueuePolicy::trim_default(),
        );
        let routes = t.build_routes();
        for &src in &hosts {
            for &dst in &hosts {
                if src == dst {
                    continue;
                }
                let mut at = src;
                let mut hops = 0;
                while at != dst {
                    at = routes.next_hop(at, dst, FlowId(42)).expect("reachable");
                    hops += 1;
                    assert!(hops <= t.len(), "routing loop {src}→{dst}");
                }
            }
        }
    }
}
