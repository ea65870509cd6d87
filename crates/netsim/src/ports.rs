//! Egress-port storage: the simulator's dense data plane.
//!
//! Every directed link in the topology owns one egress port
//! ([`crate::switch::PortState`]). Packets and events name ports by
//! [`PortId`], so the storage layout *is* the data plane's hot path.
//!
//! [`DensePortTable`] assigns dense [`PortId`]s at construction time in
//! `(from, to)` lexicographic order (node-major, per-node neighbors sorted
//! by id), which is also the order telemetry export and conservation
//! reporting walk the ports in. Resolving `(from, to)` is a binary search
//! over the node's sorted neighbor row — done once per hop when a flow's
//! path is first resolved, never per packet — and everything else is O(1)
//! array indexing: port state, the node a port faces, per-port
//! [`LinkParams`] (no linear adjacency scan per dequeue), and dense
//! busy/queue-depth mirrors for allocation-free sampling.
//! `tests/port_map_differential.rs` pins the whole plane's observable
//! behaviour (trace, telemetry, conservation) to recorded digests.

use crate::link::LinkParams;
use crate::switch::{Mismatch, PortState};
use crate::topology::Topology;
use crate::NodeId;

/// Dense index of a directed link's egress port (see [`DensePortTable`]).
///
/// Ids are assigned at table construction in `(from, to)` lexicographic
/// order over the topology's directed links and never change afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u32);

/// Dense, cache-friendly port storage (see the module docs).
///
/// Layout: one CSR over nodes. `row_off[n]..row_off[n + 1]` brackets node
/// `n`'s egress ports inside four parallel arrays — sorted neighbor ids
/// (the binary-search index), port states, cached link parameters, and the
/// queue-depth mirror. The [`PortId`] of a port is its position in those
/// arrays.
#[derive(Debug)]
pub struct DensePortTable {
    /// CSR row offsets: node `n` owns ports `row_off[n]..row_off[n + 1]`.
    row_off: Vec<u32>,
    /// Neighbor (destination node) ids, sorted ascending within each row.
    nbrs: Vec<u32>,
    /// Port state, parallel to `nbrs`.
    ports: Vec<PortState>,
    /// Link parameters of each directed channel, parallel to `nbrs`.
    params: Vec<LinkParams>,
    /// Data-queue depth mirror, parallel to `nbrs` (see
    /// [`DensePortTable::depths`]).
    depths: Vec<u32>,
    /// Serializer-busy flags, parallel to `nbrs`. Hot: `PortFree` events
    /// and idle-port checks read/write only this compact array.
    busy: Vec<bool>,
    /// Total queued packets (both classes), parallel to `nbrs`. Hot: lets
    /// the drain path skip idle ports without touching [`PortState`].
    queued: Vec<u32>,
}

impl DensePortTable {
    /// Builds the table for `topo`'s directed links.
    #[must_use]
    pub fn new(topo: &Topology) -> Self {
        let n = topo.len();
        let mut row_off = Vec::with_capacity(n + 1);
        row_off.push(0u32);
        let mut nbrs: Vec<u32> = Vec::new();
        let mut params: Vec<LinkParams> = Vec::new();
        let mut row: Vec<(NodeId, LinkParams)> = Vec::new();
        for node in 0..n {
            row.clear();
            row.extend_from_slice(topo.neighbors(NodeId(node)));
            // Stable sort + dedup keep the *first* declared params of any
            // parallel duplicate link — the same channel the adjacency
            // linear scan (`Topology::link_params`) would have found.
            row.sort_by_key(|(v, _)| v.0);
            row.dedup_by_key(|(v, _)| v.0);
            for &(v, p) in row.iter() {
                // trimlint: allow(no-panic) -- build-time conversion; the table is u32-indexed by design and >u32::MAX nodes is unrepresentable upstream
                nbrs.push(u32::try_from(v.0).expect("node id fits u32"));
                params.push(p);
            }
            // trimlint: allow(no-panic) -- build-time conversion; port count is bounded by the u32 neighbor ids above
            row_off.push(u32::try_from(nbrs.len()).expect("port count fits u32"));
        }
        let ports = (0..nbrs.len()).map(|_| PortState::new()).collect();
        let depths = vec![0u32; nbrs.len()];
        let busy = vec![false; nbrs.len()];
        let queued = vec![0u32; nbrs.len()];
        Self {
            row_off,
            nbrs,
            ports,
            params,
            depths,
            busy,
            queued,
        }
    }

    /// Number of directed links (= ports) in the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nbrs.len()
    }

    /// Whether the topology had no links.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nbrs.is_empty()
    }

    /// Resolves the egress port of `from → to`. The simulator does this once
    /// per hop of a flow's path, when the flow first sends, and every packet
    /// and event afterwards carries the [`PortId`].
    ///
    /// # Panics
    ///
    /// Panics if no such directed link exists: the simulator only routes
    /// over links taken from the same adjacency the table indexes, so a
    /// missing link is a topology-construction bug.
    #[must_use]
    pub fn key(&self, from: NodeId, to: NodeId) -> PortId {
        self.try_key(from, to).unwrap_or_else(|| {
            // trimlint: allow(no-panic) -- routed next hops come from the same adjacency this table indexes, so a missing link is a topology-construction bug (same contract as Topology::link_params)
            panic!("no port {from} → {to}")
        })
    }

    /// Resolves `from → to`; `None` when the link does not exist.
    #[must_use]
    pub fn try_key(&self, from: NodeId, to: NodeId) -> Option<PortId> {
        let lo = *self.row_off.get(from.0)? as usize;
        let hi = *self.row_off.get(from.0 + 1)? as usize;
        let want = u32::try_from(to.0).ok()?;
        let row = self.nbrs.get(lo..hi)?;
        row.binary_search(&want)
            .ok()
            .map(|i| PortId((lo + i) as u32))
    }

    /// The node the port behind `key` faces (the receiving end of its link).
    // trimlint: hot-path -- one load from the neighbor row
    #[must_use]
    pub fn to(&self, key: PortId) -> NodeId {
        NodeId(self.nbrs[key.0 as usize] as usize)
    }

    /// The node owning the port behind `key` (the transmitting end; the
    /// inverse of the CSR row bracketing). A binary search over the row
    /// offsets: for traces, exports and fault plans, not for the per-packet
    /// path.
    #[must_use]
    pub fn from(&self, key: PortId) -> NodeId {
        // partition_point returns the first row whose offset exceeds key,
        // i.e. one past the owning node.
        NodeId(self.row_off.partition_point(|&off| off <= key.0) - 1)
    }

    /// The port behind `key`.
    // trimlint: hot-path -- O(1) port state access
    pub fn get_mut(&mut self, key: PortId) -> &mut PortState {
        &mut self.ports[key.0 as usize]
    }

    /// Link parameters of the channel behind `key` (cached at build time —
    /// the hot path never re-scans the adjacency list).
    // trimlint: hot-path -- cached link params, no adjacency scan
    #[must_use]
    pub fn params(&self, key: PortId) -> LinkParams {
        self.params[key.0 as usize]
    }

    /// Records the port's current data-queue depth and total queued-packet
    /// count in the dense mirrors read by [`DensePortTable::depths`] and
    /// [`DensePortTable::has_backlog`]. Called after every enqueue and
    /// dequeue.
    // trimlint: hot-path -- two stores into the dense mirrors
    pub fn record_depth(&mut self, key: PortId, low_bytes: u32, queued_pkts: u32) {
        self.depths[key.0 as usize] = low_bytes;
        self.queued[key.0 as usize] = queued_pkts;
    }

    /// Whether the port's serializer is currently transmitting.
    ///
    /// Kept outside [`DensePortTable::get_mut`] so the `PortFree`/idle fast
    /// paths (the most frequent events in a large fabric) consult a compact
    /// flag array instead of pulling a whole [`PortState`] into cache.
    // trimlint: hot-path -- one byte load, no PortState touch
    #[must_use]
    pub fn is_busy(&self, key: PortId) -> bool {
        self.busy[key.0 as usize]
    }

    /// Marks the port's serializer busy/idle (see
    /// [`DensePortTable::is_busy`]).
    // trimlint: hot-path -- one byte store, no PortState touch
    pub fn set_busy(&mut self, key: PortId, busy: bool) {
        self.busy[key.0 as usize] = busy;
    }

    /// Whether any packet (either priority class) is queued on the port,
    /// answered from the queued-packet mirror without touching
    /// [`PortState`].
    // trimlint: hot-path -- one load from the queued-packet mirror
    #[must_use]
    pub fn has_backlog(&self, key: PortId) -> bool {
        self.queued[key.0 as usize] > 0
    }

    /// Every port's last recorded data-queue depth, in [`PortId`] order, for
    /// allocation-free periodic queue sampling.
    #[must_use]
    pub fn depths(&self) -> &[u32] {
        &self.depths
    }

    /// Iterates `((from, to), port)` over every port that saw traffic
    /// (`counters.arrived() > 0`), in `(from, to)` lexicographic order. Cold
    /// path: telemetry export and conservation reports.
    pub fn ports_touched(&self) -> impl Iterator<Item = ((usize, usize), &PortState)> + '_ {
        // PortIds were assigned node-major with sorted neighbors, so row
        // order *is* (from, to) lexicographic order. Virgin ports are
        // skipped so exports list only links that carried traffic.
        self.rows().flat_map(|(from, nbrs, row)| {
            let touched = nbrs
                .iter()
                .zip(row)
                .filter(|(_, p)| p.counters.arrived() > 0);
            touched.map(move |(&to, p)| ((from.0, to as usize), p))
        })
    }

    /// Each node with its sorted neighbor ids and its egress ports, in
    /// [`PortId`] order: a walk of the whole table with no per-port owner
    /// lookup.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (NodeId, &[u32], &[PortState])> + '_ {
        self.row_off.windows(2).enumerate().map(|(n, w)| {
            let row = w[0] as usize..w[1] as usize;
            (NodeId(n), &self.nbrs[row.clone()], &self.ports[row])
        })
    }

    /// Recounts every port (`PortState::recount`), in `(from, to)` order.
    pub(crate) fn recount(&self) -> Result<(), (String, Mismatch)> {
        for (key, port) in (0..).map(PortId).zip(&self.ports) {
            let i = key.0 as usize;
            let found = port.recount(self.depths[i], self.queued[i], self.busy[i]);
            found.map_err(|m| (format!("port {}->{}", self.from(key).0, self.to(key).0), m))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::QueuePolicy;
    use crate::time::{gbps, SimTime};

    fn diamond() -> Topology {
        // 0 - 2 - 1 and 0 - 3 - 1: two disjoint switch paths.
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        let s1 = t.add_switch(QueuePolicy::trim_default());
        let s2 = t.add_switch(QueuePolicy::trim_default());
        t.link(a, s1, gbps(10.0), SimTime::from_micros(1));
        t.link(s1, b, gbps(10.0), SimTime::from_micros(1));
        t.link(a, s2, gbps(10.0), SimTime::from_micros(1));
        t.link(s2, b, gbps(10.0), SimTime::from_micros(1));
        t
    }

    #[test]
    fn dense_ids_are_lexicographic_over_directed_links() {
        let t = diamond();
        let table = DensePortTable::new(&t);
        assert_eq!(table.len(), 8, "4 bidirectional links = 8 directed");
        // Enumerate (from, to) in lexicographic order; keys must be 0..8.
        let mut expect = Vec::new();
        for from in 0..t.len() {
            let mut ns: Vec<usize> = t.neighbors(NodeId(from)).iter().map(|(v, _)| v.0).collect();
            ns.sort_unstable();
            for to in ns {
                expect.push((from, to));
            }
        }
        for (i, &(from, to)) in expect.iter().enumerate() {
            let key = PortId(i as u32);
            assert_eq!(table.key(NodeId(from), NodeId(to)), key, "({from}, {to})");
            assert_eq!((table.from(key), table.to(key)), (NodeId(from), NodeId(to)));
        }
    }

    #[test]
    fn dense_try_key_rejects_missing_links() {
        let t = diamond();
        let table = DensePortTable::new(&t);
        assert!(table.try_key(NodeId(0), NodeId(1)).is_none(), "no 0 → 1");
        assert!(table.try_key(NodeId(2), NodeId(3)).is_none(), "no 2 → 3");
        assert!(table.try_key(NodeId(0), NodeId(2)).is_some());
    }

    #[test]
    fn dense_params_match_adjacency_scan() {
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        let p =
            crate::link::LinkParams::new(gbps(40.0), SimTime::from_micros(3)).with_drop_prob(0.25);
        t.link_with(a, b, p);
        let table = DensePortTable::new(&t);
        let k = table.key(a, b);
        assert_eq!(table.params(k), t.link_params(a, b));
        let k = table.key(b, a);
        assert_eq!(table.params(k), t.link_params(b, a));
    }

    #[test]
    fn parallel_duplicate_links_keep_first_params() {
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        let first = crate::link::LinkParams::new(gbps(10.0), SimTime::from_micros(1));
        let second = crate::link::LinkParams::new(gbps(99.0), SimTime::from_micros(9));
        t.link_with(a, b, first);
        t.link_with(a, b, second);
        let dense = DensePortTable::new(&t);
        let dk = dense.key(a, b);
        assert_eq!(dense.params(dk), first, "dense keeps the first channel");
        assert_eq!(dense.params(dk), t.link_params(a, b));
        // One merged port per directed pair, not one per parallel strand.
        assert_eq!(dense.len(), 2);
    }

    #[test]
    fn ports_touched_lists_only_ports_that_saw_traffic() {
        let t = diamond();
        let mut dense = DensePortTable::new(&t);
        let policy = QueuePolicy::trim_default();
        let pkt = crate::packet::Packet {
            size: 100,
            ..crate::packet::Packet::stub()
        };
        let hop = crate::packet::Hop::of(&pkt, 0);
        let pkt = crate::packet::PacketArena::new().alloc(pkt, 0);
        let dk = dense.key(NodeId(0), NodeId(2));
        let _ = dense.get_mut(dk).enqueue(pkt, hop, &policy);
        let d: Vec<_> = dense
            .ports_touched()
            .map(|(k, p)| (k, p.counters.arrived()))
            .collect();
        assert_eq!(d, vec![((0, 2), 1)]);
    }

    #[test]
    fn depth_mirror_tracks_recorded_depths() {
        let t = diamond();
        let mut table = DensePortTable::new(&t);
        let k = table.key(NodeId(0), NodeId(2));
        table.record_depth(k, 4096, 3);
        let seen = table.depths();
        assert_eq!(seen.len(), table.len());
        assert_eq!(seen.iter().filter(|&&d| d == 4096).count(), 1);
        assert_eq!(seen.iter().filter(|&&d| d == 0).count(), table.len() - 1);
    }

    #[test]
    fn busy_and_backlog_mirrors_are_per_port() {
        let t = diamond();
        let mut table = DensePortTable::new(&t);
        let a = table.key(NodeId(0), NodeId(2));
        let b = table.key(NodeId(2), NodeId(1));
        assert!(!table.is_busy(a) && !table.has_backlog(a));
        table.set_busy(a, true);
        table.record_depth(b, 1500, 1);
        assert!(table.is_busy(a));
        assert!(!table.is_busy(b));
        assert!(table.has_backlog(b));
        assert!(!table.has_backlog(a));
        table.set_busy(a, false);
        table.record_depth(b, 0, 0);
        assert!(!table.is_busy(a));
        assert!(!table.has_backlog(b));
    }
}
