//! Property tests for the simulator's global invariants: packet
//! conservation, clock monotonicity (implicitly, via successful runs), and
//! policy-specific guarantees (trimming fabrics never drop data packets
//! while the priority queue has room).

use proptest::prelude::*;
use trimgrad_netsim::crosstraffic::BulkSenderApp;
use trimgrad_netsim::sim::Simulator;
use trimgrad_netsim::switch::{FullAction, QueuePolicy};
use trimgrad_netsim::time::{gbps, SimTime};
use trimgrad_netsim::topology::Topology;
use trimgrad_netsim::NodeId;

/// Builds a random single-switch fabric with `hosts` hosts.
fn star(hosts: usize, policy: QueuePolicy, rate_gbps: f64) -> (Topology, Vec<NodeId>) {
    let mut t = Topology::new();
    let sw = t.add_switch(policy);
    let hs = (0..hosts)
        .map(|_| {
            let h = t.add_host();
            t.link(h, sw, gbps(rate_gbps), SimTime::from_micros(1));
            h
        })
        .collect();
    (t, hs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Conservation holds for arbitrary traffic matrices under every policy,
    /// at quiescence and at an arbitrary mid-run cut.
    #[test]
    fn conservation_under_random_traffic(
        hosts in 2usize..8,
        flows in proptest::collection::vec(
            (0usize..8, 0usize..8, 1_500u64..200_000), 1..10),
        policy_idx in 0usize..3,
        cut_us in 1u64..2000,
        seed in any::<u64>()
    ) {
        let policy = [
            QueuePolicy::trim_default(),
            QueuePolicy::droptail_default(),
            QueuePolicy {
                data_capacity: 10_000,
                prio_capacity: 4_000,
                ecn_threshold: Some(5_000),
                action: FullAction::Trim { grad_depth: 1 },
            },
        ][policy_idx];
        let (topo, hs) = star(hosts, policy, 10.0);
        let mut sim = Simulator::with_seed(topo, seed);
        let mut installed = std::collections::HashSet::new();
        for (i, &(src, dst, bytes)) in flows.iter().enumerate() {
            let src = src % hosts;
            let dst = dst % hosts;
            if src == dst || !installed.insert(src) {
                continue; // one app per host, no self-flows
            }
            sim.install_app(
                hs[src],
                Box::new(BulkSenderApp::new(hs[dst], bytes, 1500, i as u64)),
            );
        }
        // Debug builds also recount every invariant at each sampling tick.
        sim.enable_queue_sampling(SimTime::from_micros(7));
        // Mid-run cut: conservation must hold with packets still in flight,
        // and so must every other recountable invariant.
        sim.run_until(SimTime::from_micros(cut_us));
        prop_assert!(sim.conservation_holds(), "mid-run conservation violated");
        prop_assert_eq!(sim.check_invariants(), Ok(()), "mid-run");
        // Quiescence: nothing left inside the network.
        sim.run_until(SimTime::from_secs(30));
        prop_assert!(sim.conservation_holds(), "final conservation violated");
        prop_assert_eq!(sim.check_invariants(), Ok(()), "final");
        prop_assert_eq!(sim.in_flight(), 0, "packets stuck in the network");
    }

    /// On a trimming fabric with a roomy priority queue, every sent data
    /// packet is delivered (possibly trimmed) — the NDP "no loss" property.
    #[test]
    fn trimming_fabric_never_loses(
        senders in 2usize..8,
        bytes in 10_000u64..150_000,
        data_cap in 5_000u32..50_000
    ) {
        let policy = QueuePolicy {
            data_capacity: data_cap,
            prio_capacity: 1 << 22,
            ecn_threshold: None,
            action: FullAction::Trim { grad_depth: 1 },
        };
        let (topo, hs) = star(senders + 1, policy, 10.0);
        let mut sim = Simulator::new(topo);
        for (i, &h) in hs[1..].iter().enumerate() {
            sim.install_app(h, Box::new(BulkSenderApp::new(hs[0], bytes, 1500, i as u64)));
        }
        sim.run_until(SimTime::from_secs(30));
        prop_assert_eq!(sim.stats().dropped_total(), 0);
        prop_assert_eq!(
            sim.stats().delivered_packets(),
            sim.stats().sent_packets()
        );
    }
}
