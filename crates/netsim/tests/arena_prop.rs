//! Property tests for the packet arena: recycled boxes never leak stale
//! payload/flow/seq fields — or the previous occupant's flow slot — across
//! reuse, the freelist counters are
//! self-consistent under arbitrary alloc/free interleavings, and — driven
//! through a real congested simulation — the arena's lifecycle totals
//! reconcile exactly with [`Stats`] send/deliver/drop accounting.

use proptest::prelude::*;
use trimgrad_netsim::packet::{InFlight, Packet, PacketArena, PacketBody};
use trimgrad_netsim::sim::Simulator;
use trimgrad_netsim::switch::{FullAction, QueuePolicy};
use trimgrad_netsim::time::{gbps, SimTime};
use trimgrad_netsim::topology::Topology;
use trimgrad_netsim::workload::FlowSchedule;
use trimgrad_netsim::{FlowId, NodeId};
use trimgrad_wire::packet::GradPacket;

/// A fully distinct packet derived from `tag`: every field that could leak
/// from a recycled slot is a function of the tag, including the payload
/// bytes behind the body.
fn tagged_packet(tag: u64) -> Packet {
    let b = (tag & 0xFF) as u8;
    let len = 1 + (tag as usize % 7);
    Packet {
        id: tag,
        flow: FlowId(tag.wrapping_mul(3)),
        src: NodeId((tag as usize) % 13),
        dst: NodeId((tag as usize) % 17),
        size: (tag as u32) | 1,
        priority: tag & 1 == 0,
        reliable: tag & 2 == 0,
        trimmed: tag & 4 == 0,
        ecn: tag & 8 == 0,
        seq: tag ^ 0x5EED,
        fin: tag & 16 == 0,
        body: PacketBody::GradData(GradPacket::from_frame(vec![b; len])),
    }
}

/// The flow slot boxed alongside [`tagged_packet`]`(tag)`, a function of the
/// tag.
fn tagged_slot(tag: u64) -> u32 {
    (tag as u32).wrapping_mul(11) & !1
}

/// Asserts `got` is exactly the box [`tagged_packet`] and [`tagged_slot`]
/// build for `tag` — i.e. nothing survived from whatever previously
/// occupied the slot.
fn assert_is_tagged(got: &InFlight, tag: u64) {
    assert_eq!(
        got.flow_slot(),
        tagged_slot(tag),
        "flow slot leaked across reuse"
    );
    let want = tagged_packet(tag);
    assert_eq!(got.id, want.id);
    assert_eq!(got.flow, want.flow);
    assert_eq!(got.src, want.src);
    assert_eq!(got.dst, want.dst);
    assert_eq!(got.size, want.size);
    assert_eq!(got.priority, want.priority);
    assert_eq!(got.reliable, want.reliable);
    assert_eq!(got.trimmed, want.trimmed);
    assert_eq!(got.ecn, want.ecn);
    assert_eq!(got.seq, want.seq);
    assert_eq!(got.fin, want.fin);
    let (PacketBody::GradData(g), PacketBody::GradData(w)) = (&got.body, &want.body) else {
        panic!("body variant leaked: {:?}", got.body);
    };
    assert_eq!(
        g.as_bytes(),
        w.as_bytes(),
        "payload bytes leaked across reuse"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary alloc/free interleavings: every box handed out carries
    /// exactly the requested fields (recycled or fresh), and the counters
    /// obey live = allocs − frees, fresh + recycled = allocs,
    /// pooled = frees − recycled, high-water = max live.
    #[test]
    fn recycled_boxes_never_leak_fields(ops in proptest::collection::vec(any::<bool>(), 1..300)) {
        let mut arena = PacketArena::new();
        let mut held: Vec<(Box<InFlight>, u64)> = Vec::new();
        let mut tag = 0u64;
        let mut max_live = 0u64;
        for alloc in ops {
            if alloc || held.is_empty() {
                tag += 1;
                let boxed = arena.alloc(tagged_packet(tag), tagged_slot(tag));
                assert_is_tagged(&boxed, tag);
                held.push((boxed, tag));
            } else {
                // Free from the middle so freelist order varies.
                let (slot, t) = held.swap_remove(held.len() / 2);
                // The box still holds *our* fields at free time.
                assert_is_tagged(&slot, t);
                arena.free(slot);
            }
            max_live = max_live.max(held.len() as u64);
            prop_assert_eq!(arena.live(), held.len() as u64);
            prop_assert_eq!(arena.high_water(), max_live);
            prop_assert_eq!(
                arena.fresh_allocations() + arena.recycled_allocations(),
                arena.total_allocations()
            );
            prop_assert_eq!(arena.total_allocations(), tag);
            prop_assert_eq!(arena.freed(), tag - held.len() as u64);
            prop_assert_eq!(
                arena.pooled() as u64,
                arena.freed() - arena.recycled_allocations()
            );
        }
        // Drain everything; the pool ends holding every box ever freed and
        // not re-issued.
        for (slot, t) in held.drain(..) {
            assert_is_tagged(&slot, t);
            arena.free(slot);
        }
        prop_assert_eq!(arena.live(), 0);
        prop_assert_eq!(arena.freed(), tag);
    }

    /// Through a real congested incast (trim fabric, tight buffers, every
    /// destination routed): after the network drains, the arena's totals
    /// reconcile with `Stats` — allocations = sent, frees = delivered +
    /// dropped, and zero live boxes.
    #[test]
    fn arena_reconciles_with_stats_after_drain(
        senders in 2usize..8,
        flow_bytes in 3_000u64..30_000,
        seed in any::<u64>(),
    ) {
        let policy = QueuePolicy {
            data_capacity: 6_000,
            prio_capacity: 1_200,
            ecn_threshold: None,
            action: FullAction::Trim { grad_depth: 1 },
        };
        let mut topo = Topology::new();
        let hosts: Vec<NodeId> = (0..senders + 1).map(|_| topo.add_host()).collect();
        let sw = topo.add_switch(policy);
        for &h in &hosts {
            topo.link(h, sw, gbps(10.0), SimTime::from_micros(1));
        }
        let sched = FlowSchedule::incast(&hosts, senders, flow_bytes, 1_500, seed);
        let mut sim = Simulator::with_seed(topo, seed);
        sched.install(&mut sim);
        sim.run_until(SimTime::from_millis(500));

        let stats = sim.stats();
        let arena = sim.arena();
        prop_assert_eq!(sim.in_flight(), 0, "network failed to drain");
        // Every routed send drew one box from the arena (no fault plan, so
        // no injected clones; every destination is routed, so no routeless
        // sends that skip allocation).
        prop_assert_eq!(
            arena.total_allocations(),
            stats.sent_packets() + stats.injected_packets()
        );
        // Every box went back: delivered at a host or dropped at a port.
        prop_assert_eq!(
            arena.freed(),
            stats.delivered_packets() + stats.dropped_total()
        );
        prop_assert_eq!(arena.freed(), arena.total_allocations());
        prop_assert!(arena.high_water() <= arena.total_allocations());
        prop_assert_eq!(sim.check_invariants(), Ok(()));
    }
}
