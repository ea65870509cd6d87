//! Property tests for a single switch port driven with arbitrary packet
//! streams: capacity invariants, the trim-to-priority guarantee, and the
//! conservation identity between the port's telemetry counters and what
//! actually happened to the packets.

use proptest::prelude::*;
use trimgrad_netsim::packet::{InFlight, Packet, PacketArena, PacketBody, SYNTHETIC_TRIM_STUB};
use trimgrad_netsim::switch::{EnqueueOutcome, FullAction, PortState, QueuePolicy};
use trimgrad_netsim::time::SimTime;
use trimgrad_netsim::{FlowId, NodeId};
use trimgrad_telemetry::Registry;

fn pkt(id: u64, size: u32, priority: bool) -> Box<InFlight> {
    let pkt = Packet {
        id,
        flow: FlowId(1),
        src: NodeId(0),
        dst: NodeId(1),
        size,
        priority,
        reliable: priority,
        trimmed: false,
        ecn: false,
        seq: id,
        fin: false,
        sent_at: SimTime::ZERO,
        body: PacketBody::Synthetic,
    };
    PacketArena::new().alloc(pkt, 0, 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under any enqueue/dequeue schedule and any policy: the data queue
    /// never exceeds `data_capacity`, the priority queue never exceeds
    /// `prio_capacity`, trimmed remnants drain strictly before data
    /// packets, and the port's counters (exported through telemetry)
    /// account for every arrival.
    #[test]
    fn port_invariants_under_random_schedule(
        steps in proptest::collection::vec((0u8..4, 64u32..3000, any::<bool>()), 1..200),
        data_cap in 1_000u32..20_000,
        prio_cap in 200u32..5_000,
        trim in any::<bool>(),
        ecn_on in any::<bool>(),
        ecn_thresh in 500u32..10_000,
    ) {
        let policy = QueuePolicy {
            data_capacity: data_cap,
            prio_capacity: prio_cap,
            ecn_threshold: if ecn_on { Some(ecn_thresh) } else { None },
            action: if trim {
                FullAction::Trim { grad_depth: 1 }
            } else {
                FullAction::DropTail
            },
        };
        let mut port = PortState::new();
        let mut id = 0u64;
        let mut dequeued = Vec::new();
        // Each step is a raw tuple: `op == 0` dequeues, anything else
        // enqueues `(size, priority)`.
        for (op, size, priority) in steps {
            if op == 0 {
                if let Some(p) = port.dequeue() {
                    dequeued.push(p);
                }
            } else {
                id += 1;
                let outcome = port.enqueue(pkt(id, size, priority), &policy);
                // Capacity invariants hold after every operation.
                prop_assert!(port.low_bytes() <= policy.data_capacity);
                prop_assert!(port.high_bytes() <= policy.prio_capacity);
                if outcome == EnqueueOutcome::Trimmed {
                    // A trim only happens on trimming fabrics, and the
                    // remnant lands in the priority queue.
                    prop_assert!(trim);
                    prop_assert!(port.high_bytes() >= SYNTHETIC_TRIM_STUB);
                }
            }
        }
        // Drain what's left; strict priority means no trimmed remnant (or
        // native priority packet) may appear after a plain data packet
        // within this final drain.
        let drain_start = dequeued.len();
        while let Some(p) = port.dequeue() {
            dequeued.push(p);
        }
        let tail = &dequeued[drain_start..];
        if let Some(first_data) = tail.iter().position(|p| !p.priority && !p.trimmed) {
            for p in &tail[first_data..] {
                prop_assert!(
                    !p.trimmed && !p.priority,
                    "priority-class packet drained after a data packet"
                );
            }
        }
        prop_assert!(port.is_empty());
        prop_assert_eq!(port.low_bytes(), 0);
        prop_assert_eq!(port.high_bytes(), 0);

        // Conservation: every arrival is queued, trimmed, or dropped; and
        // everything queued eventually came back out.
        let c = port.counters;
        prop_assert!(c.conserved(), "counters do not conserve: {c:?}");
        prop_assert_eq!(c.arrived, id);
        prop_assert_eq!(c.dequeued, dequeued.len() as u64);
        prop_assert_eq!(c.queued_total(), c.dequeued);
        let trimmed_out = dequeued.iter().filter(|p| p.trimmed).count() as u64;
        prop_assert_eq!(c.trimmed, trimmed_out);
        if !trim {
            prop_assert_eq!(c.trimmed, 0);
        }

        // The telemetry export mirrors the raw counters exactly.
        let reg = Registry::new();
        c.export_to(&reg, "netsim.port.t");
        let snap = reg.snapshot();
        prop_assert_eq!(snap.counter("netsim.port.t.arrived"), c.arrived);
        prop_assert_eq!(snap.counter("netsim.port.t.trimmed"), c.trimmed);
        prop_assert_eq!(snap.counter("netsim.port.t.dequeued"), c.dequeued);
        prop_assert_eq!(
            snap.counter("netsim.port.t.arrived"),
            snap.counter("netsim.port.t.queued_data")
                + snap.counter("netsim.port.t.queued_prio")
                + snap.counter("netsim.port.t.trimmed")
                + snap.counter("netsim.port.t.dropped_data_full")
                + snap.counter("netsim.port.t.dropped_prio_full"),
            "snapshot-level conservation violated"
        );
    }

    /// On a trimming port, overflowing data packets big enough to carry a
    /// remnant are never silently lost while the priority queue has room:
    /// they are trimmed to `SYNTHETIC_TRIM_STUB` bytes and survive.
    #[test]
    fn overflow_trims_instead_of_dropping(
        sizes in proptest::collection::vec(100u32..1500, 1..64),
        data_cap in 500u32..3_000,
    ) {
        let policy = QueuePolicy {
            data_capacity: data_cap,
            prio_capacity: 1 << 20,
            ecn_threshold: None,
            action: FullAction::Trim { grad_depth: 1 },
        };
        let mut port = PortState::new();
        for (i, &size) in sizes.iter().enumerate() {
            let outcome = port.enqueue(pkt(i as u64, size, false), &policy);
            prop_assert!(outcome.survived(), "lost a trimmable data packet");
        }
        let c = port.counters;
        prop_assert_eq!(c.dropped_total(), 0);
        prop_assert_eq!(c.arrived, sizes.len() as u64);
        // Every remnant is in the priority queue, at stub size.
        let mut seen_trimmed = 0u64;
        while let Some(p) = port.dequeue() {
            if p.trimmed {
                prop_assert_eq!(p.size, SYNTHETIC_TRIM_STUB);
                seen_trimmed += 1;
            }
        }
        prop_assert_eq!(seen_trimmed, c.trimmed);
        prop_assert_eq!(c.queued_data + c.trimmed, sizes.len() as u64);
    }
}
