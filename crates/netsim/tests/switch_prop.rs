//! Property tests for a single switch port driven with arbitrary packet
//! streams: capacity invariants, the trim-to-priority guarantee, the
//! conservation identity between the port's telemetry counters and what
//! actually happened to the packets, and the port-queue entries' hop state
//! against the packet records and a two-FIFO model.

use proptest::prelude::*;
use trimgrad_netsim::packet::{
    Hop, InFlight, Packet, PacketArena, PacketBody, SYNTHETIC_TRIM_STUB,
};
use trimgrad_netsim::switch::{EnqueueOutcome, FullAction, PortState, QueuePolicy};
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
        body: PacketBody::Synthetic,
    };
    PacketArena::new().alloc(pkt, 0)
}

/// Enqueues `pkt` with the hop state its record implies and path cursor
/// `cursor`.
fn offer(
    port: &mut PortState,
    pkt: Box<InFlight>,
    cursor: u32,
    policy: &QueuePolicy,
) -> (EnqueueOutcome, Option<Box<InFlight>>) {
    let hop = Hop::of(&pkt, cursor);
    port.enqueue(pkt, hop, policy)
}

/// Dequeues, asserting the hop state that comes back is the record's.
fn take(port: &mut PortState) -> Option<(Box<InFlight>, Hop)> {
    let (p, hop) = port.dequeue()?;
    assert_eq!(
        (hop.size, hop.priority),
        (p.size, p.priority),
        "hop/record diverged"
    );
    Some((p, hop))
}

/// What the port should hold: a strict-priority pair of FIFOs of
/// `(id, size, cursor)` with their byte totals, deciding each arrival's fate
/// from the policy alone.
#[derive(Default)]
struct Model {
    high: Vec<(u64, u32, u32)>,
    low: Vec<(u64, u32, u32)>,
    high_bytes: u32,
    low_bytes: u32,
}

impl Model {
    fn enqueue(
        &mut self,
        (id, size, cursor): (u64, u32, u32),
        priority: bool,
        policy: &QueuePolicy,
    ) -> EnqueueOutcome {
        let (size, outcome) = if priority {
            (size, EnqueueOutcome::Priority)
        } else if self.low_bytes + size <= policy.data_capacity {
            self.low_bytes += size;
            self.low.push((id, size, cursor));
            return EnqueueOutcome::Data;
        } else if matches!(policy.action, FullAction::Trim { .. }) && size > SYNTHETIC_TRIM_STUB {
            (SYNTHETIC_TRIM_STUB, EnqueueOutcome::Trimmed)
        } else {
            return EnqueueOutcome::DroppedDataFull;
        };
        if self.high_bytes + size > policy.prio_capacity {
            return EnqueueOutcome::DroppedPrioFull;
        }
        self.high_bytes += size;
        self.high.push((id, size, cursor));
        outcome
    }

    fn dequeue(&mut self) -> Option<((u64, u32, u32), bool)> {
        if !self.high.is_empty() {
            let e = self.high.remove(0);
            self.high_bytes -= e.1;
            return Some((e, true));
        }
        if self.low.is_empty() {
            return None;
        }
        let e = self.low.remove(0);
        self.low_bytes -= e.1;
        Some((e, false))
    }
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
                if let Some((p, _)) = take(&mut port) {
                    dequeued.push(p);
                }
            } else {
                id += 1;
                let (outcome, rejected) = offer(&mut port, pkt(id, size, priority), 0, &policy);
                prop_assert_eq!(rejected.is_some(), !outcome.survived());
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
        while let Some((p, _)) = take(&mut port) {
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

        // Every arrival is counted under one outcome, and everything queued
        // came back out.
        let c = port.counters;
        prop_assert_eq!(c.arrived(), id);
        prop_assert_eq!(port.dequeued(), dequeued.len() as u64);
        let trimmed_out = dequeued.iter().filter(|p| p.trimmed).count() as u64;
        prop_assert_eq!(c.trimmed, trimmed_out);
        if !trim {
            prop_assert_eq!(c.trimmed, 0);
        }

        // The telemetry export carries what happened to the packets.
        let reg = Registry::new();
        port.export_to(&reg, "netsim.port.t");
        let snap = reg.snapshot();
        prop_assert_eq!(snap.counter("netsim.port.t.arrived"), id);
        prop_assert_eq!(snap.counter("netsim.port.t.trimmed"), trimmed_out);
        prop_assert_eq!(snap.counter("netsim.port.t.dequeued"), dequeued.len() as u64);
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
            let (outcome, _) = offer(&mut port, pkt(i as u64, size, false), 0, &policy);
            prop_assert!(outcome.survived(), "lost a trimmable data packet");
        }
        let c = port.counters;
        prop_assert_eq!(c.dropped_total(), 0);
        prop_assert_eq!(c.arrived(), sizes.len() as u64);
        // Every remnant is in the priority queue, at stub size.
        let mut seen_trimmed = 0u64;
        while let Some((p, hop)) = take(&mut port) {
            if p.trimmed {
                prop_assert_eq!(p.size, SYNTHETIC_TRIM_STUB);
                prop_assert_eq!(hop.size, SYNTHETIC_TRIM_STUB);
                seen_trimmed += 1;
            }
        }
        prop_assert_eq!(seen_trimmed, c.trimmed);
        prop_assert_eq!(c.queued_data + c.trimmed, sizes.len() as u64);
    }

    /// Over random enqueue / trim / drop / dequeue sequences, every entry
    /// comes out carrying its record's size and class and the cursor it was
    /// queued with, rejected packets come back to the caller, and outcomes,
    /// byte totals and dequeue order equal a two-`Vec` strict-priority FIFO
    /// model's.
    #[test]
    fn entries_match_records_and_a_two_fifo_model(
        steps in proptest::collection::vec((0u8..5, 60u32..2000, 0u8..4), 1..300),
        data_cap in 1_000u32..8_000,
        prio_cap in 64u32..2_000,
        trim in any::<bool>(),
        ecn_on in any::<bool>(),
        ecn_thresh in 500u32..6_000,
    ) {
        let policy = QueuePolicy {
            data_capacity: data_cap,
            prio_capacity: prio_cap,
            ecn_threshold: ecn_on.then_some(ecn_thresh),
            action: if trim { FullAction::Trim { grad_depth: 1 } } else { FullAction::DropTail },
        };
        let (mut port, mut model) = (PortState::new(), Model::default());
        let mut id = 0u64;
        let check_dequeue = |port: &mut PortState, model: &mut Model| {
            let got = take(port).map(|(p, hop)| ((p.id, hop.size, hop.cursor), hop.priority));
            assert_eq!(got, model.dequeue(), "dequeue order or hop state");
        };
        for (op, size, class) in steps {
            if op == 0 {
                check_dequeue(&mut port, &mut model);
            } else {
                id += 1;
                // class 0: priority, 1: data at the stub size (drops when it
                // overflows), otherwise plain trimmable data.
                let (priority, size) = match class {
                    0 => (true, size),
                    1 => (false, SYNTHETIC_TRIM_STUB),
                    _ => (false, size),
                };
                let cursor = (id as u32).wrapping_mul(2_654_435_761);
                let (outcome, rejected) = offer(&mut port, pkt(id, size, priority), cursor, &policy);
                prop_assert_eq!(outcome, model.enqueue((id, size, cursor), priority, &policy));
                prop_assert_eq!(rejected.map(|p| p.id), (!outcome.survived()).then_some(id));
            }
            prop_assert_eq!(port.low_bytes(), model.low_bytes);
            prop_assert_eq!(port.high_bytes(), model.high_bytes);
            prop_assert_eq!(port.queued_packets(), model.high.len() + model.low.len());
        }
        while !port.is_empty() {
            check_dequeue(&mut port, &mut model);
        }
        prop_assert!(model.dequeue().is_none());
    }
}
