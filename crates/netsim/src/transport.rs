//! Message-level transports: the retransmitting baseline and the trimming
//! transport.
//!
//! Two ways to move an `M`-byte message across the fabric:
//!
//! * [`ReliableSenderApp`] / [`ReliableReceiverApp`] — the "NCCL baseline":
//!   every data packet is individually acknowledged; losses are recovered by
//!   retransmission after an RTO (or immediately on a NACK when a switch
//!   trimmed the packet, since a trimmed synthetic packet has no payload
//!   left). Under loss, stragglers form exactly as §4.4 describes.
//! * [`TrimmingSenderApp`] / [`TrimmingReceiverApp`] — the paper's transport:
//!   data is never retransmitted; a trimmed arrival *is* the delivery (the
//!   receiver decodes the surviving heads). Only whole-packet losses (rare
//!   priority-queue overflow, random loss) are repaired via receiver-driven
//!   NACKs, NDP-style. The message completes when every sequence has arrived
//!   in some form.
//!
//! Completion is recorded in [`crate::stats::Stats`] through
//! [`crate::host::HostApi::complete_flow`]: at the *sender* (last ACK) for
//! the reliable transport, at the *receiver* (last arrival) for the trimming
//! transport.

use crate::host::{App, HostApi};
use crate::packet::{ControlMsg, Packet, PacketBody, PacketSpec};
use crate::time::SimTime;
use crate::{FlowId, NodeId};
use std::collections::BTreeMap;

/// Data packet size in bytes.
const PACKET_SIZE: u32 = 1500;
/// Sender window (max unacknowledged packets) — reliable transport only.
const WINDOW: u64 = 64;
/// Retransmission timeout.
const RTO: SimTime = SimTime::from_micros(500);
/// Receiver gap timeout before NACKing missing sequences (trimming
/// transport).
const GAP_TIMEOUT: SimTime = SimTime::from_micros(100);
/// Fin re-probes a trimming sender issues (with exponential backoff) before
/// declaring the flow failed. Probes reset whenever the receiver shows signs
/// of life, so this bounds only the truly-silent case.
const MAX_FIN_PROBES: u32 = 10;

fn packet_count(msg_bytes: u64) -> u64 {
    msg_bytes.div_ceil(u64::from(PACKET_SIZE)).max(1)
}

// ---------------------------------------------------------------------------
// Reliable (retransmitting) transport
// ---------------------------------------------------------------------------

/// Sender half of the reliable baseline transport (go-back-N, the
/// semantics of NCCL-over-RoCE): a cumulative-ACK window; on a
/// retransmission timeout with no progress, or on three duplicate ACKs, the
/// sender rewinds to the first unacknowledged packet and resends everything
/// from there.
#[derive(Debug)]
pub struct ReliableSenderApp {
    dst: NodeId,
    flow: FlowId,
    total: u64,
    /// First unacknowledged sequence (cumulative ACK horizon).
    base: u64,
    next_new: u64,
    dup_acks: u32,
    base_at_timer: u64,
    /// Base at which the last rewind happened; suppresses repeated rewinds
    /// for the same loss event (fast-recovery semantics) so a wave of
    /// trimmed arrivals cannot trigger a retransmission storm.
    last_rewind_base: Option<u64>,
    /// Packets retransmitted (timeout- or dup-ACK-triggered rewinds).
    pub retransmissions: u64,
    /// RTO firings that found no progress and forced a rewind.
    pub timeouts: u64,
    done: bool,
}

impl ReliableSenderApp {
    /// Creates a sender for one `msg_bytes` message on `flow_id`.
    #[must_use]
    pub fn new(dst: NodeId, msg_bytes: u64, flow_id: u64) -> Self {
        Self {
            dst,
            flow: FlowId(flow_id),
            total: packet_count(msg_bytes),
            base: 0,
            next_new: 0,
            dup_acks: 0,
            base_at_timer: 0,
            last_rewind_base: None,
            retransmissions: 0,
            timeouts: 0,
            done: false,
        }
    }

    /// Whether every packet has been acknowledged.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.done
    }

    fn data_spec(&self, seq: u64) -> PacketSpec {
        let mut spec = PacketSpec::synthetic(self.dst, self.flow, PACKET_SIZE, seq);
        if seq == self.total - 1 {
            spec = spec.with_fin();
        }
        spec
    }

    fn fill_window(&mut self, api: &mut HostApi) {
        while self.next_new < self.total && self.next_new - self.base < WINDOW {
            api.send(self.data_spec(self.next_new));
            self.next_new += 1;
        }
    }

    /// Go-back-N rewind: resend everything from the ACK horizon. At most
    /// one rewind per horizon — further triggers for the same loss event are
    /// absorbed until the ACK horizon moves (or an RTO forces the issue).
    fn rewind(&mut self, api: &mut HostApi, forced: bool) {
        if !forced && self.last_rewind_base == Some(self.base) {
            return;
        }
        self.last_rewind_base = Some(self.base);
        self.retransmissions += self.next_new.saturating_sub(self.base);
        self.next_new = self.base;
        self.fill_window(api);
    }
}

impl App for ReliableSenderApp {
    fn on_start(&mut self, api: &mut HostApi) {
        self.fill_window(api);
        self.base_at_timer = self.base;
        api.timer_in(RTO, 0);
    }

    fn on_packet(&mut self, pkt: Packet, api: &mut HostApi) {
        let PacketBody::Control(msg) = pkt.body else {
            return; // data addressed to a sender: ignore
        };
        match msg {
            ControlMsg::CumAck { upto } => {
                if upto > self.base {
                    self.base = upto;
                    self.dup_acks = 0;
                    self.last_rewind_base = None;
                    if self.base >= self.total && !self.done {
                        self.done = true;
                        api.complete_flow(self.flow);
                        return;
                    }
                    self.fill_window(api);
                } else if upto == self.base && !self.done {
                    self.dup_acks += 1;
                    if self.dup_acks >= 3 {
                        self.dup_acks = 0;
                        self.rewind(api, false);
                    }
                }
            }
            ControlMsg::Nack { seq } => {
                // A trimmed arrival: its payload is gone; rewind from there.
                if seq >= self.base && !self.done {
                    self.rewind(api, false);
                }
            }
        }
    }

    fn on_timer(&mut self, _token: u64, api: &mut HostApi) {
        if self.done {
            return;
        }
        // Only a timer interval with zero progress forces a rewind.
        if self.base == self.base_at_timer {
            self.timeouts += 1;
            self.rewind(api, true);
        }
        self.base_at_timer = self.base;
        api.timer_in(RTO, 0);
    }
}

/// Receiver half of the reliable baseline: go-back-N — accepts only the
/// next in-order sequence, answers every data arrival with a cumulative ACK,
/// and NACKs trimmed arrivals (their payload was destroyed in flight).
#[derive(Debug, Default)]
pub struct ReliableReceiverApp {
    /// In-order data packets accepted.
    pub received: u64,
    /// Out-of-order arrivals discarded (go-back-N).
    pub discarded_out_of_order: u64,
    /// Trimmed arrivals turned into NACKs.
    pub nacked_trimmed: u64,
    expected: BTreeMap<FlowId, u64>,
}

impl ReliableReceiverApp {
    /// Creates the receiver.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl App for ReliableReceiverApp {
    fn on_packet(&mut self, pkt: Packet, api: &mut HostApi) {
        if !matches!(pkt.body, PacketBody::Synthetic) {
            return;
        }
        if pkt.trimmed {
            // Payload destroyed in flight: demand a retransmission.
            self.nacked_trimmed += 1;
            api.send(PacketSpec::control(
                pkt.src,
                pkt.flow,
                ControlMsg::Nack { seq: pkt.seq },
            ));
            return;
        }
        let expected = self.expected.entry(pkt.flow).or_insert(0);
        if pkt.seq == *expected {
            *expected += 1;
            self.received += 1;
        } else if pkt.seq > *expected {
            // Go-back-N: out-of-order data is discarded; the duplicate
            // cumulative ACK below tells the sender to rewind.
            self.discarded_out_of_order += 1;
        }
        // (A duplicate of an already-accepted packet also just re-ACKs.)
        api.send(PacketSpec::control(
            pkt.src,
            pkt.flow,
            ControlMsg::CumAck { upto: *expected },
        ));
    }
}

// ---------------------------------------------------------------------------
// Trimming transport
// ---------------------------------------------------------------------------

/// Sender half of the trimming transport: blast everything once, repair only
/// whole-packet losses on receiver NACKs, re-probe with the fin packet
/// (exponential backoff, bounded attempts) if the receiver stays silent.
#[derive(Debug)]
pub struct TrimmingSenderApp {
    dst: NodeId,
    flow: FlowId,
    total: u64,
    /// NACK-triggered retransmissions (whole-packet losses only). Fin
    /// keep-alive probes are counted separately in
    /// [`Self::fin_probes`], never here.
    pub retransmissions: u64,
    /// Fin re-probes issued against a silent receiver.
    pub fin_probes: u64,
    /// Consecutive probes since the receiver last showed signs of life.
    probes_since_life: u32,
    /// Current probe backoff (doubles per silent probe, capped).
    probe_backoff: SimTime,
    done: bool,
    failed: bool,
}

impl TrimmingSenderApp {
    /// Creates a sender for one `msg_bytes` message on `flow_id`.
    #[must_use]
    pub fn new(dst: NodeId, msg_bytes: u64, flow_id: u64) -> Self {
        Self {
            dst,
            flow: FlowId(flow_id),
            total: packet_count(msg_bytes),
            retransmissions: 0,
            fin_probes: 0,
            probes_since_life: 0,
            probe_backoff: RTO,
            done: false,
            failed: false,
        }
    }

    /// Whether the receiver confirmed completion.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Whether the sender gave up after exhausting its fin probes against a
    /// silent receiver. Terminal: a failed sender issues no further traffic.
    #[must_use]
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    fn data_spec(&self, seq: u64) -> PacketSpec {
        let mut spec = PacketSpec::synthetic(self.dst, self.flow, PACKET_SIZE, seq);
        if seq == self.total - 1 {
            spec = spec.with_fin();
        }
        spec
    }

    /// Any control message from the receiver proves it is alive: reset the
    /// probe budget and backoff so a long NACK-driven recovery is never
    /// misdiagnosed as a dead peer.
    fn note_receiver_alive(&mut self) {
        self.probes_since_life = 0;
        self.probe_backoff = RTO;
    }
}

impl App for TrimmingSenderApp {
    fn on_start(&mut self, api: &mut HostApi) {
        for seq in 0..self.total {
            api.send(self.data_spec(seq));
        }
        api.timer_in(RTO, 0);
    }

    fn on_packet(&mut self, pkt: Packet, api: &mut HostApi) {
        let PacketBody::Control(msg) = pkt.body else {
            return;
        };
        match msg {
            ControlMsg::Nack { seq } => {
                self.note_receiver_alive();
                if seq < self.total && !self.done && !self.failed {
                    self.retransmissions += 1;
                    api.send(self.data_spec(seq));
                }
            }
            ControlMsg::CumAck { upto } => {
                self.note_receiver_alive();
                if upto >= self.total {
                    self.done = true;
                }
            }
        }
    }

    fn on_timer(&mut self, _token: u64, api: &mut HostApi) {
        if self.done || self.failed {
            return;
        }
        // The receiver has not confirmed; the fin (or everything) may have
        // been lost. Re-probe with the fin packet to retrigger gap
        // detection — a keep-alive, *not* a loss repair, so it is counted in
        // `fin_probes` rather than `retransmissions`. Backoff doubles per
        // silent probe; a bounded budget of silence is terminal.
        if self.probes_since_life >= MAX_FIN_PROBES {
            self.failed = true;
            return;
        }
        self.fin_probes += 1;
        self.probes_since_life += 1;
        api.send(self.data_spec(self.total - 1));
        api.timer_in(self.probe_backoff, 0);
        self.probe_backoff = (self.probe_backoff * 2).min(RTO * 64);
    }
}

/// Per-sequence arrival quality at a trimming receiver. Quality only ever
/// improves: `Missing → Trimmed → Full` (the same upgrade-only lattice
/// `trimgrad_wire`'s `RowAssembler` maintains per coordinate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArrivalQuality {
    /// No copy of this sequence has arrived.
    Missing,
    /// Only a trimmed copy has arrived (payload heads survive).
    Trimmed,
    /// A full copy has arrived; later copies are duplicates.
    Full,
}

/// Receiver half of the trimming transport.
#[derive(Debug)]
pub struct TrimmingReceiverApp {
    flow: FlowId,
    quality: Vec<ArrivalQuality>,
    count: u64,
    total: Option<u64>,
    sender: Option<NodeId>,
    /// Arrivals that had been trimmed by a switch (first arrivals only).
    pub trimmed_arrivals: u64,
    /// Full copies that upgraded a previously trimmed sequence (a
    /// retransmitted or duplicated original overtaking its trimmed head).
    pub upgrades: u64,
    /// Duplicate arrivals carrying no new information (ignored).
    pub duplicates: u64,
    /// NACKs issued for missing sequences.
    pub nacks_sent: u64,
    done: bool,
    timer_gen: u64,
}

impl TrimmingReceiverApp {
    /// Creates a receiver for `flow_id`.
    #[must_use]
    pub fn new(flow_id: u64) -> Self {
        Self {
            flow: FlowId(flow_id),
            quality: Vec::new(),
            count: 0,
            total: None,
            sender: None,
            trimmed_arrivals: 0,
            upgrades: 0,
            duplicates: 0,
            nacks_sent: 0,
            done: false,
            timer_gen: 0,
        }
    }

    /// Whether every sequence has arrived.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Fraction of first arrivals that were trimmed.
    #[must_use]
    pub fn trim_fraction(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.trimmed_arrivals as f64 / self.count as f64
        }
    }

    /// Sequences still stuck at trimmed quality (no full copy ever made it).
    #[must_use]
    pub fn residual_trimmed(&self) -> u64 {
        self.quality
            .iter()
            .filter(|q| **q == ArrivalQuality::Trimmed)
            .count() as u64
    }
}

impl App for TrimmingReceiverApp {
    fn on_packet(&mut self, pkt: Packet, api: &mut HostApi) {
        if pkt.flow != self.flow || !matches!(pkt.body, PacketBody::Synthetic) {
            return;
        }
        self.sender = Some(pkt.src);
        if self.quality.len() <= pkt.seq as usize {
            self.quality
                .resize(pkt.seq as usize + 1, ArrivalQuality::Missing);
        }
        if pkt.fin {
            self.total = Some(pkt.seq + 1);
        }
        // Upgrade-only per-sequence quality: a full copy arriving after a
        // trimmed one replaces it (the trimmed head carried only part of the
        // payload); everything that adds no information is a duplicate.
        match (self.quality[pkt.seq as usize], pkt.trimmed) {
            (ArrivalQuality::Missing, true) => {
                self.quality[pkt.seq as usize] = ArrivalQuality::Trimmed;
                self.count += 1;
                self.trimmed_arrivals += 1;
            }
            (ArrivalQuality::Missing, false) => {
                self.quality[pkt.seq as usize] = ArrivalQuality::Full;
                self.count += 1;
            }
            (ArrivalQuality::Trimmed, false) => {
                self.quality[pkt.seq as usize] = ArrivalQuality::Full;
                self.upgrades += 1;
            }
            (ArrivalQuality::Trimmed, true) | (ArrivalQuality::Full, _) => {
                self.duplicates += 1;
            }
        }
        if let Some(total) = self.total {
            if total == self.count {
                if !self.done {
                    self.done = true;
                    api.complete_flow(self.flow);
                }
                // (Re-)confirm completion — also answers duplicate fin
                // probes whose original CumAck was lost in flight.
                api.send(PacketSpec::control(
                    pkt.src,
                    self.flow,
                    ControlMsg::CumAck { upto: total },
                ));
                return;
            }
        }
        if !self.done {
            // (Re)arm gap detection; stale timers are ignored by generation.
            self.timer_gen += 1;
            api.timer_in(GAP_TIMEOUT, self.timer_gen);
        }
    }

    fn on_timer(&mut self, token: u64, api: &mut HostApi) {
        if self.done || token != self.timer_gen {
            return;
        }
        let Some(sender) = self.sender else {
            return;
        };
        // NACK every hole below the known horizon.
        let horizon = self.total.unwrap_or(self.quality.len() as u64);
        for seq in 0..horizon {
            let missing = self
                .quality
                .get(seq as usize)
                .copied()
                .unwrap_or(ArrivalQuality::Missing)
                == ArrivalQuality::Missing;
            if missing {
                self.nacks_sent += 1;
                api.send(PacketSpec::control(
                    sender,
                    self.flow,
                    ControlMsg::Nack { seq },
                ));
            }
        }
        self.timer_gen += 1;
        api.timer_in(GAP_TIMEOUT * 4, self.timer_gen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkParams;
    use crate::sim::Simulator;
    use crate::switch::QueuePolicy;
    use crate::time::gbps;
    use crate::topology::Topology;

    const MSG: u64 = 150_000; // 100 packets
    const MSG_LONG: u64 = 1_500_000; // 1000 packets

    fn dumbbell(policy: QueuePolicy, drop: f64) -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        let s1 = t.add_switch(policy);
        let s2 = t.add_switch(policy);
        t.link(a, s1, gbps(10.0), SimTime::from_micros(1));
        t.link(b, s2, gbps(10.0), SimTime::from_micros(1));
        t.link_with(
            s1,
            s2,
            LinkParams::new(gbps(10.0), SimTime::from_micros(1)).with_drop_prob(drop),
        );
        (t, a, b)
    }

    fn run_reliable(drop: f64) -> (SimTime, u64) {
        let (t, a, b) = dumbbell(QueuePolicy::droptail_default(), drop);
        let mut sim = Simulator::with_seed(t, 7);
        sim.install_app(a, Box::new(ReliableSenderApp::new(b, MSG_LONG, 1)));
        sim.install_app(b, Box::new(ReliableReceiverApp::new()));
        sim.run_until(SimTime::from_secs(5));
        let sender: &ReliableSenderApp = sim.app_ref(a).unwrap();
        assert!(sender.is_done(), "message must complete (drop={drop})");
        let fct = sim.stats().flow(FlowId(1)).unwrap().fct().unwrap();
        (fct, sender.retransmissions)
    }

    #[test]
    fn reliable_completes_without_loss() {
        let (fct, retrans) = run_reliable(0.0);
        assert_eq!(retrans, 0);
        // 1000 packets of 1500 B at 10 Gbps ≈ 1.2 ms + RTT.
        assert!(fct < SimTime::from_millis(3), "fct {fct}");
    }

    #[test]
    fn reliable_recovers_from_loss_but_slows_down() {
        let (fct_clean, _) = run_reliable(0.0);
        let (fct_lossy, retrans) = run_reliable(0.02);
        assert!(retrans > 0, "2% loss must cause retransmissions");
        // Go-back-N at 2% loss: ~20 loss events, each costing roughly a
        // window's worth of resent packets plus occasional RTO stalls.
        assert!(
            fct_lossy > fct_clean * 2,
            "loss must inflate FCT: {fct_clean} → {fct_lossy}"
        );
    }

    #[test]
    fn reliable_receiver_nacks_trimmed_packets() {
        // Squeeze the reliable flow through a trimming switch with a tiny
        // buffer plus competing traffic so trimming actually happens.
        let policy = QueuePolicy {
            data_capacity: 6_000,
            ..QueuePolicy::trim_default()
        };
        let mut t = Topology::new();
        let recv = t.add_host();
        let s = t.add_switch(policy);
        t.link(recv, s, gbps(1.0), SimTime::from_micros(1));
        let a = t.add_host();
        let c = t.add_host();
        t.link(a, s, gbps(10.0), SimTime::from_micros(1));
        t.link(c, s, gbps(10.0), SimTime::from_micros(1));
        let mut sim = Simulator::with_seed(t, 3);
        sim.install_app(a, Box::new(ReliableSenderApp::new(recv, MSG, 1)));
        // Cross traffic to congest the egress.
        sim.install_app(
            c,
            Box::new(crate::crosstraffic::BulkSenderApp::new(
                recv, 600_000, 1500, 99,
            )),
        );
        sim.install_app(recv, Box::new(ReliableReceiverApp::new()));
        sim.run_until(SimTime::from_secs(10));
        let rx: &ReliableReceiverApp = sim.app_ref(recv).unwrap();
        assert!(rx.nacked_trimmed > 0, "congestion must trim some packets");
        let tx: &ReliableSenderApp = sim.app_ref(a).unwrap();
        assert!(tx.is_done());
    }

    fn run_trimming(policy: QueuePolicy, cross: bool) -> (SimTime, f64, u64) {
        let mut t = Topology::new();
        let recv = t.add_host();
        let s = t.add_switch(policy);
        t.link(recv, s, gbps(1.0), SimTime::from_micros(1));
        let a = t.add_host();
        let c = t.add_host();
        t.link(a, s, gbps(10.0), SimTime::from_micros(1));
        t.link(c, s, gbps(10.0), SimTime::from_micros(1));
        let mut sim = Simulator::with_seed(t, 5);
        sim.install_app(a, Box::new(TrimmingSenderApp::new(recv, MSG, 1)));
        if cross {
            sim.install_app(
                c,
                Box::new(crate::crosstraffic::BulkSenderApp::new(
                    recv, 600_000, 1500, 99,
                )),
            );
        }
        sim.install_app(recv, Box::new(TrimmingReceiverApp::new(1)));
        sim.run_until(SimTime::from_secs(10));
        let rx: &TrimmingReceiverApp = sim.app_ref(recv).unwrap();
        assert!(rx.is_done(), "trimming transport must complete");
        let fct = sim.stats().flow(FlowId(1)).unwrap().fct().unwrap();
        let tx: &TrimmingSenderApp = sim.app_ref(a).unwrap();
        (fct, rx.trim_fraction(), tx.retransmissions)
    }

    #[test]
    fn trimming_completes_cleanly_without_congestion() {
        let (fct, trim_frac, _) = run_trimming(QueuePolicy::trim_default(), false);
        assert_eq!(trim_frac, 0.0);
        // 100 × 1500 B over the 1 Gbps edge ≈ 1.2 ms.
        assert!(fct < SimTime::from_millis(3), "fct {fct}");
    }

    #[test]
    fn trimming_absorbs_congestion_without_data_retransmission() {
        let policy = QueuePolicy {
            data_capacity: 6_000,
            ..QueuePolicy::trim_default()
        };
        let (fct, trim_frac, _retrans) = run_trimming(policy, true);
        assert!(trim_frac > 0.05, "congestion must trim (got {trim_frac})");
        // Despite heavy congestion the message still finishes quickly —
        // trimmed packets ride the priority queue instead of waiting.
        assert!(fct < SimTime::from_millis(10), "fct {fct}");
    }

    #[test]
    fn trimming_beats_reliable_under_congestion() {
        // Same congested scenario for both transports (tiny buffer, heavy
        // cross traffic): the trimming transport's FCT must be smaller.
        let policy_trim = QueuePolicy {
            data_capacity: 6_000,
            ..QueuePolicy::trim_default()
        };
        let (fct_trim, _, _) = run_trimming(policy_trim, true);

        let policy_drop = QueuePolicy {
            data_capacity: 6_000,
            ..QueuePolicy::droptail_default()
        };
        let mut t = Topology::new();
        let recv = t.add_host();
        let s = t.add_switch(policy_drop);
        t.link(recv, s, gbps(1.0), SimTime::from_micros(1));
        let a = t.add_host();
        let c = t.add_host();
        t.link(a, s, gbps(10.0), SimTime::from_micros(1));
        t.link(c, s, gbps(10.0), SimTime::from_micros(1));
        let mut sim = Simulator::with_seed(t, 5);
        sim.install_app(a, Box::new(ReliableSenderApp::new(recv, MSG, 1)));
        sim.install_app(
            c,
            Box::new(crate::crosstraffic::BulkSenderApp::new(
                recv, 600_000, 1500, 99,
            )),
        );
        sim.install_app(recv, Box::new(ReliableReceiverApp::new()));
        sim.run_until(SimTime::from_secs(10));
        let tx: &ReliableSenderApp = sim.app_ref(a).unwrap();
        assert!(tx.is_done());
        let fct_rel = sim.stats().flow(FlowId(1)).unwrap().fct().unwrap();

        assert!(
            fct_trim < fct_rel,
            "trimming {fct_trim} must beat reliable {fct_rel} under congestion"
        );
    }

    /// Regression (bug: trimmed arrival marked its sequence `seen`, so the
    /// later full copy was discarded as a duplicate — the opposite of the
    /// upgrade-only semantics `RowAssembler` documents).
    #[test]
    fn full_copy_upgrades_trimmed_arrival() {
        use crate::host::HostApi;
        use trimgrad_telemetry::Registry;
        let mk = |seq: u64, trimmed: bool| Packet {
            id: seq,
            flow: FlowId(1),
            src: NodeId(0),
            dst: NodeId(1),
            size: if trimmed { 64 } else { 1500 },
            priority: trimmed,
            reliable: false,
            trimmed,
            ecn: false,
            seq,
            fin: false,
            body: PacketBody::Synthetic,
        };
        let mut rx = TrimmingReceiverApp::new(1);
        let (reg, tracer) = (Registry::new(), trimgrad_trace::Tracer::disabled());
        let mut api = HostApi::new(SimTime::ZERO, NodeId(1), &reg, &tracer, Default::default());
        rx.on_packet(mk(0, true), &mut api);
        assert_eq!(rx.trimmed_arrivals, 1);
        assert_eq!(rx.residual_trimmed(), 1);
        // The full copy upgrades the trimmed one — it is NOT a duplicate.
        rx.on_packet(mk(0, false), &mut api);
        assert_eq!(rx.duplicates, 0, "full-after-trimmed must not be a dup");
        assert_eq!(rx.upgrades, 1);
        assert_eq!(rx.residual_trimmed(), 0);
        // Quality never downgrades: further copies of any kind are dups.
        rx.on_packet(mk(0, false), &mut api);
        rx.on_packet(mk(0, true), &mut api);
        assert_eq!(rx.upgrades, 1);
        assert_eq!(rx.duplicates, 2);
    }

    /// Regression (bug: fin re-probes were counted in `retransmissions` and
    /// re-probed forever with no backoff against a dead receiver).
    #[test]
    fn silent_receiver_bounds_fin_probes_and_fails() {
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host(); // default SinkApp: never speaks the protocol
        t.link(a, b, gbps(10.0), SimTime::from_micros(1));
        let mut sim = Simulator::new(t);
        sim.install_app(a, Box::new(TrimmingSenderApp::new(b, MSG, 1)));
        sim.run_until(SimTime::from_secs(5));
        let tx: &TrimmingSenderApp = sim.app_ref(a).unwrap();
        assert!(!tx.is_done());
        assert!(tx.is_failed(), "a silent receiver must be terminal");
        // Keep-alives are not loss repairs.
        assert_eq!(tx.retransmissions, 0);
        let budget = u64::from(MAX_FIN_PROBES);
        assert_eq!(tx.fin_probes, budget);
        // Bounded total traffic: the 100-packet blast plus the probe budget,
        // not a 5-second spin at the raw RTO.
        assert_eq!(sim.stats().sent_packets(), 100 + budget);
    }

    /// The probe backoff must double (capped), so the failure verdict lands
    /// after a geometric, not linear, amount of silence.
    #[test]
    fn fin_probe_backoff_is_exponential() {
        use crate::host::HostApi;
        use trimgrad_telemetry::Registry;
        let mut tx = TrimmingSenderApp::new(NodeId(1), 1500, 1);
        let (reg, tracer) = (Registry::new(), trimgrad_trace::Tracer::disabled());
        let new_api = || HostApi::new(SimTime::ZERO, NodeId(0), &reg, &tracer, Default::default());
        let mut delays = Vec::new();
        for _ in 0..MAX_FIN_PROBES {
            let mut api = new_api();
            tx.on_timer(0, &mut api);
            let (at, _) = api.actions.timers[0];
            delays.push(at);
        }
        // 0.5ms, 1ms, 2ms, ... capped at 64 × RTO = 32ms.
        assert_eq!(delays[0], RTO);
        assert_eq!(delays[1], RTO * 2);
        assert_eq!(delays[2], RTO * 4);
        assert_eq!(*delays.last().unwrap(), RTO * 64);
        // The budget is spent: the next firing is terminal and arms nothing.
        let mut api = new_api();
        tx.on_timer(0, &mut api);
        assert!(tx.is_failed());
        assert!(api.actions.timers.is_empty() && api.actions.outbox.is_empty());
        // Signs of life reset the budget and the backoff.
        tx.failed = false;
        tx.note_receiver_alive();
        let mut api = new_api();
        tx.on_timer(0, &mut api);
        assert_eq!(api.actions.timers[0].0, RTO);
    }

    #[test]
    fn trimming_recovers_from_random_whole_packet_loss() {
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        t.link_with(
            a,
            b,
            LinkParams::new(gbps(10.0), SimTime::from_micros(1)).with_drop_prob(0.05),
        );
        let mut sim = Simulator::with_seed(t, 11);
        sim.install_app(a, Box::new(TrimmingSenderApp::new(b, MSG, 1)));
        sim.install_app(b, Box::new(TrimmingReceiverApp::new(1)));
        sim.run_until(SimTime::from_secs(10));
        let rx: &TrimmingReceiverApp = sim.app_ref(b).unwrap();
        assert!(rx.is_done(), "NACK recovery must complete the flow");
        assert!(rx.nacks_sent > 0);
    }
}
