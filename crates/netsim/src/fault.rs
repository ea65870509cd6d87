//! Deterministic, seeded fault injection.
//!
//! The paper's claim is not that the fabric is friendly — it is that training
//! *survives* a hostile one. [`FaultPlan`] is the adversary: a per-channel /
//! per-node policy of whole-packet loss bursts, reordering windows,
//! duplication, one-byte corruption, header-field truncation, and stale
//! replay, applied by the simulator as packets start serializing on an
//! egress port ([`crate::sim::Simulator::install_fault_plan`]).
//!
//! Every draw comes from a per-channel [`Xoshiro256StarStar`] stream seeded
//! through [`crate::link::channel_seed`], so a run with a given plan seed is
//! byte-reproducible: a chaos-test failure is replayed by re-running with the
//! seed it printed. Channel streams are derived independently of the order
//! channels first carry traffic, so adding a flow on one link never perturbs
//! the fault schedule of another.
//!
//! What each fault does to a packet:
//!
//! * **Loss burst** — the packet (and the next `burst−1` packets on the same
//!   channel) vanish after serialization, like pulling a cable for a moment.
//! * **Reorder** — the packet's propagation is inflated by the policy's
//!   reorder delay, letting later packets on the channel overtake it.
//! * **Duplicate** — a byte-identical clone arrives shortly after the
//!   original (switch/NIC retransmit duplication).
//! * **Corrupt** — one byte anywhere in a gradient frame, header stack
//!   included, is XORed with a nonzero mask *without* fixing any checksum.
//!   The receiver's parser rejects most such frames, by the IPv4 or UDP
//!   checksum or a header check such as the EtherType. Two kinds parse:
//!   no Ethernet FCS is modelled, so a flip in the twelve MAC-address bytes
//!   goes unseen, and a flip that zeroes the UDP checksum field reads as
//!   "no checksum". Neither touches the payload.
//! * **Truncate** — a gradient frame is cut at a random byte boundary
//!   *without* patching length fields or checksums — unlike a real trim,
//!   which rewrites both. A synthetic packet is runted to the trim stub.
//! * **Replay** — a stale clone of an earlier packet on the channel is
//!   re-injected (late duplicate from a previous epoch's traffic).
//!
//! Corruption and truncation only have observable bytes to mangle on
//! [`PacketBody::GradData`] frames (plus truncation of synthetics); control
//! and metadata bodies are carried abstractly and pass through unharmed.
//!
//! Injected clones are extra arrivals the sender never sent; the simulator
//! counts them under `netsim.injected` and extends the conservation identity
//! to `sent + injected = delivered + dropped + in_flight`
//! (see [`crate::stats::Stats::conservation_report`]).

use crate::link::channel_seed;
use crate::packet::{Packet, PacketBody, SYNTHETIC_TRIM_STUB};
use crate::time::SimTime;
use crate::NodeId;
use std::collections::BTreeMap;
use trimgrad_hadamard::prng::Xoshiro256StarStar;
use trimgrad_telemetry::Registry;
use trimgrad_wire::packet::GradPacket;

/// Packets remembered per channel for stale replay.
const REPLAY_CACHE_CAP: usize = 8;

/// Maximum random jitter added to an injected clone's arrival, in
/// nanoseconds (keeps duplicates close to, but not exactly at, the
/// original's arrival time).
const INJECT_JITTER_NS: u64 = 10_000;

/// Per-channel fault probabilities and parameters. All probabilities are
/// independent per-packet draws in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPolicy {
    /// Probability that a packet starts a loss burst.
    pub loss_prob: f64,
    /// Minimum packets destroyed per loss burst (including the trigger).
    pub loss_burst_min: u32,
    /// Maximum packets destroyed per loss burst.
    pub loss_burst_max: u32,
    /// Probability of delaying a packet past its channel neighbors.
    pub reorder_prob: f64,
    /// Extra propagation delay applied to a reordered packet.
    pub reorder_delay: SimTime,
    /// Probability of injecting a byte-identical duplicate.
    pub duplicate_prob: f64,
    /// Probability of flipping one byte (anywhere) of a gradient frame.
    pub corrupt_prob: f64,
    /// Probability of cutting a frame at a random byte boundary.
    pub truncate_prob: f64,
    /// Probability of re-injecting a stale earlier packet.
    pub replay_prob: f64,
}

fn check_prob(p: f64, what: &str) {
    assert!(
        (0.0..=1.0).contains(&p),
        "{what} probability {p} out of range"
    );
}

impl FaultPolicy {
    /// The no-fault policy every builder starts from.
    #[must_use]
    pub fn none() -> Self {
        Self {
            loss_prob: 0.0,
            loss_burst_min: 1,
            loss_burst_max: 1,
            reorder_prob: 0.0,
            reorder_delay: SimTime::ZERO,
            duplicate_prob: 0.0,
            corrupt_prob: 0.0,
            truncate_prob: 0.0,
            replay_prob: 0.0,
        }
    }

    /// Whole-packet loss bursts: with probability `p` a packet triggers a
    /// burst destroying `min..=max` consecutive packets on the channel.
    #[must_use]
    pub fn with_loss_burst(mut self, p: f64, min: u32, max: u32) -> Self {
        check_prob(p, "loss");
        assert!(min >= 1 && min <= max, "burst range [{min}, {max}] invalid");
        self.loss_prob = p;
        self.loss_burst_min = min;
        self.loss_burst_max = max;
        self
    }

    /// Single-packet random loss (a burst of exactly one).
    #[must_use]
    pub fn with_loss(self, p: f64) -> Self {
        self.with_loss_burst(p, 1, 1)
    }

    /// Reordering: with probability `p` a packet is held back by `delay`.
    #[must_use]
    pub fn with_reorder(mut self, p: f64, delay: SimTime) -> Self {
        check_prob(p, "reorder");
        self.reorder_prob = p;
        self.reorder_delay = delay;
        self
    }

    /// Duplication with probability `p`.
    #[must_use]
    pub fn with_duplicate(mut self, p: f64) -> Self {
        check_prob(p, "duplicate");
        self.duplicate_prob = p;
        self
    }

    /// One-byte frame corruption with probability `p`.
    #[must_use]
    pub fn with_corrupt(mut self, p: f64) -> Self {
        check_prob(p, "corrupt");
        self.corrupt_prob = p;
        self
    }

    /// Header/payload truncation with probability `p`.
    #[must_use]
    pub fn with_truncate(mut self, p: f64) -> Self {
        check_prob(p, "truncate");
        self.truncate_prob = p;
        self
    }

    /// Stale replay with probability `p`.
    #[must_use]
    pub fn with_replay(mut self, p: f64) -> Self {
        check_prob(p, "replay");
        self.replay_prob = p;
        self
    }

    /// Whether this policy can never fire.
    #[must_use]
    pub fn is_noop(&self) -> bool {
        use trimgrad_quant::fcmp::exactly_zero_f64 as zero;
        zero(self.loss_prob)
            && zero(self.reorder_prob)
            && zero(self.duplicate_prob)
            && zero(self.corrupt_prob)
            && zero(self.truncate_prob)
            && zero(self.replay_prob)
    }
}

impl Default for FaultPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// Per-fault tallies, summed over all channels of a plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets destroyed by loss bursts.
    pub dropped: u64,
    /// Duplicate clones injected.
    pub duplicated: u64,
    /// Packets delayed past their neighbors.
    pub reordered: u64,
    /// Gradient frames with a flipped byte.
    pub corrupted: u64,
    /// Frames cut without patching lengths/checksums.
    pub truncated: u64,
    /// Stale clones re-injected.
    pub replayed: u64,
}

impl FaultStats {
    /// Extra packets this plan materialized out of thin air (clones the
    /// sender never sent) — the `injected` term of the conservation identity.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.duplicated + self.replayed
    }

    /// Total fault events of any kind.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.dropped
            + self.duplicated
            + self.reordered
            + self.corrupted
            + self.truncated
            + self.replayed
    }

    /// Exports every tally as `<prefix>.<fault>` counters. Export into a
    /// scratch registry per snapshot (the [`crate::switch::PortState::export_to`]
    /// pattern) so repeated snapshots never double-count.
    pub fn export_to(&self, registry: &Registry, prefix: &str) {
        let faults = [
            ("dropped", self.dropped),
            ("duplicated", self.duplicated),
            ("reordered", self.reordered),
            ("corrupted", self.corrupted),
            ("truncated", self.truncated),
            ("replayed", self.replayed),
        ];
        for (fault, value) in faults {
            registry.counter(&format!("{prefix}.{fault}")).add(value);
        }
    }
}

/// What [`FaultPlan::apply`] decided for one packet.
#[derive(Debug, Default)]
pub struct FaultOutcome {
    /// Destroy the packet (it was serialized but never propagates).
    pub drop: bool,
    /// Extra propagation delay for the original packet (reordering).
    pub extra_delay: SimTime,
    /// Clones to schedule as additional arrivals, each with its own extra
    /// delay relative to the original's nominal arrival time.
    pub injected: Vec<(Packet, SimTime)>,
}

impl FaultOutcome {
    fn clean() -> Self {
        Self::default()
    }

    fn dropped() -> Self {
        Self {
            drop: true,
            ..Self::default()
        }
    }
}

/// Mutable per-channel fault state: its RNG stream, the remaining length of
/// an in-progress loss burst, and a bounded cache of recent packets for
/// stale replay.
#[derive(Debug)]
struct ChannelState {
    rng: Xoshiro256StarStar,
    burst_left: u32,
    replay_cache: Vec<Packet>,
}

impl ChannelState {
    fn new(seed: u64) -> Self {
        Self {
            rng: Xoshiro256StarStar::new(seed),
            burst_left: 0,
            replay_cache: Vec::new(),
        }
    }

    fn remember(&mut self, packet: Packet) {
        if self.replay_cache.len() == REPLAY_CACHE_CAP {
            self.replay_cache.remove(0);
        }
        self.replay_cache.push(packet);
    }
}

/// A deterministic fault schedule for a whole simulation.
///
/// Policies resolve per channel with specificity: an exact
/// [`FaultPlan::with_channel`] entry wins over a [`FaultPlan::with_node`]
/// entry for the transmitting node (host NIC or switch egress), which wins
/// over the [`FaultPlan::with_default`] policy. Channels with no resolved
/// policy are untouched and consume no randomness.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    default_policy: Option<FaultPolicy>,
    by_node: BTreeMap<usize, FaultPolicy>,
    by_channel: BTreeMap<(usize, usize), FaultPolicy>,
    channels: BTreeMap<(usize, usize), ChannelState>,
    stats: FaultStats,
}

impl FaultPlan {
    /// An empty plan (no faults anywhere) over `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            default_policy: None,
            by_node: BTreeMap::new(),
            by_channel: BTreeMap::new(),
            channels: BTreeMap::new(),
            stats: FaultStats::default(),
        }
    }

    /// The seed this plan (and thus the whole fault schedule) derives from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Applies `policy` to every channel without a more specific entry.
    #[must_use]
    pub fn with_default(mut self, policy: FaultPolicy) -> Self {
        self.default_policy = Some(policy);
        self
    }

    /// Applies `policy` to every channel transmitting *from* `node` — the
    /// per-switch (or per-host-NIC) knob.
    #[must_use]
    pub fn with_node(mut self, node: NodeId, policy: FaultPolicy) -> Self {
        self.by_node.insert(node.0, policy);
        self
    }

    /// Applies `policy` to exactly the `from → to` channel.
    #[must_use]
    pub fn with_channel(mut self, from: NodeId, to: NodeId, policy: FaultPolicy) -> Self {
        self.by_channel.insert((from.0, to.0), policy);
        self
    }

    /// The policy governing `from → to`, after specificity resolution.
    #[must_use]
    pub fn policy_for(&self, from: NodeId, to: NodeId) -> Option<FaultPolicy> {
        self.by_channel
            .get(&(from.0, to.0))
            .or_else(|| self.by_node.get(&from.0))
            .copied()
            .or(self.default_policy)
    }

    /// Per-fault tallies so far.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Draws this packet's fate on the `from → to` channel, mutating it in
    /// place for corruption/truncation. Called by the simulator once per
    /// packet as it starts serializing.
    pub fn apply(&mut self, from: NodeId, to: NodeId, packet: &mut Packet) -> FaultOutcome {
        let Some(policy) = self.policy_for(from, to) else {
            return FaultOutcome::clean();
        };
        if policy.is_noop() {
            return FaultOutcome::clean();
        }
        let base = self.seed;
        let st = self
            .channels
            .entry((from.0, to.0))
            .or_insert_with(|| ChannelState::new(channel_seed(base, from, to)));

        // An in-progress burst swallows the packet before any other draw.
        if st.burst_left > 0 {
            st.burst_left -= 1;
            self.stats.dropped += 1;
            return FaultOutcome::dropped();
        }
        if draw(&mut st.rng, policy.loss_prob) {
            let span = policy.loss_burst_max - policy.loss_burst_min;
            let len = policy.loss_burst_min
                + if span == 0 {
                    0
                } else {
                    st.rng.next_u32() % (span + 1)
                };
            st.burst_left = len - 1;
            self.stats.dropped += 1;
            return FaultOutcome::dropped();
        }

        // Keep a pristine copy before mangling, so replays are honest stale
        // packets rather than re-deliveries of our own corruption.
        let pristine = if policy.replay_prob > 0.0 {
            Some(packet.clone())
        } else {
            None
        };

        let mut out = FaultOutcome::clean();
        // Corruption and truncation are mutually exclusive per packet: both
        // mangle the same bytes, and a truncated-then-corrupted frame would
        // be indistinguishable from either alone.
        if draw(&mut st.rng, policy.corrupt_prob) && corrupt_packet(packet, &mut st.rng) {
            self.stats.corrupted += 1;
        } else if draw(&mut st.rng, policy.truncate_prob) && truncate_packet(packet, &mut st.rng) {
            self.stats.truncated += 1;
        }
        if draw(&mut st.rng, policy.duplicate_prob) {
            out.injected.push((packet.clone(), jitter(&mut st.rng)));
            self.stats.duplicated += 1;
        }
        if draw(&mut st.rng, policy.reorder_prob) {
            out.extra_delay = policy.reorder_delay;
            self.stats.reordered += 1;
        }
        if draw(&mut st.rng, policy.replay_prob) {
            // Oldest cached packet = stalest replay.
            if let Some(old) = st.replay_cache.first() {
                out.injected.push((old.clone(), jitter(&mut st.rng)));
                self.stats.replayed += 1;
            }
        }
        if let Some(p) = pristine {
            st.remember(p);
        }
        out
    }
}

fn draw(rng: &mut Xoshiro256StarStar, p: f64) -> bool {
    p > 0.0 && f64::from(rng.next_f32()) < p
}

fn jitter(rng: &mut Xoshiro256StarStar) -> SimTime {
    SimTime::from_nanos(rng.next_u64() % INJECT_JITTER_NS)
}

/// XORs one byte anywhere in a gradient frame (header stack included) with a
/// nonzero mask, leaving every checksum stale. Returns `false` for bodies
/// with no observable bytes.
fn corrupt_packet(packet: &mut Packet, rng: &mut Xoshiro256StarStar) -> bool {
    let PacketBody::GradData(frame) = &mut packet.body else {
        return false;
    };
    // trimlint: allow(hot-path-alloc) -- corruption fires only on fault-injected packets, never on the clean fast path
    let mut bytes = frame.as_bytes().to_vec();
    if bytes.is_empty() {
        return false;
    }
    let pos = usize::try_from(rng.next_u64() % bytes.len() as u64).unwrap_or(0);
    let mask = rng.next_u64().to_le_bytes()[0] | 1; // guaranteed nonzero flip
    bytes[pos] ^= mask;
    *frame = GradPacket::from_frame(bytes);
    true
}

/// Cuts a frame at a random interior byte boundary without patching length
/// fields, checksums, or the trim-depth header — the *dishonest* cut a real
/// trim never produces. Synthetic packets are runted to the trim stub.
fn truncate_packet(packet: &mut Packet, rng: &mut Xoshiro256StarStar) -> bool {
    match &mut packet.body {
        PacketBody::GradData(frame) => {
            let full = frame.wire_len();
            if full < 2 {
                return false;
            }
            let cut = 1 + usize::try_from(rng.next_u64() % (full as u64 - 1)).unwrap_or(0);
            // trimlint: allow(hot-path-alloc) -- dishonest-cut faults clone the frame; fires only when the fault plan draws a truncation
            let mut bytes = frame.as_bytes().to_vec();
            bytes.truncate(cut);
            *frame = GradPacket::from_frame(bytes);
            packet.size = trimgrad_wire::narrow::to_u32(cut, "truncated frame length");
            true
        }
        PacketBody::Synthetic => {
            if packet.size <= SYNTHETIC_TRIM_STUB {
                return false;
            }
            packet.size = SYNTHETIC_TRIM_STUB;
            packet.trimmed = true;
            packet.priority = true;
            true
        }
        PacketBody::GradMeta(_) | PacketBody::Control(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowId;

    fn synthetic(seq: u64) -> Packet {
        Packet {
            id: seq,
            flow: FlowId(1),
            src: NodeId(0),
            dst: NodeId(1),
            size: 1500,
            priority: false,
            reliable: false,
            trimmed: false,
            ecn: false,
            seq,
            fin: false,
            body: PacketBody::Synthetic,
        }
    }

    fn grad(seq: u64) -> Packet {
        use trimgrad_quant::scheme::RowScratch;
        use trimgrad_quant::SchemeId;
        use trimgrad_wire::packet::NetAddrs;
        use trimgrad_wire::packetize::{packetize_with, PacketizeConfig};
        let row: Vec<f32> = (0..64).map(|i| i as f32 - 32.0).collect();
        let mut scratch = RowScratch::default();
        let staged = SchemeId::SignMagnitude.stage(&row, 0, &mut scratch);
        let cfg = PacketizeConfig {
            mtu: 1500,
            net: NetAddrs::between_hosts(1, 2),
            msg_id: 7,
            row_id: 0,
            epoch: 1,
        };
        let (n, meta) = (staged.n(), staged.meta());
        let frame = packetize_with(
            SchemeId::SignMagnitude,
            n,
            meta,
            &cfg,
            |part, coords, dst| {
                staged.pack_range(part, coords, dst);
            },
        )
        .packets
        .into_iter()
        .next()
        .unwrap();
        let mut p = synthetic(seq);
        p.size = u32::try_from(frame.wire_len()).unwrap();
        p.body = PacketBody::GradData(frame);
        p
    }

    #[test]
    fn empty_plan_touches_nothing() {
        let mut plan = FaultPlan::new(1);
        let mut p = synthetic(0);
        let out = plan.apply(NodeId(0), NodeId(1), &mut p);
        assert!(!out.drop && out.injected.is_empty());
        assert_eq!(out.extra_delay, SimTime::ZERO);
        assert_eq!(plan.stats(), FaultStats::default());
    }

    #[test]
    fn policy_resolution_specificity() {
        let chan = FaultPolicy::none().with_loss(0.1);
        let node = FaultPolicy::none().with_loss(0.2);
        let deflt = FaultPolicy::none().with_loss(0.3);
        let plan = FaultPlan::new(1)
            .with_default(deflt)
            .with_node(NodeId(5), node)
            .with_channel(NodeId(5), NodeId(6), chan);
        assert_eq!(plan.policy_for(NodeId(5), NodeId(6)), Some(chan));
        assert_eq!(plan.policy_for(NodeId(5), NodeId(7)), Some(node));
        assert_eq!(plan.policy_for(NodeId(2), NodeId(3)), Some(deflt));
    }

    #[test]
    fn certain_loss_drops_every_packet() {
        let mut plan = FaultPlan::new(7).with_default(FaultPolicy::none().with_loss(1.0));
        for seq in 0..10 {
            let mut p = synthetic(seq);
            assert!(plan.apply(NodeId(0), NodeId(1), &mut p).drop);
        }
        assert_eq!(plan.stats().dropped, 10);
    }

    #[test]
    fn bursts_swallow_following_packets() {
        // p = 1 with burst length exactly 3: every third packet re-triggers.
        let mut plan =
            FaultPlan::new(7).with_default(FaultPolicy::none().with_loss_burst(1.0, 3, 3));
        for seq in 0..9 {
            let mut p = synthetic(seq);
            assert!(plan.apply(NodeId(0), NodeId(1), &mut p).drop);
        }
        assert_eq!(plan.stats().dropped, 9);
    }

    #[test]
    fn duplication_injects_identical_clone() {
        let mut plan = FaultPlan::new(3).with_default(FaultPolicy::none().with_duplicate(1.0));
        let mut p = synthetic(4);
        let out = plan.apply(NodeId(0), NodeId(1), &mut p);
        assert!(!out.drop);
        assert_eq!(out.injected.len(), 1);
        assert_eq!(out.injected[0].0.seq, 4);
        assert!(out.injected[0].1 < SimTime::from_nanos(INJECT_JITTER_NS));
        assert_eq!(plan.stats().duplicated, 1);
        assert_eq!(plan.stats().injected(), 1);
    }

    #[test]
    fn reorder_delays_the_original() {
        let delay = SimTime::from_micros(50);
        let mut plan = FaultPlan::new(3).with_default(FaultPolicy::none().with_reorder(1.0, delay));
        let mut p = synthetic(0);
        let out = plan.apply(NodeId(0), NodeId(1), &mut p);
        assert_eq!(out.extra_delay, delay);
        assert_eq!(plan.stats().reordered, 1);
    }

    #[test]
    fn replay_reinjects_stalest_cached_packet() {
        let mut plan = FaultPlan::new(3).with_default(FaultPolicy::none().with_replay(1.0));
        // First packet: nothing cached yet, so nothing to replay.
        let mut p0 = synthetic(0);
        let out0 = plan.apply(NodeId(0), NodeId(1), &mut p0);
        assert!(out0.injected.is_empty());
        // Second packet replays the first.
        let mut p1 = synthetic(1);
        let out1 = plan.apply(NodeId(0), NodeId(1), &mut p1);
        assert_eq!(out1.injected.len(), 1);
        assert_eq!(out1.injected[0].0.seq, 0);
        assert_eq!(plan.stats().replayed, 1);
    }

    #[test]
    fn corruption_breaks_the_frame_checksums() {
        let mut plan = FaultPlan::new(9).with_default(FaultPolicy::none().with_corrupt(1.0));
        let mut p = grad(0);
        let out = plan.apply(NodeId(0), NodeId(1), &mut p);
        assert!(!out.drop);
        assert_eq!(plan.stats().corrupted, 1);
        let PacketBody::GradData(frame) = &p.body else {
            panic!("body changed type");
        };
        assert!(frame.parse().is_err(), "stale checksums must be rejected");
    }

    #[test]
    fn corruption_skips_bodies_without_bytes() {
        let mut plan = FaultPlan::new(9).with_default(FaultPolicy::none().with_corrupt(1.0));
        let mut p = synthetic(0);
        let _ = plan.apply(NodeId(0), NodeId(1), &mut p);
        assert_eq!(plan.stats().corrupted, 0);
    }

    #[test]
    fn truncation_cuts_frames_without_patching() {
        let mut plan = FaultPlan::new(5).with_default(FaultPolicy::none().with_truncate(1.0));
        let mut p = grad(0);
        let full = p.size;
        let _ = plan.apply(NodeId(0), NodeId(1), &mut p);
        assert_eq!(plan.stats().truncated, 1);
        assert!(p.size < full);
        let PacketBody::GradData(frame) = &p.body else {
            panic!("body changed type");
        };
        assert_eq!(frame.wire_len() as u32, p.size);
        assert!(
            frame.parse().is_err(),
            "a dishonest cut must not parse as a valid trim"
        );
    }

    #[test]
    fn truncation_runts_synthetic_packets() {
        let mut plan = FaultPlan::new(5).with_default(FaultPolicy::none().with_truncate(1.0));
        let mut p = synthetic(0);
        let _ = plan.apply(NodeId(0), NodeId(1), &mut p);
        assert_eq!(p.size, SYNTHETIC_TRIM_STUB);
        assert!(p.trimmed && p.priority);
        assert_eq!(plan.stats().truncated, 1);
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed: u64| {
            let mut plan = FaultPlan::new(seed).with_default(
                FaultPolicy::none()
                    .with_loss(0.2)
                    .with_duplicate(0.2)
                    .with_reorder(0.2, SimTime::from_micros(10))
                    .with_replay(0.2),
            );
            let mut fates = Vec::new();
            for seq in 0..200 {
                let mut p = synthetic(seq);
                let out = plan.apply(NodeId(0), NodeId(1), &mut p);
                fates.push((out.drop, out.extra_delay, out.injected.len()));
            }
            (fates, plan.stats())
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }

    #[test]
    fn channel_streams_are_independent_of_first_touch_order() {
        let policy = FaultPolicy::none().with_loss(0.5);
        let fates = |interleaved: bool| {
            let mut plan = FaultPlan::new(11).with_default(policy);
            let mut a = Vec::new();
            let mut b = Vec::new();
            if interleaved {
                for seq in 0..50 {
                    let mut p = synthetic(seq);
                    a.push(plan.apply(NodeId(0), NodeId(1), &mut p).drop);
                    let mut q = synthetic(seq);
                    b.push(plan.apply(NodeId(2), NodeId(3), &mut q).drop);
                }
            } else {
                for seq in 0..50 {
                    let mut q = synthetic(seq);
                    b.push(plan.apply(NodeId(2), NodeId(3), &mut q).drop);
                }
                for seq in 0..50 {
                    let mut p = synthetic(seq);
                    a.push(plan.apply(NodeId(0), NodeId(1), &mut p).drop);
                }
            }
            (a, b)
        };
        assert_eq!(fates(true), fates(false));
    }

    #[test]
    fn stats_export_uses_prefix() {
        let stats = FaultStats {
            dropped: 3,
            duplicated: 2,
            reordered: 1,
            corrupted: 4,
            truncated: 5,
            replayed: 6,
        };
        let reg = Registry::new();
        stats.export_to(&reg, "netsim.fault");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("netsim.fault.dropped"), 3);
        assert_eq!(snap.counter("netsim.fault.replayed"), 6);
        assert_eq!(snap.counter_sum("netsim.fault."), stats.total());
        assert_eq!(stats.injected(), 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_probability() {
        let _ = FaultPolicy::none().with_loss(1.5);
    }
}
