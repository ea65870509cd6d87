//! Traffic generators: bulk flows, on/off bursts, and incast fan-in.
//!
//! These apps create the "other traffic sharing the network" of the paper's
//! motivating scenarios — background flows on an oversubscribed fabric, and
//! the sudden incast bursts that cause *unpredictable* congestion no
//! sender-side compression decision can anticipate.

use crate::host::{App, HostApi};
use crate::packet::{Packet, PacketSpec};
use crate::time::SimTime;
use crate::{FlowId, NodeId};
use trimgrad_hadamard::prng::Xoshiro256StarStar;

/// Sends `total_bytes` to `dst` as fast as the NIC drains, in `packet_size`
/// chunks, starting at simulation start. The final packet carries the `fin`
/// marker so the receiving sink can declare the flow complete.
#[derive(Debug)]
pub struct BulkSenderApp {
    dst: NodeId,
    total_bytes: u64,
    packet_size: u32,
    flow: FlowId,
}

impl BulkSenderApp {
    /// Creates a bulk sender. `flow_id` must be unique across the simulation.
    #[must_use]
    pub fn new(dst: NodeId, total_bytes: u64, packet_size: u32, flow_id: u64) -> Self {
        assert!(packet_size > 0, "zero packet size");
        Self {
            dst,
            total_bytes,
            packet_size,
            flow: FlowId(flow_id),
        }
    }

    /// Number of packets this flow comprises.
    #[must_use]
    pub fn packet_count(&self) -> u64 {
        self.total_bytes.div_ceil(u64::from(self.packet_size))
    }
}

impl App for BulkSenderApp {
    fn on_start(&mut self, api: &mut HostApi) {
        let n = self.packet_count();
        let mut remaining = self.total_bytes;
        for seq in 0..n {
            let size = u64::from(self.packet_size).min(remaining) as u32;
            remaining -= u64::from(size);
            let mut spec = PacketSpec::synthetic(self.dst, self.flow, size, seq);
            if seq == n - 1 {
                spec = spec.with_fin();
            }
            api.send(spec);
        }
    }

    fn on_packet(&mut self, _pkt: Packet, _api: &mut HostApi) {}
}

/// On/off background traffic: bursts of `burst_bytes` to `dst` separated by
/// exponential-ish random gaps with mean `mean_gap` (plus a random initial
/// phase), until `stop_after`.
#[derive(Debug)]
pub struct OnOffApp {
    dst: NodeId,
    burst_bytes: u64,
    packet_size: u32,
    mean_gap: SimTime,
    stop_after: SimTime,
    flow_base: u64,
    bursts_sent: u64,
    rng: Xoshiro256StarStar,
}

impl OnOffApp {
    /// Creates an on/off source. Each burst gets flow id
    /// `flow_base + burst_index`.
    #[must_use]
    pub fn new(
        dst: NodeId,
        burst_bytes: u64,
        packet_size: u32,
        mean_gap: SimTime,
        stop_after: SimTime,
        flow_base: u64,
        seed: u64,
    ) -> Self {
        Self {
            dst,
            burst_bytes,
            packet_size,
            mean_gap,
            stop_after,
            flow_base,
            bursts_sent: 0,
            rng: Xoshiro256StarStar::new(seed),
        }
    }

    /// Bursts emitted so far.
    #[must_use]
    pub fn bursts_sent(&self) -> u64 {
        self.bursts_sent
    }

    fn next_gap(&mut self) -> SimTime {
        // Exponential via inverse CDF; clamp the tail to 10× the mean.
        let u = f64::from(self.rng.next_f32()).max(1e-9);
        let gap = -u.ln() * self.mean_gap.as_nanos() as f64;
        SimTime::from_nanos((gap.min(self.mean_gap.as_nanos() as f64 * 10.0)) as u64)
    }

    fn send_burst(&mut self, api: &mut HostApi) {
        let flow = FlowId(self.flow_base + self.bursts_sent);
        self.bursts_sent += 1;
        let n = self.burst_bytes.div_ceil(u64::from(self.packet_size));
        let mut remaining = self.burst_bytes;
        for seq in 0..n {
            let size = u64::from(self.packet_size).min(remaining) as u32;
            remaining -= u64::from(size);
            let mut spec = PacketSpec::synthetic(self.dst, flow, size, seq);
            if seq == n - 1 {
                spec = spec.with_fin();
            }
            api.send(spec);
        }
    }
}

impl App for OnOffApp {
    fn on_start(&mut self, api: &mut HostApi) {
        // Random initial phase avoids synchronizing every on/off source.
        let gap = self.next_gap();
        api.timer_in(gap, 0);
    }

    fn on_packet(&mut self, _pkt: Packet, _api: &mut HostApi) {}

    fn on_timer(&mut self, _token: u64, api: &mut HostApi) {
        if api.now() >= self.stop_after {
            return;
        }
        self.send_burst(api);
        let gap = self.next_gap();
        api.timer_in(gap, 0);
    }
}

/// Convenience: installs `n` synchronized [`BulkSenderApp`]s targeting one
/// receiver — the classic incast pattern. Returns the flow ids used.
pub fn install_incast(
    sim: &mut crate::sim::Simulator,
    senders: &[NodeId],
    receiver: NodeId,
    bytes_per_sender: u64,
    packet_size: u32,
    flow_base: u64,
) -> Vec<FlowId> {
    let mut flows = Vec::with_capacity(senders.len());
    for (i, &h) in senders.iter().enumerate() {
        let flow_id = flow_base + i as u64;
        sim.install_app(
            h,
            Box::new(BulkSenderApp::new(
                receiver,
                bytes_per_sender,
                packet_size,
                flow_id,
            )),
        );
        flows.push(FlowId(flow_id));
    }
    flows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use crate::switch::QueuePolicy;
    use crate::time::gbps;
    use crate::topology::Topology;

    #[test]
    fn bulk_sender_packet_count_and_sizes() {
        let app = BulkSenderApp::new(NodeId(1), 100_000, 1500, 1);
        assert_eq!(app.packet_count(), 67);
        let registry = trimgrad_telemetry::Registry::new();
        let tracer = trimgrad_trace::Tracer::disabled();
        let mut api = HostApi::new(
            SimTime::ZERO,
            NodeId(0),
            &registry,
            &tracer,
            Default::default(),
        );
        let mut app = app;
        app.on_start(&mut api);
        assert_eq!(api.actions.outbox.len(), 67);
        let total: u64 = api.actions.outbox.iter().map(|s| u64::from(s.size)).sum();
        assert_eq!(total, 100_000);
        // Last packet is short (100000 − 66×1500 = 1000) and fin-marked.
        assert_eq!(api.actions.outbox.last().unwrap().size, 1000);
        assert!(api.actions.outbox.last().unwrap().fin);
        assert!(!api.actions.outbox[0].fin);
    }

    #[test]
    fn onoff_emits_multiple_bursts() {
        let mut t = Topology::new();
        let a = t.add_host();
        let b = t.add_host();
        t.link(a, b, gbps(10.0), SimTime::from_micros(1));
        let mut sim = Simulator::new(t);
        sim.install_app(
            a,
            Box::new(OnOffApp::new(
                b,
                15_000,
                1500,
                SimTime::from_micros(100),
                SimTime::from_millis(10),
                1000,
                42,
            )),
        );
        sim.run_until(SimTime::from_millis(20));
        let app: &OnOffApp = sim.app_ref(a).unwrap();
        assert!(app.bursts_sent() > 10, "bursts {}", app.bursts_sent());
        assert_eq!(
            sim.stats().delivered_packets(),
            app.bursts_sent() * 10 // 15000/1500 packets per burst
        );
        assert!(sim.conservation_holds());
    }

    #[test]
    fn incast_helper_installs_all_senders() {
        let mut t = Topology::new();
        let recv = t.add_host();
        let s = t.add_switch(QueuePolicy::trim_default());
        t.link(recv, s, gbps(10.0), SimTime::from_micros(1));
        let senders: Vec<NodeId> = (0..4)
            .map(|_| {
                let h = t.add_host();
                t.link(h, s, gbps(10.0), SimTime::from_micros(1));
                h
            })
            .collect();
        let mut sim = Simulator::new(t);
        let flows = install_incast(&mut sim, &senders, recv, 30_000, 1500, 500);
        assert_eq!(flows.len(), 4);
        sim.run_until(SimTime::from_millis(50));
        for f in flows {
            let rec = sim.stats().flow(f).unwrap();
            assert_eq!(rec.sent, 20);
            assert!(rec.fct().is_some(), "flow {f} incomplete");
        }
        assert!(sim.conservation_holds());
    }
}
