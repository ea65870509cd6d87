//! Host applications.
//!
//! Endpoint logic — transports, collective workers, traffic generators —
//! implements [`App`] and is installed on a host with
//! [`crate::sim::Simulator::install_app`]. Apps interact with the network
//! exclusively through the buffered [`HostApi`] handed to each callback:
//! sends and timers take effect when the callback returns, which keeps the
//! event loop free of re-entrancy.

use crate::packet::{Packet, PacketSpec};
use crate::time::SimTime;
use crate::NodeId;
use trimgrad_telemetry::Registry;
use trimgrad_trace::Tracer;

/// What an app asked for during one callback: sends, timers and flow
/// completions, applied by the simulator when the callback returns. The
/// simulator owns one set and lends it to every [`HostApi`] in turn, so the
/// vectors keep their capacity instead of being regrown per delivery.
#[derive(Debug, Default)]
pub(crate) struct HostActions {
    pub(crate) outbox: Vec<PacketSpec>,
    pub(crate) timers: Vec<(SimTime, u64)>,
    pub(crate) completed_flows: Vec<crate::FlowId>,
}

/// The per-callback interface an app uses to act on the network; it borrows
/// the simulation's registry and flight recorder.
#[derive(Debug)]
pub struct HostApi<'a> {
    now: SimTime,
    node: NodeId,
    registry: &'a Registry,
    tracer: &'a Tracer,
    pub(crate) actions: HostActions,
}

impl<'a> HostApi<'a> {
    /// `actions` must be empty; the caller takes it back (drained) with
    /// [`HostApi::into_actions`].
    pub(crate) fn new(
        now: SimTime,
        node: NodeId,
        registry: &'a Registry,
        tracer: &'a Tracer,
        actions: HostActions,
    ) -> Self {
        Self {
            now,
            node,
            registry,
            tracer,
            actions,
        }
    }

    pub(crate) fn into_actions(self) -> HostActions {
        self.actions
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The host this app runs on.
    #[must_use]
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The simulation-wide telemetry registry. Apps record their own metrics
    /// here (e.g. `collective.rank.N.*`); the counters land in the same
    /// [`trimgrad_telemetry::Snapshot`] as the fabric's `netsim.*` series.
    #[must_use]
    pub fn telemetry(&self) -> &'a Registry {
        self.registry
    }

    /// The simulation's flight recorder (disabled unless `TRIMGRAD_TRACE` is
    /// set or the simulator was given a tracer). App callbacks run serially
    /// inside the event loop, so emitting here keeps traces deterministic;
    /// the borrow outlives `&self`, so an app can hold it while it sends.
    #[must_use]
    pub fn tracer(&self) -> &'a Tracer {
        self.tracer
    }

    /// Hands a packet to the NIC (enqueued on the egress port when the
    /// callback returns).
    pub fn send(&mut self, spec: PacketSpec) {
        self.actions.outbox.push(spec);
    }

    /// Sends a `bytes`-long synthetic flow to `dst` as a train of
    /// `packet_size` packets numbered from 0; the last one is short if the
    /// size does not divide `bytes` and carries the `fin` marker.
    pub(crate) fn send_flow(
        &mut self,
        dst: NodeId,
        flow: crate::FlowId,
        bytes: u64,
        packet_size: u32,
    ) {
        let n = bytes.div_ceil(u64::from(packet_size));
        let mut remaining = bytes;
        for seq in 0..n {
            let size = u64::from(packet_size).min(remaining) as u32;
            remaining -= u64::from(size);
            let mut spec = PacketSpec::synthetic(dst, flow, size, seq);
            if seq == n - 1 {
                spec = spec.with_fin();
            }
            self.send(spec);
        }
    }

    /// Schedules [`App::on_timer`] to fire `delay` from now with `token`.
    pub fn timer_in(&mut self, delay: SimTime, token: u64) {
        self.actions.timers.push((self.now + delay, token));
    }

    /// Records a flow/message as complete (for FCT statistics).
    pub fn complete_flow(&mut self, flow: crate::FlowId) {
        self.actions.completed_flows.push(flow);
    }
}

/// Endpoint logic installed on a host. `Any` lets
/// [`crate::sim::Simulator::app_ref`] and [`app_mut`](crate::sim::Simulator::app_mut)
/// hand the concrete app back after a run.
pub trait App: core::any::Any + Send {
    /// Called once when the simulation starts.
    fn on_start(&mut self, api: &mut HostApi) {
        let _ = api;
    }

    /// Called when a packet addressed to this host is delivered.
    fn on_packet(&mut self, pkt: Packet, api: &mut HostApi);

    /// Called when a timer set via [`HostApi::timer_in`] fires.
    fn on_timer(&mut self, token: u64, api: &mut HostApi) {
        let _ = (token, api);
    }
}

/// An app that counts deliveries and otherwise discards packets — the
/// default sink for hosts without installed logic.
///
/// It also detects flow completion: a flow whose final packet carries
/// [`Packet::fin`] at sequence `s` completes once all `s + 1` packets have
/// been delivered in any order (trimming reorders packets through the
/// priority queue, so arrival order is not completion order).
#[derive(Debug, Default)]
pub struct SinkApp {
    /// Packets received.
    pub received: u64,
    /// Bytes received.
    pub bytes: u64,
    /// Trimmed packets among them.
    pub trimmed: u64,
    flows: std::collections::BTreeMap<crate::FlowId, (u64, Option<u64>)>,
}

impl App for SinkApp {
    fn on_packet(&mut self, pkt: Packet, api: &mut HostApi) {
        self.received += 1;
        self.bytes += u64::from(pkt.size);
        if pkt.trimmed {
            self.trimmed += 1;
        }
        let entry = self.flows.entry(pkt.flow).or_insert((0, None));
        entry.0 += 1;
        if pkt.fin {
            entry.1 = Some(pkt.seq + 1);
        }
        if entry.1 == Some(entry.0) {
            api.complete_flow(pkt.flow);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketSpec;
    use crate::FlowId;

    #[test]
    fn api_buffers_actions() {
        let (registry, tracer) = (Registry::new(), Tracer::disabled());
        let mut api = HostApi::new(
            SimTime::from_micros(5),
            NodeId(3),
            &registry,
            &tracer,
            HostActions::default(),
        );
        assert_eq!(api.now(), SimTime::from_micros(5));
        assert_eq!(api.node(), NodeId(3));
        api.send(PacketSpec::synthetic(NodeId(1), FlowId(2), 100, 0));
        api.timer_in(SimTime::from_micros(10), 42);
        api.complete_flow(FlowId(2));
        let actions = api.into_actions();
        assert_eq!(actions.outbox.len(), 1);
        assert_eq!(actions.timers, vec![(SimTime::from_micros(15), 42)]);
        assert_eq!(actions.completed_flows, vec![FlowId(2)]);
    }

    #[test]
    fn sink_counts() {
        let mut sink = SinkApp::default();
        let (registry, tracer) = (Registry::new(), Tracer::disabled());
        let mut api = HostApi::new(
            SimTime::ZERO,
            NodeId(0),
            &registry,
            &tracer,
            HostActions::default(),
        );
        let mut pkt = crate::packet::Packet {
            id: 1,
            flow: FlowId(1),
            src: NodeId(1),
            dst: NodeId(0),
            size: 500,
            priority: false,
            reliable: false,
            trimmed: false,
            ecn: false,
            seq: 0,
            fin: false,
            body: crate::packet::PacketBody::Synthetic,
        };
        sink.on_packet(pkt.clone(), &mut api);
        pkt.trimmed = true;
        pkt.size = 64;
        sink.on_packet(pkt, &mut api);
        assert_eq!(sink.received, 2);
        assert_eq!(sink.bytes, 564);
        assert_eq!(sink.trimmed, 1);
    }
}
