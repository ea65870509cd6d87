//! `ring_flow_id` restates the flow id a fabric ring worker sends on; the
//! dashboard names each tenant's worst flow with it. A small ring on a
//! tenant's flow base must send on exactly the ids it names, one per rank,
//! so the two conventions cannot drift apart unnoticed.

use trimgrad_collective::ring_netsim::{run_ring_allreduce, RingNetConfig};
use trimgrad_netsim::sim::Simulator;
use trimgrad_netsim::switch::QueuePolicy;
use trimgrad_netsim::time::{gbps, SimTime};
use trimgrad_netsim::topology::Topology;
use trimgrad_netsim::FlowId;
use trimgrad_quant::SchemeId;
use trimgrad_slo::ring_flow_id;

#[test]
fn a_ring_sends_on_the_flow_ids_the_dashboard_names() {
    let (w, len, flow_base) = (3, 2048, 2 << 32);
    let mut topo = Topology::new();
    let sw = topo.add_switch(QueuePolicy::trim_default());
    let hosts: Vec<_> = (0..w)
        .map(|_| {
            let h = topo.add_host();
            topo.link(h, sw, gbps(100.0), SimTime::from_micros(1));
            h
        })
        .collect();
    let mut sim = Simulator::new(topo);
    let cfg = RingNetConfig {
        scheme: SchemeId::RhtOneBit,
        row_len: 1024,
        base_seed: 3,
        epoch: 1,
        mtu: 1500,
        hosts,
        blob_len: len,
        flow_base,
    };
    let blobs = (0..w)
        .map(|r| (0..len).map(|i| (i * (r + 1)) as f32 * 1e-3).collect())
        .collect();
    run_ring_allreduce(&mut sim, &cfg, blobs, SimTime::from_secs(10));
    for rank in 0..w {
        let id = ring_flow_id(flow_base, rank);
        let rec = sim.stats().flow(FlowId(id));
        assert!(
            rec.is_some_and(|r| r.sent > 0),
            "rank {rank}: no packets on flow {id:#x}"
        );
    }
    let sending: Vec<u64> = sim
        .stats()
        .flows()
        .filter(|(_, r)| r.sent > 0)
        .map(|(f, _)| f.0)
        .collect();
    let named: Vec<u64> = (0..w).map(|r| ring_flow_id(flow_base, r)).collect();
    assert_eq!(
        sending, named,
        "the ring sends on flows the dashboard does not name"
    );
}
