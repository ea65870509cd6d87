//! Integration tests for the paper's networking scenarios: incast at
//! shallow-buffer switches, transports under loss, and the leaf–spine
//! fabric with background traffic.

use trimgrad::netsim::crosstraffic::{install_incast, OnOffApp};
use trimgrad::netsim::link::LinkParams;
use trimgrad::netsim::sim::Simulator;
use trimgrad::netsim::switch::QueuePolicy;
use trimgrad::netsim::time::{gbps, SimTime};
use trimgrad::netsim::topology::Topology;
use trimgrad::netsim::transport::{
    ReliableReceiverApp, ReliableSenderApp, TrimmingReceiverApp, TrimmingSenderApp,
};
use trimgrad::netsim::{FlowId, NodeId};

/// Incast FCT: trimming keeps the slowest flow close to the ideal drain
/// time; tail-drop loses packets outright.
#[test]
fn incast_fct_trimming_vs_droptail() {
    let run = |policy: QueuePolicy| {
        let mut topo = Topology::new();
        let recv = topo.add_host();
        let sw = topo.add_switch(policy);
        topo.link(recv, sw, gbps(10.0), SimTime::from_micros(1));
        let senders: Vec<NodeId> = (0..16)
            .map(|_| {
                let h = topo.add_host();
                topo.link(h, sw, gbps(10.0), SimTime::from_micros(1));
                h
            })
            .collect();
        let mut sim = Simulator::new(topo);
        install_incast(&mut sim, &senders, recv, 75_000, 1500, 0);
        sim.run_until(SimTime::from_secs(1));
        (
            sim.stats().dropped_total(),
            sim.stats().trimmed_packets(),
            sim.stats().max_fct(),
        )
    };
    let (drops_dt, trims_dt, _) = run(QueuePolicy::droptail_default());
    assert!(drops_dt > 0);
    assert_eq!(trims_dt, 0);

    let (drops_tr, trims_tr, fct) = run(QueuePolicy::trim_default());
    assert_eq!(drops_tr, 0, "trimming fabric must not lose packets");
    assert!(trims_tr > 0);
    // 16 × 75 kB = 1.2 MB over 10 Gbps ≈ 0.96 ms ideal; trimming shrinks
    // bytes so the actual drain is *faster*.
    let fct = fct.expect("all flows complete");
    assert!(
        fct < SimTime::from_millis(2),
        "incast must resolve quickly, got {fct}"
    );
}

/// Leaf–spine with oversubscribed uplinks and on/off background traffic:
/// cross-rack flows get trimmed, intra-rack flows do not, and ECMP spreads
/// load across both spines.
#[test]
fn leaf_spine_background_traffic() {
    let (mut topo, hosts) = Topology::leaf_spine(
        2,
        4,
        2,
        gbps(10.0),
        gbps(5.0), // 4×10G of hosts into 2×5G of uplinks: 4:1 oversubscribed
        SimTime::from_micros(1),
        QueuePolicy::trim_default(),
    );
    // A background on/off source inside each rack targeting the other rack.
    let bg0 = topo.add_host();
    let bg1 = topo.add_host();
    topo.link(bg0, NodeId(0), gbps(10.0), SimTime::from_micros(1));
    topo.link(bg1, NodeId(1), gbps(10.0), SimTime::from_micros(1));
    let mut sim = Simulator::new(topo);
    sim.install_app(
        bg0,
        Box::new(OnOffApp::new(
            hosts[7],
            150_000,
            1500,
            SimTime::from_micros(150),
            SimTime::from_millis(20),
            1000,
            1,
        )),
    );
    sim.install_app(
        bg1,
        Box::new(OnOffApp::new(
            hosts[0],
            150_000,
            1500,
            SimTime::from_micros(150),
            SimTime::from_millis(20),
            2000,
            2,
        )),
    );
    // Foreground cross-rack bulk flows from every host of rack 0.
    for (i, &h) in hosts[..4].iter().enumerate() {
        sim.install_app(
            h,
            Box::new(trimgrad::netsim::crosstraffic::BulkSenderApp::new(
                hosts[4 + i],
                300_000,
                1500,
                100 + i as u64,
            )),
        );
    }
    sim.run_until(SimTime::from_millis(100));
    let st = sim.stats();
    assert!(st.trimmed_packets() > 0, "oversubscription must trim");
    assert!(sim.conservation_holds());
    // All foreground flows complete despite the congestion.
    for i in 0..4 {
        assert!(
            st.flow(FlowId(100 + i)).and_then(|f| f.fct()).is_some(),
            "foreground flow {i} incomplete"
        );
    }
}

/// Transport comparison at matched loss: the trimming transport's FCT stays
/// flat while the go-back-N baseline inflates superlinearly.
#[test]
fn transport_loss_tolerance_shapes() {
    let fct_of = |reliable: bool, drop: f64| {
        let mut topo = Topology::new();
        let a = topo.add_host();
        let b = topo.add_host();
        topo.link_with(
            a,
            b,
            LinkParams::new(gbps(10.0), SimTime::from_micros(5)).with_drop_prob(drop),
        );
        let mut sim = Simulator::with_seed(topo, 77);
        if reliable {
            sim.install_app(a, Box::new(ReliableSenderApp::new(b, 1_500_000, 1)));
            sim.install_app(b, Box::new(ReliableReceiverApp::new()));
        } else {
            sim.install_app(a, Box::new(TrimmingSenderApp::new(b, 1_500_000, 1)));
            sim.install_app(b, Box::new(TrimmingReceiverApp::new(1)));
        }
        sim.run_until(SimTime::from_secs(30));
        sim.stats()
            .flow(FlowId(1))
            .and_then(|f| f.fct())
            .expect("flow completes")
            .as_secs_f64()
    };

    let rel_clean = fct_of(true, 0.0);
    let rel_lossy = fct_of(true, 0.02);
    let trim_clean = fct_of(false, 0.0);
    let trim_lossy = fct_of(false, 0.02);
    let rel_factor = rel_lossy / rel_clean;
    let trim_factor = trim_lossy / trim_clean;
    assert!(
        rel_factor > 1.8,
        "go-back-N at 2% loss must slow markedly ({rel_factor:.2}x)"
    );
    assert!(
        trim_factor < 1.5,
        "trimming transport must stay almost flat ({trim_factor:.2}x)"
    );
    assert!(rel_factor > 1.5 * trim_factor);
}
