//! The environment-gated recorder, exercised where the environment is real:
//! each test re-executes this binary with `TRIMGRAD_TRACE=1` and checks what
//! a default-constructed [`Simulator`] then does.
//!
//! * Two simulations in one process never see each other's events: every
//!   simulation records into its own ring, so a span on one counts that
//!   simulation's events only (a process-wide ring made
//!   `tests/chaos.rs::faulted_ring_is_bit_deterministic_across_runs` flake
//!   under `TRIMGRAD_TRACE=1` with parallel test threads).
//! * A panic inside an app callback leaves `trace_panic.bin` in
//!   `TRIMGRAD_TRACE_DIR`, holding the events of the simulation that died
//!   and of no other.
//!
//! The `child_*` tests are the re-executed halves; run directly (without the
//! marker variable) they return at once.

use std::path::Path;
use std::process::{Command, Output};
use trimgrad_netsim::crosstraffic::BulkSenderApp;
use trimgrad_netsim::host::{App, HostApi};
use trimgrad_netsim::packet::Packet;
use trimgrad_netsim::sim::Simulator;
use trimgrad_netsim::switch::QueuePolicy;
use trimgrad_netsim::time::{gbps, SimTime};
use trimgrad_netsim::topology::Topology;
use trimgrad_trace::Trace;

const CHILD_MARKER: &str = "TRIMGRAD_TRACE_ENV_CHILD";
const WINDOW: &str = "trace.span.test.window.events";

fn is_child() -> bool {
    std::env::var_os(CHILD_MARKER).is_some()
}

/// Re-runs exactly the test `name` of this binary with tracing armed.
fn run_child(name: &str, trace_dir: Option<&Path>) -> Output {
    let mut cmd = Command::new(std::env::current_exe().expect("test binary path"));
    cmd.args([name, "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD_MARKER, "1")
        .env("TRIMGRAD_TRACE", "1")
        .env_remove("TRIMGRAD_TRACE_CAP");
    if let Some(dir) = trace_dir {
        cmd.env("TRIMGRAD_TRACE_DIR", dir);
    }
    cmd.output().expect("spawn child test")
}

/// Two hosts behind one switch; host 0 sends `packets` MTU frames of `flow`
/// to host 1, whose app is `receiver` (the default sink when `None`).
fn one_flow(flow: u64, packets: u64, receiver: Option<Box<dyn App>>) -> Simulator {
    let mut topo = Topology::new();
    let sw = topo.add_switch(QueuePolicy::trim_default());
    let hosts = [topo.add_host(), topo.add_host()];
    for h in hosts {
        topo.link(h, sw, gbps(10.0), SimTime::from_micros(1));
    }
    let mut sim = Simulator::new(topo);
    sim.install_app(
        hosts[0],
        Box::new(BulkSenderApp::new(hosts[1], packets * 1500, 1500, flow)),
    );
    if let Some(app) = receiver {
        sim.install_app(hosts[1], app);
    }
    sim
}

/// A cut in the middle of either flow, and a horizon past both.
fn half() -> SimTime {
    SimTime::from_micros(20)
}

fn end() -> SimTime {
    SimTime::from_secs(1)
}

#[test]
fn child_two_simulations_keep_their_own_events() {
    if !is_child() {
        return;
    }
    // What simulation A records on its own, inside one window span.
    let solo = {
        let mut a = one_flow(7, 40, None);
        assert!(a.tracer().is_enabled(), "TRIMGRAD_TRACE=1 arms the default");
        {
            let _window = a.tracer().span("test.window");
            a.run_until(end());
        }
        a.registry().snapshot().counter(WINDOW)
    };
    assert!(solo > 40, "a 40-packet flow records events, got {solo}");

    // The same simulation, driven alternately with a busier neighbour.
    let mut a = one_flow(7, 40, None);
    let mut b = one_flow(9, 90, None);
    let window_a = a.tracer().span("test.window");
    let window_b = b.tracer().span("test.window");
    a.run_until(half());
    let seen_by_a = a.tracer().events_emitted();
    b.run_until(half());
    assert_eq!(
        a.tracer().events_emitted(),
        seen_by_a,
        "running b must not record into a's ring"
    );
    let seen_by_b = b.tracer().events_emitted();
    a.run_until(end());
    assert_eq!(
        b.tracer().events_emitted(),
        seen_by_b,
        "running a must not record into b's ring"
    );
    b.run_until(end());
    drop(window_a);
    drop(window_b);
    assert_eq!(a.registry().snapshot().counter(WINDOW), solo);
    let b_events = b.registry().snapshot().counter(WINDOW);
    assert!(b_events > solo, "b is the busier one: {b_events} vs {solo}");
    for (sim, flow) in [(&a, 7), (&b, 9)] {
        let trace = sim.tracer().snapshot();
        let mut flows = trace.records.iter().filter_map(|r| r.event.flow());
        assert!(flows.all(|f| f == flow), "foreign flow in {flow}'s ring");
    }
}

#[test]
fn simulations_with_env_tracing_do_not_share_a_ring() {
    let out = run_child("child_two_simulations_keep_their_own_events", None);
    assert!(
        out.status.success(),
        "child failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Receives like a sink until its tenth packet, then dies.
struct PanicsOnTenth(u64);

impl App for PanicsOnTenth {
    fn on_packet(&mut self, _pkt: Packet, _api: &mut HostApi) {
        self.0 += 1;
        assert!(self.0 < 10, "tenth packet: deliberate test panic");
    }
}

#[test]
fn child_panicking_app_leaves_a_black_box() {
    if !is_child() {
        return;
    }
    // A finished neighbour whose events must not turn up in the dump.
    let mut neighbour = one_flow(900, 30, None);
    neighbour.run_until(end());
    assert!(neighbour.tracer().events_emitted() > 0);
    drop(neighbour);
    let mut doomed = one_flow(7, 40, Some(Box::new(PanicsOnTenth(0))));
    doomed.run_until(end());
    unreachable!("the receiver panics on its tenth packet");
}

#[test]
fn app_panic_dumps_only_that_simulations_ring() {
    let dir = std::env::temp_dir().join(format!("trimgrad_trace_env_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = run_child("child_panicking_app_leaves_a_black_box", Some(&dir));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "the child must panic:\n{stderr}");
    assert!(stderr.contains("deliberate test panic"), "{stderr}");
    let bin = dir.join("trace_panic.bin");
    let bytes = std::fs::read(&bin)
        .unwrap_or_else(|e| panic!("no black box at {}: {e}\n{stderr}", bin.display()));
    assert!(dir.join("trace_panic.jsonl").exists());
    let trace = Trace::from_binary(&bytes).expect("black box parses");
    let flows: Vec<u64> = trace
        .records
        .iter()
        .filter_map(|r| r.event.flow())
        .collect();
    assert!(flows.len() >= 10, "ten deliveries were recorded: {flows:?}");
    assert!(
        flows.iter().all(|&f| f == 7),
        "only the dying simulation's flow may appear: {flows:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
