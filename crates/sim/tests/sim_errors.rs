//! Error-path coverage: every `BadConfig` validation rule, `CycleLimit`,
//! forced deadlock (abort and recovery modes), and fault-driven
//! partitioning — the structured failures a degrading network must
//! produce instead of panics.

use irrnet_sim::{
    McastId, SendSpec, SimConfig, SimError, Simulator, StaticProtocol,
};
use irrnet_topology::{
    zoo, FaultEvent, FaultKind, FaultPlan, LinkId, Network, NodeId, NodeMask, TopologyBuilder,
};

fn tiny_cfg() -> SimConfig {
    let mut c = SimConfig::paper_default();
    c.o_send_host = 10;
    c.o_recv_host = 10;
    c.o_send_ni = 10;
    c.o_recv_ni = 10;
    c
}

fn unicast_sim<'a>(
    net: &'a Network,
    cfg: SimConfig,
    from: NodeId,
    to: NodeId,
    msg: u32,
) -> Simulator<'a, StaticProtocol> {
    let mut proto = StaticProtocol::new();
    proto.set_launch(McastId(0), vec![(from, SendSpec::Unicast { dest: to })]);
    let mut sim = Simulator::new(net, cfg, proto).unwrap();
    sim.schedule_multicast(0, McastId(0), NodeMask::single(to), msg);
    sim
}

fn expect_bad_config(cfg: SimConfig, needle: &str) {
    let net = Network::analyze(zoo::chain(2).unwrap()).unwrap();
    match Simulator::new(&net, cfg, StaticProtocol::new()) {
        Err(SimError::BadConfig(msg)) => {
            assert!(msg.contains(needle), "message {msg:?} lacks {needle:?}")
        }
        other => panic!("expected BadConfig, got {:?}", other.err()),
    }
}

#[test]
fn bad_config_zero_packet() {
    let mut c = tiny_cfg();
    c.packet_payload_flits = 0;
    expect_bad_config(c, "packet size");
}

#[test]
fn bad_config_switch_wider_than_32_ports() {
    // The engine keeps per-switch port activity in 32-bit masks; a
    // 40-port switch is a configuration error, not a panic.
    let mut b = TopologyBuilder::new();
    let s0 = b.add_switch(40);
    let s1 = b.add_switch(40);
    b.add_link(s0, s1).unwrap();
    b.add_host(s0).unwrap();
    b.add_host(s1).unwrap();
    let net = Network::analyze(b.build().unwrap()).unwrap();
    match Simulator::new(&net, tiny_cfg(), StaticProtocol::new()) {
        Err(SimError::BadConfig(msg)) => {
            assert!(msg.contains("switch degree 40"), "message {msg:?}")
        }
        other => panic!("expected BadConfig, got {:?}", other.err()),
    }
}

#[test]
fn bad_config_zero_bus_rate() {
    let mut a = tiny_cfg();
    a.io_bus_num = 0;
    expect_bad_config(a, "bus rate");
    let mut b = tiny_cfg();
    b.io_bus_den = 0;
    expect_bad_config(b, "bus rate");
}

#[test]
fn bad_config_buffer_smaller_than_worm() {
    let mut c = tiny_cfg();
    c.input_buffer_flits = c.packet_payload_flits + c.unicast_header_flits - 1;
    expect_bad_config(c, "input buffer");
}

#[test]
fn bad_config_zero_latency_channels() {
    let mut c = tiny_cfg();
    c.link_delay = 0;
    c.crossbar_delay = 0;
    expect_bad_config(c, "zero-latency");
}

#[test]
fn cycle_limit_reports_incomplete_count() {
    let net = Network::analyze(zoo::chain(2).unwrap()).unwrap();
    // A limit far below the software overheads: nothing can finish.
    let mut sim = unicast_sim(&net, SimConfig::paper_default(), NodeId(0), NodeId(1), 64);
    match sim.run_to_completion(10) {
        Err(SimError::CycleLimit { limit: 10, incomplete: 1 }) => {}
        other => panic!("expected CycleLimit, got {other:?}"),
    }
}

/// Jam the switch input buffer the worm must cross so it can never
/// advance; with recovery disabled the watchdog must abort with a
/// structured diagnostics snapshot of the stuck frame.
#[test]
fn forced_deadlock_aborts_with_diagnostics() {
    let net = Network::analyze(zoo::chain(2).unwrap()).unwrap();
    let mut cfg = tiny_cfg();
    cfg.watchdog_cycles = 2_000;
    cfg.watchdog_recovery_limit = 0;
    let mut sim = unicast_sim(&net, cfg, NodeId(0), NodeId(1), 64);
    let (s1, p1) = net.topo.link(LinkId(0)).end(1);
    sim.jam_input(s1, p1);
    match sim.run_until(10_000_000) {
        Err(SimError::Deadlock { at, diagnostics }) => {
            assert!(at > 0);
            assert_eq!(diagnostics.recoveries_used, 0);
            assert_eq!(diagnostics.stuck_frames.len(), 1, "{diagnostics}");
            let f = &diagnostics.stuck_frames[0];
            assert_eq!(f.mcast, McastId(0));
            // Stuck on the source-side switch, fully buffered, granted
            // toward the jammed port but unable to send a flit.
            assert!(f.decoded);
            assert_eq!(f.received, f.total);
            assert!(f.branches.iter().all(|b| b.sent == 0 && !b.done));
            // The rendered dump carries the same facts.
            let text = diagnostics.to_string();
            assert!(text.contains("recoveries_used=0"), "{text}");
        }
        other => panic!("expected Deadlock, got {other:?}"),
    }
}

/// Same jam, but with a recovery budget: the watchdog sacrifices the
/// stuck worm, the network drains, and the run ends cleanly with the
/// kill accounted in the counters.
#[test]
fn forced_deadlock_recovers_within_budget() {
    let net = Network::analyze(zoo::chain(2).unwrap()).unwrap();
    let mut cfg = tiny_cfg();
    cfg.watchdog_cycles = 2_000;
    cfg.watchdog_recovery_limit = 2;
    let mut sim = unicast_sim(&net, cfg, NodeId(0), NodeId(1), 64);
    let (s1, p1) = net.topo.link(LinkId(0)).end(1);
    sim.jam_input(s1, p1);
    sim.run_until(10_000_000).expect("recovery should unstick the run");
    let stats = sim.stats();
    assert_eq!(stats.net.watchdog_recoveries, 1);
    assert_eq!(stats.net.worms_killed, 1);
    assert!(stats.net.flits_dropped > 0);
    // The sacrificed worm's message was never delivered.
    assert!(stats.delivery_ratio() < 1.0);
}

/// Killing the only link of a chain partitions the survivors: the run
/// must end with the structured error, not a panic or a watchdog abort.
#[test]
fn partitioning_fault_is_a_structured_error() {
    let net = Network::analyze(zoo::chain(2).unwrap()).unwrap();
    let mut sim = unicast_sim(&net, tiny_cfg(), NodeId(0), NodeId(1), 64);
    let plan = FaultPlan::scheduled(vec![FaultEvent {
        at: 10,
        kind: FaultKind::Link(LinkId(0)),
    }]);
    sim.install_faults(&plan);
    match sim.run_until(10_000_000) {
        Err(SimError::Partitioned { at, cause }) => {
            assert_eq!(at, 10);
            let msg = cause.to_string();
            assert!(!msg.is_empty());
        }
        other => panic!("expected Partitioned, got {other:?}"),
    }
}

/// An empty fault plan must leave the run byte-identical to one without
/// fault support engaged at all.
#[test]
fn empty_fault_plan_changes_nothing() {
    let net = Network::analyze(zoo::chain(3).unwrap()).unwrap();
    let run = |install: bool| {
        let mut sim = unicast_sim(&net, tiny_cfg(), NodeId(0), NodeId(2), 128);
        if install {
            sim.install_faults(&FaultPlan::scheduled(Vec::new()));
        }
        sim.run_to_completion(10_000_000).unwrap();
        (sim.now(), sim.stats().net.clone())
    };
    assert_eq!(run(false), run(true));
}
