//! Tests of the NI+switch hybrid scheme and of protocol-level ordering
//! properties observable through the engine's trace log.

use irrnet_core::{try_plan_multicast, SchemeId, SchemeProtocol};
use irrnet_sim::{McastId, SimConfig, Simulator, TraceEvent};
use irrnet_topology::{gen, Network, NodeId, NodeMask, RandomTopologyConfig};
use std::sync::Arc;

fn net(seed: u64) -> Network {
    Network::analyze(gen::generate(&RandomTopologyConfig::paper_default(seed)).unwrap()).unwrap()
}

fn run(
    net: &Network,
    cfg: &SimConfig,
    scheme: SchemeId,
    dests: NodeMask,
    msg: u32,
    trace: bool,
) -> (u64, Option<irrnet_sim::TraceLog>) {
    let plan = try_plan_multicast(net, cfg, scheme, NodeId(0), dests.clone(), msg).unwrap();
    let mut proto = SchemeProtocol::new();
    proto.add(McastId(0), Arc::new(plan));
    let mut sim = Simulator::new(net, cfg.clone(), proto).unwrap();
    if trace {
        sim.enable_trace();
    }
    sim.schedule_multicast(0, McastId(0), dests, msg);
    sim.run_to_completion(400_000_000).unwrap();
    let lat = sim.stats().latency_of(McastId(0)).unwrap();
    (lat, sim.take_trace())
}

#[test]
fn hybrid_delivers_exactly_like_plain_path() {
    let cfg = SimConfig::paper_default();
    for seed in 0..4 {
        let net = net(seed);
        let dests = NodeMask::from_nodes((4..=20).map(NodeId));
        let plan =
            try_plan_multicast(&net, &cfg, SchemeId::PATH_LG_NI, NodeId(0), dests.clone(), 128)
                .unwrap();
        assert!(
            !plan.ni_path_forwards.is_empty() || plan.initial.len() >= plan.meta.worms,
            "hybrid plan should use NI forwarding when there are multiple phases"
        );
        let mut proto = SchemeProtocol::new();
        proto.add(McastId(0), Arc::new(plan));
        let mut sim = Simulator::new(&net, cfg.clone(), proto).unwrap();
        sim.schedule_multicast(0, McastId(0), dests.clone(), 128);
        sim.run_to_completion(200_000_000).unwrap();
        let stats = sim.stats();
        assert_eq!(stats.mcasts[&McastId(0)].deliveries.len(), dests.len());
    }
}

#[test]
fn hybrid_beats_plain_path_scheme() {
    // Eliminating the host receive+send chain between phases must help,
    // on average, at every R.
    let dests = NodeMask::from_nodes((4..=20).map(NodeId));
    for r in [1.0, 4.0] {
        let cfg = SimConfig::paper_default().with_r(r).unwrap();
        let mut hybrid = 0u64;
        let mut plain = 0u64;
        for seed in 0..5 {
            let n = net(seed);
            hybrid += run(&n, &cfg, SchemeId::PATH_LG_NI, dests.clone(), 128, false).0;
            plain += run(&n, &cfg, SchemeId::PATH_LG, dests.clone(), 128, false).0;
        }
        assert!(
            hybrid < plain,
            "R={r}: hybrid {hybrid} should beat plain {plain}"
        );
    }
}

#[test]
fn hybrid_multi_packet_pipelines_phases() {
    // With NI forwarding, a later-phase worm's packet j leaves the leader
    // before the leader has the whole message — total latency grows far
    // slower than phases × message time.
    let cfg = SimConfig::paper_default();
    let dests = NodeMask::from_nodes((4..=20).map(NodeId));
    let mut ratio_sum = 0.0;
    for seed in 0..4 {
        let n = net(seed);
        let (short, _) = run(&n, &cfg, SchemeId::PATH_LG_NI, dests.clone(), 128, false);
        let (long, _) = run(&n, &cfg, SchemeId::PATH_LG_NI, dests.clone(), 2048, false);
        ratio_sum += long as f64 / short as f64;
    }
    // 16x the flits must cost far less than 16x the latency.
    assert!(ratio_sum / 4.0 < 8.0, "mean ratio {:.1}", ratio_sum / 4.0);
}

#[test]
fn fpfs_source_sends_packet_i_to_all_children_before_packet_i_plus_1() {
    let cfg = SimConfig::paper_default();
    let n = net(0);
    let dests = NodeMask::from_nodes((1..=12).map(NodeId));
    // 4-packet message so the FPFS order is observable.
    let (_, trace) = run(&n, &cfg, SchemeId::NI_FPFS, dests, 512, true);
    let log = trace.unwrap();
    // At the source (n0), WormQueued events must be sorted by packet
    // index in blocks: pkt 0 × k children, then pkt 1 × k, ...
    let src_pkts: Vec<u32> = log
        .events()
        .iter()
        .filter_map(|(_, e)| match e {
            TraceEvent::WormQueued { node, pkt, .. } if *node == NodeId(0) => Some(*pkt),
            _ => None,
        })
        .collect();
    assert!(!src_pkts.is_empty());
    assert!(
        src_pkts.windows(2).all(|w| w[0] <= w[1]),
        "FPFS order violated at source: {src_pkts:?}"
    );
    let k = src_pkts.iter().filter(|&&p| p == 0).count();
    assert!(k >= 1);
    for pkt in 0..4u32 {
        assert_eq!(
            src_pkts.iter().filter(|&&p| p == pkt).count(),
            k,
            "every packet must be replicated to all {k} children"
        );
    }
}

#[test]
fn hybrid_leaders_never_touch_their_host_cpu_for_forwarding() {
    let cfg = SimConfig::paper_default();
    let n = net(1);
    let dests = NodeMask::from_nodes((4..=20).map(NodeId));
    let plan =
        try_plan_multicast(&n, &cfg, SchemeId::PATH_LG_NI, NodeId(0), dests.clone(), 128).unwrap();
    let leaders: Vec<NodeId> = plan.ni_path_forwards.keys().copied().collect();
    let mut proto = SchemeProtocol::new();
    proto.add(McastId(0), Arc::new(plan));
    let mut sim = Simulator::new(&n, cfg.clone(), proto).unwrap();
    sim.enable_trace();
    sim.schedule_multicast(0, McastId(0), dests.clone(), 128);
    sim.run_to_completion(200_000_000).unwrap();
    let log = sim.take_trace().unwrap();
    for (_, e) in log.events() {
        if let TraceEvent::HostSendStart { node, .. } = e {
            assert!(
                !leaders.contains(node),
                "leader {node} used its host CPU to forward"
            );
        }
    }
    // But their NIs did queue worms.
    if !leaders.is_empty() {
        let queued_by_leaders = log
            .events()
            .iter()
            .filter(|(_, e)| {
                matches!(e, TraceEvent::WormQueued { node, .. } if leaders.contains(node))
            })
            .count();
        assert!(queued_by_leaders > 0);
    }
}
