//! End-to-end execution of all schemes through the simulator: delivery
//! correctness on random topologies and the paper's qualitative latency
//! ordering on default parameters.

use irrnet_core::{try_plan_multicast, SchemeId, SchemeProtocol};
use irrnet_sim::{McastId, SimConfig, Simulator};
use irrnet_topology::{gen, zoo, Network, NodeId, NodeMask, RandomTopologyConfig};
use std::sync::Arc;

fn run_one(
    net: &Network,
    cfg: &SimConfig,
    scheme: SchemeId,
    source: NodeId,
    dests: &NodeMask,
    msg: u32,
) -> u64 {
    let plan = try_plan_multicast(net, cfg, scheme, source, dests.clone(), msg).unwrap();
    let mut proto = SchemeProtocol::new();
    proto.add(McastId(0), Arc::new(plan));
    let mut sim = Simulator::new(net, cfg.clone(), proto).unwrap();
    sim.schedule_multicast(0, McastId(0), dests.clone(), msg);
    sim.run_to_completion(50_000_000)
        .unwrap_or_else(|e| panic!("{scheme} failed: {e}"));
    let stats = sim.stats();
    assert!(stats.all_complete());
    let rec = &stats.mcasts[&McastId(0)];
    assert_eq!(rec.deliveries.len(), dests.len(), "{scheme}: wrong delivery count");
    stats.latency_of(McastId(0)).unwrap()
}

#[test]
fn every_scheme_delivers_on_random_topologies() {
    let cfg = SimConfig::paper_default();
    for seed in 0..5 {
        let t = gen::generate(&RandomTopologyConfig::paper_default(seed)).unwrap();
        let net = Network::analyze(t).unwrap();
        let source = NodeId((seed % 32) as u16);
        let mut dests = NodeMask::from_nodes((0..32).filter(|i| i % 3 == 0).map(NodeId));
        dests.remove(source);
        for scheme in SchemeId::BUILTIN {
            let lat = run_one(&net, &cfg, scheme, source, &dests, 128);
            assert!(lat > 0);
        }
    }
}

#[test]
fn every_scheme_handles_broadcast() {
    let cfg = SimConfig::paper_default();
    let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
    let source = NodeId(0);
    let mut dests = NodeMask::all(32);
    dests.remove(source);
    for scheme in SchemeId::BUILTIN {
        run_one(&net, &cfg, scheme, source, &dests, 128);
    }
}

#[test]
fn every_scheme_handles_multi_packet_messages() {
    let cfg = SimConfig::paper_default();
    let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
    let source = NodeId(3);
    let dests = NodeMask::from_nodes([4, 9, 17, 25, 30].map(NodeId));
    for scheme in SchemeId::BUILTIN {
        // 512 flits = 4 packets.
        run_one(&net, &cfg, scheme, source, &dests, 512);
    }
}

#[test]
fn every_scheme_handles_single_destination() {
    let cfg = SimConfig::paper_default();
    let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
    for scheme in SchemeId::BUILTIN {
        run_one(&net, &cfg, scheme, NodeId(0), &NodeMask::single(NodeId(31)), 128);
    }
}

#[test]
fn tree_worm_is_fastest_on_default_parameters() {
    // The paper's headline: single-phase tree-based multicast beats all
    // others for a single multicast at default parameters.
    let cfg = SimConfig::paper_default();
    let mut tree_wins = 0;
    let mut total = 0;
    for seed in 0..6 {
        let t = gen::generate(&RandomTopologyConfig::paper_default(seed)).unwrap();
        let net = Network::analyze(t).unwrap();
        let source = NodeId(0);
        let dests = NodeMask::from_nodes((1..=16).map(NodeId));
        let lat_tree = run_one(&net, &cfg, SchemeId::TREE, source, &dests, 128);
        for other in [SchemeId::UBINOMIAL, SchemeId::NI_FPFS, SchemeId::PATH_LG] {
            total += 1;
            if lat_tree <= run_one(&net, &cfg, other, source, &dests, 128) {
                tree_wins += 1;
            }
        }
    }
    assert_eq!(tree_wins, total, "tree-based lost {}/{total} comparisons", total - tree_wins);
}

#[test]
fn enhanced_schemes_beat_plain_unicast_binomial() {
    let cfg = SimConfig::paper_default();
    let t = gen::generate(&RandomTopologyConfig::paper_default(11)).unwrap();
    let net = Network::analyze(t).unwrap();
    let source = NodeId(2);
    let dests = NodeMask::from_nodes((8..24).map(NodeId));
    let base = run_one(&net, &cfg, SchemeId::UBINOMIAL, source, &dests, 128);
    for scheme in SchemeId::PAPER_THREE {
        let lat = run_one(&net, &cfg, scheme, source, &dests, 128);
        assert!(
            lat < base,
            "{scheme} ({lat}) not faster than ubinomial ({base})"
        );
    }
}

#[test]
fn high_r_favors_ni_scheme_over_path_scheme() {
    // §4.2.1: as R = O_h/O_ni grows, the NI-based scheme overtakes the
    // path-based scheme (averaged over topologies).
    let avg = |r: f64, scheme: SchemeId| -> f64 {
        let cfg = SimConfig::paper_default().with_r(r).unwrap();
        let mut sum = 0u64;
        let mut n = 0u64;
        for seed in 0..6 {
            let t = gen::generate(&RandomTopologyConfig::paper_default(seed)).unwrap();
            let net = Network::analyze(t).unwrap();
            let dests = NodeMask::from_nodes((1..=16).map(NodeId));
            sum += run_one(&net, &cfg, scheme, NodeId(0), &dests, 128);
            n += 1;
        }
        sum as f64 / n as f64
    };
    let ni_at_4 = avg(4.0, SchemeId::NI_FPFS);
    let path_at_4 = avg(4.0, SchemeId::PATH_LG);
    assert!(
        ni_at_4 < path_at_4,
        "at R=4 NI ({ni_at_4:.0}) should beat path ({path_at_4:.0})"
    );
    // And the NI scheme improves monotonically with R.
    let ni_at_half = avg(0.5, SchemeId::NI_FPFS);
    assert!(ni_at_4 < ni_at_half);
}

#[test]
fn deterministic_replay() {
    let cfg = SimConfig::paper_default();
    let t = gen::generate(&RandomTopologyConfig::paper_default(3)).unwrap();
    let net = Network::analyze(t).unwrap();
    let dests = NodeMask::from_nodes((1..=12).map(NodeId));
    for scheme in SchemeId::BUILTIN {
        let a = run_one(&net, &cfg, scheme, NodeId(0), &dests, 256);
        let b = run_one(&net, &cfg, scheme, NodeId(0), &dests, 256);
        assert_eq!(a, b, "{scheme} not deterministic");
    }
}
