//! Facade surface test: the `irrnet::prelude` exposes everything a
//! downstream application needs for the common flows, and the re-exported
//! crate modules stay reachable under their facade names.

use irrnet::prelude::*;

#[test]
fn prelude_covers_the_quickstart_flow() {
    let topo = gen::generate(&RandomTopologyConfig::paper_default(0)).unwrap();
    let net = Network::analyze(topo).unwrap();
    let cfg = SimConfig::paper_default();
    let dests = NodeMask::from_nodes((1..=4).map(NodeId));
    let r = run_single(&net, &cfg, SchemeId::TREE, NodeId(0), dests, 128).unwrap();
    assert!(r.latency > 0);
}

#[test]
fn facade_module_paths_resolve() {
    // Types reachable through every facade module alias.
    let _t: irrnet::topology::Topology = irrnet::topology::zoo::chain(2).unwrap();
    let _c: irrnet::sim::SimConfig = irrnet::sim::SimConfig::paper_default();
    let _s: irrnet::mcast::SchemeId = irrnet::mcast::SchemeId::TREE;
    let _l: irrnet::workloads::LoadConfig = irrnet::workloads::LoadConfig::paper_default(8, 0.1);
    let _o: irrnet::collectives::CollectiveOp = irrnet::collectives::CollectiveOp::Barrier;
}

#[test]
fn prelude_collective_flow() {
    let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
    let cfg = SimConfig::paper_default();
    let r = run_collective(
        &net,
        &cfg,
        CollectiveOp::Reduce,
        NodeId(0),
        NodeMask::from_nodes((0..8).map(NodeId)),
        SchemeId::TREE,
        4,
        64,
    )
    .unwrap();
    assert_eq!(r.edges, 7);
}

#[test]
fn scheme_names_round_trip_through_the_cli_convention() {
    // The CLI looks schemes up by name; every name must be unique.
    let names: Vec<&str> = SchemeId::BUILTIN.iter().map(|s| s.name()).collect();
    let mut dedup = names.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), names.len());
}
