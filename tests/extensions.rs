//! Integration tests of the reproduction's extensions: the NI+switch
//! hybrid, routing-adaptivity ablation, and architectural cost models.

use irrnet::mcast::header::{bitstring_bytes, header_costs, tree_scheme_switch_state_bits};
use irrnet::prelude::*;

fn default_net(seed: u64) -> Network {
    Network::analyze(gen::generate(&RandomTopologyConfig::paper_default(seed)).unwrap()).unwrap()
}

#[test]
fn hybrid_sits_between_path_and_tree() {
    // The §3 prediction: NI + switch support beats switch-only path
    // support; hardware tree multicast remains the bound.
    let cfg = SimConfig::paper_default();
    let mut tree = 0u64;
    let mut hybrid = 0u64;
    let mut path = 0u64;
    let dests = NodeMask::from_nodes((8..24).map(NodeId));
    for seed in 0..5 {
        let net = default_net(seed);
        tree += run_single(&net, &cfg, SchemeId::TREE, NodeId(0), dests.clone(), 128)
            .unwrap()
            .latency;
        hybrid += run_single(&net, &cfg, SchemeId::PATH_LG_NI, NodeId(0), dests.clone(), 128)
            .unwrap()
            .latency;
        path += run_single(&net, &cfg, SchemeId::PATH_LG, NodeId(0), dests.clone(), 128)
            .unwrap()
            .latency;
    }
    assert!(tree < hybrid, "tree {tree} < hybrid {hybrid}");
    assert!(hybrid < path, "hybrid {hybrid} < path {path}");
}

#[test]
fn disabling_adaptivity_never_helps_under_load() {
    let net = default_net(0);
    let mut lc = LoadConfig::paper_default(8, 0.08);
    lc.warmup = 20_000;
    lc.measure = 150_000;
    lc.drain = 80_000;
    for scheme in [SchemeId::TREE, SchemeId::PATH_LG] {
        let lat = |adaptive: bool| {
            let mut cfg = SimConfig::paper_default();
            cfg.adaptive = adaptive;
            run_load(&net, &cfg, scheme, &lc).unwrap()
        };
        let on = lat(true);
        let off = lat(false);
        // Deterministic routing may saturate where adaptive doesn't, and
        // must not be meaningfully faster.
        if let (Some(a), Some(d)) = (on.mean_latency, off.mean_latency) {
            assert!(
                d >= a * 0.98,
                "{scheme}: deterministic {d:.0} beat adaptive {a:.0}"
            );
        } else {
            assert!(!on.saturated || off.saturated);
        }
    }
}

#[test]
fn bitstring_header_grows_with_system_but_path_header_does_not() {
    // §3.3: tree-based encoding cost scales with system size; path-based
    // per-stop fields do not.
    assert!(bitstring_bytes(128) > bitstring_bytes(32));
    let cfg = SimConfig::paper_default();
    assert_eq!(cfg.path_header_flits(3), 7); // independent of node count
    assert_eq!(cfg.tree_header_flits(32), 5);
    assert_eq!(cfg.tree_header_flits(128), 17);
}

#[test]
fn switch_state_scales_with_switch_count() {
    let bits8: usize = tree_scheme_switch_state_bits(&default_net(0));
    let net32 = Network::analyze(
        gen::generate(&RandomTopologyConfig::with_switches(0, 32)).unwrap(),
    )
    .unwrap();
    let bits32 = tree_scheme_switch_state_bits(&net32);
    assert!(bits32 > bits8, "{bits32} vs {bits8}");
}

#[test]
fn header_cost_ordering_matches_architecture_section() {
    // For one multicast: tree-based puts the fewest header bytes on the
    // wire (one worm); the software schemes pay per destination.
    let cfg = SimConfig::paper_default();
    let net = default_net(2);
    let dests = NodeMask::from_nodes((1..=16).map(NodeId));
    let cost = |scheme| {
        let plan = try_plan_multicast(&net, &cfg, scheme, NodeId(0), dests.clone(), 128).unwrap();
        header_costs(&net, &plan).total_header_bytes
    };
    let tree = cost(SchemeId::TREE);
    let path = cost(SchemeId::PATH_LG);
    let ni = cost(SchemeId::NI_FPFS);
    let ub = cost(SchemeId::UBINOMIAL);
    assert!(tree < path, "tree {tree} < path {path}");
    assert!(path < ni, "path {path} < ni {ni}");
    assert_eq!(ni, ub, "both software trees send one unicast per destination");
}

#[test]
fn cli_scheme_names_resolve() {
    for s in SchemeId::BUILTIN {
        assert_eq!(SchemeRegistry::resolve(s.name()), Some(s));
        assert!(!s.name().is_empty());
    }
}
