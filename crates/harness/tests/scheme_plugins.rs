//! Property test over the scheme table: every scheme — the six built-ins
//! *and* the fan-out-capped `tree-cap4` — must plan and fully deliver
//! random multicasts on random irregular topologies, and every plan must
//! respect the table's invariants (stamped id, sane worm/phase metadata,
//! NI side tables fenced behind the `ni_forwarding` capability).

use irrnet_core::rng::SmallRng;
use irrnet_core::{try_plan_multicast, SchemeId, SchemeRegistry};
use irrnet_sim::SimConfig;
use irrnet_topology::{gen, Network, NodeId, NodeMask, RandomTopologyConfig};
use irrnet_workloads::{random_mcast, run_single};

#[test]
fn every_registered_scheme_delivers_on_random_topologies() {
    let cfg = SimConfig::paper_default();
    let schemes = SchemeRegistry::all();
    assert_eq!(
        schemes.len(),
        SchemeId::BUILTIN.len() + 1,
        "the table holds the built-ins and tree-cap4"
    );
    for seed in 0..3u64 {
        let net = Network::analyze(
            gen::generate(&RandomTopologyConfig::paper_default(seed)).unwrap(),
        )
        .unwrap();
        let mut rng = SmallRng::seed_from_u64(0xF1A7 ^ seed);
        for degree in [3usize, 9, 17] {
            let (source, dests) = random_mcast(&mut rng, 32, degree);
            for &id in &schemes {
                let plan = try_plan_multicast(&net, &cfg, id, source, dests.clone(), 128)
                    .unwrap_or_else(|e| panic!("{} failed to plan: {e}", id.name()));
                assert_eq!(plan.scheme, id, "{}: plan not stamped with its id", id.name());
                assert_eq!(plan.dests, dests, "{}: destination set mangled", id.name());
                assert!(plan.meta.worms >= 1, "{}: zero worms", id.name());
                assert!(plan.meta.phases >= 1, "{}: zero phases", id.name());
                assert!(!plan.initial.is_empty(), "{}: nothing to launch", id.name());
                if !id.caps().ni_forwarding {
                    assert!(
                        plan.fpfs_children.is_empty() && plan.ni_path_forwards.is_empty(),
                        "{}: NI side tables without the ni_forwarding capability",
                        id.name()
                    );
                }
                // Full delivery: run_single only returns once every
                // destination has received the message.
                let r = run_single(&net, &cfg, id, source, dests.clone(), 128)
                    .unwrap_or_else(|e| panic!("{} failed to deliver: {e}", id.name()));
                assert!(r.latency > 0, "{}: zero-latency delivery", id.name());
                assert_eq!(r.meta.worms, plan.meta.worms, "{}: unstable meta", id.name());
            }
        }
    }
}

#[test]
fn demo_scheme_caps_the_source_fanout() {
    let cfg = SimConfig::paper_default();
    let net = Network::analyze(
        gen::generate(&RandomTopologyConfig::paper_default(0)).unwrap(),
    )
    .unwrap();
    let capped = SchemeRegistry::resolve("tree-cap4").unwrap();
    assert_eq!(capped, SchemeId::TREE_CAP4);
    let tree = SchemeId::TREE;
    for degree in [2usize, 5, 16, 31] {
        let dests = NodeMask::from_nodes((1..=degree as u16).map(NodeId));
        let plan = try_plan_multicast(&net, &cfg, capped, NodeId(0), dests.clone(), 128).unwrap();
        assert!(plan.meta.worms <= 4, "fanout cap violated: {} worms", plan.meta.worms);
        let chunk = degree.div_ceil(4);
        assert_eq!(plan.meta.worms, degree.div_ceil(chunk), "chunking is balanced");
        let baseline = try_plan_multicast(&net, &cfg, tree, NodeId(0), dests, 128).unwrap();
        assert_eq!(baseline.meta.worms, 1, "unbounded tree stays a single worm");
    }
}

#[test]
fn registry_names_are_unique_and_ids_dense() {
    let names = SchemeRegistry::names();
    let set: std::collections::HashSet<&&str> = names.iter().collect();
    assert_eq!(set.len(), names.len(), "duplicate scheme names: {names:?}");
    for (i, id) in SchemeRegistry::all().into_iter().enumerate() {
        assert_eq!(id.index(), i, "ids must be dense");
        assert_eq!(SchemeRegistry::resolve(id.name()), Some(id), "name round-trip");
    }
}
