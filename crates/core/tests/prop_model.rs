//! Randomized test: the analytic unicast model matches the simulator
//! *exactly* on arbitrary random topologies, endpoints, message lengths,
//! and overhead settings — the strongest cross-validation of the engine's
//! timing pipeline. Plus: every worm any path plan emits satisfies the
//! legality invariant the simulator depends on.
//!
//! Cases are drawn from the workspace PRNG with fixed master seeds, so
//! the run is offline and replays identically.

use irrnet_core::rng::SmallRng;
use irrnet_core::{try_plan_multicast, LatencyModel, SchemeId, SchemeProtocol};
use irrnet_sim::{McastId, SimConfig, Simulator};
use irrnet_topology::{gen, Network, NodeId, NodeMask, RandomTopologyConfig};
use std::collections::HashMap;
use std::sync::Arc;

fn paper_net(cache: &mut HashMap<u64, Network>, seed: u64) -> &Network {
    cache.entry(seed).or_insert_with(|| {
        Network::analyze(gen::generate(&RandomTopologyConfig::paper_default(seed)).unwrap())
            .unwrap()
    })
}

#[test]
fn unicast_model_matches_simulation_exactly() {
    let mut rng = SmallRng::seed_from_u64(0x10DE1);
    let mut nets = HashMap::new();
    const MSGS: [u32; 6] = [16, 100, 128, 129, 512, 1000];
    const OHS: [u64; 4] = [10, 125, 500, 2000];
    const RS: [f64; 3] = [0.5, 1.0, 4.0];
    for _ in 0..48 {
        let seed = rng.gen_range(0..10u64);
        let src = rng.gen_range(0..32usize) as u16;
        let dst = rng.gen_range(0..32usize) as u16;
        if src == dst {
            continue;
        }
        let msg = MSGS[rng.gen_range(0..MSGS.len())];
        let oh = OHS[rng.gen_range(0..OHS.len())];
        let r = RS[rng.gen_range(0..RS.len())];

        let net = paper_net(&mut nets, seed);
        let mut cfg = SimConfig::paper_default();
        cfg.o_send_host = oh;
        cfg.o_recv_host = oh;
        let cfg = cfg.with_r(r).unwrap();
        let (src, dst) = (NodeId(src), NodeId(dst));

        let predicted = LatencyModel::new(net, &cfg).unicast(src, dst, msg);

        let single = NodeMask::single(dst);
        let plan = try_plan_multicast(net, &cfg, SchemeId::UBINOMIAL, src, single, msg).unwrap();
        let mut proto = SchemeProtocol::new();
        proto.add(McastId(0), Arc::new(plan));
        let mut sim = Simulator::new(net, cfg, proto).unwrap();
        sim.schedule_multicast(0, McastId(0), NodeMask::single(dst), msg);
        sim.run_to_completion(500_000_000).unwrap();
        let measured = sim.stats().latency_of(McastId(0)).unwrap();

        assert_eq!(
            predicted, measured,
            "seed {seed} {src} -> {dst} msg {msg} oh {oh} r {r}"
        );
    }
}

/// Every worm any path plan emits satisfies the legality invariant the
/// simulator depends on (the deadlock-class guard).
#[test]
fn all_planned_path_worms_verify() {
    let mut rng = SmallRng::seed_from_u64(0x90A75);
    let mut nets: HashMap<(u64, usize), Network> = HashMap::new();
    const SWITCHES: [usize; 3] = [8, 16, 32];
    for _ in 0..32 {
        let seed = rng.gen_range(0..8u64);
        let switches = SWITCHES[rng.gen_range(0..SWITCHES.len())];
        let src = rng.gen_range(0..32usize) as u16;
        let dest_bits = rng.next_u64();
        let variant_lg = rng.gen_range(0..2usize) == 1;

        let net = nets.entry((seed, switches)).or_insert_with(|| {
            Network::analyze(
                gen::generate(&RandomTopologyConfig::with_switches(seed, switches)).unwrap(),
            )
            .unwrap()
        });
        let source = NodeId(src % 32);
        let mut dests = NodeMask::EMPTY;
        for i in 0..32u16 {
            if i != source.0 && (dest_bits >> (i % 64)) & 1 == 1 {
                dests.insert(NodeId(i));
            }
        }
        if dests.is_empty() {
            dests.insert(NodeId((source.0 + 1) % 32));
        }
        let variant = if variant_lg {
            irrnet_core::PathVariant::LessGreedy
        } else {
            irrnet_core::PathVariant::Greedy
        };
        let plan = irrnet_core::plan_paths(net, source, dests, variant);
        for (sender, specs) in &plan.assignments {
            let from = net.topo.host_switch(*sender);
            for spec in specs {
                irrnet_core::verify_path_spec(net, from, spec)
                    .unwrap_or_else(|e| panic!("seed {seed} switches {switches}: {e}"));
            }
        }
    }
}
