//! The per-network inputs of multicast planning — the locality ranks and
//! the up*/down* diameter — are computed once per network, on first use,
//! and kept with the orientation and the routing tables. They must equal
//! a fresh computation over the finished network, after
//! `Network::analyze` and after every `Network::degrade`.

use irrnet_topology::routing::{Phase, UNREACHABLE};
use irrnet_topology::{
    gen, ExtraLinks, FaultPlan, FaultStatus, Network, NodeId, RandomFaultConfig,
    RandomTopologyConfig, SwitchId,
};

/// Depth-first walk of the down-DAG from the root (lower-id children
/// first), then every node sorted by (its switch's position, its id).
fn ranks_recomputed(net: &Network) -> Vec<u32> {
    let n_sw = net.num_switches();
    let mut sw_rank = vec![u32::MAX; n_sw];
    let mut next = 0u32;
    let mut stack = vec![net.updown.root()];
    while let Some(s) = stack.pop() {
        if sw_rank[s.idx()] != u32::MAX {
            continue;
        }
        sw_rank[s.idx()] = next;
        next += 1;
        let mut kids: Vec<SwitchId> = net
            .updown
            .down_links(&net.topo, s)
            .map(|(_, peer, _)| peer)
            .filter(|p| sw_rank[p.idx()] == u32::MAX)
            .collect();
        kids.sort_unstable();
        kids.dedup();
        for k in kids.into_iter().rev() {
            stack.push(k);
        }
    }
    let n = net.num_nodes();
    let mut order: Vec<NodeId> = (0..n).map(|i| NodeId(i as u16)).collect();
    order.sort_by_key(|&nd| (sw_rank[net.topo.host_switch(nd).idx()], nd.0));
    let mut ranks = vec![0u32; n];
    for (r, nd) in order.into_iter().enumerate() {
        ranks[nd.idx()] = r as u32;
    }
    ranks
}

/// The longest minimal legal route over every reachable switch pair.
fn diameter_recomputed(net: &Network) -> u16 {
    let n = net.num_switches();
    let mut max = 0u16;
    for s in 0..n {
        for t in 0..n {
            let d = net.routing.distance(SwitchId(s as u16), Phase::Up, SwitchId(t as u16));
            if d != UNREACHABLE {
                max = max.max(d);
            }
        }
    }
    max
}

fn check(net: &Network, what: &str) {
    assert_eq!(net.node_ranks(), &ranks_recomputed(net)[..], "{what}: ranks");
    assert_eq!(net.routing.diameter(), diameter_recomputed(net), "{what}: diameter");
}

/// Analyze, check, then kill the components of a random fault plan one
/// by one — each degrade starting from the previous degraded network —
/// checking after every step.
fn check_through_degradation(cfg: &RandomTopologyConfig, kills: usize) {
    let what = format!("{} switches, seed {}", cfg.num_switches, cfg.seed);
    let mut net = Network::analyze(gen::generate(cfg).unwrap()).unwrap();
    check(&net, &what);
    let plan = FaultPlan::random(
        &net.topo,
        &RandomFaultConfig {
            kills,
            switch_every: 2,
            window: (0, 1000),
            seed: cfg.seed ^ 0xDEAD,
            protect: Vec::new(),
        },
    );
    assert!(!plan.is_empty(), "{what}: the fault plan must kill something");
    let mut status = FaultStatus::healthy(&net.topo);
    for (i, ev) in plan.events().iter().enumerate() {
        status.kill(&net.topo, ev.kind);
        net = net.degrade(&status).unwrap();
        check(&net, &format!("{what}, after kill {i}"));
    }
}

#[test]
fn planning_inputs_match_a_fresh_computation() {
    for seed in 0..4 {
        check_through_degradation(&RandomTopologyConfig::paper_default(seed), 3);
        check_through_degradation(&RandomTopologyConfig::with_switches(seed, 16), 4);
        check_through_degradation(&RandomTopologyConfig::with_switches(seed, 32), 4);
    }
}

#[test]
fn planning_inputs_match_on_a_256_switch_fabric() {
    check_through_degradation(
        &RandomTopologyConfig {
            num_switches: 256,
            ports_per_switch: 16,
            num_hosts: 2560,
            extra_links: ExtraLinks::Fraction(0.5),
            seed: 7,
        },
        4,
    );
}
