//! Randomized tests of the topology substrate: any feasible random
//! configuration yields a valid, connected, deadlock-free-routable
//! network with consistent reachability strings.
//!
//! Cases come from the workspace's own PRNG with a fixed master seed, so
//! the run needs no external crates and replays identically everywhere.
//! Historical shrunk failures are pinned explicitly in
//! [`regression_cases`].

use irrnet_topology::rng::SmallRng;
use irrnet_topology::{
    gen, ExtraLinks, Network, NodeMask, Phase, RandomTopologyConfig, SwitchId,
};

/// A feasible random configuration: ports always fit the spanning tree
/// plus hosts.
fn sample_config(rng: &mut SmallRng) -> RandomTopologyConfig {
    let switches = rng.gen_range(2..=12usize);
    let ports = rng.gen_range(4..=8usize) as u8;
    let extra = rng.gen_range(0.0..1.5);
    let seed = rng.next_u64();
    let tree_ports = 2 * (switches - 1);
    let max_hosts = switches * ports as usize - tree_ports;
    let hosts = rng.gen_range(1..=max_hosts.min(64));
    RandomTopologyConfig {
        num_switches: switches,
        ports_per_switch: ports,
        num_hosts: hosts,
        extra_links: ExtraLinks::Fraction(extra),
        seed,
    }
}

/// Shrunk counterexamples found by the original proptest runs; replayed
/// first, before any fresh random cases.
fn regression_cases() -> Vec<RandomTopologyConfig> {
    vec![RandomTopologyConfig {
        num_switches: 12,
        ports_per_switch: 4,
        num_hosts: 1,
        extra_links: ExtraLinks::Fraction(0.0),
        seed: 10848273126184846621,
    }]
}

fn cases(master_seed: u64, n: usize) -> Vec<RandomTopologyConfig> {
    let mut rng = SmallRng::seed_from_u64(master_seed);
    let mut out = regression_cases();
    out.extend((0..n).map(|_| sample_config(&mut rng)));
    out
}

#[test]
fn generated_topologies_validate_and_analyze() {
    for cfg in cases(0xA11CE, 64) {
        let topo = gen::generate(&cfg).expect("feasible config generates");
        topo.validate().expect("generated topology is structurally valid");
        let net = Network::analyze(topo).expect("generated topology analyzes");
        net.updown.verify_acyclic(&net.topo).expect("up orientation acyclic");
        assert!(net.routing.fully_connected(), "{cfg:?}");
    }
}

#[test]
fn next_hops_always_make_progress() {
    for cfg in cases(0xB0B, 24) {
        let net = Network::analyze(gen::generate(&cfg).unwrap()).unwrap();
        let n = net.topo.num_switches();
        for s in 0..n {
            for t in 0..n {
                for phase in [Phase::Up, Phase::Down] {
                    let (s, t) = (SwitchId(s as u16), SwitchId(t as u16));
                    let d = net.routing.distance(s, phase, t);
                    if d == irrnet_topology::routing::UNREACHABLE || d == 0 {
                        continue;
                    }
                    let hops = net.routing.next_hops(s, phase, t);
                    assert!(!hops.is_empty(), "{cfg:?}");
                    for h in hops {
                        // Monotone distance decrease = livelock-free.
                        assert_eq!(
                            net.routing.distance(h.next, h.next_phase, t),
                            d - 1,
                            "{cfg:?}"
                        );
                        // No up traversal after a down traversal.
                        if phase == Phase::Down {
                            assert_eq!(h.next_phase, Phase::Down, "{cfg:?}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn root_covers_everything_and_partition_is_exact() {
    for cfg in cases(0xC0FFEE, 64) {
        let net = Network::analyze(gen::generate(&cfg).unwrap()).unwrap();
        let all = NodeMask::all(net.topo.num_nodes());
        let root = net.updown.root();
        assert!(net.reach.covers(root, &all), "{cfg:?}");
        let parts = net.reach.partition(&net.topo, root, &all);
        let mut union = NodeMask::EMPTY;
        for (_, m) in &parts {
            assert!(union.intersection(m).is_empty(), "duplicate coverage: {cfg:?}");
            union = union.union(m);
        }
        assert_eq!(union, all, "{cfg:?}");
    }
}

#[test]
fn cover_equals_union_of_port_strings() {
    for cfg in cases(0xD00D, 64) {
        let net = Network::analyze(gen::generate(&cfg).unwrap()).unwrap();
        for (s, sw) in net.topo.switches() {
            let mut union = NodeMask::EMPTY;
            for p in 0..sw.num_ports() {
                union = union.union(net.reach.port(s, irrnet_topology::PortIdx(p as u8)));
            }
            assert_eq!(union, net.reach.cover(s), "{cfg:?}");
        }
    }
}

#[test]
fn up_distance_decreases_along_up_ports() {
    use irrnet_topology::ApexPlan;
    for cfg in cases(0xE66, 64) {
        let net = Network::analyze(gen::generate(&cfg).unwrap()).unwrap();
        let n_nodes = net.topo.num_nodes();
        // Use the full destination set: apex guidance must be finite
        // from every source switch (the root covers everything).
        for (s, _) in net.topo.switches() {
            let all = NodeMask::all(n_nodes);
            let plan = ApexPlan::compute(&net.topo, &net.updown, &net.reach, s, all);
            let d = plan.up_distance(s);
            assert!(d != u16::MAX, "{cfg:?}");
            if d > 0 {
                assert!(!plan.up_ports(s).is_empty(), "{cfg:?}");
            }
        }
    }
}
