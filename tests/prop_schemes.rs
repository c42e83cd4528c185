//! Cross-crate randomized tests: on arbitrary feasible topologies, with
//! arbitrary destination sets and message lengths, every scheme delivers
//! the message to every destination exactly once — the fundamental
//! multicast correctness invariant — and the flit accounting balances.
//!
//! Cases are drawn from the workspace PRNG with a fixed master seed, so
//! the run is offline and replays identically.

use irrnet::prelude::*;
use irrnet::topology::rng::SmallRng;
use irrnet::topology::ExtraLinks;
use std::sync::Arc;

struct Case {
    topo: RandomTopologyConfig,
    source: usize,
    dest_bits: u64,
    message_flits: u32,
    scheme: SchemeId,
}

/// A feasible random case: ports always fit the spanning tree plus the
/// sampled host count, and the source is a valid host index.
fn sample_case(rng: &mut SmallRng) -> Case {
    let switches = rng.gen_range(2..=8usize);
    let extra = rng.gen_range(0.0..1.0);
    let seed = rng.next_u64();
    let tree_ports = 2 * (switches - 1);
    let max_hosts = (switches * 8 - tree_ports).min(48);
    let hosts = rng.gen_range(3..=max_hosts);
    Case {
        topo: RandomTopologyConfig {
            num_switches: switches,
            ports_per_switch: 8,
            num_hosts: hosts,
            extra_links: ExtraLinks::Fraction(extra),
            seed,
        },
        source: rng.gen_range(0..hosts),
        dest_bits: rng.next_u64() | 1,
        message_flits: [16u32, 128, 300][rng.gen_range(0..3usize)],
        scheme: SchemeId::BUILTIN[rng.gen_range(0..SchemeId::BUILTIN.len())],
    }
}

#[test]
fn exactly_once_delivery() {
    let mut rng = SmallRng::seed_from_u64(0x5EED5);
    for _ in 0..48 {
        let case = sample_case(&mut rng);
        let net =
            Network::analyze(irrnet::topology::gen::generate(&case.topo).unwrap()).unwrap();
        let n = net.topo.num_nodes();
        let source = NodeId(case.source as u16);
        // Carve a destination set out of the random bits.
        let mut dests = NodeMask::EMPTY;
        for i in 0..n {
            if i != source.idx() && (case.dest_bits >> (i % 64)) & 1 == 1 {
                dests.insert(NodeId(i as u16));
            }
        }
        if dests.is_empty() {
            // Ensure at least one destination.
            let d = (source.idx() + 1) % n;
            dests.insert(NodeId(d as u16));
        }
        let cfg = SimConfig::paper_default();
        let ctx = format!("{:?} source {} scheme {}", case.topo, case.source, case.scheme);

        let plan =
            try_plan_multicast(&net, &cfg, case.scheme, source, dests.clone(), case.message_flits)
                .unwrap();
        let mut proto = SchemeProtocol::new();
        proto.add(McastId(0), Arc::new(plan));
        let mut sim = Simulator::new(&net, cfg.clone(), proto).unwrap();
        sim.schedule_multicast(0, McastId(0), dests.clone(), case.message_flits);
        sim.run_to_completion(200_000_000).expect("completes without deadlock");
        let stats = sim.stats();

        // Exactly-once delivery to exactly the destination set (the
        // engine debug-asserts duplicates and wrong-destination
        // deliveries; here we assert the release-visible outcome).
        let rec = &stats.mcasts[&McastId(0)];
        assert_eq!(rec.deliveries.len(), dests.len(), "{ctx}");
        for d in dests.iter() {
            assert!(rec.deliveries.contains_key(&d), "missing delivery to {d} — {ctx}");
        }

        // Flit conservation: everything injected is eventually ejected or
        // replicated; ejected >= injected for multicast (replication adds
        // copies), and the packet count at NIs matches the deliveries
        // times packets (plus FPFS forwarding receptions).
        let pkts = cfg.packets_for(case.message_flits) as u64;
        assert_eq!(stats.net.packets_received, dests.len() as u64 * pkts, "{ctx}");
        assert!(stats.net.injected_flits > 0, "{ctx}");
    }
}
