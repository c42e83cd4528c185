//! Randomized tests: every collective completes on arbitrary member
//! sets, roots, fan-outs, schemes and payload sizes, with the expected
//! message census.
//!
//! Cases are drawn from the workspace PRNG with a fixed master seed, so
//! the run is offline and replays identically.

use irrnet_collectives::{run_collective, CollectiveOp};
use irrnet_core::rng::SmallRng;
use irrnet_core::SchemeId;
use irrnet_sim::SimConfig;
use irrnet_topology::{gen, Network, NodeId, NodeMask, RandomTopologyConfig};
use std::collections::HashMap;

const OPS: [CollectiveOp; 4] = [
    CollectiveOp::Broadcast,
    CollectiveOp::Reduce,
    CollectiveOp::Barrier,
    CollectiveOp::AllReduce,
];

const SCHEMES: [SchemeId; 5] = [
    SchemeId::UBINOMIAL,
    SchemeId::NI_FPFS,
    SchemeId::TREE,
    SchemeId::PATH_LG,
    SchemeId::PATH_LG_NI,
];

#[test]
fn collectives_always_complete() {
    let mut rng = SmallRng::seed_from_u64(0xC011EC7);
    let mut nets: HashMap<u64, Network> = HashMap::new();
    for _ in 0..32 {
        let seed = rng.gen_range(0..6u64);
        let member_bits = rng.next_u64() | 3; // never the all-zero degenerate set
        let root_pick = rng.gen_range(0..32usize);
        let op = OPS[rng.gen_range(0..OPS.len())];
        let scheme = SCHEMES[rng.gen_range(0..SCHEMES.len())];
        let fanout = rng.gen_range(1..8usize);
        let data = [8u32, 128, 300][rng.gen_range(0..3usize)];

        let net = nets.entry(seed).or_insert_with(|| {
            Network::analyze(
                gen::generate(&RandomTopologyConfig::paper_default(seed)).unwrap(),
            )
            .unwrap()
        });
        // Carve ≥2 members out of the random bits, then pick the root
        // among them.
        let mut members = NodeMask::EMPTY;
        for i in 0..32 {
            if (member_bits >> i) & 1 == 1 {
                members.insert(NodeId(i as u16));
            }
        }
        while members.len() < 2 {
            members.insert(NodeId((member_bits % 32) as u16));
            members.insert(NodeId(((member_bits >> 8) % 32) as u16));
            members.insert(NodeId(0));
        }
        let member_list: Vec<NodeId> = members.iter().collect();
        let root = member_list[root_pick % member_list.len()];

        let r = run_collective(
            net,
            &SimConfig::paper_default(),
            op,
            root,
            members.clone(),
            scheme,
            fanout,
            data,
        )
        .expect("collective completes");
        let others = members.len() - 1;
        let ctx = format!("seed {seed} op {op:?} scheme {scheme} fanout {fanout}");
        match op {
            CollectiveOp::Broadcast => {
                assert_eq!(r.messages, 1, "{ctx}");
                assert_eq!(r.edges, 0, "{ctx}");
            }
            CollectiveOp::Reduce => {
                assert_eq!(r.edges, others, "{ctx}");
                assert_eq!(r.messages, others, "{ctx}");
            }
            CollectiveOp::Barrier | CollectiveOp::AllReduce => {
                assert_eq!(r.edges, others, "{ctx}");
                assert_eq!(r.messages, others + 1, "{ctx}");
            }
        }
        assert!(r.latency > 0, "{ctx}");
    }
}
