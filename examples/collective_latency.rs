//! Collective-communication scenario from the paper's introduction:
//! multicast as the building block of barrier synchronization and DSM
//! cache invalidation. Compares how each scheme's *broadcast* latency
//! scales with system size, and derives a barrier estimate
//! (broadcast + gather ≈ 2× multicast under symmetric overheads).
//!
//! Run with: `cargo run --release --example collective_latency`

use irrnet::prelude::*;
use irrnet::topology::ExtraLinks;

fn main() {
    let cfg = SimConfig::paper_default();
    println!("broadcast latency vs. system size (cycles), R = 1, 1-packet messages\n");
    println!(
        "{:>8} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "nodes", "switches", "ubinomial", "ni-fpfs", "tree", "path-lg"
    );
    for (nodes, switches) in [(16usize, 4usize), (32, 8), (48, 12), (64, 16)] {
        let topo_cfg = RandomTopologyConfig {
            num_switches: switches,
            ports_per_switch: 8,
            num_hosts: nodes,
            extra_links: ExtraLinks::Fraction(0.75),
            seed: 7,
        };
        let net = Network::analyze(gen::generate(&topo_cfg).unwrap()).unwrap();
        let source = NodeId(0);
        let mut dests = NodeMask::all(nodes);
        dests.remove(source);
        print!("{nodes:>8} {switches:>10}");
        for scheme in [
            SchemeId::UBINOMIAL,
            SchemeId::NI_FPFS,
            SchemeId::TREE,
            SchemeId::PATH_LG,
        ] {
            let r = run_single(&net, &cfg, scheme, source, dests.clone(), 128).unwrap();
            print!(" {:>12}", r.latency);
        }
        println!();
    }

    println!();
    println!("barrier synchronization (software combining reduce + release broadcast,");
    println!("release implemented by each scheme):");
    let net = Network::analyze(gen::generate(&RandomTopologyConfig::paper_default(7)).unwrap())
        .unwrap();
    let members = NodeMask::all(32);
    for scheme in SchemeId::BUILTIN {
        let r = run_collective(
            &net,
            &cfg,
            CollectiveOp::Barrier,
            NodeId(0),
            members.clone(),
            scheme,
            4,
            8,
        )
        .unwrap();
        println!(
            "  {:>10}: {} cycles ({} µs), {} messages",
            scheme.name(),
            r.latency,
            r.latency / 100,
            r.messages
        );
    }
    println!();
    println!("allreduce of a 128-flit vector:");
    for scheme in [SchemeId::UBINOMIAL, SchemeId::NI_FPFS, SchemeId::TREE, SchemeId::PATH_LG] {
        let r = run_collective(
            &net,
            &cfg,
            CollectiveOp::AllReduce,
            NodeId(0),
            members.clone(),
            scheme,
            4,
            128,
        )
        .unwrap();
        println!("  {:>10}: {} cycles ({} µs)", scheme.name(), r.latency, r.latency / 100);
    }
}
