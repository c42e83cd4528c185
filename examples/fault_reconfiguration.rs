//! Fault & reconfiguration scenario: the paper motivates irregular
//! topologies by their resilience ("resistant to faults", "amenable to
//! network reconfigurations", §1). This example fails each redundant
//! link of a network in turn, recomputes the whole Autonet pipeline
//! (BFS tree, up/down orientation, routing tables, reachability
//! strings), and measures how multicast latency degrades per scheme.
//!
//! Run with: `cargo run --release --example fault_reconfiguration`

use irrnet::prelude::*;
use irrnet::topology::metrics::{link_is_redundant, network_metrics, remove_link};
use irrnet::topology::LinkId;

fn main() {
    let topo = gen::generate(&RandomTopologyConfig::paper_default(9)).unwrap();
    let net = Network::analyze(topo.clone()).unwrap();
    let cfg = SimConfig::paper_default();
    let m = network_metrics(&net);
    println!(
        "healthy network: {} links, diameter {}, mean distance {:.2}\n",
        m.links, m.diameter, m.mean_distance
    );

    let dests = NodeMask::from_nodes((1..=16).map(NodeId));
    let baseline: Vec<(SchemeId, u64)> = SchemeId::PAPER_THREE
        .into_iter()
        .map(|s| (s, run_single(&net, &cfg, s, NodeId(0), dests.clone(), 128).unwrap().latency))
        .collect();
    print!("{:>10} {:>10}", "failed", "diameter");
    for (s, _) in &baseline {
        print!(" {:>12}", s.name());
    }
    println!();
    print!("{:>10} {:>10}", "-", m.diameter);
    for (_, l) in &baseline {
        print!(" {l:>12}");
    }
    println!("   (healthy)");

    let mut bridges = 0;
    for li in 0..topo.num_links() {
        let link = LinkId(li as u32);
        if !link_is_redundant(&topo, link) {
            bridges += 1;
            continue;
        }
        let degraded = remove_link(&topo, link).unwrap();
        let dnet = Network::analyze(degraded).unwrap();
        let dm = network_metrics(&dnet);
        print!("{:>10} {:>10}", format!("{link}"), dm.diameter);
        for (scheme, _) in &baseline {
            let lat = run_single(&dnet, &cfg, *scheme, NodeId(0), dests.clone(), 128)
                .unwrap()
                .latency;
            print!(" {lat:>12}");
        }
        println!();
    }
    println!(
        "\n{bridges} of {} links are bridges (their loss would partition the network\n\
         and trigger a full Autonet reconfiguration rather than rerouting).",
        topo.num_links()
    );
    println!("every surviving configuration still delivers all multicasts — the");
    println!("up*/down* pipeline is recomputed from scratch per configuration.");
}
