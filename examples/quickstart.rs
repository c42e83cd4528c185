//! Quickstart: one multicast under every scheme on the paper's default
//! system, printing latency and plan structure.
//!
//! Run with: `cargo run --release --example quickstart`

use irrnet::prelude::*;

fn main() {
    // The paper's default system: 32 nodes on eight 8-port switches,
    // irregular connectivity, Autonet-style up*/down* routing.
    let topo = gen::generate(&RandomTopologyConfig::paper_default(42)).expect("valid config");
    let net = Network::analyze(topo).expect("connected network");
    println!(
        "network: {} nodes, {} switches, {} links (root {})",
        net.num_nodes(),
        net.num_switches(),
        net.topo.num_links(),
        net.updown.root(),
    );

    // Default parameters: O_h = O_ni = 500 cycles (R = 1), 128-flit
    // packets, 266 MB/s I/O bus.
    let cfg = SimConfig::paper_default();
    println!(
        "overheads: O_h = {} cycles, O_ni = {} cycles (R = {})",
        cfg.o_send_host,
        cfg.o_send_ni,
        cfg.r_ratio()
    );
    println!();

    // A 16-way multicast from node 0.
    let source = NodeId(0);
    let dests = NodeMask::from_nodes((1..=16).map(NodeId));
    println!("multicast: {source} -> {} destinations, 1 packet (128 flits)", dests.len());
    println!();
    println!(
        "{:>12} {:>12} {:>8} {:>8} {:>6}",
        "scheme", "latency", "worms", "phases", "k"
    );
    for scheme in SchemeId::BUILTIN {
        let r = run_single(&net, &cfg, scheme, source, dests.clone(), 128).expect("run completes");
        println!(
            "{:>12} {:>12} {:>8} {:>8} {:>6}",
            scheme.name(),
            r.latency,
            r.meta.worms,
            r.meta.phases,
            if r.meta.k == 0 { "-".into() } else { r.meta.k.to_string() }
        );
    }
    println!();
    println!("(cycles; 1 cycle = 10 ns in the paper's reconstruction — divide by 100 for µs)");
}
