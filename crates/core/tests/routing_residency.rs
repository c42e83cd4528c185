//! Routing state costs what is routed. On the 1024-switch / 10,240-host
//! fabric of the `ext_h` scaling curve, analysis and a whole tree-worm
//! multicast build no distance column (tree worms route by reachability
//! strings and the apex climb), and a unicast lookup toward a destination
//! not routed to before builds exactly one.

use std::sync::Arc;

use irrnet_core::{try_plan_multicast, SchemeProtocol, SchemeRegistry};
use irrnet_sim::{McastId, SimConfig, Simulator};
use irrnet_topology::routing::Phase;
use irrnet_topology::{gen, ExtraLinks, Network, NodeId, NodeMask, RandomTopologyConfig, SwitchId};

#[test]
fn a_tree_multicast_on_1024_switches_keeps_routing_under_a_megabyte() {
    let net = Network::analyze(
        gen::generate(&RandomTopologyConfig {
            num_switches: 1024,
            ports_per_switch: 16,
            num_hosts: 10_240,
            extra_links: ExtraLinks::Fraction(0.5),
            seed: 9,
        })
        .unwrap(),
    )
    .unwrap();
    let n = net.num_switches();
    let analyzed = net.routing.resident_bytes();

    // One 16-way tree multicast, with the input buffer widened to hold
    // the whole worm, as `ext_h` runs it.
    let mut cfg = SimConfig::paper_default();
    cfg.input_buffer_flits =
        cfg.input_buffer_flits.max(cfg.packet_payload_flits + cfg.tree_header_flits(net.num_nodes()) + 8);
    let dests: NodeMask = (1..=16u16).map(|i| NodeId(i * 640 - 1)).collect();
    let tree = SchemeRegistry::resolve("tree").expect("builtin scheme");
    let plan = try_plan_multicast(&net, &cfg, tree, NodeId(0), dests.clone(), 128).unwrap();
    let mut proto = SchemeProtocol::new();
    proto.add(McastId(0), Arc::new(plan));
    let mut sim = Simulator::new(&net, cfg, proto).unwrap();
    sim.schedule_multicast(0, McastId(0), dests, 128);
    sim.run_to_completion(500_000_000).unwrap();
    assert!(sim.stats().all_complete());

    let routed = net.routing.resident_bytes();
    assert_eq!(routed, analyzed, "a tree multicast builds no distance column");
    assert!(routed < 1 << 20, "{routed} bytes of routing state");

    // The first lookup toward a destination builds its one column of
    // 3 · n distances; later lookups toward it build nothing.
    let column = 3 * n * std::mem::size_of::<u16>();
    let t = SwitchId(n as u16 - 1);
    assert!(!net.routing.next_hops(SwitchId(0), Phase::Up, t).is_empty());
    assert_eq!(net.routing.resident_bytes(), routed + column);
    assert!(net.routing.up_only_distance(SwitchId(1), t) > 0);
    let _ = net.routing.next_hops(SwitchId(1), Phase::Down, t);
    assert_eq!(net.routing.resident_bytes(), routed + column);
}
