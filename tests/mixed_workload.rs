//! One simulation carrying *different schemes concurrently* — the
//! SchemeProtocol dispatches per multicast id, so a workload can mix
//! hardware tree worms, path worms, and NI-based trees in the same
//! network at the same time.

use irrnet::prelude::*;
use std::sync::Arc;

#[test]
fn mixed_schemes_share_one_network() {
    let net = Network::analyze(
        gen::generate(&RandomTopologyConfig::paper_default(4)).unwrap(),
    )
    .unwrap();
    let cfg = SimConfig::paper_default();
    let mut proto = SchemeProtocol::new();
    let mut expected = Vec::new();
    let schemes = SchemeId::BUILTIN;
    for (i, scheme) in schemes.into_iter().enumerate() {
        let source = NodeId((i * 5) as u16);
        let mut dests = NodeMask::from_nodes((0..8).map(|k| NodeId(((i * 3 + k * 4) % 32) as u16)));
        dests.remove(source);
        let id = McastId(i as u64);
        let plan = try_plan_multicast(&net, &cfg, scheme, source, dests.clone(), 128).unwrap();
        proto.add(id, Arc::new(plan));
        expected.push((id, dests));
    }
    let mut sim = Simulator::new(&net, cfg, proto).unwrap();
    for (i, (id, dests)) in expected.iter().enumerate() {
        // Staggered launches so traffic overlaps.
        sim.schedule_multicast((i as u64) * 400, *id, dests.clone(), 128);
    }
    sim.run_to_completion(50_000_000).unwrap();
    let stats = sim.stats();
    assert!(stats.all_complete());
    for (id, dests) in expected {
        assert_eq!(stats.mcasts[&id].deliveries.len(), dests.len(), "{id:?}");
    }
}

#[test]
fn mixed_workload_is_deterministic() {
    let run = || {
        let net = Network::analyze(
            gen::generate(&RandomTopologyConfig::paper_default(4)).unwrap(),
        )
        .unwrap();
        let cfg = SimConfig::paper_default();
        let mut proto = SchemeProtocol::new();
        let mut launches = Vec::new();
        for (i, scheme) in [SchemeId::TREE, SchemeId::NI_FPFS, SchemeId::PATH_LG]
            .into_iter()
            .enumerate()
        {
            let source = NodeId(i as u16);
            let mut dests = NodeMask::from_nodes((10..20).map(NodeId));
            dests.remove(source);
            let id = McastId(i as u64);
            let plan = try_plan_multicast(&net, &cfg, scheme, source, dests.clone(), 256).unwrap();
            proto.add(id, Arc::new(plan));
            launches.push((id, dests));
        }
        let mut sim = Simulator::new(&net, cfg, proto).unwrap();
        for (id, dests) in &launches {
            sim.schedule_multicast(100, *id, dests.clone(), 256);
        }
        sim.run_to_completion(50_000_000).unwrap();
        let st = sim.stats();
        launches
            .iter()
            .map(|(id, _)| st.latency_of(*id).unwrap())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn overlapping_multicasts_slow_each_other_down() {
    let net = Network::analyze(
        gen::generate(&RandomTopologyConfig::paper_default(1)).unwrap(),
    )
    .unwrap();
    let cfg = SimConfig::paper_default();
    let dests = NodeMask::from_nodes((16..28).map(NodeId));
    // Alone:
    let solo = {
        let mut proto = SchemeProtocol::new();
        let plan = try_plan_multicast(&net, &cfg, SchemeId::NI_FPFS, NodeId(0), dests.clone(), 512)
            .unwrap();
        proto.add(McastId(0), Arc::new(plan));
        let mut sim = Simulator::new(&net, cfg.clone(), proto).unwrap();
        sim.schedule_multicast(0, McastId(0), dests.clone(), 512);
        sim.run_to_completion(50_000_000).unwrap();
        sim.stats().latency_of(McastId(0)).unwrap()
    };
    // With three identical competitors launched simultaneously from
    // different sources:
    let contended = {
        let mut proto = SchemeProtocol::new();
        for i in 0..4u64 {
            let src = NodeId(i as u16);
            let mut d = dests.clone();
            d.remove(src);
            proto.add(
                McastId(i),
                Arc::new(try_plan_multicast(&net, &cfg, SchemeId::NI_FPFS, src, d, 512).unwrap()),
            );
        }
        let mut sim = Simulator::new(&net, cfg.clone(), proto).unwrap();
        for i in 0..4u64 {
            let src = NodeId(i as u16);
            let mut d = dests.clone();
            d.remove(src);
            sim.schedule_multicast(0, McastId(i), d, 512);
        }
        sim.run_to_completion(50_000_000).unwrap();
        sim.stats().latency_of(McastId(0)).unwrap()
    };
    assert!(
        contended > solo,
        "contention must cost something: {contended} vs {solo}"
    );
}
