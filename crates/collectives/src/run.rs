//! One-shot collective execution and measurement.

use crate::error::CollectiveError;
use crate::plan::{CollectiveOp, CollectivePlan};
use crate::protocol::CollectiveProtocol;
use irrnet_core::SchemeId;
use irrnet_sim::{McastId, SimConfig, Simulator};
use irrnet_topology::{Network, NodeId, NodeMask};

/// Outcome of one collective on an idle network.
#[derive(Debug, Clone, Copy)]
pub struct CollectiveResult {
    /// Cycles from launch to the last constituent message's delivery
    /// (for a barrier: every member released; for a reduce: root holds
    /// the result).
    pub latency: u64,
    /// Simulator multicasts the collective used.
    pub messages: usize,
    /// Reduce-tree edges (0 for pure broadcast).
    pub edges: usize,
}

/// Run one collective over `members` rooted at `root` on an idle network.
///
/// `scheme` selects the release-broadcast implementation; `fanout` bounds
/// the software combining tree.
#[allow(clippy::too_many_arguments)]
pub fn run_collective(
    net: &Network,
    cfg: &SimConfig,
    op: CollectiveOp,
    root: NodeId,
    members: NodeMask,
    scheme: SchemeId,
    fanout: usize,
    data_flits: u32,
) -> Result<CollectiveResult, CollectiveError> {
    let plan =
        CollectivePlan::compile(net, cfg, op, root, members, scheme, fanout, data_flits, 0)?;
    let edges = plan.edges.len();
    let messages = plan.num_messages();
    let leaf_edges: Vec<McastId> = plan
        .leaves()
        .map(|n| plan.edge_of[&n].id)
        .collect();
    let edge_msgs: Vec<(McastId, NodeId)> =
        plan.edges.iter().map(|e| (e.id, e.parent)).collect();
    let contrib = plan.contrib_flits;
    let bcast = plan.broadcast.as_ref().map(|(id, p)| (*id, p.dests.clone(), plan.data_flits));
    let op_is_broadcast_only = matches!(op, CollectiveOp::Broadcast);

    let proto = CollectiveProtocol::new(vec![plan]);
    let mut sim = Simulator::new(net, cfg.clone(), proto)?;
    // Register every constituent message; launch events only for the
    // messages that fire unconditionally at t = 0.
    for (id, parent) in &edge_msgs {
        if leaf_edges.contains(id) {
            sim.schedule_multicast(0, *id, NodeMask::single(*parent), contrib);
        } else {
            sim.register_multicast(*id, NodeMask::single(*parent), contrib);
        }
    }
    if let Some((id, dests, flits)) = bcast {
        if op_is_broadcast_only {
            sim.schedule_multicast(0, id, dests, flits);
        } else {
            sim.register_multicast(id, dests, flits);
        }
    }
    let done = sim.run_to_completion(500_000_000)?;
    Ok(CollectiveResult { latency: done, messages, edges })
}

#[cfg(test)]
mod tests {
    use super::*;
    use irrnet_core::SchemeId;
    use irrnet_topology::{gen, zoo, RandomTopologyConfig};

    fn net() -> Network {
        Network::analyze(zoo::paper_example().unwrap()).unwrap()
    }

    fn all32() -> NodeMask {
        NodeMask::all(32)
    }

    #[test]
    fn broadcast_collective_equals_plain_multicast() {
        let net = net();
        let cfg = SimConfig::paper_default();
        let r = run_collective(
            &net,
            &cfg,
            CollectiveOp::Broadcast,
            NodeId(0),
            all32(),
            SchemeId::TREE,
            4,
            128,
        )
        .unwrap();
        assert_eq!(r.messages, 1);
        assert_eq!(r.edges, 0);
        let direct = irrnet_workloads_shim(&net, &cfg);
        assert_eq!(r.latency, direct, "collective wrapper adds nothing");
    }

    /// Plain 31-way tree multicast latency, computed without the
    /// workloads crate (no circular dev-dependency).
    fn irrnet_workloads_shim(net: &Network, cfg: &SimConfig) -> u64 {
        use irrnet_core::{try_plan_multicast, SchemeProtocol};
        use std::sync::Arc;
        let mut dests = all32();
        dests.remove(NodeId(0));
        let plan =
            try_plan_multicast(net, cfg, SchemeId::TREE, NodeId(0), dests.clone(), 128).unwrap();
        let mut proto = SchemeProtocol::new();
        proto.add(McastId(0), Arc::new(plan));
        let mut sim = Simulator::new(net, cfg.clone(), proto).unwrap();
        sim.schedule_multicast(0, McastId(0), dests, 128);
        sim.run_to_completion(100_000_000).unwrap()
    }

    #[test]
    fn reduce_completes_and_fires_interior_nodes_in_order() {
        let net = net();
        let cfg = SimConfig::paper_default();
        let r = run_collective(
            &net,
            &cfg,
            CollectiveOp::Reduce,
            NodeId(5),
            all32(),
            SchemeId::TREE,
            4,
            64,
        )
        .unwrap();
        assert_eq!(r.edges, 31);
        assert_eq!(r.messages, 31);
        assert!(r.latency > 0);
    }

    #[test]
    fn barrier_is_reduce_plus_release() {
        let net = net();
        let cfg = SimConfig::paper_default();
        let b = run_collective(
            &net,
            &cfg,
            CollectiveOp::Barrier,
            NodeId(0),
            all32(),
            SchemeId::TREE,
            4,
            8,
        )
        .unwrap();
        let red = run_collective(
            &net,
            &cfg,
            CollectiveOp::Reduce,
            NodeId(0),
            all32(),
            SchemeId::TREE,
            4,
            8,
        )
        .unwrap();
        assert_eq!(b.messages, red.messages + 1);
        assert!(b.latency > red.latency, "release adds a broadcast");
    }

    #[test]
    fn hardware_broadcast_speeds_up_barriers() {
        let net = net();
        let cfg = SimConfig::paper_default();
        let lat = |scheme| {
            run_collective(
                &net,
                &cfg,
                CollectiveOp::Barrier,
                NodeId(0),
                all32(),
                scheme,
                4,
                8,
            )
            .unwrap()
            .latency
        };
        let tree = lat(SchemeId::TREE);
        let ub = lat(SchemeId::UBINOMIAL);
        assert!(
            tree < ub,
            "tree-released barrier ({tree}) must beat software release ({ub})"
        );
    }

    #[test]
    fn allreduce_on_random_topologies() {
        let cfg = SimConfig::paper_default();
        for seed in 0..3 {
            let net = Network::analyze(
                gen::generate(&RandomTopologyConfig::paper_default(seed)).unwrap(),
            )
            .unwrap();
            let members = NodeMask::from_nodes((0..24).map(NodeId));
            for scheme in [SchemeId::TREE, SchemeId::NI_FPFS, SchemeId::PATH_LG] {
                let r = run_collective(
                    &net,
                    &cfg,
                    CollectiveOp::AllReduce,
                    NodeId(0),
                    members.clone(),
                    scheme,
                    3,
                    128,
                )
                .unwrap();
                assert_eq!(r.edges, 23);
                assert!(r.latency > 0, "{scheme}");
            }
        }
    }

    #[test]
    fn fanout_trades_depth_for_root_serialization() {
        let net = net();
        let cfg = SimConfig::paper_default();
        let lat = |fanout| {
            run_collective(
                &net,
                &cfg,
                CollectiveOp::Reduce,
                NodeId(0),
                all32(),
                SchemeId::TREE,
                fanout,
                64,
            )
            .unwrap()
            .latency
        };
        // Chain combining (fanout 1) must be far slower than binomial.
        assert!(lat(1) > 2 * lat(8), "chain {} vs bushy {}", lat(1), lat(8));
    }
}
