//! Per-multicast planning: the [`McastPlan`] product type and the
//! [`try_plan_multicast`] entry point.
//!
//! A [`McastPlan`] is everything the runtime driver needs to execute one
//! multicast under one scheme: the sends the source issues at launch, the
//! software forwarding table (who sends what after *receiving* the
//! message — the multi-phase schemes), and the smart-NI forwarding tables
//! (who replicates what at the *NI*). Which tables a plan may populate is
//! governed by its scheme's [`SchemeCaps`](crate::SchemeCaps).
//!
//! The planning logic of each scheme family lives in a module under
//! [`crate::schemes`]; [`try_plan_multicast`] dispatches through the
//! scheme table there.

use crate::schemes::{PlanCtx, PlanError, SchemeId};
use irrnet_sim::{SendSpec, SimConfig};
use irrnet_topology::{Network, NodeId, NodeMask};
use std::collections::HashMap;
use std::sync::Arc;

/// Structural facts about a plan, for the architectural-cost table and
/// assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanMeta {
    /// Messages / worms transmitted in total (source + forwarders).
    pub worms: usize,
    /// Communication phases (tree depth for the software schemes, 1 for
    /// the tree-based worm, schedule depth for path-based).
    pub phases: usize,
    /// Fan-out bound of the k-binomial tree (0 when not applicable).
    pub k: usize,
}

/// Everything needed to run one multicast under one scheme.
#[derive(Debug, Clone)]
pub struct McastPlan {
    /// The scheme this plan realizes; its [`SchemeId::caps`] say which of
    /// the side tables below the runtime should consult.
    pub scheme: SchemeId,
    /// Multicast source.
    pub source: NodeId,
    /// Destination set (never contains the source).
    pub dests: NodeMask,
    /// Message length in flits.
    pub message_flits: u32,
    /// Sends the source issues at launch.
    pub initial: Vec<SendSpec>,
    /// Software forwarding: sends a node issues after the message is
    /// delivered to its host.
    pub on_delivered: HashMap<NodeId, Vec<SendSpec>>,
    /// Smart-NI forwarding: children a node's NI replicates each packet
    /// to (FPFS). Populated only by schemes with the `ni_forwarding`
    /// capability.
    pub fpfs_children: HashMap<NodeId, Vec<NodeId>>,
    /// Smart-NI path forwarding (the NI+switch hybrid): path worms a
    /// node's NI injects packet-by-packet as the message arrives.
    /// Populated only by schemes with the `ni_forwarding` capability.
    pub ni_path_forwards: HashMap<NodeId, Vec<Arc<irrnet_sim::PathWormSpec>>>,
    /// Structural metadata.
    pub meta: PlanMeta,
}

/// Build the plan for one multicast under `scheme`, reporting an empty
/// destination set or a source among the destinations as a typed error.
pub fn try_plan_multicast(
    net: &Network,
    cfg: &SimConfig,
    scheme: SchemeId,
    source: NodeId,
    dests: NodeMask,
    message_flits: u32,
) -> Result<McastPlan, PlanError> {
    if dests.is_empty() {
        return Err(PlanError::EmptyDestinations);
    }
    if dests.contains(source) {
        return Err(PlanError::SourceInDestinations);
    }
    let plan = scheme.plan(&PlanCtx { net, cfg, id: scheme, source, dests, message_flits });
    debug_assert!(
        scheme.caps().ni_forwarding
            || (plan.fpfs_children.is_empty() && plan.ni_path_forwards.is_empty()),
        "scheme '{scheme}' emitted NI side tables without the ni_forwarding capability"
    );
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use irrnet_topology::zoo;

    fn net() -> Network {
        Network::analyze(zoo::paper_example().unwrap()).unwrap()
    }

    fn dests8() -> NodeMask {
        NodeMask::from_nodes((1..=8).map(NodeId))
    }

    fn plan8(scheme: SchemeId) -> McastPlan {
        let cfg = SimConfig::paper_default();
        try_plan_multicast(&net(), &cfg, scheme, NodeId(0), dests8(), 128).unwrap()
    }

    #[test]
    fn ubinomial_has_log_phases() {
        let p = plan8(SchemeId::UBINOMIAL);
        assert_eq!(p.meta.worms, 8);
        // 9 nodes in the tree -> depth 4 (ceil(log2 9)).
        assert_eq!(p.meta.phases, 4);
        assert!(p.fpfs_children.is_empty());
        assert_eq!(p.scheme.caps(), crate::SchemeCaps::default());
        // Every destination appears exactly once among all sends.
        let mut targets = Vec::new();
        for s in p.initial.iter().chain(p.on_delivered.values().flatten()) {
            match s {
                SendSpec::Unicast { dest } => targets.push(*dest),
                _ => panic!("ubinomial must use unicast sends"),
            }
        }
        targets.sort();
        let expect: Vec<NodeId> = dests8().iter().collect();
        assert_eq!(targets, expect);
    }

    #[test]
    fn fpfs_plan_covers_all_destinations_via_ni_tables() {
        let p = plan8(SchemeId::NI_FPFS);
        assert!(p.meta.k >= 1);
        assert!(p.scheme.caps().ni_forwarding);
        let mut covered = NodeMask::EMPTY;
        let SendSpec::FpfsChildren { children } = &p.initial[0] else {
            panic!("fpfs initial send")
        };
        let mut frontier = children.clone();
        while let Some(n) = frontier.pop() {
            assert!(!covered.contains(n), "duplicate coverage of {n}");
            covered.insert(n);
            if let Some(kids) = p.fpfs_children.get(&n) {
                frontier.extend(kids.iter().copied());
            }
        }
        assert_eq!(covered, dests8());
        assert!(p.on_delivered.is_empty());
    }

    #[test]
    fn tree_plan_is_single_phase() {
        let p = plan8(SchemeId::TREE);
        assert_eq!(p.meta.worms, 1);
        assert_eq!(p.meta.phases, 1);
        assert_eq!(p.initial.len(), 1);
        assert!(p.on_delivered.is_empty());
        assert!(p.fpfs_children.is_empty());
        assert!(p.scheme.caps().switch_replication);
    }

    #[test]
    fn path_plan_covers_exactly() {
        for scheme in [SchemeId::PATH_G, SchemeId::PATH_LG] {
            let p = plan8(scheme);
            let mut covered = NodeMask::EMPTY;
            for s in p.initial.iter().chain(p.on_delivered.values().flatten()) {
                let SendSpec::Path { spec } = s else { panic!("path send") };
                covered = covered.union(spec.covered());
            }
            assert_eq!(covered, dests8());
            assert!(p.meta.worms >= 1);
            assert!(p.meta.phases >= 1);
        }
    }

    #[test]
    fn try_plan_reports_typed_precondition_errors() {
        let net = net();
        let cfg = SimConfig::paper_default();
        let err = try_plan_multicast(&net, &cfg, SchemeId::TREE, NodeId(0), NodeMask::EMPTY, 128);
        assert_eq!(err.unwrap_err(), PlanError::EmptyDestinations);
        let dests = NodeMask::single(NodeId(0));
        let err = try_plan_multicast(&net, &cfg, SchemeId::TREE, NodeId(0), dests, 128);
        assert_eq!(err.unwrap_err(), PlanError::SourceInDestinations);
    }
}
