//! Planning collectives: which messages exist, what triggers what.
//!
//! A collective is compiled into a set of simulator multicasts:
//!
//! * every *reduce edge* (child → parent in the combining tree) is one
//!   registered unicast multicast, fired when the child has locally
//!   combined all of its own children's contributions;
//! * the optional *release broadcast* is one multicast planned under the
//!   chosen scheme (any registered [`SchemeId`]), fired when the root's
//!   reduction completes.
//!
//! Ids are allocated densely from a caller-supplied base so several
//! collectives can share one simulation.

use crate::error::CollectiveError;
use irrnet_core::kbinomial::{build_k_binomial, McastTree};
use irrnet_core::order::sort_by_rank;
use irrnet_core::{try_plan_multicast, McastPlan, SchemeId};
use irrnet_sim::{McastId, SimConfig};
use irrnet_topology::{Network, NodeId, NodeMask};
use std::collections::HashMap;

/// The collective operations supported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveOp {
    /// Root → all members: one multicast of `data_flits`.
    Broadcast,
    /// All members → root: software combining tree, one `contrib_flits`
    /// message per edge.
    Reduce,
    /// Reduce with minimal payload, then broadcast with minimal payload.
    Barrier,
    /// Reduce of `contrib_flits`, then broadcast of `data_flits`.
    AllReduce,
}

/// Payload of one constituent message: barriers carry a minimal token,
/// everything else carries the caller's data. One helper sizes both the
/// reduce-edge contributions and the release broadcast.
fn payload_flits(op: CollectiveOp, data_flits: u32) -> u32 {
    match op {
        CollectiveOp::Barrier => 8,
        _ => data_flits,
    }
}

/// One child→parent edge of the combining tree.
#[derive(Debug, Clone, Copy)]
pub struct ReduceEdge {
    /// The sending child.
    pub child: NodeId,
    /// The receiving parent.
    pub parent: NodeId,
    /// The simulator multicast carrying this edge's message.
    pub id: McastId,
}

/// A compiled collective.
#[derive(Debug, Clone)]
pub struct CollectivePlan {
    /// The operation.
    pub op: CollectiveOp,
    /// Root of the collective (broadcast source / reduction sink).
    pub root: NodeId,
    /// All members (including the root).
    pub members: NodeMask,
    /// Reduce edges, if the op has a reduction phase.
    pub edges: Vec<ReduceEdge>,
    /// `pending[n]` — contributions node `n` waits for before it fires
    /// its own edge (its child count; leaves have 0).
    pub pending: HashMap<NodeId, usize>,
    /// Edge id lookup by child.
    pub edge_of: HashMap<NodeId, ReduceEdge>,
    /// The release/broadcast multicast, if the op has one.
    pub broadcast: Option<(McastId, McastPlan)>,
    /// Payload of each reduce-edge message, in flits.
    pub contrib_flits: u32,
    /// Payload of the broadcast, in flits.
    pub data_flits: u32,
    /// Ids used: `base .. base + id_count` (dense).
    pub id_count: u64,
}

impl CollectivePlan {
    /// Compile a collective over `members` rooted at `root`.
    ///
    /// `scheme` chooses the broadcast implementation (ignored for pure
    /// reduce) — any registered [`SchemeId`]. `fanout` bounds the
    /// combining tree (the classic binomial combining tree is
    /// `members-1`, i.e. unbounded; small fan-outs trade depth for less
    /// combining serialization at the root).
    #[allow(clippy::too_many_arguments)]
    pub fn compile(
        net: &Network,
        cfg: &SimConfig,
        op: CollectiveOp,
        root: NodeId,
        members: NodeMask,
        scheme: SchemeId,
        fanout: usize,
        data_flits: u32,
        base_id: u64,
    ) -> Result<Self, CollectiveError> {
        if !members.contains(root) {
            return Err(CollectiveError::RootNotMember);
        }
        if members.len() < 2 {
            return Err(CollectiveError::TooFewMembers(members.len()));
        }
        let contrib_flits = payload_flits(op, data_flits);
        let bcast_flits = payload_flits(op, data_flits);

        let mut next_id = base_id;
        let mut edges = Vec::new();
        let mut pending = HashMap::new();
        let mut edge_of = HashMap::new();

        if matches!(op, CollectiveOp::Reduce | CollectiveOp::Barrier | CollectiveOp::AllReduce) {
            // Combining tree: the broadcast trees of `kbinomial`, reversed.
            let mut others: Vec<NodeId> =
                members.iter().filter(|&n| n != root).collect();
            sort_by_rank(&mut others, net.node_ranks());
            let tree: McastTree = build_k_binomial(root, &others, fanout.max(1));
            for &parent in &tree.bfs_order {
                let kids = tree.children_of(parent);
                pending.insert(parent, kids.len());
                for &child in kids {
                    let id = McastId(next_id);
                    next_id += 1;
                    let e = ReduceEdge { child, parent, id };
                    edges.push(e);
                    edge_of.insert(child, e);
                }
            }
        }

        let broadcast = if matches!(
            op,
            CollectiveOp::Broadcast | CollectiveOp::Barrier | CollectiveOp::AllReduce
        ) {
            let mut dests = members.clone();
            dests.remove(root);
            let id = McastId(next_id);
            next_id += 1;
            Some((id, try_plan_multicast(net, cfg, scheme, root, dests, bcast_flits)?))
        } else {
            None
        };

        Ok(CollectivePlan {
            op,
            root,
            members,
            edges,
            pending,
            edge_of,
            broadcast,
            contrib_flits,
            data_flits: bcast_flits,
            id_count: next_id - base_id,
        })
    }

    /// Members with nothing to wait for — they fire immediately at launch.
    pub fn leaves(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.pending
            .iter()
            .filter(|(n, &c)| c == 0 && **n != self.root)
            .map(|(n, _)| *n)
    }

    /// Total simulator multicasts this collective registers.
    pub fn num_messages(&self) -> usize {
        self.edges.len() + usize::from(self.broadcast.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irrnet_core::SchemeId;
    use irrnet_topology::zoo;

    fn setup() -> (Network, SimConfig) {
        (
            Network::analyze(zoo::paper_example().unwrap()).unwrap(),
            SimConfig::paper_default(),
        )
    }

    #[test]
    fn barrier_has_edges_and_broadcast() {
        let (net, cfg) = setup();
        let members = NodeMask::from_nodes((0..16).map(NodeId));
        let p = CollectivePlan::compile(
            &net,
            &cfg,
            CollectiveOp::Barrier,
            NodeId(0),
            members.clone(),
            SchemeId::TREE,
            4,
            8,
            0,
        )
        .unwrap();
        assert_eq!(p.edges.len(), 15, "one edge per non-root member");
        assert!(p.broadcast.is_some());
        assert_eq!(p.num_messages(), 16);
        assert_eq!(p.id_count, 16);
        // Every non-root member has exactly one outgoing edge.
        for n in members.iter() {
            if n != NodeId(0) {
                assert!(p.edge_of.contains_key(&n), "{n} missing edge");
            }
        }
        assert!(!p.edge_of.contains_key(&NodeId(0)));
    }

    #[test]
    fn reduce_has_no_broadcast() {
        let (net, cfg) = setup();
        let members = NodeMask::from_nodes((0..8).map(NodeId));
        let p = CollectivePlan::compile(
            &net,
            &cfg,
            CollectiveOp::Reduce,
            NodeId(3),
            members,
            SchemeId::TREE,
            2,
            128,
            10,
        )
        .unwrap();
        assert!(p.broadcast.is_none());
        assert_eq!(p.edges.len(), 7);
        // Dense ids from the base.
        let mut ids: Vec<u64> = p.edges.iter().map(|e| e.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (10..17).collect::<Vec<_>>());
    }

    #[test]
    fn broadcast_only_has_no_edges() {
        let (net, cfg) = setup();
        let members = NodeMask::from_nodes((0..8).map(NodeId));
        let p = CollectivePlan::compile(
            &net,
            &cfg,
            CollectiveOp::Broadcast,
            NodeId(0),
            members,
            SchemeId::PATH_LG,
            4,
            128,
            0,
        )
        .unwrap();
        assert!(p.edges.is_empty());
        assert_eq!(p.num_messages(), 1);
    }

    #[test]
    fn pending_counts_match_tree_structure() {
        let (net, cfg) = setup();
        let members = NodeMask::from_nodes((0..12).map(NodeId));
        let p = CollectivePlan::compile(
            &net,
            &cfg,
            CollectiveOp::Reduce,
            NodeId(0),
            members,
            SchemeId::TREE,
            3,
            64,
            0,
        )
        .unwrap();
        let total_children: usize = p.pending.values().sum();
        assert_eq!(total_children, p.edges.len());
        assert!(p.leaves().count() >= 1);
        for kid in p.leaves() {
            assert_eq!(p.pending[&kid], 0);
        }
    }

    #[test]
    fn bad_member_sets_are_typed_errors() {
        let (net, cfg) = setup();
        let members = NodeMask::from_nodes((1..8).map(NodeId));
        let err = CollectivePlan::compile(
            &net,
            &cfg,
            CollectiveOp::Barrier,
            NodeId(0),
            members.clone(),
            SchemeId::TREE,
            4,
            8,
            0,
        )
        .unwrap_err();
        assert!(matches!(err, CollectiveError::RootNotMember), "{err}");
        let err = CollectivePlan::compile(
            &net,
            &cfg,
            CollectiveOp::Barrier,
            NodeId(0),
            NodeMask::single(NodeId(0)),
            SchemeId::TREE,
            4,
            8,
            0,
        )
        .unwrap_err();
        assert!(matches!(err, CollectiveError::TooFewMembers(1)), "{err}");
    }
}
