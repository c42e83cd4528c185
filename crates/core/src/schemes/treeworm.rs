//! Switch-based tree schemes: tree-based multidestination worms with a
//! bit-string header, single phase (§3.2.3). All replication happens at
//! the switches along the up*/down* apex tree; the NI plays no part.

use super::PlanCtx;
use crate::order::sort_by_rank;
use crate::plan::{McastPlan, PlanMeta};
use irrnet_sim::SendSpec;
use irrnet_topology::{ApexPlan, NodeId, NodeMask};
use std::collections::HashMap;
use std::sync::Arc;

/// Source fan-out cap of `tree-cap4`.
const MAX_WORMS: usize = 4;

/// `tree`: one worm to every destination.
pub(super) fn plan_tree(ctx: &PlanCtx<'_>) -> McastPlan {
    let initial = vec![tree_worm(ctx, ctx.dests.clone())];
    tree_plan(ctx, initial, 0)
}

/// `tree-cap4`: the tree worm with the source's injection fan-out capped
/// at [`MAX_WORMS`] worms.
///
/// The single-worm tree scheme asks the switches to replicate one worm to
/// every destination; a real implementation might bound how wide a single
/// bit-string worm may fan out (header size, replication port budget).
/// This variant splits the rank-sorted destination set into at most four
/// contiguous chunks and plans one apex-tree worm per chunk — same
/// switch-replication capability, no NI forwarding, strictly more worms.
pub(super) fn plan_tree_cap4(ctx: &PlanCtx<'_>) -> McastPlan {
    let mut dests: Vec<NodeId> = ctx.dests.iter().collect();
    sort_by_rank(&mut dests, ctx.net.node_ranks());
    // Contiguous rank-sorted chunks keep each worm's destinations
    // clustered (same placement argument as the k-binomial layout).
    let chunk = dests.len().div_ceil(MAX_WORMS).max(1);
    let initial = dests
        .chunks(chunk)
        .map(|group| tree_worm(ctx, group.iter().copied().collect()))
        .collect();
    tree_plan(ctx, initial, MAX_WORMS)
}

/// One apex-tree worm to `dests`.
fn tree_worm(ctx: &PlanCtx<'_>, dests: NodeMask) -> SendSpec {
    let net = ctx.net;
    let plan = Arc::new(ApexPlan::compute(&net.topo, &net.updown, &net.reach, dests.clone()));
    SendSpec::Tree { dests, plan }
}

/// A single-phase plan whose source injects `initial`.
fn tree_plan(ctx: &PlanCtx<'_>, initial: Vec<SendSpec>, k: usize) -> McastPlan {
    McastPlan {
        scheme: ctx.id,
        source: ctx.source,
        dests: ctx.dests.clone(),
        message_flits: ctx.message_flits,
        meta: PlanMeta { worms: initial.len(), phases: 1, k },
        initial,
        on_delivered: HashMap::new(),
        fpfs_children: HashMap::new(),
        ni_path_forwards: HashMap::new(),
    }
}
