//! Software-tree scheme family: the unicast binomial baseline (§3.1) and
//! the NI-based k-binomial FPFS scheme (§3.2.1). Both build a k-ary
//! binomial tree over the rank-sorted destinations; they differ only in
//! *where* forwarding happens (host vs. smart NI) and how `k` is chosen.

use super::PlanCtx;
use crate::kbinomial::{build_k_binomial, choose_k, McastTree};
use crate::order::sort_by_rank;
use crate::plan::{McastPlan, PlanMeta};
use irrnet_sim::SendSpec;
use irrnet_topology::{Network, NodeId};
use std::collections::HashMap;

/// Multi-phase software multicast over unicast: binomial tree,
/// ⌈log₂(d+1)⌉ phases, full host+NI overhead per hop (§3.1).
pub(super) fn plan_ubinomial(ctx: &PlanCtx<'_>) -> McastPlan {
    let ordered = rank_ordered(ctx);
    let k = ordered.len().max(1);
    plan_software_tree(ctx, &ordered, k, false)
}

/// NI-based multicast: optimal k-binomial tree with FPFS smart-NI
/// forwarding (§3.2.1).
pub(super) fn plan_ni_fpfs(ctx: &PlanCtx<'_>) -> McastPlan {
    let ordered = rank_ordered(ctx);
    let k = choose_k(&ordered, ctx.cfg, ctx.message_flits, avg_hops_estimate(ctx.net));
    plan_software_tree(ctx, &ordered, k, true)
}

/// The destinations in canonical chain order.
fn rank_ordered(ctx: &PlanCtx<'_>) -> Vec<NodeId> {
    let mut ordered: Vec<NodeId> = ctx.dests.iter().collect();
    sort_by_rank(&mut ordered, ctx.net.node_ranks());
    ordered
}

/// Shared construction for the two software-tree schemes: the k-binomial
/// tree over the rank-ordered destinations, forwarded by the hosts
/// (binomial, `k` = #dests) or by the smart NIs (k-binomial FPFS).
fn plan_software_tree(ctx: &PlanCtx<'_>, ordered: &[NodeId], k: usize, fpfs: bool) -> McastPlan {
    let tree: McastTree = build_k_binomial(ctx.source, ordered, k);
    debug_assert!(tree.verify().is_ok());
    let phases = tree.rounds;
    let worms = ordered.len(); // one message per tree edge

    // Every entry but the source's is an interior node's forwarding list.
    let mut forwards = tree.children;
    let root_kids = forwards.remove(&ctx.source).unwrap_or_default();

    if fpfs {
        // NI-based FPFS: the source sends once (its NI fans out); every
        // interior node forwards at the NI.
        McastPlan {
            scheme: ctx.id,
            source: ctx.source,
            dests: ctx.dests.clone(),
            message_flits: ctx.message_flits,
            initial: vec![SendSpec::FpfsChildren { children: root_kids }],
            on_delivered: HashMap::new(),
            fpfs_children: forwards,
            ni_path_forwards: HashMap::new(),
            meta: PlanMeta { worms, phases, k },
        }
    } else {
        // Software binomial: every edge is a separate host-level send.
        let unicasts =
            |kids: Vec<NodeId>| kids.into_iter().map(|dest| SendSpec::Unicast { dest }).collect();
        McastPlan {
            scheme: ctx.id,
            source: ctx.source,
            dests: ctx.dests.clone(),
            message_flits: ctx.message_flits,
            initial: unicasts(root_kids),
            on_delivered: forwards.into_iter().map(|(n, kids)| (n, unicasts(kids))).collect(),
            fpfs_children: HashMap::new(),
            ni_path_forwards: HashMap::new(),
            meta: PlanMeta { worms, phases, k: 0 },
        }
    }
}

/// Rough average hop count for the FPFS cost model: the up*/down*
/// diameter is small; use half of it plus one.
fn avg_hops_estimate(net: &Network) -> u32 {
    net.routing.diameter() as u32 / 2 + 1
}
