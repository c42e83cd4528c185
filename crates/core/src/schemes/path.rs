//! Path-based scheme family: multi-drop path worms with a covering
//! heuristic (§3.2.4), in three flavors — greedy covering (MDP-G,
//! ablation), less-greedy covering (MDP-LG, the paper's scheme), and
//! MDP-LG with smart-NI forwarding of the next-phase worms (the hybrid
//! the paper points at but does not evaluate).

use super::PlanCtx;
use crate::mdp::{plan_paths, PathVariant};
use crate::plan::{McastPlan, PlanMeta};
use irrnet_sim::SendSpec;
use irrnet_topology::NodeId;
use std::collections::HashMap;
use std::sync::Arc;

/// MDP-G: greedy covering, host-level phases (ablation baseline).
pub(super) fn plan_greedy(ctx: &PlanCtx<'_>) -> McastPlan {
    plan_path_worms(ctx, PathVariant::Greedy)
}

/// MDP-LG: less-greedy covering. Next-phase worms are sent by the
/// leader's host after full delivery, or injected by its NI when the
/// scheme declares `ni_forwarding` (`path-lg+ni`).
pub(super) fn plan_less_greedy(ctx: &PlanCtx<'_>) -> McastPlan {
    plan_path_worms(ctx, PathVariant::LessGreedy)
}

fn plan_path_worms(ctx: &PlanCtx<'_>, variant: PathVariant) -> McastPlan {
    let ni_forwarding = ctx.id.caps().ni_forwarding;
    let pp = plan_paths(ctx.net, ctx.source, ctx.dests.clone(), variant);
    let worms = pp.worms.len();
    let phases = pp.phases;
    let mut initial = Vec::new();
    let mut on_delivered: HashMap<NodeId, Vec<SendSpec>> = HashMap::new();
    let mut ni_path_forwards: HashMap<NodeId, Vec<Arc<irrnet_sim::PathWormSpec>>> =
        HashMap::new();
    for (sender, specs) in pp.assignments {
        if sender == ctx.source {
            initial = specs.into_iter().map(|spec| SendSpec::Path { spec }).collect();
        } else if ni_forwarding {
            // Hybrid: the leader's NI injects the next-phase worms
            // packet-by-packet, FPFS style.
            ni_path_forwards.insert(sender, specs);
        } else {
            on_delivered
                .insert(sender, specs.into_iter().map(|spec| SendSpec::Path { spec }).collect());
        }
    }
    McastPlan {
        scheme: ctx.id,
        source: ctx.source,
        dests: ctx.dests.clone(),
        message_flits: ctx.message_flits,
        initial,
        on_delivered,
        fpfs_children: HashMap::new(),
        ni_path_forwards,
        meta: PlanMeta { worms, phases, k: 0 },
    }
}
