//! Path-based scheme family: multi-drop path worms with a covering
//! heuristic (§3.2.4), in three flavors — greedy covering (MDP-G,
//! ablation), less-greedy covering (MDP-LG, the paper's scheme), and
//! MDP-LG with smart-NI forwarding of the next-phase worms (the hybrid
//! the paper points at but does not evaluate).

use super::PlanCtx;
use crate::mdp::{plan_paths, PathVariant};
use crate::plan::{McastPlan, PlanMeta};
use crate::table::NodeTable;
use irrnet_sim::SendSpec;

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
    let path = |spec| SendSpec::Path { spec };
    // Every list but the source's is a leader's next-phase worms.
    let mut forwards = pp.assignments;
    let initial = forwards.remove(ctx.source).into_iter().map(path).collect();
    let (on_delivered, ni_path_forwards) = if ni_forwarding {
        // Hybrid: the leader's NI injects the next-phase worms
        // packet-by-packet, FPFS style.
        (NodeTable::new(), forwards)
    } else {
        (forwards.map(path), NodeTable::new())
    };
    McastPlan {
        scheme: ctx.id,
        source: ctx.source,
        dests: ctx.dests.clone(),
        message_flits: ctx.message_flits,
        initial,
        on_delivered,
        fpfs_children: NodeTable::new(),
        ni_path_forwards,
        meta: PlanMeta { worms, phases, k: 0 },
    }
}
