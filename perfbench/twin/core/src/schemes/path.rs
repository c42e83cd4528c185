//! Path-based scheme family: multi-drop path worms with a covering
//! heuristic (§3.2.4), in three flavors — greedy covering (MDP-G,
//! ablation), less-greedy covering (MDP-LG, the paper's scheme), and
//! MDP-LG with smart-NI forwarding of the next-phase worms (the hybrid
//! the paper points at but does not evaluate).

use super::{MulticastScheme, PlanCtx, PlanError, SchemeCaps};
use crate::mdp::{plan_paths, PathVariant};
use crate::plan::{McastPlan, PlanMeta};
use irrnet_sim::SendSpec;
use irrnet_topology::NodeId;
use std::collections::HashMap;
use std::sync::Arc;

/// A path-worm scheme: a covering variant plus a flag for whether
/// next-phase worms are injected by the leader's NI (FPFS-style) or by
/// its host after full delivery.
pub struct PathWormScheme {
    name: &'static str,
    variant: PathVariant,
    ni_forwarding: bool,
}

impl PathWormScheme {
    /// MDP-G: greedy covering, host-level phases (ablation baseline).
    pub const GREEDY: PathWormScheme = PathWormScheme {
        name: "path-g",
        variant: PathVariant::Greedy,
        ni_forwarding: false,
    };

    /// MDP-LG: less-greedy covering, host-level phases — the paper's
    /// path-based scheme.
    pub const LESS_GREEDY: PathWormScheme = PathWormScheme {
        name: "path-lg",
        variant: PathVariant::LessGreedy,
        ni_forwarding: false,
    };

    /// MDP-LG with smart-NI forwarding: the leader's NI injects the
    /// next-phase worms packet-by-packet as the message arrives.
    pub const LESS_GREEDY_NI: PathWormScheme = PathWormScheme {
        name: "path-lg+ni",
        variant: PathVariant::LessGreedy,
        ni_forwarding: true,
    };

    /// A custom flavor (for plugins layering on the path planner).
    pub fn new(name: &'static str, variant: PathVariant, ni_forwarding: bool) -> Self {
        PathWormScheme { name, variant, ni_forwarding }
    }
}

impl MulticastScheme for PathWormScheme {
    fn name(&self) -> &str {
        self.name
    }

    fn caps(&self) -> SchemeCaps {
        SchemeCaps { ni_forwarding: self.ni_forwarding, switch_replication: true }
    }

    fn plan(&self, ctx: &PlanCtx<'_>) -> Result<McastPlan, PlanError> {
        let pp = plan_paths(ctx.net, ctx.source, ctx.dests.clone(), self.variant);
        let worms = pp.worms.len();
        let phases = pp.phases;
        let mut initial = Vec::new();
        let mut on_delivered: HashMap<NodeId, Vec<SendSpec>> = HashMap::new();
        let mut ni_path_forwards: HashMap<NodeId, Vec<Arc<irrnet_sim::PathWormSpec>>> =
            HashMap::new();
        for (sender, specs) in pp.assignments {
            if sender == ctx.source {
                initial = specs.into_iter().map(|spec| SendSpec::Path { spec }).collect();
            } else if self.ni_forwarding {
                // Hybrid: the leader's NI injects the next-phase worms
                // packet-by-packet, FPFS style.
                ni_path_forwards.insert(sender, specs);
            } else {
                on_delivered.insert(
                    sender,
                    specs.into_iter().map(|spec| SendSpec::Path { spec }).collect(),
                );
            }
        }
        Ok(McastPlan {
            scheme: ctx.id,
            caps: self.caps(),
            source: ctx.source,
            dests: ctx.dests.clone(),
            message_flits: ctx.message_flits,
            initial,
            on_delivered,
            fpfs_children: HashMap::new(),
            ni_path_forwards,
            meta: PlanMeta { worms, phases, k: 0 },
        })
    }
}
