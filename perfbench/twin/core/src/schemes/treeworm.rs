//! Switch-based tree scheme: one tree-based multidestination worm with a
//! bit-string header, single phase (§3.2.3). All replication happens at
//! the switches along the up*/down* apex tree; the NI plays no part.

use super::{MulticastScheme, PlanCtx, PlanError, SchemeCaps};
use crate::plan::{McastPlan, PlanMeta};
use irrnet_sim::SendSpec;
use irrnet_topology::ApexPlan;
use std::collections::HashMap;
use std::sync::Arc;

/// Switch-based: one tree-based multidestination worm with a bit-string
/// header, single phase (§3.2.3).
pub struct TreeWormScheme;

impl MulticastScheme for TreeWormScheme {
    fn name(&self) -> &str {
        "tree"
    }

    fn caps(&self) -> SchemeCaps {
        SchemeCaps { ni_forwarding: false, switch_replication: true }
    }

    fn plan(&self, ctx: &PlanCtx<'_>) -> Result<McastPlan, PlanError> {
        let net = ctx.net;
        let plan = Arc::new(ApexPlan::compute(&net.topo, &net.updown, &net.reach, ctx.dests.clone()));
        Ok(McastPlan {
            scheme: ctx.id,
            caps: self.caps(),
            source: ctx.source,
            dests: ctx.dests.clone(),
            message_flits: ctx.message_flits,
            initial: vec![SendSpec::Tree { dests: ctx.dests.clone(), plan }],
            on_delivered: HashMap::new(),
            fpfs_children: HashMap::new(),
            ni_path_forwards: HashMap::new(),
            meta: PlanMeta { worms: 1, phases: 1, k: 0 },
        })
    }
}
