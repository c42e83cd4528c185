//! Harness-local scheme plugins and name-based scheme selection.
//!
//! This module is the proof that the [`SchemeRegistry`] extension point
//! works end-to-end without touching the core crates: it registers one
//! *demo* custom scheme — a fanout-capped TreeWorm variant — that exists
//! only in the harness, yet runs through the same planner, simulator,
//! experiment registry, and `--schemes` filter as the six built-ins.
//!
//! Experiments declare their scheme panels as *names* (resolved here via
//! [`named`]), so a scheme added at runtime is selectable exactly like a
//! built-in one.

use irrnet_core::order::sort_by_rank;
use irrnet_core::{
    McastPlan, MulticastScheme, PlanCtx, PlanError, PlanMeta, SchemeCaps, SchemeId, SchemeRegistry,
};
use irrnet_sim::SendSpec;
use irrnet_topology::{ApexPlan, NodeId, NodeMask};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Name of the demo plugin, as shown by `irrnet-run schemes`.
pub const CAPPED_TREE_NAME: &str = "tree-cap4";

/// Source fan-out cap of the demo scheme: at most this many tree worms
/// are injected, each covering a contiguous rank-sorted chunk of the
/// destination set.
const MAX_WORMS: usize = 4;

/// Demo custom scheme: TreeWorm with the source's injection fan-out
/// capped at [`MAX_WORMS`] worms.
///
/// The single-worm tree scheme asks the switches to replicate one worm to
/// every destination; a real implementation might bound how wide a single
/// bit-string worm may fan out (header size, replication port budget).
/// This variant splits the rank-sorted destination set into at most four
/// contiguous chunks and plans one apex-tree worm per chunk — same
/// switch-replication capability, no NI forwarding, strictly more worms.
struct CappedTreeWorm;

impl MulticastScheme for CappedTreeWorm {
    fn name(&self) -> &str {
        CAPPED_TREE_NAME
    }

    fn caps(&self) -> SchemeCaps {
        SchemeCaps { ni_forwarding: false, switch_replication: true }
    }

    fn plan(&self, ctx: &PlanCtx<'_>) -> Result<McastPlan, PlanError> {
        let net = ctx.net;
        let mut dests: Vec<NodeId> = ctx.dests.iter().collect();
        sort_by_rank(&mut dests, net.node_ranks());
        // Contiguous rank-sorted chunks keep each worm's destinations
        // clustered (same placement argument as the k-binomial layout).
        let chunk = dests.len().div_ceil(MAX_WORMS).max(1);
        let mut initial = Vec::new();
        for group in dests.chunks(chunk) {
            let mask: NodeMask = group.iter().copied().collect();
            let plan =
                Arc::new(ApexPlan::compute(&net.topo, &net.updown, &net.reach, mask.clone()));
            initial.push(SendSpec::Tree { dests: mask, plan });
        }
        let worms = initial.len();
        Ok(McastPlan {
            scheme: ctx.id,
            caps: self.caps(),
            source: ctx.source,
            dests: ctx.dests.clone(),
            message_flits: ctx.message_flits,
            initial,
            on_delivered: HashMap::new(),
            fpfs_children: HashMap::new(),
            ni_path_forwards: HashMap::new(),
            meta: PlanMeta { worms, phases: 1, k: MAX_WORMS },
        })
    }
}

/// Register the harness's demo plugins (idempotent). Every entry point
/// that may name `tree-cap4` — `irrnet-run`, the `ext_g` experiment, the
/// plugin tests — calls this before resolving names.
pub fn ensure_demo_schemes() {
    static DEMO: OnceLock<SchemeId> = OnceLock::new();
    DEMO.get_or_init(|| match SchemeRegistry::register(Arc::new(CappedTreeWorm)) {
        Ok(id) => id,
        // Another path in this process registered it first.
        Err(_) => SchemeRegistry::resolve(CAPPED_TREE_NAME).expect("demo scheme registered"),
    });
}

/// Resolve a declared scheme-name list against the registry. Panics on
/// an unknown name — experiment declarations are static data, so an
/// unresolvable name is a bug, not an input error.
pub fn named(names: &[&str]) -> Vec<SchemeId> {
    names
        .iter()
        .map(|n| {
            SchemeRegistry::resolve(n).unwrap_or_else(|| {
                panic!(
                    "experiment declares unknown scheme '{n}'; registered: {}",
                    SchemeRegistry::names().join(", ")
                )
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use irrnet_core::SchemeId;

    #[test]
    fn demo_scheme_registers_once_with_a_dense_id() {
        ensure_demo_schemes();
        ensure_demo_schemes();
        let id = SchemeRegistry::resolve(CAPPED_TREE_NAME).unwrap();
        assert!(id.index() >= SchemeId::BUILTIN.len(), "demo ids come after the built-ins");
        assert_eq!(id.name(), CAPPED_TREE_NAME);
        assert!(!id.caps().ni_forwarding);
        assert!(id.caps().switch_replication);
    }

    #[test]
    fn named_resolves_builtins_in_declaration_order() {
        let ids = named(&["tree", "ubinomial"]);
        assert_eq!(ids, vec![SchemeId::TREE, SchemeId::UBINOMIAL]);
    }
}
