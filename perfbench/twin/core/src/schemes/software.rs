//! Software-tree scheme family: the unicast binomial baseline (§3.1) and
//! the NI-based k-binomial FPFS scheme (§3.2.1). Both build a k-ary
//! binomial tree over the rank-sorted destinations; they differ only in
//! *where* forwarding happens (host vs. smart NI) and how `k` is chosen.

use super::{MulticastScheme, PlanCtx, PlanError, SchemeCaps};
use crate::kbinomial::{build_k_binomial, choose_k, McastTree};
use crate::order::{node_ranks, sort_by_rank};
use crate::plan::{McastPlan, PlanMeta};
use irrnet_sim::SendSpec;
use irrnet_topology::{Network, NodeId};
use std::collections::HashMap;

/// Multi-phase software multicast over unicast: binomial tree,
/// ⌈log₂(d+1)⌉ phases, full host+NI overhead per hop (§3.1).
pub struct UBinomialScheme;

impl MulticastScheme for UBinomialScheme {
    fn name(&self) -> &str {
        "ubinomial"
    }

    fn caps(&self) -> SchemeCaps {
        SchemeCaps { ni_forwarding: false, switch_replication: false }
    }

    fn plan(&self, ctx: &PlanCtx<'_>) -> Result<McastPlan, PlanError> {
        Ok(plan_software_tree(ctx, None))
    }
}

/// NI-based multicast: optimal k-binomial tree with FPFS smart-NI
/// forwarding (§3.2.1).
pub struct NiFpfsScheme;

impl MulticastScheme for NiFpfsScheme {
    fn name(&self) -> &str {
        "ni-fpfs"
    }

    fn caps(&self) -> SchemeCaps {
        SchemeCaps { ni_forwarding: true, switch_replication: false }
    }

    fn plan(&self, ctx: &PlanCtx<'_>) -> Result<McastPlan, PlanError> {
        let ranks = node_ranks(ctx.net);
        let mut ordered: Vec<NodeId> = ctx.dests.iter().collect();
        sort_by_rank(&mut ordered, &ranks);
        let k = choose_k(&ordered, ctx.cfg, ctx.message_flits, avg_hops_estimate(ctx.net));
        Ok(plan_software_tree(ctx, Some(k)))
    }
}

/// Shared construction for the two software-tree schemes: binomial
/// (`k = None` ⇒ unbounded fan-out, host forwarding) and k-binomial FPFS
/// (`k = Some(_)`, NI forwarding).
pub(crate) fn plan_software_tree(ctx: &PlanCtx<'_>, fpfs_k: Option<usize>) -> McastPlan {
    let ranks = node_ranks(ctx.net);
    let mut ordered: Vec<NodeId> = ctx.dests.iter().collect();
    sort_by_rank(&mut ordered, &ranks);
    let k = fpfs_k.unwrap_or(ordered.len().max(1));
    let tree: McastTree = build_k_binomial(ctx.source, &ordered, k);
    debug_assert!(tree.verify().is_ok());
    let phases = tree.rounds;
    let worms = ordered.len(); // one message per tree edge

    if let Some(k) = fpfs_k {
        // NI-based FPFS: the source sends once (its NI fans out); every
        // interior node forwards at the NI.
        let initial = vec![SendSpec::FpfsChildren {
            children: tree.children_of(ctx.source).to_vec(),
        }];
        let mut fpfs_children = HashMap::new();
        for (&n, kids) in &tree.children {
            if n != ctx.source && !kids.is_empty() {
                fpfs_children.insert(n, kids.clone());
            }
        }
        McastPlan {
            scheme: ctx.id,
            caps: SchemeCaps { ni_forwarding: true, switch_replication: false },
            source: ctx.source,
            dests: ctx.dests.clone(),
            message_flits: ctx.message_flits,
            initial,
            on_delivered: HashMap::new(),
            fpfs_children,
            ni_path_forwards: HashMap::new(),
            meta: PlanMeta { worms, phases, k },
        }
    } else {
        // Software binomial: every edge is a separate host-level send.
        let initial = tree
            .children_of(ctx.source)
            .iter()
            .map(|&c| SendSpec::Unicast { dest: c })
            .collect();
        let mut on_delivered = HashMap::new();
        for (&n, kids) in &tree.children {
            if n != ctx.source && !kids.is_empty() {
                on_delivered.insert(
                    n,
                    kids.iter().map(|&c| SendSpec::Unicast { dest: c }).collect(),
                );
            }
        }
        McastPlan {
            scheme: ctx.id,
            caps: SchemeCaps::default(),
            source: ctx.source,
            dests: ctx.dests.clone(),
            message_flits: ctx.message_flits,
            initial,
            on_delivered,
            fpfs_children: HashMap::new(),
            ni_path_forwards: HashMap::new(),
            meta: PlanMeta { worms, phases, k: 0 },
        }
    }
}

/// Rough average hop count for the FPFS cost model: the up*/down*
/// diameter is small; use half of it plus one.
pub(crate) fn avg_hops_estimate(net: &Network) -> u32 {
    use irrnet_topology::Phase;
    let n = net.topo.num_switches();
    let mut max = 0u16;
    for s in 0..n {
        for t in 0..n {
            let d = net.routing.distance(
                irrnet_topology::SwitchId(s as u16),
                Phase::Up,
                irrnet_topology::SwitchId(t as u16),
            );
            if d != irrnet_topology::routing::UNREACHABLE {
                max = max.max(d);
            }
        }
    }
    (max as u32) / 2 + 1
}
