//! Per-multicast planning: the [`McastPlan`] product type, the legacy
//! [`Scheme`] enum (now a thin compat layer over the scheme registry),
//! and the [`plan_multicast`] / [`try_plan_multicast`] entry points.
//!
//! A [`McastPlan`] is everything the runtime driver needs to execute one
//! multicast under one scheme: the sends the source issues at launch, the
//! software forwarding table (who sends what after *receiving* the
//! message — the multi-phase schemes), and the smart-NI forwarding tables
//! (who replicates what at the *NI*). Which tables a plan may populate is
//! governed by its scheme's [`SchemeCaps`], stamped by the registry.
//!
//! The actual planning logic lives in per-family plugin modules under
//! [`crate::schemes`]; dispatch goes through the
//! [`SchemeRegistry`](crate::schemes::SchemeRegistry).

use crate::schemes::{PlanError, SchemeCaps, SchemeId, SchemeRegistry};
use irrnet_sim::{SendSpec, SimConfig};
use irrnet_topology::{Network, NodeId, NodeMask};
use std::collections::HashMap;
use std::sync::Arc;

/// The multicast schemes compared in the paper (§3), plus the greedy
/// path variant as an ablation.
///
/// This enum is a compat layer: each variant maps onto a dense registry
/// [`SchemeId`] (variant order = id order), and every entry point that
/// used to take a `Scheme` now takes `impl Into<SchemeId>`, so existing
/// call sites compile unchanged while custom plugins registered at
/// runtime flow through the same paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Multi-phase software multicast over unicast: binomial tree,
    /// ⌈log₂(d+1)⌉ phases, full host+NI overhead per hop (§3.1).
    UBinomial,
    /// NI-based multicast: optimal k-binomial tree with FPFS smart-NI
    /// forwarding (§3.2.1).
    NiFpfs,
    /// Switch-based: one tree-based multidestination worm with a
    /// bit-string header, single phase (§3.2.3).
    TreeWorm,
    /// Switch-based: multi-drop path-based worms, greedy covering
    /// (ablation baseline for MDP-LG).
    PathGreedy,
    /// Switch-based: multi-drop path-based worms, MDP-LG covering and
    /// multi-phase scheduling (§3.2.4) — the paper's path-based scheme.
    PathLessGreedy,
    /// Extension: MDP-LG path worms **with smart-NI forwarding** — the
    /// combination the paper points at but does not evaluate ("a
    /// multicasting scheme with enhanced support at the network interface
    /// and the switches will perform better", §3; "the multi-phase
    /// path-based multicasting scheme can also make use of support at the
    /// NI", §4.2). Next-phase worms are injected by the leader's NI as
    /// each packet arrives, skipping the host receive/send overheads
    /// between phases.
    PathLgNi,
}

impl Scheme {
    /// Short label used in tables and CSV output.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::UBinomial => "ubinomial",
            Scheme::NiFpfs => "ni-fpfs",
            Scheme::TreeWorm => "tree",
            Scheme::PathGreedy => "path-g",
            Scheme::PathLessGreedy => "path-lg",
            Scheme::PathLgNi => "path-lg+ni",
        }
    }

    /// The dense registry id of this builtin scheme.
    pub fn id(self) -> SchemeId {
        self.into()
    }

    /// The builtin scheme behind a registry id, if it is one of the six.
    pub fn from_id(id: SchemeId) -> Option<Scheme> {
        Scheme::all().get(id.index()).copied()
    }

    /// The three enhanced schemes the paper's figures compare.
    pub fn paper_three() -> [Scheme; 3] {
        [Scheme::NiFpfs, Scheme::TreeWorm, Scheme::PathLessGreedy]
    }

    /// Every implemented scheme.
    pub fn all() -> [Scheme; 6] {
        [
            Scheme::UBinomial,
            Scheme::NiFpfs,
            Scheme::TreeWorm,
            Scheme::PathGreedy,
            Scheme::PathLessGreedy,
            Scheme::PathLgNi,
        ]
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

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
    /// The registered scheme this plan realizes.
    pub scheme: SchemeId,
    /// Capability flags of the scheme (stamped by the registry): which of
    /// the side tables below the runtime should consult.
    pub caps: SchemeCaps,
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

/// Build the plan for one multicast through the scheme registry,
/// reporting precondition violations and planner failures as typed
/// errors.
pub fn try_plan_multicast(
    net: &Network,
    cfg: &SimConfig,
    scheme: impl Into<SchemeId>,
    source: NodeId,
    dests: NodeMask,
    message_flits: u32,
) -> Result<McastPlan, PlanError> {
    SchemeRegistry::plan(scheme.into(), net, cfg, source, dests, message_flits)
}

/// Build the plan for one multicast.
///
/// Panics if `dests` is empty or contains `source` (the historical
/// contract); use [`try_plan_multicast`] for typed errors.
pub fn plan_multicast(
    net: &Network,
    cfg: &SimConfig,
    scheme: impl Into<SchemeId>,
    source: NodeId,
    dests: NodeMask,
    message_flits: u32,
) -> McastPlan {
    match try_plan_multicast(net, cfg, scheme, source, dests, message_flits) {
        Ok(plan) => plan,
        Err(e) => panic!("{e}"),
    }
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

    #[test]
    fn ubinomial_has_log_phases() {
        let net = net();
        let cfg = SimConfig::paper_default();
        let p = plan_multicast(&net, &cfg, Scheme::UBinomial, NodeId(0), dests8(), 128);
        assert_eq!(p.meta.worms, 8);
        // 9 nodes in the tree -> depth 4 (ceil(log2 9)).
        assert_eq!(p.meta.phases, 4);
        assert!(p.fpfs_children.is_empty());
        assert!(!p.caps.ni_forwarding && !p.caps.switch_replication);
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
        let net = net();
        let cfg = SimConfig::paper_default();
        let p = plan_multicast(&net, &cfg, Scheme::NiFpfs, NodeId(0), dests8(), 128);
        assert!(p.meta.k >= 1);
        assert!(p.caps.ni_forwarding);
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
        let net = net();
        let cfg = SimConfig::paper_default();
        let p = plan_multicast(&net, &cfg, Scheme::TreeWorm, NodeId(0), dests8(), 128);
        assert_eq!(p.meta.worms, 1);
        assert_eq!(p.meta.phases, 1);
        assert_eq!(p.initial.len(), 1);
        assert!(p.on_delivered.is_empty());
        assert!(p.fpfs_children.is_empty());
        assert!(p.caps.switch_replication);
    }

    #[test]
    fn path_plan_covers_exactly() {
        let net = net();
        let cfg = SimConfig::paper_default();
        for scheme in [Scheme::PathGreedy, Scheme::PathLessGreedy] {
            let p = plan_multicast(&net, &cfg, scheme, NodeId(0), dests8(), 128);
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
    fn scheme_names_are_stable() {
        assert_eq!(Scheme::NiFpfs.name(), "ni-fpfs");
        assert_eq!(Scheme::paper_three().len(), 3);
        assert_eq!(Scheme::all().len(), 6);
        for s in Scheme::all() {
            assert_eq!(s.id().name(), s.name());
            assert_eq!(Scheme::from_id(s.id()), Some(s));
        }
    }

    #[test]
    #[should_panic(expected = "source among destinations")]
    fn source_in_dests_panics() {
        let net = net();
        let cfg = SimConfig::paper_default();
        let mut d = dests8();
        d.insert(NodeId(0));
        plan_multicast(&net, &cfg, Scheme::TreeWorm, NodeId(0), d, 128);
    }

    #[test]
    fn try_plan_reports_typed_precondition_errors() {
        let net = net();
        let cfg = SimConfig::paper_default();
        let err = try_plan_multicast(
            &net,
            &cfg,
            Scheme::TreeWorm,
            NodeId(0),
            NodeMask::EMPTY,
            128,
        );
        assert_eq!(err.unwrap_err(), PlanError::EmptyDestinations);
    }
}
