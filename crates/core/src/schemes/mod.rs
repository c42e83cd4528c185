//! The scheme table: every multicast scheme this crate plans, with its
//! name, its [`SchemeCaps`] and its plan function.
//!
//! The paper's question — NI support vs. switch support — is a comparison
//! across a fixed set of *scheme families* (§3). Each row of the table
//! names one scheme, declares which hardware support its plans rely on,
//! and points at the function that turns one multicast into a
//! [`McastPlan`]. A [`SchemeId`] is an index into the table: the paper's
//! six schemes occupy ids `0..6` in [`SchemeId::BUILTIN`] order, and the
//! fan-out-capped tree worm [`SchemeId::TREE_CAP4`] takes id 6. Every
//! label, CSV column and golden file takes its name from the table, and
//! [`SchemeRegistry`] resolves names back to ids.

use crate::plan::McastPlan;
use irrnet_sim::SimConfig;
use irrnet_topology::{Network, NodeId, NodeMask};

mod path;
mod software;
mod treeworm;

/// Index of a scheme in the scheme table. The only ids are the
/// constants below and what [`SchemeRegistry`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SchemeId(u16);

impl SchemeId {
    /// `ubinomial` — multi-phase software multicast over unicast: binomial
    /// tree, ⌈log₂(d+1)⌉ phases, full host+NI overhead per hop (§3.1).
    pub const UBINOMIAL: SchemeId = SchemeId(0);
    /// `ni-fpfs` — NI-based multicast: optimal k-binomial tree with FPFS
    /// smart-NI forwarding (§3.2.1).
    pub const NI_FPFS: SchemeId = SchemeId(1);
    /// `tree` — switch-based: one tree-based multidestination worm with a
    /// bit-string header, single phase (§3.2.3).
    pub const TREE: SchemeId = SchemeId(2);
    /// `path-g` — switch-based: multi-drop path-based worms, greedy
    /// covering (ablation baseline for MDP-LG).
    pub const PATH_G: SchemeId = SchemeId(3);
    /// `path-lg` — switch-based: multi-drop path-based worms, MDP-LG
    /// covering and multi-phase scheduling (§3.2.4), the paper's
    /// path-based scheme.
    pub const PATH_LG: SchemeId = SchemeId(4);
    /// `path-lg+ni` — MDP-LG path worms **with smart-NI forwarding**, the
    /// combination the paper points at but does not evaluate ("a
    /// multicasting scheme with enhanced support at the network interface
    /// and the switches will perform better", §3; "the multi-phase
    /// path-based multicasting scheme can also make use of support at the
    /// NI", §4.2). Next-phase worms are injected by the leader's NI as
    /// each packet arrives, skipping the host receive/send overheads
    /// between phases.
    pub const PATH_LG_NI: SchemeId = SchemeId(5);
    /// `tree-cap4` — the tree worm with the source's fan-out capped at
    /// four worms, each covering a contiguous rank-sorted chunk of the
    /// destinations (extension G). Same switch support as `tree`, no NI
    /// forwarding, more worms, and no bit-string worm fans out to every
    /// destination.
    pub const TREE_CAP4: SchemeId = SchemeId(6);

    /// The paper's six schemes, in id order.
    pub const BUILTIN: [SchemeId; 6] = [
        SchemeId::UBINOMIAL,
        SchemeId::NI_FPFS,
        SchemeId::TREE,
        SchemeId::PATH_G,
        SchemeId::PATH_LG,
        SchemeId::PATH_LG_NI,
    ];

    /// The three enhanced schemes the paper's figures compare.
    pub const PAPER_THREE: [SchemeId; 3] = [SchemeId::NI_FPFS, SchemeId::TREE, SchemeId::PATH_LG];

    /// Index into the scheme table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The scheme's name (`"tree"`, `"ni-fpfs"`, ...).
    pub fn name(self) -> &'static str {
        SCHEMES[self.index()].name
    }

    /// The hardware support the scheme's plans rely on.
    pub fn caps(self) -> SchemeCaps {
        SCHEMES[self.index()].caps
    }

    /// Run the scheme's plan function.
    pub(crate) fn plan(self, ctx: &PlanCtx<'_>) -> McastPlan {
        (SCHEMES[self.index()].plan)(ctx)
    }
}

impl std::fmt::Display for SchemeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which hardware support a scheme's plan relies on. The engine-facing
/// side tables of a [`McastPlan`] are *capability-driven*: a plan may
/// carry `fpfs_children` / `ni_path_forwards` entries only if its scheme
/// declares `ni_forwarding`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchemeCaps {
    /// The NI replicates/injects packets without host involvement
    /// (FPFS-style smart-NI firmware, §3.2.1).
    pub ni_forwarding: bool,
    /// Switches replicate flits to several output ports (multidestination
    /// worms, §3.2.3–§3.2.4).
    pub switch_replication: bool,
}

/// What a plan function needs to plan one multicast.
pub(crate) struct PlanCtx<'a> {
    /// Analyzed network (topology, up*/down* orientation, reachability).
    pub net: &'a Network,
    /// Cost-model configuration.
    pub cfg: &'a SimConfig,
    /// The scheme being planned, which the plan is stamped with.
    pub id: SchemeId,
    /// Multicast source.
    pub source: NodeId,
    /// Destination set, checked non-empty and source-free.
    pub dests: NodeMask,
    /// Message length in flits.
    pub message_flits: u32,
}

/// Typed planning failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The destination set is empty.
    EmptyDestinations,
    /// The source appears in the destination set.
    SourceInDestinations,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::EmptyDestinations => write!(f, "empty destination set"),
            PlanError::SourceInDestinations => write!(f, "source among destinations"),
        }
    }
}

impl std::error::Error for PlanError {}

/// One row of the scheme table.
struct Scheme {
    name: &'static str,
    caps: SchemeCaps,
    plan: fn(&PlanCtx<'_>) -> McastPlan,
}

const SOFTWARE: SchemeCaps = SchemeCaps { ni_forwarding: false, switch_replication: false };
const NI: SchemeCaps = SchemeCaps { ni_forwarding: true, switch_replication: false };
const SWITCH: SchemeCaps = SchemeCaps { ni_forwarding: false, switch_replication: true };
const NI_AND_SWITCH: SchemeCaps = SchemeCaps { ni_forwarding: true, switch_replication: true };

/// Every scheme, in id order: row `i` is `SchemeId(i)`.
static SCHEMES: [Scheme; 7] = [
    Scheme { name: "ubinomial", caps: SOFTWARE, plan: software::plan_ubinomial },
    Scheme { name: "ni-fpfs", caps: NI, plan: software::plan_ni_fpfs },
    Scheme { name: "tree", caps: SWITCH, plan: treeworm::plan_tree },
    Scheme { name: "path-g", caps: SWITCH, plan: path::plan_greedy },
    Scheme { name: "path-lg", caps: SWITCH, plan: path::plan_less_greedy },
    // MDP-LG whose leaders' NIs inject the next-phase worms.
    Scheme { name: "path-lg+ni", caps: NI_AND_SWITCH, plan: path::plan_less_greedy },
    Scheme { name: "tree-cap4", caps: SWITCH, plan: treeworm::plan_tree_cap4 },
];

/// Name lookups over the scheme table.
pub struct SchemeRegistry;

impl SchemeRegistry {
    /// Look a scheme up by name.
    pub fn resolve(name: &str) -> Option<SchemeId> {
        let i = SCHEMES.iter().position(|s| s.name == name)?;
        Some(SchemeId(i as u16))
    }

    /// Every scheme, in id order.
    pub fn all() -> Vec<SchemeId> {
        (0..SCHEMES.len() as u16).map(SchemeId).collect()
    }

    /// Every scheme name, in id order.
    pub fn names() -> Vec<&'static str> {
        SCHEMES.iter().map(|s| s.name).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_names_are_pinned_in_id_order() {
        let names: Vec<&str> = SchemeId::BUILTIN.iter().map(|id| id.name()).collect();
        assert_eq!(names, ["ubinomial", "ni-fpfs", "tree", "path-g", "path-lg", "path-lg+ni"]);
        for (i, id) in SchemeId::BUILTIN.into_iter().enumerate() {
            assert_eq!(id.index(), i);
            assert_eq!(SchemeRegistry::resolve(id.name()), Some(id));
        }
        assert_eq!(SchemeId::TREE_CAP4.index(), 6);
        assert_eq!(SchemeRegistry::resolve("tree-cap4"), Some(SchemeId::TREE_CAP4));
        assert_eq!(SchemeRegistry::resolve("nope"), None);
        let paper: Vec<&str> = SchemeId::PAPER_THREE.iter().map(|id| id.name()).collect();
        assert_eq!(paper, ["ni-fpfs", "tree", "path-lg"]);
    }

    #[test]
    fn builtin_caps_match_the_paper_families() {
        assert_eq!(SchemeId::UBINOMIAL.caps(), SchemeCaps::default());
        assert!(SchemeId::NI_FPFS.caps().ni_forwarding);
        assert!(!SchemeId::NI_FPFS.caps().switch_replication);
        assert!(SchemeId::TREE.caps().switch_replication);
        assert!(!SchemeId::TREE.caps().ni_forwarding);
        assert!(SchemeId::PATH_LG.caps().switch_replication);
        let hybrid = SchemeId::PATH_LG_NI.caps();
        assert!(hybrid.ni_forwarding && hybrid.switch_replication);
        assert_eq!(SchemeId::TREE_CAP4.caps(), SchemeId::TREE.caps());
    }
}
