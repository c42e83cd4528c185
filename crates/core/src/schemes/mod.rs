//! Scheme plugin architecture: the [`MulticastScheme`] trait and the
//! process-wide [`SchemeRegistry`].
//!
//! The paper's question — NI support vs. switch support — is a comparison
//! across *scheme families*, and related work keeps proposing new points
//! in that design space. Rather than a closed enum with behavior smeared
//! across a giant `match`, each scheme is a plugin: an object implementing
//! [`MulticastScheme`] that turns a [`PlanCtx`] into a
//! [`McastPlan`], plus a pair of capability flags
//! ([`SchemeCaps`]) telling the runtime which hardware support the plan's
//! side tables rely on.
//!
//! Plugins are interned into the [`SchemeRegistry`] under dense
//! [`SchemeId`]s (same interning style as the engine's dense multicast
//! ids). The six built-in schemes of the paper occupy ids `0..6`, named
//! by the constants [`SchemeId::UBINOMIAL`] through
//! [`SchemeId::PATH_LG_NI`] and listed in id order by
//! [`SchemeId::BUILTIN`]; custom plugins registered at runtime take the
//! ids after them. Every label, CSV column, and golden file takes its
//! name from the registry.
//!
//! # Adding a scheme
//!
//! ```
//! use irrnet_core::schemes::{MulticastScheme, PlanCtx, PlanError, SchemeCaps, SchemeRegistry};
//! use irrnet_core::{try_plan_multicast, McastPlan, SchemeId};
//! use std::sync::Arc;
//!
//! struct Echo; // trivially delegate to an existing scheme
//! impl MulticastScheme for Echo {
//!     fn name(&self) -> &str { "echo" }
//!     fn caps(&self) -> SchemeCaps { SchemeCaps { ni_forwarding: false, switch_replication: true } }
//!     fn plan(&self, ctx: &PlanCtx<'_>) -> Result<McastPlan, PlanError> {
//!         try_plan_multicast(ctx.net, ctx.cfg, SchemeId::TREE, ctx.source,
//!                            ctx.dests.clone(), ctx.message_flits)
//!     }
//! }
//!
//! let id = SchemeRegistry::register(Arc::new(Echo)).unwrap();
//! assert_eq!(id.name(), "echo");
//! assert_eq!(SchemeRegistry::resolve("echo"), Some(id));
//! ```

use crate::plan::McastPlan;
use irrnet_sim::SimConfig;
use irrnet_topology::{Network, NodeId, NodeMask};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

pub mod path;
pub mod software;
pub mod treeworm;

/// Dense interned id of a registered scheme. Ids are assigned in
/// registration order; the six built-ins always occupy `0..6` in
/// [`SchemeId::BUILTIN`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SchemeId(pub(crate) u16);

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

    /// Every built-in scheme, in id order.
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

    /// Index into the registry's dense table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The interned scheme name (`"tree"`, `"ni-fpfs"`, ...). Falls back
    /// to `"?"` for an id that was never registered.
    pub fn name(self) -> &'static str {
        SchemeRegistry::name_of(self).unwrap_or("?")
    }

    /// The capability flags the scheme was registered with.
    pub fn caps(self) -> SchemeCaps {
        SchemeRegistry::caps_of(self).unwrap_or_default()
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

/// Everything a plugin needs to plan one multicast.
#[derive(Clone)]
pub struct PlanCtx<'a> {
    /// Analyzed network (topology, up*/down* orientation, reachability).
    pub net: &'a Network,
    /// Cost-model configuration.
    pub cfg: &'a SimConfig,
    /// The id the resulting plan will be stamped with.
    pub id: SchemeId,
    /// Multicast source.
    pub source: NodeId,
    /// Destination set (validated non-empty and source-free before the
    /// plugin runs).
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
    /// No scheme registered under this name/id.
    UnknownScheme(String),
    /// A scheme with this name is already registered.
    DuplicateScheme(String),
    /// The plugin itself failed.
    Planning {
        /// Name of the failing scheme.
        scheme: String,
        /// What went wrong.
        reason: String,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::EmptyDestinations => write!(f, "empty destination set"),
            PlanError::SourceInDestinations => write!(f, "source among destinations"),
            PlanError::UnknownScheme(name) => write!(f, "unknown scheme '{name}'"),
            PlanError::DuplicateScheme(name) => {
                write!(f, "scheme '{name}' is already registered")
            }
            PlanError::Planning { scheme, reason } => {
                write!(f, "scheme '{scheme}' failed to plan: {reason}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// A multicast scheme: plans one multicast and declares which hardware
/// support the plan relies on.
///
/// Implementations must be cheap to share (`Send + Sync`); per-multicast
/// state belongs in the returned plan, not in the plugin.
pub trait MulticastScheme: Send + Sync {
    /// Short stable label used in tables, CSV columns, and CLI filters.
    fn name(&self) -> &str;

    /// Hardware support the plans of this scheme rely on.
    fn caps(&self) -> SchemeCaps;

    /// Build the plan for one multicast. Preconditions (non-empty
    /// destinations, source excluded) are already validated; the returned
    /// plan's `scheme`/`caps` fields are overwritten by the registry.
    fn plan(&self, ctx: &PlanCtx<'_>) -> Result<McastPlan, PlanError>;

    /// The registered id of this plugin, if any.
    fn id(&self) -> Option<SchemeId> {
        SchemeRegistry::resolve(self.name())
    }
}

struct Entry {
    name: &'static str,
    caps: SchemeCaps,
    imp: Arc<dyn MulticastScheme>,
}

#[derive(Default)]
struct Inner {
    entries: Vec<Entry>,
    by_name: HashMap<&'static str, u16>,
}

impl Inner {
    fn push(&mut self, imp: Arc<dyn MulticastScheme>) -> Result<SchemeId, PlanError> {
        let raw = imp.name();
        if self.by_name.contains_key(raw) {
            return Err(PlanError::DuplicateScheme(raw.to_string()));
        }
        // Intern the name: one bounded leak per registered scheme so ids
        // can hand out `&'static str` labels without locking.
        let name: &'static str = Box::leak(raw.to_string().into_boxed_str());
        let id = SchemeId(self.entries.len() as u16);
        self.by_name.insert(name, id.0);
        self.entries.push(Entry { name, caps: imp.caps(), imp });
        Ok(id)
    }
}

fn store() -> &'static RwLock<Inner> {
    static STORE: OnceLock<RwLock<Inner>> = OnceLock::new();
    STORE.get_or_init(|| {
        // In `SchemeId::BUILTIN` order, so each constant names its plugin.
        let builtins: [Arc<dyn MulticastScheme>; 6] = [
            Arc::new(software::UBinomialScheme),
            Arc::new(software::NiFpfsScheme),
            Arc::new(treeworm::TreeWormScheme),
            Arc::new(path::PathWormScheme::GREEDY),
            Arc::new(path::PathWormScheme::LESS_GREEDY),
            Arc::new(path::PathWormScheme::LESS_GREEDY_NI),
        ];
        let mut inner = Inner::default();
        for imp in builtins {
            inner.push(imp).expect("builtin scheme names are unique");
        }
        RwLock::new(inner)
    })
}

/// The process-wide scheme registry. All operations are associated
/// functions on this handle; the six built-ins are registered lazily on
/// first access, custom plugins via [`SchemeRegistry::register`].
pub struct SchemeRegistry;

impl SchemeRegistry {
    /// Register a plugin, interning its name and assigning the next dense
    /// id. Fails if the name is taken.
    pub fn register(imp: Arc<dyn MulticastScheme>) -> Result<SchemeId, PlanError> {
        store().write().unwrap().push(imp)
    }

    /// Look a scheme up by name.
    pub fn resolve(name: &str) -> Option<SchemeId> {
        store().read().unwrap().by_name.get(name).map(|&i| SchemeId(i))
    }

    /// Every registered scheme, in registration (= dense id) order.
    pub fn all() -> Vec<SchemeId> {
        (0..Self::len() as u16).map(SchemeId).collect()
    }

    /// Every registered name, in dense id order.
    pub fn names() -> Vec<&'static str> {
        store().read().unwrap().entries.iter().map(|e| e.name).collect()
    }

    /// Number of registered schemes.
    pub fn len() -> usize {
        store().read().unwrap().entries.len()
    }

    /// The interned name of a registered id.
    pub fn name_of(id: SchemeId) -> Option<&'static str> {
        store().read().unwrap().entries.get(id.index()).map(|e| e.name)
    }

    /// The capability flags of a registered id.
    pub fn caps_of(id: SchemeId) -> Option<SchemeCaps> {
        store().read().unwrap().entries.get(id.index()).map(|e| e.caps)
    }

    /// The plugin registered under an id.
    pub fn get(id: SchemeId) -> Option<Arc<dyn MulticastScheme>> {
        store().read().unwrap().entries.get(id.index()).map(|e| e.imp.clone())
    }

    /// Plan one multicast through a registered scheme: validate
    /// preconditions, run the plugin, stamp the plan with the id and the
    /// registered capabilities. Callers outside the crate plan through
    /// [`try_plan_multicast`](crate::plan::try_plan_multicast).
    pub(crate) fn plan(
        id: SchemeId,
        net: &Network,
        cfg: &SimConfig,
        source: NodeId,
        dests: NodeMask,
        message_flits: u32,
    ) -> Result<McastPlan, PlanError> {
        if dests.is_empty() {
            return Err(PlanError::EmptyDestinations);
        }
        if dests.contains(source) {
            return Err(PlanError::SourceInDestinations);
        }
        let (imp, caps) = {
            let inner = store().read().unwrap();
            let e = inner
                .entries
                .get(id.index())
                .ok_or_else(|| PlanError::UnknownScheme(format!("id#{}", id.0)))?;
            (e.imp.clone(), e.caps)
        };
        let ctx = PlanCtx { net, cfg, id, source, dests, message_flits };
        let mut plan = imp.plan(&ctx)?;
        plan.scheme = id;
        plan.caps = caps;
        debug_assert!(
            caps.ni_forwarding
                || (plan.fpfs_children.is_empty() && plan.ni_path_forwards.is_empty()),
            "scheme '{}' emitted NI side tables without the ni_forwarding capability",
            id.name()
        );
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irrnet_topology::zoo;

    #[test]
    fn builtin_names_are_pinned_in_id_order() {
        let names: Vec<&str> = SchemeId::BUILTIN.iter().map(|id| id.name()).collect();
        assert_eq!(names, ["ubinomial", "ni-fpfs", "tree", "path-g", "path-lg", "path-lg+ni"]);
        for (i, id) in SchemeId::BUILTIN.into_iter().enumerate() {
            assert_eq!(id.index(), i);
            assert_eq!(SchemeRegistry::resolve(id.name()), Some(id));
        }
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
    }

    #[test]
    fn registry_plan_validates_preconditions() {
        let net = Network::analyze(zoo::chain(3).unwrap()).unwrap();
        let cfg = SimConfig::paper_default();
        let id = SchemeId::TREE;
        let err = SchemeRegistry::plan(id, &net, &cfg, NodeId(0), NodeMask::EMPTY, 128);
        assert_eq!(err.unwrap_err(), PlanError::EmptyDestinations);
        let err = SchemeRegistry::plan(
            id,
            &net,
            &cfg,
            NodeId(0),
            NodeMask::single(NodeId(0)),
            128,
        );
        assert_eq!(err.unwrap_err(), PlanError::SourceInDestinations);
    }

    #[test]
    fn unknown_id_is_a_typed_error() {
        let net = Network::analyze(zoo::chain(2).unwrap()).unwrap();
        let cfg = SimConfig::paper_default();
        let err = SchemeRegistry::plan(
            SchemeId(u16::MAX),
            &net,
            &cfg,
            NodeId(0),
            NodeMask::single(NodeId(1)),
            128,
        );
        assert!(matches!(err.unwrap_err(), PlanError::UnknownScheme(_)));
        assert_eq!(SchemeId(u16::MAX).name(), "?");
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        struct Dup;
        impl MulticastScheme for Dup {
            fn name(&self) -> &str {
                "tree" // collides with the builtin
            }
            fn caps(&self) -> SchemeCaps {
                SchemeCaps::default()
            }
            fn plan(&self, _ctx: &PlanCtx<'_>) -> Result<McastPlan, PlanError> {
                unreachable!()
            }
        }
        let err = SchemeRegistry::register(Arc::new(Dup)).unwrap_err();
        assert_eq!(err, PlanError::DuplicateScheme("tree".into()));
    }
}
