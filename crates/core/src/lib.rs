//! Multicast schemes for irregular switch-based networks — the core
//! library of the ICPP '98 reproduction.
//!
//! The paper's four schemes are implemented on top of the `irrnet-sim`
//! substrate:
//!
//! | scheme | support needed | worms | phases |
//! |---|---|---|---|
//! | [`SchemeId::UBINOMIAL`] | none (software only) | d | ⌈log₂(d+1)⌉ |
//! | [`SchemeId::NI_FPFS`] | smart NI firmware | d | k-binomial depth |
//! | [`SchemeId::TREE`] | switch replication + reachability strings | 1 | 1 |
//! | [`SchemeId::PATH_LG`] | switch replication (multi-drop) | w | ⌈log₂(w+1)⌉ |
//!
//! The scheme table in [`schemes`] also holds the greedy path-covering
//! ablation [`SchemeId::PATH_G`], the NI+switch hybrid
//! [`SchemeId::PATH_LG_NI`] and the fan-out-capped tree worm
//! [`SchemeId::TREE_CAP4`]; [`SchemeRegistry`] resolves scheme names.
//!
//! Use [`try_plan_multicast`] to build a [`McastPlan`] for a (source,
//! destination set, message length) triple and register it with a
//! [`SchemeProtocol`] driving an [`irrnet_sim::Simulator`].
//!
//! # Example
//!
//! ```
//! use irrnet_core::{try_plan_multicast, SchemeId, SchemeProtocol};
//! use irrnet_sim::{McastId, SimConfig, Simulator};
//! use irrnet_topology::{zoo, Network, NodeId, NodeMask};
//! use std::sync::Arc;
//!
//! let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
//! let cfg = SimConfig::paper_default();
//! let dests = NodeMask::from_nodes((1..=8).map(NodeId));
//! let plan =
//!     try_plan_multicast(&net, &cfg, SchemeId::TREE, NodeId(0), dests.clone(), 128).unwrap();
//!
//! let mut proto = SchemeProtocol::new();
//! proto.add(McastId(0), Arc::new(plan));
//! let mut sim = Simulator::new(&net, cfg, proto).unwrap();
//! sim.schedule_multicast(0, McastId(0), dests, 128);
//! let done = sim.run_to_completion(10_000_000).unwrap();
//! assert!(done > 0);
//! ```

pub mod contention;
pub mod driver;
pub mod header;
pub mod kbinomial;
pub mod mdp;
pub mod model;
pub mod order;
pub mod plan;
pub mod schemes;
pub mod table;

pub use driver::SchemeProtocol;
/// Deterministic PRNG + hash primitives (splitmix64, xoshiro256**,
/// FNV-1a), re-exported from the topology substrate so workload and
/// harness code can reach them without a direct `irrnet-topology` import.
pub use irrnet_topology::rng;
pub use contention::{tree_link_loads, LinkLoadStats};
pub use kbinomial::{build_k_binomial, build_k_binomial_scattered, choose_k, estimate_fpfs_completion, McastTree};
pub use mdp::{plan_paths, verify_path_spec, PathPlan, PathVariant};
pub use model::LatencyModel;
pub use plan::{try_plan_multicast, McastPlan, PlanMeta};
pub use schemes::{PlanError, SchemeCaps, SchemeId, SchemeRegistry};
pub use table::NodeTable;
