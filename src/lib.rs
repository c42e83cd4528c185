//! `irrnet` — multicasting in irregular switch-based networks: a full
//! reproduction of Sivaram, Kesavan, Panda & Stunkel, *"Where to Provide
//! Support for Efficient Multicasting in Irregular Networks: Network
//! Interface or Switch?"* (ICPP '98).
//!
//! This facade crate re-exports the four component crates:
//!
//! * [`topology`] — irregular topologies, Autonet up*/down* routing,
//!   reachability strings ([`irrnet_topology`]);
//! * [`sim`] — the cycle-level cut-through network / host / NI simulator
//!   ([`irrnet_sim`]);
//! * [`mcast`] — the multicast schemes: unicast binomial, NI-based FPFS
//!   k-binomial, switch tree-based and path-based multidestination worms
//!   ([`irrnet_core`]);
//! * [`workloads`] — one scenario pipeline (plan, simulate, collect) and
//!   the workloads built on it: single multicasts, open-loop load, DSM
//!   invalidations, periodic traffic under faults and errors
//!   ([`irrnet_workloads`]);
//! * [`collectives`] — broadcast / reduce / barrier / allreduce built on
//!   the multicast schemes ([`irrnet_collectives`]).
//!
//! # Quickstart
//!
//! ```
//! use irrnet::prelude::*;
//!
//! // A 32-node, 8-switch irregular network like the paper's default.
//! let topo = gen::generate(&RandomTopologyConfig::paper_default(42)).unwrap();
//! let net = Network::analyze(topo).unwrap();
//! let cfg = SimConfig::paper_default();
//!
//! // One 8-way multicast under the switch tree-based scheme.
//! let dests = NodeMask::from_nodes((1..=8).map(NodeId));
//! let result = run_single(&net, &cfg, SchemeId::TREE, NodeId(0), dests, 128).unwrap();
//! assert!(result.latency > 0);
//! ```

pub use irrnet_collectives as collectives;
pub use irrnet_core as mcast;
pub use irrnet_sim as sim;
pub use irrnet_topology as topology;
pub use irrnet_workloads as workloads;

/// One-stop imports for applications.
pub mod prelude {
    pub use irrnet_core::{
        try_plan_multicast, McastPlan, PathVariant, PlanError, PlanMeta, SchemeCaps, SchemeId,
        SchemeProtocol, SchemeRegistry,
    };
    pub use irrnet_sim::{
        Cycle, DeadlockDiagnostics, McastId, PathStop, PathWormSpec, RetxPolicy, SendSpec,
        SimConfig, SimError, SimStats, Simulator,
    };
    pub use irrnet_topology::{
        gen, zoo, FaultKind, FaultPlan, FaultStatus, Network, NodeId, NodeMask,
        RandomFaultConfig, RandomTopologyConfig, SwitchId,
    };
    pub use irrnet_collectives::{run_collective, CollectiveError, CollectiveOp, CollectiveResult};
    pub use irrnet_workloads::{
        mean_single_latency, run_load, run_single, LoadConfig, LoadResult, Series, SingleResult,
        WorkloadError,
    };
}
