//! Workloads for the ICPP '98 reproduction, all run through one pipeline.
//!
//! A [`Scenario`] holds everything one simulation needs (network,
//! configuration, scheme, message length, the `(cycle, source, dests)`
//! launches, optional faults and transient errors, the recovery switches,
//! a stop rule), and [`Scenario::run`] plans, simulates and returns the
//! statistics. Each workload is a launch source over it:
//!
//! * [`single`] — one multicast on an idle network (§4.2);
//! * [`load`] — open-loop Poisson multicast load and saturation (§4.3);
//! * [`dsm`] — a DSM cache-invalidation trace (§1);
//! * [`periodic`] — a fixed multicast stream under permanent faults or
//!   transient errors, with switch- and NI-side recovery.
//!
//! Bad input (a degree that leaves no room for the source, an empty
//! message, a rate that is not finite and positive) is a typed
//! [`WorkloadError`], reported before anything is drawn. The crate also
//! holds parameter sweeps, the campaign's worker pool, latency
//! statistics, and figure-shaped reporting.
//!
//! The `irrnet-run` experiments (crate `irrnet-harness`) are built on
//! this crate; using it directly looks like:
//!
//! ```
//! use irrnet_core::SchemeId;
//! use irrnet_sim::SimConfig;
//! use irrnet_topology::{gen, Network, RandomTopologyConfig};
//! use irrnet_workloads::single::mean_single_latency;
//!
//! let net = Network::analyze(
//!     gen::generate(&RandomTopologyConfig::paper_default(0)).unwrap(),
//! ).unwrap();
//! let cfg = SimConfig::paper_default();
//! let lat = mean_single_latency(&net, &cfg, SchemeId::TREE, 8, 128, 3, 0).unwrap();
//! assert!(lat > 0.0);
//! ```

pub mod dsm;
pub mod load;
pub mod periodic;
pub mod report;
pub mod scenario;
pub mod single;
pub mod stats;
pub mod sweep;

pub use dsm::{generate_trace, run_dsm, DsmConfig};
pub use load::{run_load, LoadConfig, LoadResult};
pub use periodic::{run_periodic, PeriodicConfig, PeriodicResult};
pub use report::Series;
pub use scenario::{Launch, Outcome, Scenario, Stop, WorkloadError};
pub use single::{mean_single_latency, random_dests, random_mcast, run_single, SingleResult};
pub use stats::{quantile, Summary};
pub use sweep::{par_run_with, point_seed, single_sweep_serial, SinglePoint, SweepRow};
