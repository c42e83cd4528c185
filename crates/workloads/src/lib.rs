//! Experiment harness for the ICPP '98 reproduction: single-multicast
//! latency studies (§4.2), multicast load/saturation studies (§4.3),
//! parallel parameter sweeps, and figure-shaped reporting.
//!
//! The `irrnet-run` experiments (crate `irrnet-harness`) are built on
//! this crate; using it directly looks like:
//!
//! ```
//! use irrnet_core::Scheme;
//! use irrnet_sim::SimConfig;
//! use irrnet_topology::{gen, Network, RandomTopologyConfig};
//! use irrnet_workloads::single::mean_single_latency;
//!
//! let net = Network::analyze(
//!     gen::generate(&RandomTopologyConfig::paper_default(0)).unwrap(),
//! ).unwrap();
//! let cfg = SimConfig::paper_default();
//! let lat = mean_single_latency(&net, &cfg, Scheme::TreeWorm, 8, 128, 3, 0).unwrap();
//! assert!(lat > 0.0);
//! ```

pub mod dsm;
pub mod faults;
pub mod isolate;
pub mod load;
pub mod report;
pub mod single;
pub mod stats;
pub mod sweep;
pub mod transient;

pub use dsm::{generate_trace, run_dsm, DsmConfig, DsmResult, DsmTrace};
pub use faults::{run_faulted, FaultConfig, FaultResult};
pub use isolate::{catch_panics, run_with_deadline, IsolationError};
pub use load::{run_load, LoadConfig, LoadResult};
pub use report::Series;
pub use single::{mean_single_latency, random_dests, random_mcast, run_single, SingleResult};
pub use stats::{quantile, GkSketch, OnlineStats, StreamingSummary, Summary, STREAM_EPS};
pub use sweep::{
    build_networks, default_seeds, par_run, par_run_with, point_seed, single_sweep,
    single_sweep_serial, SinglePoint, SweepRow,
};
pub use transient::{run_transient, TransientConfig, TransientResult};
