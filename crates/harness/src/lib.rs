//! Experiment orchestration for the ICPP '98 reproduction.
//!
//! Every figure, table, extension and ablation is an entry in a
//! data-driven registry executed by one `irrnet-run` binary:
//!
//! * [`registry`] — every figure / table / extension / ablation as an
//!   [`ExperimentSpec`](registry::ExperimentSpec) that expands into
//!   scheme-granular [`Unit`](registry::Unit)s.
//! * [`runner`] — flattens the selected specs into one task pool on
//!   scoped worker threads and runs each unit once behind a panic
//!   boundary; output is byte-identical for any thread count.
//! * [`cache`] — a shared analyzed-network cache, so each
//!   `(topology config, seed)` pair is generated and analyzed exactly
//!   once per campaign.
//! * [`manifest`] — `results/manifest.json`, making a results directory
//!   self-describing (specs, seeds, trials, config hashes, cache
//!   counters, wall-clock).
//! * [`compare`] — the regression gate: diffs run CSVs against committed
//!   goldens within tolerance and re-checks the paper's qualitative
//!   conclusions.
//! * [`journal`] — the crash-safe per-unit run journal behind
//!   `irrnet-run resume` and the shard journals behind `work`/`merge`.
//! * [`shard`] — distributed campaigns: the deterministic round-robin
//!   shard planner, the `irrnet-run work` shard executor, and the
//!   byte-identical `irrnet-run merge` reconstruction.
//! * [`lease`] — worker liveness: fsync'd per-shard lease files
//!   (heartbeat + progress stamp) behind the `status` liveness column
//!   and `work --take-over`'s stale-worker validation.
//! * [`status`] — `irrnet-run status`: live per-shard progress, failure
//!   counts, liveness, and ETA read straight from the journals.
//! * [`error`] — the typed per-unit error surfaced in the manifest's
//!   `"failures"` array instead of killing the campaign.
//!
//! ```no_run
//! use irrnet_harness::{opts::CampaignOptions, registry, runner};
//!
//! let opts = CampaignOptions::quick();
//! let specs = registry::resolve(&["fig06".into()]).unwrap();
//! let report = runner::run_campaign(&specs, &opts).unwrap();
//! assert!(report.failures.is_empty());
//! ```

pub mod cache;
pub mod compare;
pub mod error;
pub mod experiments;
pub mod journal;
pub mod json;
pub mod lease;
pub mod manifest;
pub mod opts;
pub mod panel;
pub mod registry;
pub mod runner;
pub mod schemes;
pub mod shard;
pub mod status;
