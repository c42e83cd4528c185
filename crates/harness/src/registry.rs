//! The experiment registry: every figure, table, extension, and ablation
//! of the reproduction is an [`ExperimentSpec`] that expands into
//! schedulable [`Unit`]s.
//!
//! A unit is the scheduling granule of a campaign: an independent,
//! deterministic piece of work (typically one scheme of one panel) that
//! reads shared state only through the topology cache and describes its
//! output as [`Emit`] values. The runner flattens every selected spec's
//! units into one task pool, executes them on the worker pool in any
//! order, and renders the emits deterministically in unit order — so
//! campaign output is byte-identical for any `--threads` value.

use crate::cache::CacheHandle;
use crate::error::UnitError;
use crate::opts::CampaignOptions;
use irrnet_core::SchemeId;
use std::sync::Arc;

/// Shared state a unit executes against. Each unit gets a fresh cache
/// handle whose touch log feeds the run journal.
#[derive(Clone)]
pub struct RunCtx {
    /// Campaign-wide options (grids, seeds, trials).
    pub opts: Arc<CampaignOptions>,
    /// This unit's logging view of the shared analyzed-network cache.
    pub cache: CacheHandle,
}

/// One output fragment produced by a unit.
#[derive(Debug, Clone)]
pub enum Emit {
    /// Preformatted text printed to stdout (in unit order).
    Table(String),
    /// A complete CSV artifact.
    Csv {
        /// File name under the output directory.
        name: String,
        /// Full file contents.
        content: String,
    },
    /// One scheme's column of a figure panel; the runner merges the
    /// columns of a panel (same `csv`) into a `Series`, prints the
    /// table, and writes the CSV.
    Column {
        /// Panel CSV file name (groups columns).
        csv: String,
        /// Panel table title.
        title: String,
        /// x-axis label.
        x_label: String,
        /// y-axis label.
        y_label: String,
        /// x values (identical for every column of a panel).
        xs: Vec<f64>,
        /// Scheme this column belongs to (any registered id, including
        /// harness-local plugins).
        scheme: SchemeId,
        /// Column position within the panel (schemes array index).
        order: usize,
        /// y values; `None` = saturated.
        ys: Vec<Option<f64>>,
    },
    /// A configuration fingerprint to record in the manifest (e.g. the
    /// panel's `SimConfig`); deduplicated per experiment.
    Config {
        /// Fingerprint kind (`"sim"`, `"topo"`, ...).
        kind: String,
        /// Canonical human-readable form.
        canonical: String,
        /// Stable hash of the canonical form.
        hash: u64,
    },
}

/// The boxed work closure of a [`Unit`]. Fallible: an `Err` is recorded
/// as a campaign failure (manifest `"failures"`), never a crash.
pub type UnitFn = Box<dyn Fn(&RunCtx) -> Result<Vec<Emit>, UnitError> + Send + Sync>;

/// One schedulable work item.
pub struct Unit {
    /// Progress label, e.g. `fig06_r0.5:tree`.
    pub label: String,
    /// The work; must depend only on `RunCtx`, never on execution order.
    pub exec: UnitFn,
}

impl Unit {
    /// Convenience constructor.
    pub fn new(
        label: impl Into<String>,
        exec: impl Fn(&RunCtx) -> Result<Vec<Emit>, UnitError> + Send + Sync + 'static,
    ) -> Self {
        Unit { label: label.into(), exec: Box::new(exec) }
    }
}

/// One registered experiment (figure / table / extension / ablation).
pub struct ExperimentSpec {
    /// Stable selector name (`irrnet-run fig06`).
    pub name: &'static str,
    /// Human title shown in output and the manifest.
    pub title: &'static str,
    /// Expand into schedulable units for the given options.
    pub units: fn(&CampaignOptions) -> Vec<Unit>,
}

/// Every experiment of the reproduction, in presentation order.
pub fn registry() -> Vec<ExperimentSpec> {
    use crate::experiments as ex;
    vec![
        ExperimentSpec {
            name: "fig06",
            title: "Figure 6 — effect of R on single multicast latency",
            units: ex::fig06::units,
        },
        ExperimentSpec {
            name: "fig07",
            title: "Figure 7 — effect of number of switches (32 nodes)",
            units: ex::fig07::units,
        },
        ExperimentSpec {
            name: "fig08",
            title: "Figure 8 — effect of message length",
            units: ex::fig08::units,
        },
        ExperimentSpec {
            name: "fig09",
            title: "Figure 9 — latency vs. load under R",
            units: ex::fig09::units,
        },
        ExperimentSpec {
            name: "fig10",
            title: "Figure 10 — latency vs. load under switch count",
            units: ex::fig10::units,
        },
        ExperimentSpec {
            name: "fig11",
            title: "Figure 11 — latency vs. load under message length",
            units: ex::fig11::units,
        },
        ExperimentSpec {
            name: "tab01",
            title: "Table 1 — architectural costs per scheme (quantified §3.3)",
            units: ex::tab01::units,
        },
        ExperimentSpec {
            name: "ext_a",
            title: "Extension A — host overhead / system size / packet length sweeps",
            units: ex::ext_a::units,
        },
        ExperimentSpec {
            name: "ext_b",
            title: "Extension B — unicast saturation under up*/down* routing",
            units: ex::ext_b::units,
        },
        ExperimentSpec {
            name: "ext_c",
            title: "Extension C — switch size (ports per switch) at 32 nodes",
            units: ex::ext_c::units,
        },
        ExperimentSpec {
            name: "ext_d",
            title: "Extension D — DSM invalidation latency",
            units: ex::ext_d::units,
        },
        ExperimentSpec {
            name: "ext_e",
            title: "Extension E — collectives on multicast",
            units: ex::ext_e::units,
        },
        ExperimentSpec {
            name: "ext_f",
            title: "Extension F — fault injection, reconfiguration, and NI retransmission",
            units: ex::ext_f::units,
        },
        ExperimentSpec {
            name: "ext_g",
            title: "Extension G — custom scheme plugin (fanout-capped tree)",
            units: ex::ext_g::units,
        },
        ExperimentSpec {
            name: "ext_h",
            title: "Extension H — giant-topology scaling (throughput & reachability state)",
            units: ex::ext_h::units,
        },
        ExperimentSpec {
            name: "ext_i",
            title: "Extension I — transient soft errors (switch retry vs NI retransmission)",
            units: ex::ext_i::units,
        },
        ExperimentSpec {
            name: "abl_ordering",
            title: "Ablation — k-binomial destination placement",
            units: ex::abl_ordering::units,
        },
        ExperimentSpec {
            name: "abl_adaptivity",
            title: "Ablation — routing adaptivity",
            units: ex::abl_adaptivity::units,
        },
        ExperimentSpec {
            name: "abl_mdp",
            title: "Ablation — MDP-G vs MDP-LG covering heuristics",
            units: ex::abl_mdp::units,
        },
        ExperimentSpec {
            name: "abl_hybrid",
            title: "Extension — hybrid NI+switch support (path-lg+ni)",
            units: ex::abl_hybrid::units,
        },
    ]
}

/// Resolve selector names against the registry, preserving registry
/// order and rejecting unknown or duplicate selectors.
pub fn resolve(names: &[String]) -> Result<Vec<ExperimentSpec>, String> {
    let mut all = registry();
    for n in names {
        if !all.iter().any(|s| s.name == n) {
            let known: Vec<&str> = all.iter().map(|s| s.name).collect();
            return Err(format!(
                "unknown experiment '{n}'; known experiments: {}",
                known.join(", ")
            ));
        }
    }
    let mut seen = std::collections::HashSet::new();
    for n in names {
        if !seen.insert(n.as_str()) {
            return Err(format!("experiment '{n}' selected twice"));
        }
    }
    all.retain(|s| names.iter().any(|n| n == s.name));
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        let names: Vec<&str> = registry().iter().map(|s| s.name).collect();
        let set: std::collections::HashSet<&&str> = names.iter().collect();
        assert_eq!(set.len(), names.len(), "duplicate spec names: {names:?}");
    }

    #[test]
    fn every_spec_expands_to_units_in_quick_mode() {
        let opts = CampaignOptions::quick();
        for spec in registry() {
            let units = (spec.units)(&opts);
            assert!(!units.is_empty(), "{} has no units", spec.name);
            for u in &units {
                assert!(!u.label.is_empty(), "{} has an unlabeled unit", spec.name);
            }
        }
    }

    #[test]
    fn resolve_rejects_unknown_and_duplicates() {
        assert!(resolve(&["nope".into()]).is_err());
        assert!(resolve(&["fig06".into(), "fig06".into()]).is_err());
        let specs = resolve(&["fig08".into(), "fig06".into()]).unwrap();
        // Registry (presentation) order, not selection order.
        assert_eq!(specs.iter().map(|s| s.name).collect::<Vec<_>>(), ["fig06", "fig08"]);
    }
}
