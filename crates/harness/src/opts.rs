//! Campaign options — grid sizing, output location, threading.
//!
//! One `CampaignOptions` value parameterizes every experiment in a
//! campaign; it is recorded verbatim in the run manifest so a results
//! directory is self-describing.

use irrnet_core::SchemeId;
use irrnet_workloads::LoadConfig;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Options shared by every experiment of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Reduced effort for CI / smoke runs (fewer seeds, trials, grid
    /// points, shorter measurement windows).
    pub quick: bool,
    /// Topology seeds averaged over.
    pub seeds: Vec<u64>,
    /// Random multicast draws per topology (single-multicast figures).
    pub trials: usize,
    /// CSV + manifest output directory.
    pub out_dir: PathBuf,
    /// Worker threads for the cross-experiment unit pool (`None` = one
    /// per core).
    pub threads: Option<usize>,
    /// Scheme filter (`--schemes a,b,c`): restrict scheme-panel and
    /// per-scheme-row experiments to this subset. `None` = run every
    /// scheme an experiment declares — the byte-identical default.
    /// Experiments with a fixed structural layout (paired ablations like
    /// `abl_mdp`/`abl_ordering`) ignore the filter.
    pub schemes: Option<Vec<SchemeId>>,
    /// The CLI invocation that started the campaign (diagnostics only:
    /// recorded in the journal header and quoted in fingerprint-mismatch
    /// errors; empty for library callers).
    pub argv: Vec<String>,
    /// Cooperative stop flag: when set to `true` (by a SIGINT handler or
    /// a test), the runner finishes in-flight units, journals them, skips
    /// the rest, and marks the manifest `"interrupted"`.
    pub stop: Option<Arc<AtomicBool>>,
}

impl CampaignOptions {
    /// The paper's full-fidelity campaign (10 topologies, 5 trials).
    pub fn paper_default() -> Self {
        CampaignOptions {
            quick: false,
            seeds: (0..10).collect(),
            trials: 5,
            out_dir: "results".into(),
            threads: None,
            schemes: None,
            argv: Vec::new(),
            stop: None,
        }
    }

    /// CI-friendly reduced campaign.
    pub fn quick() -> Self {
        CampaignOptions {
            quick: true,
            seeds: (0..3).collect(),
            trials: 2,
            out_dir: "results".into(),
            threads: None,
            schemes: None,
            argv: Vec::new(),
            stop: None,
        }
    }

    /// Destination counts for the single-multicast figures' x-axis.
    pub fn degrees(&self) -> Vec<usize> {
        if self.quick {
            vec![4, 8, 16]
        } else {
            vec![2, 4, 8, 16, 24, 31]
        }
    }

    /// Effective applied load points for the load figures' x-axis. With
    /// the paper's 500-cycle overheads on 128-flit messages the system is
    /// overhead-bound, so the interesting dynamics (and the schemes'
    /// distinct saturation points) live below ≈0.4 effective load.
    pub fn loads(&self) -> Vec<f64> {
        if self.quick {
            // A subset of the full grid, so `compare` can diff quick runs
            // against full-run goldens point-for-point.
            vec![0.02, 0.1, 0.25]
        } else {
            vec![0.02, 0.05, 0.1, 0.15, 0.25, 0.4]
        }
    }

    /// Load-run measurement windows, shortened in quick mode.
    pub fn load_config(&self, degree: usize, load: f64) -> LoadConfig {
        let mut lc = LoadConfig::paper_default(degree, load);
        if self.quick {
            lc.warmup = 30_000;
            lc.measure = 150_000;
            lc.drain = 100_000;
        } else {
            lc.warmup = 100_000;
            lc.measure = 500_000;
            lc.drain = 200_000;
        }
        lc
    }

    /// Apply the campaign's scheme filter to an experiment's declared
    /// scheme list, preserving declaration order. With no filter the
    /// declared list is returned unchanged, so default campaigns are
    /// byte-identical to pre-filter ones.
    pub fn select_schemes(&self, declared: &[SchemeId]) -> Vec<SchemeId> {
        match &self.schemes {
            None => declared.to_vec(),
            Some(filter) => {
                declared.iter().copied().filter(|s| filter.contains(s)).collect()
            }
        }
    }

    /// How many of the seed batch's topologies the (expensive) load
    /// figures average over.
    pub fn load_seed_count(&self) -> usize {
        if self.quick {
            1
        } else {
            3.min(self.seeds.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grids_are_nonempty() {
        for o in [CampaignOptions::paper_default(), CampaignOptions::quick()] {
            assert!(!o.seeds.is_empty());
            assert!(o.trials >= 1);
            assert!(!o.degrees().is_empty());
            assert!(!o.loads().is_empty());
            assert!(o.load_seed_count() >= 1);
        }
    }

    #[test]
    fn quick_is_strictly_smaller() {
        let f = CampaignOptions::paper_default();
        let q = CampaignOptions::quick();
        assert!(q.seeds.len() < f.seeds.len());
        assert!(q.trials < f.trials);
        assert!(q.degrees().len() < f.degrees().len());
        assert!(q.loads().len() < f.loads().len());
    }

    #[test]
    fn scheme_filter_preserves_declaration_order() {
        use irrnet_core::SchemeId;
        let declared =
            vec![SchemeId::UBINOMIAL, SchemeId::TREE, SchemeId::PATH_LG];
        let mut o = CampaignOptions::quick();
        assert_eq!(o.select_schemes(&declared), declared, "no filter = identity");
        o.schemes = Some(vec![SchemeId::PATH_LG, SchemeId::UBINOMIAL]);
        assert_eq!(
            o.select_schemes(&declared),
            vec![SchemeId::UBINOMIAL, SchemeId::PATH_LG],
            "declaration order wins over filter order"
        );
        o.schemes = Some(vec![SchemeId::NI_FPFS]);
        assert!(o.select_schemes(&declared).is_empty());
    }

    #[test]
    fn quick_grids_are_subsets_of_full() {
        // `compare` diffs quick runs against full-run goldens at shared
        // grid points; that only works while these stay subsets.
        let f = CampaignOptions::paper_default();
        let q = CampaignOptions::quick();
        assert!(q.degrees().iter().all(|d| f.degrees().contains(d)));
        assert!(q.loads().iter().all(|l| f.loads().contains(l)));
    }
}
