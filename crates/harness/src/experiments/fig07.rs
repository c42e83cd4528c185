//! Figure 7 — effect of the number of switches on single-multicast
//! latency (system size fixed at 32 nodes, 8-port switches).
//!
//! Panels: 8 (default), 16, 32 switches. The paper's finding: with more
//! switches the average destinations-per-switch drops, so the path-based
//! scheme needs more worms and more phases and degrades; the NI-based and
//! tree-based schemes are largely unaffected.

use crate::opts::CampaignOptions;
use crate::panel::{single_panel_units, PanelSpec};
use crate::registry::Unit;
use irrnet_core::SchemeId;
use irrnet_sim::SimConfig;
use irrnet_topology::RandomTopologyConfig;

pub fn units(opts: &CampaignOptions) -> Vec<Unit> {
    let schemes = opts.select_schemes(&[
        SchemeId::UBINOMIAL,
        SchemeId::NI_FPFS,
        SchemeId::TREE,
        SchemeId::PATH_LG,
    ]);
    [8usize, 16, 32]
        .into_iter()
        .flat_map(|switches| {
            let title = if switches == 8 {
                format!("{switches} switches (default parameters)")
            } else {
                format!("{switches} switches")
            };
            single_panel_units(&PanelSpec {
                csv: format!("fig07_s{switches}.csv"),
                title,
                topo: RandomTopologyConfig::with_switches(0, switches),
                sim: SimConfig::paper_default(),
                message_flits: 128,
                schemes: schemes.clone(),
            })
        })
        .collect()
}
