//! Figure 10 — latency vs. applied load with increasing switch count
//! (32 nodes), for 8-way and 16-way multicasts.
//!
//! Panels: switches ∈ {8 (default), 16, 32} × degree ∈ {8, 16}. The
//! paper's finding: with more switches the path-based saturation load
//! falls toward the NI-based scheme's; the tree-based scheme saturates
//! much later throughout.

use crate::opts::CampaignOptions;
use crate::panel::{load_panel_units, PanelSpec};
use crate::registry::Unit;
use irrnet_core::SchemeId;
use irrnet_sim::SimConfig;
use irrnet_topology::RandomTopologyConfig;

pub fn units(opts: &CampaignOptions) -> Vec<Unit> {
    let schemes = opts.select_schemes(&SchemeId::PAPER_THREE);
    let mut out = Vec::new();
    for switches in [8usize, 16, 32] {
        for degree in [8usize, 16] {
            out.extend(load_panel_units(
                &PanelSpec {
                    csv: format!("fig10_s{switches}_d{degree}.csv"),
                    title: format!("{switches} switches, {degree}-way multicasts"),
                    topo: RandomTopologyConfig::with_switches(0, switches),
                    sim: SimConfig::paper_default(),
                    message_flits: 128,
                    schemes: schemes.clone(),
                },
                degree,
            ));
        }
    }
    out
}
