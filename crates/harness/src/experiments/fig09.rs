//! Figure 9 — latency vs. applied load under varying `R`, for 8-way and
//! 16-way multicasts.
//!
//! Panels: R ∈ {0.5, 1 (default), 4} × degree ∈ {8, 16}. The paper's
//! finding: for R ≤ 0.5 the NI-based scheme is worst and tree-based best;
//! for R > ≈0.5–1 the NI-based scheme becomes comparable to the
//! path-based one.

use crate::opts::CampaignOptions;
use crate::panel::{load_panel_units, PanelSpec};
use crate::registry::Unit;
use irrnet_core::SchemeId;
use irrnet_sim::SimConfig;
use irrnet_topology::RandomTopologyConfig;

pub fn units(opts: &CampaignOptions) -> Vec<Unit> {
    let schemes = opts.select_schemes(&SchemeId::PAPER_THREE);
    let mut out = Vec::new();
    for r in [0.5, 1.0, 4.0] {
        for degree in [8usize, 16] {
            out.extend(load_panel_units(
                &PanelSpec {
                    csv: format!("fig09_r{r}_d{degree}.csv"),
                    title: format!("R = {r}, {degree}-way multicasts"),
                    topo: RandomTopologyConfig::paper_default(0),
                    sim: SimConfig::paper_default().with_r(r).expect("grid R is valid"),
                    message_flits: 128,
                    schemes: schemes.clone(),
                },
                degree,
            ));
        }
    }
    out
}
