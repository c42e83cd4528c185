//! Figure 11 — latency vs. applied load with increasing message length,
//! for 8-way and 16-way multicasts.
//!
//! Panels: message ∈ {128 (default), 512, 2048} flits × degree ∈ {8, 16}.
//! The paper's finding: tree-based wins at every length; NI-based and
//! path-based become comparable as messages grow, but under load the
//! NI-based scheme's extra traffic (one worm per destination) costs it
//! some of the single-multicast advantage it showed in Fig. 8.

use crate::opts::CampaignOptions;
use crate::panel::{load_panel_units, PanelSpec};
use crate::registry::Unit;
use irrnet_core::SchemeId;
use irrnet_sim::SimConfig;
use irrnet_topology::RandomTopologyConfig;

pub fn units(opts: &CampaignOptions) -> Vec<Unit> {
    let schemes = opts.select_schemes(&SchemeId::PAPER_THREE);
    let mut out = Vec::new();
    for msg in [128u32, 512, 2048] {
        for degree in [8usize, 16] {
            out.extend(load_panel_units(
                &PanelSpec {
                    csv: format!("fig11_m{msg}_d{degree}.csv"),
                    title: format!("{msg}-flit messages, {degree}-way multicasts"),
                    topo: RandomTopologyConfig::paper_default(0),
                    sim: SimConfig::paper_default(),
                    message_flits: msg,
                    schemes: schemes.clone(),
                },
                degree,
            ));
        }
    }
    out
}
