//! Figure 6 — effect of `R = O_h / O_ni` on single-multicast latency.
//!
//! Four panels (R = 0.5, 1 ⟨default⟩, 2, 4), each plotting latency vs.
//! destination count for the three enhanced schemes plus the unicast
//! binomial baseline. The paper's finding: the tree-based scheme wins
//! everywhere; as R grows the NI-based scheme overtakes the path-based
//! scheme.

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
    [0.5, 1.0, 2.0, 4.0]
        .into_iter()
        .flat_map(|r| {
            let title = if r == 1.0 {
                format!("R = {r} (default parameters)")
            } else {
                format!("R = {r}")
            };
            single_panel_units(&PanelSpec {
                csv: format!("fig06_r{r}.csv"),
                title,
                topo: RandomTopologyConfig::paper_default(0),
                sim: SimConfig::paper_default().with_r(r).expect("grid R is valid"),
                message_flits: 128,
                schemes: schemes.clone(),
            })
        })
        .collect()
}
