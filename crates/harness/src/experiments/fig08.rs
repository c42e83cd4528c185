//! Figure 8 — effect of message length on single-multicast latency.
//!
//! Panels: 32, 128 (default), 512, 2048 flits (packet size stays 128
//! flits). The paper's finding: beyond ≈2 packets the NI-based scheme
//! overtakes the path-based scheme, because FPFS forwards
//! packet-by-packet while every path-based phase store-and-forwards the
//! whole message at the hosts.

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
    [32u32, 128, 512, 2048]
        .into_iter()
        .flat_map(|msg| {
            let title = if msg == 128 {
                format!("message length = {msg} flits (default parameters)")
            } else {
                format!("message length = {msg} flits")
            };
            single_panel_units(&PanelSpec {
                csv: format!("fig08_m{msg}.csv"),
                title,
                topo: RandomTopologyConfig::paper_default(0),
                sim: SimConfig::paper_default(),
                message_flits: msg,
                schemes: schemes.clone(),
            })
        })
        .collect()
}
