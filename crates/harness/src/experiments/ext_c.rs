//! Extension C — switch *size* (port count), from the paper's
//! conclusions: "the path-based scheme performs better than the NI-based
//! scheme for ... larger switch sizes, fewer switches for a given system
//! size". Keeps 32 nodes and sweeps the switch form factor: many small
//! switches → few big ones.

use crate::opts::CampaignOptions;
use crate::panel::{single_panel_units, PanelSpec};
use crate::registry::Unit;
use irrnet_core::SchemeId;
use irrnet_sim::SimConfig;
use irrnet_topology::{ExtraLinks, RandomTopologyConfig};

pub fn units(opts: &CampaignOptions) -> Vec<Unit> {
    let schemes = opts.select_schemes(&[
        SchemeId::NI_FPFS,
        SchemeId::TREE,
        SchemeId::PATH_LG,
        SchemeId::PATH_LG_NI,
    ]);
    // (switches, ports): same node count, growing switch size.
    [(16usize, 6u8), (8, 8), (4, 12), (2, 20)]
        .into_iter()
        .flat_map(|(switches, ports)| {
            single_panel_units(&PanelSpec {
                csv: format!("ext_c_s{switches}_p{ports}.csv"),
                title: format!("{switches} × {ports}-port switches"),
                topo: RandomTopologyConfig {
                    num_switches: switches,
                    ports_per_switch: ports,
                    num_hosts: 32,
                    extra_links: ExtraLinks::Fraction(0.75),
                    seed: 0,
                },
                sim: SimConfig::paper_default(),
                message_flits: 128,
                schemes: schemes.clone(),
            })
        })
        .collect()
}
