//! Extension A — the sweeps the paper ran but omitted for space
//! (§4.2.3: "we also performed a number of experiments to study the
//! effect of startup overhead at the host, system size, and packet
//! length"): single-multicast latency vs. each of those three knobs.

use crate::opts::CampaignOptions;
use crate::panel::{single_panel_units, PanelSpec};
use crate::registry::Unit;
use irrnet_core::SchemeId;
use irrnet_sim::SimConfig;
use irrnet_topology::{ExtraLinks, RandomTopologyConfig};

pub fn units(opts: &CampaignOptions) -> Vec<Unit> {
    let schemes = opts.select_schemes(&SchemeId::PAPER_THREE);
    let mut out = Vec::new();

    // A1: host startup overhead O_h (keeping R = 1).
    for oh in [125u64, 250, 500, 1000, 2000] {
        let mut sim = SimConfig::paper_default();
        sim.o_send_host = oh;
        sim.o_recv_host = oh;
        let sim = sim.with_r(1.0).expect("R = 1 is valid");
        out.extend(single_panel_units(&PanelSpec {
            csv: format!("ext_a1_oh{oh}.csv"),
            title: format!("O_h = {oh} cycles"),
            topo: RandomTopologyConfig::paper_default(0),
            sim,
            message_flits: 128,
            schemes: schemes.clone(),
        }));
    }

    // A2: system size (nodes), scaling switches to keep ~4 nodes/switch.
    for (nodes, switches) in [(16usize, 4usize), (32, 8), (64, 16)] {
        out.extend(single_panel_units(&PanelSpec {
            csv: format!("ext_a2_n{nodes}.csv"),
            title: format!("{nodes} nodes / {switches} switches"),
            topo: RandomTopologyConfig {
                num_switches: switches,
                ports_per_switch: 8,
                num_hosts: nodes,
                extra_links: ExtraLinks::Fraction(0.75),
                seed: 0,
            },
            sim: SimConfig::paper_default(),
            message_flits: 128,
            schemes: schemes.clone(),
        }));
    }

    // A3: packet length at fixed 512-flit messages.
    for pkt in [32u32, 64, 128, 256] {
        let mut sim = SimConfig::paper_default();
        sim.packet_payload_flits = pkt;
        sim.input_buffer_flits = pkt.max(128) + 40;
        out.extend(single_panel_units(&PanelSpec {
            csv: format!("ext_a3_p{pkt}.csv"),
            title: format!("packet = {pkt} flits"),
            topo: RandomTopologyConfig::paper_default(0),
            sim,
            message_flits: 512,
            schemes: schemes.clone(),
        }));
    }

    out
}
