//! Table 1 — the §3.3 architectural-requirements comparison, made
//! quantitative: header bytes on the wire, per-switch decode state, NI
//! buffering, and worm/phase counts per scheme, as functions of system
//! size and destination count.

use crate::opts::CampaignOptions;
use crate::registry::{Emit, RunCtx, Unit};
use irrnet_core::header::{
    bitstring_bytes, fpfs_ni_buffer_packets, header_costs, tree_scheme_switch_state_bits,
};
use irrnet_core::rng::SmallRng;
use irrnet_core::{try_plan_multicast, SchemeId};
use irrnet_sim::SimConfig;
use irrnet_topology::{NodeId, NodeMask, RandomTopologyConfig};
use irrnet_workloads::random_mcast;
use std::fmt::Write as _;

pub fn units(_opts: &CampaignOptions) -> Vec<Unit> {
    vec![Unit::new("tab01:arch-costs", |ctx: &RunCtx| {
        let cfg = SimConfig::paper_default();
        let mut emits = Vec::new();

        // Part A: encoding sizes vs. system size.
        let mut table = String::from("-- A: header encoding vs. system size --\n");
        let _ = writeln!(
            table,
            "{:>8} {:>18} {:>18} {:>22}",
            "nodes", "unicast hdr (B)", "bit-string hdr (B)", "path hdr per stop (B)"
        );
        for nodes in [16usize, 32, 64, 128] {
            let _ = writeln!(
                table,
                "{:>8} {:>18} {:>18} {:>22}",
                nodes,
                cfg.unicast_header_flits,
                bitstring_bytes(nodes) + 1,
                2
            );
        }
        emits.push(Emit::Table(table));

        // Part B: per-switch decode state (tree-based reachability strings).
        let mut table =
            String::from("-- B: switch decode state (bits, total over all switches) --\n");
        let _ = writeln!(table, "{:>10} {:>14} {:>14}", "switches", "tree-based", "path-based");
        let mut csv = String::from("switches,tree_state_bits,path_state_bits\n");
        for switches in [8usize, 16, 32] {
            let net = ctx.cache.network(&RandomTopologyConfig::with_switches(0, switches))?;
            let bits = tree_scheme_switch_state_bits(&net);
            let _ = writeln!(table, "{switches:>10} {bits:>14} {:>14}", 0);
            let _ = writeln!(csv, "{switches},{bits},0");
        }
        emits.push(Emit::Table(table));
        emits.push(Emit::Csv { name: "tab01_switch_state.csv".into(), content: csv });

        // Part C: worms, phases, injected header bytes, NI buffering per
        // destination count (averaged over random draws on the default net).
        let mut table =
            String::from("-- C: per-multicast costs on the default 32-node / 8-switch system --\n");
        let _ = writeln!(
            table,
            "{:>10} {:>10} {:>8} {:>8} {:>14} {:>12}",
            "scheme", "dests", "worms", "phases", "hdr bytes", "NI buf pkts"
        );
        let net = ctx.cache.network(&RandomTopologyConfig::paper_default(0))?;
        let mut csv = String::from("scheme,dests,worms,phases,header_bytes,ni_buffer_pkts\n");
        for scheme in SchemeId::BUILTIN {
            for degree in [4usize, 8, 16, 31] {
                let mut rng = SmallRng::seed_from_u64(degree as u64);
                let (source, dests) = if degree == 31 {
                    let mut m = NodeMask::all(32);
                    m.remove(NodeId(0));
                    (NodeId(0), m)
                } else {
                    random_mcast(&mut rng, 32, degree)
                };
                let plan = try_plan_multicast(&net, &cfg, scheme, source, dests, 128)?;
                let hc = header_costs(&net, &plan);
                let bufs = fpfs_ni_buffer_packets(&plan);
                let _ = writeln!(
                    table,
                    "{:>10} {:>10} {:>8} {:>8} {:>14} {:>12}",
                    scheme.name(),
                    degree,
                    plan.meta.worms,
                    plan.meta.phases,
                    hc.total_header_bytes,
                    bufs
                );
                let _ = writeln!(
                    csv,
                    "{},{degree},{},{},{},{bufs}",
                    scheme.name(),
                    plan.meta.worms,
                    plan.meta.phases,
                    hc.total_header_bytes
                );
            }
        }
        emits.push(Emit::Table(table));
        emits.push(Emit::Csv { name: "tab01_mcast_costs.csv".into(), content: csv });
        emits.push(Emit::Config {
            kind: "sim".into(),
            canonical: cfg.canonical_string(),
            hash: cfg.stable_hash(),
        });
        Ok(emits)
    })]
}
