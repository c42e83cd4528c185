//! Extension E — collective operations built on multicast (the paper's
//! §1 framing: "multicast ... is used for implementing several of the
//! other collective operations"). Compares barrier and allreduce latency
//! when the release broadcast uses each multicast scheme, across system
//! sizes and combining-tree fan-outs.

use crate::opts::CampaignOptions;
use crate::registry::{Emit, RunCtx, Unit};
use irrnet_collectives::{run_collective, CollectiveOp};
use irrnet_core::SchemeId;
use irrnet_sim::SimConfig;
use irrnet_topology::{ExtraLinks, NodeId, NodeMask, RandomTopologyConfig};
use std::fmt::Write as _;

pub fn units(_opts: &CampaignOptions) -> Vec<Unit> {
    let barrier = Unit::new("ext_e:barrier", |ctx: &RunCtx| {
        let cfg = SimConfig::paper_default();
        let schemes = ctx.opts.select_schemes(&[
            SchemeId::UBINOMIAL,
            SchemeId::NI_FPFS,
            SchemeId::TREE,
            SchemeId::PATH_LG,
        ]);
        let mut table = String::from(
            "-- barrier latency (cycles) vs system size (combining fan-out 4) --\n",
        );
        let _ = write!(table, "{:>8}", "nodes");
        // CSV header follows the (possibly filtered) scheme list, so the
        // default declaration reproduces the golden header byte for byte.
        let mut csv = String::from("nodes");
        for &s in &schemes {
            let _ = write!(table, " {:>12}", s.name());
            let _ = write!(csv, ",{}", s.name());
        }
        table.push('\n');
        csv.push('\n');
        let sizes: &[(usize, usize)] = if ctx.opts.quick {
            &[(16, 4), (32, 8)]
        } else {
            &[(16, 4), (32, 8), (48, 12), (64, 16)]
        };
        for &(nodes, switches) in sizes {
            let net = ctx.cache.network(&RandomTopologyConfig {
                num_switches: switches,
                ports_per_switch: 8,
                num_hosts: nodes,
                extra_links: ExtraLinks::Fraction(0.75),
                seed: 0,
            })?;
            let _ = write!(table, "{nodes:>8}");
            let mut row = format!("{nodes}");
            for &scheme in &schemes {
                let r = run_collective(
                    &net,
                    &cfg,
                    CollectiveOp::Barrier,
                    NodeId(0),
                    NodeMask::all(nodes),
                    scheme,
                    4,
                    8,
                )?;
                let _ = write!(table, " {:>12}", r.latency);
                let _ = write!(row, ",{}", r.latency);
            }
            table.push('\n');
            let _ = writeln!(csv, "{row}");
        }
        Ok(vec![Emit::Table(table), Emit::Csv { name: "ext_e_barrier.csv".into(), content: csv }])
    });

    let allreduce = Unit::new("ext_e:allreduce-fanout", |ctx: &RunCtx| {
        let cfg = SimConfig::paper_default();
        let net = ctx.cache.network(&RandomTopologyConfig::paper_default(0))?;
        let mut table = String::from(
            "-- 32-node allreduce (128 flits) vs combining fan-out, tree release --\n",
        );
        let _ = writeln!(table, "{:>8} {:>12}", "fanout", "latency");
        let mut csv = String::from("fanout,latency\n");
        for fanout in [1usize, 2, 4, 8, 31] {
            let r = run_collective(
                &net,
                &cfg,
                CollectiveOp::AllReduce,
                NodeId(0),
                NodeMask::all(32),
                SchemeId::TREE,
                fanout,
                128,
            )?;
            let _ = writeln!(table, "{fanout:>8} {:>12}", r.latency);
            let _ = writeln!(csv, "{fanout},{}", r.latency);
        }
        table.push_str(
            "\nthe reduce phase is software either way; the release broadcast is where\n\
             NI or switch multicast support shows up in collective latency.\n",
        );
        Ok(vec![
            Emit::Table(table),
            Emit::Csv { name: "ext_e_allreduce_fanout.csv".into(), content: csv },
        ])
    });

    vec![barrier, allreduce]
}
