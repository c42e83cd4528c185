//! Extension G — the fan-out-capped tree worm: `tree-cap4`
//! ([`SchemeId::TREE_CAP4`]) splits the rank-sorted destinations into at
//! most four chunks and sends one tree worm to each.
//!
//! Compares single-multicast latency and worm counts of the capped
//! variant against the unbounded tree worm and the NI-based scheme: the
//! cap costs extra worms (serialized at the source NI) but bounds how
//! wide any one bit-string worm fans out.

use crate::opts::CampaignOptions;
use crate::registry::{Emit, RunCtx, Unit};
use irrnet_core::{try_plan_multicast, SchemeId};
use irrnet_sim::SimConfig;
use irrnet_topology::{NodeId, NodeMask, RandomTopologyConfig};
use irrnet_workloads::mean_single_latency;
use std::fmt::Write as _;

pub fn units(opts: &CampaignOptions) -> Vec<Unit> {
    let schemes = opts.select_schemes(&[SchemeId::TREE, SchemeId::TREE_CAP4, SchemeId::NI_FPFS]);
    schemes
        .into_iter()
        .map(|scheme| {
            Unit::new(format!("ext_g:{}", scheme.name()), move |ctx: &RunCtx| {
                let cfg = SimConfig::paper_default();
                let net = ctx.cache.network(&RandomTopologyConfig::paper_default(0))?;
                let degrees: &[usize] =
                    if ctx.opts.quick { &[4, 8, 16] } else { &[4, 8, 16, 31] };
                let trials = ctx.opts.trials.min(3);
                let mut table = format!("-- {} on the default network --\n", scheme.name());
                let _ = writeln!(table, "{:>8} {:>8} {:>12}", "dests", "worms", "latency");
                let mut csv = String::from("dests,worms,mean_latency\n");
                for &degree in degrees {
                    // A fixed broadcast-prefix destination set keeps the
                    // worm count a pure function of the scheme.
                    let dests = NodeMask::from_nodes((1..=degree as u16).map(NodeId));
                    let plan = try_plan_multicast(&net, &cfg, scheme, NodeId(0), dests, 128)?;
                    let lat = mean_single_latency(
                        &net,
                        &cfg,
                        scheme,
                        degree,
                        128,
                        trials,
                        degree as u64,
                    )?;
                    let _ = writeln!(
                        table,
                        "{degree:>8} {:>8} {lat:>12.0}",
                        plan.meta.worms
                    );
                    let _ = writeln!(csv, "{degree},{},{lat:.0}", plan.meta.worms);
                }
                Ok(vec![
                    Emit::Config {
                        kind: "sim".into(),
                        canonical: cfg.canonical_string(),
                        hash: cfg.stable_hash(),
                    },
                    Emit::Table(table),
                    Emit::Csv {
                        name: format!("ext_g_{}.csv", scheme.name().replace('+', "_")),
                        content: csv,
                    },
                ])
            })
        })
        .collect()
}
