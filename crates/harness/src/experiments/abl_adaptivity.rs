//! Ablation — adaptive vs. deterministic up*/down* routing. The paper's
//! base routing "allows adaptivity"; this quantifies what that buys each
//! scheme, in isolation and under load.

use crate::opts::CampaignOptions;
use crate::registry::{Emit, RunCtx, Unit};
use irrnet_core::SchemeId;
use irrnet_sim::SimConfig;
use irrnet_topology::RandomTopologyConfig;
use irrnet_workloads::{mean_single_latency, run_load, LoadConfig};
use std::fmt::Write as _;

fn seeds(quick: bool) -> &'static [u64] {
    if quick {
        &[0]
    } else {
        &[0, 1, 2]
    }
}

pub fn units(_opts: &CampaignOptions) -> Vec<Unit> {
    let single = Unit::new("abl_adaptivity:single", |ctx: &RunCtx| {
        let nets: Vec<_> = seeds(ctx.opts.quick)
            .iter()
            .map(|&s| ctx.cache.network(&RandomTopologyConfig::paper_default(s)))
            .collect::<Result<_, _>>()?;
        let mut table = String::from("-- single 16-way multicast latency (cycles) --\n");
        let _ = writeln!(
            table,
            "{:>12} {:>12} {:>12} {:>8}",
            "scheme", "adaptive", "determ.", "delta%"
        );
        let mut csv = String::from("scheme,adaptive,deterministic\n");
        let schemes = ctx.opts.select_schemes(&SchemeId::PAPER_THREE);
        for &scheme in &schemes {
            let mut lat = [0.0f64; 2];
            for (i, adaptive) in [true, false].into_iter().enumerate() {
                let mut cfg = SimConfig::paper_default();
                cfg.adaptive = adaptive;
                for (ti, net) in nets.iter().enumerate() {
                    lat[i] += mean_single_latency(net, &cfg, scheme, 16, 128, 3, ti as u64)?;
                }
                lat[i] /= nets.len() as f64;
            }
            let _ = writeln!(
                table,
                "{:>12} {:>12.0} {:>12.0} {:>7.1}%",
                scheme.name(),
                lat[0],
                lat[1],
                100.0 * (lat[1] - lat[0]) / lat[0]
            );
            let _ = writeln!(csv, "{},{:.0},{:.0}", scheme.name(), lat[0], lat[1]);
        }
        Ok(vec![
            Emit::Table(table),
            Emit::Csv { name: "abl_adaptivity_single.csv".into(), content: csv },
        ])
    });

    let load = Unit::new("abl_adaptivity:load", |ctx: &RunCtx| {
        let net = ctx.cache.network(&RandomTopologyConfig::paper_default(0))?;
        let mut table = String::from(
            "-- 8-way multicasts at effective load 0.1 (mean latency; sat = saturated) --\n",
        );
        let _ = writeln!(table, "{:>12} {:>12} {:>12}", "scheme", "adaptive", "determ.");
        let schemes = ctx.opts.select_schemes(&SchemeId::PAPER_THREE);
        for &scheme in &schemes {
            let _ = write!(table, "{:>12}", scheme.name());
            for adaptive in [true, false] {
                let mut cfg = SimConfig::paper_default();
                cfg.adaptive = adaptive;
                let mut lc = LoadConfig::paper_default(8, 0.1);
                if ctx.opts.quick {
                    lc.warmup = 30_000;
                    lc.measure = 150_000;
                    lc.drain = 100_000;
                } else {
                    lc.warmup = 50_000;
                    lc.measure = 300_000;
                    lc.drain = 150_000;
                }
                let r = run_load(&net, &cfg, scheme, &lc)?;
                match (r.saturated, r.mean_latency) {
                    (false, Some(l)) => {
                        let _ = write!(table, " {l:>12.0}");
                    }
                    _ => {
                        let _ = write!(table, " {:>12}", "sat");
                    }
                }
            }
            table.push('\n');
        }
        table.push_str(
            "\nadaptivity should matter most under load (contention avoidance) and\n\
             least for the single tree-based worm (one worm, no competing traffic).\n",
        );
        Ok(vec![Emit::Table(table)])
    });

    vec![single, load]
}
