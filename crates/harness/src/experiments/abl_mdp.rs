//! Ablation — MDP covering heuristics: greedy (MDP-G) vs. less-greedy
//! (MDP-LG), across switch counts. Reports worm count, phase count, and
//! measured latency; the original study found MDP-LG best overall.

use crate::opts::CampaignOptions;
use crate::registry::{Emit, RunCtx, Unit};
use irrnet_core::rng::SmallRng;
use irrnet_core::{plan_paths, PathVariant, SchemeId};
use irrnet_sim::SimConfig;
use irrnet_topology::RandomTopologyConfig;
use irrnet_workloads::{mean_single_latency, random_mcast};
use std::fmt::Write as _;

pub fn units(_opts: &CampaignOptions) -> Vec<Unit> {
    vec![Unit::new("abl_mdp:variants", |ctx: &RunCtx| {
        let cfg = SimConfig::paper_default();
        let seeds: &[u64] = if ctx.opts.quick { &[0, 1] } else { &[0, 1, 2, 3, 4, 5] };
        let mut table = String::new();
        let _ = writeln!(
            table,
            "{:>10} {:>10} {:>10} {:>10} {:>10} {:>12} {:>12}",
            "switches", "G worms", "LG worms", "G phases", "LG phases", "G latency", "LG latency"
        );
        let mut csv =
            String::from("switches,g_worms,lg_worms,g_phases,lg_phases,g_latency,lg_latency\n");
        for switches in [8usize, 16, 32] {
            let mut worms = [0usize; 2];
            let mut phases = [0usize; 2];
            let mut lat = [0.0f64; 2];
            for &seed in seeds {
                let net =
                    ctx.cache.network(&RandomTopologyConfig::with_switches(seed, switches))?;
                let mut rng = SmallRng::seed_from_u64(seed);
                let (src, dests) = random_mcast(&mut rng, 32, 16);
                for (i, variant) in
                    [PathVariant::Greedy, PathVariant::LessGreedy].into_iter().enumerate()
                {
                    let p = plan_paths(&net, src, dests.clone(), variant);
                    worms[i] += p.worms.len();
                    phases[i] += p.phases;
                }
                for (i, scheme) in
                    [SchemeId::PATH_G, SchemeId::PATH_LG].into_iter().enumerate()
                {
                    lat[i] += mean_single_latency(&net, &cfg, scheme, 16, 128, 2, seed)?;
                }
            }
            let n = seeds.len();
            let _ = writeln!(
                table,
                "{switches:>10} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>12.0} {:>12.0}",
                worms[0] as f64 / n as f64,
                worms[1] as f64 / n as f64,
                phases[0] as f64 / n as f64,
                phases[1] as f64 / n as f64,
                lat[0] / n as f64,
                lat[1] / n as f64,
            );
            let _ = writeln!(
                csv,
                "{switches},{},{},{},{},{:.0},{:.0}",
                worms[0] / n,
                worms[1] / n,
                phases[0] / n,
                phases[1] / n,
                lat[0] / n as f64,
                lat[1] / n as f64
            );
        }
        Ok(vec![Emit::Table(table), Emit::Csv { name: "abl_mdp_variant.csv".into(), content: csv }])
    })]
}
