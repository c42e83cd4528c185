//! Cache-aware unit builders for the two recurring panel shapes: latency
//! vs. destination count (single multicast, Figs. 6–8 and the extension
//! sweeps) and latency vs. applied load (Figs. 9–11).
//!
//! Each panel expands to one [`Unit`] per scheme, so a campaign's task
//! pool is balanced at scheme granularity and a panel's schemes can run
//! on different workers. Every unit re-derives its networks through the
//! shared [`TopoCache`](crate::cache::TopoCache), which is what lets 17
//! experiments share ten analyzed topologies.

use crate::registry::{Emit, RunCtx, Unit};
use irrnet_core::{rng, SchemeId};
use irrnet_sim::SimConfig;
use irrnet_topology::{Network, RandomTopologyConfig};
use irrnet_workloads::{run_load, single_sweep_serial, SinglePoint};
use std::sync::Arc;

/// The sweep-stream base seed the original figure binaries used; kept so
/// regenerated numbers stay comparable across harness versions.
pub const SWEEP_SEED: u64 = 0xBEEF;

/// One figure panel: a CSV artifact plus the table title above it.
#[derive(Clone)]
pub struct PanelSpec {
    /// CSV artifact name, e.g. `fig06_r0.5.csv`.
    pub csv: String,
    /// Table title, e.g. `R = 0.5`.
    pub title: String,
    /// Topology family (seed field is replaced per batch member).
    pub topo: RandomTopologyConfig,
    /// Simulator configuration for the panel.
    pub sim: SimConfig,
    /// Message length in flits.
    pub message_flits: u32,
    /// Schemes, in column order (already filtered through
    /// [`CampaignOptions::select_schemes`](crate::opts::CampaignOptions::select_schemes)
    /// by the declaring experiment).
    pub schemes: Vec<SchemeId>,
}

fn sim_fingerprint(sim: &SimConfig) -> Emit {
    Emit::Config {
        kind: "sim".into(),
        canonical: sim.canonical_string(),
        hash: sim.stable_hash(),
    }
}

fn topo_fingerprint(topo: &RandomTopologyConfig) -> Emit {
    Emit::Config {
        kind: "topo-family".into(),
        canonical: topo.canonical_string(),
        hash: topo.stable_hash(),
    }
}

/// Units for a single-multicast panel (latency vs. destination count).
pub fn single_panel_units(panel: &PanelSpec) -> Vec<Unit> {
    panel
        .schemes
        .iter()
        .enumerate()
        .map(|(order, &scheme)| {
            let p = panel.clone();
            Unit::new(format!("{}:{}", p.csv.trim_end_matches(".csv"), scheme.name()), move |ctx: &RunCtx| {
                let nets = ctx.cache.networks(&p.topo, &ctx.opts.seeds)?;
                let refs: Vec<&Network> = nets.iter().map(Arc::as_ref).collect();
                // A destination count must leave room for the source
                // (small-system panels of the extension sweeps).
                let max_degree = refs[0].num_nodes() - 1;
                let degrees: Vec<usize> =
                    ctx.opts.degrees().into_iter().filter(|&d| d <= max_degree).collect();
                let points: Vec<SinglePoint> = degrees
                    .iter()
                    .map(|&degree| SinglePoint {
                        scheme,
                        degree,
                        message_flits: p.message_flits,
                        sim: p.sim.clone(),
                    })
                    .collect();
                let rows = single_sweep_serial(&refs, &points, ctx.opts.trials, SWEEP_SEED)?;
                Ok(vec![
                    sim_fingerprint(&p.sim),
                    topo_fingerprint(&p.topo),
                    Emit::Column {
                        csv: p.csv.clone(),
                        title: p.title.clone(),
                        x_label: "destinations".into(),
                        y_label: "latency (cycles)".into(),
                        xs: degrees.iter().map(|&d| d as f64).collect(),
                        scheme,
                        order,
                        ys: rows.into_iter().map(|r| Some(r.mean_latency)).collect(),
                    },
                ])
            })
        })
        .collect()
}

/// Units for a load panel (latency vs. effective applied load at a fixed
/// multicast degree). Saturated points become `None` ("sat" in tables,
/// empty CSV cells).
pub fn load_panel_units(panel: &PanelSpec, degree: usize) -> Vec<Unit> {
    panel
        .schemes
        .iter()
        .enumerate()
        .map(|(order, &scheme)| {
            let p = panel.clone();
            Unit::new(format!("{}:{}", p.csv.trim_end_matches(".csv"), scheme.name()), move |ctx: &RunCtx| {
                let n = ctx.opts.load_seed_count();
                let nets = ctx.cache.networks(&p.topo, &ctx.opts.seeds[..n])?;
                let loads = ctx.opts.loads();
                let mut ys: Vec<Option<f64>> = Vec::with_capacity(loads.len());
                for &load in &loads {
                    let mut lc = ctx.opts.load_config(degree, load);
                    lc.message_flits = p.message_flits;
                    // Average over the topology batch; any saturated
                    // topology marks the point saturated (the paper's
                    // curves shoot up there).
                    let mut sum = 0.0;
                    let mut count = 0usize;
                    let mut saturated = false;
                    for (i, net) in nets.iter().enumerate() {
                        let mut lc = lc.clone();
                        lc.seed = rng::hash2(lc.seed, i as u64);
                        let r = run_load(net, &p.sim, scheme, &lc)?;
                        saturated |= r.saturated;
                        if let Some(l) = r.mean_latency {
                            sum += l;
                            count += 1;
                        }
                    }
                    ys.push(if saturated || count == 0 {
                        None
                    } else {
                        Some(sum / count as f64)
                    });
                }
                Ok(vec![
                    sim_fingerprint(&p.sim),
                    topo_fingerprint(&p.topo),
                    Emit::Column {
                        csv: p.csv.clone(),
                        title: p.title.clone(),
                        x_label: "effective applied load".into(),
                        y_label: "latency (cycles)".into(),
                        xs: loads,
                        scheme,
                        order,
                        ys,
                    },
                ])
            })
        })
        .collect()
}
