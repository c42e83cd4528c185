//! Ablation / extension — NI + switch support combined: MDP-LG path
//! worms whose next-phase injection happens at the leader's NI
//! (`path-lg+ni`) versus plain path-based, the NI-only scheme, and the
//! tree-based upper bound. The paper asserts the combination "will
//! perform better" (§3) without evaluating it; this experiment does.

use crate::opts::CampaignOptions;
use crate::registry::{Emit, RunCtx, Unit};
use irrnet_core::SchemeId;
use irrnet_sim::SimConfig;
use irrnet_topology::RandomTopologyConfig;
use irrnet_workloads::mean_single_latency;
use std::fmt::Write as _;

pub fn units(_opts: &CampaignOptions) -> Vec<Unit> {
    vec![Unit::new("abl_hybrid:path-lg+ni", |ctx: &RunCtx| {
        let seeds: &[u64] = if ctx.opts.quick { &[0, 1] } else { &[0, 1, 2, 3, 4] };
        let nets: Vec<_> = seeds
            .iter()
            .map(|&s| ctx.cache.network(&RandomTopologyConfig::paper_default(s)))
            .collect::<Result<_, _>>()?;
        let schemes = ctx.opts.select_schemes(&[
            SchemeId::NI_FPFS,
            SchemeId::PATH_LG,
            SchemeId::PATH_LG_NI,
            SchemeId::TREE,
        ]);
        let mut table = String::new();
        let mut csv = String::from("r,msg");
        for &s in &schemes {
            let _ = write!(csv, ",{}", s.name());
        }
        csv.push('\n');
        for r in [1.0f64, 4.0] {
            let cfg = SimConfig::paper_default().with_r(r).expect("grid R is valid");
            for msg in [128u32, 1024] {
                let _ = writeln!(table, "-- R = {r}, {msg}-flit messages, 16-way --");
                let mut row = format!("{r},{msg}");
                for &scheme in &schemes {
                    let mut sum = 0.0;
                    for (ti, net) in nets.iter().enumerate() {
                        sum += mean_single_latency(net, &cfg, scheme, 16, msg, 3, ti as u64)?;
                    }
                    let mean = sum / nets.len() as f64;
                    let _ = writeln!(table, "  {:>12}: {mean:>10.0}", scheme.name());
                    let _ = write!(row, ",{mean:.0}");
                }
                let _ = writeln!(csv, "{row}");
                table.push('\n');
            }
        }
        table.push_str(
            "expected: path-lg+ni strictly improves on path-lg (host overheads\n\
             vanish between phases) and narrows the gap to the tree-based scheme.\n",
        );
        Ok(vec![Emit::Table(table), Emit::Csv { name: "abl_hybrid.csv".into(), content: csv }])
    })]
}
