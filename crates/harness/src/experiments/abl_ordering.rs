//! Ablation — destination placement in the k-binomial tree: the
//! contiguous chain-concatenation layout (reconstructing Kesavan–Panda's
//! contention-minimizing construction) vs. raw round-order placement.
//! Reports static link crossings and measured FPFS latency.

use crate::opts::CampaignOptions;
use crate::registry::{Emit, RunCtx, Unit};
use irrnet_core::kbinomial::McastTree;
use irrnet_core::order::sort_by_rank;
use irrnet_core::{
    build_k_binomial, build_k_binomial_scattered, tree_link_loads, McastPlan, NodeTable, PlanMeta,
    SchemeId, SchemeProtocol,
};
use irrnet_sim::{McastId, SendSpec, SimConfig, Simulator};
use irrnet_topology::{Network, NodeId, NodeMask, RandomTopologyConfig};
use std::fmt::Write as _;
use std::sync::Arc;

fn run_fpfs_tree(
    net: &Network,
    cfg: &SimConfig,
    tree: &McastTree,
    msg: u32,
) -> Result<u64, crate::error::UnitError> {
    let dests: NodeMask = tree
        .bfs_order
        .iter()
        .copied()
        .filter(|&n| n != tree.source)
        .collect();
    let mut fpfs_children = tree.children.clone();
    let root_kids = fpfs_children.remove(tree.source);
    let plan = McastPlan {
        scheme: SchemeId::NI_FPFS,
        source: tree.source,
        dests: dests.clone(),
        message_flits: msg,
        initial: vec![SendSpec::FpfsChildren { children: root_kids }],
        on_delivered: NodeTable::new(),
        fpfs_children,
        ni_path_forwards: NodeTable::new(),
        meta: PlanMeta { worms: dests.len(), phases: tree.rounds, k: tree.k },
    };
    let mut proto = SchemeProtocol::new();
    proto.add(McastId(0), Arc::new(plan));
    let mut sim = Simulator::new(net, cfg.clone(), proto)?;
    sim.schedule_multicast(0, McastId(0), dests.clone(), msg);
    sim.run_to_completion(400_000_000)?;
    sim.stats()
        .latency_of(McastId(0))
        .ok_or_else(|| crate::error::UnitError::Msg("fpfs tree multicast never completed".into()))
}

pub fn units(_opts: &CampaignOptions) -> Vec<Unit> {
    vec![Unit::new("abl_ordering:placement", |ctx: &RunCtx| {
        let cfg = SimConfig::paper_default();
        let seeds: &[u64] = if ctx.opts.quick { &[0, 1] } else { &[0, 1, 2, 3, 4] };
        let mut table = String::new();
        let _ = writeln!(
            table,
            "{:>8} {:>4} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10}",
            "msg", "k", "contig lat", "scatter lat", "contig xing", "scatter xing",
            "contig max", "scatter max"
        );
        let mut csv = String::from(
            "msg,k,contig_latency,scatter_latency,contig_crossings,scatter_crossings\n",
        );
        for msg in [128u32, 1024, 4096] {
            for k in [1usize, 2, 4] {
                let mut lat = [0u64; 2];
                let mut xing = [0usize; 2];
                let mut maxl = [0usize; 2];
                for &seed in seeds {
                    let net = ctx.cache.network(&RandomTopologyConfig::paper_default(seed))?;
                    let mut dests: Vec<NodeId> = (1..=16).map(NodeId).collect();
                    sort_by_rank(&mut dests, net.node_ranks());
                    let trees = [
                        build_k_binomial(NodeId(0), &dests, k),
                        build_k_binomial_scattered(NodeId(0), &dests, k),
                    ];
                    for (i, t) in trees.iter().enumerate() {
                        let s = tree_link_loads(&net, t);
                        xing[i] += s.crossings;
                        maxl[i] = maxl[i].max(s.max_load);
                        lat[i] += run_fpfs_tree(&net, &cfg, t, msg)?;
                    }
                }
                let n = seeds.len() as u64;
                let _ = writeln!(
                    table,
                    "{msg:>8} {k:>4} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10}",
                    lat[0] / n,
                    lat[1] / n,
                    xing[0],
                    xing[1],
                    maxl[0],
                    maxl[1]
                );
                let _ = writeln!(
                    csv,
                    "{msg},{k},{},{},{},{}",
                    lat[0] / n,
                    lat[1] / n,
                    xing[0],
                    xing[1]
                );
            }
        }
        table.push_str(
            "\ncontiguous placement should show fewer crossings and lower latency,\n\
             with the gap widening for longer messages (steady-state contention).\n",
        );
        Ok(vec![Emit::Table(table), Emit::Csv { name: "abl_ordering.csv".into(), content: csv }])
    })]
}
