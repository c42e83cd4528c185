//! Extension F — multicast on a degrading network: fault rate vs.
//! delivery ratio and latency for every scheme.
//!
//! A seeded, connectivity-preserving fault plan kills links and switches
//! while a fixed multicast workload is in flight; the engine truncates
//! worms crossing dead components, recomputes up*/down* over the
//! survivors, and source NIs retransmit lost copies. Deterministic at
//! every kill count (classified `Exact` by the compare gate): zero kills
//! must match the healthy baseline byte for byte, and the pinned fault
//! seed makes degraded runs byte-identical across campaigns.

use crate::opts::CampaignOptions;
use crate::registry::{Emit, RunCtx, Unit};
use irrnet_core::SchemeId;
use irrnet_sim::SimConfig;
use irrnet_topology::RandomTopologyConfig;
use irrnet_workloads::{run_periodic, PeriodicConfig};
use std::fmt::Write as _;

pub fn units(_opts: &CampaignOptions) -> Vec<Unit> {
    vec![Unit::new("ext_f:faults", |ctx: &RunCtx| {
        // The watchdog may sacrifice up to 8 stuck worms per run.
        let sim = SimConfig { watchdog_recovery_limit: 8, ..SimConfig::paper_default() };
        let net = ctx.cache.network(&RandomTopologyConfig::paper_default(0))?;
        // Same grid in quick and full mode: each run is one deterministic
        // degradation story, not a seed-batch average.
        let kills: &[usize] = &[0, 1, 2, 4, 8];
        let mut table = String::new();
        let _ = writeln!(
            table,
            "{:>6} {:>12} {:>9} {:>10} {:>7} {:>8} {:>7} {:>6} {:>5}",
            "kills", "scheme", "delivery", "latency", "done", "dropped", "killed", "retx", "wdr"
        );
        let mut csv = String::from(
            "kills,scheme,delivery_ratio,mean_latency,completed,launched,\
             flits_dropped,worms_killed,retransmissions,duplicate_deliveries,\
             watchdog_recoveries\n",
        );
        for &k in kills {
            let pc = PeriodicConfig::faulted(k);
            for scheme in SchemeId::BUILTIN {
                let r = run_periodic(&net, &sim, scheme, &pc)?;
                let lat = r
                    .mean_latency
                    .map(|l| format!("{l:.0}"))
                    .unwrap_or_default();
                let _ = writeln!(
                    table,
                    "{k:>6} {:>12} {:>9.3} {:>10} {:>4}/{:<2} {:>8} {:>7} {:>6} {:>5}",
                    scheme.name(),
                    r.delivery_ratio,
                    if lat.is_empty() { "-" } else { &lat },
                    r.completed,
                    r.launched,
                    r.net.flits_dropped,
                    r.net.worms_killed,
                    r.net.retransmissions,
                    r.net.watchdog_recoveries,
                );
                let _ = writeln!(
                    csv,
                    "{k},{},{:.6},{lat},{},{},{},{},{},{},{}",
                    scheme.name(),
                    r.delivery_ratio,
                    r.completed,
                    r.launched,
                    r.net.flits_dropped,
                    r.net.worms_killed,
                    r.net.retransmissions,
                    r.net.duplicate_deliveries,
                    r.net.watchdog_recoveries,
                );
            }
            table.push('\n');
        }
        table.push_str(
            "switch-based schemes lose whole subtrees per dead component and lean\n\
             hardest on NI retransmission; per-destination unicast schemes degrade\n\
             most gracefully as faults accumulate.\n",
        );
        Ok(vec![
            Emit::Config {
                kind: "sim".into(),
                canonical: sim.canonical_string(),
                hash: sim.stable_hash(),
            },
            Emit::Table(table),
            Emit::Csv { name: "ext_f_faults.csv".into(), content: csv },
        ])
    })]
}
