//! Extension B — the paper's §4.3 aside: "the maximum unicast throughput
//! (assuming no software overheads and no contention for the I/O bus) was
//! observed to be less than 0.8 using up*/down* routing."
//!
//! Uniform-random unicast traffic with all overheads and the I/O bus rate
//! effectively removed; sweeps the offered load and reports delivered
//! throughput to locate the saturation point of the routing algorithm
//! itself.

use crate::opts::CampaignOptions;
use crate::registry::{Emit, RunCtx, Unit};
use irrnet_core::SchemeId;
use irrnet_sim::SimConfig;
use irrnet_topology::RandomTopologyConfig;
use irrnet_workloads::{run_load, LoadConfig};
use std::fmt::Write as _;

pub fn units(_opts: &CampaignOptions) -> Vec<Unit> {
    vec![Unit::new("ext_b:unicast-saturation", |ctx: &RunCtx| {
        // Overheads ≈ 0, I/O bus far faster than the link: the network
        // alone is the bottleneck.
        let mut sim = SimConfig::paper_default();
        sim.o_send_host = 1;
        sim.o_recv_host = 1;
        sim.o_send_ni = 1;
        sim.o_recv_ni = 1;
        sim.io_bus_num = 64;
        sim.io_bus_den = 1;

        let n = if ctx.opts.quick { 1 } else { 3.min(ctx.opts.seeds.len()) };
        let nets = ctx
            .cache
            .networks(&RandomTopologyConfig::paper_default(0), &ctx.opts.seeds[..n])?;

        let loads: &[f64] = if ctx.opts.quick {
            &[0.1, 0.3, 0.6]
        } else {
            &[0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.6, 0.8]
        };
        let mut table = String::new();
        let _ = writeln!(
            table,
            "{:>10} {:>14} {:>14} {:>10}",
            "offered", "delivered", "latency", "saturated"
        );
        let mut csv = String::from("offered,delivered,latency,saturated\n");
        for &load in loads {
            let mut lc = LoadConfig::paper_default(1, load);
            if ctx.opts.quick {
                lc.warmup = 20_000;
                lc.measure = 100_000;
                lc.drain = 50_000;
            } else {
                lc.warmup = 50_000;
                lc.measure = 300_000;
                lc.drain = 100_000;
            }
            let mut delivered = 0.0;
            let mut lat_sum = 0.0;
            let mut lat_n = 0usize;
            let mut saturated = false;
            for net in nets.iter() {
                let r = run_load(net, &sim, SchemeId::UBINOMIAL, &lc)?;
                // Delivered throughput = completed/launched × offered.
                delivered += load * (r.completed as f64 / r.launched.max(1) as f64);
                if let Some(l) = r.mean_latency {
                    lat_sum += l;
                    lat_n += 1;
                }
                saturated |= r.saturated;
            }
            delivered /= nets.len() as f64;
            let lat = if lat_n > 0 { lat_sum / lat_n as f64 } else { f64::NAN };
            let _ = writeln!(
                table,
                "{load:>10.2} {delivered:>14.3} {lat:>14.1} {saturated:>10}"
            );
            let _ = writeln!(csv, "{load},{delivered:.4},{lat:.1},{saturated}");
        }
        table.push_str("\npaper: saturation below 0.8 offered load.\n");
        Ok(vec![
            Emit::Config {
                kind: "sim".into(),
                canonical: sim.canonical_string(),
                hash: sim.stable_hash(),
            },
            Emit::Table(table),
            Emit::Csv { name: "ext_b_unicast_saturation.csv".into(), content: csv },
        ])
    })]
}
