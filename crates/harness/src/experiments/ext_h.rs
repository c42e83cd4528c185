//! Extension H — giant-topology scaling curve: how engine throughput
//! and resident reachability state grow with switch count, from the
//! paper's scale (tens of switches) up to the 1024-switch / 10k-host
//! fabrics its modern descendants run at.
//!
//! One fixed workload (isolated 16-way tree-worm multicasts) replays at
//! every scale of a 10-hosts-per-switch family, so the deterministic
//! columns (`cycles_run`, `sweeps_run`) and the reachability storage
//! columns are pure functions of the scale. The CSV carries only those
//! deterministic columns; wall-clock cycles/sec is printed in the table,
//! never gated. `reach_dense_bytes` is what the paper's literal layout
//! (one n-bit string per stored set) would occupy; `reach_resident_bytes`
//! is what the adaptive dense/interval `ReachSet` encoding actually
//! holds, with storage shared across ports counted once — the gap is the
//! compression that keeps giant fabrics cache-resident.

use crate::opts::CampaignOptions;
use crate::registry::{Emit, RunCtx, Unit};
use irrnet_core::rng::SmallRng;
use irrnet_core::SchemeId;
use irrnet_sim::SimConfig;
use irrnet_topology::{ExtraLinks, RandomTopologyConfig};
use irrnet_workloads::{random_mcast, run_single};
use std::fmt::Write as _;
use std::time::Instant;

/// Multicasts replayed per scale (fixed across quick/full so shared grid
/// rows stay byte-identical).
const TRIALS: usize = 8;
/// Destinations per multicast.
const DEGREE: usize = 16;
/// Message length in flits (one paper-default packet).
const MESSAGE_FLITS: u32 = 128;

/// The scale family: 10 hosts per switch behind 16-port switches, with
/// half the tree's redundancy in extra links.
fn topo_config(switches: usize) -> RandomTopologyConfig {
    RandomTopologyConfig {
        num_switches: switches,
        ports_per_switch: 16,
        num_hosts: switches * 10,
        extra_links: ExtraLinks::Fraction(0.5),
        seed: 9,
    }
}

/// The simulated config at a given system size: paper defaults, with the
/// input buffer widened so a full tree worm (whose n/8-byte bit-string
/// header grows with the system) is still absorbed whole under VCT.
fn sim_config(n_nodes: usize) -> SimConfig {
    let mut cfg = SimConfig::paper_default();
    let worm = cfg.packet_payload_flits + cfg.tree_header_flits(n_nodes) + 8;
    cfg.input_buffer_flits = cfg.input_buffer_flits.max(worm);
    cfg
}

pub fn units(opts: &CampaignOptions) -> Vec<Unit> {
    // The whole curve runs in quick mode too: incremental generation and
    // the word-wise reachability build set up even the 1024-switch point
    // in about 3 ms (release), and the unit takes ~0.1 s, so quick and
    // full campaigns are byte-identical here.
    let _ = opts;
    let scales: Vec<usize> = vec![16, 64, 256, 1024];
    vec![Unit::new("ext_h:scaling", move |ctx: &RunCtx| {
        let mut table = String::from("-- scaling: 10 hosts/switch, 16-port switches --\n");
        let _ = writeln!(
            table,
            "{:>8} {:>7} {:>13} {:>13} {:>7} {:>12} {:>12} {:>12}",
            "switches", "hosts", "resident_B", "dense_B", "ratio", "cycles_run", "wall_ms", "cycles/sec"
        );
        let mut csv = String::from(
            "switches,hosts,reach_resident_bytes,reach_dense_bytes,cycles_run,sweeps_run\n",
        );
        let mut last_cfg = None;
        for &switches in &scales {
            let net = ctx.cache.network(&topo_config(switches))?;
            let n = net.topo.num_nodes();
            let cfg = sim_config(n);
            let resident = net.reach.resident_bytes();
            let dense = net.reach.dense_equivalent_bytes();

            // The pinned workload: TRIALS isolated tree multicasts, each
            // on a fresh simulator (the scale's cold-cache shape).
            let mut rng = SmallRng::seed_from_u64(0xE874_0000 + switches as u64);
            let mut cycles = 0u64;
            let mut sweeps = 0u64;
            let t0 = Instant::now();
            for _ in 0..TRIALS {
                let (source, dests) = random_mcast(&mut rng, n, DEGREE);
                let r = run_single(&net, &cfg, SchemeId::TREE, source, dests, MESSAGE_FLITS)?;
                cycles += r.cycles_run;
                sweeps += r.sweeps_run;
            }
            let wall = t0.elapsed().as_secs_f64();
            let _ = writeln!(
                table,
                "{switches:>8} {n:>7} {resident:>13} {dense:>13} {:>7.3} {cycles:>12} {:>12.1} {:>12.0}",
                resident as f64 / dense as f64,
                wall * 1e3,
                cycles as f64 / wall.max(1e-9),
            );
            let _ = writeln!(csv, "{switches},{n},{resident},{dense},{cycles},{sweeps}");
            last_cfg = Some(cfg);
        }
        let cfg = last_cfg.expect("at least one scale");
        Ok(vec![
            Emit::Config {
                kind: "sim".into(),
                canonical: cfg.canonical_string(),
                hash: cfg.stable_hash(),
            },
            Emit::Table(table),
            Emit::Csv { name: "ext_h_scaling.csv".into(), content: csv },
        ])
    })]
}
