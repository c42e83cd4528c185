//! The exact engine oracle: `(cycles_run, sweeps_run)` of four fixed
//! workloads, plus the completion counts and mean latency of the two
//! load rows. `cycles_run` counts simulated cycles and is the same in
//! every execution mode; `sweeps_run` counts the sweeps the event-driven
//! core executed. A change to either means the engine's semantics or its
//! scheduling moved, whatever the machine, profile or `IRRNET_AUDIT`
//! setting. The fifth workload, `huge`, is pinned in `huge_fabric.rs`.

use irrnet::prelude::*;
use irrnet::topology::rng::SmallRng;
use irrnet::topology::ExtraLinks;
use irrnet::workloads::{random_mcast, Scenario, Stop};

fn analyzed(cfg: &RandomTopologyConfig) -> Network {
    Network::analyze(gen::generate(cfg).unwrap()).unwrap()
}

fn scheme(name: &str) -> SchemeId {
    SchemeRegistry::resolve(name).unwrap_or_else(|| panic!("scheme '{name}' is not registered"))
}

/// One open-loop load run: `(cycles_run, sweeps_run)`, then `(launched,
/// completed, mean latency bits)` of its measurement window and the
/// multicasts completed over the whole run. A fixed-horizon run's
/// `cycles_run` is warmup + measure + drain by construction, so the
/// completion counts and the mean are what show a timing change.
type LoadPin = ((u64, u64), (usize, usize, Option<u64>, usize));

fn load_counts(net: &Network, scheme_name: &str, lc: &LoadConfig) -> LoadPin {
    let r = run_load(net, &SimConfig::paper_default(), scheme(scheme_name), lc).unwrap();
    (
        (r.cycles_run, r.sweeps_run),
        (r.launched, r.completed, r.mean_latency.map(f64::to_bits), r.completed_all),
    )
}

/// 48 isolated 8-way tree multicasts on the paper's default network, each
/// on a fresh simulator: mostly event jumps over low-occupancy cycles.
#[test]
fn light() {
    let net = analyzed(&RandomTopologyConfig::paper_default(0));
    let cfg = SimConfig::paper_default();
    let mut rng = SmallRng::seed_from_u64(0xB0B0_5EED);
    let (mut cycles, mut sweeps) = (0, 0);
    for _ in 0..48 {
        let (source, dests) = random_mcast(&mut rng, net.topo.num_nodes(), 8);
        let r = run_single(&net, &cfg, scheme("tree"), source, dests, 128).unwrap();
        cycles += r.cycles_run;
        sweeps += r.sweeps_run;
    }
    assert_eq!((cycles, sweeps), (109_099, 8_539));
}

/// 16 8-way tree multicasts launched 200,000 cycles apart on one
/// simulator, over 512-cycle links: dead time dominates, and the
/// event-driven core skips all of it.
#[test]
fn idle_heavy() {
    let net = analyzed(&RandomTopologyConfig::paper_default(0));
    let mut cfg = SimConfig::paper_default();
    cfg.link_delay = 512;
    let mut rng = SmallRng::seed_from_u64(0x1D1E_5EED);
    let launches = (0..16)
        .map(|i| {
            let (source, dests) = random_mcast(&mut rng, net.topo.num_nodes(), 8);
            (i * 200_000, source, dests)
        })
        .collect();
    let stop = Stop::Complete(500_000_000);
    let stats = Scenario::new(&net, &cfg, scheme("tree"), 128, launches, stop).run().unwrap().stats;
    assert_eq!((stats.cycles_run, stats.sweeps_run), (3_006_366, 18_801));
}

/// Open-loop 8-way unicast-binomial load at 1.0 effective load, far past
/// saturation: nearly every simulated cycle is a sweep.
#[test]
fn saturation() {
    let lc = LoadConfig {
        degree: 8,
        message_flits: 128,
        effective_load: 1.0,
        warmup: 20_000,
        measure: 180_000,
        drain: 100_000,
        seed: 0xBE9C_0001,
    };
    let net = analyzed(&RandomTopologyConfig::paper_default(0));
    // No multicast of the window completes; only the run-wide count
    // sees timing.
    assert_eq!(
        load_counts(&net, "ubinomial", &lc),
        ((300_000, 298_920), (5_655, 0, None, 19))
    );
}

/// Open-loop 16-way tree load on a 32-switch / 96-host topology: many
/// components active in every sweep.
#[test]
fn large() {
    let net = analyzed(&RandomTopologyConfig {
        num_switches: 32,
        ports_per_switch: 8,
        num_hosts: 96,
        extra_links: ExtraLinks::Fraction(0.75),
        seed: 7,
    });
    let lc = LoadConfig {
        degree: 16,
        message_flits: 256,
        effective_load: 0.3,
        warmup: 10_000,
        measure: 120_000,
        drain: 120_000,
        seed: 0xBE9C_0002,
    };
    assert_eq!(
        load_counts(&net, "tree", &lc),
        ((250_000, 248_831), (904, 814, Some(0x40ee_8829_28e2_6ff6), 873))
    );
}
