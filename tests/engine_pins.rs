//! The exact engine oracle: `(cycles_run, sweeps_run)` of six fixed
//! workloads, plus the completion counts and mean latency of the two
//! load rows and an FNV-1a digest of every network counter and per-link
//! flit tally of the load, faulted and link-retry rows. `cycles_run`
//! counts simulated cycles and is the same in every execution mode;
//! `sweeps_run` counts the sweeps the event-driven core executed. A
//! change to either means the engine's semantics or its scheduling
//! moved, whatever the machine, profile or `IRRNET_AUDIT` setting. The
//! load rows stop at a fixed horizon with worms mid-flight, so their
//! digests also hold every counter to its exact value there. The
//! seventh workload, `huge`, is pinned in `huge_fabric.rs`.

use irrnet::prelude::*;
use irrnet::topology::rng::SmallRng;
use irrnet::topology::{ErrorModel, ExtraLinks};
use irrnet::workloads::{random_mcast, run_load_stats, Launch, Scenario, Stop};

fn analyzed(cfg: &RandomTopologyConfig) -> Network {
    Network::analyze(gen::generate(cfg).unwrap()).unwrap()
}

fn scheme(name: &str) -> SchemeId {
    SchemeRegistry::resolve(name).unwrap_or_else(|| panic!("scheme '{name}' is not registered"))
}

/// FNV-1a over the debug rendering of every aggregate counter and every
/// directed link's flit tally.
fn counter_digest(stats: &SimStats) -> u64 {
    let text = format!("{:?} {:?}", stats.net, stats.link_flits_per_dir);
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// One open-loop load run: `(cycles_run, sweeps_run)`, then `(launched,
/// completed, mean latency bits)` of its measurement window and the
/// multicasts completed over the whole run, then the counter digest. A
/// fixed-horizon run's `cycles_run` is warmup + measure + drain by
/// construction, so the completion counts, the mean and the digest are
/// what show a timing change.
type LoadPin = ((u64, u64), (usize, usize, Option<u64>, usize), u64);

fn load_counts(net: &Network, scheme_name: &str, lc: &LoadConfig) -> LoadPin {
    let (r, stats) =
        run_load_stats(net, &SimConfig::paper_default(), scheme(scheme_name), lc).unwrap();
    (
        (r.cycles_run, r.sweeps_run),
        (r.launched, r.completed, r.mean_latency.map(f64::to_bits), r.completed_all),
        counter_digest(&stats),
    )
}

/// 64 8-way tree multicasts from random sources, one every 150 cycles,
/// on the paper's default network: enough overlap that worms span
/// several switches whenever something goes wrong.
fn overlapping_trees(net: &Network) -> Scenario<'_> {
    let mut rng = SmallRng::seed_from_u64(0x7EA1_5EED);
    let launches: Vec<Launch> = (0..64)
        .map(|i| {
            let (source, dests) = random_mcast(&mut rng, net.topo.num_nodes(), 8);
            (i * 150, source, dests)
        })
        .collect();
    let cfg = SimConfig::paper_default();
    Scenario::new(net, &cfg, scheme("tree"), 128, launches, Stop::Complete(50_000_000))
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
        ((300_000, 298_920), (5_655, 0, None, 19), 0xc4b5_ee6e_9f3f_88ca)
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
        ((250_000, 248_831), (904, 814, Some(0x40ee_8829_28e2_6ff6), 873), 0xd4b7_692c_6b72_f6ee)
    );
}

/// The overlapping tree multicasts while three links die mid-run:
/// frames on the dead links are killed mid-worm, the strands they fed
/// are purged downstream, flits keep landing on dead channels, and NI
/// retransmission re-covers the lost destinations.
#[test]
fn faulted() {
    let net = analyzed(&RandomTopologyConfig::paper_default(0));
    let mut sc = overlapping_trees(&net);
    sc.faults = Some(FaultPlan::random(
        &net.topo,
        &RandomFaultConfig {
            kills: 3,
            switch_every: 0,
            window: (2_000, 8_000),
            seed: 0xFA17,
            protect: Vec::new(),
        },
    ));
    sc.retx = true;
    let stats = sc.run().unwrap().stats;
    let n = &stats.net;
    assert!(n.worms_killed > 0 && n.flits_dropped > 0 && n.retransmissions > 0, "{n:?}");
    assert_eq!(
        (stats.cycles_run, stats.sweeps_run, counter_digest(&stats)),
        (61_474, 9_892, 0xe7e3_7fd7_f414_bb1a)
    );
}

/// The overlapping tree multicasts under transient link errors with
/// switch link-level retry: each damaged flit holds its output for the
/// NACK turnaround, which breaks the worm's flits into separate runs
/// downstream, and NI retransmission covers what the retry budget loses.
#[test]
fn link_retry() {
    let net = analyzed(&RandomTopologyConfig::paper_default(0));
    let mut sc = overlapping_trees(&net);
    sc.errors = Some(ErrorModel::uniform(3_000_000, 3_000_000, 0xE44));
    sc.link_retry = true;
    sc.retx = true;
    let stats = sc.run().unwrap().stats;
    assert!(stats.net.link_retries > 0, "{:?}", stats.net);
    assert_eq!(
        (stats.cycles_run, stats.sweeps_run, counter_digest(&stats)),
        (30_386, 9_681, 0xe4f7_831b_40e4_cae0)
    );
}
