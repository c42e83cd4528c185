//! DSM cache-invalidation workload — the system-level multicast use the
//! paper's introduction highlights ("used for system level operations in
//! distributed shared memory systems, such as for cache invalidations,
//! acknowledgment collection, and synchronization", citing the authors'
//! wormhole-DSM study \[2\]).
//!
//! The generator models a directory-based DSM: a set of shared blocks,
//! each with a home node and a sharer set; writes arrive as a Poisson
//! stream, concentrated on a hot subset of blocks, and every write to a
//! shared block triggers one *invalidation multicast* from the block's
//! home to the current sharers. Invalidations are short (a cache-line
//! address, not data), so this exercises the schemes in the
//! short-message, high-fan-in regime — the opposite corner from the
//! Fig. 8 long-message study.

use crate::load::{window, LoadResult};
use crate::scenario::{check_rate, check_shape, Launch, Scenario, Stop, WorkloadError};
use crate::single::random_dests;
use irrnet_core::rng::SmallRng;
use irrnet_core::SchemeId;
use irrnet_sim::{Cycle, SimConfig};
use irrnet_topology::{Network, NodeId};

/// Parameters of the synthetic DSM workload.
#[derive(Debug, Clone)]
pub struct DsmConfig {
    /// Number of shared blocks in the directory.
    pub blocks: usize,
    /// Mean sharer-set size (sharers per block are 1 + geometric-ish,
    /// clamped to the system size).
    pub mean_sharers: f64,
    /// Fraction of writes that hit the hottest 10% of blocks (locality).
    pub hot_fraction: f64,
    /// System-wide write rate in writes per cycle.
    pub write_rate: f64,
    /// Invalidation message length in flits (an address + tag — short).
    pub inval_flits: u32,
    /// Cold-start cycles excluded from measurement.
    pub warmup: Cycle,
    /// Measurement window.
    pub measure: Cycle,
    /// Post-window drain.
    pub drain: Cycle,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DsmConfig {
    fn default() -> Self {
        DsmConfig {
            blocks: 256,
            mean_sharers: 6.0,
            hot_fraction: 0.7,
            write_rate: 2e-4,
            inval_flits: 16,
            warmup: 20_000,
            measure: 200_000,
            drain: 100_000,
            seed: 0xD5,
        }
    }
}

/// Generate the invalidation trace for a system of `num_nodes` nodes:
/// one launch per write, from the block's home to its sharers (never the
/// home itself), in launch order.
pub fn generate_trace(num_nodes: usize, cfg: &DsmConfig) -> Result<Vec<Launch>, WorkloadError> {
    // Every block has a home and at least one other node sharing it.
    check_shape(1, num_nodes, cfg.inval_flits)?;
    check_rate("write rate", cfg.write_rate)?;
    if cfg.blocks == 0 {
        return Err(WorkloadError::Input("the directory needs at least one block".into()));
    }
    let mut rng = SmallRng::seed_from_u64(cfg.seed);

    // Directory state: per block, a home node and a sharer set.
    let mut homes = Vec::with_capacity(cfg.blocks);
    let mut sharers = Vec::with_capacity(cfg.blocks);
    for _ in 0..cfg.blocks {
        let home = NodeId(rng.gen_range(0..num_nodes) as u16);
        // Sharer count: 1 + geometric with the requested mean.
        let p = 1.0 / cfg.mean_sharers.max(1.0);
        let mut k = 1usize;
        while k < num_nodes - 1 && rng.gen_range(0.0..1.0) > p {
            k += 1;
        }
        let set = random_dests(&mut rng, num_nodes, k, home);
        homes.push(home);
        sharers.push(set);
    }

    // Poisson write stream over [0, warmup + measure).
    let horizon = (cfg.warmup + cfg.measure) as f64;
    let hot_blocks = (cfg.blocks / 10).max(1);
    let mut t = 0.0f64;
    let mut events = Vec::new();
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / cfg.write_rate;
        if t >= horizon {
            break;
        }
        let block = if rng.gen_range(0.0..1.0) < cfg.hot_fraction {
            rng.gen_range(0..hot_blocks)
        } else {
            rng.gen_range(0..cfg.blocks)
        };
        events.push((t as Cycle, homes[block], sharers[block].clone()));
    }
    Ok(events)
}

/// Replay a trace under `scheme`. The result summarizes the invalidations
/// launched in the measurement window: `launched` counts them and
/// `latency` is the distribution of the completed ones (launch → last
/// sharer acknowledged-invalid, i.e. host-level delivery).
pub fn run_dsm(
    net: &Network,
    sim_cfg: &SimConfig,
    scheme: SchemeId,
    cfg: &DsmConfig,
) -> Result<LoadResult, WorkloadError> {
    let trace = generate_trace(net.topo.num_nodes(), cfg)?;
    let horizon = cfg.warmup + cfg.measure;
    let stop = Stop::At(horizon + cfg.drain);
    let out = Scenario::new(net, sim_cfg, scheme, cfg.inval_flits, trace, stop).run()?;
    Ok(window(&out.stats, cfg.warmup, horizon))
}

#[cfg(test)]
mod tests {
    use super::*;
    use irrnet_core::SchemeId;
    use irrnet_topology::{gen, RandomTopologyConfig};

    fn net() -> Network {
        Network::analyze(gen::generate(&RandomTopologyConfig::paper_default(0)).unwrap()).unwrap()
    }

    #[test]
    fn trace_is_well_formed() {
        let cfg = DsmConfig::default();
        let t = generate_trace(32, &cfg).unwrap();
        assert!(!t.is_empty());
        let horizon = cfg.warmup + cfg.measure;
        let mut prev = 0;
        for (at, home, sharers) in &t {
            assert!(*at < horizon);
            assert!(*at >= prev, "events in launch order");
            prev = *at;
            assert!(!sharers.is_empty());
            assert!(!sharers.contains(*home), "home never invalidates itself");
        }
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        let cfg = DsmConfig::default();
        assert_eq!(generate_trace(32, &cfg).unwrap(), generate_trace(32, &cfg).unwrap());
    }

    #[test]
    fn hot_blocks_receive_most_writes() {
        let cfg = DsmConfig { hot_fraction: 0.9, write_rate: 1e-3, ..DsmConfig::default() };
        let t = generate_trace(32, &cfg).unwrap();
        // With 90% of writes on 10% of blocks, the distinct (home,
        // sharers) pairs seen should be far fewer than events.
        let mut keys: Vec<(u16, Vec<u16>)> = t
            .iter()
            .map(|(_, home, sharers)| (home.0, sharers.iter().map(|n| n.0).collect()))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert!(keys.len() * 3 < t.len(), "{} vs {}", keys.len(), t.len());
    }

    #[test]
    fn invalidations_complete_under_hardware_multicast() {
        let net = net();
        let sim_cfg = SimConfig::paper_default();
        let r = run_dsm(&net, &sim_cfg, SchemeId::TREE, &DsmConfig::default()).unwrap();
        assert!(r.launched > 0);
        assert!(!r.saturated, "{r:?}");
        let s = r.latency.unwrap();
        // Short messages, single phase: comfortably under 3k cycles mean.
        assert!(s.mean < 3_000.0, "mean {}", s.mean);
    }

    #[test]
    fn tree_based_invalidation_beats_software_multicast() {
        let net = net();
        let sim_cfg = SimConfig::paper_default();
        let tree = run_dsm(&net, &sim_cfg, SchemeId::TREE, &DsmConfig::default()).unwrap();
        let ub = run_dsm(&net, &sim_cfg, SchemeId::UBINOMIAL, &DsmConfig::default()).unwrap();
        let (t, u) = (tree.latency.unwrap(), ub.latency.unwrap());
        assert!(
            t.mean < u.mean,
            "tree {:.0} should beat ubinomial {:.0}",
            t.mean,
            u.mean
        );
        assert!(t.p95 < u.p95);
    }

    #[test]
    fn bad_configs_are_rejected_before_drawing() {
        let bad = [
            DsmConfig { blocks: 0, ..DsmConfig::default() },
            DsmConfig { write_rate: 0.0, ..DsmConfig::default() },
            DsmConfig { write_rate: f64::NAN, ..DsmConfig::default() },
            DsmConfig { inval_flits: 0, ..DsmConfig::default() },
        ];
        for cfg in &bad {
            assert!(matches!(generate_trace(32, cfg), Err(WorkloadError::Input(_))), "{cfg:?}");
        }
        assert!(generate_trace(1, &DsmConfig::default()).is_err(), "one node shares nothing");
    }
}
