//! Multicast under a degrading network: fault injection, up*/down*
//! reconfiguration, and NI retransmission.
//!
//! The paper's testbed assumes a healthy network; this experiment asks
//! how each multicast scheme behaves when links and switches die *while
//! traffic is in flight*. A seeded, connectivity-preserving
//! [`FaultPlan`] kills components spread across the launch window;
//! worms crossing a dead component are truncated and drained, routing
//! reconfigures over the survivors, and (optionally) source NIs
//! retransmit to destinations whose copy was lost. Every run is a pure
//! function of its seeds: the same config twice gives byte-identical
//! results, and zero kills is byte-identical to a healthy run.

use irrnet_core::rng::SmallRng;
use irrnet_core::{plan_multicast, SchemeId, SchemeProtocol};
use irrnet_sim::{Cycle, McastId, RetxPolicy, SimConfig, SimError, Simulator};
use irrnet_topology::{FaultPlan, Network, RandomFaultConfig};
use std::sync::Arc;

/// Parameters of one fault-injection run.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Multicast degree (destinations per multicast).
    pub degree: usize,
    /// Message length in flits.
    pub message_flits: u32,
    /// Number of multicasts, launched periodically.
    pub mcasts: usize,
    /// Launch spacing in cycles.
    pub interval: Cycle,
    /// Components to kill (0 = healthy run).
    pub kills: usize,
    /// Every `switch_every`-th kill is a whole switch; 0 = links only.
    pub switch_every: usize,
    /// Hard stop for the run (must cover launches + retransmission tail).
    pub horizon: Cycle,
    /// Watchdog recovery budget (stuck worms sacrificed before aborting).
    pub recovery_limit: u32,
    /// Workload RNG seed (sources / destination sets).
    pub seed: u64,
    /// Fault-plan RNG seed (victims).
    pub fault_seed: u64,
    /// Enable NI delivery timeouts + retransmission.
    pub retx: bool,
}

impl FaultConfig {
    /// Defaults for the `ext_f_faults` sweep at a given kill count.
    pub fn paper_default(kills: usize) -> Self {
        FaultConfig {
            degree: 8,
            message_flits: 128,
            mcasts: 24,
            interval: 4_000,
            kills,
            switch_every: 4,
            horizon: 3_000_000,
            recovery_limit: 8,
            seed: 0xF00D,
            fault_seed: 0x5EED,
            retx: true,
        }
    }
}

/// Outcome of one fault-injection run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultResult {
    /// Delivered (multicast, destination) pairs over expected ones; 1.0
    /// when nothing was lost.
    pub delivery_ratio: f64,
    /// Mean latency of the multicasts that completed (`None` if none).
    pub mean_latency: Option<f64>,
    /// Multicasts launched.
    pub launched: usize,
    /// Multicasts fully delivered.
    pub completed: usize,
    /// Flits dropped at dead components / purged worm tails.
    pub flits_dropped: u64,
    /// Worm copies truncated or discarded.
    pub worms_killed: u64,
    /// Packets re-sent by source NIs on delivery timeout.
    pub retransmissions: u64,
    /// Deliveries suppressed as duplicates (original + retransmit both
    /// arrived).
    pub duplicate_deliveries: u64,
    /// Stuck worms sacrificed by the watchdog's recovery mode.
    pub watchdog_recoveries: u64,
    /// Simulated cycles, event jumps included
    /// ([`irrnet_sim::SimStats::cycles_run`]).
    pub cycles_run: u64,
}

/// Run one fault-injection experiment.
///
/// Multicast plans are computed on the *healthy* network — that is the
/// point: faults strike mid-flight and the engine must cope (truncate,
/// reconfigure, retransmit). The fault window starts after the first
/// eighth of the launch span so early traffic establishes a baseline.
pub fn run_faulted(
    net: &Network,
    cfg: &SimConfig,
    scheme: impl Into<SchemeId>,
    fc: &FaultConfig,
) -> Result<FaultResult, SimError> {
    let scheme = scheme.into();
    let n = net.topo.num_nodes();
    let mut rng = SmallRng::seed_from_u64(fc.seed);
    let mut proto = SchemeProtocol::new();
    let mut launches = Vec::with_capacity(fc.mcasts);
    for i in 0..fc.mcasts {
        let (source, dests) = crate::single::random_mcast(&mut rng, n, fc.degree);
        let id = McastId(i as u64);
        let plan = plan_multicast(net, cfg, scheme, source, dests.clone(), fc.message_flits);
        proto.add(id, Arc::new(plan));
        launches.push((i as Cycle * fc.interval, id, dests));
    }

    let mut run_cfg = cfg.clone();
    run_cfg.watchdog_recovery_limit = fc.recovery_limit;
    let mut sim = Simulator::new(net, run_cfg, proto)?;
    for (t, id, dests) in launches {
        sim.schedule_multicast(t, id, dests, fc.message_flits);
    }

    if fc.kills > 0 {
        let span = (fc.mcasts as Cycle * fc.interval).max(1);
        let plan = FaultPlan::random(
            &net.topo,
            &RandomFaultConfig {
                kills: fc.kills,
                switch_every: fc.switch_every,
                window: (span / 8, span),
                seed: fc.fault_seed,
                protect: Vec::new(),
            },
        );
        sim.install_faults(&plan);
        if fc.retx {
            sim.enable_retransmission(RetxPolicy::default_for(cfg));
        }
    }

    sim.run_until(fc.horizon)?;

    let stats = sim.stats();
    let mut samples = Vec::new();
    let mut completed = 0usize;
    for r in stats.mcasts.values() {
        if r.completed.is_some() {
            completed += 1;
        }
        if let Some(l) = r.latency() {
            samples.push(l as f64);
        }
    }
    let mean_latency = if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    };
    Ok(FaultResult {
        delivery_ratio: stats.delivery_ratio(),
        mean_latency,
        launched: stats.mcasts.len(),
        completed,
        flits_dropped: stats.net.flits_dropped,
        worms_killed: stats.net.worms_killed,
        retransmissions: stats.net.retransmissions,
        duplicate_deliveries: stats.net.duplicate_deliveries,
        watchdog_recoveries: stats.net.watchdog_recoveries,
        cycles_run: stats.cycles_run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use irrnet_core::Scheme;
    use irrnet_topology::zoo;

    fn quick(kills: usize) -> FaultConfig {
        FaultConfig {
            mcasts: 12,
            interval: 3_000,
            horizon: 2_000_000,
            ..FaultConfig::paper_default(kills)
        }
    }

    #[test]
    fn zero_kills_is_lossless() {
        let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
        let cfg = SimConfig::paper_default();
        let r = run_faulted(&net, &cfg, Scheme::TreeWorm, &quick(0)).unwrap();
        assert_eq!(r.delivery_ratio, 1.0, "{r:?}");
        assert_eq!(r.completed, r.launched);
        assert_eq!(r.flits_dropped, 0);
        assert_eq!(r.worms_killed, 0);
        assert_eq!(r.retransmissions, 0);
    }

    #[test]
    fn faulted_runs_are_deterministic_per_seed() {
        let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
        let cfg = SimConfig::paper_default();
        for scheme in [Scheme::TreeWorm, Scheme::NiFpfs, Scheme::UBinomial] {
            let a = run_faulted(&net, &cfg, scheme, &quick(3)).unwrap();
            let b = run_faulted(&net, &cfg, scheme, &quick(3)).unwrap();
            assert_eq!(a, b, "{scheme:?}");
        }
    }

    #[test]
    fn kills_cause_losses_and_recovery_activity() {
        let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
        let cfg = SimConfig::paper_default();
        let r = run_faulted(&net, &cfg, Scheme::TreeWorm, &quick(4)).unwrap();
        // Something must have died mid-flight across 12 multicasts with 4
        // kills in the launch window.
        assert!(r.worms_killed > 0 || r.flits_dropped > 0, "{r:?}");
        assert!(r.delivery_ratio <= 1.0);
    }

    #[test]
    fn retransmission_improves_delivery() {
        let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
        let cfg = SimConfig::paper_default();
        let mut with = quick(4);
        with.retx = true;
        let mut without = quick(4);
        without.retx = false;
        let a = run_faulted(&net, &cfg, Scheme::UBinomial, &with).unwrap();
        let b = run_faulted(&net, &cfg, Scheme::UBinomial, &without).unwrap();
        assert!(a.delivery_ratio >= b.delivery_ratio, "with={a:?} without={b:?}");
    }
}
