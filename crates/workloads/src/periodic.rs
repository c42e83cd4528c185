//! Periodic multicast on a damaged network: permanent faults, transient
//! soft errors, and the mechanisms that recover from them.
//!
//! The paper's testbed assumes a healthy network; this workload launches
//! a fixed stream of multicasts, one every `interval` cycles, and damages
//! the network under it in two ways:
//!
//! * **Permanent faults.** A seeded, connectivity-preserving
//!   [`FaultPlan`] kills links and switches spread across the launch
//!   window. Worms crossing a dead component are truncated and drained,
//!   and routing reconfigures over the survivors.
//! * **Transient errors.** A seeded per-link [`ErrorModel`] corrupts or
//!   drops individual flits in flight while the topology stays intact,
//!   the regime real irregular fabrics mostly live in.
//!
//! Two recovery mechanisms compete, and the paper's NI-vs-switch question
//! reappears as a reliability question: switch-side link-level retry
//! catches a damaged flit one hop downstream and replays it, and NI-side
//! end-to-end retransmission re-sends to the destinations a delivery
//! timeout finds missing. Plans are made on the healthy network: damage
//! strikes mid-flight and the engine must cope. Every run is a pure
//! function of its seeds, and a run without kills or errors is
//! byte-identical to a healthy one.
//!
//! Under damage the watchdog may find worms stuck for good; set
//! [`SimConfig::watchdog_recovery_limit`] to let it sacrifice that many
//! instead of aborting the run.

use crate::scenario::{check_shape, Scenario, Stop, WorkloadError};
use crate::single::random_mcast;
use irrnet_core::rng::SmallRng;
use irrnet_core::SchemeId;
use irrnet_sim::{Cycle, NetCounters, SimConfig};
use irrnet_topology::{ErrorModel, FaultPlan, Network, RandomFaultConfig};

/// Every fourth kill is a whole switch, the others links.
const SWITCH_EVERY: usize = 4;
/// Seed of the fault plan's victim draws.
const FAULT_SEED: u64 = 0x5EED;
/// Seed of the error model's per-(link, cycle) fate draws.
const ERROR_SEED: u64 = 0x0E44_0E44;

/// Parameters of one periodic run.
#[derive(Debug, Clone)]
pub struct PeriodicConfig {
    /// Multicast degree (destinations per multicast).
    pub degree: usize,
    /// Message length in flits.
    pub message_flits: u32,
    /// Number of multicasts, launched periodically.
    pub mcasts: usize,
    /// Launch spacing in cycles.
    pub interval: Cycle,
    /// Hard stop for the run (must cover launches + recovery tail).
    pub horizon: Cycle,
    /// Workload RNG seed (sources / destination sets).
    pub seed: u64,
    /// Components to kill (0 = none). They die spread over the launch
    /// span after its first eighth, so early traffic sets a baseline.
    pub kills: usize,
    /// Per-link transient errors (a zero-rate model injects none).
    pub errors: ErrorModel,
    /// Enable switch-side link-level retry.
    pub link_retry: bool,
    /// Enable NI delivery timeouts + end-to-end retransmission.
    pub retx: bool,
}

impl PeriodicConfig {
    /// The `ext_f_faults` point at `kills` kills: NI retransmission is
    /// armed whenever something dies.
    pub fn faulted(kills: usize) -> Self {
        PeriodicConfig { kills, retx: kills > 0, ..Self::transient(0, false, false) }
    }

    /// The `ext_i_reliability` point at `error_ppb` errors per billion
    /// flit transmissions (split evenly between corruption and drops)
    /// under the given mechanism pair.
    pub fn transient(error_ppb: u32, link_retry: bool, retx: bool) -> Self {
        PeriodicConfig {
            degree: 8,
            message_flits: 128,
            mcasts: 24,
            interval: 4_000,
            horizon: 3_000_000,
            seed: 0xF00D,
            kills: 0,
            errors: ErrorModel::uniform(error_ppb / 2, error_ppb - error_ppb / 2, ERROR_SEED),
            link_retry,
            retx,
        }
    }
}

/// Outcome of one periodic run.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodicResult {
    /// Delivered (multicast, destination) pairs over expected ones; 1.0
    /// when nothing was lost.
    pub delivery_ratio: f64,
    /// Mean latency of the multicasts that completed (`None` if none).
    pub mean_latency: Option<f64>,
    /// Multicasts launched.
    pub launched: usize,
    /// Multicasts fully delivered.
    pub completed: usize,
    /// Useful link transmissions over all of them (1.0 = no damage).
    pub goodput: f64,
    /// The damage and recovery counters (drops, kills, retries,
    /// retransmissions, ...).
    pub net: NetCounters,
    /// Simulated cycles, event jumps included
    /// ([`irrnet_sim::SimStats::cycles_run`]).
    pub cycles_run: u64,
}

/// Run one periodic workload under the configured damage and recovery.
pub fn run_periodic(
    net: &Network,
    cfg: &SimConfig,
    scheme: SchemeId,
    pc: &PeriodicConfig,
) -> Result<PeriodicResult, WorkloadError> {
    let n = net.topo.num_nodes();
    check_shape(pc.degree, n, pc.message_flits)?;
    let mut rng = SmallRng::seed_from_u64(pc.seed);
    let launches = (0..pc.mcasts)
        .map(|i| {
            let (source, dests) = random_mcast(&mut rng, n, pc.degree);
            (i as Cycle * pc.interval, source, dests)
        })
        .collect();
    let span = (pc.mcasts as Cycle * pc.interval).max(1);
    let faults = (pc.kills > 0).then(|| {
        FaultPlan::random(
            &net.topo,
            &RandomFaultConfig {
                kills: pc.kills,
                switch_every: SWITCH_EVERY,
                window: (span / 8, span),
                seed: FAULT_SEED,
                protect: Vec::new(),
            },
        )
    });
    let stop = Stop::At(pc.horizon);
    let stats = Scenario {
        faults,
        errors: Some(pc.errors.clone()),
        link_retry: pc.link_retry,
        retx: pc.retx,
        ..Scenario::new(net, cfg, scheme, pc.message_flits, launches, stop)
    }
    .run()?
    .stats;
    Ok(PeriodicResult {
        delivery_ratio: stats.delivery_ratio(),
        mean_latency: stats.mean_latency_in_window(0, Cycle::MAX),
        launched: stats.mcasts.len(),
        completed: stats.completed_count(),
        goodput: stats.goodput_ratio(),
        cycles_run: stats.cycles_run,
        net: stats.net,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use irrnet_core::SchemeId;
    use irrnet_topology::zoo;

    fn net() -> Network {
        Network::analyze(zoo::paper_example().unwrap()).unwrap()
    }

    /// Paper defaults, with the watchdog allowed to sacrifice 8 stuck
    /// worms as the `ext_f` and `ext_i` experiments allow it.
    fn cfg() -> SimConfig {
        SimConfig { watchdog_recovery_limit: 8, ..SimConfig::paper_default() }
    }

    fn quick(pc: PeriodicConfig) -> PeriodicConfig {
        PeriodicConfig { mcasts: 12, interval: 3_000, horizon: 2_000_000, ..pc }
    }

    #[test]
    fn bad_shapes_are_rejected_before_drawing() {
        let net = net();
        let n = net.topo.num_nodes();
        for pc in [
            PeriodicConfig { degree: 0, ..PeriodicConfig::faulted(0) },
            PeriodicConfig { degree: n, ..PeriodicConfig::faulted(0) },
            PeriodicConfig { message_flits: 0, ..PeriodicConfig::faulted(0) },
        ] {
            let r = run_periodic(&net, &cfg(), SchemeId::TREE, &pc);
            assert!(matches!(r, Err(WorkloadError::Input(_))), "{pc:?}: {r:?}");
        }
    }

    mod faults {
        use super::*;

        fn faulted(kills: usize) -> PeriodicConfig {
            quick(PeriodicConfig::faulted(kills))
        }

        #[test]
        fn zero_kills_is_lossless() {
            let r = run_periodic(&net(), &cfg(), SchemeId::TREE, &faulted(0)).unwrap();
            assert_eq!(r.delivery_ratio, 1.0, "{r:?}");
            assert_eq!(r.completed, r.launched);
            assert_eq!(r.net.flits_dropped, 0);
            assert_eq!(r.net.worms_killed, 0);
            assert_eq!(r.net.retransmissions, 0);
        }

        #[test]
        fn faulted_runs_are_deterministic_per_seed() {
            let net = net();
            for scheme in [SchemeId::TREE, SchemeId::NI_FPFS, SchemeId::UBINOMIAL] {
                let a = run_periodic(&net, &cfg(), scheme, &faulted(3)).unwrap();
                let b = run_periodic(&net, &cfg(), scheme, &faulted(3)).unwrap();
                assert_eq!(a, b, "{scheme}");
            }
        }

        #[test]
        fn kills_cause_losses_and_recovery_activity() {
            let r = run_periodic(&net(), &cfg(), SchemeId::TREE, &faulted(4)).unwrap();
            // Something must have died mid-flight across 12 multicasts
            // with 4 kills in the launch window.
            assert!(r.net.worms_killed > 0 || r.net.flits_dropped > 0, "{r:?}");
            assert!(r.delivery_ratio <= 1.0);
        }

        #[test]
        fn retransmission_improves_delivery() {
            let net = net();
            let with = PeriodicConfig { retx: true, ..faulted(4) };
            let without = PeriodicConfig { retx: false, ..faulted(4) };
            let a = run_periodic(&net, &cfg(), SchemeId::UBINOMIAL, &with).unwrap();
            let b = run_periodic(&net, &cfg(), SchemeId::UBINOMIAL, &without).unwrap();
            assert!(a.delivery_ratio >= b.delivery_ratio, "with={a:?} without={b:?}");
        }
    }

    // CI runs these under the invariant auditor by the filter `transient`.
    mod transient {
        use super::*;

        fn transient(error_ppb: u32, link_retry: bool, retx: bool) -> PeriodicConfig {
            quick(PeriodicConfig::transient(error_ppb, link_retry, retx))
        }

        #[test]
        fn zero_rate_is_lossless_and_error_free() {
            // Recovery mechanisms armed but never triggered: a zero-rate
            // model must leave them (and the run) completely inert.
            let r = run_periodic(&net(), &cfg(), SchemeId::TREE, &transient(0, true, true))
                .unwrap();
            assert_eq!(r.delivery_ratio, 1.0, "{r:?}");
            assert_eq!(r.completed, r.launched);
            assert_eq!(r.net.flits_corrupted, 0);
            assert_eq!(r.net.flits_dropped_transient, 0);
            assert_eq!(r.net.link_retries, 0);
            assert_eq!(r.net.retry_exhaustions, 0);
            assert_eq!(r.net.e2e_recoveries, 0);
            assert_eq!(r.net.retransmissions, 0);
            assert_eq!(r.net.worms_killed, 0);
            assert_eq!(r.goodput, 1.0);
        }

        #[test]
        fn transient_runs_are_deterministic_per_seed() {
            let net = net();
            for (lr, retx) in [(false, false), (true, false), (false, true), (true, true)] {
                let pc = transient(2_000_000, lr, retx);
                let a = run_periodic(&net, &cfg(), SchemeId::UBINOMIAL, &pc);
                let b = run_periodic(&net, &cfg(), SchemeId::UBINOMIAL, &pc);
                assert_eq!(a.unwrap(), b.unwrap(), "link_retry={lr} retx={retx}");
            }
        }

        #[test]
        fn damage_without_recovery_loses_deliveries() {
            let pc = transient(5_000_000, false, false);
            let r = run_periodic(&net(), &cfg(), SchemeId::TREE, &pc).unwrap();
            let damaged = r.net.flits_corrupted + r.net.flits_dropped_transient;
            assert!(damaged > 0, "{r:?}");
            assert!(r.net.worms_killed > 0, "{r:?}");
            assert!(r.delivery_ratio < 1.0, "{r:?}");
            assert!(r.goodput < 1.0, "{r:?}");
        }

        #[test]
        fn link_retry_masks_moderate_rates_completely() {
            // At 0.2% per flit with an 8-deep retry budget, the chance of
            // a budget-exhausting failure streak is negligible: every
            // worm must arrive, purely via link-level replays.
            let pc = transient(2_000_000, true, false);
            let r = run_periodic(&net(), &cfg(), SchemeId::UBINOMIAL, &pc).unwrap();
            assert!(r.net.link_retries > 0, "{r:?}");
            assert_eq!(r.net.retry_exhaustions, 0, "{r:?}");
            assert_eq!(r.delivery_ratio, 1.0, "{r:?}");
            assert_eq!(r.completed, r.launched);
        }

        #[test]
        fn e2e_retransmission_recovers_what_the_network_loses() {
            let net = net();
            let with = transient(5_000_000, false, true);
            let without = transient(5_000_000, false, false);
            let with = run_periodic(&net, &cfg(), SchemeId::UBINOMIAL, &with).unwrap();
            let without = run_periodic(&net, &cfg(), SchemeId::UBINOMIAL, &without).unwrap();
            assert!(
                with.delivery_ratio >= without.delivery_ratio,
                "with={with:?} without={without:?}"
            );
            assert!(with.net.e2e_recoveries > 0, "{with:?}");
            assert!(with.net.retransmissions > 0, "{with:?}");
        }

        #[test]
        fn extreme_rates_escalate_past_the_retry_budget() {
            // 60% per flit: failure streaks longer than the retry budget
            // are routine, so the escalation ladder's last rung — kill
            // the worm, let the NI re-send — must fire (and the run must
            // stay clean: the CI audit leg runs this test under
            // IRRNET_AUDIT=1).
            let pc = PeriodicConfig {
                mcasts: 4,
                horizon: 1_000_000,
                ..transient(600_000_000, true, true)
            };
            let r = run_periodic(&net(), &cfg(), SchemeId::UBINOMIAL, &pc).unwrap();
            assert!(r.net.retry_exhaustions > 0, "{r:?}");
            assert!(r.net.link_retries > 0, "{r:?}");
            assert!(r.net.worms_killed > 0, "{r:?}");
        }
    }
}
