//! Multicast under transient soft errors: seeded per-link corruption and
//! drop, with switch-side link-level retry and/or NI-side end-to-end
//! retransmission as the competing recovery mechanisms.
//!
//! Where [`crate::faults`] kills components *permanently* and asks the
//! routing layer to reconfigure, this workload keeps the topology intact
//! and damages individual flits in flight — the regime real irregular
//! fabrics mostly live in. The paper's NI-vs-switch question then
//! reappears as a reliability question: is it better to catch a damaged
//! flit one hop downstream and replay it from the switch (link-level
//! retry), or to let the worm die and have the source NI re-send on a
//! delivery timeout (end-to-end recovery)? Every run is a pure function
//! of its seeds, and a zero-rate error model is byte-identical to a
//! healthy run.

use irrnet_core::rng::SmallRng;
use irrnet_core::{plan_multicast, SchemeId, SchemeProtocol};
use irrnet_sim::{Cycle, LinkRetryPolicy, McastId, RetxPolicy, SimConfig, SimError, Simulator};
use irrnet_topology::{ErrorModel, Network};
use std::sync::Arc;

/// Parameters of one transient-fault run.
#[derive(Debug, Clone)]
pub struct TransientConfig {
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
    /// Watchdog recovery budget (stuck worms sacrificed before aborting).
    pub recovery_limit: u32,
    /// Workload RNG seed (sources / destination sets).
    pub seed: u64,
    /// Per-flit corruption probability in parts per billion.
    pub corrupt_ppb: u32,
    /// Per-flit drop probability in parts per billion.
    pub drop_ppb: u32,
    /// Error-model RNG seed (which (link, cycle) draws are damaged).
    pub error_seed: u64,
    /// Enable switch-side link-level retry.
    pub link_retry: bool,
    /// Enable NI delivery timeouts + end-to-end retransmission.
    pub retx: bool,
}

impl TransientConfig {
    /// Defaults for the `ext_i_reliability` sweep at a given error rate
    /// (split evenly between corruption and drops) and mechanism pair.
    pub fn paper_default(error_ppb: u32, link_retry: bool, retx: bool) -> Self {
        TransientConfig {
            degree: 8,
            message_flits: 128,
            mcasts: 24,
            interval: 4_000,
            horizon: 3_000_000,
            recovery_limit: 8,
            seed: 0xF00D,
            corrupt_ppb: error_ppb / 2,
            drop_ppb: error_ppb - error_ppb / 2,
            error_seed: 0x0E44_0E44,
            link_retry,
            retx,
        }
    }

    /// The per-link error model this configuration injects. Exposed so a
    /// campaign can fingerprint the model it ran under (e.g. for
    /// `irrnet-run status` shard labels) without re-deriving the
    /// corrupt/drop split.
    pub fn error_model(&self) -> ErrorModel {
        ErrorModel::uniform(self.corrupt_ppb, self.drop_ppb, self.error_seed)
    }
}

/// Outcome of one transient-fault run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientResult {
    /// Delivered (multicast, destination) pairs over expected ones; 1.0
    /// when nothing was lost.
    pub delivery_ratio: f64,
    /// Mean latency of the multicasts that completed (`None` if none).
    pub mean_latency: Option<f64>,
    /// Multicasts launched.
    pub launched: usize,
    /// Multicasts fully delivered.
    pub completed: usize,
    /// Flits damaged (but transmitted) on a link.
    pub flits_corrupted: u64,
    /// Flits lost outright on a link.
    pub flits_dropped_transient: u64,
    /// Link-level replays performed by switch outputs.
    pub link_retries: u64,
    /// Worms killed after a link exhausted its retry budget.
    pub retry_exhaustions: u64,
    /// Destinations whose first delivery came from an NI retransmission.
    pub e2e_recoveries: u64,
    /// Packets re-sent by source NIs on delivery timeout.
    pub retransmissions: u64,
    /// Deliveries suppressed as duplicates.
    pub duplicate_deliveries: u64,
    /// Worm copies truncated or discarded.
    pub worms_killed: u64,
    /// Useful transmissions over all transmissions (1.0 = no damage).
    pub goodput: f64,
    /// Simulated cycles, event jumps included
    /// ([`irrnet_sim::SimStats::cycles_run`]).
    pub cycles_run: u64,
}

/// Run one transient-fault experiment.
///
/// Plans are computed on the (always healthy) network; damage strikes
/// individual flits mid-flight per the seeded [`ErrorModel`], and the
/// enabled recovery mechanisms — link-level retry at the switch,
/// end-to-end retransmission at the NI, both, or neither — determine how
/// much of the traffic still arrives.
pub fn run_transient(
    net: &Network,
    cfg: &SimConfig,
    scheme: impl Into<SchemeId>,
    tc: &TransientConfig,
) -> Result<TransientResult, SimError> {
    let scheme = scheme.into();
    let n = net.topo.num_nodes();
    let mut rng = SmallRng::seed_from_u64(tc.seed);
    let mut proto = SchemeProtocol::new();
    let mut launches = Vec::with_capacity(tc.mcasts);
    for i in 0..tc.mcasts {
        let (source, dests) = crate::single::random_mcast(&mut rng, n, tc.degree);
        let id = McastId(i as u64);
        let plan = plan_multicast(net, cfg, scheme, source, dests.clone(), tc.message_flits);
        proto.add(id, Arc::new(plan));
        launches.push((i as Cycle * tc.interval, id, dests));
    }

    let mut run_cfg = cfg.clone();
    run_cfg.watchdog_recovery_limit = tc.recovery_limit;
    let mut sim = Simulator::new(net, run_cfg, proto)?;
    for (t, id, dests) in launches {
        sim.schedule_multicast(t, id, dests, tc.message_flits);
    }

    sim.install_errors(&tc.error_model());
    if tc.link_retry {
        sim.enable_link_retry(LinkRetryPolicy::default_for(cfg));
    }
    if tc.retx {
        sim.enable_retransmission(RetxPolicy::default_for(cfg));
    }

    sim.run_until(tc.horizon)?;

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
    Ok(TransientResult {
        delivery_ratio: stats.delivery_ratio(),
        mean_latency,
        launched: stats.mcasts.len(),
        completed,
        flits_corrupted: stats.net.flits_corrupted,
        flits_dropped_transient: stats.net.flits_dropped_transient,
        link_retries: stats.net.link_retries,
        retry_exhaustions: stats.net.retry_exhaustions,
        e2e_recoveries: stats.net.e2e_recoveries,
        retransmissions: stats.net.retransmissions,
        duplicate_deliveries: stats.net.duplicate_deliveries,
        worms_killed: stats.net.worms_killed,
        goodput: stats.goodput_ratio(),
        cycles_run: stats.cycles_run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use irrnet_core::Scheme;
    use irrnet_topology::zoo;

    fn quick(error_ppb: u32, link_retry: bool, retx: bool) -> TransientConfig {
        TransientConfig {
            mcasts: 12,
            interval: 3_000,
            horizon: 2_000_000,
            ..TransientConfig::paper_default(error_ppb, link_retry, retx)
        }
    }

    #[test]
    fn zero_rate_is_lossless_and_error_free() {
        let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
        let cfg = SimConfig::paper_default();
        // Recovery mechanisms armed but never triggered: a zero-rate
        // model must leave them (and the run) completely inert.
        let r = run_transient(&net, &cfg, Scheme::TreeWorm, &quick(0, true, true)).unwrap();
        assert_eq!(r.delivery_ratio, 1.0, "{r:?}");
        assert_eq!(r.completed, r.launched);
        assert_eq!(r.flits_corrupted, 0);
        assert_eq!(r.flits_dropped_transient, 0);
        assert_eq!(r.link_retries, 0);
        assert_eq!(r.retry_exhaustions, 0);
        assert_eq!(r.e2e_recoveries, 0);
        assert_eq!(r.retransmissions, 0);
        assert_eq!(r.worms_killed, 0);
        assert_eq!(r.goodput, 1.0);
    }

    #[test]
    fn transient_runs_are_deterministic_per_seed() {
        let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
        let cfg = SimConfig::paper_default();
        for (lr, retx) in [(false, false), (true, false), (false, true), (true, true)] {
            let a = run_transient(&net, &cfg, Scheme::UBinomial, &quick(2_000_000, lr, retx));
            let b = run_transient(&net, &cfg, Scheme::UBinomial, &quick(2_000_000, lr, retx));
            assert_eq!(a.unwrap(), b.unwrap(), "link_retry={lr} retx={retx}");
        }
    }

    #[test]
    fn damage_without_recovery_loses_deliveries() {
        let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
        let cfg = SimConfig::paper_default();
        let r = run_transient(&net, &cfg, Scheme::TreeWorm, &quick(5_000_000, false, false))
            .unwrap();
        let damaged = r.flits_corrupted + r.flits_dropped_transient;
        assert!(damaged > 0, "{r:?}");
        assert!(r.worms_killed > 0, "{r:?}");
        assert!(r.delivery_ratio < 1.0, "{r:?}");
        assert!(r.goodput < 1.0, "{r:?}");
    }

    #[test]
    fn link_retry_masks_moderate_rates_completely() {
        let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
        let cfg = SimConfig::paper_default();
        // At 0.2% per flit with an 8-deep retry budget, the chance of a
        // budget-exhausting failure streak is negligible: every worm must
        // arrive, purely via link-level replays.
        let r = run_transient(&net, &cfg, Scheme::UBinomial, &quick(2_000_000, true, false))
            .unwrap();
        assert!(r.link_retries > 0, "{r:?}");
        assert_eq!(r.retry_exhaustions, 0, "{r:?}");
        assert_eq!(r.delivery_ratio, 1.0, "{r:?}");
        assert_eq!(r.completed, r.launched);
    }

    #[test]
    fn e2e_retransmission_recovers_what_the_network_loses() {
        let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
        let cfg = SimConfig::paper_default();
        let with = run_transient(&net, &cfg, Scheme::UBinomial, &quick(5_000_000, false, true))
            .unwrap();
        let without =
            run_transient(&net, &cfg, Scheme::UBinomial, &quick(5_000_000, false, false))
                .unwrap();
        assert!(
            with.delivery_ratio >= without.delivery_ratio,
            "with={with:?} without={without:?}"
        );
        assert!(with.e2e_recoveries > 0, "{with:?}");
        assert!(with.retransmissions > 0, "{with:?}");
    }

    #[test]
    fn extreme_rates_escalate_past_the_retry_budget() {
        let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
        let cfg = SimConfig::paper_default();
        // 60% per flit: failure streaks longer than the retry budget are
        // routine, so the escalation ladder's last rung — kill the worm,
        // let the NI re-send — must fire (and the run must stay clean:
        // the CI audit leg runs this test under IRRNET_AUDIT=1).
        let mut tc = quick(600_000_000, true, true);
        tc.mcasts = 4;
        tc.horizon = 1_000_000;
        let r = run_transient(&net, &cfg, Scheme::UBinomial, &tc).unwrap();
        assert!(r.retry_exhaustions > 0, "{r:?}");
        assert!(r.link_retries > 0, "{r:?}");
        assert!(r.worms_killed > 0, "{r:?}");
    }
}
