//! Multicast latency under increasing applied load (§4.3).
//!
//! Open-loop traffic: every node generates multicasts with exponential
//! inter-arrival times and uniformly random destination sets of a fixed
//! degree. Following the paper, the x-axis is the *effective applied
//! load* — for a multicast of degree `d` and per-node injection load `l`
//! (fraction of a node's link bandwidth spent on message payloads), the
//! effective applied load is `l · d`, since every generated flit is
//! delivered `d` times.
//!
//! Simulations run for a cold-start (warm-up) period followed by a
//! measurement window; latency is averaged over multicasts *launched* in
//! the window, and a run is flagged saturated when too few of them
//! complete by the end of the run.

use crate::scenario::{check_rate, check_shape, Scenario, Stop, WorkloadError};
use crate::single::random_dests;
use crate::stats::Summary;
use irrnet_core::rng::SmallRng;
use irrnet_core::SchemeId;
use irrnet_sim::{Cycle, SimConfig, SimStats};
use irrnet_topology::{Network, NodeId};

/// Parameters of one load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Multicast degree (destinations per multicast); the paper uses
    /// 8-way and 16-way.
    pub degree: usize,
    /// Message length in flits.
    pub message_flits: u32,
    /// Effective applied load (per-node injection load × degree). The
    /// per-node injection load is a fraction of the link and at most 1.
    pub effective_load: f64,
    /// Cold-start cycles excluded from measurement (paper: 100,000).
    pub warmup: Cycle,
    /// Measurement window length (paper: ≥ 1,000,000 total run).
    pub measure: Cycle,
    /// Extra cycles after the window to let measured multicasts finish.
    pub drain: Cycle,
    /// Workload RNG seed.
    pub seed: u64,
}

impl LoadConfig {
    /// Paper-shaped defaults at a given degree and load.
    pub fn paper_default(degree: usize, effective_load: f64) -> Self {
        LoadConfig {
            degree,
            message_flits: 128,
            effective_load,
            warmup: 100_000,
            measure: 900_000,
            drain: 300_000,
            seed: 0xF00D,
        }
    }

    /// Per-node multicast generation rate in messages per cycle.
    pub fn msgs_per_cycle_per_node(&self) -> f64 {
        self.effective_load / (self.degree as f64 * self.message_flits as f64)
    }
}

/// Outcome of one load run.
#[derive(Debug, Clone, Copy)]
pub struct LoadResult {
    /// Mean latency of multicasts launched in the measurement window that
    /// completed before the run ended (`None` if none completed).
    pub mean_latency: Option<f64>,
    /// Multicasts launched in the window.
    pub launched: usize,
    /// Of those, how many completed.
    pub completed: usize,
    /// Multicasts completed by the end of the run, whatever their launch
    /// cycle: the throughput left past saturation, where `completed`
    /// reads 0.
    pub completed_all: usize,
    /// True when the network could not keep up (completion rate below
    /// 90% — latencies past this point are censored and the paper's
    /// curves shoot up).
    pub saturated: bool,
    /// Distribution of the measured latencies (mean/σ/percentiles), when
    /// any multicast completed.
    pub latency: Option<Summary>,
    /// Simulated cycles, event jumps included
    /// ([`irrnet_sim::SimStats::cycles_run`]).
    pub cycles_run: u64,
    /// Sweeps the engine executed ([`irrnet_sim::SimStats::sweeps_run`]).
    pub sweeps_run: u64,
}

/// Run one open-loop multicast load experiment.
pub fn run_load(
    net: &Network,
    cfg: &SimConfig,
    scheme: SchemeId,
    lc: &LoadConfig,
) -> Result<LoadResult, WorkloadError> {
    let n = net.topo.num_nodes();
    check_shape(lc.degree, n, lc.message_flits)?;
    check_rate("effective load", lc.effective_load)?;
    // A host cannot inject more payload than its link carries. Checking
    // this before drawing also bounds the arrivals drawn below at about
    // hosts × horizon / message_flits.
    let per_node = lc.effective_load / lc.degree as f64;
    if per_node > 1.0 {
        return Err(WorkloadError::Input(format!(
            "effective load {} at degree {} is a per-node injection load of {per_node}, above 1",
            lc.effective_load, lc.degree
        )));
    }
    let rate = lc.msgs_per_cycle_per_node();
    let horizon = lc.warmup + lc.measure;
    let mut rng = SmallRng::seed_from_u64(lc.seed);

    // Pre-generate all arrivals (open loop: independent of network state).
    let mut arrivals: Vec<(Cycle, NodeId)> = Vec::new();
    for node in 0..n {
        let mut t = 0.0f64;
        loop {
            // Exponential inter-arrival via inverse transform.
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / rate;
            if t >= horizon as f64 {
                break;
            }
            arrivals.push((t as Cycle, NodeId(node as u16)));
        }
    }
    arrivals.sort_unstable_by_key(|&(t, n)| (t, n.0));
    let launches = arrivals
        .into_iter()
        .map(|(t, source)| (t, source, random_dests(&mut rng, n, lc.degree, source)))
        .collect();

    let stop = Stop::At(horizon + lc.drain);
    let out = Scenario::new(net, cfg, scheme, lc.message_flits, launches, stop).run()?;
    Ok(window(&out.stats, lc.warmup, horizon))
}

/// Summarize the multicasts launched in `[from, to)`.
pub(crate) fn window(stats: &SimStats, from: Cycle, to: Cycle) -> LoadResult {
    let mut launched = 0usize;
    let mut samples = Vec::new();
    for r in stats.mcasts.values().filter(|r| r.launched >= from && r.launched < to) {
        launched += 1;
        if let Some(l) = r.latency() {
            samples.push(l as f64);
        }
    }
    let completed = samples.len();
    LoadResult {
        mean_latency: stats.mean_latency_in_window(from, to),
        launched,
        completed,
        completed_all: stats.completed_count(),
        saturated: launched > 0 && (completed as f64) < 0.9 * launched as f64,
        latency: Summary::of(&samples),
        cycles_run: stats.cycles_run,
        sweeps_run: stats.sweeps_run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irrnet_core::SchemeId;
    use irrnet_topology::zoo;

    fn quick_lc(load: f64) -> LoadConfig {
        LoadConfig {
            degree: 4,
            message_flits: 128,
            effective_load: load,
            warmup: 20_000,
            measure: 120_000,
            drain: 80_000,
            seed: 7,
        }
    }

    #[test]
    fn light_load_is_unsaturated_and_near_isolated_latency() {
        let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
        let cfg = SimConfig::paper_default();
        let r = run_load(&net, &cfg, SchemeId::TREE, &quick_lc(0.02)).unwrap();
        assert!(!r.saturated, "{r:?}");
        assert!(r.launched > 0);
        let lat = r.mean_latency.unwrap();
        // Isolated 4-way tree multicast is ~1.5k cycles; light load should
        // be within 3x of that.
        assert!(lat < 5_000.0, "latency {lat}");
    }

    #[test]
    fn heavy_load_saturates() {
        let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
        let cfg = SimConfig::paper_default();
        // Far beyond the unicast saturation point of ~0.8.
        let r = run_load(&net, &cfg, SchemeId::UBINOMIAL, &quick_lc(3.0)).unwrap();
        assert!(r.saturated, "{r:?}");
    }

    #[test]
    fn latency_grows_with_load() {
        let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
        let cfg = SimConfig::paper_default();
        let lo = run_load(&net, &cfg, SchemeId::TREE, &quick_lc(0.02)).unwrap();
        let hi = run_load(&net, &cfg, SchemeId::TREE, &quick_lc(0.4)).unwrap();
        assert!(
            hi.mean_latency.unwrap() > lo.mean_latency.unwrap(),
            "lo={lo:?} hi={hi:?}"
        );
    }

    #[test]
    fn bad_loads_are_rejected_before_drawing() {
        let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
        let cfg = SimConfig::paper_default();
        let n = net.topo.num_nodes();
        let bad = [
            LoadConfig { degree: 0, ..quick_lc(0.1) },
            LoadConfig { degree: n, ..quick_lc(0.1) },
            LoadConfig { message_flits: 0, ..quick_lc(0.1) },
            quick_lc(0.0),
            quick_lc(-1.0),
            quick_lc(f64::NAN),
            quick_lc(f64::INFINITY),
            quick_lc(1e9),
        ];
        for lc in &bad {
            let r = run_load(&net, &cfg, SchemeId::TREE, lc);
            assert!(matches!(r, Err(WorkloadError::Input(_))), "{lc:?}: {r:?}");
        }
    }

    #[test]
    fn rate_formula() {
        let lc = LoadConfig::paper_default(8, 0.4);
        let r = lc.msgs_per_cycle_per_node();
        assert!((r - 0.4 / (8.0 * 128.0)).abs() < 1e-12);
    }
}
