//! Single-multicast latency experiments (§4.2).
//!
//! "We assume that exactly one multicast occurs in the system at any given
//! time and that there is no other network traffic. This gives us an
//! estimate of the best possible performance of each of the three schemes
//! in isolation."

use crate::scenario::{check_shape, Scenario, Stop, WorkloadError};
use irrnet_core::rng::SmallRng;
use irrnet_core::{PlanMeta, SchemeId};
use irrnet_sim::{McastId, SimConfig};
use irrnet_topology::{Network, NodeId, NodeMask};

/// Result of one single-multicast run.
#[derive(Debug, Clone, Copy)]
pub struct SingleResult {
    /// Multicast latency in cycles (launch → last host delivery).
    pub latency: u64,
    /// Structural plan facts (worms, phases, k).
    pub meta: PlanMeta,
    /// Simulated cycles, event jumps included
    /// ([`irrnet_sim::SimStats::cycles_run`]).
    pub cycles_run: u64,
    /// Sweeps the engine executed ([`irrnet_sim::SimStats::sweeps_run`]).
    pub sweeps_run: u64,
}

/// Run one multicast on an idle network and return its latency.
pub fn run_single(
    net: &Network,
    cfg: &SimConfig,
    scheme: SchemeId,
    source: NodeId,
    dests: NodeMask,
    message_flits: u32,
) -> Result<SingleResult, WorkloadError> {
    let launch = vec![(0, source, dests)];
    let out =
        Scenario::new(net, cfg, scheme, message_flits, launch, Stop::Complete(500_000_000)).run()?;
    let stats = out.stats;
    Ok(SingleResult {
        latency: stats.latency_of(McastId(0)).expect("a completed run delivered everything"),
        meta: out.plans[0],
        cycles_run: stats.cycles_run,
        sweeps_run: stats.sweeps_run,
    })
}

/// Draw a random (source, destination set) pair of the given degree.
pub fn random_mcast(rng: &mut SmallRng, num_nodes: usize, degree: usize) -> (NodeId, NodeMask) {
    assert!(degree < num_nodes, "degree must leave room for a source");
    let source = NodeId(rng.gen_range(0..num_nodes) as u16);
    (source, random_dests(rng, num_nodes, degree, source))
}

/// Draw a uniform random destination set of `degree` nodes, excluding
/// `source`.
pub fn random_dests(
    rng: &mut SmallRng,
    num_nodes: usize,
    degree: usize,
    source: NodeId,
) -> NodeMask {
    assert!(degree < num_nodes, "degree must leave room for a source");
    let mut dests = NodeMask::EMPTY;
    while dests.len() < degree {
        let d = NodeId(rng.gen_range(0..num_nodes) as u16);
        if d != source {
            dests.insert(d);
        }
    }
    dests
}

/// Averaged single-multicast latency over several random (source, dests)
/// trials on one network.
pub fn mean_single_latency(
    net: &Network,
    cfg: &SimConfig,
    scheme: SchemeId,
    degree: usize,
    message_flits: u32,
    trials: usize,
    seed: u64,
) -> Result<f64, WorkloadError> {
    check_shape(degree, net.topo.num_nodes(), message_flits)?;
    if trials == 0 {
        return Err(WorkloadError::Input("a mean needs at least one trial".into()));
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sum = 0u64;
    for _ in 0..trials {
        let (source, dests) = random_mcast(&mut rng, net.topo.num_nodes(), degree);
        sum += run_single(net, cfg, scheme, source, dests, message_flits)?.latency;
    }
    Ok(sum as f64 / trials as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use irrnet_core::SchemeId;
    use irrnet_topology::zoo;

    #[test]
    fn run_single_reports_meta() {
        let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
        let cfg = SimConfig::paper_default();
        let dests = NodeMask::from_nodes((1..=4).map(NodeId));
        let r = run_single(&net, &cfg, SchemeId::TREE, NodeId(0), dests, 128).unwrap();
        assert!(r.latency > 0);
        assert_eq!(r.meta.worms, 1);
    }

    #[test]
    fn random_mcast_is_well_formed() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..50 {
            let (s, d) = random_mcast(&mut rng, 32, 8);
            assert_eq!(d.len(), 8);
            assert!(!d.contains(s));
        }
    }

    #[test]
    fn mean_is_deterministic_per_seed() {
        let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
        let cfg = SimConfig::paper_default();
        let a = mean_single_latency(&net, &cfg, SchemeId::NI_FPFS, 6, 128, 3, 42).unwrap();
        let b = mean_single_latency(&net, &cfg, SchemeId::NI_FPFS, 6, 128, 3, 42).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bad_shapes_are_rejected_before_drawing() {
        let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
        let cfg = SimConfig::paper_default();
        let n = net.topo.num_nodes();
        for (degree, flits, trials) in [(0, 128, 3), (n, 128, 3), (4, 0, 3), (4, 128, 0)] {
            let r = mean_single_latency(&net, &cfg, SchemeId::TREE, degree, flits, trials, 1);
            assert!(matches!(r, Err(WorkloadError::Input(_))), "{degree} {flits} {trials}: {r:?}");
        }
    }
}
