//! The one pipeline from planned multicasts to a finished simulation.
//!
//! A [`Scenario`] says what to simulate: a network and configuration, one
//! scheme and message length, the multicasts to launch, the damage to
//! inflict (a permanent [`FaultPlan`], a transient [`ErrorModel`]), the
//! recovery mechanisms to arm, and when to stop. [`Scenario::run`] plans
//! every launch, builds the simulator, installs the mechanisms and runs
//! it. Every workload is a launch source over it: each decides only
//! which multicasts launch when (one multicast at cycle 0, an open-loop
//! Poisson stream, a DSM invalidation trace, a periodic stream under
//! damage) and reads what it reports from the returned [`SimStats`].

use irrnet_core::{PlanError, PlanMeta, SchemeId, SchemeProtocol};
use irrnet_sim::{
    Cycle, LinkRetryPolicy, McastId, RetxPolicy, SimConfig, SimError, SimStats, Simulator,
};
use irrnet_topology::{ErrorModel, FaultPlan, Network, NodeId, NodeMask};
use std::sync::Arc;

/// One multicast to launch: `(cycle, source, destinations)`.
pub type Launch = (Cycle, NodeId, NodeMask);

/// Why a workload could not be built or run.
#[derive(Debug, Clone)]
pub enum WorkloadError {
    /// The workload's parameters describe no valid run (a degree that
    /// leaves no room for the source, an empty message, a rate that is
    /// not finite and positive, nothing to average over). Checked before
    /// anything is drawn.
    Input(String),
    /// Planning a multicast failed.
    Plan(PlanError),
    /// The simulation failed.
    Sim(SimError),
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::Input(msg) => write!(f, "bad workload: {msg}"),
            WorkloadError::Plan(e) => write!(f, "planning failed: {e}"),
            WorkloadError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

// `Display` already names the cause, so `source` stays `None`: a
// reporter walking the chain would print it twice.
impl std::error::Error for WorkloadError {}

impl From<PlanError> for WorkloadError {
    fn from(e: PlanError) -> Self {
        WorkloadError::Plan(e)
    }
}

impl From<SimError> for WorkloadError {
    fn from(e: SimError) -> Self {
        WorkloadError::Sim(e)
    }
}

/// Reject a multicast shape that no run can carry: a degree of 0, one
/// that leaves no host for the source, or a zero-flit message.
pub(crate) fn check_shape(
    degree: usize,
    hosts: usize,
    message_flits: u32,
) -> Result<(), WorkloadError> {
    if degree == 0 || degree >= hosts {
        return Err(WorkloadError::Input(format!(
            "degree {degree} must be between 1 and {} on {hosts} hosts",
            hosts.saturating_sub(1)
        )));
    }
    check_flits(message_flits)
}

fn check_flits(message_flits: u32) -> Result<(), WorkloadError> {
    if message_flits == 0 {
        return Err(WorkloadError::Input("messages must carry at least one flit".into()));
    }
    Ok(())
}

/// Reject a rate (applied load, write rate) that is not finite and
/// positive: it would draw no arrivals or infinitely many.
pub(crate) fn check_rate(what: &str, rate: f64) -> Result<(), WorkloadError> {
    if rate.is_finite() && rate > 0.0 {
        Ok(())
    } else {
        Err(WorkloadError::Input(format!("{what} {rate} is not finite and positive")))
    }
}

/// When a scenario's simulation stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// Run until every launched multicast completes; reaching this cycle
    /// first is [`SimError::CycleLimit`].
    Complete(Cycle),
    /// Run until this cycle, or until all work drains.
    At(Cycle),
}

/// Everything one simulation needs; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct Scenario<'n> {
    /// The analyzed network (plans are made on it healthy).
    pub net: &'n Network,
    /// Simulator configuration.
    pub cfg: SimConfig,
    /// Scheme every multicast is planned under.
    pub scheme: SchemeId,
    /// Message length in flits.
    pub message_flits: u32,
    /// The multicasts, in id order: launch `i` runs as `McastId(i)`.
    pub launches: Vec<Launch>,
    /// Components killed mid-run, if any.
    pub faults: Option<FaultPlan>,
    /// Per-link transient errors, if any.
    pub errors: Option<ErrorModel>,
    /// Arm switch-side link-level retry ([`LinkRetryPolicy::default_for`]).
    pub link_retry: bool,
    /// Arm NI delivery timeouts and retransmission
    /// ([`RetxPolicy::default_for`]).
    pub retx: bool,
    /// When the run ends.
    pub stop: Stop,
}

/// What a scenario run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The simulator's statistics, moved out of it.
    pub stats: SimStats,
    /// Plan facts of every launch, in launch order.
    pub plans: Vec<PlanMeta>,
}

impl<'n> Scenario<'n> {
    /// A healthy scenario: no damage, no recovery mechanisms.
    pub fn new(
        net: &'n Network,
        cfg: &SimConfig,
        scheme: SchemeId,
        message_flits: u32,
        launches: Vec<Launch>,
        stop: Stop,
    ) -> Self {
        Scenario {
            net,
            cfg: cfg.clone(),
            scheme,
            message_flits,
            launches,
            faults: None,
            errors: None,
            link_retry: false,
            retx: false,
            stop,
        }
    }

    /// Plan every launch, simulate, and return the statistics.
    ///
    /// Mechanisms go in as faults, errors, link retry, retransmission;
    /// an empty fault plan or a zero-rate error model leaves the run
    /// byte-identical to a healthy one.
    pub fn run(self) -> Result<Outcome, WorkloadError> {
        let Scenario { net, cfg, scheme, message_flits: flits, launches, .. } = self;
        check_flits(flits)?;
        let n = net.topo.num_nodes();
        let mut proto = SchemeProtocol::new();
        let mut plans = Vec::with_capacity(launches.len());
        for (i, (_, source, dests)) in launches.iter().enumerate() {
            let bad = std::iter::once(*source).chain(dests.iter()).find(|v| v.0 as usize >= n);
            if let Some(bad) = bad {
                return Err(WorkloadError::Input(format!("node {bad} is not among the {n} hosts")));
            }
            let plan =
                irrnet_core::try_plan_multicast(net, &cfg, scheme, *source, dests.clone(), flits)?;
            plans.push(plan.meta);
            proto.add(McastId(i as u64), Arc::new(plan));
        }
        let link_retry = self.link_retry.then(|| LinkRetryPolicy::default_for(&cfg));
        let retx = self.retx.then(|| RetxPolicy::default_for(&cfg));
        let mut sim = Simulator::new(net, cfg, proto)?;
        for (i, (at, _, dests)) in launches.into_iter().enumerate() {
            sim.schedule_multicast(at, McastId(i as u64), dests, flits);
        }
        if let Some(plan) = &self.faults {
            sim.install_faults(plan);
        }
        if let Some(model) = &self.errors {
            sim.install_errors(model);
        }
        if let Some(policy) = link_retry {
            sim.enable_link_retry(policy);
        }
        if let Some(policy) = retx {
            sim.enable_retransmission(policy);
        }
        match self.stop {
            Stop::Complete(limit) => drop(sim.run_to_completion(limit)?),
            Stop::At(limit) => sim.run_until(limit)?,
        }
        Ok(Outcome { stats: sim.into_stats(), plans })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irrnet_core::SchemeId;
    use irrnet_topology::zoo;

    fn net() -> Network {
        Network::analyze(zoo::paper_example().unwrap()).unwrap()
    }

    fn one(dests: NodeMask) -> Vec<Launch> {
        vec![(0, NodeId(0), dests)]
    }

    #[test]
    fn bad_launches_are_typed_errors() {
        let net = net();
        let cfg = SimConfig::paper_default();
        let run = |launches, flits| {
            Scenario::new(&net, &cfg, SchemeId::TREE, flits, launches, Stop::Complete(1 << 30))
                .run()
                .unwrap_err()
        };
        let far = NodeId(net.topo.num_nodes() as u16);
        assert!(matches!(run(one(NodeMask::single(NodeId(1))), 0), WorkloadError::Input(_)));
        assert!(matches!(run(one(NodeMask::single(far)), 128), WorkloadError::Input(_)));
        assert!(matches!(
            run(one(NodeMask::EMPTY), 128),
            WorkloadError::Plan(PlanError::EmptyDestinations)
        ));
        assert!(matches!(
            run(one(NodeMask::single(NodeId(0))), 128),
            WorkloadError::Plan(PlanError::SourceInDestinations)
        ));
    }

    #[test]
    fn a_run_that_cannot_complete_reports_the_limit() {
        let net = net();
        let cfg = SimConfig::paper_default();
        let s = Scenario::new(
            &net,
            &cfg,
            SchemeId::TREE,
            128,
            one(NodeMask::from_nodes((1..=4).map(NodeId))),
            Stop::Complete(10),
        );
        assert!(matches!(s.run(), Err(WorkloadError::Sim(SimError::CycleLimit { .. }))));
    }
}
