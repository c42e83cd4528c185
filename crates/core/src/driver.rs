//! Runtime driver: executes [`McastPlan`]s inside the simulator.
//!
//! [`SchemeProtocol`] implements [`irrnet_sim::Protocol`] by table lookup
//! into the plans registered per multicast id — it is the "software" of
//! all schemes at once, so a single simulation can carry a mixed
//! workload (and the load experiments run many concurrent multicasts of
//! one scheme). A callback for an unregistered multicast id is reported
//! as a typed [`ProtocolError`] instead of a panic; the engine aborts the
//! run with `SimError::Protocol`.

use crate::plan::McastPlan;
use irrnet_sim::{McastId, Protocol, ProtocolError, SendSpec, WormCopy};
use irrnet_topology::NodeId;
use std::collections::HashMap;
use std::sync::Arc;

/// Protocol implementation driven by registered plans.
#[derive(Debug, Default)]
pub struct SchemeProtocol {
    plans: HashMap<McastId, Arc<McastPlan>>,
}

impl SchemeProtocol {
    /// Empty driver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register the plan for a multicast id (before its launch time).
    pub fn add(&mut self, id: McastId, plan: Arc<McastPlan>) {
        let prev = self.plans.insert(id, plan);
        assert!(prev.is_none(), "duplicate plan for {id:?}");
    }

    /// Look up a registered plan.
    pub fn plan(&self, id: McastId) -> Option<&Arc<McastPlan>> {
        self.plans.get(&id)
    }

    fn plan_or_err(&self, id: McastId) -> Result<&Arc<McastPlan>, ProtocolError> {
        self.plans.get(&id).ok_or(ProtocolError::UnknownMcast(id))
    }
}

impl Protocol for SchemeProtocol {
    fn on_launch(
        &mut self,
        mcast: McastId,
        _now: u64,
    ) -> Result<Vec<(NodeId, SendSpec)>, ProtocolError> {
        let plan = self.plan_or_err(mcast)?;
        Ok(plan.initial.iter().cloned().map(|s| (plan.source, s)).collect())
    }

    fn on_message_delivered(
        &mut self,
        node: NodeId,
        mcast: McastId,
        _now: u64,
    ) -> Result<Vec<(McastId, SendSpec)>, ProtocolError> {
        let plan = self.plan_or_err(mcast)?;
        Ok(plan
            .on_delivered
            .get(&node)
            .cloned()
            .unwrap_or_default()
            .into_iter()
            .map(|s| (mcast, s))
            .collect())
    }

    fn on_packet_at_ni(
        &mut self,
        node: NodeId,
        worm: &WormCopy,
        _now: u64,
    ) -> Result<Vec<SendSpec>, ProtocolError> {
        let plan = self.plan_or_err(worm.mcast)?;
        // Capability gate: only schemes declaring NI forwarding carry the
        // side tables below (planning checks that the tables are empty
        // otherwise).
        if !plan.scheme.caps().ni_forwarding {
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        if let Some(children) = plan.fpfs_children.get(&node) {
            out.push(SendSpec::FpfsChildren { children: children.clone() });
        }
        if let Some(worms) = plan.ni_path_forwards.get(&node) {
            out.extend(worms.iter().cloned().map(|spec| SendSpec::Path { spec }));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{try_plan_multicast, SchemeId};
    use irrnet_sim::SimConfig;
    use irrnet_topology::{zoo, Network, NodeMask};

    #[test]
    fn launch_returns_source_sends() {
        let net = Network::analyze(zoo::chain(3).unwrap()).unwrap();
        let cfg = SimConfig::paper_default();
        let dests = NodeMask::from_nodes([NodeId(1), NodeId(2)]);
        let plan =
            try_plan_multicast(&net, &cfg, SchemeId::UBINOMIAL, NodeId(0), dests, 128).unwrap();
        let mut proto = SchemeProtocol::new();
        proto.add(McastId(7), Arc::new(plan));
        let sends = proto.on_launch(McastId(7), 0).unwrap();
        assert!(!sends.is_empty());
        assert!(sends.iter().all(|(n, _)| *n == NodeId(0)));
    }

    #[test]
    #[should_panic(expected = "duplicate plan")]
    fn duplicate_registration_panics() {
        let net = Network::analyze(zoo::chain(2).unwrap()).unwrap();
        let cfg = SimConfig::paper_default();
        let dests = NodeMask::single(NodeId(1));
        let plan = try_plan_multicast(&net, &cfg, SchemeId::TREE, NodeId(0), dests, 128).unwrap();
        let plan = Arc::new(plan);
        let mut proto = SchemeProtocol::new();
        proto.add(McastId(0), plan.clone());
        proto.add(McastId(0), plan);
    }

    #[test]
    fn non_forwarding_nodes_return_nothing() {
        let net = Network::analyze(zoo::chain(3).unwrap()).unwrap();
        let cfg = SimConfig::paper_default();
        let dests = NodeMask::from_nodes([NodeId(1), NodeId(2)]);
        let plan = try_plan_multicast(&net, &cfg, SchemeId::TREE, NodeId(0), dests, 128).unwrap();
        let mut proto = SchemeProtocol::new();
        proto.add(McastId(1), Arc::new(plan));
        assert!(proto.on_message_delivered(NodeId(1), McastId(1), 0).unwrap().is_empty());
    }

    #[test]
    fn unknown_mcast_is_a_typed_error() {
        let mut proto = SchemeProtocol::new();
        let err = proto.on_launch(McastId(3), 0).unwrap_err();
        assert_eq!(err, ProtocolError::UnknownMcast(McastId(3)));
    }
}
