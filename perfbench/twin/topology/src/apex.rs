//! Up-phase guidance for tree-based multidestination worms.
//!
//! A tree-based worm "travel\[s\] adaptively to a least common ancestor
//! switch using links in the up direction" (§3.2.3) before fanning out
//! downward. In hardware each switch makes this decision locally: if the
//! union of its downward reachability strings covers the worm's header it
//! starts replicating; otherwise it forwards the worm out an up port.
//!
//! [`ApexPlan`] precomputes, for a given destination set, the same
//! information the distributed decision produces: for each switch the worm
//! could visit during its up phase, whether the switch covers the set and
//! which up ports lie on a **shortest** up-path to some covering switch.
//! The simulator then realizes the adaptivity (several candidate ports,
//! first-free wins) without re-deriving reachability per cycle.

use crate::graph::Topology;
use crate::ids::{PortIdx, SwitchId};
use crate::mask::NodeMask;
use crate::reach::Reachability;
use crate::updown::UpDown;
use std::collections::VecDeque;

/// Guidance for the up phase of one tree-based worm.
#[derive(Debug, Clone)]
pub struct ApexPlan {
    /// The destination set the plan was computed for.
    pub dests: NodeMask,
    /// `up_dist[s]` — minimal number of up traversals from `s` to a switch
    /// covering `dests` (0 if `s` itself covers); `u16::MAX` if none (can
    /// only happen for an empty up component, impossible in a connected
    /// up*/down* network because the root covers everything).
    up_dist: Vec<u16>,
    /// `up_ports[s]` — the up output ports of `s` on shortest up-paths to
    /// a covering switch. Empty iff `up_dist[s] == 0`.
    up_ports: Vec<Vec<PortIdx>>,
}

impl ApexPlan {
    /// Build the plan for `dests` on the analyzed network.
    pub fn compute(
        topo: &Topology,
        updown: &UpDown,
        reach: &Reachability,
        dests: NodeMask,
    ) -> Self {
        let n = topo.num_switches();
        let mut up_dist = vec![u16::MAX; n];
        let mut q = VecDeque::new();
        // Multi-source backward BFS over *up* edges: sources are covering
        // switches. We need distances along up traversals from s toward a
        // covering switch, i.e. BFS from covering switches along *reversed*
        // up edges (which are down traversals).
        for (s, d) in up_dist.iter_mut().enumerate() {
            if reach.covers(SwitchId(s as u16), &dests) {
                *d = 0;
                q.push_back(s);
            }
        }
        while let Some(s) = q.pop_front() {
            let d = up_dist[s];
            // Predecessors: switches p with an up traversal p -> s, i.e.
            // the down links of s lead to exactly those p.
            for (_, peer, _) in updown.down_links(topo, SwitchId(s as u16)) {
                let pi = peer.idx();
                if up_dist[pi] == u16::MAX {
                    up_dist[pi] = d + 1;
                    q.push_back(pi);
                }
            }
        }
        let mut up_ports = vec![Vec::new(); n];
        for s in 0..n {
            let d = up_dist[s];
            if d == 0 || d == u16::MAX {
                continue;
            }
            let sid = SwitchId(s as u16);
            for (_, peer, port) in updown.up_links(topo, sid) {
                if up_dist[peer.idx()] + 1 == d {
                    up_ports[s].push(port);
                }
            }
            debug_assert!(!up_ports[s].is_empty(), "no minimal up port despite finite dist");
        }
        ApexPlan { dests, up_dist, up_ports }
    }

    /// True if `s` covers the destination set (the worm turns downward).
    #[inline]
    pub fn covered_at(&self, s: SwitchId) -> bool {
        self.up_dist[s.idx()] == 0
    }

    /// Minimal up traversals from `s` to a covering switch.
    #[inline]
    pub fn up_distance(&self, s: SwitchId) -> u16 {
        self.up_dist[s.idx()]
    }

    /// Candidate up ports at `s` (empty iff covered at `s`).
    #[inline]
    pub fn up_ports(&self, s: SwitchId) -> &[PortIdx] {
        &self.up_ports[s.idx()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TopologyBuilder;
    use crate::ids::NodeId;

    /// Chain with a fork:  S0 - S1 - S2, S1 - S3.  Hosts: one per switch.
    fn fixture() -> (Topology, UpDown, Reachability) {
        let mut b = TopologyBuilder::new();
        let s: Vec<_> = (0..4).map(|_| b.add_switch(8)).collect();
        b.add_link(s[0], s[1]).unwrap();
        b.add_link(s[1], s[2]).unwrap();
        b.add_link(s[1], s[3]).unwrap();
        for &sw in &s {
            b.add_host(sw).unwrap();
        }
        let t = b.build().unwrap();
        let ud = UpDown::compute(&t, s[0]).unwrap();
        let r = Reachability::compute(&t, &ud).unwrap();
        (t, ud, r)
    }

    #[test]
    fn local_destination_needs_no_climb() {
        let (t, ud, r) = fixture();
        let plan = ApexPlan::compute(&t, &ud, &r, NodeMask::single(NodeId(2)));
        assert!(plan.covered_at(SwitchId(2)));
        assert_eq!(plan.up_distance(SwitchId(2)), 0);
        assert!(plan.up_ports(SwitchId(2)).is_empty());
    }

    #[test]
    fn sibling_destinations_meet_at_common_ancestor() {
        let (t, ud, r) = fixture();
        // n2 (at S2) and n3 (at S3): S1 is the lowest covering switch.
        let dests = NodeMask::from_nodes([NodeId(2), NodeId(3)]);
        let plan = ApexPlan::compute(&t, &ud, &r, dests);
        assert!(plan.covered_at(SwitchId(1)));
        assert!(plan.covered_at(SwitchId(0)));
        assert!(!plan.covered_at(SwitchId(2)));
        assert_eq!(plan.up_distance(SwitchId(2)), 1);
        assert_eq!(plan.up_ports(SwitchId(2)).len(), 1);
    }

    #[test]
    fn climb_distance_accumulates() {
        let (t, ud, r) = fixture();
        // Destination n0 (at the root's switch): from S2 the worm must
        // climb S2 -> S1 -> S0.
        let plan = ApexPlan::compute(&t, &ud, &r, NodeMask::single(NodeId(0)));
        assert_eq!(plan.up_distance(SwitchId(2)), 2);
        assert_eq!(plan.up_distance(SwitchId(1)), 1);
        assert!(plan.covered_at(SwitchId(0)));
    }

    #[test]
    fn every_switch_has_finite_distance() {
        let (t, ud, r) = fixture();
        let plan = ApexPlan::compute(&t, &ud, &r, NodeMask::all(t.num_nodes()));
        for (s, _) in t.switches() {
            assert_ne!(plan.up_distance(s), u16::MAX);
        }
    }
}
