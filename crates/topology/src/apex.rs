//! Up-phase guidance for tree-based multidestination worms.
//!
//! A tree-based worm "travel\[s\] adaptively to a least common ancestor
//! switch using links in the up direction" (§3.2.3) before fanning out
//! downward. In hardware each switch makes this decision locally: if the
//! union of its downward reachability strings covers the worm's header it
//! starts replicating; otherwise it forwards the worm out an up port.
//!
//! [`ApexPlan`] precomputes, for a given source switch and destination
//! set, the same information the distributed decision produces: for each
//! switch the worm can visit during its up phase, whether the switch
//! covers the set and which up ports lie on a **shortest** up-path to some
//! covering switch. The simulator then realizes the adaptivity (several
//! candidate ports, first-free wins) without re-deriving reachability per
//! cycle.
//!
//! Only the switches a worm can climb through are visited: a
//! breadth-first climb from the source's switch, one level of up
//! traversals at a time, stops at the first level that holds a covering
//! switch, so the cover test runs only on the switches of the levels
//! below and at it.

use crate::graph::Topology;
use crate::ids::{PortIdx, SwitchId};
use crate::mask::NodeMask;
use crate::reach::Reachability;
use crate::updown::UpDown;
use std::cell::RefCell;

/// Guidance for the up phase of one tree-based worm.
///
/// The plan holds the switches on a shortest climb from the source's
/// switch to a covering switch — every switch the worm can reach while
/// climbing. Any other switch reads as not covering, at distance
/// `u16::MAX`, with no up ports.
#[derive(Debug, Clone)]
pub struct ApexPlan {
    /// The destination set the plan was computed for.
    pub dests: NodeMask,
    /// The switches on a shortest climb, ascending by id.
    climb: Vec<Climb>,
    /// Every up port of the climb, flat: switch `climb[i]`'s ports end at
    /// `climb[i].ports_end` and start where `climb[i - 1]`'s end.
    ports: Vec<PortIdx>,
}

/// One switch of a climb.
#[derive(Debug, Clone, Copy)]
struct Climb {
    switch: SwitchId,
    /// Up traversals to a covering switch (0 if the switch covers).
    up_dist: u16,
    ports_end: u32,
}

impl ApexPlan {
    /// Build the plan for a worm injected at switch `from` toward `dests`
    /// on the analyzed network.
    pub fn compute(
        topo: &Topology,
        updown: &UpDown,
        reach: &Reachability,
        from: SwitchId,
        dests: NodeMask,
    ) -> Self {
        let (climb, ports) = CLIMB.with_borrow_mut(|scratch| {
            let Scratch { order, seen } = scratch;
            climb(topo, updown, reach, from, &dests, order, seen)
        });
        ApexPlan { dests, climb, ports }
    }

    /// `s`'s entry in the climb, if any.
    #[inline]
    fn entry(&self, s: SwitchId) -> Option<usize> {
        self.climb.binary_search_by_key(&s, |c| c.switch).ok()
    }

    /// True if `s` covers the destination set (the worm turns downward).
    #[inline]
    pub fn covered_at(&self, s: SwitchId) -> bool {
        self.up_distance(s) == 0
    }

    /// Minimal up traversals from `s` to a covering switch.
    #[inline]
    pub fn up_distance(&self, s: SwitchId) -> u16 {
        self.entry(s).map_or(u16::MAX, |i| self.climb[i].up_dist)
    }

    /// Candidate up ports at `s` (empty iff covered at `s`).
    #[inline]
    pub fn up_ports(&self, s: SwitchId) -> &[PortIdx] {
        let Some(i) = self.entry(s) else { return &[] };
        let start = if i == 0 { 0 } else { self.climb[i - 1].ports_end };
        &self.ports[start as usize..self.climb[i].ports_end as usize]
    }
}

thread_local! {
    /// This thread's climb buffers, reused by every plan it computes.
    static CLIMB: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Working space of [`climb`], cleared on entry.
#[derive(Default)]
struct Scratch {
    /// The switches reached, level by level, with their level and whether
    /// they lie on a shortest climb (at first: whether they cover).
    order: Vec<(SwitchId, u16, bool)>,
    /// The same switches sorted by id, with each one's index in `order`.
    seen: Vec<(SwitchId, u32)>,
}

/// The switches on a shortest climb from `from` to a switch covering
/// `dests`, ascending, and their up ports in one flat array (see
/// [`ApexPlan`]).
fn climb(
    topo: &Topology,
    updown: &UpDown,
    reach: &Reachability,
    from: SwitchId,
    dests: &NodeMask,
    order: &mut Vec<(SwitchId, u16, bool)>,
    seen: &mut Vec<(SwitchId, u32)>,
) -> (Vec<Climb>, Vec<PortIdx>) {
    order.clear();
    order.push((from, 0, reach.covers(from, dests)));
    seen.clear();
    seen.push((from, 0));
    // Breadth-first, one level of up traversals at a time, until a level
    // holds a covering switch.
    let (mut lo, mut level) = (0, 0u16);
    while !order[lo..].iter().any(|&(_, _, covers)| covers) {
        let hi = order.len();
        level += 1;
        for i in lo..hi {
            for (_, peer, _) in updown.up_links(topo, order[i].0) {
                if let Err(at) = seen.binary_search_by_key(&peer, |&(s, _)| s) {
                    seen.insert(at, (peer, order.len() as u32));
                    order.push((peer, level, reach.covers(peer, dests)));
                }
            }
        }
        if order.len() == hi {
            // Nothing covers: only possible without a root that reaches
            // every destination.
            return (Vec::new(), Vec::new());
        }
        lo = hi;
    }
    // `level` is the apex level. Walk the levels back down: a switch lies
    // on a shortest climb iff an up port leads to one on the next level.
    let climbs_via = |order: &[(SwitchId, u16, bool)], i: usize, peer: SwitchId| {
        seen.binary_search_by_key(&peer, |&(s, _)| s).is_ok_and(|at| {
            let (_, peer_level, good) = order[seen[at].1 as usize];
            good && peer_level == order[i].1 + 1
        })
    };
    for i in (0..lo).rev() {
        let s = order[i].0;
        order[i].2 = updown.up_links(topo, s).any(|(_, peer, _)| climbs_via(order, i, peer));
    }
    let mut climb = Vec::with_capacity(order.iter().filter(|o| o.2).count());
    let mut ports = Vec::new();
    for &(s, i) in seen.iter() {
        let (_, at, good) = order[i as usize];
        if !good {
            continue;
        }
        ports.extend(
            updown
                .up_links(topo, s)
                .filter(|&(_, peer, _)| at < level && climbs_via(order, i as usize, peer))
                .map(|(_, _, port)| port),
        );
        climb.push(Climb { switch: s, up_dist: level - at, ports_end: ports.len() as u32 });
    }
    (climb, ports)
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
        let plan = ApexPlan::compute(&t, &ud, &r, SwitchId(2), NodeMask::single(NodeId(2)));
        assert!(plan.covered_at(SwitchId(2)));
        assert_eq!(plan.up_distance(SwitchId(2)), 0);
        assert!(plan.up_ports(SwitchId(2)).is_empty());
    }

    #[test]
    fn sibling_destinations_meet_at_common_ancestor() {
        let (t, ud, r) = fixture();
        // n2 (at S2) and n3 (at S3): S1 is the lowest covering switch.
        let dests = NodeMask::from_nodes([NodeId(2), NodeId(3)]);
        let plan = ApexPlan::compute(&t, &ud, &r, SwitchId(2), dests.clone());
        assert!(plan.covered_at(SwitchId(1)));
        assert!(!plan.covered_at(SwitchId(2)));
        assert_eq!(plan.up_distance(SwitchId(2)), 1);
        assert_eq!(plan.up_ports(SwitchId(2)).len(), 1);
        // S0 covers too; a worm injected there turns down at once.
        let plan = ApexPlan::compute(&t, &ud, &r, SwitchId(0), dests);
        assert!(plan.covered_at(SwitchId(0)));
    }

    #[test]
    fn climb_distance_accumulates() {
        let (t, ud, r) = fixture();
        // Destination n0 (at the root's switch): from S2 the worm must
        // climb S2 -> S1 -> S0.
        let plan = ApexPlan::compute(&t, &ud, &r, SwitchId(2), NodeMask::single(NodeId(0)));
        assert_eq!(plan.up_distance(SwitchId(2)), 2);
        assert_eq!(plan.up_distance(SwitchId(1)), 1);
        assert!(plan.covered_at(SwitchId(0)));
    }

    #[test]
    fn every_switch_has_finite_distance() {
        let (t, ud, r) = fixture();
        for (s, _) in t.switches() {
            let plan = ApexPlan::compute(&t, &ud, &r, s, NodeMask::all(t.num_nodes()));
            assert_ne!(plan.up_distance(s), u16::MAX);
        }
    }

    #[test]
    fn switches_off_the_climb_are_outside_the_plan() {
        let (t, ud, r) = fixture();
        // From S2 toward n1 the worm climbs S2 -> S1 and stops; S0 and S3
        // are off the climb.
        let plan = ApexPlan::compute(&t, &ud, &r, SwitchId(2), NodeMask::single(NodeId(1)));
        assert_eq!(plan.up_distance(SwitchId(2)), 1);
        assert!(plan.covered_at(SwitchId(1)));
        for off in [SwitchId(0), SwitchId(3)] {
            assert!(!plan.covered_at(off));
            assert_eq!(plan.up_distance(off), u16::MAX);
            assert!(plan.up_ports(off).is_empty());
        }
    }
}
