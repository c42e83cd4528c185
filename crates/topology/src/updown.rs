//! Autonet-style BFS spanning tree and up/down link orientation (§2.2).
//!
//! A breadth-first spanning tree is computed on the switch graph from a
//! deterministic root. The *up* end of each link is then defined as
//!
//! 1. the end whose switch is closer to the root in the spanning tree, or
//! 2. the end whose switch has the lower id, if both ends are at switches
//!    at the same level.
//!
//! The resulting directed "up" graph is loop-free, which is what makes the
//! up*/down* routing rule (zero or more up links, then zero or more down
//! links) deadlock-free.

use crate::error::TopologyError;
use crate::fault::FaultStatus;
use crate::graph::{PortUse, Topology};
use crate::ids::{LinkId, NodeId, PortIdx, SwitchId};
use std::collections::VecDeque;
use std::sync::OnceLock;

/// BFS spanning tree plus per-link up-end assignment.
#[derive(Debug, Clone)]
pub struct UpDown {
    root: SwitchId,
    /// BFS level of each switch (root = 0).
    level: Vec<u32>,
    /// BFS-tree parent of each switch (`None` for the root).
    parent: Vec<Option<SwitchId>>,
    /// The link used to reach each switch from its parent (`None` for root).
    parent_link: Vec<Option<LinkId>>,
    /// For each link, which side (0 = `a`, 1 = `b`) is the *up* end.
    up_side: Vec<u8>,
    /// Locality rank of each node, computed on first use (see
    /// [`UpDown::node_ranks`]).
    node_ranks: OnceLock<Vec<u32>>,
}

impl UpDown {
    /// Compute the spanning tree and orientation rooted at `root`.
    ///
    /// The distributed Autonet algorithm elects a unique root; we model
    /// that with an explicit, deterministic choice (lowest switch id by
    /// default, see [`crate::Network::analyze`]).
    pub fn compute(topo: &Topology, root: SwitchId) -> Result<Self, TopologyError> {
        Self::compute_inner(topo, root, None)
    }

    /// Recompute the spanning tree over the **surviving** graph of a
    /// degrading network: dead links are never traversed and dead
    /// switches never enqueued. Surviving switches that the BFS cannot
    /// reach mean the faults split the network — reported as
    /// [`TopologyError::PartitionedNetwork`] with the stranded switches
    /// and hosts. Dead switches keep `level == u32::MAX`; every query
    /// about them is meaningless and downstream consumers must mask them
    /// out (the masked routing/reachability computes do).
    pub fn compute_masked(
        topo: &Topology,
        root: SwitchId,
        status: &FaultStatus,
    ) -> Result<Self, TopologyError> {
        Self::compute_inner(topo, root, Some(status))
    }

    fn compute_inner(
        topo: &Topology,
        root: SwitchId,
        status: Option<&FaultStatus>,
    ) -> Result<Self, TopologyError> {
        let n = topo.num_switches();
        if root.idx() >= n {
            return Err(TopologyError::BadRoot(root));
        }
        if let Some(st) = status {
            if !st.switch_up(root) {
                return Err(TopologyError::BadRoot(root));
            }
        }
        let mut level = vec![u32::MAX; n];
        let mut parent = vec![None; n];
        let mut parent_link = vec![None; n];
        let mut q = VecDeque::new();
        level[root.idx()] = 0;
        q.push_back(root);
        while let Some(s) = q.pop_front() {
            // Deterministic neighbor order: ports in increasing index.
            for (link, peer, _port) in topo.neighbors(s) {
                if let Some(st) = status {
                    if !st.link_up(topo, link) {
                        continue;
                    }
                }
                if level[peer.idx()] == u32::MAX {
                    level[peer.idx()] = level[s.idx()] + 1;
                    parent[peer.idx()] = Some(s);
                    parent_link[peer.idx()] = Some(link);
                    q.push_back(peer);
                }
            }
        }
        match status {
            None => {
                if let Some(u) = level.iter().position(|&l| l == u32::MAX) {
                    return Err(TopologyError::Disconnected { unreachable: SwitchId(u as u16) });
                }
            }
            Some(st) => {
                // Only *surviving* switches must be reachable; stranded
                // ones are a partition, reported with their hosts.
                let unreachable_switches: Vec<SwitchId> = st
                    .alive_switches()
                    .filter(|s| level[s.idx()] == u32::MAX)
                    .collect();
                if !unreachable_switches.is_empty() {
                    let unreachable_hosts = topo
                        .hosts()
                        .filter(|(_, h)| unreachable_switches.contains(&h.switch))
                        .map(|(n, _)| n)
                        .collect();
                    return Err(TopologyError::PartitionedNetwork {
                        unreachable_switches,
                        unreachable_hosts,
                    });
                }
            }
        }
        let mut up_side = Vec::with_capacity(topo.num_links());
        for (_, l) in topo.links() {
            let (sa, sb) = (l.a.0, l.b.0);
            let (la, lb) = (level[sa.idx()], level[sb.idx()]);
            // Up end: closer to root, ties broken by lower switch id.
            // Dead switches sit at u32::MAX, so a link with one surviving
            // end is oriented up toward the survivor — harmless either
            // way, since dead links are masked out of every consumer.
            let side = if la < lb || (la == lb && sa < sb) { 0 } else { 1 };
            up_side.push(side);
        }
        Ok(UpDown { root, level, parent, parent_link, up_side, node_ranks: OnceLock::new() })
    }

    /// Rank every node by network locality: switches in depth-first order
    /// of the down-DAG from the root (lower-id children first), the nodes
    /// of one switch consecutive in id order.
    fn locality_ranks(&self, topo: &Topology) -> Vec<u32> {
        let n_sw = topo.num_switches();
        let mut sw_rank = vec![u32::MAX; n_sw];
        let mut next = 0u32;
        let mut stack = vec![self.root];
        let mut kids: Vec<SwitchId> = Vec::new();
        while let Some(s) = stack.pop() {
            if sw_rank[s.idx()] != u32::MAX {
                continue;
            }
            sw_rank[s.idx()] = next;
            next += 1;
            kids.clear();
            kids.extend(
                self.down_links(topo, s)
                    .map(|(_, peer, _)| peer)
                    .filter(|p| sw_rank[p.idx()] == u32::MAX),
            );
            kids.sort_unstable();
            kids.dedup();
            // Push in reverse so the lowest-id child is visited first.
            stack.extend(kids.iter().rev());
        }
        debug_assert!(sw_rank.iter().all(|&r| r != u32::MAX), "down-DAG did not span");

        let n = topo.num_nodes();
        let mut ranks = vec![0u32; n];
        let mut order: Vec<NodeId> = (0..n).map(|i| NodeId(i as u16)).collect();
        order.sort_by_key(|&nd| (sw_rank[topo.host_switch(nd).idx()], nd.0));
        for (r, nd) in order.into_iter().enumerate() {
            ranks[nd.idx()] = r as u32;
        }
        ranks
    }

    /// Locality rank of every node of `topo` (the topology this
    /// orientation was computed for), indexed by node id; see
    /// [`crate::Network::node_ranks`]. Computed on the first call and
    /// kept with the orientation.
    pub(crate) fn node_ranks(&self, topo: &Topology) -> &[u32] {
        self.node_ranks.get_or_init(|| self.locality_ranks(topo))
    }

    /// The spanning-tree root.
    #[inline]
    pub fn root(&self) -> SwitchId {
        self.root
    }

    /// BFS level of a switch (root = 0).
    #[inline]
    pub fn level(&self, s: SwitchId) -> u32 {
        self.level[s.idx()]
    }

    /// BFS-tree parent of a switch.
    #[inline]
    pub fn parent(&self, s: SwitchId) -> Option<SwitchId> {
        self.parent[s.idx()]
    }

    /// The link connecting a switch to its BFS-tree parent.
    #[inline]
    pub fn parent_link(&self, s: SwitchId) -> Option<LinkId> {
        self.parent_link[s.idx()]
    }

    /// Which side (0/1) of a link is the *up* end.
    #[inline]
    pub fn up_side(&self, l: LinkId) -> u8 {
        self.up_side[l.idx()]
    }

    /// True if traversing `link` out of switch `from` moves in the *up*
    /// direction (i.e. arrives at the link's up end).
    ///
    /// Errors with [`TopologyError::Inconsistent`] if `from` is not an
    /// endpoint of `link` — a caller mixing up orientations and
    /// topologies, reported instead of panicking.
    pub fn is_up_traversal(
        &self,
        topo: &Topology,
        link: LinkId,
        from: SwitchId,
    ) -> Result<bool, TopologyError> {
        let l = topo.link(link);
        let from_side = l
            .side_of(from)
            .ok_or(TopologyError::Inconsistent("switch not on link"))?;
        let to_side = 1 - from_side;
        Ok(to_side == self.up_side[link.idx()])
    }

    /// Links leaving `s` in the up direction, with `(link, peer, local port)`.
    ///
    /// Links on which the orientation query fails (mismatched topology)
    /// are silently skipped — they belong to neither direction.
    pub fn up_links<'a>(
        &'a self,
        topo: &'a Topology,
        s: SwitchId,
    ) -> impl Iterator<Item = (LinkId, SwitchId, PortIdx)> + 'a {
        topo.neighbors(s)
            .filter(move |(l, _, _)| matches!(self.is_up_traversal(topo, *l, s), Ok(true)))
    }

    /// Links leaving `s` in the down direction, with `(link, peer, local port)`.
    ///
    /// Links on which the orientation query fails (mismatched topology)
    /// are silently skipped — they belong to neither direction.
    pub fn down_links<'a>(
        &'a self,
        topo: &'a Topology,
        s: SwitchId,
    ) -> impl Iterator<Item = (LinkId, SwitchId, PortIdx)> + 'a {
        topo.neighbors(s)
            .filter(move |(l, _, _)| matches!(self.is_up_traversal(topo, *l, s), Ok(false)))
    }

    /// Ports of `s` that lead in the down direction to another switch or to
    /// a host — exactly the ports that carry a reachability string in the
    /// tree-based scheme.
    pub fn downward_ports<'a>(
        &'a self,
        topo: &'a Topology,
        s: SwitchId,
    ) -> impl Iterator<Item = PortIdx> + 'a {
        topo.switch(s).ports.iter().enumerate().filter_map(move |(pi, pu)| match pu {
            PortUse::Host(_) => Some(PortIdx(pi as u8)),
            PortUse::Link { link, .. } => {
                match self.is_up_traversal(topo, *link, s) {
                    Ok(false) => Some(PortIdx(pi as u8)),
                    _ => None,
                }
            }
            PortUse::Open => None,
        })
    }

    /// Verify that the directed up graph is acyclic (it is by
    /// construction; this is exposed for tests and failure injection).
    pub fn verify_acyclic(&self, topo: &Topology) -> Result<(), TopologyError> {
        // An up traversal either strictly decreases the BFS level or keeps
        // it equal while strictly decreasing the switch id; both orders are
        // well-founded, so any up cycle is impossible. Check the invariant
        // explicitly on every link.
        for (li, l) in topo.links() {
            let up = l.end(self.up_side[li.idx()]).0;
            let down = l.end(1 - self.up_side[li.idx()]).0;
            let (lu, ld) = (self.level(up), self.level(down));
            let ok = lu < ld || (lu == ld && up < down);
            if !ok {
                return Err(TopologyError::Inconsistent("up end not closer to root / lower id"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TopologyBuilder;

    /// Diamond: S0 root, S1 and S2 at level 1, S3 at level 2 with links to
    /// both S1 and S2, plus a cross link S1-S2 at equal level.
    fn diamond() -> (Topology, UpDown) {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_switch(8);
        let s1 = b.add_switch(8);
        let s2 = b.add_switch(8);
        let s3 = b.add_switch(8);
        b.add_link(s0, s1).unwrap();
        b.add_link(s0, s2).unwrap();
        b.add_link(s1, s3).unwrap();
        b.add_link(s2, s3).unwrap();
        b.add_link(s1, s2).unwrap(); // cross link, equal level
        for s in [s0, s1, s2, s3] {
            b.add_host(s).unwrap();
        }
        let t = b.build().unwrap();
        let ud = UpDown::compute(&t, s0).unwrap();
        (t, ud)
    }

    #[test]
    fn levels_follow_bfs() {
        let (_, ud) = diamond();
        assert_eq!(ud.level(SwitchId(0)), 0);
        assert_eq!(ud.level(SwitchId(1)), 1);
        assert_eq!(ud.level(SwitchId(2)), 1);
        assert_eq!(ud.level(SwitchId(3)), 2);
        assert_eq!(ud.root(), SwitchId(0));
        assert_eq!(ud.parent(SwitchId(0)), None);
        assert_eq!(ud.parent(SwitchId(3)), Some(SwitchId(1)));
    }

    #[test]
    fn up_is_toward_root_and_ties_by_id() {
        let (t, ud) = diamond();
        // S1 -> S0 is up, S0 -> S1 is down.
        let l01 = LinkId(0);
        assert!(ud.is_up_traversal(&t, l01, SwitchId(1)).unwrap());
        assert!(!ud.is_up_traversal(&t, l01, SwitchId(0)).unwrap());
        // Cross link S1-S2 at equal level: up end is the lower id, S1.
        let l12 = LinkId(4);
        assert!(ud.is_up_traversal(&t, l12, SwitchId(2)).unwrap());
        assert!(!ud.is_up_traversal(&t, l12, SwitchId(1)).unwrap());
    }

    #[test]
    fn up_down_link_iterators_partition_neighbors() {
        let (t, ud) = diamond();
        for (sid, _) in t.switches() {
            let ups = ud.up_links(&t, sid).count();
            let downs = ud.down_links(&t, sid).count();
            assert_eq!(ups + downs, t.neighbors(sid).count());
        }
        // Root has no up links.
        assert_eq!(ud.up_links(&t, SwitchId(0)).count(), 0);
    }

    #[test]
    fn downward_ports_include_hosts() {
        let (t, ud) = diamond();
        // S3: two up links (to S1, S2), one host -> exactly one downward port.
        let d: Vec<_> = ud.downward_ports(&t, SwitchId(3)).collect();
        assert_eq!(d.len(), 1);
        assert!(matches!(
            t.switch(SwitchId(3)).ports[d[0].idx()],
            PortUse::Host(_)
        ));
    }

    #[test]
    fn acyclicity_holds() {
        let (t, ud) = diamond();
        ud.verify_acyclic(&t).unwrap();
    }

    #[test]
    fn bad_root_rejected() {
        let (t, _) = diamond();
        assert!(matches!(
            UpDown::compute(&t, SwitchId(99)),
            Err(TopologyError::BadRoot(_))
        ));
    }

    #[test]
    fn node_ranks_follow_the_down_dag() {
        // DFS over down links from S0, lower ids first. S1 reaches S2 over
        // the equal-level cross link (S1 is its up end) before S3 does.
        let (t, ud) = diamond();
        assert_eq!(ud.node_ranks(&t), &[0, 1, 2, 3]);
    }

    #[test]
    fn parallel_links_get_same_orientation() {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_switch(8);
        let s1 = b.add_switch(8);
        b.add_link(s0, s1).unwrap();
        b.add_link(s0, s1).unwrap();
        b.add_host(s0).unwrap();
        b.add_host(s1).unwrap();
        let t = b.build().unwrap();
        let ud = UpDown::compute(&t, s0).unwrap();
        assert!(ud.is_up_traversal(&t, LinkId(0), s1).unwrap());
        assert!(ud.is_up_traversal(&t, LinkId(1), s1).unwrap());
    }
}
