//! The raw switch/host/link graph (§2.1 of the paper, Fig. 1).

use crate::error::TopologyError;
use crate::ids::{LinkId, NodeId, PortIdx, SwitchId};
use crate::mask::NodeMask;

/// What a switch port is wired to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortUse {
    /// Unconnected port ("left open for further connections").
    Open,
    /// A processing node attached through its network interface.
    Host(NodeId),
    /// One end of a bidirectional inter-switch link; `side` records which
    /// endpoint of [`Link`] this port is (0 = `a`, 1 = `b`).
    Link { link: LinkId, side: u8 },
}

/// A switch: an array of ports.
#[derive(Debug, Clone)]
pub struct Switch {
    /// Port assignments, indexed by [`PortIdx`].
    pub ports: Vec<PortUse>,
}

impl Switch {
    /// Number of ports on this switch.
    pub fn num_ports(&self) -> usize {
        self.ports.len()
    }

    /// Indices of currently open ports.
    pub fn free_ports(&self) -> impl Iterator<Item = PortIdx> + '_ {
        self.ports
            .iter()
            .enumerate()
            .filter(|(_, p)| matches!(p, PortUse::Open))
            .map(|(i, _)| PortIdx(i as u8))
    }
}

/// A bidirectional link between two switch ports.
///
/// Both directions carry traffic independently (the paper's links are
/// bidirectional full-duplex channels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// Endpoint 0.
    pub a: (SwitchId, PortIdx),
    /// Endpoint 1.
    pub b: (SwitchId, PortIdx),
}

impl Link {
    /// The endpoint `(switch, port)` for a given side (0 or 1).
    #[inline]
    pub fn end(&self, side: u8) -> (SwitchId, PortIdx) {
        if side == 0 { self.a } else { self.b }
    }

    /// Given one endpoint's switch, return `(this_side, other_switch)`.
    ///
    /// For parallel self-consistency with multi-links this works purely on
    /// switch ids: if both ends are on the same switch (disallowed) side 0
    /// is returned.
    #[inline]
    pub fn side_of(&self, s: SwitchId) -> Option<u8> {
        if self.a.0 == s {
            Some(0)
        } else if self.b.0 == s {
            Some(1)
        } else {
            None
        }
    }
}

/// Where a host hangs off the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostAttachment {
    /// The switch the host's NI is cabled to.
    pub switch: SwitchId,
    /// The port on that switch.
    pub port: PortIdx,
}

/// An irregular switch-based network: switches, inter-switch links, and
/// hosts attached to switch ports.
///
/// Invariants (checked by [`Topology::validate`]):
/// * the switch graph is connected;
/// * every link endpoint and host attachment references a real port, and
///   that port references it back;
/// * no self-links;
/// * node count within the `u16` [`NodeId`] space (wire headers and the
///   dense engine arrays index nodes by `u16`).
#[derive(Debug, Clone)]
pub struct Topology {
    pub(crate) switches: Vec<Switch>,
    pub(crate) links: Vec<Link>,
    pub(crate) hosts: Vec<HostAttachment>,
}

impl Topology {
    /// Largest supported node count: the full `u16` [`NodeId`] space.
    /// One past it must fail cleanly ([`TopologyError::TooManyNodes`]),
    /// never wrap.
    pub const MAX_NODES: usize = u16::MAX as usize + 1;

    /// Construct from raw parts. Prefer [`crate::TopologyBuilder`] or
    /// [`crate::gen::generate`]; this is public for hand-written fixtures.
    pub fn from_parts(
        switches: Vec<Switch>,
        links: Vec<Link>,
        hosts: Vec<HostAttachment>,
    ) -> Result<Self, TopologyError> {
        let t = Topology { switches, links, hosts };
        t.validate()?;
        Ok(t)
    }

    /// Number of switches.
    #[inline]
    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }

    /// Number of processing nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.hosts.len()
    }

    /// Number of bidirectional inter-switch links.
    #[inline]
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Access a switch.
    #[inline]
    pub fn switch(&self, s: SwitchId) -> &Switch {
        &self.switches[s.idx()]
    }

    /// Access a link.
    #[inline]
    pub fn link(&self, l: LinkId) -> &Link {
        &self.links[l.idx()]
    }

    /// All switches with ids.
    pub fn switches(&self) -> impl Iterator<Item = (SwitchId, &Switch)> {
        self.switches
            .iter()
            .enumerate()
            .map(|(i, s)| (SwitchId(i as u16), s))
    }

    /// All links with ids.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkId(i as u32), l))
    }

    /// All nodes with their attachments.
    pub fn hosts(&self) -> impl Iterator<Item = (NodeId, HostAttachment)> + '_ {
        self.hosts
            .iter()
            .enumerate()
            .map(|(i, h)| (NodeId(i as u16), *h))
    }

    /// The switch a node hangs off.
    #[inline]
    pub fn host_switch(&self, n: NodeId) -> SwitchId {
        self.hosts[n.idx()].switch
    }

    /// The switch port a node hangs off.
    #[inline]
    pub fn host_port(&self, n: NodeId) -> PortIdx {
        self.hosts[n.idx()].port
    }

    /// Nodes directly attached to a switch, as a mask.
    pub fn nodes_at(&self, s: SwitchId) -> NodeMask {
        let mut m = NodeMask::EMPTY;
        for p in &self.switch(s).ports {
            if let PortUse::Host(n) = p {
                m.insert(*n);
            }
        }
        m
    }

    /// Neighboring `(link, peer switch, local port)` triples of a switch.
    /// Parallel links yield multiple entries for the same peer.
    pub fn neighbors(&self, s: SwitchId) -> impl Iterator<Item = (LinkId, SwitchId, PortIdx)> + '_ {
        self.switch(s)
            .ports
            .iter()
            .enumerate()
            .filter_map(move |(pi, pu)| match pu {
                PortUse::Link { link, side } => {
                    let l = self.link(*link);
                    let peer = l.end(1 - side).0;
                    Some((*link, peer, PortIdx(pi as u8)))
                }
                _ => None,
            })
    }

    /// The average number of nodes per switch — the quantity the paper's
    /// Fig. 7 discussion varies ("the average number of multicast
    /// destinations per switch decreases").
    pub fn avg_nodes_per_switch(&self) -> f64 {
        self.num_nodes() as f64 / self.num_switches() as f64
    }

    /// Full structural validation; see the type-level invariants.
    pub fn validate(&self) -> Result<(), TopologyError> {
        if self.switches.is_empty() || self.hosts.is_empty() {
            return Err(TopologyError::Empty);
        }
        if self.hosts.len() > Topology::MAX_NODES {
            return Err(TopologyError::TooManyNodes(self.hosts.len()));
        }
        // Link endpoints reference back.
        for (li, l) in self.links.iter().enumerate() {
            if l.a.0 == l.b.0 {
                return Err(TopologyError::SelfLink(l.a.0));
            }
            for side in 0..2u8 {
                let (s, p) = l.end(side);
                let sw = self
                    .switches
                    .get(s.idx())
                    .ok_or(TopologyError::Inconsistent("link references missing switch"))?;
                let pu = sw.ports.get(p.idx()).ok_or(TopologyError::BadPort {
                    switch: s,
                    port: p.0,
                    ports_per_switch: sw.num_ports() as u8,
                })?;
                match pu {
                    PortUse::Link { link, side: ps } if link.idx() == li && *ps == side => {}
                    _ => return Err(TopologyError::Inconsistent("port does not reference link back")),
                }
            }
        }
        // Host attachments reference back.
        for (ni, h) in self.hosts.iter().enumerate() {
            let sw = self
                .switches
                .get(h.switch.idx())
                .ok_or(TopologyError::DanglingHost { node: NodeId(ni as u16), switch: h.switch })?;
            match sw.ports.get(h.port.idx()) {
                Some(PortUse::Host(n)) if n.idx() == ni => {}
                _ => return Err(TopologyError::Inconsistent("host port does not reference host back")),
            }
        }
        // Every port that claims a host/link is consistent (reverse check).
        for (si, sw) in self.switches.iter().enumerate() {
            for (pi, pu) in sw.ports.iter().enumerate() {
                match pu {
                    PortUse::Open => {}
                    PortUse::Host(n) => {
                        let h = self
                            .hosts
                            .get(n.idx())
                            .ok_or(TopologyError::Inconsistent("port references missing host"))?;
                        if h.switch.idx() != si || h.port.idx() != pi {
                            return Err(TopologyError::Inconsistent("host attachment mismatch"));
                        }
                    }
                    PortUse::Link { link, side } => {
                        let l = self
                            .links
                            .get(link.idx())
                            .ok_or(TopologyError::Inconsistent("port references missing link"))?;
                        let (s, p) = l.end(*side);
                        if s.idx() != si || p.idx() != pi {
                            return Err(TopologyError::Inconsistent("link endpoint mismatch"));
                        }
                    }
                }
            }
        }
        // Connectivity over the switch graph: union-find over the link
        // list (O(E·α), no per-switch port rescans). The first switch in
        // a different component from S0 is reported, matching the old
        // DFS ("lowest id unreachable from S0").
        let mut dsu = crate::dsu::Dsu::new(self.switches.len());
        for l in &self.links {
            dsu.union(l.a.0.idx(), l.b.0.idx());
        }
        if let Some(u) = dsu.first_outside_component_of(0) {
            return Err(TopologyError::Disconnected { unreachable: SwitchId(u as u16) });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TopologyBuilder;

    fn tiny() -> Topology {
        // Two switches, one link, one host each.
        let mut b = TopologyBuilder::new();
        let s0 = b.add_switch(4);
        let s1 = b.add_switch(4);
        b.add_link(s0, s1).unwrap();
        b.add_host(s0).unwrap();
        b.add_host(s1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn counts() {
        let t = tiny();
        assert_eq!(t.num_switches(), 2);
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.num_links(), 1);
        assert_eq!(t.avg_nodes_per_switch(), 1.0);
    }

    #[test]
    fn nodes_at_returns_attached_hosts() {
        let t = tiny();
        assert_eq!(t.nodes_at(SwitchId(0)), NodeMask::single(NodeId(0)));
        assert_eq!(t.nodes_at(SwitchId(1)), NodeMask::single(NodeId(1)));
    }

    #[test]
    fn neighbors_are_symmetric() {
        let t = tiny();
        let n0: Vec<_> = t.neighbors(SwitchId(0)).collect();
        let n1: Vec<_> = t.neighbors(SwitchId(1)).collect();
        assert_eq!(n0.len(), 1);
        assert_eq!(n1.len(), 1);
        assert_eq!(n0[0].1, SwitchId(1));
        assert_eq!(n1[0].1, SwitchId(0));
        assert_eq!(n0[0].0, n1[0].0);
    }

    #[test]
    fn disconnected_is_rejected() {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_switch(4);
        let s1 = b.add_switch(4);
        b.add_host(s0).unwrap();
        b.add_host(s1).unwrap();
        assert!(matches!(b.build(), Err(TopologyError::Disconnected { .. })));
    }

    #[test]
    fn empty_is_rejected() {
        let b = TopologyBuilder::new();
        assert!(matches!(b.build(), Err(TopologyError::Empty)));
    }

    #[test]
    fn host_lookup_round_trips() {
        let t = tiny();
        for (n, h) in t.hosts() {
            assert_eq!(t.host_switch(n), h.switch);
            assert_eq!(t.host_port(n), h.port);
        }
    }

    #[test]
    fn link_side_of() {
        let t = tiny();
        let l = t.link(LinkId(0));
        assert!(l.side_of(SwitchId(0)).is_some());
        assert!(l.side_of(SwitchId(1)).is_some());
        assert_eq!(l.side_of(SwitchId(7)), None);
    }

    #[test]
    fn parallel_links_allowed() {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_switch(4);
        let s1 = b.add_switch(4);
        b.add_link(s0, s1).unwrap();
        b.add_link(s0, s1).unwrap();
        b.add_host(s0).unwrap();
        b.add_host(s1).unwrap();
        let t = b.build().unwrap();
        assert_eq!(t.num_links(), 2);
        assert_eq!(t.neighbors(SwitchId(0)).count(), 2);
    }
}
