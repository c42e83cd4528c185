//! Imperative construction of topologies for tests, fixtures, and the
//! random generator.
//!
//! Port assignment and free-port accounting are incremental: each switch
//! keeps a monotone next-free cursor (ports are taken, never released)
//! and a free-port count, so [`TopologyBuilder::free_ports`] is O(1) and
//! taking a port is amortized O(1). The random generator leans on this —
//! at 1000 switches / 10k hosts the old per-query port rescans dominated
//! generation time.

use crate::error::TopologyError;
use crate::graph::{HostAttachment, Link, PortUse, Switch, Topology};
use crate::ids::{LinkId, NodeId, PortIdx, SwitchId};

/// Builds a [`Topology`] one switch / host / link at a time, assigning
/// ports automatically (lowest free port first, which mirrors the paper's
/// figures where host ports precede link ports).
#[derive(Debug, Default, Clone)]
pub struct TopologyBuilder {
    switches: Vec<Switch>,
    links: Vec<Link>,
    hosts: Vec<HostAttachment>,
    /// Free ports per switch (incremental; ports are never released).
    free_count: Vec<u16>,
    /// Lowest port index that might still be open, per switch.
    next_free: Vec<u16>,
    /// Sum of `free_count`.
    total_free: usize,
}

impl TopologyBuilder {
    /// Fresh empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a switch with `ports` ports; returns its id.
    pub fn add_switch(&mut self, ports: u8) -> SwitchId {
        let id = SwitchId::try_new(self.switches.len())
            .expect("switch count exceeds the u16 SwitchId space");
        self.switches.push(Switch { ports: vec![PortUse::Open; ports as usize] });
        self.free_count.push(ports as u16);
        self.next_free.push(0);
        self.total_free += ports as usize;
        id
    }

    /// Attach a new host to `s` on its lowest free port.
    pub fn add_host(&mut self, s: SwitchId) -> Result<NodeId, TopologyError> {
        let node = NodeId::try_new(self.hosts.len())
            .map_err(|_| TopologyError::TooManyNodes(self.hosts.len() + 1))?;
        let port = self.take_free_port(s)?;
        self.switches[s.idx()].ports[port.idx()] = PortUse::Host(node);
        self.hosts.push(HostAttachment { switch: s, port });
        Ok(node)
    }

    /// Connect two distinct switches with a new bidirectional link, using
    /// the lowest free port on each side. Parallel links are allowed.
    pub fn add_link(&mut self, s1: SwitchId, s2: SwitchId) -> Result<LinkId, TopologyError> {
        if s1 == s2 {
            return Err(TopologyError::SelfLink(s1));
        }
        let p1 = self.take_free_port(s1)?;
        let p2 = self.take_free_port(s2)?;
        let link = LinkId::try_new(self.links.len())
            .expect("link count exceeds the u32 LinkId space");
        self.switches[s1.idx()].ports[p1.idx()] = PortUse::Link { link, side: 0 };
        self.switches[s2.idx()].ports[p2.idx()] = PortUse::Link { link, side: 1 };
        self.links.push(Link { a: (s1, p1), b: (s2, p2) });
        Ok(link)
    }

    /// Number of free ports remaining on `s` (O(1)).
    pub fn free_ports(&self, s: SwitchId) -> usize {
        self.free_count[s.idx()] as usize
    }

    /// Total free ports across all switches (O(1)).
    pub fn total_free_ports(&self) -> usize {
        self.total_free
    }

    /// Number of switches added so far.
    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }

    /// Number of hosts added so far.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Finish and validate.
    pub fn build(self) -> Result<Topology, TopologyError> {
        Topology::from_parts(self.switches, self.links, self.hosts)
    }

    fn take_free_port(&mut self, s: SwitchId) -> Result<PortIdx, TopologyError> {
        let si = s.idx();
        if si >= self.switches.len() {
            return Err(TopologyError::Inconsistent("switch id out of range"));
        }
        if self.free_count[si] == 0 {
            return Err(TopologyError::NoFreePort(s));
        }
        // Ports are never released, so the cursor only ever advances:
        // the total scan work per switch is O(ports) over its lifetime.
        let ports = &self.switches[si].ports;
        let mut p = self.next_free[si] as usize;
        while !matches!(ports[p], PortUse::Open) {
            p += 1;
        }
        self.free_count[si] -= 1;
        self.total_free -= 1;
        self.next_free[si] = (p + 1) as u16;
        Ok(PortIdx(p as u8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ports_fill_lowest_first() {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_switch(3);
        let s1 = b.add_switch(3);
        let n0 = b.add_host(s0).unwrap();
        b.add_link(s0, s1).unwrap();
        let t = {
            b.add_host(s1).unwrap();
            b.build().unwrap()
        };
        assert_eq!(t.host_port(n0), PortIdx(0));
        // link took port 1 on s0
        assert!(matches!(t.switch(s0).ports[1], PortUse::Link { .. }));
        assert!(matches!(t.switch(s0).ports[2], PortUse::Open));
    }

    #[test]
    fn port_exhaustion_errors() {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_switch(1);
        b.add_host(s0).unwrap();
        assert_eq!(b.add_host(s0), Err(TopologyError::NoFreePort(s0)));
    }

    #[test]
    fn self_link_rejected() {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_switch(4);
        assert_eq!(b.add_link(s0, s0), Err(TopologyError::SelfLink(s0)));
    }

    #[test]
    fn node_ceiling_fails_cleanly() {
        // Fill the entire u16 NodeId space, then one more: the 65537th
        // host must fail with a typed error, not wrap around to node 0.
        let mut b = TopologyBuilder::new();
        let switches: Vec<_> = (0..258).map(|_| b.add_switch(255)).collect();
        for i in 0..Topology::MAX_NODES {
            b.add_host(switches[i / 255]).unwrap();
        }
        assert_eq!(b.num_hosts(), Topology::MAX_NODES);
        assert_eq!(
            b.add_host(switches[256]),
            Err(TopologyError::TooManyNodes(Topology::MAX_NODES + 1))
        );
    }

    #[test]
    fn free_port_accounting() {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_switch(8);
        let s1 = b.add_switch(8);
        assert_eq!(b.total_free_ports(), 16);
        b.add_link(s0, s1).unwrap();
        assert_eq!(b.total_free_ports(), 14);
        b.add_host(s0).unwrap();
        assert_eq!(b.free_ports(s0), 6);
        assert_eq!(b.free_ports(s1), 7);
        assert_eq!(b.num_hosts(), 1);
    }
}
