//! Structural metrics of analyzed networks, and fault/reconfiguration
//! support.
//!
//! The paper motivates irregular topologies by their operational
//! flexibility: "easy addition and deletion of nodes ... more amenable to
//! network reconfigurations and resistant to faults" (§1). This module
//! provides both the summary metrics the experiment reports use and
//! [`remove_link`] — fail one link and rebuild a valid topology, so a
//! whole reconfiguration (new BFS tree, new orientation, new routing
//! tables) can be exercised end to end.

use crate::error::TopologyError;
use crate::graph::{PortUse, Topology};
use crate::ids::{LinkId, SwitchId};
use crate::routing::{Phase, UNREACHABLE};
use crate::Network;

/// Summary of a network's routing structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkMetrics {
    /// Switch count.
    pub switches: usize,
    /// Node count.
    pub nodes: usize,
    /// Bidirectional inter-switch links.
    pub links: usize,
    /// Maximum minimal up*/down* distance over switch pairs.
    pub diameter: u16,
    /// Mean minimal up*/down* distance over distinct switch pairs.
    pub mean_distance: f64,
    /// Fraction of distinct switch pairs with ≥ 2 minimal first hops
    /// (adaptivity available at the source switch).
    pub adaptive_fraction: f64,
    /// Mean nodes per switch.
    pub nodes_per_switch: f64,
}

/// Compute the metrics of an analyzed network.
pub fn network_metrics(net: &Network) -> NetworkMetrics {
    let n = net.topo.num_switches();
    let mut sum = 0u64;
    let mut pairs = 0u64;
    let mut adaptive = 0u64;
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            let (sa, sb) = (SwitchId(a as u16), SwitchId(b as u16));
            let d = net.routing.distance(sa, Phase::Up, sb);
            debug_assert_ne!(d, UNREACHABLE);
            sum += d as u64;
            pairs += 1;
            if net.routing.next_hops(sa, Phase::Up, sb).len() > 1 {
                adaptive += 1;
            }
        }
    }
    NetworkMetrics {
        switches: n,
        nodes: net.topo.num_nodes(),
        links: net.topo.num_links(),
        diameter: net.routing.diameter(),
        mean_distance: if pairs == 0 { 0.0 } else { sum as f64 / pairs as f64 },
        adaptive_fraction: if pairs == 0 { 0.0 } else { adaptive as f64 / pairs as f64 },
        nodes_per_switch: net.topo.avg_nodes_per_switch(),
    }
}

/// Remove one inter-switch link (a "link fault") and rebuild the
/// topology; ports at both ends become open. Fails with
/// [`TopologyError::Disconnected`] if the link was a bridge — exactly the
/// condition under which a real Autonet reconfiguration would partition.
pub fn remove_link(topo: &Topology, link: LinkId) -> Result<Topology, TopologyError> {
    if link.idx() >= topo.num_links() {
        return Err(TopologyError::Inconsistent("no such link"));
    }
    let mut switches: Vec<crate::graph::Switch> =
        topo.switches().map(|(_, s)| s.clone()).collect();
    let mut links = Vec::with_capacity(topo.num_links() - 1);
    for (li, l) in topo.links() {
        if li == link {
            // Open both endpoints.
            for side in 0..2u8 {
                let (s, p) = l.end(side);
                switches[s.idx()].ports[p.idx()] = PortUse::Open;
            }
            continue;
        }
        links.push(*l);
    }
    // Renumber: links after the removed one shift down by one; fix the
    // port references.
    for (new_idx, l) in links.iter().enumerate() {
        for side in 0..2u8 {
            let (s, p) = l.end(side);
            switches[s.idx()].ports[p.idx()] =
                PortUse::Link { link: LinkId(new_idx as u32), side };
        }
    }
    let hosts = topo.hosts().map(|(_, h)| h).collect();
    Topology::from_parts(switches, links, hosts)
}

/// Convenience: does removing this link keep the network connected?
pub fn link_is_redundant(topo: &Topology, link: LinkId) -> bool {
    remove_link(topo, link).is_ok()
}

/// The up*/down* turn restriction costs some pairs their shortest
/// graph-theoretic route. Returns the fraction of switch pairs whose
/// legal minimal distance exceeds their unrestricted hop distance —
/// a measure of the routing algorithm's inefficiency on this topology.
pub fn updown_stretch_fraction(net: &Network) -> f64 {
    let n = net.topo.num_switches();
    // Unrestricted BFS distances.
    let mut stretched = 0u64;
    let mut pairs = 0u64;
    for src in 0..n {
        let mut dist = vec![u16::MAX; n];
        dist[src] = 0;
        let mut q = std::collections::VecDeque::from([src]);
        while let Some(s) = q.pop_front() {
            for (_, peer, _) in net.topo.neighbors(SwitchId(s as u16)) {
                if dist[peer.idx()] == u16::MAX {
                    dist[peer.idx()] = dist[s] + 1;
                    q.push_back(peer.idx());
                }
            }
        }
        for (t, &d) in dist.iter().enumerate() {
            if t == src {
                continue;
            }
            pairs += 1;
            let legal = net
                .routing
                .distance(SwitchId(src as u16), Phase::Up, SwitchId(t as u16));
            if legal > d {
                stretched += 1;
            }
        }
    }
    if pairs == 0 {
        0.0
    } else {
        stretched as f64 / pairs as f64
    }
}

/// Re-export used by [`updown_stretch_fraction`] signature readers.
pub use crate::routing::UNREACHABLE as UNREACHABLE_DISTANCE;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TopologyBuilder;
    use crate::zoo;

    #[test]
    fn chain_metrics() {
        let net = Network::analyze(zoo::chain(4).unwrap()).unwrap();
        let m = network_metrics(&net);
        assert_eq!(m.switches, 4);
        assert_eq!(m.diameter, 3);
        assert_eq!(m.links, 3);
        assert_eq!(m.adaptive_fraction, 0.0, "a chain has no route choice");
        assert!((m.mean_distance - (3.0 + 2.0 + 2.0 + 1.0 + 1.0 + 1.0) * 2.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn removing_a_ring_link_keeps_connectivity() {
        // Square ring: every link is redundant.
        let mut b = TopologyBuilder::new();
        let s: Vec<_> = (0..4).map(|_| b.add_switch(4)).collect();
        for i in 0..4 {
            b.add_link(s[i], s[(i + 1) % 4]).unwrap();
        }
        for &sw in &s {
            b.add_host(sw).unwrap();
        }
        let t = b.build().unwrap();
        for li in 0..t.num_links() {
            assert!(link_is_redundant(&t, LinkId(li as u32)), "link {li}");
            let t2 = remove_link(&t, LinkId(li as u32)).unwrap();
            assert_eq!(t2.num_links(), 3);
            // The degraded network still analyzes and routes.
            let net2 = Network::analyze(t2).unwrap();
            assert!(net2.routing.fully_connected());
        }
    }

    #[test]
    fn removing_a_bridge_is_rejected() {
        let t = zoo::chain(3).unwrap();
        assert!(!link_is_redundant(&t, LinkId(0)));
        assert!(matches!(
            remove_link(&t, LinkId(0)),
            Err(TopologyError::Disconnected { .. })
        ));
    }

    #[test]
    fn remove_link_renumbers_consistently() {
        let mut b = TopologyBuilder::new();
        let s: Vec<_> = (0..3).map(|_| b.add_switch(6)).collect();
        b.add_link(s[0], s[1]).unwrap(); // L0
        b.add_link(s[1], s[2]).unwrap(); // L1
        b.add_link(s[0], s[2]).unwrap(); // L2
        for &sw in &s {
            b.add_host(sw).unwrap();
        }
        let t = b.build().unwrap();
        let t2 = remove_link(&t, LinkId(1)).unwrap();
        t2.validate().unwrap();
        assert_eq!(t2.num_links(), 2);
        // Every remaining link's ports point back correctly (validate
        // checks this; also ensure both expected edges survive).
        let pairs: Vec<(u16, u16)> = t2
            .links()
            .map(|(_, l)| (l.a.0 .0.min(l.b.0 .0), l.a.0 .0.max(l.b.0 .0)))
            .collect();
        assert!(pairs.contains(&(0, 1)));
        assert!(pairs.contains(&(0, 2)));
    }

    #[test]
    fn stretch_fraction_bounded() {
        let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
        let f = updown_stretch_fraction(&net);
        assert!((0.0..=1.0).contains(&f));
        // A chain has no stretch (tree network: up*/down* is exact).
        let chain = Network::analyze(zoo::chain(5).unwrap()).unwrap();
        assert_eq!(updown_stretch_fraction(&chain), 0.0);
    }

    #[test]
    fn out_of_range_link_rejected() {
        let t = zoo::chain(2).unwrap();
        assert!(remove_link(&t, LinkId(99)).is_err());
    }
}
