//! Fixed example topologies for tests, examples, and documentation.

use crate::builder::TopologyBuilder;
use crate::error::TopologyError;
use crate::graph::Topology;
use crate::ids::SwitchId;

/// An 8-switch irregular network in the spirit of the paper's Fig. 1:
/// eight 8-port switches, irregular connectivity with one parallel link
/// pair, 32 hosts (4 per switch).
///
/// The exact figure's wiring is not recoverable from the OCR'd text, so
/// this is a representative irregular instance: a two-level core with
/// cross links and one double link.
pub fn paper_example() -> Result<Topology, TopologyError> {
    let mut b = TopologyBuilder::new();
    let s: Vec<SwitchId> = (0..8).map(|_| b.add_switch(8)).collect();
    // Irregular wiring (11 links incl. one parallel pair).
    let pairs = [
        (0, 1),
        (0, 2),
        (1, 3),
        (2, 3),
        (2, 4),
        (3, 5),
        (4, 6),
        (5, 7),
        (6, 7),
        (1, 6),
        (1, 6), // parallel link
    ];
    for (a, c) in pairs {
        b.add_link(s[a], s[c])?;
    }
    for &sw in &s {
        for _ in 0..4 {
            b.add_host(sw)?;
        }
    }
    b.build()
}

/// A chain of `n` switches, one host per switch. Minimal connectivity:
/// useful for pinning down latency arithmetic in tests.
pub fn chain(n: usize) -> Result<Topology, TopologyError> {
    if n < 1 {
        return Err(TopologyError::Empty);
    }
    let mut b = TopologyBuilder::new();
    let s: Vec<SwitchId> = (0..n).map(|_| b.add_switch(4)).collect();
    for w in s.windows(2) {
        b.add_link(w[0], w[1])?;
    }
    for &sw in &s {
        b.add_host(sw)?;
    }
    b.build()
}

/// A single switch with `h` hosts — the degenerate "regular" case where
/// every multicast is one switch hop.
pub fn single_switch(h: usize) -> Result<Topology, TopologyError> {
    if h == 0 {
        return Err(TopologyError::Empty);
    }
    if h > 128 {
        return Err(TopologyError::TooManyNodes(h));
    }
    let mut b = TopologyBuilder::new();
    let s = b.add_switch(h.max(2) as u8);
    for _ in 0..h {
        b.add_host(s)?;
    }
    b.build()
}

/// A star: one core switch connected to `leaves` leaf switches, `hosts_per_leaf`
/// hosts on each leaf and none on the core.
pub fn star(leaves: usize, hosts_per_leaf: usize) -> Result<Topology, TopologyError> {
    if leaves < 1 {
        return Err(TopologyError::Empty);
    }
    let mut b = TopologyBuilder::new();
    let core = b.add_switch((leaves.max(2)) as u8);
    for _ in 0..leaves {
        let leaf = b.add_switch((hosts_per_leaf + 1).max(2) as u8);
        b.add_link(core, leaf)?;
        for _ in 0..hosts_per_leaf {
            b.add_host(leaf)?;
        }
    }
    b.build()
}

/// A ring of `n` switches (n ≥ 3), one host per switch. The up*/down*
/// orientation breaks the ring's symmetry: one link becomes the "cross"
/// link whose two ends sit at equal distance from the root.
pub fn ring(n: usize) -> Result<Topology, TopologyError> {
    if n < 3 {
        return Err(TopologyError::Empty);
    }
    let mut b = TopologyBuilder::new();
    let s: Vec<SwitchId> = (0..n).map(|_| b.add_switch(4)).collect();
    for i in 0..n {
        b.add_link(s[i], s[(i + 1) % n])?;
    }
    for &sw in &s {
        b.add_host(sw)?;
    }
    b.build()
}

/// A two-level Clos-like fabric: `spines` spine switches (no hosts),
/// `leaves` leaf switches each wired to every spine, `hosts_per_leaf`
/// hosts per leaf. The closest thing to a *regular* NOW fabric — useful
/// as a best-case contrast to the random irregular instances.
pub fn two_level(
    spines: usize,
    leaves: usize,
    hosts_per_leaf: usize,
) -> Result<Topology, TopologyError> {
    if spines < 1 || leaves < 1 {
        return Err(TopologyError::Empty);
    }
    let mut b = TopologyBuilder::new();
    let sp: Vec<SwitchId> = (0..spines).map(|_| b.add_switch(leaves.max(2) as u8)).collect();
    for _ in 0..leaves {
        let leaf = b.add_switch((spines + hosts_per_leaf).max(2) as u8);
        for &s in &sp {
            b.add_link(s, leaf)?;
        }
        for _ in 0..hosts_per_leaf {
            b.add_host(leaf)?;
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Network;

    #[test]
    fn paper_example_analyzes() {
        let net = Network::analyze(paper_example().unwrap()).unwrap();
        assert_eq!(net.num_switches(), 8);
        assert_eq!(net.num_nodes(), 32);
        net.updown.verify_acyclic(&net.topo).unwrap();
        assert!(net.routing.fully_connected());
    }

    #[test]
    fn chain_has_linear_distances() {
        let net = Network::analyze(chain(5).unwrap()).unwrap();
        use crate::routing::Phase;
        assert_eq!(net.routing.distance(SwitchId(0), Phase::Up, SwitchId(4)), 4);
        assert_eq!(net.routing.distance(SwitchId(4), Phase::Up, SwitchId(0)), 4);
    }

    #[test]
    fn degenerate_sizes_are_errors_not_panics() {
        assert!(chain(0).is_err());
        assert!(single_switch(0).is_err());
        assert!(single_switch(129).is_err());
        assert!(star(0, 3).is_err());
        assert!(ring(2).is_err());
        assert!(two_level(0, 4, 4).is_err());
    }

    #[test]
    fn single_switch_all_local() {
        let net = Network::analyze(single_switch(6).unwrap()).unwrap();
        assert_eq!(net.topo.nodes_at(SwitchId(0)).len(), 6);
        assert!(net.reach.covers(SwitchId(0), crate::NodeMask::all(6)));
    }

    #[test]
    fn star_analyzes() {
        let net = Network::analyze(star(4, 3).unwrap()).unwrap();
        assert_eq!(net.num_switches(), 5);
        assert_eq!(net.num_nodes(), 12);
    }

    #[test]
    fn ring_analyzes_and_offers_two_routes_from_the_far_side() {
        let net = Network::analyze(ring(6).unwrap()).unwrap();
        net.updown.verify_acyclic(&net.topo).unwrap();
        assert!(net.routing.fully_connected());
        // In a 6-ring rooted at S0, S3 is equidistant both ways; the
        // up*/down* rule still leaves at least one pair with route choice.
        use crate::routing::Phase;
        let any_adaptive = (0..6u16).any(|a| {
            (0..6u16).any(|b| {
                a != b
                    && net
                        .routing
                        .next_hops(SwitchId(a), Phase::Up, SwitchId(b))
                        .len()
                        > 1
            })
        });
        assert!(any_adaptive);
    }

    #[test]
    fn two_level_shows_the_updown_root_bottleneck() {
        // A classic up*/down* artifact: with spines S0 and S1 (added
        // first) and BFS rooted at S0, S1 lands *below* the leaves
        // (level 2), so leaf→S1→leaf would be down-then-up — illegal.
        // All leaf-to-leaf traffic is forced through the root spine,
        // even though the physical fabric has two disjoint spines.
        let net = Network::analyze(two_level(2, 4, 4).unwrap()).unwrap();
        assert_eq!(net.num_switches(), 6);
        assert_eq!(net.num_nodes(), 16);
        use crate::routing::Phase;
        assert_eq!(net.updown.level(SwitchId(1)), 2, "second spine below the leaves");
        let hops = net.routing.next_hops(SwitchId(2), Phase::Up, SwitchId(3));
        assert_eq!(hops.len(), 1, "leaf-to-leaf forced through the root");
        assert_eq!(hops[0].next, SwitchId(0));
    }

    #[test]
    fn two_level_covers_from_any_spine() {
        let net = Network::analyze(two_level(2, 3, 2).unwrap()).unwrap();
        let all = crate::NodeMask::all(net.num_nodes());
        assert!(net.reach.covers(net.updown.root(), all));
    }
}
