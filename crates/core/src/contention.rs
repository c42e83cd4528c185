//! Static link-contention analysis of multicast trees.
//!
//! The NI-based scheme turns a multicast into one unicast stream per tree
//! edge; when several edges' routes share a physical link, the streams
//! halve each other's bandwidth and the FPFS pipeline stalls (visible as
//! super-linear latency growth for long messages). This module counts,
//! for a given tree, how many edge-routes cross each directed inter-switch
//! link — the quantity the contention-aware chain-concatenation placement
//! minimizes.

use crate::kbinomial::McastTree;
use irrnet_topology::{Network, Phase};

/// Per-tree link-load summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkLoadStats {
    /// Total directed inter-switch link crossings over all tree edges.
    pub crossings: usize,
    /// Maximum streams sharing one directed link.
    pub max_load: usize,
    /// Mean load over links that carry at least one stream.
    pub mean_load: f64,
    /// Tree edges whose endpoints share a switch (zero link crossings).
    pub local_edges: usize,
}

/// Walk a deterministic minimal route for every tree edge and accumulate
/// per-directed-link usage counts.
pub fn tree_link_loads(net: &Network, tree: &McastTree) -> LinkLoadStats {
    let mut load = vec![0usize; net.topo.num_links() * 2];
    let mut crossings = 0usize;
    let mut local_edges = 0usize;
    for &parent in &tree.bfs_order {
        for &child in tree.children_of(parent) {
            let mut s = net.topo.host_switch(parent);
            let t = net.topo.host_switch(child);
            if s == t {
                local_edges += 1;
                continue;
            }
            let mut phase = Phase::Up;
            while s != t {
                let hop = net.routing.next_hops(s, phase, t)[0];
                let side_from = net.topo.link(hop.link).side_of(s).expect("endpoint");
                load[hop.link.idx() * 2 + side_from as usize] += 1;
                crossings += 1;
                s = hop.next;
                phase = hop.next_phase;
            }
        }
    }
    let used: Vec<usize> = load.iter().copied().filter(|&l| l > 0).collect();
    LinkLoadStats {
        crossings,
        max_load: used.iter().copied().max().unwrap_or(0),
        mean_load: if used.is_empty() {
            0.0
        } else {
            used.iter().sum::<usize>() as f64 / used.len() as f64
        },
        local_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kbinomial::{build_k_binomial, build_k_binomial_scattered};
    use crate::order::sort_by_rank;
    use irrnet_topology::{gen, NodeId, RandomTopologyConfig};

    #[test]
    fn contiguous_placement_reduces_crossings() {
        // Aggregated over topologies and fan-outs, the contiguous
        // chain-concatenation placement must generate no more link
        // crossings than the scattered round placement.
        let mut contig = 0usize;
        let mut scattered = 0usize;
        for seed in 0..8 {
            let net = irrnet_topology::Network::analyze(
                gen::generate(&RandomTopologyConfig::paper_default(seed)).unwrap(),
            )
            .unwrap();
            let mut dests: Vec<NodeId> = (1..=16).map(NodeId).collect();
            sort_by_rank(&mut dests, net.node_ranks());
            for k in [1usize, 2, 4] {
                let a = build_k_binomial(NodeId(0), &dests, k);
                let b = build_k_binomial_scattered(NodeId(0), &dests, k);
                contig += tree_link_loads(&net, &a).crossings;
                scattered += tree_link_loads(&net, &b).crossings;
            }
        }
        assert!(
            contig < scattered,
            "contiguous {contig} should beat scattered {scattered}"
        );
    }

    #[test]
    fn chain_over_one_switch_is_all_local() {
        let net = irrnet_topology::Network::analyze(irrnet_topology::zoo::single_switch(8).unwrap())
            .unwrap();
        let dests: Vec<NodeId> = (1..=7).map(NodeId).collect();
        let t = build_k_binomial(NodeId(0), &dests, 2);
        let s = tree_link_loads(&net, &t);
        assert_eq!(s.crossings, 0);
        assert_eq!(s.local_edges, 7);
        assert_eq!(s.max_load, 0);
    }

    #[test]
    fn chain_topology_chain_tree_has_unit_loads() {
        // chain(4), k=1 over rank order: edges n0->n1->n2->n3, each
        // crossing exactly the links between consecutive switches once.
        let net =
            irrnet_topology::Network::analyze(irrnet_topology::zoo::chain(4).unwrap()).unwrap();
        let dests: Vec<NodeId> = (1..=3).map(NodeId).collect();
        let t = build_k_binomial(NodeId(0), &dests, 1);
        let s = tree_link_loads(&net, &t);
        assert_eq!(s.crossings, 3);
        assert_eq!(s.max_load, 1);
        assert_eq!(s.local_edges, 0);
    }
}
