//! Contention-aware destination ordering.
//!
//! The binomial-tree constructions (software unicast and NI-based FPFS)
//! need an ordering of the destinations such that subtrees of the logical
//! tree map onto contiguous regions of the physical network — then sibling
//! subtrees share few links and the tree's concurrent transfers contend
//! less. This reconstructs the spirit of the ordered-chain construction of
//! Kesavan–Panda (HPCA-3): destinations are ranked by a depth-first
//! traversal of the up*/down* orientation's down-DAG from the root, so
//! nodes on the same switch are adjacent and nearby switches are close.
//! The ranks are a pure function of the analyzed network, so the network
//! computes them once
//! ([`Network::node_ranks`](irrnet_topology::Network::node_ranks)) and
//! planners only sort by them.

use irrnet_topology::NodeId;

/// Sort `nodes` into canonical chain order. Ranks are distinct, so the
/// unstable sort is deterministic.
pub fn sort_by_rank(nodes: &mut [NodeId], ranks: &[u32]) {
    nodes.sort_unstable_by_key(|n| ranks[n.idx()]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use irrnet_topology::{zoo, Network};

    #[test]
    fn ranks_are_a_permutation() {
        let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
        let ranks = net.node_ranks();
        let mut seen = vec![false; ranks.len()];
        for &r in ranks {
            assert!(!seen[r as usize], "duplicate rank {r}");
            seen[r as usize] = true;
        }
    }

    #[test]
    fn same_switch_nodes_are_contiguous() {
        let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
        let ranks = net.node_ranks();
        // Gather ranks per switch; each switch's rank set must be a
        // contiguous interval.
        for (s, _) in net.topo.switches() {
            let mut rs: Vec<u32> = net
                .topo
                .nodes_at(s)
                .iter()
                .map(|n| ranks[n.idx()])
                .collect();
            rs.sort_unstable();
            for w in rs.windows(2) {
                assert_eq!(w[1], w[0] + 1, "switch {s} ranks not contiguous: {rs:?}");
            }
        }
    }

    #[test]
    fn chain_topology_orders_along_the_chain() {
        let net = Network::analyze(zoo::chain(4).unwrap()).unwrap();
        let ranks = net.node_ranks();
        // chain roots at S0; DFS order follows the chain.
        assert!(ranks[0] < ranks[1]);
        assert!(ranks[1] < ranks[2]);
        assert!(ranks[2] < ranks[3]);
    }

    #[test]
    fn sorting_respects_ranks() {
        let net = Network::analyze(zoo::chain(3).unwrap()).unwrap();
        let ranks = net.node_ranks();
        let mut v = vec![NodeId(2), NodeId(0), NodeId(1)];
        sort_by_rank(&mut v, ranks);
        assert_eq!(v, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }
}
