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

use irrnet_topology::{Network, NodeId, SwitchId};

/// Rank every node by network locality. Lower ranks are "earlier" in the
/// canonical chain. Nodes on the same switch get consecutive ranks.
pub fn node_ranks(net: &Network) -> Vec<u32> {
    let n_sw = net.topo.num_switches();
    let mut sw_rank = vec![u32::MAX; n_sw];
    let mut next = 0u32;
    // Iterative DFS from the spanning-tree root over *down* links,
    // visiting lower-id switches first (deterministic).
    let root = net.updown.root();
    let mut stack = vec![root];
    while let Some(s) = stack.pop() {
        if sw_rank[s.idx()] != u32::MAX {
            continue;
        }
        sw_rank[s.idx()] = next;
        next += 1;
        let mut kids: Vec<SwitchId> = net
            .updown
            .down_links(&net.topo, s)
            .map(|(_, peer, _)| peer)
            .filter(|p| sw_rank[p.idx()] == u32::MAX)
            .collect();
        kids.sort_unstable();
        kids.dedup();
        // Push in reverse so the lowest-id child is visited first.
        for k in kids.into_iter().rev() {
            stack.push(k);
        }
    }
    debug_assert!(sw_rank.iter().all(|&r| r != u32::MAX), "down-DAG did not span");

    let n = net.topo.num_nodes();
    let mut ranks = vec![0u32; n];
    let mut order: Vec<NodeId> = (0..n).map(|i| NodeId(i as u16)).collect();
    order.sort_by_key(|&nd| (sw_rank[net.topo.host_switch(nd).idx()], nd.0));
    for (r, nd) in order.into_iter().enumerate() {
        ranks[nd.idx()] = r as u32;
    }
    ranks
}

/// Sort `nodes` into canonical chain order.
pub fn sort_by_rank(nodes: &mut [NodeId], ranks: &[u32]) {
    nodes.sort_by_key(|n| ranks[n.idx()]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use irrnet_topology::{zoo, Network};

    #[test]
    fn ranks_are_a_permutation() {
        let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
        let ranks = node_ranks(&net);
        let mut seen = vec![false; ranks.len()];
        for &r in &ranks {
            assert!(!seen[r as usize], "duplicate rank {r}");
            seen[r as usize] = true;
        }
    }

    #[test]
    fn same_switch_nodes_are_contiguous() {
        let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
        let ranks = node_ranks(&net);
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
        let ranks = node_ranks(&net);
        // chain roots at S0; DFS order follows the chain.
        assert!(ranks[0] < ranks[1]);
        assert!(ranks[1] < ranks[2]);
        assert!(ranks[2] < ranks[3]);
    }

    #[test]
    fn sorting_respects_ranks() {
        let net = Network::analyze(zoo::chain(3).unwrap()).unwrap();
        let ranks = node_ranks(&net);
        let mut v = vec![NodeId(2), NodeId(0), NodeId(1)];
        sort_by_rank(&mut v, &ranks);
        assert_eq!(v, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }
}
