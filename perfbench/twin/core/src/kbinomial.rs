//! k-binomial multicast trees and the FPFS completion-time model.
//!
//! A *k-binomial tree* is a recursively doubling tree in which each vertex
//! has at most `k` children (Kesavan–Panda, ICPP '97): in every round each
//! informed node that still has child capacity adopts the next uninformed
//! node. `k = ∞` degenerates to the classic binomial tree; `k = 1` to a
//! chain. Under FPFS (First-Packet-First-Served) smart-NI forwarding the
//! optimal `k` trades tree depth against per-node NI serialization — more
//! children means fewer rounds but a longer replica train per packet — and
//! depends on the destination count and the number of packets.
//!
//! [`choose_k`] picks `k` by evaluating an analytic FPFS pipeline model
//! ([`estimate_fpfs_completion`]) over candidate values, which is the role
//! the closed-form optimization plays in the original paper.

use irrnet_sim::SimConfig;
use irrnet_topology::NodeId;
use std::collections::HashMap;

/// A multicast tree: parent/children relations over `source ∪ dests`.
#[derive(Debug, Clone)]
pub struct McastTree {
    /// The root (multicast source).
    pub source: NodeId,
    /// Children per node, in send order. Nodes without children are absent.
    pub children: HashMap<NodeId, Vec<NodeId>>,
    /// Nodes in the order they are informed (root first) — the
    /// construction order, used by the cost model.
    pub bfs_order: Vec<NodeId>,
    /// The fan-out bound used to build the tree.
    pub k: usize,
    /// Adoption rounds the construction needed — the number of
    /// communication *steps* of the software scheme (⌈log₂(d+1)⌉ for the
    /// unbounded binomial; ≥ depth in general because a node sends to its
    /// children one per round).
    pub rounds: usize,
}

impl McastTree {
    /// Children of a node (empty slice if none).
    pub fn children_of(&self, n: NodeId) -> &[NodeId] {
        self.children.get(&n).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total nodes (source + destinations).
    pub fn len(&self) -> usize {
        self.bfs_order.len()
    }

    /// True if the tree has only the source.
    pub fn is_empty(&self) -> bool {
        self.bfs_order.len() <= 1
    }

    /// Depth (edges on the longest root-leaf path).
    pub fn depth(&self) -> usize {
        let mut depth = HashMap::new();
        depth.insert(self.source, 0usize);
        let mut max = 0;
        for &n in &self.bfs_order {
            let d = depth[&n];
            for &c in self.children_of(n) {
                depth.insert(c, d + 1);
                max = max.max(d + 1);
            }
        }
        max
    }

    /// Verify structural invariants: spans exactly `1 + #dests` nodes,
    /// every node has ≤ k children, every non-root has one parent.
    pub fn verify(&self) -> Result<(), String> {
        let mut seen = HashMap::new();
        seen.insert(self.source, ());
        for (&p, kids) in &self.children {
            if kids.len() > self.k {
                return Err(format!("{p} has {} > k={} children", kids.len(), self.k));
            }
            for &c in kids {
                if seen.insert(c, ()).is_some() {
                    return Err(format!("{c} has two parents"));
                }
            }
        }
        if seen.len() != self.bfs_order.len() {
            return Err("tree does not span its order list".into());
        }
        Ok(())
    }
}

/// Build the k-binomial tree over `source` followed by `dests` (already in
/// the desired contention-aware order).
///
/// The tree *shape* comes from the round structure: each round, every
/// informed node with fewer than `k` children adopts one new node. The
/// *placement* maps every subtree onto a **contiguous** slice of the
/// ordered destination chain (the first-sent, largest subtree takes the
/// far end of the range, recursively) — the chain-concatenation layout of
/// Kesavan–Panda's contention-minimizing construction, which keeps tree
/// edges between neighboring network regions and concurrent transfers off
/// each other's links.
pub fn build_k_binomial(source: NodeId, dests: &[NodeId], k: usize) -> McastTree {
    assert!(k >= 1, "k must be at least 1");
    let n = dests.len() + 1;

    // 1. Shape over virtual ids 0..n (adoption order); parent id < child id.
    let mut vchildren: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut informed: Vec<usize> = Vec::with_capacity(n);
    informed.push(0);
    let mut next = 1usize;
    let mut rounds = 0usize;
    while next < n {
        rounds += 1;
        let len = informed.len();
        for i in 0..len {
            if next >= n {
                break;
            }
            let p = informed[i];
            if vchildren[p].len() < k {
                vchildren[p].push(next);
                informed.push(next);
                next += 1;
            }
        }
    }

    // 2. Subtree sizes (children always have larger virtual ids).
    let mut size = vec![1usize; n];
    for v in (0..n).rev() {
        for &c in &vchildren[v] {
            size[v] += size[c];
        }
    }

    // 3. Contiguous placement: all[0] = source, all[1..] = dests; the
    //    subtree of a virtual node occupies one slice, its root at the
    //    slice's front, its children's slices carved from the back
    //    (first-sent child = farthest slice).
    let mut all: Vec<NodeId> = Vec::with_capacity(n);
    all.push(source);
    all.extend_from_slice(dests);
    let mut children: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    let mut vlabel: Vec<NodeId> = vec![NodeId(0); n];
    let mut stack: Vec<(usize, usize, usize)> = vec![(0, 0, n)]; // (virtual, lo, hi)
    while let Some((v, lo, hi)) = stack.pop() {
        debug_assert_eq!(hi - lo, size[v]);
        let me = all[lo];
        vlabel[v] = me;
        let mut end = hi;
        let mut kids_labeled = Vec::with_capacity(vchildren[v].len());
        for &c in &vchildren[v] {
            let start = end - size[c];
            kids_labeled.push(all[start]);
            stack.push((c, start, end));
            end = start;
        }
        debug_assert_eq!(end, lo + 1);
        if !kids_labeled.is_empty() {
            children.insert(me, kids_labeled);
        }
    }

    // 4. Informed order mapped to real labels.
    let bfs_order: Vec<NodeId> = informed.into_iter().map(|v| vlabel[v]).collect();

    McastTree { source, children, bfs_order, k, rounds }
}

/// Ablation variant of [`build_k_binomial`]: identical tree *shape*, but
/// children keep the raw round-adoption placement (node at informed
/// position *i* adopts the next destination in list order), which
/// scatters each subtree across the ordered chain. Exists to quantify
/// what the contiguous (chain-concatenation) placement buys — see the
/// `abl_ordering` harness.
pub fn build_k_binomial_scattered(source: NodeId, dests: &[NodeId], k: usize) -> McastTree {
    assert!(k >= 1, "k must be at least 1");
    let mut children: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    let mut informed: Vec<NodeId> = Vec::with_capacity(dests.len() + 1);
    informed.push(source);
    let mut next = 0usize;
    let mut rounds = 0usize;
    while next < dests.len() {
        rounds += 1;
        let round_len = informed.len();
        for i in 0..round_len {
            if next >= dests.len() {
                break;
            }
            let parent = informed[i];
            let kids = children.entry(parent).or_default();
            if kids.len() < k {
                let child = dests[next];
                next += 1;
                kids.push(child);
                informed.push(child);
            }
        }
    }
    McastTree { source, children, bfs_order: informed, k, rounds }
}

/// Analytic FPFS completion-time estimate for a k-binomial tree.
///
/// Models the pipeline of §3.2.1: the source pays `O_{s,h}` once, DMAs the
/// message packet by packet, and its NI injects one replica per child per
/// packet (`O_{s,ni}` each, FPFS order, serialized on the NI and on the
/// injection link). Each intermediate node's NI receives packet `j`, pays
/// `O_{r,ni}`, and forwards replicas to its children the same way. A
/// node's host is done when the last packet has been DMA'd up and
/// `O_{r,h}` paid. Network distance is approximated by `hops_est`
/// store-and-forward-free pipeline hops — a constant offset that barely
/// affects the argmin over `k`.
pub fn estimate_fpfs_completion(
    tree: &McastTree,
    cfg: &SimConfig,
    message_flits: u32,
    hops_est: u32,
) -> u64 {
    let m = cfg.packets_for(message_flits);
    let header = cfg.unicast_header_flits;
    let net_lat = (hops_est as u64) * cfg.hop_latency() + cfg.link_delay;

    // Per node: the cycle each packet is available in NI memory.
    let mut avail: HashMap<NodeId, Vec<u64>> = HashMap::new();

    // Source: O_{s,h} then pipelined DMA.
    let mut t = cfg.o_send_host;
    let mut src_avail = Vec::with_capacity(m as usize);
    for j in 0..m {
        t += cfg.dma_cycles(cfg.packet_payload(message_flits, j));
        src_avail.push(t);
    }
    avail.insert(tree.source, src_avail);

    let mut completion = 0u64;
    for &node in &tree.bfs_order {
        let node_avail = avail[&node].clone();
        let kids = tree.children_of(node);
        // NI serialization: Rx (non-source) + Tx replicas in FPFS order.
        let mut ni_t = 0u64;
        // Receive-side processing per packet for non-source nodes was
        // already folded into `node_avail` (see child update below), so
        // here we only serialize the transmit side.
        let mut link_t = 0u64;
        let mut child_arrivals: Vec<Vec<u64>> = vec![Vec::with_capacity(m as usize); kids.len()];
        for (j, &avail_j) in node_avail.iter().enumerate() {
            let wire = (header + cfg.packet_payload(message_flits, j as u32)) as u64;
            // O_{s,ni} per message copy (first packet), light handling on
            // the rest — mirrors the engine's charging.
            let tx_cost = if j == 0 { cfg.o_send_ni } else { cfg.o_ni_per_packet() };
            for (ci, _) in kids.iter().enumerate() {
                ni_t = ni_t.max(avail_j) + tx_cost;
                link_t = link_t.max(ni_t) + wire;
                child_arrivals[ci].push(link_t + net_lat);
            }
        }
        for (ci, &c) in kids.iter().enumerate() {
            // Child's NI pays O_{r,ni} on the first packet, light
            // handling on the rest, serially.
            let mut rx_t = 0u64;
            let child_avail: Vec<u64> = child_arrivals[ci]
                .iter()
                .enumerate()
                .map(|(j, &a)| {
                    let rx_cost = if j == 0 { cfg.o_recv_ni } else { cfg.o_ni_per_packet() };
                    rx_t = rx_t.max(a) + rx_cost;
                    rx_t
                })
                .collect();
            avail.insert(c, child_avail);
        }
        // Host-side completion of this node (destinations only).
        if node != tree.source {
            let mut bus_t = 0u64;
            for j in 0..m {
                bus_t = bus_t.max(node_avail[j as usize])
                    + cfg.dma_cycles(cfg.packet_payload(message_flits, j));
            }
            completion = completion.max(bus_t + cfg.o_recv_host);
        }
    }
    completion
}

/// Pick the fan-out `k` minimizing the FPFS completion estimate.
/// Candidates are `1..=min(8, #dests)`; ties prefer smaller `k` (less
/// hot-spotting at the source switch).
pub fn choose_k(dests: &[NodeId], cfg: &SimConfig, message_flits: u32, hops_est: u32) -> usize {
    if dests.len() <= 1 {
        return 1;
    }
    let mut best_k = 1;
    let mut best_t = u64::MAX;
    for k in 1..=dests.len().min(8) {
        let tree = build_k_binomial(NodeId(u16::MAX), dests, k);
        let t = estimate_fpfs_completion(&tree, cfg, message_flits, hops_est);
        if t < best_t {
            best_t = t;
            best_k = k;
        }
    }
    best_k
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(ids: &[u16]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn k1_is_a_chain() {
        let t = build_k_binomial(NodeId(0), &nodes(&[1, 2, 3]), 1);
        t.verify().unwrap();
        assert_eq!(t.children_of(NodeId(0)), &[NodeId(1)]);
        assert_eq!(t.children_of(NodeId(1)), &[NodeId(2)]);
        assert_eq!(t.children_of(NodeId(2)), &[NodeId(3)]);
        assert_eq!(t.depth(), 3);
    }

    #[test]
    fn large_k_is_binomial_with_contiguous_subtrees() {
        // 7 destinations, k=8: binomial shape; placement gives the
        // first-sent (largest) subtree the far end of the chain, so every
        // subtree is a contiguous range of the ordered destinations.
        let t = build_k_binomial(NodeId(0), &nodes(&[1, 2, 3, 4, 5, 6, 7]), 8);
        t.verify().unwrap();
        assert_eq!(t.children_of(NodeId(0)), &[NodeId(4), NodeId(2), NodeId(1)]);
        assert_eq!(t.children_of(NodeId(4)), &[NodeId(6), NodeId(5)]);
        assert_eq!(t.children_of(NodeId(6)), &[NodeId(7)]);
        assert_eq!(t.children_of(NodeId(2)), &[NodeId(3)]);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.rounds, 3);
    }

    #[test]
    fn subtrees_are_contiguous_ranges() {
        // For every node, the set of its descendants (inclusive) must be
        // a contiguous slice of the ordered destination chain.
        for k in 1..=4 {
            let ds: Vec<NodeId> = (1..=13).map(NodeId).collect();
            let t = build_k_binomial(NodeId(0), &ds, k);
            t.verify().unwrap();
            fn collect(t: &McastTree, n: NodeId, out: &mut Vec<u16>) {
                out.push(n.0);
                for &c in t.children_of(n) {
                    collect(t, c, out);
                }
            }
            for &n in &t.bfs_order {
                if n == t.source {
                    continue;
                }
                let mut desc = Vec::new();
                collect(&t, n, &mut desc);
                desc.sort_unstable();
                for w in desc.windows(2) {
                    assert_eq!(w[1], w[0] + 1, "k={k}: subtree of {n} not contiguous: {desc:?}");
                }
            }
        }
    }

    #[test]
    fn k2_bounds_fanout() {
        let t = build_k_binomial(NodeId(0), &nodes(&[1, 2, 3, 4, 5, 6, 7, 8, 9]), 2);
        t.verify().unwrap();
        for kids in t.children.values() {
            assert!(kids.len() <= 2);
        }
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn tree_spans_exactly_dests() {
        for k in 1..=4 {
            for n in 1..=12 {
                let ds: Vec<NodeId> = (1..=n).map(NodeId).collect();
                let t = build_k_binomial(NodeId(0), &ds, k);
                t.verify().unwrap();
                assert_eq!(t.len(), n as usize + 1);
            }
        }
    }

    #[test]
    fn single_packet_prefers_high_fanout_at_high_r() {
        // With a cheap NI (R = 4), replication at the NI is nearly free,
        // so a bushier tree (shallower) wins for one packet.
        let cfg = SimConfig::paper_default().with_r(4.0);
        let ds: Vec<NodeId> = (1..=15).map(NodeId).collect();
        let k = choose_k(&ds, &cfg, 128, 3);
        assert!(k >= 2, "expected bushy tree, got k={k}");
    }

    #[test]
    fn many_packets_prefer_lower_fanout() {
        // With many packets, per-node replica trains (k × wire time per
        // packet) dominate; optimal k drops relative to the 1-packet case.
        let cfg = SimConfig::paper_default();
        let ds: Vec<NodeId> = (1..=15).map(NodeId).collect();
        let k1 = choose_k(&ds, &cfg, 128, 3);
        let k16 = choose_k(&ds, &cfg, 2048, 3);
        assert!(k16 <= k1, "k16={k16} k1={k1}");
    }

    #[test]
    fn estimate_is_monotone_in_message_length() {
        let cfg = SimConfig::paper_default();
        let ds: Vec<NodeId> = (1..=7).map(NodeId).collect();
        let t = build_k_binomial(NodeId(0), &ds, 2);
        let short = estimate_fpfs_completion(&t, &cfg, 128, 3);
        let long = estimate_fpfs_completion(&t, &cfg, 1024, 3);
        assert!(long > short);
    }

    #[test]
    fn choose_k_handles_tiny_sets() {
        let cfg = SimConfig::paper_default();
        assert_eq!(choose_k(&[], &cfg, 128, 3), 1);
        assert_eq!(choose_k(&nodes(&[1]), &cfg, 128, 3), 1);
    }
}
