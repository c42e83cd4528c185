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
//! over candidate values, which is the role the closed-form optimization
//! plays in the original paper. The model reads only the tree's *shape*
//! (who sends to how many children, in which order), never node
//! identities, so `choose_k` evaluates it on the shape over dense virtual
//! ids without labelling a tree; [`estimate_fpfs_completion`] is the same
//! model for an already built [`McastTree`].

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
    let shape = Shape::k_binomial(n, k);

    // Subtree sizes (children always have larger virtual ids).
    let mut size = vec![1usize; n];
    for v in (0..n).rev() {
        for &c in shape.kids(v) {
            size[v] += size[c as usize];
        }
    }

    // Contiguous placement: all[0] = source, all[1..] = dests; the
    // subtree of a virtual node occupies one slice, its root at the
    // slice's front, its children's slices carved from the back
    // (first-sent child = farthest slice).
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
        let mut kids_labeled = Vec::with_capacity(shape.kids(v).len());
        for &c in shape.kids(v) {
            let c = c as usize;
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

    // Virtual ids are the informed order.
    McastTree { source, children, bfs_order: vlabel, k, rounds: shape.rounds }
}

/// Ablation variant of [`build_k_binomial`]: identical tree *shape*, but
/// children keep the raw round-adoption placement (node at informed
/// position *i* adopts the next destination in list order), which
/// scatters each subtree across the ordered chain. Exists to quantify
/// what the contiguous (chain-concatenation) placement buys — see the
/// `abl_ordering` harness.
pub fn build_k_binomial_scattered(source: NodeId, dests: &[NodeId], k: usize) -> McastTree {
    assert!(k >= 1, "k must be at least 1");
    let shape = Shape::k_binomial(dests.len() + 1, k);
    let mut bfs_order: Vec<NodeId> = Vec::with_capacity(dests.len() + 1);
    bfs_order.push(source);
    bfs_order.extend_from_slice(dests);
    let mut children: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for (v, &me) in bfs_order.iter().enumerate() {
        let kids = shape.kids(v);
        if !kids.is_empty() {
            children.insert(me, kids.iter().map(|&c| bfs_order[c as usize]).collect());
        }
    }
    McastTree { source, children, bfs_order, k, rounds: shape.rounds }
}

/// A tree shape over virtual ids `0..n` in informed order: 0 is the
/// root and every parent precedes its children.
/// `kids[start[v]..start[v + 1]]` are `v`'s children in send order.
#[derive(Debug, Default)]
struct Shape {
    start: Vec<u32>,
    kids: Vec<u32>,
    /// Adoption rounds the construction took.
    rounds: usize,
    /// Largest number of children of any node.
    max_fanout: usize,
    /// Working space of [`Shape::rebuild`]: each node's parent and its index
    /// among that parent's children.
    links: Vec<(u32, u32)>,
}

impl Shape {
    /// The k-binomial shape over `n` nodes.
    fn k_binomial(n: usize, k: usize) -> Shape {
        let mut shape = Shape::default();
        shape.rebuild(n, k);
        shape
    }

    /// Rebuild in place, reusing the buffers, as the k-binomial shape over
    /// `n` nodes: each round, every informed node with fewer than `k`
    /// children adopts the next uninformed node.
    fn rebuild(&mut self, n: usize, k: usize) {
        self.start.clear();
        self.start.resize(n + 1, 0);
        self.links.clear();
        self.links.resize(n, (0, 0));
        // Informed order is adoption order: `0..next` are informed.
        let fanout = &mut self.start[1..];
        let (mut next, mut rounds) = (1usize, 0usize);
        while next < n {
            rounds += 1;
            // Only nodes informed before this round adopt in it.
            let informed = next;
            for (p, count) in fanout[..informed].iter_mut().enumerate() {
                if next >= n {
                    break;
                }
                if (*count as usize) < k {
                    self.links[next] = (p as u32, *count);
                    *count += 1;
                    next += 1;
                }
            }
        }
        self.rounds = rounds;
        self.max_fanout = fanout.iter().copied().max().unwrap_or(0) as usize;
        for v in 0..n {
            self.start[v + 1] += self.start[v];
        }
        self.kids.clear();
        self.kids.resize(n.saturating_sub(1), 0);
        for (c, &(p, i)) in self.links.iter().enumerate().skip(1) {
            self.kids[(self.start[p as usize] + i) as usize] = c as u32;
        }
    }

    fn len(&self) -> usize {
        self.start.len() - 1
    }

    fn kids(&self, v: usize) -> &[u32] {
        &self.kids[self.start[v] as usize..self.start[v + 1] as usize]
    }
}

/// The per-packet cost terms of the FPFS estimate for one message.
struct FpfsCosts {
    o_send_host: u64,
    o_recv_host: u64,
    /// Network latency of one replica: pipeline hops plus the link.
    net_lat: u64,
    /// Per packet: host↔NI DMA time.
    dma: Vec<u64>,
    /// Per packet: flits on the wire (header + payload).
    wire: Vec<u64>,
    /// Per packet: NI cost of injecting one copy.
    tx: Vec<u64>,
    /// Per packet: NI cost of receiving it.
    rx: Vec<u64>,
}

impl FpfsCosts {
    fn new(cfg: &SimConfig, message_flits: u32, hops_est: u32) -> Self {
        let m = cfg.packets_for(message_flits);
        let payload = |j: u32| cfg.packet_payload(message_flits, j);
        // O_{s,ni} / O_{r,ni} on a message copy's first packet, light
        // handling on the rest — mirrors the engine's charging.
        let first_or_light =
            |j: u32, first: u64| if j == 0 { first } else { cfg.o_ni_per_packet() };
        FpfsCosts {
            o_send_host: cfg.o_send_host,
            o_recv_host: cfg.o_recv_host,
            net_lat: (hops_est as u64) * cfg.hop_latency() + cfg.link_delay,
            dma: (0..m).map(|j| cfg.dma_cycles(payload(j))).collect(),
            wire: (0..m).map(|j| (cfg.unicast_header_flits + payload(j)) as u64).collect(),
            tx: (0..m).map(|j| first_or_light(j, cfg.o_send_ni)).collect(),
            rx: (0..m).map(|j| first_or_light(j, cfg.o_recv_ni)).collect(),
        }
    }

    /// The FPFS completion estimate of a tree shape (see
    /// [`estimate_fpfs_completion`]). `avail` is a reused buffer: per node and
    /// packet, the cycle the packet is available in the node's NI memory.
    fn estimate(&self, shape: &Shape, avail: &mut Vec<u64>) -> u64 {
        let m = self.dma.len();
        avail.clear();
        avail.resize(shape.len() * m, 0);
        // Source: O_{s,h} then pipelined DMA.
        let mut t = self.o_send_host;
        for (a, dma) in avail.iter_mut().zip(&self.dma) {
            t += dma;
            *a = t;
        }
        let mut completion = 0u64;
        for v in 0..shape.len() {
            let kids = shape.kids(v);
            // NI serialization of the replicas, FPFS order: packet by
            // packet, one copy per child; each child's row first holds
            // the arrival times.
            let (mut ni_t, mut link_t) = (0u64, 0u64);
            for j in 0..m {
                let avail_j = avail[v * m + j];
                for &c in kids {
                    ni_t = ni_t.max(avail_j) + self.tx[j];
                    link_t = link_t.max(ni_t) + self.wire[j];
                    avail[c as usize * m + j] = link_t + self.net_lat;
                }
            }
            // Each child's NI receives its packets serially.
            for &c in kids {
                let row = &mut avail[c as usize * m..(c as usize + 1) * m];
                let mut rx_t = 0u64;
                for (a, rx) in row.iter_mut().zip(&self.rx) {
                    rx_t = rx_t.max(*a) + rx;
                    *a = rx_t;
                }
            }
            // Host-side completion of this node (destinations only).
            if v != 0 {
                let mut bus_t = 0u64;
                for (a, dma) in avail[v * m..(v + 1) * m].iter().zip(&self.dma) {
                    bus_t = bus_t.max(*a) + dma;
                }
                completion = completion.max(bus_t + self.o_recv_host);
            }
        }
        completion
    }
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
    // The tree's shape over its informed order.
    let pos: HashMap<NodeId, u32> =
        tree.bfs_order.iter().enumerate().map(|(i, &nd)| (nd, i as u32)).collect();
    let mut shape = Shape { start: vec![0], ..Shape::default() };
    for &nd in &tree.bfs_order {
        shape.kids.extend(tree.children_of(nd).iter().map(|c| pos[c]));
        shape.start.push(shape.kids.len() as u32);
    }
    FpfsCosts::new(cfg, message_flits, hops_est).estimate(&shape, &mut Vec::new())
}

/// Pick the fan-out `k` minimizing the FPFS completion estimate of the
/// k-binomial tree over `dests`. Candidates are `1..=min(8, #dests)`;
/// ties prefer smaller `k` (less hot-spotting at the source switch).
///
/// Only `dests.len()` matters: the estimate depends on the tree's shape,
/// which the destination count and `k` fix.
pub fn choose_k(dests: &[NodeId], cfg: &SimConfig, message_flits: u32, hops_est: u32) -> usize {
    if dests.len() <= 1 {
        return 1;
    }
    let n = dests.len() + 1;
    let costs = FpfsCosts::new(cfg, message_flits, hops_est);
    let (mut shape, mut avail) = (Shape::default(), Vec::new());
    let mut best_k = 1;
    let mut best_t = u64::MAX;
    for k in 1..=dests.len().min(8) {
        shape.rebuild(n, k);
        let t = costs.estimate(&shape, &mut avail);
        if t < best_t {
            best_t = t;
            best_k = k;
        }
        if shape.max_fanout < k {
            // The bound never bit, so every larger k builds this same
            // shape, and a tie keeps the smaller k.
            break;
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
        let cfg = SimConfig::paper_default().with_r(4.0).unwrap();
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
