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
//!
//! The answer of `choose_k` is a pure function of the destination count
//! and the message's cost terms (`FpfsCosts`, which holds every number
//! the estimate reads), so each thread keeps the answers for the last cost
//! terms it saw, by destination count, and the shapes and availability
//! rows it evaluates them on. Together with the placement buffers of
//! [`build_k_binomial`], that working space makes both functions free of
//! per-call heap allocation once warm.

use crate::table::NodeTable;
use irrnet_sim::SimConfig;
use irrnet_topology::{NodeId, NodeMask};
use std::cell::RefCell;

/// A multicast tree: parent/children relations over `source ∪ dests`.
#[derive(Debug, Clone)]
pub struct McastTree {
    /// The root (multicast source).
    pub source: NodeId,
    /// Children per node, in send order. Nodes without children have no
    /// list.
    pub children: NodeTable<NodeId>,
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
        self.children.get(n)
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
        let mut max = 0;
        let mut stack = vec![(self.source, 0usize)];
        while let Some((n, d)) = stack.pop() {
            max = max.max(d);
            stack.extend(self.children_of(n).iter().map(|&c| (c, d + 1)));
        }
        max
    }

    /// Verify structural invariants: spans exactly `1 + #dests` nodes,
    /// every node has ≤ k children, every non-root has one parent.
    pub fn verify(&self) -> Result<(), String> {
        let mut seen = NodeMask::single(self.source);
        for (p, kids) in self.children.iter() {
            if kids.len() > self.k {
                return Err(format!("{p} has {} > k={} children", kids.len(), self.k));
            }
            for &c in kids {
                if seen.contains(c) {
                    return Err(format!("{c} has two parents"));
                }
                seen.insert(c);
            }
        }
        if seen.len() != self.bfs_order.len() {
            return Err("tree does not span its order list".into());
        }
        Ok(())
    }
}

thread_local! {
    /// This thread's working space for [`choose_k`] and
    /// [`build_k_binomial`].
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Buffers reused from call to call, and `choose_k`'s answers.
#[derive(Default)]
struct Scratch {
    shape: Shape,
    /// Per node and packet, the cycle the packet is available in the
    /// node's NI memory ([`FpfsCosts::estimate`]).
    avail: Vec<u64>,
    /// Subtree sizes over virtual ids ([`build_k_binomial`]).
    size: Vec<u32>,
    /// Pending `(virtual id, lo, hi)` placements ([`build_k_binomial`]).
    stack: Vec<(u32, u32, u32)>,
    /// The cost terms `answers` hold `choose_k`'s answers for.
    answers_for: Option<FpfsCosts>,
    /// `choose_k`'s answer by destination count; 0 = not evaluated yet.
    answers: Vec<u8>,
}

impl Scratch {
    /// `choose_k` for `d ≥ 2` destinations: the stored answer for these
    /// cost terms, or a fresh evaluation, which is then stored.
    fn choose_k(&mut self, d: usize, costs: &FpfsCosts) -> usize {
        if self.answers_for.as_ref() != Some(costs) {
            self.answers_for = Some(*costs);
            self.answers.clear();
        }
        if self.answers.len() <= d {
            self.answers.resize(d + 1, 0);
        }
        if self.answers[d] == 0 {
            self.answers[d] = self.evaluate_k(d, costs) as u8;
        }
        self.answers[d] as usize
    }

    /// Evaluate the FPFS estimate of the k-binomial shape over `d + 1`
    /// nodes for `k = 1..=min(8, d)`; the smallest `k` with the least
    /// estimate wins.
    fn evaluate_k(&mut self, d: usize, costs: &FpfsCosts) -> usize {
        let mut best_k = 1;
        let mut best_t = u64::MAX;
        for k in 1..=d.min(8) {
            self.shape.rebuild(d + 1, k);
            let t = costs.estimate(&self.shape, &mut self.avail);
            if t < best_t {
                best_t = t;
                best_k = k;
            }
            if self.shape.max_fanout < k {
                // The bound never bit, so every larger k builds this same
                // shape, and a tie keeps the smaller k.
                break;
            }
        }
        best_k
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
    // Contiguous placement: position 0 is the source, positions 1.. the
    // dests; the subtree of a virtual node occupies one slice, its root at
    // the slice's front, its children's slices carved from the back
    // (first-sent child = farthest slice).
    let at = |i: u32| if i == 0 { source } else { dests[i as usize - 1] };
    let mut edges = Vec::with_capacity(n - 1);
    let mut bfs_order = vec![source; n];
    let rounds = SCRATCH.with_borrow_mut(|scratch| {
        let Scratch { shape, size, stack, .. } = scratch;
        shape.rebuild(n, k);
        // Subtree sizes (children always have larger virtual ids).
        size.clear();
        size.resize(n, 1);
        for v in (0..n).rev() {
            let sub: u32 = shape.kids(v).iter().map(|&c| size[c as usize]).sum();
            size[v] += sub;
        }
        stack.clear();
        stack.push((0, 0, n as u32));
        while let Some((v, lo, hi)) = stack.pop() {
            debug_assert_eq!(hi - lo, size[v as usize]);
            let me = at(lo);
            // Virtual ids are the informed order.
            bfs_order[v as usize] = me;
            let mut end = hi;
            for &c in shape.kids(v as usize) {
                let start = end - size[c as usize];
                edges.push((me, at(start)));
                stack.push((c, start, end));
                end = start;
            }
            debug_assert_eq!(end, lo + 1);
        }
        shape.rounds
    });
    McastTree { source, children: NodeTable::from_pairs(edges), bfs_order, k, rounds }
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
    let mut edges = Vec::with_capacity(dests.len());
    for (v, &me) in bfs_order.iter().enumerate() {
        edges.extend(shape.kids(v).iter().map(|&c| (me, bfs_order[c as usize])));
    }
    McastTree { source, children: NodeTable::from_pairs(edges), bfs_order, k, rounds: shape.rounds }
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

/// The cost terms of the FPFS estimate for one message: everything
/// [`FpfsCosts::estimate`] reads besides the tree shape. Every packet but
/// the last carries a full payload, and only the first pays the full NI
/// overheads, so three packet classes hold every per-packet cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FpfsCosts {
    o_send_host: u64,
    o_recv_host: u64,
    /// Network latency of one replica: pipeline hops plus the link.
    net_lat: u64,
    /// Packets in the message.
    packets: usize,
    /// Host↔NI DMA time of a full packet and of the last packet.
    dma: [u64; 2],
    /// Flits on the wire (header + payload) of a full and of the last packet.
    wire: [u64; 2],
    /// NI cost of injecting a copy of the first packet.
    tx_first: u64,
    /// NI cost of receiving the first packet.
    rx_first: u64,
    /// NI cost of injecting or receiving any later packet.
    light: u64,
}

impl FpfsCosts {
    fn new(cfg: &SimConfig, message_flits: u32, hops_est: u32) -> Self {
        let m = cfg.packets_for(message_flits);
        // The full payload, and the last packet's.
        let payload = [cfg.packet_payload_flits, cfg.packet_payload(message_flits, m - 1)];
        // O_{s,ni} / O_{r,ni} on a message copy's first packet, light
        // handling on the rest — mirrors the engine's charging.
        FpfsCosts {
            o_send_host: cfg.o_send_host,
            o_recv_host: cfg.o_recv_host,
            net_lat: (hops_est as u64) * cfg.hop_latency() + cfg.link_delay,
            packets: m as usize,
            dma: payload.map(|p| cfg.dma_cycles(p)),
            wire: payload.map(|p| (cfg.unicast_header_flits + p) as u64),
            tx_first: cfg.o_send_ni,
            rx_first: cfg.o_recv_ni,
            light: cfg.o_ni_per_packet(),
        }
    }

    /// Index into `dma` / `wire` of packet `j`.
    #[inline]
    fn class(&self, j: usize) -> usize {
        usize::from(j + 1 == self.packets)
    }

    #[inline]
    fn tx(&self, j: usize) -> u64 {
        if j == 0 { self.tx_first } else { self.light }
    }

    #[inline]
    fn rx(&self, j: usize) -> u64 {
        if j == 0 { self.rx_first } else { self.light }
    }

    /// The FPFS completion estimate of a tree shape (see
    /// [`estimate_fpfs_completion`]). `avail` is a reused buffer: per node and
    /// packet, the cycle the packet is available in the node's NI memory.
    fn estimate(&self, shape: &Shape, avail: &mut Vec<u64>) -> u64 {
        let m = self.packets;
        avail.clear();
        avail.resize(shape.len() * m, 0);
        // Source: O_{s,h} then pipelined DMA.
        let mut t = self.o_send_host;
        for (j, a) in avail[..m].iter_mut().enumerate() {
            t += self.dma[self.class(j)];
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
                let (tx, wire) = (self.tx(j), self.wire[self.class(j)]);
                for &c in kids {
                    ni_t = ni_t.max(avail_j) + tx;
                    link_t = link_t.max(ni_t) + wire;
                    avail[c as usize * m + j] = link_t + self.net_lat;
                }
            }
            // Each child's NI receives its packets serially.
            for &c in kids {
                let row = &mut avail[c as usize * m..(c as usize + 1) * m];
                let mut rx_t = 0u64;
                for (j, a) in row.iter_mut().enumerate() {
                    rx_t = rx_t.max(*a) + self.rx(j);
                    *a = rx_t;
                }
            }
            // Host-side completion of this node (destinations only).
            if v != 0 {
                let mut bus_t = 0u64;
                for (j, a) in avail[v * m..(v + 1) * m].iter().enumerate() {
                    bus_t = bus_t.max(*a) + self.dma[self.class(j)];
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
    let mut pos: Vec<(NodeId, u32)> =
        tree.bfs_order.iter().enumerate().map(|(i, &nd)| (nd, i as u32)).collect();
    pos.sort_unstable();
    let pos_of = |c: &NodeId| {
        pos[pos.binary_search_by_key(c, |&(nd, _)| nd).expect("child in order")].1
    };
    let mut shape = Shape { start: vec![0], ..Shape::default() };
    for &nd in &tree.bfs_order {
        shape.kids.extend(tree.children_of(nd).iter().map(pos_of));
        shape.start.push(shape.kids.len() as u32);
    }
    FpfsCosts::new(cfg, message_flits, hops_est).estimate(&shape, &mut Vec::new())
}

/// Pick the fan-out `k` minimizing the FPFS completion estimate of the
/// k-binomial tree over `dests`. Candidates are `1..=min(8, #dests)`;
/// ties prefer smaller `k` (less hot-spotting at the source switch).
///
/// Only `dests.len()` matters: the estimate depends on the tree's shape,
/// which the destination count and `k` fix. The answer is reused for
/// later calls with the same destination count and cost terms (see the
/// module docs).
pub fn choose_k(dests: &[NodeId], cfg: &SimConfig, message_flits: u32, hops_est: u32) -> usize {
    if dests.len() <= 1 {
        return 1;
    }
    let costs = FpfsCosts::new(cfg, message_flits, hops_est);
    SCRATCH.with_borrow_mut(|scratch| scratch.choose_k(dests.len(), &costs))
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
        for (_, kids) in t.children.iter() {
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
    fn reused_answers_match_fresh_evaluations() {
        // Interleave degrees, R values and hop estimates under each message
        // length so the stored answers are read back under changing cost
        // terms, some of which change the answer for the same degree.
        let ds: Vec<NodeId> = (1..=40).map(NodeId).collect();
        let mut changed = 0;
        for round in 0..2usize {
            for mf in [2048, 16, 4096, 129] {
                let mut answers: Vec<(usize, usize)> = Vec::new();
                for (i, d) in [3usize, 9, 40, 16, 3, 27, 9, 2, 40, 3].into_iter().enumerate() {
                    let r = [0.5, 1.0, 4.0][(i + round) % 3];
                    let cfg = SimConfig::paper_default().with_r(r).unwrap();
                    let hops = [1, 3, 6][(i + 2 * round) % 3];
                    let fresh = Scratch::default().evaluate_k(d, &FpfsCosts::new(&cfg, mf, hops));
                    let got = choose_k(&ds[..d], &cfg, mf, hops);
                    assert_eq!(got, fresh, "d={d} R={r} mf={mf} hops={hops}");
                    if answers.iter().any(|&(ad, k)| ad == d && k != fresh) {
                        changed += 1;
                    }
                    answers.push((d, fresh));
                }
            }
        }
        assert!(changed > 0, "no degree's answer changed with the cost terms");
    }

    #[test]
    fn cost_terms_separate_messages_with_different_costs() {
        let cfg = SimConfig::paper_default();
        // A one-packet message: the first packet is also the last.
        let one = FpfsCosts::new(&cfg, 16, 3);
        assert_eq!(one.packets, 1);
        assert_eq!(one.class(0), 1);
        assert_eq!(one.dma[1], cfg.dma_cycles(16));
        // Same packet count, different last payload.
        assert_ne!(FpfsCosts::new(&cfg, 128, 3), FpfsCosts::new(&cfg, 127, 3));
        assert_ne!(FpfsCosts::new(&cfg, 128, 3), FpfsCosts::new(&cfg, 128, 4));
        let r = SimConfig::paper_default().with_r(4.0).unwrap();
        assert_ne!(FpfsCosts::new(&cfg, 128, 3), FpfsCosts::new(&r, 128, 3));
    }

    #[test]
    fn choose_k_handles_tiny_sets() {
        let cfg = SimConfig::paper_default();
        assert_eq!(choose_k(&[], &cfg, 128, 3), 1);
        assert_eq!(choose_k(&nodes(&[1]), &cfg, 128, 3), 1);
    }
}
