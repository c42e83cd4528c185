//! Per-port reachability strings for tree-based multidestination worms
//! (§3.2.3, Fig. 4(c)).
//!
//! Every switch associates with each of its *downward* output ports (ports
//! leading down to another switch, or to a locally attached host) an
//! *n*-bit reachability string: the set of nodes reachable through that
//! port using only further down traversals — exactly the restriction the
//! base up*/down* routing imposes once a worm starts descending.
//!
//! A switch *covers* a destination set if the union of its downward-port
//! strings is a superset of the set; a tree-based worm climbs up links
//! until it reaches a covering switch, then fans out downward.
//!
//! # Storage: [`ReachSet`]
//!
//! The paper stores each string literally as *n* bits per downward port,
//! which is O(switches · ports · nodes) — about 2 GB of strings for a
//! 1000-switch / 10k-host fabric. Observed strings are far from random:
//! most ports sit deep in the tree and reach the few hosts of one
//! subtree, a few intervals of node ids. [`ReachSet`] therefore keeps
//! each string in whichever of two encodings is smaller:
//!
//! * **Dense** — the literal [`NodeMask`] bit string. Systems at or below
//!   [`NodeMask::INLINE_BITS`] nodes (every paper-scale experiment) always
//!   use this arm, so the historical representation is untouched there.
//! * **Runs** — sorted, disjoint, inclusive `(start, end)` node-id
//!   intervals at 4 bytes each, chosen when that beats the bitset.
//!
//! The covering test and the header partition work directly on the run
//! encoding (two-pointer walks over the destination header's set bits),
//! so giant fabrics never materialize dense strings on the hot path.

use crate::error::TopologyError;
use crate::fault::FaultStatus;
use crate::graph::{PortUse, Topology};
use crate::ids::{LinkId, NodeId, PortIdx, SwitchId};
use crate::mask::NodeMask;
use crate::updown::UpDown;
use std::borrow::Borrow;
use std::sync::Arc;

/// One reachability string, in the smaller of two encodings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReachSet {
    /// Literal bit string (always used for sets confined below
    /// [`NodeMask::INLINE_BITS`], where it is a free inline `u128`).
    Dense(NodeMask),
    /// Sorted disjoint inclusive `(start, end)` node-id intervals.
    Runs(Arc<[(u16, u16)]>),
}

impl ReachSet {
    /// The empty string.
    pub const EMPTY: ReachSet = ReachSet::Dense(NodeMask::EMPTY);

    /// Encode a mask, picking whichever representation is smaller.
    /// Deterministic: equal sets always get the identical encoding, so
    /// derived `PartialEq` is set equality.
    pub fn from_mask(m: &NodeMask) -> Self {
        let Some(words) = m.spilled_words() else {
            // Inline masks cost nothing; keep the historical bitset.
            return ReachSet::Dense(m.clone());
        };
        // Count the runs a word at a time: a run starts at a set bit
        // whose lower neighbour is clear.
        let mut count = 0;
        let mut carry = 0;
        for &w in words {
            count += (w & !(w << 1 | carry)).count_ones() as usize;
            carry = w >> 63;
        }
        if count * std::mem::size_of::<(u16, u16)>() >= m.heap_bytes() {
            return ReachSet::Dense(m.clone());
        }
        let mut runs: Vec<(u16, u16)> = Vec::with_capacity(count);
        let mut at = 0;
        while runs.len() < count {
            // Skip to the next set bit (one exists: a run is left).
            let mut w = words[at / 64] >> (at % 64);
            while w == 0 {
                at = (at / 64 + 1) * 64;
                w = words[at / 64];
            }
            at += w.trailing_zeros() as usize;
            let start = at;
            // Extend through the set bits, across word boundaries.
            loop {
                let ones = (words[at / 64] >> (at % 64)).trailing_ones() as usize;
                at += ones;
                if ones == 0 || at % 64 != 0 || at == words.len() * 64 {
                    break;
                }
            }
            runs.push((start as u16, (at - 1) as u16));
        }
        ReachSet::Runs(runs.into())
    }

    /// The string of a host port: exactly `from_mask(&NodeMask::single(node))`,
    /// without building the mask.
    fn single(node: NodeId) -> Self {
        if node.idx() < NodeMask::INLINE_BITS {
            ReachSet::Dense(NodeMask::single(node))
        } else {
            ReachSet::Runs(Arc::new([(node.0, node.0)]))
        }
    }

    /// OR the members into `words`, which must be long enough to hold
    /// them (and, for an inline `Dense` set, at least two words long).
    fn or_into(&self, words: &mut [u64]) {
        match self {
            ReachSet::Dense(m) => match m.spilled_words() {
                Some(src) => words.iter_mut().zip(src).for_each(|(w, s)| *w |= s),
                None => {
                    words[0] |= m.word(0);
                    words[1] |= m.word(1);
                }
            },
            ReachSet::Runs(runs) => {
                for &(a, b) in runs.iter() {
                    let (w0, w1) = (a as usize / 64, b as usize / 64);
                    for (w, word) in words.iter_mut().enumerate().take(w1 + 1).skip(w0) {
                        let lo = (a as usize).max(w * 64) - w * 64;
                        let hi = (b as usize).min(w * 64 + 63) - w * 64;
                        let bits = if hi - lo == 63 {
                            u64::MAX
                        } else {
                            ((1u64 << (hi - lo + 1)) - 1) << lo
                        };
                        *word |= bits;
                    }
                }
            }
        }
    }

    /// Materialize the full bit string.
    pub fn to_mask(&self) -> NodeMask {
        match self {
            ReachSet::Dense(m) => m.clone(),
            ReachSet::Runs(runs) => {
                let Some(&(_, last)) = runs.last() else {
                    return NodeMask::EMPTY;
                };
                let mut words = vec![0u64; last as usize / 64 + 1];
                self.or_into(&mut words);
                NodeMask::from_words(&words)
            }
        }
    }

    /// Membership test.
    pub fn contains(&self, node: NodeId) -> bool {
        match self {
            ReachSet::Dense(m) => m.contains(node),
            ReachSet::Runs(runs) => {
                let i = runs.partition_point(|&(a, _)| a <= node.0);
                i > 0 && runs[i - 1].1 >= node.0
            }
        }
    }

    /// True if every member of `m` is in this set — the covering test,
    /// O(|m| + runs) in the interval arm.
    pub fn covers_mask(&self, m: &NodeMask) -> bool {
        match self {
            ReachSet::Dense(d) => d.covers(m),
            ReachSet::Runs(runs) => {
                let mut i = 0;
                for n in m.iter() {
                    while i < runs.len() && runs[i].1 < n.0 {
                        i += 1;
                    }
                    if i == runs.len() || runs[i].0 > n.0 {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// The members of `m` inside this set, as a mask — what a switch
    /// peels off a worm header for one output port.
    pub fn intersect_mask(&self, m: &NodeMask) -> NodeMask {
        match self {
            ReachSet::Dense(d) => d.intersection(m),
            ReachSet::Runs(runs) => {
                let mut words = vec![0u64; m.word_count()];
                let mut i = 0;
                for n in m.iter() {
                    while i < runs.len() && runs[i].1 < n.0 {
                        i += 1;
                    }
                    if i < runs.len() && runs[i].0 <= n.0 {
                        words[n.idx() / 64] |= 1u64 << (n.idx() % 64);
                    }
                }
                NodeMask::from_words(&words)
            }
        }
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        match self {
            ReachSet::Dense(m) => m.is_empty(),
            ReachSet::Runs(runs) => runs.is_empty(),
        }
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        match self {
            ReachSet::Dense(m) => m.len(),
            ReachSet::Runs(runs) => {
                runs.iter().map(|&(a, b)| (b - a) as usize + 1).sum()
            }
        }
    }

    /// Heap bytes behind this set (shared storage attributed in full).
    pub fn heap_bytes(&self) -> usize {
        match self {
            ReachSet::Dense(m) => m.heap_bytes(),
            ReachSet::Runs(runs) => std::mem::size_of_val(&runs[..]),
        }
    }

    /// Address of the shared heap allocation, for count-once accounting.
    fn heap_addr(&self) -> Option<usize> {
        match self {
            ReachSet::Dense(m) => m.heap_addr(),
            ReachSet::Runs(runs) => Some(runs.as_ptr() as usize),
        }
    }
}

/// Reachability strings for every switch in a topology.
///
/// `cover[s]` (the paper's "total reachability string", also the down-only
/// descend set — the two coincide: both are the hosts of `s` plus the
/// union of the down-peer covers) and one string per port. Strings are
/// stored as [`ReachSet`]s; see the module docs for the encoding.
#[derive(Debug, Clone, PartialEq)]
pub struct Reachability {
    ports_per_switch: usize,
    n_nodes: usize,
    /// `port_reach[s * P + p]` — nodes reachable down through port `p` of
    /// switch `s`; empty for up ports and open ports. Down-link ports
    /// share the peer's cover encoding (`Arc` clone, not a copy).
    port_reach: Vec<ReachSet>,
    /// `cover[s]` — union of all downward-port strings of `s`.
    cover: Vec<ReachSet>,
}

impl Reachability {
    /// Compute all strings.
    ///
    /// `cover(s) = nodes_at(s) ∪ ⋃ {cover(c) : s —down→ c}` — the down
    /// graph is acyclic, so a reverse-level-order pass suffices.
    pub fn compute(topo: &Topology, updown: &UpDown) -> Result<Self, TopologyError> {
        Self::compute_inner(topo, updown, None)
    }

    /// Compute strings over the surviving graph only: dead switches get
    /// empty strings everywhere, and dead links (or links into dead
    /// switches) contribute nothing to any port string, so a tree worm
    /// never fans out across a failed component.
    pub fn compute_masked(
        topo: &Topology,
        updown: &UpDown,
        status: &FaultStatus,
    ) -> Result<Self, TopologyError> {
        Self::compute_inner(topo, updown, Some(status))
    }

    fn compute_inner(
        topo: &Topology,
        updown: &UpDown,
        status: Option<&FaultStatus>,
    ) -> Result<Self, TopologyError> {
        let n = topo.num_switches();
        let pmax = topo
            .switches()
            .map(|(_, sw)| sw.num_ports())
            .max()
            .unwrap_or(0);
        let switch_alive = |s: SwitchId| status.is_none_or(|st| st.switch_up(s));
        let link_alive = |l| status.is_none_or(|st| st.link_up(topo, l));

        let mut cover = vec![ReachSet::EMPTY; n];
        let mut buf = Vec::new();
        for si in children_first(n, updown) {
            let s = SwitchId(si as u16);
            // A dead switch reaches nothing, not even its hosts.
            if switch_alive(s) {
                cover[si] = encode_cover(topo, updown, s, link_alive, &cover, &mut buf);
            }
        }

        let mut port_reach = vec![ReachSet::EMPTY; n * pmax];
        for (s, _) in topo.switches().filter(|&(s, _)| switch_alive(s)) {
            let out = &mut port_reach[s.idx() * pmax..(s.idx() + 1) * pmax];
            port_strings(topo, updown, s, link_alive, &cover, out)?;
        }

        Ok(Reachability { ports_per_switch: pmax, n_nodes: topo.num_nodes(), port_reach, cover })
    }

    /// Recompute after faults, touching only switches whose inputs
    /// actually changed: a switch is recomputed iff its liveness flipped,
    /// an incident link's (alive, direction) contribution changed between
    /// the old and new orientations, or a down-peer's cover changed.
    /// Everything else reuses the previous encodings (`Arc` clones).
    ///
    /// Returns the new strings plus the number of switches recomputed
    /// (exposed so tests and callers can observe the savings).
    ///
    /// Equivalent to [`Self::compute_masked`] with `(topo, updown_new,
    /// status_new)` — the encoder is deterministic, so the results are
    /// structurally identical.
    pub fn recompute_incremental(
        &self,
        topo: &Topology,
        updown_new: &UpDown,
        status_new: &FaultStatus,
        updown_old: &UpDown,
        status_old: Option<&FaultStatus>,
    ) -> Result<(Self, usize), TopologyError> {
        let n = topo.num_switches();
        let pmax = self.ports_per_switch;
        let alive_old = |s: SwitchId| status_old.is_none_or(|st| st.switch_up(s));
        let link_old = |l| status_old.is_none_or(|st| st.link_up(topo, l));

        // A port's contribution descriptor: None if the link is dead,
        // else whether the traversal out of `s` goes down.
        let contrib = |ud: &UpDown, alive: bool, l, s| -> Result<Option<bool>, TopologyError> {
            if !alive {
                return Ok(None);
            }
            Ok(Some(!ud.is_up_traversal(topo, l, s)?))
        };

        // `dirty[s]`: the liveness of `s` or an incident link's
        // contribution changed; the cover pass adds the switches with a
        // changed down-peer cover.
        let mut dirty = vec![false; n];
        for (s, _) in topo.switches() {
            let (ao, an) = (alive_old(s), status_new.switch_up(s));
            if ao != an {
                dirty[s.idx()] = true;
                continue;
            }
            if !an {
                continue; // dead before and after: EMPTY stays EMPTY
            }
            for (l, _, _) in topo.neighbors(s) {
                let old = contrib(updown_old, link_old(l), l, s)?;
                let new = contrib(updown_new, status_new.link_up(topo, l), l, s)?;
                if old != new {
                    dirty[s.idx()] = true;
                    break;
                }
            }
        }

        let link_new = |l| status_new.link_up(topo, l);
        let mut cover = vec![ReachSet::EMPTY; n];
        let mut changed = vec![false; n];
        let mut recomputed = 0usize;
        let mut buf = Vec::new();
        for si in children_first(n, updown_new) {
            let s = SwitchId(si as u16);
            if !status_new.switch_up(s) {
                changed[si] = !self.cover[si].is_empty();
                continue;
            }
            dirty[si] = dirty[si]
                || updown_new
                    .down_links(topo, s)
                    .any(|(l, peer, _)| link_new(l) && changed[peer.idx()]);
            if !dirty[si] {
                cover[si] = self.cover[si].clone();
                continue;
            }
            recomputed += 1;
            let enc = encode_cover(topo, updown_new, s, link_new, &cover, &mut buf);
            changed[si] = enc != self.cover[si];
            cover[si] = enc;
        }

        let mut port_reach = vec![ReachSet::EMPTY; n * pmax];
        for (s, _) in topo.switches().filter(|&(s, _)| status_new.switch_up(s)) {
            let slots = s.idx() * pmax..(s.idx() + 1) * pmax;
            if dirty[s.idx()] {
                port_strings(topo, updown_new, s, link_new, &cover, &mut port_reach[slots])?;
            } else {
                port_reach[slots.clone()].clone_from_slice(&self.port_reach[slots]);
            }
        }

        Ok((
            Reachability { ports_per_switch: pmax, n_nodes: self.n_nodes, port_reach, cover },
            recomputed,
        ))
    }

    /// The reachability string of one output port (empty for up/open
    /// ports), materialized as a bit string. Prefer [`Self::port_set`]
    /// on hot paths at giant scale.
    #[inline]
    pub fn port(&self, s: SwitchId, p: PortIdx) -> NodeMask {
        self.port_reach[s.idx() * self.ports_per_switch + p.idx()].to_mask()
    }

    /// The stored encoding of one port's string.
    #[inline]
    pub fn port_set(&self, s: SwitchId, p: PortIdx) -> &ReachSet {
        &self.port_reach[s.idx() * self.ports_per_switch + p.idx()]
    }

    /// The switch's total reachability string (union over downward
    /// ports), materialized.
    #[inline]
    pub fn cover(&self, s: SwitchId) -> NodeMask {
        self.cover[s.idx()].to_mask()
    }

    /// Nodes reachable from `s` via down-only traversal (= `cover(s)` —
    /// exposed separately for clarity in planners).
    #[inline]
    pub fn descend(&self, s: SwitchId) -> NodeMask {
        self.cover(s)
    }

    /// True if `s` can deliver the whole destination set going only down —
    /// the covering test a tree-based worm performs at each switch of its
    /// up phase. Runs directly on the stored encoding.
    #[inline]
    pub fn covers(&self, s: SwitchId, dests: impl Borrow<NodeMask>) -> bool {
        self.cover[s.idx()].covers_mask(dests.borrow())
    }

    /// The subset of `dests` that `s` can deliver going only down — the
    /// header bits a descending branch peels off. Runs directly on the
    /// stored encoding.
    #[inline]
    pub fn take_covered(&self, s: SwitchId, dests: &NodeMask) -> NodeMask {
        self.cover[s.idx()].intersect_mask(dests)
    }

    /// Partition a destination header across the downward ports of `s`:
    /// each destination is assigned to exactly **one** port that reaches it
    /// (the lowest-indexed such port — a deterministic priority encoder, as
    /// switch hardware would implement). Returns `(port, sub-header)` pairs
    /// in port order, covering `dests` exactly.
    ///
    /// Panics in debug builds if `s` does not cover `dests`.
    pub fn partition(
        &self,
        topo: &Topology,
        s: SwitchId,
        dests: impl Borrow<NodeMask>,
    ) -> Vec<(PortIdx, NodeMask)> {
        let mut remaining = dests.borrow().clone();
        debug_assert!(self.covers(s, &remaining), "partition at non-covering switch");
        let mut out = Vec::new();
        let nports = topo.switch(s).num_ports();
        for pi in 0..nports {
            if remaining.is_empty() {
                break;
            }
            let p = PortIdx(pi as u8);
            let take = self.port_set(s, p).intersect_mask(&remaining);
            if !take.is_empty() {
                remaining = remaining.difference(&take);
                out.push((p, take));
            }
        }
        debug_assert!(remaining.is_empty());
        out
    }

    /// Total bits of reachability state stored at switch `s` — the
    /// quantity behind the paper's §3.3 observation that bit-string
    /// decoding state grows with system size. (`n_nodes` bits per
    /// downward port.)
    pub fn state_bits(&self, topo: &Topology, updown: &UpDown, s: SwitchId, n_nodes: usize) -> usize {
        updown.downward_ports(topo, s).count() * n_nodes
    }

    /// Heap bytes resident across all stored strings, with storage
    /// shared between ports (down-link ports alias the peer's cover)
    /// counted exactly once.
    pub fn resident_bytes(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut total = (self.port_reach.len() + self.cover.len())
            * std::mem::size_of::<ReachSet>();
        for r in self.port_reach.iter().chain(self.cover.iter()) {
            match r.heap_addr() {
                Some(addr) if !seen.insert(addr) => {}
                Some(_) => total += r.heap_bytes(),
                None => {}
            }
        }
        total
    }

    /// Bytes the same strings would occupy stored literally as *n*-bit
    /// strings (the paper's layout, one bit string per stored set) —
    /// the baseline the run encoding is measured against.
    pub fn dense_equivalent_bytes(&self) -> usize {
        (self.port_reach.len() + self.cover.len()) * NodeMask::header_bytes(self.n_nodes)
    }

    /// Number of nodes in the system these strings describe.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n_nodes
    }
}

/// Switch indices in decreasing (level, id): a down traversal increases
/// the level, or keeps it while increasing the id, so every switch comes
/// after all of its down-peers.
fn children_first(n: usize, updown: &UpDown) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&s| {
        let sid = SwitchId(s as u16);
        std::cmp::Reverse((updown.level(sid), sid.0))
    });
    order
}

/// `cover(s)`, encoded: the hosts of `s` and the covers of its live
/// down-peers, ORed into the word buffer `buf` and normalized once.
/// Systems of at most [`NodeMask::INLINE_BITS`] nodes use two words and
/// stay on the inline arm, with no allocation.
fn encode_cover(
    topo: &Topology,
    updown: &UpDown,
    s: SwitchId,
    link_alive: impl Fn(LinkId) -> bool,
    cover: &[ReachSet],
    buf: &mut Vec<u64>,
) -> ReachSet {
    buf.clear();
    buf.resize(topo.num_nodes().div_ceil(64).max(2), 0);
    for pu in &topo.switch(s).ports {
        if let PortUse::Host(node) = pu {
            buf[node.idx() / 64] |= 1 << (node.idx() % 64);
        }
    }
    for (l, peer, _) in updown.down_links(topo, s) {
        if link_alive(l) {
            cover[peer.idx()].or_into(buf);
        }
    }
    ReachSet::from_mask(&NodeMask::from_words(buf))
}

/// The strings of the ports of `s`, written to `out`: a host port reaches
/// its host, a live down link the peer's cover (an `Arc` clone, not a
/// copy), and an up, dead or open port nothing.
fn port_strings(
    topo: &Topology,
    updown: &UpDown,
    s: SwitchId,
    link_alive: impl Fn(LinkId) -> bool,
    cover: &[ReachSet],
    out: &mut [ReachSet],
) -> Result<(), TopologyError> {
    for (slot, pu) in out.iter_mut().zip(&topo.switch(s).ports) {
        *slot = match pu {
            PortUse::Host(node) => ReachSet::single(*node),
            PortUse::Link { link, .. } => {
                if !link_alive(*link) || updown.is_up_traversal(topo, *link, s)? {
                    ReachSet::EMPTY
                } else {
                    let l = topo.link(*link);
                    let side = l
                        .side_of(s)
                        .ok_or(TopologyError::Inconsistent("switch not on link"))?;
                    cover[l.end(1 - side).0.idx()].clone()
                }
            }
            PortUse::Open => ReachSet::EMPTY,
        };
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TopologyBuilder;
    use crate::ids::NodeId;

    /// Root S0 (hosts n0), children S1 (n1) and S2 (n2), S3 under both
    /// (n3), plus cross link S1–S2.
    fn fixture() -> (Topology, UpDown, Reachability) {
        let mut b = TopologyBuilder::new();
        let s: Vec<_> = (0..4).map(|_| b.add_switch(8)).collect();
        b.add_link(s[0], s[1]).unwrap();
        b.add_link(s[0], s[2]).unwrap();
        b.add_link(s[1], s[3]).unwrap();
        b.add_link(s[2], s[3]).unwrap();
        b.add_link(s[1], s[2]).unwrap();
        for &sw in &s {
            b.add_host(sw).unwrap();
        }
        let t = b.build().unwrap();
        let ud = UpDown::compute(&t, s[0]).unwrap();
        let r = Reachability::compute(&t, &ud).unwrap();
        (t, ud, r)
    }

    #[test]
    fn root_covers_everything() {
        let (t, _, r) = fixture();
        assert_eq!(r.cover(SwitchId(0)), NodeMask::all(t.num_nodes()));
    }

    #[test]
    fn leaf_covers_only_local_hosts() {
        let (_, _, r) = fixture();
        assert_eq!(r.cover(SwitchId(3)), NodeMask::single(NodeId(3)));
    }

    #[test]
    fn cross_link_extends_cover() {
        let (_, _, r) = fixture();
        // S1 reaches n1 (local), n3 (down via S3) and n2 (down via the
        // cross link S1->S2, whose up end is S1).
        let c = r.cover(SwitchId(1));
        assert!(c.contains(NodeId(1)));
        assert!(c.contains(NodeId(2)));
        assert!(c.contains(NodeId(3)));
        assert!(!c.contains(NodeId(0)));
        // S2's cross-link side is an up port: S2 covers only n2 and n3.
        let c2 = r.cover(SwitchId(2));
        assert_eq!(c2, NodeMask::from_nodes([NodeId(2), NodeId(3)]));
    }

    #[test]
    fn up_ports_have_empty_strings() {
        let (t, ud, r) = fixture();
        for (sid, sw) in t.switches() {
            for pi in 0..sw.num_ports() {
                let p = PortIdx(pi as u8);
                if let PortUse::Link { link, .. } = sw.ports[pi] {
                    if ud.is_up_traversal(&t, link, sid).unwrap() {
                        assert!(r.port(sid, p).is_empty());
                    }
                }
            }
        }
    }

    #[test]
    fn host_port_string_is_singleton() {
        let (t, _, r) = fixture();
        for (n, h) in t.hosts() {
            assert_eq!(r.port(h.switch, h.port), NodeMask::single(n));
            assert!(r.port_set(h.switch, h.port).contains(n));
        }
    }

    #[test]
    fn partition_covers_exactly_once() {
        let (t, _, r) = fixture();
        let dests = NodeMask::from_nodes([NodeId(1), NodeId(2), NodeId(3)]);
        let parts = r.partition(&t, SwitchId(0), &dests);
        let mut total = NodeMask::EMPTY;
        for (_, m) in &parts {
            assert!(total.intersection(m).is_empty(), "duplicate delivery");
            total = total.union(m);
        }
        assert_eq!(total, dests);
    }

    #[test]
    fn partition_prefers_lowest_port() {
        let (t, _, r) = fixture();
        // n3 is reachable from S0 via both S1 and S2 subtrees; the
        // partition must pick exactly one (the lower-indexed port).
        let parts = r.partition(&t, SwitchId(0), NodeMask::single(NodeId(3)));
        assert_eq!(parts.len(), 1);
    }

    #[test]
    fn state_bits_counts_downward_ports() {
        let (t, ud, r) = fixture();
        // S3: only downward port is its host port -> n bits.
        assert_eq!(r.state_bits(&t, &ud, SwitchId(3), t.num_nodes()), 4);
        // S0: two down links + one host = 3 downward ports.
        assert_eq!(r.state_bits(&t, &ud, SwitchId(0), t.num_nodes()), 12);
    }

    #[test]
    fn descend_equals_cover() {
        let (t, _, r) = fixture();
        for (s, _) in t.switches() {
            assert_eq!(r.descend(s), r.cover(s));
        }
    }

    #[test]
    fn take_covered_matches_intersection() {
        let (t, _, r) = fixture();
        let dests = NodeMask::from_nodes([NodeId(0), NodeId(3)]);
        for (s, _) in t.switches() {
            assert_eq!(r.take_covered(s, &dests), r.cover(s).intersection(&dests));
        }
    }

    #[test]
    fn reachset_roundtrip_and_queries() {
        // Wide fragmented set: run encoding wins, round-trips exactly.
        let m = NodeMask::from_nodes(
            [3u16, 4, 5, 200, 201, 900, 5000, 5001, 5002, 5003].map(NodeId),
        );
        let r = ReachSet::from_mask(&m);
        assert!(matches!(r, ReachSet::Runs(_)), "fragmented wide set should run-encode");
        assert_eq!(r.to_mask(), m);
        assert_eq!(r.len(), m.len());
        assert!(r.heap_bytes() < m.heap_bytes());
        for probe in [0u16, 3, 5, 6, 199, 201, 202, 5003, 5004] {
            assert_eq!(r.contains(NodeId(probe)), m.contains(NodeId(probe)), "probe {probe}");
        }
        let sub = NodeMask::from_nodes([NodeId(4), NodeId(5000)]);
        assert!(r.covers_mask(&sub));
        assert!(!r.covers_mask(&NodeMask::single(NodeId(6))));
        assert_eq!(r.intersect_mask(&sub), sub);
        let mixed = NodeMask::from_nodes([NodeId(4), NodeId(6)]);
        assert_eq!(r.intersect_mask(&mixed), NodeMask::single(NodeId(4)));
    }

    #[test]
    fn reachset_inline_sets_stay_dense() {
        let m = NodeMask::from_nodes([NodeId(0), NodeId(77), NodeId(127)]);
        let r = ReachSet::from_mask(&m);
        assert!(matches!(r, ReachSet::Dense(_)));
        assert_eq!(r.heap_bytes(), 0);
        assert_eq!(r.to_mask(), m);
    }

    #[test]
    fn reachset_dense_wins_for_scattered_wide_sets() {
        // Every even node over a wide range: runs would need 4 bytes per
        // member vs 1 bit per node dense — dense must win.
        let m = NodeMask::from_nodes((0..2000u16).step_by(2).map(NodeId));
        let r = ReachSet::from_mask(&m);
        assert!(matches!(r, ReachSet::Dense(_)));
        assert_eq!(r.to_mask(), m);
    }

    #[test]
    fn reachset_runs_cross_word_boundaries() {
        // Runs that start and end inside, on and across 64-bit word
        // boundaries, and one that ends on the last node id.
        let ids = (60..200).chain(256..320).chain(400..401).chain(65_472..=u16::MAX);
        let m = NodeMask::from_nodes(ids.map(NodeId));
        let r = ReachSet::from_mask(&m);
        let runs = [(60, 199), (256, 319), (400, 400), (65_472, u16::MAX)];
        assert_eq!(r, ReachSet::Runs(Arc::new(runs)));
        assert_eq!(r.to_mask(), m);
    }

    #[test]
    fn reachset_runs_only_when_strictly_smaller() {
        // Three words (24 bytes) hold up to five 4-byte runs; six tie.
        let five = NodeMask::from_nodes([0u16, 2, 4, 6, 130].map(NodeId));
        assert!(matches!(ReachSet::from_mask(&five), ReachSet::Runs(_)));
        let six = NodeMask::from_nodes([0u16, 2, 4, 6, 8, 130].map(NodeId));
        assert_eq!(ReachSet::from_mask(&six), ReachSet::Dense(six));
    }

    #[test]
    fn host_port_strings_match_the_mask_encoding() {
        for id in [0u16, 1, 127, 128, 129, 10_239, u16::MAX] {
            let n = NodeId(id);
            assert_eq!(ReachSet::single(n), ReachSet::from_mask(&NodeMask::single(n)), "{id}");
        }
    }

    #[test]
    fn resident_bytes_counts_shared_storage_once() {
        let (t, _, r) = fixture();
        // Paper-scale fixture: everything is inline, so resident bytes
        // are exactly the enum footprints.
        assert_eq!(
            r.resident_bytes(),
            (t.num_switches() * 8 + t.num_switches()) * std::mem::size_of::<ReachSet>()
        );
        assert!(r.dense_equivalent_bytes() > 0);
    }
}
