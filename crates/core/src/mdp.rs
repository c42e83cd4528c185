//! Multi-drop path-based worm planning: the MDP-G / MDP-LG algorithms
//! (§3.2.4, reconstructed from Kesavan–Panda PCRCW '97 as documented in
//! `DESIGN.md`).
//!
//! A single multi-drop worm follows one legal up*/down* path and delivers
//! to every (chosen) destination attached to switches along it. Covering
//! an arbitrary destination set therefore takes several worms, sent in
//! binomial-style *phases*: every node holding the message sends one worm
//! per phase, and each worm's first drop (its *leader*) becomes a sender
//! in the next phase.
//!
//! A worm's route is constrained to be "almost exactly the same path
//! followed by a unicast worm from a source to one of its destinations"
//! (§3.2.4): a *minimal* legal up*/down* route to some anchor
//! destination. Planning therefore scores, for every switch hosting an
//! uncovered destination, the best minimal route to it (a DP over the
//! shortest-route DAG, which the adaptive routing tables expose), and
//! sends the worm along the highest-scoring route. The **Greedy** variant
//! scores a route by the number of still-uncovered destinations at its
//! switches; the **Less-Greedy** variant charges each visited switch half
//! a destination, preferring shorter, denser routes that finish sooner,
//! create secondary sources earlier, and hold fewer links — the
//! contention reduction that made MDP-LG the best performer in the
//! original study.

use crate::table::NodeTable;
use irrnet_sim::{PathStop, PathWormSpec};
use irrnet_topology::{Network, NodeId, NodeMask, Phase, SwitchId};
use std::cell::RefCell;
use std::sync::Arc;

/// Which covering heuristic to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathVariant {
    /// MDP-G: maximize uncovered destinations per worm.
    Greedy,
    /// MDP-LG: maximize `2·coverage − path length` (each visited switch
    /// costs half a destination) and fall back to greedy if that covers
    /// nothing.
    LessGreedy,
}

/// The outcome of path planning for one multicast.
#[derive(Debug, Clone)]
pub struct PathPlan {
    /// Worms each sender transmits, in order. Keys are the source plus the
    /// leader destinations promoted to senders.
    pub assignments: NodeTable<Arc<PathWormSpec>>,
    /// All worms, in planning order.
    pub worms: Vec<Arc<PathWormSpec>>,
    /// Number of binomial-style phases the schedule needs.
    pub phases: usize,
}

thread_local! {
    /// This thread's covering working space, reused by every multicast
    /// it plans.
    static COVER: RefCell<Cover> = RefCell::new(Cover::default());
}

/// Plan multi-drop worms covering `dests` from `source`.
///
/// Panics if `dests` is empty or contains the source.
pub fn plan_paths(
    net: &Network,
    source: NodeId,
    dests: NodeMask,
    variant: PathVariant,
) -> PathPlan {
    assert!(!dests.is_empty(), "empty destination set");
    assert!(!dests.contains(source), "source among destinations");
    COVER.with_borrow_mut(|cover| cover.plan(net, source, &dests, variant))
}

/// The covering state of one multicast. Work per worm follows the
/// uncovered destinations, not the switch count: switches are visited
/// only as anchors hosting an uncovered destination or on a candidate
/// route. The buffers outlive the multicast, so a warm thread plans
/// without allocating anything but the plan itself; every per-switch
/// entry is stamped with the multicast or route walk it belongs to, so
/// nothing needs clearing between multicasts.
#[derive(Default)]
struct Cover {
    /// The destinations ordered by (switch, node id).
    dests: Vec<(SwitchId, NodeId)>,
    /// The switches hosting a destination, ascending.
    anchors: Vec<SwitchId>,
    /// Per switch: `(multicast stamp, uncovered destinations)`; an entry
    /// stamped with an earlier multicast reads as 0. A worm drops at
    /// every uncovered destination of a switch it visits, so a switch's
    /// destinations are either all uncovered or all covered.
    uncovered: Vec<(u32, u32)>,
    /// Stamp of the multicast being planned.
    stamp: u32,
    /// Uncovered destinations in total.
    remaining: usize,
    /// Senders so far, in the order they were promoted.
    senders: Vec<NodeId>,
    /// The route of the best candidate worm so far.
    best_path: Vec<(SwitchId, Phase)>,
    dp: RouteDp,
}

impl Cover {
    fn plan(
        &mut self,
        net: &Network,
        source: NodeId,
        dests: &NodeMask,
        variant: PathVariant,
    ) -> PathPlan {
        self.start(net, dests);
        self.senders.clear();
        self.senders.push(source);
        // Every worm covers at least one anchor.
        let mut sent: Vec<(NodeId, Arc<PathWormSpec>)> = Vec::with_capacity(self.anchors.len());
        let mut phases = 0usize;
        while self.remaining > 0 {
            phases += 1;
            // Only the senders of earlier phases send in this one.
            for i in 0..self.senders.len() {
                if self.remaining == 0 {
                    break;
                }
                let s = self.senders[i];
                let spec = self.best_worm(net, variant, net.topo.host_switch(s));
                // The next-phase sender is the worm's *anchor* destination
                // — the unicast addressee whose route the worm follows (its
                // final drop). It can only forward after the whole message
                // has reached the end of the path, which is what serializes
                // path-based phases on message length (§4.2.3).
                let leader = *spec
                    .stops
                    .last()
                    .expect("worm has stops")
                    .drops
                    .last()
                    .expect("stop has drops");
                sent.push((s, Arc::new(spec)));
                self.senders.push(leader);
            }
        }
        let worms = sent.iter().map(|(_, spec)| spec.clone()).collect();
        PathPlan { assignments: NodeTable::from_pairs(sent), worms, phases }
    }

    /// Reset for a new multicast over `dests`.
    fn start(&mut self, net: &Network, dests: &NodeMask) {
        let n = net.topo.num_switches();
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // A wrapped stamp could match a stale entry; start over.
            self.uncovered.fill((0, 0));
            self.stamp = 1;
        }
        if self.uncovered.len() < n {
            self.uncovered.resize(n, (0, 0));
        }
        self.dests.clear();
        self.dests.extend(dests.iter().map(|d| (net.topo.host_switch(d), d)));
        self.dests.sort_unstable();
        self.anchors.clear();
        for &(s, _) in &self.dests {
            let entry = &mut self.uncovered[s.idx()];
            if entry.0 != self.stamp {
                *entry = (self.stamp, 0);
                self.anchors.push(s);
            }
            entry.1 += 1;
        }
        self.remaining = self.dests.len();
        self.dp.start(n, self.anchors.len());
    }

    /// Uncovered destinations at `s`.
    #[inline]
    fn uncovered_at(&self, s: SwitchId) -> u32 {
        count_at(&self.uncovered, self.stamp, s)
    }

    /// Pick the best single worm from `from` over the uncovered
    /// destinations and mark the ones it drops at as covered.
    ///
    /// Candidate routes are exactly the *minimal legal unicast routes*
    /// from `from` to the switch of some uncovered destination — the
    /// paper's multi-drop worms "use almost exactly the same path
    /// followed by a unicast worm from a source to one of its
    /// destinations" (§3.2.4). Among those, pick the anchor destination
    /// whose best route maximizes the variant's score over uncovered
    /// destinations at the visited switches; ties go to the shorter
    /// route, then to the lower anchor switch id.
    fn best_worm(&mut self, net: &Network, variant: PathVariant, from: SwitchId) -> PathWormSpec {
        let weight: fn(u32) -> i64 = match variant {
            PathVariant::Greedy => |c| c as i64,
            // Less greedy: each visited switch costs half a destination,
            // preferring shorter and denser routes.
            PathVariant::LessGreedy => |c| 2 * c as i64 - 1,
        };
        let (uncovered, stamp) = (&self.uncovered, self.stamp);
        let weight_at = |s: SwitchId| weight(count_at(uncovered, stamp, s));
        let mut best: Option<(i64, u16)> = None;
        for a in 0..self.anchors.len() {
            let target = self.anchors[a];
            if count_at(uncovered, stamp, target) == 0 {
                continue; // anchor must host an uncovered destination
            }
            let score = self.dp.best_score(net, from, a, target, &weight_at);
            let dist = net.routing.distance(from, Phase::Up, target);
            let better = match best {
                None => true,
                Some((bs, bd)) => score > bs || (score == bs && dist < bd),
            };
            if better {
                best = Some((score, dist));
                self.dp.route(from, target, &mut self.best_path);
            }
        }
        assert!(best.is_some(), "some uncovered destination must exist");
        self.take_worm()
    }

    /// The worm spec for the best route: drops at the first visit of each
    /// switch holding uncovered destinations, which become covered. Stops
    /// visited during the route's up* prefix are marked `up_phase` so the
    /// simulator reaches them via up links only (see
    /// [`irrnet_sim::PathStop::up_phase`]).
    fn take_worm(&mut self) -> PathWormSpec {
        let n_stops = self.best_path.iter().filter(|&&(s, _)| self.uncovered_at(s) > 0).count();
        let mut stops = Vec::with_capacity(n_stops);
        for &(s, phase) in &self.best_path {
            let count = self.uncovered_at(s) as usize;
            if count == 0 {
                continue;
            }
            let first = self.dests.partition_point(|&(sw, _)| sw < s);
            let drops: Vec<NodeId> =
                self.dests[first..first + count].iter().map(|&(_, d)| d).collect();
            self.remaining -= count;
            self.uncovered[s.idx()].1 = 0;
            stops.push(PathStop { switch: s, drops, up_phase: phase == Phase::Up });
        }
        assert!(!stops.is_empty(), "anchor switch hosts an uncovered destination");
        PathWormSpec { stops }
    }
}

/// The count of a `(multicast stamp, count)` entry, 0 if stamped with
/// another multicast.
#[inline]
fn count_at(uncovered: &[(u32, u32)], stamp: u32, s: SwitchId) -> u32 {
    let (at, count) = uncovered[s.idx()];
    if at == stamp { count } else { 0 }
}

fn phase_idx(p: Phase) -> usize {
    match p {
        Phase::Up => 0,
        Phase::Down => 1,
    }
}

fn phase_of(i: usize) -> Phase {
    if i == 0 { Phase::Up } else { Phase::Down }
}

/// No entry.
const NONE: u32 = u32::MAX;

/// Over all minimal legal routes `from → target`, maximize the summed
/// switch weight. The minimal-route relation is a DAG (distance strictly
/// decreases per hop), so a memoized walk over the next-hop candidates
/// suffices.
///
/// The next hops of each (switch, phase) toward each target are derived
/// once per multicast and kept in one flat list; every later walk toward
/// that target reuses them. The walk's memo is one slot per switch,
/// stamped with the walk it belongs to, so starting a walk clears nothing.
#[derive(Default)]
struct RouteDp {
    /// Per switch: the memo of the current walk.
    slots: Vec<Slot>,
    /// The current walk; a slot stamped with another walk is empty.
    walk: u32,
    /// Next-hop lists, flat: `(next switch, phase index)` one hop closer
    /// to a target.
    hops: Vec<(SwitchId, u8)>,
    /// Every derived next-hop list of this multicast.
    lists: Vec<HopList>,
    /// Per target (anchor index): its most recently derived list, or
    /// [`NONE`]; the rest are chained through [`HopList::prev`].
    last_list: Vec<u32>,
}

/// The next hops of one (switch, phase) toward one target.
#[derive(Clone, Copy)]
struct HopList {
    switch: SwitchId,
    phase: u8,
    /// `hops[start..start + len]`.
    start: u32,
    len: u32,
    /// The target's previously derived list, or [`NONE`].
    prev: u32,
}

/// One switch's memo in one walk, per phase.
#[derive(Clone, Copy, Default)]
struct Slot {
    walk: u32,
    /// The switch's next-hop list toward the walk's target, or [`NONE`]
    /// if not derived yet.
    list: [u32; 2],
    /// Best score to the target (`i64::MIN` = not computed).
    score: [i64; 2],
    /// Index into `hops` of the chosen next hop.
    next: [u32; 2],
}

impl RouteDp {
    /// Reset for a multicast over `n` switches with `targets` anchors.
    fn start(&mut self, n: usize, targets: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, Slot::default());
        }
        self.hops.clear();
        self.lists.clear();
        self.last_list.clear();
        self.last_list.resize(targets, NONE);
    }

    /// `s`'s slot in the current walk, emptied first if it belongs to an
    /// earlier one.
    #[inline]
    fn slot(&mut self, s: SwitchId) -> &mut Slot {
        let walk = self.walk;
        let slot = &mut self.slots[s.idx()];
        if slot.walk != walk {
            *slot = Slot { walk, list: [NONE; 2], score: [i64::MIN; 2], next: [NONE; 2] };
        }
        slot
    }

    /// The best score of a minimal route `from → target` (anchor index
    /// `a`); the route itself stays readable through [`RouteDp::route`]
    /// until the next call.
    fn best_score(
        &mut self,
        net: &Network,
        from: SwitchId,
        a: usize,
        target: SwitchId,
        weight: &dyn Fn(SwitchId) -> i64,
    ) -> i64 {
        self.walk = self.walk.wrapping_add(1);
        if self.walk == 0 {
            // A wrapped stamp could match a stale slot; start over.
            self.slots.fill(Slot::default());
            self.walk = 1;
        }
        // Point the slots at the lists already derived toward `target`.
        let mut l = self.last_list[a];
        while l != NONE {
            let list = self.lists[l as usize];
            self.slot(list.switch).list[list.phase as usize] = l;
            l = list.prev;
        }
        self.walk_from(net, a, target, weight, from, 0)
    }

    fn walk_from(
        &mut self,
        net: &Network,
        a: usize,
        target: SwitchId,
        weight: &dyn Fn(SwitchId) -> i64,
        s: SwitchId,
        p: usize,
    ) -> i64 {
        let slot = self.slot(s);
        if slot.score[p] != i64::MIN {
            return slot.score[p];
        }
        let w = weight(s);
        if s == target {
            slot.score[p] = w;
            return w;
        }
        let mut l = slot.list[p];
        if l == NONE {
            l = self.derive(net, a, target, s, p);
        }
        let HopList { start, len, .. } = self.lists[l as usize];
        let mut best = i64::MIN;
        let mut choice = NONE;
        for i in start..start + len {
            let (next, np) = self.hops[i as usize];
            let sub = self.walk_from(net, a, target, weight, next, np as usize);
            if sub > best {
                best = sub;
                choice = i;
            }
        }
        debug_assert!(choice != NONE, "no route {s} -> {target}");
        let slot = self.slot(s);
        slot.score[p] = w + best;
        slot.next[p] = choice;
        w + best
    }

    /// Derive the next hops of `(s, p)` toward `target` (anchor index
    /// `a`) into a new list.
    fn derive(&mut self, net: &Network, a: usize, target: SwitchId, s: SwitchId, p: usize) -> u32 {
        let start = self.hops.len() as u32;
        let hops = net.routing.next_hops_iter(s, phase_of(p), target);
        self.hops.extend(hops.map(|h| (h.next, phase_idx(h.next_phase) as u8)));
        let l = self.lists.len() as u32;
        self.lists.push(HopList {
            switch: s,
            phase: p as u8,
            start,
            len: self.hops.len() as u32 - start,
            prev: self.last_list[a],
        });
        self.last_list[a] = l;
        self.slot(s).list[p] = l;
        l
    }

    /// The route behind the last [`RouteDp::best_score`], with the routing
    /// phase at every visited switch, both ends included.
    fn route(&self, from: SwitchId, target: SwitchId, path: &mut Vec<(SwitchId, Phase)>) {
        path.clear();
        path.push((from, Phase::Up));
        let (mut s, mut p) = (from, 0usize);
        while s != target {
            let next = self.slots[s.idx()].next[p];
            debug_assert!(self.slots[s.idx()].walk == self.walk && next != NONE);
            let (ns, np) = self.hops[next as usize];
            s = ns;
            p = np as usize;
            path.push((s, phase_of(p)));
        }
    }
}

/// Verify a worm spec against the network: every drop local to its stop,
/// up-phase stops form a prefix, and every leg routable in the phase
/// regime the simulator will use (up-only legs to up-phase stops; general
/// legal routes afterwards). This is exactly the invariant whose
/// violation used to deadlock path worms before stops carried phases —
/// used by tests and available to embedders composing specs by hand.
pub fn verify_path_spec(
    net: &Network,
    from: SwitchId,
    spec: &PathWormSpec,
) -> Result<(), String> {
    if spec.stops.is_empty() {
        return Err("empty stop list".into());
    }
    let mut seen_down = false;
    let mut here = from;
    for (i, stop) in spec.stops.iter().enumerate() {
        if stop.drops.is_empty() {
            return Err(format!("stop {i} has no drops"));
        }
        for &d in &stop.drops {
            if net.topo.host_switch(d) != stop.switch {
                return Err(format!("drop {d} not attached to {}", stop.switch));
            }
        }
        if stop.up_phase {
            if seen_down {
                return Err(format!("up-phase stop {i} after a down-phase stop"));
            }
            if net.routing.up_only_distance(here, stop.switch)
                == irrnet_topology::routing::UNREACHABLE
            {
                return Err(format!("no up-only route {here} -> {}", stop.switch));
            }
        } else {
            seen_down = true;
            if net.routing.distance(here, Phase::Up, stop.switch)
                == irrnet_topology::routing::UNREACHABLE
            {
                return Err(format!("no legal route {here} -> {}", stop.switch));
            }
        }
        here = stop.switch;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use irrnet_topology::{gen, zoo, RandomTopologyConfig};

    fn full_dests(net: &Network, source: NodeId) -> NodeMask {
        let mut m = NodeMask::all(net.topo.num_nodes());
        m.remove(source);
        m
    }

    #[test]
    fn chain_broadcast_needs_one_worm() {
        // On a chain rooted at S0, one worm from n0 walks down the whole
        // chain and drops everywhere.
        let net = Network::analyze(zoo::chain(4).unwrap()).unwrap();
        let plan = plan_paths(&net, NodeId(0), full_dests(&net, NodeId(0)), PathVariant::Greedy);
        assert_eq!(plan.worms.len(), 1);
        assert_eq!(plan.phases, 1);
        assert_eq!(plan.worms[0].covered(), full_dests(&net, NodeId(0)));
    }

    #[test]
    fn star_broadcast_needs_one_worm_per_leaf() {
        // Star with 4 leaves: any single path visits the core and at most
        // one leaf... with the up/down orientation the core is the root,
        // so a path from a leaf goes up to the core and down one leaf.
        let net = Network::analyze(zoo::star(4, 2).unwrap()).unwrap();
        let src = NodeId(0);
        let dests = full_dests(&net, src);
        let plan = plan_paths(&net, src, dests.clone(), PathVariant::Greedy);
        // 7 destinations over 4 leaf switches; source's leaf is covered
        // together with one other leaf? No: one worm = up to core, down
        // into one leaf; drops at source's own leaf happen on the up
        // prefix. So >= 3 worms.
        assert!(plan.worms.len() >= 3, "worms: {}", plan.worms.len());
        let mut covered = NodeMask::EMPTY;
        for w in &plan.worms {
            let c = w.covered();
            assert!(covered.intersection(&c).is_empty(), "overlapping coverage");
            covered = covered.union(c);
        }
        assert_eq!(covered, dests);
    }

    #[test]
    fn coverage_is_exact_and_disjoint_on_random_topologies() {
        for seed in 0..8 {
            let t = gen::generate(&RandomTopologyConfig::paper_default(seed)).unwrap();
            let net = Network::analyze(t).unwrap();
            for variant in [PathVariant::Greedy, PathVariant::LessGreedy] {
                let src = NodeId(seed as u16 % 32);
                let dests = full_dests(&net, src);
                let plan = plan_paths(&net, src, dests.clone(), variant);
                let mut covered = NodeMask::EMPTY;
                for w in &plan.worms {
                    let c = w.covered();
                    assert!(covered.intersection(&c).is_empty());
                    covered = covered.union(c);
                    assert!(!w.stops.is_empty());
                    for stop in &w.stops {
                        assert!(!stop.drops.is_empty());
                    }
                }
                assert_eq!(covered, dests, "seed {seed} variant {variant:?}");
            }
        }
    }

    #[test]
    fn phases_grow_logarithmically_with_worms() {
        for seed in 0..4 {
            let t = gen::generate(&RandomTopologyConfig::with_switches(seed, 32)).unwrap();
            let net = Network::analyze(t).unwrap();
            let src = NodeId(0);
            let plan = plan_paths(&net, src, full_dests(&net, src), PathVariant::LessGreedy);
            let w = plan.worms.len();
            // Binomial growth: senders double each phase (approximately),
            // so phases <= ceil(log2(w + 1)) + 1 slack.
            let bound = (w + 1).next_power_of_two().trailing_zeros() as usize + 1;
            assert!(plan.phases <= bound, "phases {} worms {w}", plan.phases);
        }
    }

    #[test]
    fn more_switches_means_more_worms() {
        // The paper's Fig. 7 driver: fewer destinations per switch ⇒ more
        // worms. Compare 8 vs 32 switches at fixed 32 nodes (averaged
        // over seeds to smooth topology noise).
        let avg_worms = |switches: usize| {
            let mut total = 0usize;
            for seed in 0..6 {
                let t = gen::generate(&RandomTopologyConfig::with_switches(seed, switches)).unwrap();
                let net = Network::analyze(t).unwrap();
                let plan =
                    plan_paths(&net, NodeId(0), full_dests(&net, NodeId(0)), PathVariant::LessGreedy);
                total += plan.worms.len();
            }
            total
        };
        let w8 = avg_worms(8);
        let w32 = avg_worms(32);
        assert!(w32 > w8, "w8={w8} w32={w32}");
    }

    #[test]
    fn leaders_are_destinations_and_distinct_sender_keys() {
        let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
        let src = NodeId(5);
        let dests = NodeMask::from_nodes((8..24).map(NodeId));
        let plan = plan_paths(&net, src, dests.clone(), PathVariant::LessGreedy);
        for (&sender, specs) in &plan.assignments {
            assert!(sender == src || dests.contains(sender));
            assert!(!specs.is_empty());
        }
    }

    #[test]
    fn less_greedy_paths_are_no_longer_than_greedy() {
        // Aggregate switch-visits across all worms: LG should not visit
        // more switches per covered destination than G on average.
        let mut g_len = 0usize;
        let mut lg_len = 0usize;
        for seed in 0..6 {
            let t = gen::generate(&RandomTopologyConfig::paper_default(seed)).unwrap();
            let net = Network::analyze(t).unwrap();
            let dests = full_dests(&net, NodeId(0));
            let g = plan_paths(&net, NodeId(0), dests.clone(), PathVariant::Greedy);
            let lg = plan_paths(&net, NodeId(0), dests, PathVariant::LessGreedy);
            g_len += g.worms.iter().map(|w| w.stops.len()).sum::<usize>();
            lg_len += lg.worms.iter().map(|w| w.stops.len()).sum::<usize>();
        }
        // Drop-switch counts are equal coverage-wise; LG may use more
        // worms but each is at most as long.
        assert!(lg_len <= g_len + 4, "g={g_len} lg={lg_len}");
    }

    #[test]
    #[should_panic(expected = "empty destination set")]
    fn empty_dests_panics() {
        let net = Network::analyze(zoo::chain(2).unwrap()).unwrap();
        plan_paths(&net, NodeId(0), NodeMask::EMPTY, PathVariant::Greedy);
    }
}
