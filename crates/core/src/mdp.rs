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

use irrnet_sim::{PathStop, PathWormSpec};
use irrnet_topology::{Network, NodeId, NodeMask, Phase, SwitchId};
use std::collections::HashMap;
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
    pub assignments: HashMap<NodeId, Vec<Arc<PathWormSpec>>>,
    /// All worms, in planning order.
    pub worms: Vec<Arc<PathWormSpec>>,
    /// Number of binomial-style phases the schedule needs.
    pub phases: usize,
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

    let mut cover = Cover::new(net, &dests, variant);
    let mut senders: Vec<NodeId> = vec![source];
    let mut assignments: HashMap<NodeId, Vec<Arc<PathWormSpec>>> = HashMap::new();
    let mut worms = Vec::new();
    let mut phases = 0usize;

    while cover.remaining > 0 {
        phases += 1;
        let mut new_senders = Vec::new();
        for &s in &senders {
            if cover.remaining == 0 {
                break;
            }
            let spec = cover.best_worm(net.topo.host_switch(s));
            // The next-phase sender is the worm's *anchor* destination —
            // the unicast addressee whose route the worm follows (its
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
            let spec = Arc::new(spec);
            assignments.entry(s).or_default().push(spec.clone());
            worms.push(spec);
            new_senders.push(leader);
        }
        senders.extend(new_senders);
    }

    PathPlan { assignments, worms, phases }
}

/// The covering state of one multicast. Work per worm follows the
/// uncovered destinations, not the switch count: switches are visited
/// only as anchors hosting an uncovered destination or on a candidate
/// route, and the route-DP buffers are allocated once per multicast.
struct Cover<'a> {
    net: &'a Network,
    variant: PathVariant,
    /// The destinations ordered by (switch, node id).
    dests: Vec<(SwitchId, NodeId)>,
    /// The switches hosting a destination, ascending.
    anchors: Vec<SwitchId>,
    /// Uncovered destinations per switch. A worm drops at every
    /// uncovered destination of a switch it visits, so a switch's
    /// destinations are either all uncovered or all covered.
    uncovered: Vec<u32>,
    /// Uncovered destinations in total.
    remaining: usize,
    dp: RouteDp,
}

impl<'a> Cover<'a> {
    fn new(net: &'a Network, dests: &NodeMask, variant: PathVariant) -> Self {
        let n = net.topo.num_switches();
        let mut by_switch: Vec<(SwitchId, NodeId)> =
            dests.iter().map(|d| (net.topo.host_switch(d), d)).collect();
        by_switch.sort_unstable();
        let mut uncovered = vec![0u32; n];
        let mut anchors = Vec::new();
        for &(s, _) in &by_switch {
            if uncovered[s.idx()] == 0 {
                anchors.push(s);
            }
            uncovered[s.idx()] += 1;
        }
        Cover {
            net,
            variant,
            remaining: by_switch.len(),
            dests: by_switch,
            anchors,
            uncovered,
            dp: RouteDp::new(n),
        }
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
    fn best_worm(&mut self, from: SwitchId) -> PathWormSpec {
        let weight: fn(u32) -> i64 = match self.variant {
            PathVariant::Greedy => |c| c as i64,
            // Less greedy: each visited switch costs half a destination,
            // preferring shorter and denser routes.
            PathVariant::LessGreedy => |c| 2 * c as i64 - 1,
        };
        let mut best: Option<(i64, u16)> = None;
        let mut best_path = Vec::new();
        for &target in &self.anchors {
            if self.uncovered[target.idx()] == 0 {
                continue; // anchor must host an uncovered destination
            }
            let score = self.dp.best_score(self.net, from, target, &self.uncovered, weight);
            let dist = self.net.routing.distance(from, Phase::Up, target);
            let better = match best {
                None => true,
                Some((bs, bd)) => score > bs || (score == bs && dist < bd),
            };
            if better {
                best = Some((score, dist));
                self.dp.route(from, target, &mut best_path);
            }
        }
        assert!(best.is_some(), "some uncovered destination must exist");
        self.take_worm(&best_path)
    }

    /// The worm spec for a concrete switch path: drops at the first visit
    /// of each switch holding uncovered destinations, which become
    /// covered. Stops visited during the route's up* prefix are marked
    /// `up_phase` so the simulator reaches them via up links only (see
    /// [`irrnet_sim::PathStop::up_phase`]).
    fn take_worm(&mut self, path: &[(SwitchId, Phase)]) -> PathWormSpec {
        let mut stops = Vec::new();
        for &(s, phase) in path {
            if self.uncovered[s.idx()] == 0 {
                continue;
            }
            let first = self.dests.partition_point(|&(sw, _)| sw < s);
            let here = &self.dests[first..first + self.uncovered[s.idx()] as usize];
            let drops: Vec<NodeId> = here.iter().map(|&(_, d)| d).collect();
            self.remaining -= drops.len();
            self.uncovered[s.idx()] = 0;
            stops.push(PathStop { switch: s, drops, up_phase: phase == Phase::Up });
        }
        assert!(!stops.is_empty(), "anchor switch hosts an uncovered destination");
        PathWormSpec { stops }
    }
}

fn phase_idx(p: Phase) -> usize {
    match p {
        Phase::Up => 0,
        Phase::Down => 1,
    }
}

/// Over all minimal legal routes `from → target`, maximize the summed
/// switch weight. The minimal-route relation is a DAG (distance strictly
/// decreases per hop), so a memoized walk over the routing tables'
/// next-hop candidates suffices. The memo is indexed by (switch, phase)
/// and reset entry by entry after each target, so one allocation serves
/// every anchor of a multicast.
struct RouteDp {
    /// Best score from (switch, phase) to the current target
    /// (`i64::MIN` = not computed).
    score: Vec<[i64; 2]>,
    /// The chosen next hop per (switch, phase): (switch, phase index).
    next: Vec<[Option<(u16, u8)>; 2]>,
    /// Switches with a memo entry for the current target.
    touched: Vec<SwitchId>,
}

impl RouteDp {
    fn new(num_switches: usize) -> Self {
        RouteDp {
            score: vec![[i64::MIN; 2]; num_switches],
            next: vec![[None; 2]; num_switches],
            touched: Vec::new(),
        }
    }

    /// The best score of a minimal route `from → target`; the route
    /// itself stays readable through [`RouteDp::route`] until the next
    /// call.
    fn best_score(
        &mut self,
        net: &Network,
        from: SwitchId,
        target: SwitchId,
        uncovered: &[u32],
        weight: fn(u32) -> i64,
    ) -> i64 {
        for s in self.touched.drain(..) {
            self.score[s.idx()] = [i64::MIN; 2];
        }
        self.walk(net, target, uncovered, weight, from, Phase::Up)
    }

    fn walk(
        &mut self,
        net: &Network,
        target: SwitchId,
        uncovered: &[u32],
        weight: fn(u32) -> i64,
        s: SwitchId,
        p: Phase,
    ) -> i64 {
        let (si, pi) = (s.idx(), phase_idx(p));
        if self.score[si][pi] != i64::MIN {
            return self.score[si][pi];
        }
        if self.score[si] == [i64::MIN; 2] {
            self.touched.push(s);
        }
        let w = weight(uncovered[si]);
        if s == target {
            self.score[si][pi] = w;
            return w;
        }
        let mut best = i64::MIN;
        let mut choice = None;
        for h in net.routing.next_hops(s, p, target).iter() {
            let sub = self.walk(net, target, uncovered, weight, h.next, h.next_phase);
            if sub > best {
                best = sub;
                choice = Some((h.next.0, phase_idx(h.next_phase) as u8));
            }
        }
        debug_assert!(choice.is_some(), "no route {s} -> {target}");
        self.score[si][pi] = w + best;
        self.next[si][pi] = choice;
        self.score[si][pi]
    }

    /// The route behind the last [`RouteDp::best_score`], with the routing
    /// phase at every visited switch, both ends included.
    fn route(&self, from: SwitchId, target: SwitchId, path: &mut Vec<(SwitchId, Phase)>) {
        path.clear();
        path.push((from, Phase::Up));
        let (mut s, mut p) = (from, 0usize);
        while s != target {
            let (ns, np) = self.next[s.idx()][p].expect("the route follows the memo");
            s = SwitchId(ns);
            p = np as usize;
            path.push((s, if p == 0 { Phase::Up } else { Phase::Down }));
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
