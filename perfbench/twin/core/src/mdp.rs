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

    let mut uncovered = dests;
    let mut senders: Vec<NodeId> = vec![source];
    let mut assignments: HashMap<NodeId, Vec<Arc<PathWormSpec>>> = HashMap::new();
    let mut worms = Vec::new();
    let mut phases = 0usize;

    while !uncovered.is_empty() {
        phases += 1;
        let mut new_senders = Vec::new();
        let phase_senders = senders.clone();
        for s in phase_senders {
            if uncovered.is_empty() {
                break;
            }
            let spec = best_worm(net, net.topo.host_switch(s), &uncovered, variant);
            for stop in &spec.stops {
                for &d in &stop.drops {
                    uncovered.remove(d);
                }
            }
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

/// Pick the best single worm from `from` over the `uncovered` set.
///
/// Candidate routes are exactly the *minimal legal unicast routes* from
/// `from` to the switch of some uncovered destination — the paper's
/// multi-drop worms "use almost exactly the same path followed by a
/// unicast worm from a source to one of its destinations" (§3.2.4). Among
/// those, pick the anchor destination whose best route maximizes the
/// variant's score over uncovered destinations at the visited switches.
fn best_worm(
    net: &Network,
    from: SwitchId,
    uncovered: &NodeMask,
    variant: PathVariant,
) -> PathWormSpec {
    let n = net.topo.num_switches();
    let counts: Vec<i64> = (0..n)
        .map(|s| net.topo.nodes_at(SwitchId(s as u16)).intersection(uncovered).len() as i64)
        .collect();
    let weights: Vec<i64> = match variant {
        PathVariant::Greedy => counts.clone(),
        // Less greedy: each visited switch costs half a destination,
        // preferring shorter and denser routes.
        PathVariant::LessGreedy => counts.iter().map(|&c| 2 * c - 1).collect(),
    };

    // (score, dist, path-with-phases)
    type Best = (i64, u16, Vec<(SwitchId, Phase)>);
    let mut best: Option<Best> = None;
    for (t, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue; // anchor must host an uncovered destination
        }
        let target = SwitchId(t as u16);
        let (score, path) = best_route_to(net, from, target, &weights);
        let dist = net.routing.distance(from, Phase::Up, target);
        let better = match &best {
            None => true,
            Some((bs, bd, _)) => score > *bs || (score == *bs && dist < *bd),
        };
        if better {
            best = Some((score, dist, path));
        }
    }
    let (_, _, path) = best.expect("some uncovered destination must exist");
    worm_from_path(net, &path, uncovered)
        .expect("anchor switch hosts an uncovered destination")
}

/// Over all minimal legal routes `from → target`, maximize the summed
/// switch weight. Returns `(score, switch sequence with the routing
/// phase at each switch)` including both ends.
///
/// The minimal-route relation is a DAG (distance strictly decreases per
/// hop), so a memoized walk over the routing tables' next-hop candidates
/// suffices.
fn best_route_to(
    net: &Network,
    from: SwitchId,
    target: SwitchId,
    w: &[i64],
) -> (i64, Vec<(SwitchId, Phase)>) {
    let n = net.topo.num_switches();
    // memo[phase][switch]: best score from (switch, phase) to target,
    // and chosen next hop.
    let mut score = vec![[i64::MIN; 2]; n];
    let mut next: Vec<[Option<(usize, usize)>; 2]> = vec![[None; 2]; n]; // (next switch, next phase)
    fn phase_idx(p: Phase) -> usize {
        match p {
            Phase::Up => 0,
            Phase::Down => 1,
        }
    }
    fn walk(
        net: &Network,
        target: SwitchId,
        w: &[i64],
        score: &mut Vec<[i64; 2]>,
        next: &mut Vec<[Option<(usize, usize)>; 2]>,
        s: SwitchId,
        p: Phase,
    ) -> i64 {
        let (si, pi) = (s.idx(), phase_idx(p));
        if score[si][pi] != i64::MIN {
            return score[si][pi];
        }
        if s == target {
            score[si][pi] = w[si];
            return w[si];
        }
        let mut best = i64::MIN;
        let mut choice = None;
        // Collect hops first (borrow), then recurse.
        let hops: Vec<(SwitchId, Phase)> = net
            .routing
            .next_hops(s, p, target)
            .iter()
            .map(|h| (h.next, h.next_phase))
            .collect();
        for (ns, np) in hops {
            let sub = walk(net, target, w, score, next, ns, np);
            if sub > best {
                best = sub;
                choice = Some((ns.idx(), phase_idx(np)));
            }
        }
        debug_assert!(choice.is_some(), "no route {s} -> {target}");
        score[si][pi] = w[si] + best;
        next[si][pi] = choice;
        score[si][pi]
    }
    let total = walk(net, target, w, &mut score, &mut next, from, Phase::Up);
    // Reconstruct, tracking the routing phase at every visited switch.
    let mut path = vec![(from, Phase::Up)];
    let (mut si, mut pi) = (from.idx(), phase_idx(Phase::Up));
    while SwitchId(si as u16) != target {
        let (ns, np) = next[si][pi].expect("reconstruction follows memo");
        let phase = if np == 0 { Phase::Up } else { Phase::Down };
        path.push((SwitchId(ns as u16), phase));
        si = ns;
        pi = np;
    }
    (total, path)
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

/// Build the worm spec for a concrete switch path: drops at the first
/// visit of each switch holding uncovered destinations; trailing switches
/// without drops are trimmed. Stops visited during the route's up* prefix
/// are marked `up_phase` so the simulator reaches them via up links only
/// (see [`irrnet_sim::PathStop::up_phase`]). Returns `None` if the path
/// covers nothing.
fn worm_from_path(
    net: &Network,
    path: &[(SwitchId, Phase)],
    uncovered: &NodeMask,
) -> Option<PathWormSpec> {
    let mut remaining = uncovered.clone();
    let mut stops = Vec::new();
    for &(s, phase) in path {
        let local = net.topo.nodes_at(s).intersection(&remaining);
        if !local.is_empty() {
            let drops: Vec<NodeId> = local.iter().collect();
            for &d in &drops {
                remaining.remove(d);
            }
            stops.push(PathStop { switch: s, drops, up_phase: phase == Phase::Up });
        }
    }
    if stops.is_empty() {
        None
    } else {
        Some(PathWormSpec { stops })
    }
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
