//! Deadlock-free adaptive up*/down* routing tables (§2.2).
//!
//! A legal route traverses zero or more links in the *up* direction
//! followed by zero or more links in the *down* direction; a packet may
//! never go up after having gone down. Routing is adaptive: at each switch
//! every port that lies on a *minimal* legal route to the destination is a
//! valid choice, and the simulator picks whichever candidate is free.
//!
//! The tables are computed once per topology by a backward BFS per
//! destination switch over the two-phase state graph
//! `(switch, phase ∈ {Up, Down})`.

use crate::error::TopologyError;
use crate::fault::FaultStatus;
use crate::graph::Topology;
use crate::ids::{LinkId, PortIdx, SwitchId};
use crate::updown::UpDown;

/// Routing phase of an in-flight worm.
///
/// `Up` = has not yet traversed a down link (may go up or turn down);
/// `Down` = has gone down at least once (down links only from now on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Still in the up* prefix of the route.
    Up,
    /// Committed to the down* suffix.
    Down,
}

impl Phase {
    #[inline]
    fn idx(self) -> usize {
        match self {
            Phase::Up => 0,
            Phase::Down => 1,
        }
    }
}

/// One admissible next hop on a minimal legal route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortCandidate {
    /// Output port on the current switch.
    pub port: PortIdx,
    /// The link behind that port.
    pub link: LinkId,
    /// The switch at the other end.
    pub next: SwitchId,
    /// The phase the worm is in after the traversal.
    pub next_phase: Phase,
}

/// Distance not reachable marker.
pub const UNREACHABLE: u16 = u16::MAX;

/// Compressed-sparse-row candidate storage: one contiguous candidate
/// array plus `n² + 1` offsets. A `Vec<Vec<PortCandidate>>` of n² cells
/// costs 24 bytes of header plus an allocation *per cell* (~1M cells at
/// 1000 switches, per plane); CSR keeps two flat allocations per plane.
#[derive(Debug, Clone, Default)]
struct CandCsr {
    offsets: Vec<u32>,
    cands: Vec<PortCandidate>,
}

impl CandCsr {
    #[inline]
    fn row(&self, cell: usize) -> &[PortCandidate] {
        &self.cands[self.offsets[cell] as usize..self.offsets[cell + 1] as usize]
    }
}

/// All-pairs minimal up*/down* distances and next-hop candidate sets.
#[derive(Debug, Clone)]
pub struct RoutingTables {
    num_switches: usize,
    /// `dist[phase][s * n + t]` = minimal legal hops from `s` (in `phase`)
    /// to switch `t`; `UNREACHABLE` if none.
    dist: [Vec<u16>; 2],
    /// Minimal next-hop candidates per `(phase, s * n + t)` cell.
    hops: [CandCsr; 2],
    /// `dist_up[s * n + t]` = minimal hops from `s` to `t` using **up
    /// links only** (so the worm arrives with its up* prefix intact);
    /// `UNREACHABLE` if no pure-up route exists.
    dist_up: Vec<u16>,
    /// Minimal next hops for the up-only plane.
    hops_up: CandCsr,
    /// Longest minimal legal route between two connected switches.
    diameter: u16,
}

/// Enumerate every minimal next-hop candidate of the two main planes, in
/// deterministic `(s, move, t)` order. Called twice per compute: once to
/// count per cell, once to place — both passes must see identical output.
fn for_each_main_candidate(
    n: usize,
    moves: &[Vec<(PortIdx, LinkId, SwitchId, bool)>],
    dist: &[Vec<u16>; 2],
    sink: &mut impl FnMut(usize, usize, PortCandidate),
) {
    for (s, ms) in moves.iter().enumerate() {
        for &(port, link, next, is_up) in ms {
            for t in 0..n {
                // From (s, Up):
                let next_phase = if is_up { Phase::Up } else { Phase::Down };
                let d_here = dist[0][s * n + t];
                let d_next = dist[next_phase.idx()][next.idx() * n + t];
                if d_here != UNREACHABLE && d_next != UNREACHABLE && d_next + 1 == d_here {
                    sink(0, s * n + t, PortCandidate { port, link, next, next_phase });
                }
                // From (s, Down): only down traversals are legal.
                if !is_up {
                    let d_here = dist[1][s * n + t];
                    let d_next = dist[1][next.idx() * n + t];
                    if d_here != UNREACHABLE && d_next != UNREACHABLE && d_next + 1 == d_here {
                        sink(1, s * n + t, PortCandidate { port, link, next, next_phase: Phase::Down });
                    }
                }
            }
        }
    }
}

/// Same two-pass enumeration for the up-only plane.
fn for_each_up_candidate(
    n: usize,
    moves: &[Vec<(PortIdx, LinkId, SwitchId, bool)>],
    dist_up: &[u16],
    sink: &mut impl FnMut(usize, PortCandidate),
) {
    for (s, ms) in moves.iter().enumerate() {
        for &(port, link, next, is_up) in ms {
            if !is_up {
                continue;
            }
            for t in 0..n {
                let d_here = dist_up[s * n + t];
                let d_next = dist_up[next.idx() * n + t];
                if d_here != UNREACHABLE && d_next != UNREACHABLE && d_next + 1 == d_here {
                    sink(s * n + t, PortCandidate { port, link, next, next_phase: Phase::Up });
                }
            }
        }
    }
}

/// Exclusive prefix sums over per-cell counts, with the candidate slab
/// preallocated (placeholder-filled; the placement pass overwrites every
/// slot exactly once).
fn csr_from_counts(counts: &[u32]) -> CandCsr {
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0u32;
    offsets.push(0);
    for &c in counts {
        acc += c;
        offsets.push(acc);
    }
    let filler =
        PortCandidate { port: PortIdx(0), link: LinkId(0), next: SwitchId(0), next_phase: Phase::Up };
    CandCsr { offsets, cands: vec![filler; acc as usize] }
}

impl RoutingTables {
    /// Compute tables for a topology under a given up/down orientation.
    pub fn compute(topo: &Topology, updown: &UpDown) -> Result<Self, TopologyError> {
        Self::compute_inner(topo, updown, None)
    }

    /// Compute tables over the **surviving** graph of a degrading
    /// network: dead links and links into dead switches contribute no
    /// moves, so dead components are unreachable and never appear as
    /// next-hop candidates. Rows for dead switches are all-`UNREACHABLE`.
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
        let mut dist = [vec![UNREACHABLE; n * n], vec![UNREACHABLE; n * n]];

        // Forward adjacency with phases, per switch. Masked computes drop
        // every move across a dead link or into/out of a dead switch —
        // this is the single point where faults enter the tables.
        // moves[s] = Vec of (port, link, next, traversal_is_up)
        let mut moves: Vec<Vec<(PortIdx, LinkId, SwitchId, bool)>> = Vec::with_capacity(n);
        for si in 0..n {
            let s = SwitchId(si as u16);
            if let Some(st) = status {
                if !st.switch_up(s) {
                    moves.push(Vec::new());
                    continue;
                }
            }
            let mut ms = Vec::new();
            for (l, peer, port) in topo.neighbors(s) {
                if let Some(st) = status {
                    if !st.link_up(topo, l) {
                        continue;
                    }
                }
                ms.push((port, l, peer, updown.is_up_traversal(topo, l, s)?));
            }
            moves.push(ms);
        }

        // Reverse adjacency over states: rev[(s,phase)] lists (prev, prev_phase).
        // Transition rules (forward):
        //   (s, Up)  --up-->   (s', Up)
        //   (s, Up)  --down--> (s', Down)
        //   (s, Down)--down--> (s', Down)
        // Backward BFS per destination t from states {(t, Up), (t, Down)}.
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); 2 * n];
        for (si, ms) in moves.iter().enumerate() {
            for &(_, _, next, is_up) in ms {
                let ni = next.idx();
                if is_up {
                    // (si, Up) -> (ni, Up)
                    rev[ni].push(si); // Up plane: rev[ni in Up] gets si (Up)
                } else {
                    // (si, Up) -> (ni, Down) and (si, Down) -> (ni, Down)
                    rev[n + ni].push(si); // encode below
                }
            }
        }
        // NOTE: rev[t] (Up plane) holds predecessors in Up phase via up links;
        // rev[n+t] (Down plane) holds predecessors (in either phase) via down
        // links — a down traversal into t can originate from (prev, Up) or
        // (prev, Down).

        let mut queue = std::collections::VecDeque::new();
        for t in 0..n {
            // Being AT t in either phase is distance 0.
            queue.clear();
            dist[0][t * n + t] = 0;
            dist[1][t * n + t] = 0;
            queue.push_back((t, Phase::Up));
            queue.push_back((t, Phase::Down));
            while let Some((s, ph)) = queue.pop_front() {
                let d = dist[ph.idx()][s * n + t];
                match ph {
                    Phase::Up => {
                        // Predecessors that reach (s, Up): (prev, Up) via an
                        // up traversal prev->s.
                        for &p in &rev[s] {
                            let slot = &mut dist[0][p * n + t];
                            if *slot == UNREACHABLE {
                                *slot = d + 1;
                                queue.push_back((p, Phase::Up));
                            }
                        }
                    }
                    Phase::Down => {
                        // Predecessors that reach (s, Down): any prev with a
                        // down traversal prev->s, in either phase.
                        for &p in &rev[n + s] {
                            for ph_prev in [Phase::Up, Phase::Down] {
                                let slot = &mut dist[ph_prev.idx()][p * n + t];
                                if *slot == UNREACHABLE {
                                    *slot = d + 1;
                                    queue.push_back((p, ph_prev));
                                }
                            }
                        }
                    }
                }
            }
        }

        // Next-hop candidate sets, built in CSR form with two identical
        // passes (count, then place) so the per-cell candidate order is
        // exactly the order per-cell Vec pushes used to produce.
        let mut counts = [vec![0u32; n * n], vec![0u32; n * n]];
        for_each_main_candidate(n, &moves, &dist, &mut |ph, cell, _| counts[ph][cell] += 1);
        let mut hops = [csr_from_counts(&counts[0]), csr_from_counts(&counts[1])];
        let mut cursor = [hops[0].offsets.clone(), hops[1].offsets.clone()];
        for_each_main_candidate(n, &moves, &dist, &mut |ph, cell, cand| {
            hops[ph].cands[cursor[ph][cell] as usize] = cand;
            cursor[ph][cell] += 1;
        });

        // Up-only plane: backward BFS per destination over up edges.
        let mut dist_up = vec![UNREACHABLE; n * n];
        for t in 0..n {
            dist_up[t * n + t] = 0;
            queue.clear();
            queue.push_back((t, Phase::Up));
            while let Some((s, _)) = queue.pop_front() {
                let d = dist_up[s * n + t];
                // Predecessors with an up traversal prev -> s.
                for &p in &rev[s] {
                    let slot = &mut dist_up[p * n + t];
                    if *slot == UNREACHABLE {
                        *slot = d + 1;
                        queue.push_back((p, Phase::Up));
                    }
                }
            }
        }
        let mut counts_up = vec![0u32; n * n];
        for_each_up_candidate(n, &moves, &dist_up, &mut |cell, _| counts_up[cell] += 1);
        let mut hops_up = csr_from_counts(&counts_up);
        let mut cursor_up = hops_up.offsets.clone();
        for_each_up_candidate(n, &moves, &dist_up, &mut |cell, cand| {
            hops_up.cands[cursor_up[cell] as usize] = cand;
            cursor_up[cell] += 1;
        });

        let diameter = dist[0].iter().copied().filter(|&d| d != UNREACHABLE).max().unwrap_or(0);
        Ok(RoutingTables { num_switches: n, dist, hops, dist_up, hops_up, diameter })
    }

    /// Minimal hop count from `s` to `t` using only up links, or
    /// [`UNREACHABLE`]. A worm arriving via such a route has not spent its
    /// down* suffix — needed by path-based worms whose planned route
    /// visits `t` during the up* prefix.
    #[inline]
    pub fn up_only_distance(&self, s: SwitchId, t: SwitchId) -> u16 {
        self.dist_up[s.idx() * self.num_switches + t.idx()]
    }

    /// Minimal next hops of the up-only plane (all arrive in `Phase::Up`).
    #[inline]
    pub fn up_only_next_hops(&self, s: SwitchId, t: SwitchId) -> &[PortCandidate] {
        self.hops_up.row(s.idx() * self.num_switches + t.idx())
    }

    /// Minimal legal hop count from switch `s` (in `phase`) to switch `t`,
    /// or [`UNREACHABLE`].
    #[inline]
    pub fn distance(&self, s: SwitchId, phase: Phase, t: SwitchId) -> u16 {
        self.dist[phase.idx()][s.idx() * self.num_switches + t.idx()]
    }

    /// All minimal legal next hops from `s` (in `phase`) toward `t`.
    /// Empty iff `s == t` or `t` is unreachable in this phase.
    #[inline]
    pub fn next_hops(&self, s: SwitchId, phase: Phase, t: SwitchId) -> &[PortCandidate] {
        self.hops[phase.idx()].row(s.idx() * self.num_switches + t.idx())
    }

    /// The up*/down* diameter: the longest minimal legal route (starting
    /// in `Phase::Up`) over all pairs of mutually reachable switches.
    /// Computed once with the tables.
    #[inline]
    pub fn diameter(&self) -> u16 {
        self.diameter
    }

    /// Number of switches the tables were built for.
    #[inline]
    pub fn num_switches(&self) -> usize {
        self.num_switches
    }

    /// True if every switch can reach every other switch starting in the
    /// Up phase — guaranteed for any connected up*/down* network (via the
    /// root), asserted in tests.
    pub fn fully_connected(&self) -> bool {
        let n = self.num_switches;
        (0..n).all(|s| (0..n).all(|t| self.dist[0][s * n + t] != UNREACHABLE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TopologyBuilder;
    use crate::updown::UpDown;

    fn diamond() -> (Topology, UpDown, RoutingTables) {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_switch(8);
        let s1 = b.add_switch(8);
        let s2 = b.add_switch(8);
        let s3 = b.add_switch(8);
        b.add_link(s0, s1).unwrap();
        b.add_link(s0, s2).unwrap();
        b.add_link(s1, s3).unwrap();
        b.add_link(s2, s3).unwrap();
        for s in [s0, s1, s2, s3] {
            b.add_host(s).unwrap();
        }
        let t = b.build().unwrap();
        let ud = UpDown::compute(&t, s0).unwrap();
        let rt = RoutingTables::compute(&t, &ud).unwrap();
        (t, ud, rt)
    }

    #[test]
    fn zero_distance_to_self() {
        let (_, _, rt) = diamond();
        for s in 0..4u16 {
            assert_eq!(rt.distance(SwitchId(s), Phase::Up, SwitchId(s)), 0);
            assert_eq!(rt.distance(SwitchId(s), Phase::Down, SwitchId(s)), 0);
            assert!(rt.next_hops(SwitchId(s), Phase::Up, SwitchId(s)).is_empty());
        }
    }

    #[test]
    fn adjacent_distance_is_one() {
        let (_, _, rt) = diamond();
        assert_eq!(rt.distance(SwitchId(0), Phase::Up, SwitchId(1)), 1);
        assert_eq!(rt.distance(SwitchId(1), Phase::Up, SwitchId(0)), 1);
    }

    #[test]
    fn up_phase_reaches_everything() {
        let (_, _, rt) = diamond();
        assert!(rt.fully_connected());
    }

    #[test]
    fn down_phase_is_restricted() {
        let (_, _, rt) = diamond();
        // From S3 (a leaf) in Down phase nothing but itself is reachable:
        // both its links point up.
        assert_eq!(rt.distance(SwitchId(3), Phase::Down, SwitchId(0)), UNREACHABLE);
        // From the root in Down phase everything is reachable (all links
        // at the root point down).
        for t in 0..4u16 {
            assert_ne!(rt.distance(SwitchId(0), Phase::Down, SwitchId(t)), UNREACHABLE);
        }
    }

    #[test]
    fn sibling_route_goes_through_common_ancestor() {
        let (_, _, rt) = diamond();
        // S1 -> S2: legal minimal routes are via S0 (up then down) or via
        // S3? S1->S3 is down, S3->S2 would be up — illegal. So distance 2
        // via S0 only.
        assert_eq!(rt.distance(SwitchId(1), Phase::Up, SwitchId(2)), 2);
        let hops = rt.next_hops(SwitchId(1), Phase::Up, SwitchId(2));
        assert_eq!(hops.len(), 1);
        assert_eq!(hops[0].next, SwitchId(0));
        assert_eq!(hops[0].next_phase, Phase::Up);
    }

    #[test]
    fn adaptive_choice_where_two_minimal_routes_exist() {
        let (_, _, rt) = diamond();
        // S0 -> S3: down via S1 or down via S2, both length 2.
        let hops = rt.next_hops(SwitchId(0), Phase::Up, SwitchId(3));
        assert_eq!(hops.len(), 2);
        assert!(hops.iter().all(|h| h.next_phase == Phase::Down));
    }

    #[test]
    fn next_hops_reduce_distance() {
        let (_, _, rt) = diamond();
        for s in 0..4u16 {
            for t in 0..4u16 {
                for ph in [Phase::Up, Phase::Down] {
                    let d = rt.distance(SwitchId(s), ph, SwitchId(t));
                    if d == UNREACHABLE || d == 0 {
                        continue;
                    }
                    for h in rt.next_hops(SwitchId(s), ph, SwitchId(t)) {
                        assert_eq!(rt.distance(h.next, h.next_phase, SwitchId(t)), d - 1);
                    }
                    assert!(!rt.next_hops(SwitchId(s), ph, SwitchId(t)).is_empty());
                }
            }
        }
    }

    #[test]
    fn up_only_plane_is_restricted_to_climbs() {
        let (_, _, rt) = diamond();
        // S3 -> S1 and S3 -> S0 are pure climbs.
        assert_eq!(rt.up_only_distance(SwitchId(3), SwitchId(1)), 1);
        assert_eq!(rt.up_only_distance(SwitchId(3), SwitchId(0)), 2);
        // S0 -> S3 needs down links: unreachable in the up-only plane.
        assert_eq!(rt.up_only_distance(SwitchId(0), SwitchId(3)), UNREACHABLE);
        // S1 -> S2 (siblings) likewise.
        assert_eq!(rt.up_only_distance(SwitchId(1), SwitchId(2)), UNREACHABLE);
        // Hops exist and keep phase Up.
        let hops = rt.up_only_next_hops(SwitchId(3), SwitchId(0));
        assert!(!hops.is_empty());
        assert!(hops.iter().all(|h| h.next_phase == Phase::Up));
    }

    #[test]
    fn up_only_distance_never_beats_general_distance() {
        let (_, _, rt) = diamond();
        for s in 0..4u16 {
            for t in 0..4u16 {
                let up = rt.up_only_distance(SwitchId(s), SwitchId(t));
                let gen = rt.distance(SwitchId(s), Phase::Up, SwitchId(t));
                if up != UNREACHABLE {
                    assert!(up >= gen);
                }
            }
        }
    }

    #[test]
    fn no_up_after_down() {
        // In Down phase, every candidate keeps phase Down.
        let (_, _, rt) = diamond();
        for s in 0..4u16 {
            for t in 0..4u16 {
                for h in rt.next_hops(SwitchId(s), Phase::Down, SwitchId(t)) {
                    assert_eq!(h.next_phase, Phase::Down);
                }
            }
        }
    }
}
