//! Deadlock-free adaptive up*/down* routing (§2.2).
//!
//! A legal route traverses zero or more links in the *up* direction
//! followed by zero or more links in the *down* direction; a packet may
//! never go up after having gone down. Routing is adaptive: at each switch
//! every port that lies on a *minimal* legal route to the destination is a
//! valid choice, and the simulator picks whichever candidate is free.
//!
//! Routing state costs what is routed. Analysis keeps each switch's moves
//! (O(links)). The distances toward a destination switch form one column,
//! computed by a backward BFS over the two-phase state graph
//! `(switch, phase ∈ {Up, Down})` the first time a lookup names that
//! destination, and kept. Next hops are derived at lookup: the moves out
//! of the switch that lead one hop closer in the right plane.

use std::sync::OnceLock;

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

/// Candidates a [`NextHops`] holds without allocating: the widest switch
/// the simulator accepts.
const INLINE_HOPS: usize = 32;

/// The minimal next hops of one lookup, by value, in the switch's port
/// order; derefs to `&[PortCandidate]`. Held inline unless the switch has
/// more than 32 moves.
#[derive(Debug, Clone)]
pub struct NextHops {
    len: u8,
    inline: [PortCandidate; INLINE_HOPS],
    /// The candidates of a switch with more than 32 moves; empty otherwise.
    heap: Vec<PortCandidate>,
}

impl NextHops {
    /// The moves `pick` admits, each with the phase `pick` returns for it.
    #[inline]
    fn collect(moves: &[Move], mut pick: impl FnMut(&Move) -> Option<Phase>) -> Self {
        const FILLER: PortCandidate =
            PortCandidate { port: PortIdx(0), link: LinkId(0), next: SwitchId(0), next_phase: Phase::Up };
        let cand = |m: &Move, next_phase| PortCandidate { port: m.port, link: m.link, next: m.next, next_phase };
        let mut inline = [FILLER; INLINE_HOPS];
        if moves.len() > INLINE_HOPS {
            let heap = moves.iter().filter_map(|m| pick(m).map(|p| cand(m, p))).collect();
            return NextHops { len: 0, inline, heap };
        }
        let mut len = 0;
        for m in moves {
            if let Some(p) = pick(m) {
                inline[len] = cand(m, p);
                len += 1;
            }
        }
        NextHops { len: len as u8, inline, heap: Vec::new() }
    }
}

impl std::ops::Deref for NextHops {
    type Target = [PortCandidate];

    #[inline]
    fn deref(&self) -> &[PortCandidate] {
        if self.heap.is_empty() {
            &self.inline[..self.len as usize]
        } else {
            &self.heap
        }
    }
}

impl IntoIterator for NextHops {
    type Item = PortCandidate;
    type IntoIter = NextHopsIter;

    fn into_iter(self) -> NextHopsIter {
        NextHopsIter { hops: self, at: 0 }
    }
}

/// By-value iterator over a [`NextHops`].
#[derive(Debug, Clone)]
pub struct NextHopsIter {
    hops: NextHops,
    at: usize,
}

impl Iterator for NextHopsIter {
    type Item = PortCandidate;

    fn next(&mut self) -> Option<PortCandidate> {
        let cand = self.hops.get(self.at).copied();
        self.at += 1;
        cand
    }
}

/// One traversal out of a switch.
#[derive(Debug, Clone, Copy)]
struct Move {
    port: PortIdx,
    link: LinkId,
    next: SwitchId,
    /// The traversal goes up, so it is legal only in `Phase::Up`.
    is_up: bool,
}

/// Minimal up*/down* distances and next-hop candidates, computed per
/// destination switch on first use.
#[derive(Debug, Clone)]
pub struct RoutingTables {
    num_switches: usize,
    /// `moves[move_start[s]..move_start[s + 1]]`: the traversals out of
    /// `s` in [`Topology::neighbors`] order. A link's two traversals have
    /// opposite orientations, so the same list read backwards is the
    /// reverse adjacency: the down moves out of `s` lead from the switches
    /// with an up move into `s`, and vice versa.
    move_start: Vec<u32>,
    moves: Vec<Move>,
    /// One column per destination switch `t`, built on first use: minimal
    /// legal hops to `t` from every switch in `Phase::Up` (`[0, n)`), in
    /// `Phase::Down` (`[n, 2n)`) and over up links only (`[2n, 3n)`);
    /// [`UNREACHABLE`] if none.
    columns: Vec<OnceLock<Box<[u16]>>>,
    /// `(diameter, fully connected)`, from one sweep on first use.
    sweep: OnceLock<(u16, bool)>,
}

impl RoutingTables {
    /// Compute tables for a topology under a given up/down orientation.
    pub fn compute(topo: &Topology, updown: &UpDown) -> Result<Self, TopologyError> {
        Self::compute_inner(topo, updown, None)
    }

    /// Compute tables over the **surviving** graph of a degrading
    /// network: dead links and links into dead switches contribute no
    /// moves, so dead components are unreachable and never appear as
    /// next-hop candidates. Dead switches reach nothing but themselves.
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
        // Masked computes drop every move across a dead link or into/out
        // of a dead switch — the single point where faults enter routing.
        let mut move_start = Vec::with_capacity(n + 1);
        let mut moves = Vec::new();
        move_start.push(0);
        for si in 0..n {
            let s = SwitchId(si as u16);
            if status.is_none_or(|st| st.switch_up(s)) {
                for (link, next, port) in topo.neighbors(s) {
                    if status.is_none_or(|st| st.link_up(topo, link)) {
                        let is_up = updown.is_up_traversal(topo, link, s)?;
                        moves.push(Move { port, link, next, is_up });
                    }
                }
            }
            move_start.push(moves.len() as u32);
        }
        Ok(RoutingTables {
            num_switches: n,
            move_start,
            moves,
            columns: (0..n).map(|_| OnceLock::new()).collect(),
            sweep: OnceLock::new(),
        })
    }

    #[inline]
    fn moves_of(&self, s: usize) -> &[Move] {
        &self.moves[self.move_start[s] as usize..self.move_start[s + 1] as usize]
    }

    /// Backward BFS from `t` over the state graph; state `s` is
    /// `(s, Up)` and state `n + s` is `(s, Down)`, so `col[..2n]` is
    /// indexed by state. Forward transitions:
    ///   (s, Up)  --up-->   (s', Up)
    ///   (s, Up)  --down--> (s', Down)
    ///   (s, Down)--down--> (s', Down)
    /// `col[..2n]` must be all-[`UNREACHABLE`] on entry.
    fn two_phase_bfs(&self, t: usize, col: &mut [u16], queue: &mut Vec<usize>) {
        let n = self.num_switches;
        // Being AT t in either phase is distance 0.
        col[t] = 0;
        col[n + t] = 0;
        queue.clear();
        queue.extend([t, n + t]);
        let mut head = 0;
        while let Some(&state) = queue.get(head) {
            head += 1;
            let d = col[state];
            let (s, down) = if state < n { (state, false) } else { (state - n, true) };
            for m in self.moves_of(s) {
                let p = m.next.idx();
                if !down && !m.is_up {
                    // p -> s is an up traversal: (p, Up) reaches (s, Up).
                    if col[p] == UNREACHABLE {
                        col[p] = d + 1;
                        queue.push(p);
                    }
                } else if down && m.is_up {
                    // p -> s is a down traversal, legal in either phase.
                    for prev in [p, n + p] {
                        if col[prev] == UNREACHABLE {
                            col[prev] = d + 1;
                            queue.push(prev);
                        }
                    }
                }
            }
        }
    }

    /// Backward BFS from `t` over up traversals only, into `up` (all-
    /// [`UNREACHABLE`] on entry).
    fn up_only_bfs(&self, t: usize, up: &mut [u16], queue: &mut Vec<usize>) {
        up[t] = 0;
        queue.clear();
        queue.push(t);
        let mut head = 0;
        while let Some(&s) = queue.get(head) {
            head += 1;
            let d = up[s];
            for m in self.moves_of(s).iter().filter(|m| !m.is_up) {
                let p = m.next.idx();
                if up[p] == UNREACHABLE {
                    up[p] = d + 1;
                    queue.push(p);
                }
            }
        }
    }

    /// The distance column toward `t`, computed on first use.
    #[inline]
    fn column(&self, t: SwitchId) -> &[u16] {
        self.columns[t.idx()].get_or_init(|| {
            let n = self.num_switches;
            let mut col = vec![UNREACHABLE; 3 * n].into_boxed_slice();
            let mut queue = Vec::with_capacity(2 * n);
            self.two_phase_bfs(t.idx(), &mut col, &mut queue);
            self.up_only_bfs(t.idx(), &mut col[2 * n..], &mut queue);
            col
        })
    }

    /// Minimal hop count from `s` to `t` using only up links, or
    /// [`UNREACHABLE`]. A worm arriving via such a route has not spent its
    /// down* suffix — needed by path-based worms whose planned route
    /// visits `t` during the up* prefix.
    #[inline]
    pub fn up_only_distance(&self, s: SwitchId, t: SwitchId) -> u16 {
        self.column(t)[2 * self.num_switches + s.idx()]
    }

    /// Minimal next hops of the up-only plane (all arrive in `Phase::Up`).
    pub fn up_only_next_hops(&self, s: SwitchId, t: SwitchId) -> NextHops {
        let up = &self.column(t)[2 * self.num_switches..];
        let d = up[s.idx()];
        let moves = if d == 0 || d == UNREACHABLE { &[][..] } else { self.moves_of(s.idx()) };
        NextHops::collect(moves, |m| (m.is_up && up[m.next.idx()] == d - 1).then_some(Phase::Up))
    }

    /// Minimal legal hop count from switch `s` (in `phase`) to switch `t`,
    /// or [`UNREACHABLE`].
    #[inline]
    pub fn distance(&self, s: SwitchId, phase: Phase, t: SwitchId) -> u16 {
        self.column(t)[phase.idx() * self.num_switches + s.idx()]
    }

    /// All minimal legal next hops from `s` (in `phase`) toward `t`, in
    /// port order. Empty iff `s == t` or `t` is unreachable in this phase.
    pub fn next_hops(&self, s: SwitchId, phase: Phase, t: SwitchId) -> NextHops {
        let n = self.num_switches;
        let col = self.column(t);
        let d = col[phase.idx() * n + s.idx()];
        let moves = if d == 0 || d == UNREACHABLE { &[][..] } else { self.moves_of(s.idx()) };
        NextHops::collect(moves, |m| {
            // From Down only down traversals are legal.
            let next_phase = match (m.is_up, phase) {
                (true, Phase::Down) => return None,
                (true, Phase::Up) => Phase::Up,
                (false, _) => Phase::Down,
            };
            (col[next_phase.idx() * n + m.next.idx()] == d - 1).then_some(next_phase)
        })
    }

    /// One BFS per destination into a single scratch column, keeping
    /// only the longest finite `Phase::Up` distance and whether any pair
    /// is unreachable.
    fn sweep(&self) -> (u16, bool) {
        *self.sweep.get_or_init(|| {
            let n = self.num_switches;
            let mut scratch = vec![UNREACHABLE; 2 * n];
            let mut queue = Vec::with_capacity(2 * n);
            let (mut diameter, mut connected) = (0, true);
            for t in 0..n {
                scratch.fill(UNREACHABLE);
                self.two_phase_bfs(t, &mut scratch, &mut queue);
                for &d in &scratch[..n] {
                    if d == UNREACHABLE {
                        connected = false;
                    } else {
                        diameter = diameter.max(d);
                    }
                }
            }
            (diameter, connected)
        })
    }

    /// The up*/down* diameter: the longest minimal legal route (starting
    /// in `Phase::Up`) over all pairs of mutually reachable switches.
    /// Computed on the first call by one BFS per destination, none of
    /// which is kept.
    pub fn diameter(&self) -> u16 {
        self.sweep().0
    }

    /// Number of switches the tables were built for.
    #[inline]
    pub fn num_switches(&self) -> usize {
        self.num_switches
    }

    /// True if every switch can reach every other switch starting in the
    /// Up phase — guaranteed for any connected up*/down* network (via the
    /// root), asserted in tests. Shares the sweep behind [`Self::diameter`].
    pub fn fully_connected(&self) -> bool {
        self.sweep().1
    }

    /// Heap bytes held: the moves, one column slot per destination, and
    /// every distance column built so far (`3 · n` entries each).
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let built = self.columns.iter().filter(|c| c.get().is_some()).count();
        self.move_start.len() * size_of::<u32>()
            + self.moves.len() * size_of::<Move>()
            + self.columns.len() * size_of::<OnceLock<Box<[u16]>>>()
            + built * 3 * self.num_switches * size_of::<u16>()
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
    fn switches_with_more_than_32_moves_list_every_hop_in_port_order() {
        // 40 parallel links: from the leaf, every one is a minimal hop.
        let mut b = TopologyBuilder::new();
        let s0 = b.add_switch(48);
        let s1 = b.add_switch(48);
        for _ in 0..40 {
            b.add_link(s0, s1).unwrap();
        }
        b.add_host(s0).unwrap();
        b.add_host(s1).unwrap();
        let t = b.build().unwrap();
        let rt = RoutingTables::compute(&t, &UpDown::compute(&t, s0).unwrap()).unwrap();
        for hops in [rt.next_hops(s1, Phase::Up, s0), rt.up_only_next_hops(s1, s0)] {
            assert_eq!(hops.len(), 40);
            assert!(hops.windows(2).all(|w| w[0].port < w[1].port));
            assert_eq!(hops.clone().into_iter().collect::<Vec<_>>(), hops.to_vec());
        }
        assert_eq!(rt.next_hops(s0, Phase::Down, s1).len(), 40);
        let narrow = rt.next_hops(s0, Phase::Up, s0);
        assert!(narrow.is_empty() && narrow.into_iter().next().is_none());
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
