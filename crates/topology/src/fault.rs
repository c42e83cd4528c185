//! Fault plans and the live up/down status of a degrading network.
//!
//! Autonet's up*/down* routing exists precisely because irregular NOWs
//! lose links and switches at runtime and must re-orient the surviving
//! graph (§2.2 of the paper cites reconfiguration-after-failure as the
//! scheme's motivation). This module provides the *what dies and when*
//! half of that story:
//!
//! * [`FaultStatus`] — the cumulative alive/dead state of every link and
//!   switch, with host liveness derived (a host dies with its switch);
//! * [`FaultPlan`] — a deterministic schedule of [`FaultEvent`]s, either
//!   hand-written or drawn from the in-tree xoshiro PRNG with victims
//!   restricted to those whose death keeps the surviving switch graph
//!   connected (partitions are exercised deliberately, not by accident);
//! * masked re-analysis entry point: [`crate::Network::degrade`] rebuilds
//!   the spanning tree, routing tables, and reachability strings over the
//!   surviving graph, returning
//!   [`crate::TopologyError::PartitionedNetwork`] when alive hosts became
//!   unreachable.
//!
//! Everything is a pure function of `(topology, plan, seed)` — no global
//! state, no wall-clock — so fault runs stay byte-deterministic.

use crate::graph::Topology;
use crate::ids::{LinkId, NodeId, SwitchId};
use crate::rng::SmallRng;

/// What dies in one fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// One bidirectional inter-switch link goes down (both directions).
    Link(LinkId),
    /// A whole switch goes down: all its links and attached hosts die
    /// with it.
    Switch(SwitchId),
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Simulation cycle at which the component dies.
    pub at: u64,
    /// The dying component.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults, sorted by cycle.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

/// Parameters for [`FaultPlan::random`].
#[derive(Debug, Clone)]
pub struct RandomFaultConfig {
    /// Total components to kill.
    pub kills: usize,
    /// Every `switch_every`-th kill (1-based) is a whole switch; `0`
    /// means links only.
    pub switch_every: usize,
    /// Half-open cycle window `[start, end)` the kill times are spread
    /// evenly across.
    pub window: (u64, u64),
    /// PRNG seed for victim selection.
    pub seed: u64,
    /// Switches that must survive (e.g. the switches of traffic
    /// sources); they are also never isolated by link kills.
    pub protect: Vec<SwitchId>,
}

impl FaultPlan {
    /// A plan from explicit events (sorted by cycle, stably).
    pub fn scheduled(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// The scheduled events in firing order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True if nothing is scheduled to die.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Draw a connectivity-preserving plan: victims are chosen with the
    /// seeded xoshiro PRNG, but a candidate is only accepted if the
    /// surviving switch graph stays connected after its death (and every
    /// protected switch survives). Kill times are spread evenly across
    /// the window. When no safe victim of the preferred kind exists (the
    /// survivors form a tree, so every link is a bridge) the other kind
    /// is tried; only when neither qualifies does the plan come up short.
    pub fn random(topo: &Topology, cfg: &RandomFaultConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut status = FaultStatus::healthy(topo);
        let mut events = Vec::new();
        let (start, end) = cfg.window;
        let span = end.saturating_sub(start).max(1);
        for i in 0..cfg.kills {
            let want_switch = cfg.switch_every != 0 && (i + 1) % cfg.switch_every == 0;
            let kind = match status
                .pick_safe_victim(topo, &mut rng, want_switch, &cfg.protect)
                .or_else(|| status.pick_safe_victim(topo, &mut rng, !want_switch, &cfg.protect))
            {
                Some(k) => k,
                None => break,
            };
            status.kill(topo, kind);
            let at = start + span * (i as u64 + 1) / (cfg.kills as u64 + 1);
            events.push(FaultEvent { at, kind });
        }
        FaultPlan::scheduled(events)
    }
}

/// Cumulative alive/dead state of a degrading network. Host liveness is
/// derived: a host is up iff its switch is up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultStatus {
    link_up: Vec<bool>,
    switch_up: Vec<bool>,
}

impl FaultStatus {
    /// Everything alive.
    pub fn healthy(topo: &Topology) -> Self {
        FaultStatus {
            link_up: vec![true; topo.num_links()],
            switch_up: vec![true; topo.num_switches()],
        }
    }

    /// True if the link itself is up **and** both endpoint switches are.
    #[inline]
    pub fn link_up(&self, topo: &Topology, l: LinkId) -> bool {
        if !self.link_up[l.idx()] {
            return false;
        }
        let link = topo.link(l);
        self.switch_up[link.a.0.idx()] && self.switch_up[link.b.0.idx()]
    }

    /// True if the switch is up.
    #[inline]
    pub fn switch_up(&self, s: SwitchId) -> bool {
        self.switch_up[s.idx()]
    }

    /// True if the host is up (its switch is up).
    #[inline]
    pub fn host_up(&self, topo: &Topology, n: NodeId) -> bool {
        self.switch_up[topo.host_switch(n).idx()]
    }

    /// True if no component has died yet.
    pub fn is_healthy(&self) -> bool {
        self.link_up.iter().all(|&u| u) && self.switch_up.iter().all(|&u| u)
    }

    /// Apply one fault. Returns the links and switches that *newly* died
    /// (a switch kill reports the switch plus every previously-alive link
    /// touching it), in ascending id order. Repeated kills are no-ops.
    pub fn kill(&mut self, topo: &Topology, kind: FaultKind) -> (Vec<LinkId>, Vec<SwitchId>) {
        let mut dead_links = Vec::new();
        let mut dead_switches = Vec::new();
        match kind {
            FaultKind::Link(l) => {
                if self.link_up(topo, l) {
                    dead_links.push(l);
                }
                self.link_up[l.idx()] = false;
            }
            FaultKind::Switch(s) => {
                if self.switch_up[s.idx()] {
                    dead_switches.push(s);
                    self.switch_up[s.idx()] = false;
                    // Report links that were carrying traffic until this
                    // kill: structurally up with the other endpoint alive.
                    for (li, link) in topo.links() {
                        if (link.a.0 == s || link.b.0 == s) && self.link_up[li.idx()] {
                            let other = if link.a.0 == s { link.b.0 } else { link.a.0 };
                            if self.switch_up[other.idx()] {
                                dead_links.push(li);
                            }
                        }
                    }
                }
            }
        }
        (dead_links, dead_switches)
    }

    /// Alive switches in ascending id order.
    pub fn alive_switches(&self) -> impl Iterator<Item = SwitchId> + '_ {
        self.switch_up
            .iter()
            .enumerate()
            .filter(|(_, &u)| u)
            .map(|(i, _)| SwitchId(i as u16))
    }

    /// True if all alive switches are mutually reachable over alive links
    /// (vacuously true with zero or one alive switch).
    pub fn is_connected(&self, topo: &Topology) -> bool {
        let Some(start) = self.alive_switches().next() else {
            return true;
        };
        let n = topo.num_switches();
        let mut seen = vec![false; n];
        let mut stack = vec![start];
        seen[start.idx()] = true;
        while let Some(s) = stack.pop() {
            for (l, peer, _) in topo.neighbors(s) {
                if self.link_up(topo, l) && !seen[peer.idx()] {
                    seen[peer.idx()] = true;
                    stack.push(peer);
                }
            }
        }
        self.alive_switches().all(|s| seen[s.idx()])
    }

    /// Pick a victim whose death keeps the alive switch graph connected,
    /// or `None` if no candidate qualifies. Candidates are shuffled with
    /// the caller's PRNG, so selection is seeded-deterministic.
    fn pick_safe_victim(
        &self,
        topo: &Topology,
        rng: &mut SmallRng,
        want_switch: bool,
        protect: &[SwitchId],
    ) -> Option<FaultKind> {
        let mut candidates: Vec<FaultKind> = if want_switch {
            self.alive_switches()
                .filter(|s| !protect.contains(s))
                .map(FaultKind::Switch)
                .collect()
        } else {
            topo.links()
                .filter(|(l, _)| self.link_up(topo, *l))
                .map(|(l, _)| FaultKind::Link(l))
                .collect()
        };
        // Fisher–Yates with the seeded PRNG: deterministic order.
        for i in (1..candidates.len()).rev() {
            let j = rng.gen_range(0..i + 1);
            candidates.swap(i, j);
        }
        for kind in candidates {
            let mut trial = self.clone();
            trial.kill(topo, kind);
            if trial.alive_switches().next().is_none() {
                continue;
            }
            if protect.iter().any(|&s| !trial.switch_up(s)) {
                continue;
            }
            if trial.is_connected(topo) {
                return Some(kind);
            }
        }
        None
    }
}

/// What the transient-error channel did to one flit transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlitFate {
    /// The flit crossed the link intact.
    Ok,
    /// Bit errors in transit: the flit arrives but fails the receiver's
    /// CRC check.
    Corrupted,
    /// The flit vanished in transit (a dropped symbol the receiver's
    /// sequence check exposes as a gap).
    Dropped,
}

/// Seeded transient soft-error model for inter-switch links.
///
/// Unlike [`FaultPlan`] — which kills components *permanently* — this
/// models the dominant failure mode of real fabrics: individual flits
/// corrupted or dropped in transit while the link itself stays up. Each
/// flit transmission draws its fate as a **pure function** of
/// `(seed, directed link, cycle)` via the in-tree splitmix hash: no PRNG
/// stream is consumed, so the draw an engine makes is independent of how
/// many other draws happened before it. That statelessness is what makes
/// runs byte-reproducible, resumable mid-campaign, and identical between
/// the event-driven scheduler and the full-scan oracle (which evaluate
/// transmissions in different orders but at the same cycles).
///
/// Rates are expressed in parts per billion per flit transmission, so
/// integer configs round-trip exactly through canonical strings. A
/// zero-rate model never perturbs anything: engines treat it as absent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorModel {
    /// Corruption probability per flit transmission, in parts per billion.
    pub corrupt_ppb: u32,
    /// Drop probability per flit transmission, in parts per billion.
    pub drop_ppb: u32,
    /// Seed of the per-(link, cycle) fate draws.
    pub seed: u64,
}

/// Denominator of the per-billion rates.
const PPB: u64 = 1_000_000_000;

impl ErrorModel {
    /// A model applying the same rates to every link.
    pub fn uniform(corrupt_ppb: u32, drop_ppb: u32, seed: u64) -> Self {
        assert!(
            corrupt_ppb as u64 + drop_ppb as u64 <= PPB,
            "error rates exceed 1.0"
        );
        ErrorModel { corrupt_ppb, drop_ppb, seed }
    }

    /// True if no transmission can ever be damaged.
    pub fn is_zero(&self) -> bool {
        self.corrupt_ppb == 0 && self.drop_ppb == 0
    }

    /// Fate of the flit transmitted on directed link `dir_link`
    /// (`link_id * 2 + departing_side`) at `cycle`. Deterministic: the
    /// same `(seed, dir_link, cycle)` always answers the same, so the
    /// sender deciding whether to hold for a replay and the receiver
    /// checking its CRC agree without exchanging state.
    #[inline]
    pub fn fate(&self, dir_link: u32, cycle: u64) -> FlitFate {
        if self.is_zero() {
            return FlitFate::Ok;
        }
        let draw = crate::rng::hash3(self.seed, dir_link as u64, cycle) % PPB;
        if draw < self.drop_ppb as u64 {
            FlitFate::Dropped
        } else if draw < self.drop_ppb as u64 + self.corrupt_ppb as u64 {
            FlitFate::Corrupted
        } else {
            FlitFate::Ok
        }
    }

    /// Canonical one-line encoding; equal models produce equal strings.
    pub fn canonical_string(&self) -> String {
        format!(
            "err{{corrupt_ppb={},drop_ppb={},seed={:#x}}}",
            self.corrupt_ppb, self.drop_ppb, self.seed
        )
    }

    /// Stable 64-bit fingerprint (FNV-1a over [`Self::canonical_string`]);
    /// campaigns record it so journals carrying different error models
    /// refuse to merge.
    pub fn fingerprint(&self) -> u64 {
        crate::rng::fnv1a(self.canonical_string().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    fn topo() -> Topology {
        zoo::paper_example().unwrap()
    }

    #[test]
    fn healthy_status_reports_everything_up() {
        let t = topo();
        let s = FaultStatus::healthy(&t);
        assert!(s.is_healthy());
        assert!(s.is_connected(&t));
        assert_eq!(s.alive_switches().count(), t.num_switches());
        for (l, _) in t.links() {
            assert!(s.link_up(&t, l));
        }
    }

    #[test]
    fn switch_kill_takes_links_and_hosts_down() {
        let t = topo();
        let mut s = FaultStatus::healthy(&t);
        let (links, switches) = s.kill(&t, FaultKind::Switch(SwitchId(3)));
        assert_eq!(switches, vec![SwitchId(3)]);
        assert!(!links.is_empty());
        assert!(!s.switch_up(SwitchId(3)));
        for l in links {
            assert!(!s.link_up(&t, l));
        }
        for (n, h) in t.hosts() {
            assert_eq!(s.host_up(&t, n), h.switch != SwitchId(3));
        }
    }

    #[test]
    fn repeated_kill_is_noop() {
        let t = topo();
        let mut s = FaultStatus::healthy(&t);
        let first = s.kill(&t, FaultKind::Link(LinkId(0)));
        assert_eq!(first.0, vec![LinkId(0)]);
        let second = s.kill(&t, FaultKind::Link(LinkId(0)));
        assert!(second.0.is_empty() && second.1.is_empty());
    }

    #[test]
    fn random_plans_are_deterministic_and_safe() {
        let t = topo();
        let cfg = RandomFaultConfig {
            kills: 4,
            switch_every: 3,
            window: (1_000, 100_000),
            seed: 42,
            protect: vec![SwitchId(0)],
        };
        let a = FaultPlan::random(&t, &cfg);
        let b = FaultPlan::random(&t, &cfg);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.events().len(), 4);
        // Applying the whole plan keeps the alive graph connected and
        // the protected switch alive.
        let mut s = FaultStatus::healthy(&t);
        for e in a.events() {
            s.kill(&t, e.kind);
            assert!(s.is_connected(&t));
            assert!(s.switch_up(SwitchId(0)));
        }
        assert!(!s.is_healthy());
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let t = topo();
        let mk = |seed| {
            FaultPlan::random(
                &t,
                &RandomFaultConfig {
                    kills: 3,
                    switch_every: 0,
                    window: (0, 10_000),
                    seed,
                    protect: vec![],
                },
            )
        };
        // Not guaranteed in general, but with 11 links two seeds out of
        // three picks colliding completely is astronomically unlikely.
        assert_ne!(mk(1).events(), mk(2).events());
    }

    #[test]
    fn error_model_draws_are_stateless_and_seeded() {
        let m = ErrorModel::uniform(100_000_000, 50_000_000, 0xBEEF);
        // Pure function: any evaluation order gives the same answers.
        let forward: Vec<FlitFate> = (0..64).map(|c| m.fate(3, c)).collect();
        let backward: Vec<FlitFate> = (0..64).rev().map(|c| m.fate(3, c)).collect();
        assert_eq!(forward, backward.into_iter().rev().collect::<Vec<_>>());
        // At 15% combined rate, 64 draws must include both outcomes.
        assert!(forward.iter().any(|f| *f != FlitFate::Ok));
        assert!(forward.contains(&FlitFate::Ok));
        // A different seed reshuffles the pattern.
        let m2 = ErrorModel::uniform(100_000_000, 50_000_000, 0xF00D);
        let other: Vec<FlitFate> = (0..64).map(|c| m2.fate(3, c)).collect();
        assert_ne!(forward, other);
        // Directed links draw independently.
        let d2: Vec<FlitFate> = (0..64).map(|c| m.fate(4, c)).collect();
        assert_ne!(forward, d2);
    }

    #[test]
    fn zero_rate_model_is_inert() {
        let m = ErrorModel::uniform(0, 0, 0x5EED);
        assert!(m.is_zero());
        for c in 0..1000 {
            assert_eq!(m.fate(0, c), FlitFate::Ok);
        }
    }

    #[test]
    fn error_model_fingerprint_tracks_every_field() {
        let base = ErrorModel::uniform(1000, 2000, 7);
        assert_eq!(base.fingerprint(), ErrorModel::uniform(1000, 2000, 7).fingerprint());
        assert_ne!(base.fingerprint(), ErrorModel::uniform(1001, 2000, 7).fingerprint());
        assert_ne!(base.fingerprint(), ErrorModel::uniform(1000, 2001, 7).fingerprint());
        assert_ne!(base.fingerprint(), ErrorModel::uniform(1000, 2000, 8).fingerprint());
    }

    #[test]
    #[should_panic(expected = "error rates exceed 1.0")]
    fn overfull_rates_are_rejected() {
        ErrorModel::uniform(600_000_000, 500_000_000, 0);
    }

    #[test]
    fn events_are_sorted_by_cycle() {
        let plan = FaultPlan::scheduled(vec![
            FaultEvent { at: 500, kind: FaultKind::Link(LinkId(1)) },
            FaultEvent { at: 100, kind: FaultKind::Link(LinkId(0)) },
        ]);
        assert_eq!(plan.events()[0].at, 100);
        assert!(!plan.is_empty());
        assert!(FaultPlan::default().is_empty());
    }
}
