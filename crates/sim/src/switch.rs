//! Switch state: input-buffered virtual cut-through with multidestination
//! replication.
//!
//! Each input port owns a FIFO of [`Frame`]s (worms absorbed or in the
//! middle of absorption). Only the head frame of a port transmits; once its
//! header is decoded it exposes one [`Branch`] per required output. A
//! multidestination worm's branches progress **asynchronously**: each
//! branch copies flits out of the input buffer at its own pace and a buffer
//! slot is recycled only when *every* branch has copied it — the
//! asynchronous-replication alternative of Stunkel/Sivaram/Panda (ISCA-24),
//! which keeps one blocked branch from stalling its siblings and, together
//! with packet-sized buffers and up*/down*-conformant routes, keeps
//! replication deadlock-free.
//!
//! Under the event-driven engine a switch is swept only when it can act:
//! each sweep reports whether any flit moved and the earliest future
//! cycle a pending routing decode completes, and the engine parks the
//! switch otherwise. A parked switch is re-armed by a head landing, the
//! landing of a flit it waits on, its own decode timer, or a downstream
//! buffer credit coming back (see the wake-graph rules in `engine.rs` /
//! DESIGN.md §7) — the sweep outcome itself is oblivious to which cycles
//! were skipped in between.

use crate::config::SimConfig;
use crate::worm::{RouteInfo, WormCopy};
use irrnet_topology::{Network, NodeId, Phase, PortIdx, PortUse, SwitchId};
use std::collections::VecDeque;
use std::sync::Arc;

/// Where a branch's outgoing worm descriptor comes from.
///
/// Replication fan-out used to deep-clone the full `WormCopy` into every
/// branch and then clone it *again* into a fresh `Arc` at grant time.
/// Most branches forward the incoming worm unchanged (local ejects,
/// point-to-point hops, tree climbs, path legs between stops), so they
/// now just hold another reference to the incoming descriptor and reuse
/// it outright when the granted phase matches — zero copies, zero
/// allocations. Only branches that genuinely rewrite the descriptor
/// (narrowed tree masks, stripped path headers) carry a fresh copy.
#[derive(Debug)]
enum BranchSrc {
    /// Forward the incoming worm as-is (modulo a possible phase change
    /// finalized at grant).
    Inherit(Arc<WormCopy>),
    /// An edited descriptor (route/header differ from the incoming worm).
    Fresh(WormCopy),
}

/// One outgoing copy of a frame's worm.
#[derive(Debug)]
pub struct Branch {
    /// Admissible output ports with the phase the worm has after taking
    /// each — a singleton for deterministic (host / partitioned) branches,
    /// several entries for adaptive routing.
    pub candidates: Vec<(PortIdx, Phase)>,
    /// The outgoing worm descriptor, with `phase` finalized at grant.
    src: BranchSrc,
    /// Bound output port once granted.
    pub port: Option<PortIdx>,
    /// The finalized outgoing copy (set at grant).
    pub out_worm: Option<Arc<WormCopy>>,
    /// Flits of the outgoing copy already sent.
    pub sent: u32,
    /// All flits sent.
    pub done: bool,
    /// Cached `worm().header_flits` — read once per transferred flit, so
    /// kept out of the (possibly `Arc`-indirected) descriptor.
    out_hdr: u32,
    /// Cached `worm().total_flits()`.
    out_tot: u32,
}

impl Branch {
    /// A branch with a fixed output port and an edited descriptor.
    pub fn fixed(port: PortIdx, template: WormCopy) -> Self {
        let phase = template.phase;
        let (out_hdr, out_tot) = (template.header_flits, template.total_flits());
        Branch {
            candidates: vec![(port, phase)],
            src: BranchSrc::Fresh(template),
            port: None,
            out_worm: None,
            sent: 0,
            done: false,
            out_hdr,
            out_tot,
        }
    }

    /// A branch that may take any of `candidates` (adaptive), carrying an
    /// edited descriptor. When the configuration disables adaptivity the
    /// caller truncates the list.
    pub fn adaptive(mut candidates: Vec<(PortIdx, Phase)>, template: WormCopy, adaptive: bool) -> Self {
        debug_assert!(!candidates.is_empty(), "adaptive branch with no candidates");
        if !adaptive {
            candidates.truncate(1);
        }
        let (out_hdr, out_tot) = (template.header_flits, template.total_flits());
        Branch {
            candidates,
            src: BranchSrc::Fresh(template),
            port: None,
            out_worm: None,
            sent: 0,
            done: false,
            out_hdr,
            out_tot,
        }
    }

    /// A branch that forwards `worm` unchanged through a fixed port
    /// (local ejects) — shares the incoming descriptor.
    pub fn forward_fixed(port: PortIdx, worm: &Arc<WormCopy>) -> Self {
        Branch {
            candidates: vec![(port, worm.phase)],
            src: BranchSrc::Inherit(worm.clone()),
            port: None,
            out_worm: None,
            sent: 0,
            done: false,
            out_hdr: worm.header_flits,
            out_tot: worm.total_flits(),
        }
    }

    /// A branch that forwards `worm` unchanged through any of
    /// `candidates` — shares the incoming descriptor.
    pub fn forward(
        mut candidates: Vec<(PortIdx, Phase)>,
        worm: &Arc<WormCopy>,
        adaptive: bool,
    ) -> Self {
        debug_assert!(!candidates.is_empty(), "forward branch with no candidates");
        if !adaptive {
            candidates.truncate(1);
        }
        Branch {
            candidates,
            src: BranchSrc::Inherit(worm.clone()),
            port: None,
            out_worm: None,
            sent: 0,
            done: false,
            out_hdr: worm.header_flits,
            out_tot: worm.total_flits(),
        }
    }

    /// The outgoing worm descriptor (pre-grant phase).
    #[inline]
    pub fn worm(&self) -> &WormCopy {
        match &self.src {
            BranchSrc::Inherit(w) => w,
            BranchSrc::Fresh(w) => w,
        }
    }

    /// Header flits of the outgoing copy.
    #[inline]
    pub fn out_header(&self) -> u32 {
        self.out_hdr
    }

    /// Total flits of the outgoing copy.
    #[inline]
    pub fn out_total(&self) -> u32 {
        self.out_tot
    }

    /// How many flits of the *incoming* worm this branch has fully
    /// consumed (and may therefore be recycled once all branches agree).
    /// The incoming header is held until this branch finishes emitting its
    /// own (possibly shorter) header; payload then maps one-to-one.
    #[inline]
    pub fn consumed_src(&self, header_in: u32) -> u32 {
        if self.sent < self.out_header() {
            0
        } else {
            header_in + (self.sent - self.out_header())
        }
    }

    /// Bind this branch to `port`, finalizing the outgoing copy's phase.
    /// An inherited descriptor whose phase already matches is reused
    /// without allocating.
    pub fn grant(&mut self, port: PortIdx) {
        debug_assert!(self.port.is_none());
        let phase = self
            .candidates
            .iter()
            .find(|(p, _)| *p == port)
            .map(|(_, ph)| *ph)
            .expect("granted port not among candidates");
        let out = match &self.src {
            BranchSrc::Inherit(w) if w.phase == phase => w.clone(),
            BranchSrc::Inherit(w) => {
                let mut c = (**w).clone();
                c.phase = phase;
                Arc::new(c)
            }
            BranchSrc::Fresh(w) => {
                let mut c = w.clone();
                c.phase = phase;
                Arc::new(c)
            }
        };
        self.port = Some(port);
        self.out_worm = Some(out);
    }
}

/// A worm resident (fully or partially) in an input buffer.
#[derive(Debug)]
pub struct Frame {
    /// The incoming worm copy.
    pub worm: Arc<WormCopy>,
    /// Flits received so far, as last counted in: the engine counts a
    /// still-landing frame's flits off its channel's train when it
    /// consults them.
    pub received: u32,
    /// Cycle at which the last header flit landed (set once, when that
    /// flit is counted in).
    pub header_done_at: Option<u64>,
    /// Branches created by header decode (empty until decoded).
    pub branches: Vec<Branch>,
    /// True once the header has been decoded and branches exist.
    pub decoded: bool,
    /// Incoming flits recycled so far (min over branch consumption).
    pub freed: u32,
    /// Branches not yet granted an output port.
    pub ungranted: u16,
    /// Cached `worm.header_flits` — consulted on every arriving and
    /// departing flit, so kept out of the `Arc`.
    pub header_in: u32,
    /// Cached `worm.total_flits()`.
    pub total_in: u32,
    /// Cycle the head flit arrived — the watchdog's recovery mode kills
    /// the *youngest* stuck frame, which unwinds a cyclic wait from the
    /// least-invested end.
    pub born: u64,
}

impl Frame {
    /// Start absorbing a worm whose head flit just arrived.
    pub fn new(worm: Arc<WormCopy>) -> Self {
        let (header_in, total_in) = (worm.header_flits, worm.total_flits());
        Frame {
            worm,
            received: 0,
            header_done_at: None,
            branches: Vec::new(),
            decoded: false,
            freed: 0,
            ungranted: 0,
            header_in,
            total_in,
            born: 0,
        }
    }

    /// True once every branch has drained.
    pub fn all_branches_done(&self) -> bool {
        self.decoded && self.branches.iter().all(|b| b.done)
    }

    /// Recompute `freed` from branch progress; returns the newly freed
    /// flit count (to release buffer reservations).
    pub fn advance_freed(&mut self) -> u32 {
        self.advance().0
    }

    /// Single-pass combination of [`Frame::advance_freed`] and
    /// [`Frame::all_branches_done`] — the transfer path calls both per
    /// flit, and each walks the branch list.
    #[inline]
    pub fn advance(&mut self) -> (u32, bool) {
        if !self.decoded {
            return (0, false);
        }
        let header_in = self.header_in;
        let mut new_freed = u32::MAX;
        let mut all_done = true;
        for b in &self.branches {
            new_freed = new_freed.min(b.consumed_src(header_in));
            all_done &= b.done;
        }
        if self.branches.is_empty() {
            new_freed = 0;
        }
        let delta = new_freed.saturating_sub(self.freed);
        self.freed = new_freed;
        (delta, all_done)
    }
}

/// One input port: FIFO of frames.
///
/// The engine keeps every switch's ports in one flat struct-of-arrays
/// table (indexed by `switch * pmax + port`) with per-switch activity
/// bitmasks (`undecoded` / `waiting` / `owned`) packed alongside, so
/// the per-cycle decode/arbitrate/transfer passes touch only the ports
/// that can make progress — see the state layout in `engine.rs`.
#[derive(Debug, Default)]
pub struct InPort {
    /// Frames in arrival order; only the front transmits.
    pub frames: VecDeque<Frame>,
}

/// One output port: at most one branch owns it at a time.
#[derive(Debug, Default, Clone, Copy)]
pub struct OutPort {
    /// `(input port, branch index)` of the owning branch, if any.
    pub owner: Option<(u8, u16)>,
}

/// Decode a worm header at switch `here` into its outgoing branches —
/// the per-scheme replication rules of §3.2.
///
/// * Unicast / delivered copies: eject locally or route adaptively on.
/// * Tree-based: climb an up port while not covering; once covering (or
///   already descending), partition the bit-string across downward ports
///   by reachability, one copy per port with a narrowed header.
/// * Path-based: at the current stop, peel off one copy per local drop
///   and forward a header-stripped copy toward the next stop; between
///   stops, route adaptively toward the stop's switch.
pub fn decode_branches(
    net: &Network,
    cfg: &SimConfig,
    here: SwitchId,
    worm: &Arc<WormCopy>,
) -> Vec<Branch> {
    match &worm.route {
        RouteInfo::Unicast { dest } | RouteInfo::Delivered { dest } => {
            decode_point_to_point(net, cfg, here, worm, *dest)
        }
        RouteInfo::Tree { dests, plan } => {
            let descending = worm.phase == Phase::Down || plan.covered_at(here);
            if descending {
                let parts = net.reach.partition(&net.topo, here, dests);
                debug_assert!(!parts.is_empty(), "tree worm with empty partition");
                parts
                    .into_iter()
                    .map(|(port, mask)| {
                        let mut t = (**worm).clone();
                        t.phase = Phase::Down;
                        t.route = RouteInfo::Tree { dests: mask, plan: plan.clone() };
                        Branch::fixed(port, t)
                    })
                    .collect()
            } else {
                let cands: Vec<(PortIdx, Phase)> = plan
                    .up_ports(here)
                    .iter()
                    .map(|&p| (p, Phase::Up))
                    .collect();
                debug_assert!(!cands.is_empty(), "tree worm stuck in up phase at {here}");
                vec![Branch::forward(cands, worm, cfg.adaptive)]
            }
        }
        RouteInfo::Path { spec, cursor } => {
            let stop = &spec.stops[*cursor];
            if stop.switch == here {
                debug_assert!(
                    !stop.up_phase || worm.phase == Phase::Up,
                    "worm lost its up* prefix before an up-phase stop"
                );
                let mut out = Vec::with_capacity(stop.drops.len() + 1);
                for &d in &stop.drops {
                    debug_assert_eq!(net.topo.host_switch(d), here, "drop not local");
                    let mut t = (**worm).clone();
                    t.header_flits = cfg.delivered_header_flits;
                    t.route = RouteInfo::Delivered { dest: d };
                    out.push(Branch::fixed(net.topo.host_port(d), t));
                }
                if *cursor + 1 < spec.stops.len() {
                    let next_stop = &spec.stops[*cursor + 1];
                    let cands = path_leg_candidates(net, here, worm.phase, next_stop);
                    let mut t = (**worm).clone();
                    t.header_flits = cfg.path_header_flits(spec.stops.len() - (*cursor + 1));
                    t.route = RouteInfo::Path { spec: spec.clone(), cursor: *cursor + 1 };
                    out.push(Branch::adaptive(cands, t, cfg.adaptive));
                }
                debug_assert!(!out.is_empty(), "path stop with nothing to do");
                out
            } else {
                let cands = path_leg_candidates(net, here, worm.phase, stop);
                vec![Branch::forward(cands, worm, cfg.adaptive)]
            }
        }
    }
}

/// Fault-aware variant of [`decode_branches`], used once a fault plan
/// has killed something: `net` is the **degraded** network (masked
/// up*/down* reconfiguration) and `status` the live fault map. The
/// semantics are conservative truncation:
///
/// * destinations on dead hosts are pruned;
/// * tree worms partition over the *degraded* reachability — subtrees
///   severed by a fault are silently dropped (the NI retransmission
///   layer recovers them as unicasts);
/// * path worms truncate at the first unreachable stop;
/// * a worm with nothing left to do decodes to **no branches**, which
///   tells the engine to discard the frame (counted in `worms_killed`).
///
/// Unlike the healthy decoder this never panics on a missing route —
/// mid-flight reorientation can legitimately strand a worm.
pub fn decode_branches_masked(
    net: &Network,
    cfg: &SimConfig,
    here: SwitchId,
    worm: &Arc<WormCopy>,
    status: &irrnet_topology::FaultStatus,
) -> Vec<Branch> {
    match &worm.route {
        RouteInfo::Unicast { dest } | RouteInfo::Delivered { dest } => {
            if !status.host_up(&net.topo, *dest) {
                return Vec::new();
            }
            let ds = net.topo.host_switch(*dest);
            if ds == here {
                vec![Branch::forward_fixed(net.topo.host_port(*dest), worm)]
            } else {
                let hops = net.routing.next_hops(here, worm.phase, ds);
                if hops.is_empty() {
                    // The reorientation left this worm (typically already
                    // descending) with no legal continuation.
                    return Vec::new();
                }
                let cands = hops.iter().map(|h| (h.port, h.next_phase)).collect();
                vec![Branch::forward(cands, worm, cfg.adaptive)]
            }
        }
        RouteInfo::Tree { dests, plan } => {
            let mut pruned = dests.clone();
            for n in dests.iter() {
                if !status.host_up(&net.topo, n) {
                    pruned.remove(n);
                }
            }
            if pruned.is_empty() {
                return Vec::new();
            }
            let descending = worm.phase == Phase::Down || net.reach.covers(here, &pruned);
            if descending {
                // Deliverable subset under the *degraded* orientation;
                // dests whose subtree died are dropped here and later
                // recovered by retransmission.
                let take = net.reach.take_covered(here, &pruned);
                if take.is_empty() {
                    return Vec::new();
                }
                net.reach
                    .partition(&net.topo, here, take)
                    .into_iter()
                    .map(|(port, mask)| {
                        let mut t = (**worm).clone();
                        t.phase = Phase::Down;
                        t.route = RouteInfo::Tree { dests: mask, plan: plan.clone() };
                        Branch::fixed(port, t)
                    })
                    .collect()
            } else {
                // Climb along the healthy plan's up ports, minus dead
                // links; coverage is re-checked per hop on the degraded
                // reachability, so a broken apex just ends the climb.
                let cands: Vec<(PortIdx, Phase)> = plan
                    .up_ports(here)
                    .iter()
                    .filter(|&&p| port_alive(net, here, p, status))
                    .map(|&p| (p, Phase::Up))
                    .collect();
                if cands.is_empty() {
                    return Vec::new();
                }
                vec![Branch::forward(cands, worm, cfg.adaptive)]
            }
        }
        RouteInfo::Path { spec, cursor } => {
            let stop = &spec.stops[*cursor];
            if stop.switch == here {
                let mut out = Vec::with_capacity(stop.drops.len() + 1);
                for &d in &stop.drops {
                    if !status.host_up(&net.topo, d) {
                        continue;
                    }
                    let mut t = (**worm).clone();
                    t.header_flits = cfg.delivered_header_flits;
                    t.route = RouteInfo::Delivered { dest: d };
                    out.push(Branch::fixed(net.topo.host_port(d), t));
                }
                if *cursor + 1 < spec.stops.len() {
                    let next_stop = &spec.stops[*cursor + 1];
                    if let Some(cands) =
                        masked_leg_candidates(net, here, worm.phase, next_stop, status)
                    {
                        let mut t = (**worm).clone();
                        t.header_flits =
                            cfg.path_header_flits(spec.stops.len() - (*cursor + 1));
                        t.route =
                            RouteInfo::Path { spec: spec.clone(), cursor: *cursor + 1 };
                        out.push(Branch::adaptive(cands, t, cfg.adaptive));
                    }
                    // else: the path truncates here; remaining drops are
                    // recovered by retransmission.
                }
                out
            } else {
                match masked_leg_candidates(net, here, worm.phase, stop, status) {
                    Some(cands) => vec![Branch::forward(cands, worm, cfg.adaptive)],
                    None => Vec::new(),
                }
            }
        }
    }
}

/// Is `port` of `here` a live exit (host port on a live switch, or a
/// link whose far side survives)?
fn port_alive(
    net: &Network,
    here: SwitchId,
    port: PortIdx,
    status: &irrnet_topology::FaultStatus,
) -> bool {
    match net.topo.switch(here).ports[port.idx()] {
        PortUse::Open => false,
        PortUse::Host(_) => status.switch_up(here),
        PortUse::Link { link, .. } => status.link_up(&net.topo, link),
    }
}

/// Masked equivalent of [`path_leg_candidates`]: `None` when the leg is
/// broken (dead stop switch, dead up-only plane, or an unroutable
/// detour after reorientation).
fn masked_leg_candidates(
    net: &Network,
    here: SwitchId,
    phase: Phase,
    stop: &crate::worm::PathStop,
    status: &irrnet_topology::FaultStatus,
) -> Option<Vec<(PortIdx, Phase)>> {
    if !status.switch_up(stop.switch) {
        return None;
    }
    let hops = if stop.up_phase {
        if phase != Phase::Up {
            return None;
        }
        net.routing.up_only_next_hops(here, stop.switch)
    } else {
        net.routing.next_hops(here, phase, stop.switch)
    };
    if hops.is_empty() {
        return None;
    }
    let cands = if stop.up_phase {
        hops.iter().map(|h| (h.port, Phase::Up)).collect()
    } else {
        hops.iter().map(|h| (h.port, h.next_phase)).collect()
    };
    Some(cands)
}

fn decode_point_to_point(
    net: &Network,
    cfg: &SimConfig,
    here: SwitchId,
    worm: &Arc<WormCopy>,
    dest: NodeId,
) -> Vec<Branch> {
    let ds = net.topo.host_switch(dest);
    if ds == here {
        let port = net.topo.host_port(dest);
        debug_assert!(matches!(net.topo.switch(here).ports[port.idx()], PortUse::Host(n) if n == dest));
        vec![Branch::forward_fixed(port, worm)]
    } else {
        let cands = route_candidates(net, here, worm.phase, ds);
        vec![Branch::forward(cands, worm, cfg.adaptive)]
    }
}

fn route_candidates(
    net: &Network,
    here: SwitchId,
    phase: Phase,
    target: SwitchId,
) -> Vec<(PortIdx, Phase)> {
    let hops = net.routing.next_hops(here, phase, target);
    assert!(
        !hops.is_empty(),
        "no legal route from {here} (phase {phase:?}) to {target} — planner bug"
    );
    hops.iter().map(|h| (h.port, h.next_phase)).collect()
}

/// Candidates for the leg of a path worm toward `stop`. Stops planned
/// for the route's up* prefix must be reached by **up links only** so
/// the worm keeps the ability to climb afterwards; later stops use the
/// general minimal-route plane.
fn path_leg_candidates(
    net: &Network,
    here: SwitchId,
    phase: Phase,
    stop: &crate::worm::PathStop,
) -> Vec<(PortIdx, Phase)> {
    if stop.up_phase {
        debug_assert_eq!(phase, Phase::Up, "up-phase stop but worm already descending");
        let hops = net.routing.up_only_next_hops(here, stop.switch);
        assert!(
            !hops.is_empty(),
            "no up-only route from {here} to {} — planner bug",
            stop.switch
        );
        hops.iter().map(|h| (h.port, Phase::Up)).collect()
    } else {
        route_candidates(net, here, phase, stop.switch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worm::{McastId, PathStop, PathWormSpec, RouteInfo};
    use irrnet_topology::{zoo, ApexPlan, NodeMask};

    fn chain_net() -> Network {
        Network::analyze(zoo::chain(3).unwrap()).unwrap()
    }

    fn mk_worm(route: RouteInfo, header: u32) -> Arc<WormCopy> {
        Arc::new(WormCopy {
            mcast: McastId(0),
            pkt: 0,
            total_pkts: 1,
            payload_flits: 16,
            header_flits: header,
            phase: Phase::Up,
            route,
        })
    }

    #[test]
    fn unicast_local_ejects_to_host_port() {
        let net = chain_net();
        let cfg = SimConfig::paper_default();
        let w = mk_worm(RouteInfo::Unicast { dest: NodeId(0) }, 3);
        let b = decode_branches(&net, &cfg, SwitchId(0), &w);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].candidates, vec![(net.topo.host_port(NodeId(0)), Phase::Up)]);
    }

    #[test]
    fn unicast_remote_routes_toward_destination() {
        let net = chain_net();
        let cfg = SimConfig::paper_default();
        let w = mk_worm(RouteInfo::Unicast { dest: NodeId(2) }, 3);
        let b = decode_branches(&net, &cfg, SwitchId(0), &w);
        assert_eq!(b.len(), 1);
        // Only one way along the chain.
        assert_eq!(b[0].candidates.len(), 1);
    }

    #[test]
    fn tree_worm_partitions_when_covering() {
        let net = chain_net();
        let cfg = SimConfig::paper_default();
        // Root of the chain's up*/down* orientation is S0: it covers all.
        let dests = NodeMask::from_nodes([NodeId(0), NodeId(2)]);
        let plan = Arc::new(ApexPlan::compute(&net.topo, &net.updown, &net.reach, dests.clone()));
        let w = mk_worm(RouteInfo::Tree { dests: dests.clone(), plan }, cfg.tree_header_flits(3));
        let b = decode_branches(&net, &cfg, SwitchId(0), &w);
        // Two branches: host n0 locally, and down toward S1 (for n2).
        assert_eq!(b.len(), 2);
        let masks: Vec<NodeMask> = b
            .iter()
            .map(|br| match &br.worm().route {
                RouteInfo::Tree { dests, .. } => dests.clone(),
                _ => panic!("wrong route kind"),
            })
            .collect();
        let union = masks.iter().fold(NodeMask::EMPTY, |a, m| a.union(m));
        assert_eq!(union, dests);
        assert!(b.iter().all(|br| br.worm().phase == Phase::Down));
    }

    #[test]
    fn tree_worm_climbs_when_not_covering() {
        let net = chain_net();
        let cfg = SimConfig::paper_default();
        // From S2, destination n0 requires climbing toward S0.
        let dests = NodeMask::single(NodeId(0));
        let plan = Arc::new(ApexPlan::compute(&net.topo, &net.updown, &net.reach, dests.clone()));
        let w = mk_worm(RouteInfo::Tree { dests: dests.clone(), plan }, cfg.tree_header_flits(3));
        let b = decode_branches(&net, &cfg, SwitchId(2), &w);
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].candidates.len(), 1);
        assert_eq!(b[0].candidates[0].1, Phase::Up);
    }

    #[test]
    fn path_worm_drops_and_forwards_with_stripped_header() {
        let net = chain_net();
        let cfg = SimConfig::paper_default();
        let spec = Arc::new(PathWormSpec {
            stops: vec![
                PathStop { switch: SwitchId(1), drops: vec![NodeId(1)], up_phase: false },
                PathStop { switch: SwitchId(2), drops: vec![NodeId(2)], up_phase: false },
            ],
        });
        let w = mk_worm(
            RouteInfo::Path { spec: spec.clone(), cursor: 0 },
            cfg.path_header_flits(2),
        );
        let b = decode_branches(&net, &cfg, SwitchId(1), &w);
        assert_eq!(b.len(), 2);
        // Drop branch: delivered header.
        let drop = b
            .iter()
            .find(|br| matches!(br.worm().route, RouteInfo::Delivered { .. }))
            .unwrap();
        assert_eq!(drop.out_header(), cfg.delivered_header_flits);
        // Forward branch: two fewer header flits (one stop consumed).
        let fwd = b
            .iter()
            .find(|br| matches!(br.worm().route, RouteInfo::Path { cursor: 1, .. }))
            .unwrap();
        assert_eq!(fwd.out_header(), cfg.path_header_flits(1));
    }

    #[test]
    fn path_worm_routes_toward_stop_between_stops() {
        let net = chain_net();
        let cfg = SimConfig::paper_default();
        let spec = Arc::new(PathWormSpec {
            stops: vec![PathStop { switch: SwitchId(2), drops: vec![NodeId(2)], up_phase: false }],
        });
        let w = mk_worm(RouteInfo::Path { spec, cursor: 0 }, cfg.path_header_flits(1));
        let b = decode_branches(&net, &cfg, SwitchId(0), &w);
        assert_eq!(b.len(), 1);
        assert!(b[0].port.is_none());
    }

    #[test]
    fn branch_consumption_accounting() {
        let w = mk_worm(RouteInfo::Unicast { dest: NodeId(0) }, 3);
        let mut b = Branch::fixed(PortIdx(0), (*w).clone());
        assert_eq!(b.out_total(), 19);
        // Nothing consumed while the header is being emitted.
        b.sent = 2;
        assert_eq!(b.consumed_src(3), 0);
        // Header emitted: incoming header consumed.
        b.sent = 3;
        assert_eq!(b.consumed_src(3), 3);
        b.sent = 10;
        assert_eq!(b.consumed_src(3), 10);
        b.sent = 19;
        assert_eq!(b.consumed_src(3), 19);
    }

    #[test]
    fn shorter_out_header_maps_consumption_correctly() {
        // Incoming header 5 flits, outgoing 1 flit (host-delivered copy):
        // once the single out-header flit is sent, the whole incoming
        // header plus 0 payload flits are consumed.
        let w = mk_worm(RouteInfo::Delivered { dest: NodeId(0) }, 5);
        let mut b = Branch::fixed(PortIdx(0), {
            let mut t = (*w).clone();
            t.header_flits = 1;
            t
        });
        b.sent = 1;
        assert_eq!(b.consumed_src(5), 5);
        b.sent = 1 + 16;
        assert_eq!(b.consumed_src(5), 5 + 16);
    }

    #[test]
    fn frame_freed_is_min_over_branches() {
        let net = chain_net();
        let cfg = SimConfig::paper_default();
        let dests = NodeMask::from_nodes([NodeId(0), NodeId(1)]);
        let plan = Arc::new(ApexPlan::compute(&net.topo, &net.updown, &net.reach, dests.clone()));
        let w = mk_worm(RouteInfo::Tree { dests: dests.clone(), plan }, cfg.tree_header_flits(3));
        let mut f = Frame::new(w.clone());
        f.received = w.total_flits();
        f.branches = decode_branches(&net, &cfg, SwitchId(0), &w);
        f.decoded = true;
        assert_eq!(f.branches.len(), 2);
        // One branch races ahead; freed follows the slower one.
        f.branches[0].sent = f.branches[0].out_total();
        f.branches[0].done = true;
        assert_eq!(f.advance_freed(), 0);
        f.branches[1].sent = f.branches[1].out_header() + 4;
        let freed = f.advance_freed();
        assert_eq!(freed, w.header_flits + 4);
        assert!(!f.all_branches_done());
    }

    #[test]
    fn grant_finalizes_phase() {
        let net = chain_net();
        let cfg = SimConfig::paper_default();
        let w = mk_worm(RouteInfo::Unicast { dest: NodeId(2) }, 3);
        let mut b = decode_branches(&net, &cfg, SwitchId(0), &w).pop().unwrap();
        let (port, phase) = b.candidates[0];
        b.grant(port);
        assert_eq!(b.port, Some(port));
        assert_eq!(b.out_worm.as_ref().unwrap().phase, phase);
    }
}
