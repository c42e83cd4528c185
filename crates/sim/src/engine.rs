//! The discrete-event simulation engine.
//!
//! The engine advances a global clock, but it only *executes* a network
//! sweep (land arrivals, let hosts inject, let each switch decode /
//! arbitrate / transfer) on cycles where some component can possibly make
//! progress. Everything else is skipped: each switch and host either sits
//! on the hot `active_sw`/`active_tx` lists (swept every executed cycle),
//! parks with a wake entry on the event heap (self-timed work such as a
//! pending routing decode, or the landing of a flit it waits on), or
//! parks with *no* wake at all and is re-armed by whichever component
//! frees the resource it blocks on — a head landing, a returned buffer
//! credit, a fault kill, or a watchdog recovery. Between executed sweeps
//! the clock jumps straight to the earliest of: the heap front, the next
//! cycle a flit lands, the watchdog deadline, or the run limit. See
//! DESIGN.md §7 for the wake-graph rules and the equivalence argument
//! against the stepping loop (`set_full_scan` keeps that loop alive as an
//! oracle).
//!
//! Flits travel in *trains*. Every channel (a switch input or an NI) has
//! one feeder and carries one worm at a time, one flit per cycle, so the
//! flits on it form runs of consecutive landing cycles: a send extends
//! the channel's last run, and the calendar only counts how many flits
//! land per cycle (the clock executes each of those cycles, exactly as
//! when every flit was an arrival of its own). A body flit does no
//! landing work. A frame's `received` and `header_done_at` and an NI's
//! reassembly progress are read off the train when next consulted; only
//! a head landing at a switch input (a new frame) and a tail landing at
//! an NI (a finished packet) are events, handled in send order.
//!
//! Faults, detected link errors and watchdog recoveries kill worm copies
//! mid-flight. Each channel has one drop state (live, purging or dead),
//! and the count of channels that are not live gates every fault check
//! on the landing path. Every copy that dies at a switch goes through
//! one kill core, which severs the copies it fed downstream (DESIGN.md
//! §8).
//!
//! Determinism: a run is a pure function of (network, config, protocol,
//! schedule). Arbitration uses rotating round-robin priorities (caught up
//! over skipped cycles so parked switches arbitrate exactly as if they
//! had been swept); all queues are FIFO; there is no wall-clock or
//! unseeded randomness anywhere.

use crate::config::{Cycle, LinkRetryPolicy, RetxPolicy, SimConfig};
use crate::error::{BranchSnapshot, DeadlockDiagnostics, SimError, StuckFrame, TxBacklog};
use crate::host::{DmaTask, HostTask, NiTask, Resource};
use crate::protocol::Protocol;
use crate::stats::SimStats;
use crate::switch::{decode_branches, decode_branches_masked, Frame, InPort, OutPort};
use crate::trace::{TraceEvent, TraceLog};
use crate::worm::{McastId, RouteInfo, SendSpec, WormCopy};
use irrnet_topology::{
    ErrorModel, FaultEvent, FaultPlan, FaultStatus, FlitFate, LinkId, Network, NodeId,
    NodeMask, Phase, PortIdx, PortUse, SwitchId,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// A run of flits landing on one channel in consecutive cycles.
///
/// A channel has one feeder, carries one worm at a time in FIFO order
/// and takes at most one flit per cycle, so the flits on it that its
/// receiver has not yet counted form a short queue of runs (its
/// *train*). A body flit sent right behind the previous one extends the
/// last run; a head flit opens a new run that carries its worm. Body
/// flits have no landing work of their own: a frame's `received`, its
/// `header_done_at` and an NI's reassembly progress are read off the
/// train when next consulted (see [`take_landed`]).
#[derive(Debug, Default)]
struct Run {
    /// Landing cycle of the run's first flit.
    at: Cycle,
    /// Flits in the run.
    n: u32,
    /// The worm whose head flit opens the run, if one does.
    head: Option<Arc<WormCopy>>,
    /// That worm was severed while its head was on the wire: the head is
    /// dropped when it lands, and the channel purges the rest of the worm.
    cut: bool,
}

/// A channel's train: its runs in landing order. The run that sends
/// extend lives inline, so a worm streaming onto an idle channel — the
/// common case — touches one cache line per flit and no heap; older
/// runs (behind a stall or ahead of a new head) queue in `older`.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Train {
    /// Runs before `last`, oldest first.
    older: VecDeque<Run>,
    /// The newest run; `n == 0` when the train is empty.
    last: Run,
    /// For a switch input: the flit (1-based, of the back frame's worm)
    /// that its parked switch waits on and that has not been sent yet
    /// (0 = none). Sending it schedules the switch's landing wake.
    want: u32,
}

impl Train {
    /// Add a flit landing at `at` (after every flit already in the
    /// train): a body right behind the last run extends it, anything
    /// else opens a run.
    #[inline]
    fn push(&mut self, at: Cycle, head: Option<Arc<WormCopy>>) {
        if head.is_none() && self.last.n > 0 && self.last.at + u64::from(self.last.n) == at {
            self.last.n += 1;
        } else if self.last.n == 0 {
            self.last = Run { at, n: 1, head, cut: false };
        } else {
            let prev = std::mem::replace(&mut self.last, Run { at, n: 1, head, cut: false });
            self.older.push_back(prev);
        }
    }

    /// The oldest run.
    #[inline]
    fn front(&self) -> Option<&Run> {
        match self.older.front() {
            Some(r) => Some(r),
            None => (self.last.n > 0).then_some(&self.last),
        }
    }

    /// The oldest run, mutably.
    #[inline]
    fn front_mut(&mut self) -> Option<&mut Run> {
        if self.older.is_empty() {
            (self.last.n > 0).then_some(&mut self.last)
        } else {
            self.older.front_mut()
        }
    }

    /// Drop the oldest run.
    #[inline]
    fn pop_front(&mut self) {
        if self.older.pop_front().is_none() {
            self.last = Run::default();
        }
    }

    /// The runs, oldest first.
    fn iter(&self) -> impl Iterator<Item = &Run> {
        self.older.iter().chain((self.last.n > 0).then_some(&self.last))
    }

    /// The runs, oldest first, mutably.
    fn iter_mut(&mut self) -> impl Iterator<Item = &mut Run> {
        self.older.iter_mut().chain((self.last.n > 0).then_some(&mut self.last))
    }
}

/// One cycle's slot of the landing calendar.
#[derive(Debug, Default)]
struct Slot {
    /// Flits landing in the slot's cycle, over all channels: the clock
    /// executes every cycle with a landing.
    flits: u32,
    /// The channels whose landing has work of its own, in send order: a
    /// head flit at a switch input opens a frame, a tail flit at an NI
    /// finishes a packet.
    events: Vec<u32>,
}

/// Take the body flits of `train` that landed by `upto`, stopping at
/// the next head (a head lands through its own calendar event). Returns
/// how many, and the landing cycle of the `nth` of them (1-based) when
/// at least `nth` landed.
fn take_landed(train: &mut Train, upto: Cycle, nth: u32) -> (u32, Option<Cycle>) {
    let mut k = 0u32;
    let mut hit = None;
    while let Some(r) = train.front_mut() {
        if r.at > upto || r.head.is_some() {
            break;
        }
        let m = (upto - r.at + 1).min(u64::from(r.n)) as u32;
        if nth > k && nth <= k + m {
            hit = Some(r.at + u64::from(nth - k - 1));
        }
        k += m;
        if m == r.n {
            train.pop_front();
        } else {
            r.at += u64::from(m);
            r.n -= m;
            break;
        }
    }
    (k, hit)
}

/// Count the body flits of `train` landed by `upto` into `f`, the
/// channel's back frame, setting `header_done_at` if one of them
/// completes the header.
fn land_into(train: &mut Train, f: &mut Frame, upto: Cycle) {
    let (k, hd) = take_landed(train, upto, f.header_in.saturating_sub(f.received));
    f.received += k;
    if hd.is_some() {
        f.header_done_at = hd;
    }
    debug_assert!(f.received <= f.total_in);
}

/// Whether flit `flit` (1-based) of `f`, the channel's back frame and
/// already decoded, has landed by `t`. Counts in what of the train's
/// first run has landed (sibling branches then read `received`
/// directly), and the rest of the train only when that run landed whole.
#[inline]
fn landed_by(train: &mut Train, f: &mut Frame, flit: u32, t: Cycle) -> bool {
    debug_assert!(f.header_done_at.is_some());
    match train.front_mut() {
        Some(r) if r.head.is_none() && r.at <= t => {
            let m = (t - r.at + 1).min(u64::from(r.n)) as u32;
            f.received += m;
            if m == r.n {
                train.pop_front();
                if flit > f.received {
                    land_into(train, f, t);
                }
            } else {
                r.at += u64::from(m);
                r.n -= m;
            }
            debug_assert!(f.received <= f.total_in);
            flit <= f.received
        }
        _ => false,
    }
}

/// How many body flits of `train` landed by `upto` ahead of its next
/// head (what [`take_landed`] would take), without taking them.
fn landed_count(train: &Train, upto: Cycle) -> u32 {
    let mut k = 0;
    for r in train.iter() {
        if r.at > upto || r.head.is_some() {
            break;
        }
        let m = (upto - r.at + 1).min(u64::from(r.n)) as u32;
        k += m;
        if m < r.n {
            break;
        }
    }
    k
}

/// Landing cycle of the `nth` (1-based) flit in `train` ahead of its
/// next head, if that flit has been sent.
fn nth_landing(train: &Train, nth: u32) -> Option<Cycle> {
    let mut left = nth;
    for r in train.iter() {
        if r.head.is_some() {
            return None;
        }
        if left <= r.n {
            return Some(r.at + u64::from(left - 1));
        }
        left -= r.n;
    }
    None
}

/// Host-side events driven by the heap. (Heap entries are ordered by
/// `(cycle, seq)` with `seq` unique, so the `Ord` on `Event` is never
/// consulted for ties — adding variants cannot perturb replay order.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    Launch(McastId),
    HostDone(u16),
    NiDone(u16),
    BusDone(u16),
    /// Apply the fault plan's due events (kill links/switches, truncate
    /// worm chains, reconfigure routing).
    Fault,
    /// Delivery-timeout check for the multicast at this dense index.
    RetxCheck(u32),
    /// Re-list a parked switch for the sweep at this cycle (self-timed
    /// work, e.g. a routing decode whose delay elapses then). Wakes are
    /// bookkeeping, not progress: they never feed the watchdog, and a
    /// stale one (the switch drained meanwhile) is a no-op.
    SwitchWake(u16),
    /// Re-list a parked host's injection side (a buffer credit freed
    /// after the host phase of the current sweep had already run).
    HostWake(u16),
}

impl Event {
    /// Whether this is a `SwitchWake` or `HostWake`.
    fn is_wake(self) -> bool {
        matches!(self, Event::SwitchWake(_) | Event::HostWake(_))
    }
}

/// Which end of an input-port frame queue to kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameSlot {
    Front,
    Back,
}

/// What becomes of the flits landing on a channel (a switch input, or an
/// NI). Only the fault path moves a channel off `Live`; healthy runs read
/// no more of it than the count of channels that are not live.
#[derive(Debug, Clone)]
enum DropState {
    /// Flits land normally.
    Live,
    /// The channel's feeder keeps streaming a worm cut off downstream of
    /// it after its head landed: the body flits landing are dropped until
    /// the next head lands, which makes the channel live again (unless
    /// that head is cut too, see [`Run::cut`]).
    Purge,
    /// The channel's link or switch (for an NI, its host's switch) died:
    /// every flit landing is dropped.
    Dead,
}

/// Who streams into a switch input channel. Each channel has at most one
/// feeder — a host's injection link or one upstream switch output — so a
/// freed buffer credit knows exactly which parked component to re-arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Feeder {
    None,
    Host(u16),
    Switch(u16),
}

/// Outcome of one switch sweep: whether any flit moved, the earliest
/// future cycle a pending decode or retry hold expires (the switch's
/// self-timed work), and, for a sweep that moved nothing, the earliest
/// future cycle a flit it waits on lands. Everything else a parked switch
/// waits on is re-armed externally by head landings, credits, or kills.
struct SweepOut {
    moved: bool,
    next_decode: Option<Cycle>,
    next_landing: Option<Cycle>,
}

/// Runtime state of an installed fault plan.
struct FaultRt {
    /// Fault events sorted by cycle.
    plan: Vec<FaultEvent>,
    /// Next un-applied event.
    next: usize,
    /// Live up/down status of every link and switch.
    status: FaultStatus,
    /// Reconfigured network over the survivors (rebuilt after each fault
    /// batch); `None` until the first kill.
    degraded: Option<Box<Network>>,
}

/// Runtime state of NI retransmission.
struct RetxRt {
    policy: RetxPolicy,
    /// Retry rounds used so far, per dense multicast index.
    attempts: Vec<u32>,
    /// Source node (first sender) per dense multicast index; the NI that
    /// owns the delivery timer and the retransmit queue.
    source: Vec<Option<NodeId>>,
    /// Destinations already retransmitted to, per dense multicast index:
    /// a first delivery landing on one of these is an end-to-end
    /// recovery (the network below failed and the NI layer covered it).
    resent: Vec<NodeMask>,
}

/// Per-multicast static description.
#[derive(Debug, Clone)]
struct McastInfo {
    dests: NodeMask,
    message_flits: u32,
    total_pkts: u32,
}

/// The simulator. See the module docs for the execution model.
pub struct Simulator<'n, P: Protocol> {
    net: &'n Network,
    cfg: SimConfig,
    /// The scheme logic driving this run (exposed for post-run inspection).
    pub protocol: P,
    now: Cycle,
    // Per-switch hot state, struct-of-arrays: the port tables are flat
    // at the global port index (`sw * pmax + port`, same stride as
    // `in_reserved`/`out_chan`), the scalars and activity masks are one
    // densely packed word per switch. Giant fabrics touch a handful of
    // contiguous cache lines per sweep instead of chasing one heap
    // allocation per switch.
    /// Input ports of every switch (global port index).
    sw_in: Vec<InPort>,
    /// Output ports of every switch (global port index).
    sw_out: Vec<OutPort>,
    /// Port count per switch (ports beyond it are dead stride padding).
    sw_nports: Vec<u8>,
    /// Rotating arbitration priority per switch.
    sw_rr: Vec<u8>,
    /// Bit `p` set iff input `p`'s front frame awaits header decode.
    sw_undecoded: Vec<u32>,
    /// Bit `p` set iff input `p`'s front frame has ungranted branches.
    sw_waiting: Vec<u32>,
    /// Bit `o` set iff output `o` has an owning branch.
    sw_owned: Vec<u32>,
    // Per-node host state, struct-of-arrays (indexed by node id).
    /// Host processor per node.
    host_cpu: Vec<Resource<HostTask>>,
    /// NI processor per node.
    host_ni: Vec<Resource<NiTask>>,
    /// I/O bus per node.
    host_bus: Vec<Resource<DmaTask>>,
    /// Worm copies ready for injection, in order, per node.
    tx_queue: Vec<std::collections::VecDeque<Arc<WormCopy>>>,
    /// Flits of the front `tx_queue` worm already put on the wire.
    tx_sent: Vec<u32>,
    /// Total flits of the front `tx_queue` worm (cached when its head is
    /// injected; meaningful only while `tx_sent > 0`).
    tx_total: Vec<u32>,
    /// Worm being assembled off the wire per node:
    /// `(copy, flits so far, total flits)`.
    rx_current: Vec<Option<(Arc<WormCopy>, u32, u32)>>,
    /// Packets in NI receive memory (completed on the wire, not yet
    /// fully processed) — the NI-buffering cost of §3.3.
    ni_rx_pending: Vec<u32>,
    /// Per-node, per-multicast count of packets DMA'd to host memory,
    /// indexed by the dense multicast index and grown lazily.
    reassembly: Vec<Vec<u32>>,
    /// Reserved flit slots per switch input port (global index).
    in_reserved: Vec<u32>,
    /// Directed-link stat index behind each switch output port
    /// (`link_id * 2 + side`); `None` for host/open ports.
    out_dir_link: Vec<Option<u32>>,
    /// Channel behind each switch output port (global index): its
    /// index in `trains` (a switch input, or `nin + node` for a host
    /// port); `u32::MAX` for open ports.
    out_chan: Vec<u32>,
    /// Channel (switch input global index) of each host's injection link.
    inject_chan: Vec<u32>,
    /// Widest switch (ports) — stride for global port indices.
    pmax: usize,
    /// Landing calendar, indexed by `cycle % calendar.len()`: per cycle,
    /// how many flits land and which landings are events.
    calendar: Vec<Slot>,
    /// Calendar slot of the cycle being executed (`now %
    /// calendar.len()`), refreshed once per `network_cycle` so per-flit
    /// sends index the calendar with an add-and-wrap instead of a 64-bit
    /// division.
    cur_slot: usize,
    /// Per channel, the flits sent on it that its receiver has not yet
    /// counted: switch inputs at their global port index, then NI `n`
    /// at `nin + n`.
    trains: Vec<Train>,
    /// Number of switch input channels (`switches * pmax`): the first
    /// NI channel in `trains`.
    nin: usize,
    /// Flits landing at or before this cycle have arrived: the cycle of
    /// the last arrival phase.
    landed: Cycle,
    heap: BinaryHeap<Reverse<(Cycle, u64, Event)>>,
    seq: u64,
    stats: SimStats,
    /// Static multicast descriptions, indexed by the dense id interned
    /// in `stats.mcasts` (the id→index map is consulted only at event
    /// boundaries).
    mcasts: Vec<McastInfo>,
    /// Frames resident per switch, maintained incrementally (replaces
    /// the per-cycle `frame_count()` port scan).
    sw_frames: Vec<u32>,
    /// Switches with resident frames, ascending (full-scan visit order).
    active_sw: Vec<u16>,
    /// Membership flags for `active_sw`.
    sw_listed: Vec<bool>,
    /// Hosts with a non-empty injection queue, ascending.
    active_tx: Vec<u16>,
    /// Membership flags for `active_tx`.
    tx_listed: Vec<bool>,
    /// Per switch: the cycle its rotating arbitration priority (`rr`) is
    /// synced to. The stepping loop advances `rr` once per cycle a switch
    /// holds frames; a parked switch catches up by `now - sw_rr_base` on
    /// its next sweep, so skipped cycles leave arbitration byte-identical.
    sw_rr_base: Vec<Cycle>,
    /// Pending [`Event::SwitchWake`] cycle per switch (`u64::MAX` =
    /// none) — dedups heap entries; a popped entry clears it.
    sw_wake_at: Vec<Cycle>,
    /// Pending landing wake per switch (`u64::MAX` = none): a
    /// `SwitchWake` at the cycle a flit it waits on lands. Kept apart
    /// from `sw_wake_at` so the timer wakes stay exactly as they would
    /// be without landing wakes.
    sw_land_at: Vec<Cycle>,
    /// Pending [`Event::HostWake`] cycle per host (`u64::MAX` = none).
    tx_wake_at: Vec<Cycle>,
    /// Feeder of each switch input channel (global index), precomputed
    /// from the wiring: who to re-arm when a buffer credit frees.
    feeder_in: Vec<Feeder>,
    /// Cursor into `active_sw` while the switch phase iterates it
    /// (`usize::MAX` outside): lets a credit freed mid-phase insert a
    /// not-yet-swept feeder *into the live sweep* so it still runs this
    /// cycle, exactly as the stepping loop would have swept it.
    sw_cursor: usize,
    /// True between a cycle's sweep and the next clock advance: a kill
    /// landing then (watchdog recovery) counts the current cycle toward
    /// the arbitration catch-up, one landing before the sweep (a fault
    /// event) does not. See [`Self::flush_rr`].
    post_sweep: bool,
    /// Visit every component each cycle instead of using the active
    /// lists and wake heap (regression-testing oracle: this is the old
    /// stepping loop; same results, slower).
    full_scan: bool,
    wire_flits: u64,
    frames_alive: u64,
    tx_pending: u64,
    last_progress: Cycle,
    trace: Option<TraceLog>,
    /// Installed fault plan, if any. A fault it applies marks channels
    /// dead in `drop`; until then the run is byte-identical to one
    /// without it.
    faults: Option<FaultRt>,
    /// NI retransmission, if enabled.
    retx: Option<RetxRt>,
    /// Installed transient-error model, if any (`None` or zero-rate
    /// keeps the per-transfer fate draw off the hot path entirely —
    /// error-free runs stay byte-identical to builds without it).
    errors: Option<ErrorModel>,
    /// Switch-side link-level retry, if enabled (only meaningful with an
    /// error model installed).
    link_retry: Option<LinkRetryPolicy>,
    /// Per output port (global index): cycle before which the output is
    /// held for a pending replay (0 = not held). Allocated lazily by
    /// [`Self::enable_link_retry`].
    out_retry_at: Vec<Cycle>,
    /// Per output port: consecutive failed transmissions of the current
    /// flit (escalates past the retry budget).
    out_retry_cnt: Vec<u32>,
    /// Worm copies damaged on a link this sweep with no link-level retry
    /// to save them: `(downstream channel, worm)` pairs severed at the end
    /// of the sweep (the port tables are detached mid-sweep, so the
    /// purge/kill machinery cannot run inline).
    pending_link_errors: Vec<(usize, Arc<WormCopy>)>,
    /// Frames whose output exhausted its link-retry budget this sweep:
    /// `(switch, input port, worm)` killed at the end of the sweep. The
    /// worm identifies the frame so a cascade from an earlier kill in
    /// the same batch can't redirect the kill onto an innocent frame.
    pending_retry_kills: Vec<(u16, u8, Arc<WormCopy>)>,
    /// Per channel (indexed like `trains`): whether the flits landing on
    /// it are dropped.
    drop: Vec<DropState>,
    /// Channels whose drop state is not `Live`: the one gate on the
    /// landing path's fault checks (zero on every healthy run).
    non_live: u32,
    /// Watchdog recoveries spent (bounded by `watchdog_recovery_limit`).
    recoveries_used: u32,
    /// Error raised mid-cycle (e.g. a partitioning fault) and surfaced
    /// at the next `run_until` iteration boundary.
    pending_fatal: Option<SimError>,
    /// Invariant auditor (see [`crate::audit`]); `None` keeps every
    /// audit check off the per-cycle path.
    audit: Option<Box<crate::audit::Auditor>>,
    /// Cumulative buffer flits recycled by branch progress (the freed
    /// counterpart of `flits_dropped`, needed to close the auditor's
    /// flit-conservation equation; an unconditional add, so healthy runs
    /// pay nothing branchy for it).
    audit_freed: u64,
    /// Flits counted in `flits_dropped` that had already been counted
    /// ejected (a fault re-drops a partially reassembled NI worm); the
    /// conservation equation must not double-count them.
    audit_redropped: u64,
}

impl<'n, P: Protocol> Simulator<'n, P> {
    /// Build a simulator over an analyzed network.
    pub fn new(net: &'n Network, cfg: SimConfig, protocol: P) -> Result<Self, SimError> {
        cfg.validate().map_err(SimError::BadConfig)?;
        let pmax = net
            .topo
            .switches()
            .map(|(_, s)| s.num_ports())
            .max()
            .unwrap_or(0);
        if pmax > 32 {
            return Err(SimError::BadConfig(format!(
                "switch degree {pmax} exceeds the 32-port activity-mask limit"
            )));
        }
        let ns = net.topo.num_switches();
        let nh = net.topo.num_nodes();
        let mut out_chan = vec![u32::MAX; ns * pmax];
        let mut out_dir_link = vec![None; ns * pmax];
        for (sid, sw) in net.topo.switches() {
            for (pi, pu) in sw.ports.iter().enumerate() {
                out_chan[sid.idx() * pmax + pi] = match pu {
                    PortUse::Open => u32::MAX,
                    PortUse::Host(n) => (ns * pmax + n.idx()) as u32,
                    PortUse::Link { link, side } => {
                        let l = net.topo.link(*link);
                        let (ps, pp) = l.end(1 - side);
                        out_dir_link[sid.idx() * pmax + pi] =
                            Some(link.0 * 2 + *side as u32);
                        (ps.idx() * pmax + pp.idx()) as u32
                    }
                };
            }
        }
        let inject_chan: Vec<u32> = net
            .topo
            .hosts()
            .map(|(_, h)| (h.switch.idx() * pmax + h.port.idx()) as u32)
            .collect();
        let slots = (cfg.crossbar_delay + cfg.link_delay + 2) as usize;
        let mut feeder_in = vec![Feeder::None; ns * pmax];
        for (g, &ch) in out_chan.iter().enumerate() {
            if (ch as usize) < ns * pmax {
                feeder_in[ch as usize] = Feeder::Switch((g / pmax) as u16);
            }
        }
        for (n, &g) in inject_chan.iter().enumerate() {
            feeder_in[g as usize] = Feeder::Host(n as u16);
        }
        Ok(Simulator {
            net,
            cfg,
            protocol,
            now: 0,
            sw_in: (0..ns * pmax).map(|_| InPort::default()).collect(),
            sw_out: vec![OutPort::default(); ns * pmax],
            sw_nports: net.topo.switches().map(|(_, s)| s.num_ports() as u8).collect(),
            sw_rr: vec![0; ns],
            sw_undecoded: vec![0; ns],
            sw_waiting: vec![0; ns],
            sw_owned: vec![0; ns],
            host_cpu: (0..nh).map(|_| Resource::default()).collect(),
            host_ni: (0..nh).map(|_| Resource::default()).collect(),
            host_bus: (0..nh).map(|_| Resource::default()).collect(),
            tx_queue: vec![std::collections::VecDeque::new(); nh],
            tx_sent: vec![0; nh],
            tx_total: vec![0; nh],
            rx_current: vec![None; nh],
            ni_rx_pending: vec![0; nh],
            reassembly: vec![Vec::new(); nh],
            in_reserved: vec![0; ns * pmax],
            out_dir_link,
            out_chan,
            inject_chan,
            pmax,
            calendar: (0..slots).map(|_| Slot::default()).collect(),
            cur_slot: 0,
            trains: (0..ns * pmax + nh).map(|_| Train::default()).collect(),
            nin: ns * pmax,
            landed: 0,
            heap: BinaryHeap::new(),
            seq: 0,
            stats: SimStats {
                link_flits_per_dir: vec![0; net.topo.num_links() * 2],
                ..SimStats::default()
            },
            mcasts: Vec::new(),
            sw_frames: vec![0; ns],
            active_sw: Vec::with_capacity(ns),
            sw_listed: vec![false; ns],
            active_tx: Vec::with_capacity(nh),
            tx_listed: vec![false; nh],
            sw_rr_base: vec![0; ns],
            sw_wake_at: vec![u64::MAX; ns],
            sw_land_at: vec![u64::MAX; ns],
            tx_wake_at: vec![u64::MAX; nh],
            feeder_in,
            sw_cursor: usize::MAX,
            post_sweep: false,
            full_scan: false,
            wire_flits: 0,
            frames_alive: 0,
            tx_pending: 0,
            last_progress: 0,
            trace: None,
            faults: None,
            retx: None,
            drop: vec![DropState::Live; ns * pmax + nh],
            non_live: 0,
            recoveries_used: 0,
            pending_fatal: None,
            audit: crate::audit::default_enabled().then(Box::default),
            audit_freed: 0,
            audit_redropped: 0,
            errors: None,
            link_retry: None,
            out_retry_at: Vec::new(),
            out_retry_cnt: Vec::new(),
            pending_link_errors: Vec::new(),
            pending_retry_kills: Vec::new(),
        })
    }

    /// Install a fault plan. At each event's cycle the named link or
    /// switch dies: resident worm frames there are discarded, in-flight
    /// worm chains crossing it are truncated and drained, and routing is
    /// reconfigured (up*/down* recomputed over the survivors). A fault
    /// that partitions the surviving hosts ends the run with
    /// [`SimError::Partitioned`]. An empty plan is a no-op — the run
    /// stays byte-identical to one without this call. Call before
    /// running.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        let mut events = plan.events().to_vec();
        if events.is_empty() {
            return;
        }
        events.sort_by_key(|e| e.at);
        let first = events[0].at.max(self.now);
        self.faults = Some(FaultRt {
            plan: events,
            next: 0,
            status: FaultStatus::healthy(&self.net.topo),
            degraded: None,
        });
        self.schedule(first, Event::Fault);
    }

    /// Enable per-multicast delivery timeouts at the source NI: a
    /// multicast with undelivered (and still-alive) destinations when its
    /// timer expires is re-sent to exactly those destinations as
    /// unicasts, up to [`RetxPolicy::max_retries`] rounds with seeded
    /// exponential backoff. Call before running.
    pub fn enable_retransmission(&mut self, policy: RetxPolicy) {
        self.retx =
            Some(RetxRt { policy, attempts: Vec::new(), source: Vec::new(), resent: Vec::new() });
    }

    /// Install a transient-error model: every inter-switch flit transfer
    /// draws a seeded, stateless fate (see [`ErrorModel::fate`]) and may
    /// be corrupted or dropped on the wire. A zero-rate model is a no-op
    /// — the run stays byte-identical to one without this call. Host
    /// injection and NI delivery hops are error-free by construction
    /// (the model covers links, not endpoints). Call before running.
    pub fn install_errors(&mut self, model: &ErrorModel) {
        if model.is_zero() {
            return;
        }
        self.errors = Some(model.clone());
    }

    /// Enable switch-side link-level retry: a damaged transfer is held
    /// back (go-back-k replay from the sender's frame, which already
    /// buffers the worm), re-sent after [`LinkRetryPolicy::turnaround`]
    /// cycles, and escalated to a worm kill after
    /// [`LinkRetryPolicy::max_retries`] consecutive failures. Without an
    /// error model installed this is inert. Call before running.
    pub fn enable_link_retry(&mut self, policy: LinkRetryPolicy) {
        let slots = self.net.topo.num_switches() * self.pmax;
        self.out_retry_at = vec![0; slots];
        self.out_retry_cnt = vec![0; slots];
        self.link_retry = Some(policy);
    }

    /// Saturate the reservation counter of one switch input buffer so it
    /// accepts nothing — a test-only lever to force a flow-control
    /// stall/deadlock (mirrors [`Self::set_full_scan`]).
    #[doc(hidden)]
    pub fn jam_input(&mut self, sw: SwitchId, port: PortIdx) {
        let g = self.gidx(sw.0, port.0);
        self.in_reserved[g] = self.cfg.input_buffer_flits;
        // The reservation counter now deliberately disagrees with ground
        // truth; auditing a rigged simulator would only report the rig.
        self.audit = None;
    }

    /// Turn on per-sweep invariant auditing for this simulator (see
    /// [`crate::audit`]). A failed check ends the run with
    /// [`SimError::InvariantViolation`]. Call before running.
    pub fn enable_audit(&mut self) {
        if self.audit.is_none() {
            self.audit = Some(Box::default());
        }
    }

    /// Overwrite one switch input's reservation counter with an
    /// arbitrary value — a test-only lever to seed a buffer-occupancy
    /// violation for the auditor (mirrors [`Self::jam_input`], which
    /// stays within the legal bound).
    #[doc(hidden)]
    pub fn rig_reserved(&mut self, sw: SwitchId, port: PortIdx, flits: u32) {
        let g = self.gidx(sw.0, port.0);
        self.in_reserved[g] = flits;
    }

    /// Land the earliest train run that has not started landing one
    /// cycle early, returning the cycle the calendar still holds for it
    /// — a test-only lever emulating an off-by-one train that the clock
    /// jumps past. Every audit *before* that cycle still passes; only the
    /// trailing-edge audit of a jump landing on it can observe the
    /// skipped landing.
    #[doc(hidden)]
    pub fn backdate_next_arrival(&mut self) -> Option<Cycle> {
        let landed = self.landed;
        let run = self
            .trains
            .iter_mut()
            .flat_map(Train::iter_mut)
            .filter(|r| r.at > landed)
            .min_by_key(|r| r.at)?;
        let due = run.at;
        run.at -= 1;
        Some(due)
    }

    /// Start recording a [`TraceLog`] of multicast lifecycle events.
    pub fn enable_trace(&mut self) {
        self.trace = Some(TraceLog::default());
    }

    /// Stop tracing and return the log recorded so far.
    pub fn take_trace(&mut self) -> Option<TraceLog> {
        self.trace.take()
    }

    #[inline]
    fn emit(&mut self, ev: TraceEvent) {
        if let Some(t) = &mut self.trace {
            t.push(self.now, ev);
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Register a multicast to launch at `at`: the protocol's
    /// [`Protocol::on_launch`] will be invoked then.
    pub fn schedule_multicast(
        &mut self,
        at: Cycle,
        id: McastId,
        dests: NodeMask,
        message_flits: u32,
    ) {
        assert!(at >= self.now, "launch in the past");
        self.register_multicast(id, dests, message_flits);
        self.schedule(at, Event::Launch(id));
    }

    /// Register a multicast **without** a timed launch: it starts when
    /// the protocol first sends for it (a *dependent* message, e.g. one
    /// hop of a reduction tree that fires only after its children
    /// arrive). Its latency is measured from that first send.
    pub fn register_multicast(&mut self, id: McastId, dests: NodeMask, message_flits: u32) {
        let (idx, new) = self.stats.mcasts.intern(id);
        assert!(new, "duplicate multicast id");
        debug_assert_eq!(idx as usize, self.mcasts.len());
        self.mcasts.push(McastInfo {
            dests,
            message_flits,
            total_pkts: self.cfg.packets_for(message_flits),
        });
    }

    /// Dense index + static description of a registered multicast.
    #[inline]
    fn minfo(&self, id: McastId) -> (u32, McastInfo) {
        let idx = self
            .stats
            .mcasts
            .idx_of(id)
            .expect("send for unregistered multicast");
        (idx, self.mcasts[idx as usize].clone())
    }

    /// Visit every switch and host each cycle instead of only the
    /// active ones. Results are identical by construction; this exists
    /// so tests can assert that equivalence. Set it before running.
    #[doc(hidden)]
    pub fn set_full_scan(&mut self, on: bool) {
        self.full_scan = on;
    }

    /// Run until `limit` or until all work drains, whichever is first.
    pub fn run_until(&mut self, limit: Cycle) -> Result<(), SimError> {
        while self.now < limit {
            // Drain events due now (processing may enqueue more due now).
            let mut processed_any = false;
            while let Some(Reverse((c, _, _))) = self.heap.peek().copied() {
                if c > self.now {
                    break;
                }
                let Reverse((_, _, ev)) = self.heap.pop().unwrap();
                // Wakes only re-list components; they are bookkeeping, not
                // progress, so they don't feed the watchdog.
                processed_any |= !ev.is_wake();
                self.process_event(c, ev);
            }
            if processed_any {
                self.last_progress = self.now;
            }
            if let Some(e) = self.pending_fatal.take() {
                return Err(e);
            }
            if !self.network_active() {
                // Quiescent: nothing is in flight, buffered, or queued, so
                // any wake entry at the heap front is stale (its component
                // has nothing to act on — and nothing can re-activate it
                // before its cycle except a heap event, which would sort
                // earlier). Handling one re-lists nothing; then jump to
                // the first real event.
                loop {
                    match self.heap.peek().copied() {
                        Some(Reverse((c, _, ev))) if ev.is_wake() => {
                            self.heap.pop();
                            self.process_event(c, ev);
                        }
                        Some(Reverse((c, _, _))) => {
                            self.advance_clock(c.min(limit))?;
                            // An idle jump is progress: a long host-overhead
                            // gap (overhead ≫ watchdog) must not trip the
                            // deadlock watchdog once the network wakes up.
                            self.last_progress = self.now;
                            break;
                        }
                        None => return Ok(()),
                    }
                }
                continue;
            }
            let moved = self.network_cycle();
            self.post_sweep = true;
            // Resolve transient-fault damage recorded during the sweep
            // (deferred: the port tables are detached mid-sweep), before
            // the audit sees the state.
            let transient = self.apply_transient_faults();
            if self.audit.is_some() {
                self.audit_sweep()?;
            }
            if moved || transient {
                self.last_progress = self.now;
            } else if self.now - self.last_progress > self.cfg.watchdog_cycles {
                // Recovery mode: sacrifice the youngest stuck worm and
                // retry, up to the configured budget; retransmission (if
                // enabled) re-covers its destinations. Out of budget — or
                // nothing to kill — means a genuine abort.
                if self.recoveries_used < self.cfg.watchdog_recovery_limit
                    && self.watchdog_recover()
                {
                    self.last_progress = self.now;
                } else {
                    self.settle_all();
                    return Err(SimError::Deadlock {
                        at: self.now,
                        diagnostics: self.diagnostics(),
                    });
                }
            }
            // Advance. While anything is hot (listed components, or the
            // full-scan oracle), the next cycle must execute. Otherwise
            // every component is parked and the clock can jump to the
            // earliest cycle where progress is possible: the heap front
            // (host-side completions, launches, faults, retx, wakes), the
            // next cycle a flit lands, or the watchdog deadline.
            let target = if self.full_scan
                || !self.active_sw.is_empty()
                || !self.active_tx.is_empty()
            {
                self.now + 1
            } else {
                let mut t: Option<Cycle> = None;
                if let Some(&Reverse((c, _, _))) = self.heap.peek() {
                    t = Some(c);
                }
                if let Some(c) = self.next_arrival_cycle() {
                    t = Some(t.map_or(c, |x| x.min(c)));
                }
                if self.network_active() {
                    // A blocked worm with no wake in sight must still meet
                    // the watchdog exactly when the stepping loop would.
                    let fire = self.last_progress + self.cfg.watchdog_cycles + 1;
                    t = Some(t.map_or(fire, |x| x.min(fire)));
                }
                match t {
                    // Events scheduled *during* this sweep may be due at
                    // `now` (zero-duration resources); the stepping loop
                    // drains those on the next cycle, so clamp below.
                    Some(c) => c.max(self.now + 1).min(limit),
                    // Fully drained: step once and let the quiescence
                    // check above end the run (same final clock as the
                    // stepping loop).
                    None => self.now + 1,
                }
            };
            self.advance_clock(target)?;
        }
        Ok(())
    }

    /// Advance the clock to `target`, counting the simulated cycles
    /// covered. A jump of more than one cycle is audited on both edges
    /// (when auditing is on): the leading edge checks the state being
    /// carried over the gap, the trailing edge checks no flit landed
    /// *inside* it (see [`crate::audit::InvariantKind::StaleArrival`]).
    fn advance_clock(&mut self, target: Cycle) -> Result<(), SimError> {
        debug_assert!(target > self.now, "clock must advance");
        let jumped = target - self.now > 1;
        if jumped && self.audit.is_some() {
            self.audit_sweep()?;
        }
        self.stats.cycles_run += target - self.now;
        self.now = target;
        self.post_sweep = false;
        if jumped && self.audit.is_some() {
            self.audit_sweep()?;
        }
        Ok(())
    }

    /// Earliest future cycle with a flit due to land, if any. O(calendar
    /// length) worst case, but consulted only when both active lists are
    /// empty — and every empty slot it skips is a cycle the clock will
    /// jump over entirely.
    fn next_arrival_cycle(&self) -> Option<Cycle> {
        if self.wire_flits == 0 {
            return None;
        }
        let len = self.calendar.len() as u64;
        for d in 1..len {
            let idx = ((self.now + d) % len) as usize;
            if self.calendar[idx].flits > 0 {
                return Some(self.now + d);
            }
        }
        debug_assert!(false, "wire_flits > 0 with an empty landing calendar");
        None
    }

    /// Run until every scheduled multicast completes; errors if
    /// `hard_limit` is reached first. Returns the completion cycle of the
    /// last multicast.
    pub fn run_to_completion(&mut self, hard_limit: Cycle) -> Result<Cycle, SimError> {
        self.run_until(hard_limit)?;
        if !self.stats.all_complete() {
            let incomplete = self.stats.mcasts.len() - self.stats.completed_count();
            return Err(SimError::CycleLimit { limit: hard_limit, incomplete });
        }
        Ok(self
            .stats
            .mcasts
            .values()
            .filter_map(|r| r.completed)
            .max()
            .unwrap_or(self.now))
    }

    /// The statistics, with resource-utilization counters folded in and
    /// every flit landed so far counted.
    /// Borrows instead of cloning (sweeps call this once per trial, and
    /// the per-mcast tables can be large); the fold overwrites, so
    /// calling repeatedly is idempotent.
    pub fn stats(&mut self) -> &SimStats {
        self.settle_all();
        let ni: u64 = self.host_ni.iter().map(|r| r.busy_cycles).sum();
        let host: u64 = self.host_cpu.iter().map(|r| r.busy_cycles).sum();
        let bus: u64 = self.host_bus.iter().map(|r| r.busy_cycles).sum();
        self.stats.net.ni_busy_cycles = ni;
        self.stats.net.host_busy_cycles = host;
        self.stats.net.io_bus_busy_cycles = bus;
        &self.stats
    }

    /// Consume the simulator and return [`Self::stats`] by value, moving
    /// the per-multicast table out instead of cloning it.
    pub fn into_stats(mut self) -> SimStats {
        self.stats();
        self.stats
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    fn network_active(&self) -> bool {
        self.wire_flits > 0 || self.frames_alive > 0 || self.tx_pending > 0
    }

    /// Add `node` to the active-injection list (kept ascending so the
    /// sweep visits hosts in exactly full-scan order).
    fn activate_tx(&mut self, node: usize) {
        if !self.tx_listed[node] {
            self.tx_listed[node] = true;
            let pos = self.active_tx.partition_point(|&n| (n as usize) < node);
            self.active_tx.insert(pos, node as u16);
        }
    }

    /// Add `sw` to the active-switch list (kept ascending so the sweep
    /// visits switches in exactly full-scan order — the rotating
    /// arbitration priority advances only on visited switches, so the
    /// visit set and order must match the full scan bit for bit).
    fn activate_sw(&mut self, sw: usize) {
        if !self.sw_listed[sw] {
            self.sw_listed[sw] = true;
            let pos = self.active_sw.partition_point(|&s| (s as usize) < sw);
            self.active_sw.insert(pos, sw as u16);
            // Mid-sweep insertion at or before the cursor (a credit freed
            // by a later switch re-arming an earlier feeder) shifts the
            // current element right; keep the cursor on it. Insertions
            // *after* the cursor are swept this very cycle, matching the
            // full scan (which would also have visited that switch later
            // in the same cycle).
            if self.sw_cursor != usize::MAX && pos <= self.sw_cursor {
                self.sw_cursor += 1;
            }
        }
    }

    fn schedule(&mut self, at: Cycle, ev: Event) {
        debug_assert!(at >= self.now, "event scheduled in the past");
        self.seq += 1;
        self.heap.push(Reverse((at, self.seq, ev)));
    }

    /// Park-and-wake: arrange for `sw` to be re-listed at `at` (strictly
    /// future). Deduplicated per switch — an earlier-or-equal pending wake
    /// already covers this one; a later pending wake is superseded (the
    /// stale heap entry is discarded when popped).
    fn schedule_switch_wake(&mut self, sw: usize, at: Cycle) {
        debug_assert!(at > self.now, "wake must be strictly future");
        if self.sw_wake_at[sw] <= at {
            return;
        }
        self.sw_wake_at[sw] = at;
        self.schedule(at, Event::SwitchWake(sw as u16));
    }

    /// Landing wake: re-list parked switch `sw` at `at`, the cycle a flit
    /// it waits on lands (a header flit completing a header it must
    /// decode, or the next flit a granted branch must forward). Deduped
    /// like [`Self::schedule_switch_wake`] but on its own marker, so the
    /// timer wakes are pushed exactly as they would be without it. `at`
    /// is a landing cycle, which the clock executes anyway.
    fn schedule_land_wake(&mut self, sw: usize, at: Cycle) {
        debug_assert!(at > self.now, "wake must be strictly future");
        if self.full_scan || self.sw_land_at[sw] <= at {
            return;
        }
        self.sw_land_at[sw] = at;
        self.schedule(at, Event::SwitchWake(sw as u16));
    }

    /// A `SwitchWake` for `sw` popped at `c`: clear whichever marker it
    /// was pushed under.
    fn clear_switch_wake(&mut self, sw: usize, c: Cycle) {
        if self.sw_wake_at[sw] == c {
            self.sw_wake_at[sw] = u64::MAX;
        }
        if self.sw_land_at[sw] == c {
            self.sw_land_at[sw] = u64::MAX;
        }
    }

    /// Host-side counterpart of [`Self::schedule_switch_wake`].
    fn schedule_host_wake(&mut self, node: usize, at: Cycle) {
        debug_assert!(at > self.now, "wake must be strictly future");
        if self.tx_wake_at[node] <= at {
            return;
        }
        self.tx_wake_at[node] = at;
        self.schedule(at, Event::HostWake(node as u16));
    }

    /// A buffer credit on input channel `g` was released: re-arm the
    /// component feeding that channel, which may have parked while
    /// blocked on it. Phase matters for byte-identity with the full
    /// scan: during the arrival/event phase (and the host phase, which
    /// runs before switches) the feeder is simply re-listed — the sweep
    /// of cycle `now` will visit it just like the full scan would.
    /// During the *switch* phase, a feeder at or before the current
    /// cursor position has already been swept this cycle, so it gets a
    /// heap wake for `now + 1` instead (the earliest cycle it could act
    /// on the credit); a feeder after the cursor is re-listed and swept
    /// later this same cycle.
    fn credit_freed(&mut self, g: usize) {
        if self.full_scan {
            return; // the stepping loop visits everything anyway
        }
        match self.feeder_in[g] {
            Feeder::None => {}
            Feeder::Host(n) => {
                let node = n as usize;
                if self.tx_listed[node] || self.tx_queue[node].is_empty() {
                    return;
                }
                // Hosts are swept before switches, so any credit freed
                // during the switch phase arrives too late for this
                // cycle's host sweep.
                if self.sw_cursor != usize::MAX {
                    self.schedule_host_wake(node, self.now + 1);
                } else {
                    self.activate_tx(node);
                }
            }
            Feeder::Switch(s) => {
                let si = s as usize;
                if self.sw_listed[si] || self.sw_frames[si] == 0 {
                    return;
                }
                if self.sw_cursor != usize::MAX
                    && si <= self.active_sw[self.sw_cursor] as usize
                {
                    // Already swept (or is the switch currently being
                    // swept, which frees its own credits after moving):
                    // earliest it can use the credit is next cycle.
                    self.schedule_switch_wake(si, self.now + 1);
                } else {
                    self.activate_sw(si);
                }
            }
        }
    }

    /// A switch's frame count hit zero *outside* its own sweep (a fault
    /// or watchdog kill): settle the arbitration catch-up immediately,
    /// while "frames were resident every skipped cycle" still holds.
    /// The stepping loop advanced `rr` through the last cycle it swept
    /// this switch — the current cycle iff its sweep already ran. Once
    /// the count is zero no further advances accrue; the next head
    /// arrival resets `sw_rr_base` instead.
    fn flush_rr(&mut self, si: usize) {
        if self.full_scan || self.sw_frames[si] != 0 {
            return;
        }
        let boundary = self.now + u64::from(self.post_sweep);
        let missed = (boundary - self.sw_rr_base[si]) % 256;
        self.sw_rr[si] = self.sw_rr[si].wrapping_add(missed as u8);
        self.sw_rr_base[si] = boundary;
    }

    /// Re-list every component that holds work, discarding all parking
    /// decisions. Used after structural upheaval (fault application,
    /// watchdog recovery) where cheap per-resource re-arming is not worth
    /// proving correct.
    fn rearm_all(&mut self) {
        if self.full_scan {
            return;
        }
        for si in 0..self.sw_frames.len() {
            if self.sw_frames[si] > 0 {
                self.activate_sw(si);
            }
        }
        for node in 0..self.tx_queue.len() {
            if !self.tx_queue[node].is_empty() {
                self.activate_tx(node);
            }
        }
    }

    fn gidx(&self, sw: u16, port: u8) -> usize {
        sw as usize * self.pmax + port as usize
    }

    /// Count one reassembled packet of the multicast at dense index `idx`
    /// on `node`; returns the running count. The per-node counter vector
    /// grows lazily (most hosts only ever reassemble a small suffix of
    /// the id space).
    fn reassemble(&mut self, node: usize, idx: u32) -> u32 {
        let r = &mut self.reassembly[node];
        let i = idx as usize;
        if r.len() <= i {
            r.resize(i + 1, 0);
        }
        r[i] += 1;
        r[i]
    }

    /// Whether channel `ch` has a free buffer slot (an NI always has).
    /// A dead or purged switch input first drops the flits that landed
    /// on it, freeing their reservations.
    #[inline]
    fn accepts(&mut self, ch: usize) -> bool {
        if ch >= self.nin {
            return true;
        }
        if self.doomed(ch) {
            self.drop_landed(ch, self.landed);
        }
        self.in_reserved[ch] < self.cfg.input_buffer_flits
    }

    /// For a feeder refused by channel `ch`: the cycle a credit frees
    /// there by itself, when `ch` is a dead or purged switch input whose
    /// next flit will land and be dropped.
    fn drop_wait(&self, ch: usize) -> Option<Cycle> {
        if ch < self.nin && self.doomed(ch) {
            self.trains[ch].front().map(|r| r.at)
        } else {
            None
        }
    }

    /// True if the body flits landing on channel `ch` are dropped: it
    /// is dead or purging.
    #[inline]
    fn doomed(&self, ch: usize) -> bool {
        self.non_live > 0 && !matches!(self.drop[ch], DropState::Live)
    }

    /// True once `node`'s host died (with its switch).
    fn host_dead(&self, node: usize) -> bool {
        matches!(self.drop[self.nin + node], DropState::Dead)
    }

    /// Set channel `ch`'s drop state, keeping `non_live` in step.
    fn set_drop(&mut self, ch: usize, state: DropState) {
        let was_live = matches!(self.drop[ch], DropState::Live);
        match (was_live, matches!(state, DropState::Live)) {
            (true, false) => self.non_live += 1,
            (false, true) => self.non_live -= 1,
            _ => {}
        }
        self.drop[ch] = state;
    }

    /// Whether a head landing on channel `ch` (a switch input or an NI)
    /// is dropped: on a dead channel, or when its worm was `cut` while
    /// the head was on the wire, which starts the purge of that worm.
    /// Any other head ends a purge.
    #[inline]
    fn head_dropped(&mut self, ch: usize, cut: bool) -> bool {
        if !cut && self.non_live == 0 {
            return false;
        }
        match self.drop[ch] {
            DropState::Dead => true,
            _ if cut => {
                self.set_drop(ch, DropState::Purge);
                true
            }
            DropState::Purge => {
                self.set_drop(ch, DropState::Live);
                false
            }
            DropState::Live => false,
        }
    }

    /// Drop the body flits that landed on doomed switch input `g` by
    /// `upto`, freeing their reservations.
    fn drop_landed(&mut self, g: usize, upto: Cycle) {
        let (k, _) = take_landed(&mut self.trains[g], upto, 0);
        self.stats.net.flits_dropped += u64::from(k);
        self.in_reserved[g] -= k;
    }

    /// Count the body flits that landed on switch input `g` by `upto`
    /// into its back frame, setting `header_done_at` if one of them
    /// completes the header; on a doomed channel, drop them instead.
    /// `frames` is the port's frame queue (passed in because the switch
    /// phase detaches the port tables).
    fn settle_in(&mut self, frames: &mut VecDeque<Frame>, g: usize, upto: Cycle) {
        if self.doomed(g) {
            self.drop_landed(g, upto);
            return;
        }
        match frames.back_mut() {
            Some(f) => land_into(&mut self.trains[g], f, upto),
            None => debug_assert_eq!(
                take_landed(&mut self.trains[g], upto, 0).0,
                0,
                "body with no frame"
            ),
        }
    }

    /// [`Self::settle_in`] on an attached port, if anything landed.
    fn settle_port(&mut self, g: usize, upto: Cycle) {
        if !self.trains[g].front().is_some_and(|r| r.head.is_none() && r.at <= upto) {
            return;
        }
        let mut frames = std::mem::take(&mut self.sw_in[g].frames);
        self.settle_in(&mut frames, g, upto);
        self.sw_in[g].frames = frames;
    }

    /// Count every flit landed so far on every channel (statistics and
    /// diagnostics read the counters exactly).
    fn settle_all(&mut self) {
        for g in 0..self.nin {
            self.settle_port(g, self.landed);
        }
        for ni in 0..self.rx_current.len() {
            self.settle_ni(ni, self.landed);
        }
    }

    /// Land the flits of NI `ni`'s train due by `upto`: each head starts
    /// the reassembly of its worm, and bodies add to it until the tail
    /// finishes the packet, which goes to the NI processor. A dead or
    /// purging NI drops bodies, and [`Self::head_dropped`] decides for
    /// heads. The tail's calendar event calls this at its landing cycle,
    /// so a packet finishes exactly then.
    fn settle_ni(&mut self, ni: usize, upto: Cycle) {
        let ch = self.nin + ni;
        loop {
            let (head, mut k) = {
                let Some(r) = self.trains[ch].front_mut() else { break };
                if r.at > upto {
                    break;
                }
                let m = (upto - r.at + 1).min(u64::from(r.n)) as u32;
                let head = r.head.take().map(|w| (w, std::mem::take(&mut r.cut)));
                if m == r.n {
                    self.trains[ch].pop_front();
                } else {
                    r.at += u64::from(m);
                    r.n -= m;
                }
                (head, m)
            };
            if let Some((w, cut)) = head {
                k -= 1;
                if self.head_dropped(ch, cut) {
                    self.stats.net.flits_dropped += 1 + u64::from(k);
                    continue;
                }
                debug_assert!(self.rx_current[ni].is_none(), "interleaved worms at NI");
                self.stats.net.ejected_flits += 1;
                let total = w.total_flits();
                self.rx_current[ni] = Some((w, 1, total));
            } else if self.doomed(ch) {
                self.stats.net.flits_dropped += u64::from(k);
                continue;
            }
            if k > 0 {
                self.stats.net.ejected_flits += u64::from(k);
                let (_, got, _) = self.rx_current[ni].as_mut().expect("body with no worm");
                *got += k;
            }
            if self.rx_current[ni].as_ref().is_some_and(|(_, got, total)| got == total) {
                let (w, _, _) = self.rx_current[ni].take().expect("checked");
                self.packet_at_ni(ni as u16, w);
            }
        }
    }

    /// A packet finished landing at NI `node`: queue it for `O_{r,ni}`.
    fn packet_at_ni(&mut self, node: u16, w: Arc<WormCopy>) {
        self.emit(TraceEvent::PacketAtNi { node: NodeId(node), mcast: w.mcast, pkt: w.pkt });
        self.stats.net.packets_received += 1;
        let pend = &mut self.ni_rx_pending[node as usize];
        *pend += 1;
        if *pend > self.stats.net.max_ni_rx_queue {
            self.stats.net.max_ni_rx_queue = *pend;
        }
        // O_{r,ni} per message; later packets pay only per-packet
        // handling.
        let rx_dur = if w.pkt == 0 { self.cfg.o_recv_ni } else { self.cfg.o_ni_per_packet() };
        if let Some(c) = self.host_ni[node as usize].enqueue(NiTask::Rx(w), rx_dur, self.now) {
            self.schedule(c, Event::NiDone(node));
        }
    }

    fn reserve(&mut self, ch: usize) {
        if ch < self.nin {
            self.in_reserved[ch] += 1;
            if self.in_reserved[ch] > self.stats.net.max_buffer_occupancy {
                self.stats.net.max_buffer_occupancy = self.in_reserved[ch];
            }
        }
    }

    /// Put flit number `flit` (1-based) of a worm on the wire toward
    /// channel `ch`, landing at `at`: it joins the channel's train and
    /// the calendar slot of `at`. `head` carries the worm of a head flit;
    /// `last` marks the tail. Only a head at a switch input or a tail at
    /// an NI becomes a calendar event. Only callable from within
    /// `network_cycle` (relies on `cur_slot` being the slot of
    /// `self.now`).
    #[inline]
    fn send(&mut self, ch: usize, at: Cycle, head: Option<Arc<WormCopy>>, flit: u32, last: bool) {
        debug_assert!(at > self.now && at < self.now + self.calendar.len() as u64);
        let mut idx = self.cur_slot + (at - self.now) as usize;
        if idx >= self.calendar.len() {
            idx -= self.calendar.len();
        }
        self.wire_flits += 1;
        let event = if ch < self.nin {
            if head.is_none() && self.trains[ch].want == flit {
                // The switch parked waiting on exactly this flit.
                self.trains[ch].want = 0;
                self.schedule_land_wake(ch / self.pmax, at);
            }
            head.is_some()
        } else {
            last
        };
        let slot = &mut self.calendar[idx];
        slot.flits += 1;
        if event {
            slot.events.push(ch as u32);
        }
        self.trains[ch].push(at, head);
    }

    fn enqueue_host_send(&mut self, node: NodeId, mcast: McastId, spec: SendSpec) {
        if self.host_dead(node.idx()) {
            return; // the sender died; nothing can be issued from it
        }
        // Dependent multicasts (registered, never explicitly launched)
        // begin their measured life at their first send.
        let (idx, info) = self.minfo(mcast);
        if !self.stats.mcasts.launched_at(idx) {
            self.stats.launch_at(idx, self.now, info.dests);
        }
        if self.retx.is_some() {
            self.arm_retx(idx, node);
        }
        self.emit(TraceEvent::HostSendStart { node, mcast });
        let dur = self.cfg.o_send_host;
        if let Some(c) =
            self.host_cpu[node.idx()].enqueue(HostTask::Send { mcast, spec }, dur, self.now)
        {
            self.schedule(c, Event::HostDone(node.0));
        }
    }

    /// Expand a spec into the worm copies injected for packet `pkt`.
    fn make_worms(&self, mcast: McastId, spec: &SendSpec, pkt: u32) -> Vec<Arc<WormCopy>> {
        let (_, info) = self.minfo(mcast);
        let info = &info;
        let payload_flits = self.cfg.packet_payload(info.message_flits, pkt);
        let header_flits = spec.header_flits(&self.cfg, self.net.topo.num_nodes());
        let base = |route: RouteInfo| {
            Arc::new(WormCopy {
                mcast,
                pkt,
                total_pkts: info.total_pkts,
                payload_flits,
                header_flits,
                phase: Phase::Up,
                route,
            })
        };
        match spec {
            SendSpec::Unicast { dest } => vec![base(RouteInfo::Unicast { dest: *dest })],
            SendSpec::FpfsChildren { children } => children
                .iter()
                .map(|c| base(RouteInfo::Unicast { dest: *c }))
                .collect(),
            SendSpec::Tree { dests, plan } => {
                vec![base(RouteInfo::Tree { dests: dests.clone(), plan: plan.clone() })]
            }
            SendSpec::Path { spec } => {
                vec![base(RouteInfo::Path { spec: spec.clone(), cursor: 0 })]
            }
        }
    }

    /// Handle an event popped from the heap, where it was due at `c`.
    fn process_event(&mut self, c: Cycle, ev: Event) {
        match ev {
            // A wake re-lists its component if it still has work; a stale
            // one (the component drained meanwhile) is a no-op.
            Event::SwitchWake(s) => {
                let si = s as usize;
                self.clear_switch_wake(si, c);
                if self.sw_frames[si] > 0 {
                    self.activate_sw(si);
                }
            }
            Event::HostWake(n) => {
                let node = n as usize;
                if self.tx_wake_at[node] == c {
                    self.tx_wake_at[node] = u64::MAX;
                }
                if !self.tx_queue[node].is_empty() {
                    self.activate_tx(node);
                }
            }
            Event::Launch(id) => {
                self.emit(TraceEvent::Launch { mcast: id });
                let (idx, info) = self.minfo(id);
                self.stats.launch_at(idx, self.now, info.dests);
                let sends = match self.protocol.on_launch(id, self.now) {
                    Ok(sends) => sends,
                    Err(e) => {
                        self.pending_fatal = Some(SimError::Protocol(e));
                        return;
                    }
                };
                for (node, spec) in sends {
                    self.enqueue_host_send(node, id, spec);
                }
            }
            Event::Fault => self.process_fault_events(),
            Event::RetxCheck(idx) => self.process_retx_check(idx),
            Event::HostDone(n) => {
                let (task, next) = self.host_cpu[n as usize].complete(self.now);
                if let Some(c) = next {
                    self.schedule(c, Event::HostDone(n));
                }
                if self.host_dead(n as usize) {
                    return; // zombie completion on a dead host: drain silently
                }
                match task {
                    HostTask::Send { mcast, spec } => {
                        let (_, info) = self.minfo(mcast);
                        let spec = Arc::new(spec);
                        for pkt in 0..info.total_pkts {
                            let dur = self
                                .cfg
                                .dma_cycles(self.cfg.packet_payload(info.message_flits, pkt));
                            if let Some(c) = self.host_bus[n as usize].enqueue(
                                DmaTask::ToNi { mcast, spec: spec.clone(), pkt },
                                dur,
                                self.now,
                            ) {
                                self.schedule(c, Event::BusDone(n));
                            }
                        }
                    }
                    HostTask::Recv(mcast) => {
                        let node = NodeId(n);
                        // A retransmitted copy can complete after the
                        // original (or vice versa): the first delivery
                        // wins, later ones are counted no-ops and do not
                        // re-trigger the protocol.
                        if self.stats.is_delivered(mcast, node) {
                            self.stats.net.duplicate_deliveries += 1;
                        } else {
                            // First delivery to a destination the retx
                            // layer had re-sent to: the end-to-end path
                            // recovered what the network lost.
                            if let Some(rt) = &self.retx {
                                let recovered = self
                                    .stats
                                    .mcasts
                                    .idx_of(mcast)
                                    .and_then(|i| rt.resent.get(i as usize))
                                    .is_some_and(|m| m.contains(node));
                                if recovered {
                                    self.stats.net.e2e_recoveries += 1;
                                }
                            }
                            self.emit(TraceEvent::Delivered { node, mcast });
                            self.stats.deliver(mcast, node, self.now);
                            let sends =
                                match self.protocol.on_message_delivered(node, mcast, self.now) {
                                    Ok(sends) => sends,
                                    Err(e) => {
                                        self.pending_fatal = Some(SimError::Protocol(e));
                                        return;
                                    }
                                };
                            for (mid, spec) in sends {
                                self.enqueue_host_send(node, mid, spec);
                            }
                        }
                    }
                }
            }
            Event::BusDone(n) => {
                let (task, next) = self.host_bus[n as usize].complete(self.now);
                if let Some(c) = next {
                    self.schedule(c, Event::BusDone(n));
                }
                if self.host_dead(n as usize) {
                    return;
                }
                match task {
                    DmaTask::ToNi { mcast, spec, pkt } => {
                        // O_{s,ni} is per message; later packets of the
                        // same message only pay per-packet handling.
                        let dur = if pkt == 0 {
                            self.cfg.o_send_ni
                        } else {
                            self.cfg.o_ni_per_packet()
                        };
                        let worms = self.make_worms(mcast, &spec, pkt);
                        for w in worms {
                            if let Some(c) =
                                self.host_ni[n as usize].enqueue(NiTask::Tx(w), dur, self.now)
                            {
                                self.schedule(c, Event::NiDone(n));
                            }
                        }
                    }
                    DmaTask::ToHost { worm } => {
                        let (idx, _) = self.minfo(worm.mcast);
                        let cnt = self.reassemble(n as usize, idx);
                        // `>=` (not `==`): a retransmission restarts the
                        // count at 0, but straggler packets of the
                        // truncated original can still land afterwards.
                        if cnt >= worm.total_pkts {
                            self.reassembly[n as usize][idx as usize] = 0;
                            if let Some(c) = self.host_cpu[n as usize].enqueue(
                                HostTask::Recv(worm.mcast),
                                self.cfg.o_recv_host,
                                self.now,
                            ) {
                                self.schedule(c, Event::HostDone(n));
                            }
                        }
                    }
                }
            }
            Event::NiDone(n) => {
                let (task, next) = self.host_ni[n as usize].complete(self.now);
                if let Some(c) = next {
                    self.schedule(c, Event::NiDone(n));
                }
                if self.host_dead(n as usize) {
                    return;
                }
                match task {
                    NiTask::Tx(worm) => {
                        self.emit(TraceEvent::WormQueued {
                            node: NodeId(n),
                            mcast: worm.mcast,
                            pkt: worm.pkt,
                        });
                        self.tx_queue[n as usize].push_back(worm);
                        self.tx_pending += 1;
                        self.activate_tx(n as usize);
                    }
                    NiTask::Rx(worm) => {
                        let node = NodeId(n);
                        self.ni_rx_pending[n as usize] -= 1;
                        let replicas = match self.protocol.on_packet_at_ni(node, &worm, self.now) {
                            Ok(replicas) => replicas,
                            Err(e) => {
                                self.pending_fatal = Some(SimError::Protocol(e));
                                return;
                            }
                        };
                        let tx_dur = if worm.pkt == 0 {
                            self.cfg.o_send_ni
                        } else {
                            self.cfg.o_ni_per_packet()
                        };
                        for spec in replicas {
                            let worms = self.make_worms(worm.mcast, &spec, worm.pkt);
                            for w in worms {
                                if let Some(c) = self.host_ni[n as usize].enqueue(
                                    NiTask::Tx(w),
                                    tx_dur,
                                    self.now,
                                ) {
                                    self.schedule(c, Event::NiDone(n));
                                }
                            }
                        }
                        debug_assert_eq!(
                            worm.ni_destination(),
                            Some(node),
                            "worm ejected at wrong NI"
                        );
                        let dur = self.cfg.dma_cycles(worm.payload_flits);
                        if let Some(c) = self.host_bus[n as usize].enqueue(
                            DmaTask::ToHost { worm },
                            dur,
                            self.now,
                        ) {
                            self.schedule(c, Event::BusDone(n));
                        }
                    }
                }
            }
        }
    }

    /// One cycle of network activity. Returns true if any flit moved.
    fn network_cycle(&mut self) -> bool {
        let t = self.now;
        let mut moved = false;
        self.stats.sweeps_run += 1;

        // --- 1. arrivals ---------------------------------------------
        // Every flit landing now was counted into this cycle's calendar
        // slot when it was sent. Body flits do nothing here: their frame
        // or reassembly reads them off the channel's train when next
        // consulted. Only heads at switch inputs and tails at NIs are
        // events of their own, handled in send order. Nothing lands in
        // the current slot during the cycle (`send` targets strictly
        // future cycles within the calendar span).
        let idx = (t % self.calendar.len() as u64) as usize;
        self.cur_slot = idx;
        self.landed = t;
        let landing = std::mem::take(&mut self.calendar[idx].flits);
        if landing > 0 {
            self.wire_flits -= u64::from(landing);
            moved = true;
            for i in 0..self.calendar[idx].events.len() {
                let ch = self.calendar[idx].events[i] as usize;
                if ch < self.nin {
                    self.land_head(ch, t);
                } else {
                    self.settle_ni(ch - self.nin, t);
                }
            }
            self.calendar[idx].events.clear();
        }

        // --- 2. host injection ----------------------------------------
        // Active-list sweep: visit only hosts with queued worms, in
        // ascending order (identical to the full scan); drop entries
        // whose queue drains, and *park* hosts that could not move (the
        // only reason is a missing downstream credit — `credit_freed` on
        // that channel re-arms them).
        if self.full_scan {
            for node in 0..self.tx_queue.len() {
                if self.tx_queue[node].is_empty() {
                    continue;
                }
                moved |= self.inject_from(node, t);
            }
        } else {
            let mut i = 0;
            while i < self.active_tx.len() {
                let node = self.active_tx[i] as usize;
                if self.tx_queue[node].is_empty() {
                    self.tx_listed[node] = false;
                    self.active_tx.remove(i);
                    continue;
                }
                let m = self.inject_from(node, t);
                moved |= m;
                if m && !self.tx_queue[node].is_empty() {
                    i += 1;
                } else {
                    self.tx_listed[node] = false;
                    self.active_tx.remove(i);
                    if !m {
                        // Refused by a dead or purged input: its next
                        // landing frees a credit by itself.
                        if let Some(at) = self.drop_wait(self.inject_chan[node] as usize) {
                            self.schedule_host_wake(node, at);
                        }
                    }
                }
            }
        }

        // --- 3. switches ----------------------------------------------
        // Same scheme: only switches with resident frames, ascending;
        // `sw_cursor` is live so a credit freed mid-sweep can tell
        // already-swept feeders (heap wake at t+1) from not-yet-swept
        // ones (re-list, swept later this same cycle). A switch that
        // neither moved a flit nor has a decode due next cycle *parks*:
        // it leaves the list, optionally dropping a `SwitchWake` at its
        // next self-timed decode cycle and one at the landing of a flit
        // it waits on, and otherwise waits for whoever frees the
        // resource it is blocked on.
        // The port tables are detached from `self` for the duration (an
        // O(1) pointer swap of the whole flat array): a switch never
        // writes another switch's ports directly — flits travel through
        // the channel trains, and credit accounting lives in the separate
        // `in_reserved` array — so `switch_cycle` can hold `&mut` slices
        // into the tables while calling back into `self`.
        let mut sw_in = std::mem::take(&mut self.sw_in);
        let mut sw_out = std::mem::take(&mut self.sw_out);
        if self.full_scan {
            for si in 0..self.sw_nports.len() {
                if self.sw_frames[si] == 0 {
                    continue;
                }
                moved |= self.switch_cycle(si, &mut sw_in, &mut sw_out).moved;
            }
        } else {
            self.sw_cursor = 0;
            while self.sw_cursor < self.active_sw.len() {
                let si = self.active_sw[self.sw_cursor] as usize;
                if self.sw_frames[si] == 0 {
                    self.sw_listed[si] = false;
                    self.active_sw.remove(self.sw_cursor);
                    continue;
                }
                // Arbitration catch-up: the stepping loop advanced `rr`
                // once per cycle this switch held frames; replay the
                // advances for the cycles we skipped while it was parked
                // (all provably no-op sweeps except this counter).
                let missed = (t - self.sw_rr_base[si]) % 256;
                self.sw_rr[si] = self.sw_rr[si].wrapping_add(missed as u8);
                let out = self.switch_cycle(si, &mut sw_in, &mut sw_out);
                self.sw_rr_base[si] = t + 1;
                moved |= out.moved;
                if self.sw_frames[si] == 0 {
                    self.sw_listed[si] = false;
                    self.active_sw.remove(self.sw_cursor);
                } else if out.moved || out.next_decode == Some(t + 1) {
                    self.sw_cursor += 1;
                } else {
                    self.sw_listed[si] = false;
                    self.active_sw.remove(self.sw_cursor);
                    if let Some(d) = out.next_decode {
                        self.schedule_switch_wake(si, d);
                    }
                    if let Some(l) = out.next_landing {
                        self.schedule_land_wake(si, l);
                    }
                }
            }
            self.sw_cursor = usize::MAX;
        }
        self.sw_in = sw_in;
        self.sw_out = sw_out;
        moved
    }

    /// A head flit lands on switch input `g` at `t`: the body flits
    /// ahead of it settle into the frame they belong to, then the head
    /// opens a frame of its own, unless [`Self::head_dropped`] drops it.
    fn land_head(&mut self, g: usize, t: Cycle) {
        let (sw, port) = (g / self.pmax, g % self.pmax);
        self.settle_port(g, t - 1);
        let train = &mut self.trains[g];
        let run = train.front_mut().expect("head landing on an empty train");
        debug_assert_eq!(run.at, t, "head landing off its calendar cycle");
        let w = run.head.take().expect("head landing on a body run");
        let cut = std::mem::take(&mut run.cut);
        run.at += 1;
        run.n -= 1;
        if run.n == 0 {
            train.pop_front();
        }
        if self.head_dropped(g, cut) {
            self.stats.net.flits_dropped += 1;
            self.in_reserved[g] -= 1;
            self.credit_freed(g);
            return;
        }
        let mut f = Frame::new(w);
        f.received = 1;
        f.born = t;
        if f.received == f.header_in {
            f.header_done_at = Some(t);
        }
        let q = &mut self.sw_in[g].frames;
        q.push_back(f);
        if q.len() == 1 {
            // Became the port's front frame: decode pending.
            self.sw_undecoded[sw] |= 1 << port;
        }
        self.frames_alive += 1;
        self.sw_frames[sw] += 1;
        if self.sw_frames[sw] == 1 {
            // First frame after an empty spell: the stepping loop skipped
            // this switch while it held nothing, so no arbitration
            // advances are owed (see the rr catch-up in the switch sweep).
            self.sw_rr_base[sw] = t;
        }
        self.activate_sw(sw);
    }

    /// Move one flit of `node`'s front queued worm onto its injection
    /// link, if the downstream buffer accepts. Returns true on a move.
    fn inject_from(&mut self, node: usize, t: Cycle) -> bool {
        let ch = self.inject_chan[node] as usize;
        if !self.accepts(ch) {
            return false;
        }
        let head = if self.tx_sent[node] == 0 {
            let front = self.tx_queue[node].front().expect("checked nonempty");
            self.tx_total[node] = front.total_flits();
            Some(front.clone())
        } else {
            None
        };
        self.tx_sent[node] += 1;
        let flit = self.tx_sent[node];
        let last = flit == self.tx_total[node];
        if last {
            self.tx_queue[node].pop_front();
            self.tx_sent[node] = 0;
            self.tx_pending -= 1;
        }
        self.reserve(ch);
        self.send(ch, t + self.cfg.link_delay, head, flit, last);
        self.stats.net.injected_flits += 1;
        true
    }

    /// Decode, arbitrate, transfer for one switch. `sw_in`/`sw_out` are
    /// the whole port tables, temporarily detached from `self` (no
    /// self-links, so no aliasing with the sinks this switch transmits
    /// into). Besides the moved flag, reports the earliest future cycle a
    /// pending decode or link-retry hold expires (the only *self-timed*
    /// work a switch has) and, for a switch that moved nothing, the
    /// earliest cycle a flit it waits on lands. Whatever else it waits on
    /// is re-armed by the component supplying it.
    fn switch_cycle(
        &mut self,
        si: usize,
        sw_in: &mut [InPort],
        sw_out: &mut [OutPort],
    ) -> SweepOut {
        let t = self.now;
        let here = SwitchId(si as u16);
        let nports = self.sw_nports[si] as usize;
        let base = si * self.pmax;
        let mut moved = false;
        let mut next_decode: Option<Cycle> = None;
        // Ports whose front frame waits on a landing: for the rest of its
        // header (`hdr_wait`) or for the next flit a granted branch
        // forwards (`avail_wait`); and the earliest cycle a refused output
        // gets a credit back from a flit dropped on a dead or purged input.
        let mut hdr_wait = 0u32;
        let mut avail_wait = 0u32;
        let mut credit_wait: Option<Cycle> = None;
        // Hoisted transient-error gates: with no (nonzero) model installed
        // both are false and the transfer loop below is byte-identical to
        // a build without error support.
        let err_on = self.errors.is_some();
        let retry_on = err_on && self.link_retry.is_some();

        // Decode head frames whose routing delay has elapsed. Only ports
        // flagged in `undecoded` can need work (ascending order, same as
        // a full port scan).
        let mut pending = self.sw_undecoded[si];
        while pending != 0 {
            let p = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            let g = base + p;
            let front = sw_in[g].frames.front().expect("undecoded bit without front frame");
            debug_assert!(!front.decoded);
            if front.header_done_at.is_none() {
                // The header is still landing: count what landed by now.
                self.settle_in(&mut sw_in[g].frames, g, t);
            }
            let f = sw_in[g].frames.front_mut().expect("undecoded bit without front frame");
            let Some(hd) = f.header_done_at else {
                hdr_wait |= 1 << p;
                continue;
            };
            let ready = hd + self.cfg.routing_delay;
            if t < ready {
                next_decode = Some(next_decode.map_or(ready, |x| x.min(ready)));
                continue;
            }
            let faulted = self.faults.as_ref().is_some_and(|rt| !rt.status.is_healthy());
            let branches = if faulted {
                let rt = self.faults.as_ref().expect("faulted implies plan");
                let view: &Network = rt.degraded.as_deref().unwrap_or(self.net);
                decode_branches_masked(view, &self.cfg, here, &f.worm, &rt.status)
            } else {
                decode_branches(self.net, &self.cfg, here, &f.worm)
            };
            if branches.is_empty() {
                debug_assert!(faulted, "healthy decode yielded no branches");
                // The degraded network leaves this worm nowhere to go
                // (dead destination / fully pruned subtree / severed path
                // leg): discard it. Retransmission, if enabled, re-covers
                // any live destinations it was carrying.
                self.kill_frame(&mut sw_in[g].frames, g, FrameSlot::Front);
                if sw_in[g].frames.is_empty() {
                    self.sw_undecoded[si] &= !(1 << p);
                }
                moved = true;
                continue;
            }
            self.stats.net.replications += branches.len().saturating_sub(1) as u64;
            f.branches = branches;
            f.decoded = true;
            f.ungranted = f.branches.len() as u16;
            self.sw_undecoded[si] &= !(1 << p);
            if f.ungranted > 0 {
                self.sw_waiting[si] |= 1 << p;
            }
        }

        // Arbitration: rotating input priority; each ungranted branch
        // takes the first free candidate output. Only ports flagged in
        // `waiting` can grant, so walk that mask rotated to `rr` — the
        // visit order over flagged ports is identical to the full rotated
        // scan, and skipped ports were no-ops there. `rr` advances below
        // regardless, exactly as after a no-op scan.
        if self.sw_waiting[si] != 0 {
            let start = self.sw_rr[si] as usize % nports.max(1);
            let mut m = if start == 0 {
                self.sw_waiting[si]
            } else {
                // Rotate within the low `nports` bits: bit k of `m` is
                // port (start + k) % nports.
                (self.sw_waiting[si] >> start)
                    | ((self.sw_waiting[si] << (nports - start)) & (u32::MAX >> (32 - nports)))
            };
            while m != 0 {
                let k = m.trailing_zeros() as usize;
                m &= m - 1;
                let mut p = start + k;
                if p >= nports {
                    p -= nports;
                }
                let f = sw_in[base + p]
                    .frames
                    .front_mut()
                    .expect("waiting bit without front frame");
                debug_assert!(f.decoded && f.ungranted > 0);
                for (bi, b) in f.branches.iter_mut().enumerate() {
                    if b.done || b.port.is_some() {
                        continue;
                    }
                    for ci in 0..b.candidates.len() {
                        let (cand, _) = b.candidates[ci];
                        let op = &mut sw_out[base + cand.idx()];
                        if op.owner.is_none() {
                            op.owner = Some((p as u8, bi as u16));
                            self.sw_owned[si] |= 1 << cand.idx();
                            f.ungranted -= 1;
                            b.grant(cand);
                            break;
                        }
                    }
                }
                if f.ungranted == 0 {
                    self.sw_waiting[si] &= !(1 << p);
                }
            }
        }
        self.sw_rr[si] = self.sw_rr[si].wrapping_add(1);

        // Transfers: each owned output moves at most one flit. Iterate
        // the `owned` mask ascending — identical to scanning all outputs
        // and skipping the ownerless ones. Bits cleared mid-loop (branch
        // drained) only affect later cycles; none are set here.
        let mut owned = self.sw_owned[si];
        while owned != 0 {
            let o = owned.trailing_zeros() as usize;
            owned &= owned - 1;
            // A link-level retry in flight holds the whole output until
            // the NACK turnaround elapses (go-back-k: nothing overtakes
            // the damaged flit). Park on the replay cycle.
            if retry_on && t < self.out_retry_at[base + o] {
                let at = self.out_retry_at[base + o];
                next_decode = Some(next_decode.map_or(at, |x| x.min(at)));
                continue;
            }
            let (p, bi) = sw_out[base + o].owner.expect("owned bit without owner");
            let gp = base + p as usize;
            let f = sw_in[gp].frames.front_mut().expect("owner without head frame");
            debug_assert_eq!(f.branches[bi as usize].port, Some(PortIdx(o as u8)));
            debug_assert!(!f.branches[bi as usize].done);
            // Flit availability in the source frame. The header is fully
            // present (decode implies it); a payload flit must have
            // landed, which a frame still landing reads off its train (a
            // frame that is not the port's last is complete, and a doomed
            // channel's flits are dropped, not received).
            let (sent, out_hdr) = (f.branches[bi as usize].sent, f.branches[bi as usize].out_header());
            if sent >= out_hdr {
                let flit = f.header_in + (sent - out_hdr) + 1;
                let landed = flit <= f.received
                    || (!self.doomed(gp) && landed_by(&mut self.trains[gp], f, flit, t));
                if !landed {
                    avail_wait |= 1 << p;
                    continue;
                }
            }
            let ch = self.out_chan[base + o] as usize;
            debug_assert!(ch != u32::MAX as usize, "branch granted to open port");
            if !self.accepts(ch) {
                if let Some(at) = self.drop_wait(ch) {
                    credit_wait = Some(credit_wait.map_or(at, |x| x.min(at)));
                }
                continue;
            }
            let b = &mut f.branches[bi as usize];
            // Transient-error gate: inter-switch transfers only (ports
            // with a directed-link code; injection and NI-delivery hops
            // are error-free by construction). The fate draw is stateless
            // in (link, cycle), so the event scheduler and the full-scan
            // oracle see identical error patterns.
            if err_on {
                if let Some(d) = self.out_dir_link[base + o] {
                    let fate = self.errors.as_ref().expect("err_on implies model").fate(d, t);
                    if !matches!(fate, FlitFate::Ok) {
                        match fate {
                            FlitFate::Corrupted => self.stats.net.flits_corrupted += 1,
                            _ => self.stats.net.flits_dropped_transient += 1,
                        }
                        if retry_on {
                            // Link-level retry: the damaged flit never
                            // leaves the sender's frame (`b.sent` is
                            // untouched), so the hold above replays this
                            // exact flit after the NACK turnaround — or
                            // escalates to a worm kill past the budget.
                            self.stats.net.link_retries += 1;
                            self.out_retry_cnt[base + o] += 1;
                            let policy =
                                self.link_retry.as_ref().expect("retry_on implies policy");
                            if self.out_retry_cnt[base + o] > policy.max_retries {
                                self.out_retry_cnt[base + o] = 0;
                                self.out_retry_at[base + o] = 0;
                                let worm = f.worm.clone();
                                let dup = self.pending_retry_kills.iter().any(|(s, ip, w)| {
                                    *s == si as u16 && *ip as usize == p as usize
                                        && Arc::ptr_eq(w, &worm)
                                });
                                if !dup {
                                    self.pending_retry_kills.push((si as u16, p, worm));
                                }
                            } else {
                                let at = t + policy.turnaround;
                                self.out_retry_at[base + o] = at;
                                next_decode = Some(next_decode.map_or(at, |x| x.min(at)));
                            }
                            continue;
                        }
                        // Detection only: the damaged flit still occupies
                        // the wire and the downstream buffer, so it is
                        // transmitted normally; the receiver's CRC check
                        // severs the downstream copy at end of sweep.
                        self.pending_link_errors
                            .push((ch, b.out_worm.clone().expect("granted branch has worm")));
                    } else if retry_on {
                        // A clean transfer ends any escalation streak.
                        self.out_retry_cnt[base + o] = 0;
                    }
                }
            }
            let head =
                (b.sent == 0).then(|| b.out_worm.clone().expect("granted branch has worm"));
            b.sent += 1;
            let (flit, last) = (b.sent, b.sent == b.out_total());
            if last {
                b.done = true;
                sw_out[base + o].owner = None;
                self.sw_owned[si] &= !(1 << o);
            }
            let (freed, frame_done) = f.advance();
            if frame_done {
                // Its last flits may have been forwarded straight off the
                // train: count them in before the frame goes (a frame
                // with a successor was counted in when that head landed).
                if f.received < f.total_in {
                    land_into(&mut self.trains[gp], f, t);
                }
                debug_assert_eq!(f.received, f.total_in);
                debug_assert_eq!(f.freed, f.total_in);
                let q = &mut sw_in[gp].frames;
                q.pop_front();
                if !q.is_empty() {
                    // The revealed frame was never front before, so its
                    // header is still undecoded.
                    self.sw_undecoded[si] |= 1 << p;
                }
                self.frames_alive -= 1;
                self.sw_frames[si] -= 1;
            }
            if freed > 0 {
                self.in_reserved[gp] -= freed;
                self.audit_freed += freed as u64;
                self.credit_freed(gp);
            }
            self.reserve(ch);
            self.send(ch, t + self.cfg.crossbar_delay + self.cfg.link_delay, head, flit, last);
            self.stats.net.link_flits += 1;
            if let Some(d) = self.out_dir_link[base + o] {
                self.stats.link_flits_per_dir[d as usize] += 1;
            }
            moved = true;
        }

        // A switch that moved nothing parks: find the landings it waits on
        // (only a frame still landing can be waited on, so it is the
        // port's only frame). A flit already on the wire gives the landing
        // cycle; one not sent yet is marked in `want`, and sending it
        // schedules the wake.
        let mut next_landing = credit_wait;
        if !moved && !self.full_scan {
            let mut waits = hdr_wait | avail_wait;
            while waits != 0 {
                let p = waits.trailing_zeros() as usize;
                waits &= waits - 1;
                let g = base + p;
                let q = &mut sw_in[g].frames;
                if q.len() != 1 || self.doomed(g) {
                    continue;
                }
                let f = &mut q[0];
                // Count in what landed (a branch may have forwarded it
                // straight off the train), so the next flit is the wait.
                land_into(&mut self.trains[g], f, t);
                let flit = if hdr_wait & (1 << p) != 0 { f.header_in } else { f.received + 1 };
                match nth_landing(&self.trains[g], flit - f.received) {
                    Some(at) => next_landing = Some(next_landing.map_or(at, |x| x.min(at))),
                    None => self.trains[g].want = flit,
                }
            }
        }
        SweepOut { moved, next_decode, next_landing }
    }

    fn diagnostics(&self) -> DeadlockDiagnostics {
        let mut d = DeadlockDiagnostics {
            wire_flits: self.wire_flits,
            frames_alive: self.frames_alive,
            tx_pending: self.tx_pending,
            recoveries_used: self.recoveries_used,
            stuck_frames: Vec::new(),
            tx_backlogs: Vec::new(),
        };
        for (si, &np) in self.sw_nports.iter().enumerate() {
            for pi in 0..np as usize {
                if let Some(f) = self.sw_in[si * self.pmax + pi].frames.front() {
                    d.stuck_frames.push(StuckFrame {
                        switch: si as u16,
                        port: pi as u8,
                        mcast: f.worm.mcast,
                        pkt: f.worm.pkt,
                        received: f.received,
                        total: f.worm.total_flits(),
                        decoded: f.decoded,
                        branches: f
                            .branches
                            .iter()
                            .map(|b| BranchSnapshot {
                                port: b.port.map(|p| p.0),
                                sent: b.sent,
                                done: b.done,
                            })
                            .collect(),
                    });
                }
            }
        }
        for (ni, q) in self.tx_queue.iter().enumerate() {
            if !q.is_empty() {
                d.tx_backlogs.push(TxBacklog {
                    node: ni as u16,
                    queued: q.len(),
                    sent: self.tx_sent[ni],
                });
            }
        }
        d
    }

    // ------------------------------------------------------------------
    // auditing
    // ------------------------------------------------------------------

    /// Run one audit pass (caller has checked `audit.is_some()`). The
    /// auditor is taken out for the duration so the checks can borrow
    /// `self` immutably while the progress map updates.
    fn audit_sweep(&mut self) -> Result<(), SimError> {
        let Some(mut aud) = self.audit.take() else { return Ok(()) };
        let r = self.audit_check(&mut aud);
        self.audit = Some(aud);
        r.map_err(|violation| SimError::InvariantViolation { at: self.now, violation })
    }

    /// Recompute every denormalized counter from ground truth and check
    /// the invariants documented in [`crate::audit`].
    fn audit_check(
        &self,
        aud: &mut crate::audit::Auditor,
    ) -> Result<(), crate::audit::InvariantViolation> {
        use crate::audit::{InvariantKind, InvariantViolation};
        let fail = |kind: InvariantKind, detail: String| Err(InvariantViolation { kind, detail });

        // Trains: per channel, runs in landing order without overlap, and
        // none with a flit due inside a span the clock skipped — after
        // the last arrival phase (`landed`) and before `now`. During
        // stepped execution that span is empty; it exists only for clock
        // jumps: `advance_clock` audits both edges of a jump, and a
        // scheduler bug that jumped past a landing is caught here at the
        // trailing edge, before the sweep could land the flit quietly.
        let mut wire = 0u64;
        let mut train_flits = 0u64;
        for (ch, train) in self.trains.iter().enumerate() {
            let site = || {
                if ch < self.nin {
                    format!("S{} p{}", ch / self.pmax, ch % self.pmax)
                } else {
                    format!("NI n{}", ch - self.nin)
                }
            };
            let mut end: Option<Cycle> = None;
            for r in train.iter() {
                if r.n == 0 || end.is_some_and(|e| r.at < e) {
                    return fail(
                        InvariantKind::TrainOrder,
                        format!("{}: run of {} at cycle {} after one ending at {end:?}", site(), r.n, r.at),
                    );
                }
                let stop = r.at + u64::from(r.n);
                end = Some(stop);
                let due = r.at.max(self.landed + 1);
                if due < stop && due < self.now {
                    return fail(
                        InvariantKind::StaleArrival,
                        format!(
                            "{}: a flit due at cycle {due} never landed (last arrivals at {}, \
                             clock at {})",
                            site(),
                            self.landed,
                            self.now
                        ),
                    );
                }
                wire += stop.saturating_sub(due);
                train_flits += u64::from(r.n);
            }
        }

        // Wire conservation: the flits still due to land are exactly
        // `wire_flits`.
        if wire != self.wire_flits {
            return fail(
                InvariantKind::WireConservation,
                format!("trains hold {wire} flits still to land, wire_flits says {}", self.wire_flits),
            );
        }

        // Per-switch buffer and frame accounting. A frame's received
        // count includes the flits that landed on its (live) channel and
        // that it has not counted in yet; only the port's last frame can
        // still be landing.
        let mut frames_total = 0u64;
        let mut buffered_total = 0u64;
        let mut counted_in = 0u64;
        for (si, &np) in self.sw_nports.iter().enumerate() {
            let mut count = 0u32;
            for pi in 0..np as usize {
                let g = self.gidx(si as u16, pi as u8);
                let landed_here =
                    if self.doomed(g) { 0 } else { landed_count(&self.trains[g], self.landed) };
                counted_in += u64::from(landed_here);
                let mut buffered = 0u32;
                let last = self.sw_in[g].frames.len().wrapping_sub(1);
                for (i, f) in self.sw_in[g].frames.iter().enumerate() {
                    let received = f.received + if i == last { landed_here } else { 0 };
                    if received > f.total_in || f.freed > received {
                        return fail(
                            InvariantKind::FrameAccounting,
                            format!(
                                "S{si} p{pi}: frame freed {} / received {received} / total {}",
                                f.freed, f.total_in
                            ),
                        );
                    }
                    for b in &f.branches {
                        if b.sent > b.out_total() {
                            return fail(
                                InvariantKind::FrameAccounting,
                                format!(
                                    "S{si} p{pi}: branch sent {} of {}",
                                    b.sent,
                                    b.out_total()
                                ),
                            );
                        }
                    }
                    buffered += received - f.freed;
                }
                count += self.sw_in[g].frames.len() as u32;
                buffered_total += buffered as u64;
                if self.in_reserved[g] > self.cfg.input_buffer_flits {
                    return fail(
                        InvariantKind::OccupancyBound {
                            switch: si as u16,
                            port: pi as u8,
                        },
                        format!(
                            "reserved {} > capacity {}",
                            self.in_reserved[g], self.cfg.input_buffer_flits
                        ),
                    );
                }
                // A reserved flit is either received into a frame or still
                // in the channel's train (on the wire, or landed on a
                // doomed channel and not yet dropped).
                let in_train: u32 =
                    self.trains[g].iter().map(|r| r.n).sum::<u32>() - landed_here;
                if self.in_reserved[g] != buffered + in_train {
                    return fail(
                        InvariantKind::OccupancyConservation {
                            switch: si as u16,
                            port: pi as u8,
                        },
                        format!(
                            "reserved {} != buffered {} + in train {}",
                            self.in_reserved[g], buffered, in_train
                        ),
                    );
                }
            }
            if count != self.sw_frames[si] {
                return fail(
                    InvariantKind::FrameAccounting,
                    format!("S{si}: {count} resident frames, sw_frames says {}", self.sw_frames[si]),
                );
            }
            frames_total += count as u64;
        }
        if frames_total != self.frames_alive {
            return fail(
                InvariantKind::FrameAccounting,
                format!("{frames_total} resident frames, frames_alive says {}", self.frames_alive),
            );
        }

        // Injection accounting.
        let queued: u64 = self.tx_queue.iter().map(|q| q.len() as u64).sum();
        if queued != self.tx_pending {
            return fail(
                InvariantKind::TxAccounting,
                format!("{queued} worms queued, tx_pending says {}", self.tx_pending),
            );
        }

        // Flit conservation: everything ever put on a wire (injections
        // plus switch transfers) must be ejected, dropped (minus the
        // fault-path re-drops of already-ejected flits), recycled from a
        // buffer, still in a train, or still buffered.
        let n = &self.stats.net;
        let inflow = n.injected_flits + n.link_flits;
        let train_flits = train_flits - counted_in;
        let outflow = n.ejected_flits + (n.flits_dropped - self.audit_redropped)
            + self.audit_freed
            + train_flits
            + buffered_total;
        if inflow != outflow {
            return fail(
                InvariantKind::FlitConservation,
                format!(
                    "injected {} + forwarded {} != ejected {} + dropped {} - redropped {} \
                     + recycled {} + in trains {train_flits} + buffered {buffered_total}",
                    n.injected_flits,
                    n.link_flits,
                    n.ejected_flits,
                    n.flits_dropped,
                    self.audit_redropped,
                    self.audit_freed,
                ),
            );
        }

        // Monotonic per-worm progress across sweeps.
        let mut next = std::collections::HashMap::with_capacity(aud.progress.len());
        for (si, &np) in self.sw_nports.iter().enumerate() {
            for pi in 0..np as usize {
                let g = si * self.pmax + pi;
                let landed_here =
                    if self.doomed(g) { 0 } else { landed_count(&self.trains[g], self.landed) };
                let last = self.sw_in[g].frames.len().wrapping_sub(1);
                for (i, f) in self.sw_in[g].frames.iter().enumerate() {
                    let received = f.received + if i == last { landed_here } else { 0 };
                    let sent: u64 = f.branches.iter().map(|b| b.sent as u64).sum();
                    let key = (si as u16, pi as u8, Arc::as_ptr(&f.worm) as usize, f.born);
                    if let Some(&(pr, pf, ps)) = aud.progress.get(&key) {
                        if received < pr || f.freed < pf || sent < ps {
                            return fail(
                                InvariantKind::WormRegression {
                                    switch: si as u16,
                                    port: pi as u8,
                                },
                                format!(
                                    "received {received} (was {pr}), freed {} (was {pf}), \
                                     sent {sent} (was {ps})",
                                    f.freed
                                ),
                            );
                        }
                    }
                    next.insert(key, (received, f.freed, sent));
                }
            }
        }
        aud.progress = next;
        Ok(())
    }

    // ------------------------------------------------------------------
    // faults
    // ------------------------------------------------------------------

    /// Apply every fault event due at `now`, then schedule the next one.
    fn process_fault_events(&mut self) {
        let Some(mut frt) = self.faults.take() else { return };
        let mut dead_links: Vec<LinkId> = Vec::new();
        let mut dead_switches: Vec<SwitchId> = Vec::new();
        while frt.next < frt.plan.len() && frt.plan[frt.next].at <= self.now {
            let ev = frt.plan[frt.next];
            frt.next += 1;
            let (ls, ss) = frt.status.kill(&self.net.topo, ev.kind);
            dead_links.extend(ls);
            dead_switches.extend(ss);
        }
        if !dead_links.is_empty() || !dead_switches.is_empty() {
            self.apply_faults(&mut frt, &dead_links, &dead_switches);
        }
        if frt.next < frt.plan.len() {
            let at = frt.plan[frt.next].at.max(self.now + 1);
            self.schedule(at, Event::Fault);
        }
        self.faults = Some(frt);
    }

    /// Synchronous fault sweep: mark dead channels/hosts, drop partial
    /// state on the dead components, truncate worm chains that crossed a
    /// dead link, and reconfigure routing over the survivors.
    fn apply_faults(
        &mut self,
        frt: &mut FaultRt,
        links: &[LinkId],
        switches: &[SwitchId],
    ) {
        // 1. Mark dead channels (both ends of each dead link, every port
        //    of each dead switch, the NIs of its hosts) once what already
        //    landed there is counted. Flits still in flight toward them
        //    are dropped as they land.
        let landed = self.landed;
        for &l in links {
            let lk = self.net.topo.link(l);
            for side in 0..2u8 {
                let (s, p) = lk.end(side);
                let g = self.gidx(s.0, p.0);
                self.settle_port(g, landed);
                self.set_drop(g, DropState::Dead);
            }
        }
        for &s in switches {
            for pi in 0..self.net.topo.switch(s).num_ports() {
                let g = self.gidx(s.0, pi as u8);
                self.settle_port(g, landed);
                self.set_drop(g, DropState::Dead);
            }
            for n in self.net.topo.nodes_at(s).iter() {
                let ni = n.idx();
                self.settle_ni(ni, landed);
                self.set_drop(self.nin + ni, DropState::Dead);
                let queued = self.tx_queue[ni].len() as u64;
                if queued > 0 {
                    self.tx_pending -= queued;
                    self.tx_queue[ni].clear();
                    self.tx_sent[ni] = 0;
                }
                self.drop_reassembly(ni);
            }
        }
        // 2. Discard every frame resident on a dead switch. Cascades from
        //    them are no-ops: their outgoing links died with them, so the
        //    downstream channels are already marked dead.
        for &s in switches {
            let si = s.idx();
            for p in 0..self.sw_nports[si] as usize {
                while !self.sw_in[si * self.pmax + p].frames.is_empty() {
                    self.kill_frame_at(si, p, FrameSlot::Front);
                }
            }
        }
        // 3. Newly dead channels into *surviving* switches: an incomplete
        //    back frame there can never finish (its feeder is cut) — kill
        //    it, cascading into whatever strand it was feeding downstream.
        let mut cut: Vec<(usize, usize)> = Vec::new();
        for &l in links {
            let lk = self.net.topo.link(l);
            for side in 0..2u8 {
                let (s, p) = lk.end(side);
                if frt.status.switch_up(s) {
                    cut.push((s.idx(), p.idx()));
                }
            }
        }
        cut.sort_unstable();
        cut.dedup();
        for (si, p) in cut {
            let truncated = self.sw_in[si * self.pmax + p]
                .frames
                .back()
                .is_some_and(|f| f.received < f.total_in);
            if truncated {
                self.kill_frame_at(si, p, FrameSlot::Back);
            }
        }
        // 4. Reconfigure: re-elect the root and recompute the up*/down*
        //    orientation over the survivors. A partition is fatal.
        match self.net.degrade(&frt.status) {
            Ok(d) => frt.degraded = Some(Box::new(d)),
            Err(cause) => {
                self.pending_fatal = Some(SimError::Partitioned { at: self.now, cause });
            }
        }
        // 5. The reconfiguration changed what every resident worm can do
        //    (routes, candidate outputs, freed grants): discard all
        //    parking decisions and let the next sweep re-evaluate.
        self.rearm_all();
    }

    /// Remove the frame at `slot` of switch input `g`, whose frame queue
    /// is `frames` (passed in because the switch phase detaches the port
    /// tables): count in what landed, drop its buffered flits and free
    /// their reservations, and purge the channel when its feeder, still
    /// live, keeps streaming the rest of the worm. Every worm copy that
    /// dies at a switch goes through here; [`Self::kill_frame_at`] then
    /// releases what a front frame held beyond its input.
    fn kill_frame(&mut self, frames: &mut VecDeque<Frame>, g: usize, slot: FrameSlot) -> Frame {
        self.settle_in(frames, g, self.landed);
        let f = match slot {
            FrameSlot::Front => frames.pop_front(),
            FrameSlot::Back => frames.pop_back(),
        }
        .expect("kill on empty port");
        let outstanding = f.received - f.freed;
        self.in_reserved[g] -= outstanding;
        self.stats.net.flits_dropped += u64::from(outstanding);
        self.stats.net.worms_killed += 1;
        self.frames_alive -= 1;
        self.sw_frames[g / self.pmax] -= 1;
        if outstanding > 0 {
            self.credit_freed(g);
        }
        if f.received < f.total_in && !matches!(self.drop[g], DropState::Dead) {
            self.set_drop(g, DropState::Purge);
        }
        f
    }

    /// Kill the frame at `slot` of input `p` of switch `si` (see
    /// [`Self::kill_frame`]). A front frame also releases the outputs it
    /// owned and severs the partial copies its branches were feeding
    /// downstream, recursing down the worm chain; that ends, because a
    /// worm's path never revisits a channel.
    fn kill_frame_at(&mut self, si: usize, p: usize, slot: FrameSlot) {
        let g = self.gidx(si as u16, p as u8);
        let mut frames = std::mem::take(&mut self.sw_in[g].frames);
        let was_front = slot == FrameSlot::Front || frames.len() == 1;
        let f = self.kill_frame(&mut frames, g, slot);
        let revealed = !frames.is_empty();
        self.sw_in[g].frames = frames;
        self.flush_rr(si);
        if !was_front {
            debug_assert!(f.branches.is_empty(), "non-front frame with branches");
            return;
        }
        self.sw_undecoded[si] &= !(1 << p);
        self.sw_waiting[si] &= !(1 << p);
        let base = si * self.pmax;
        for b in &f.branches {
            if let Some(port) = b.port.filter(|_| !b.done) {
                self.sw_out[base + port.idx()].owner = None;
                self.sw_owned[si] &= !(1 << port.idx());
                if self.link_retry.is_some() {
                    // A retry hold left by the dead owner must not delay
                    // the output's next owner.
                    self.out_retry_at[base + port.idx()] = 0;
                    self.out_retry_cnt[base + port.idx()] = 0;
                }
            }
        }
        if revealed {
            self.sw_undecoded[si] |= 1 << p;
        }
        for b in &f.branches {
            if let Some(port) = b.port.filter(|_| !b.done && b.sent > 0) {
                let worm = b.out_worm.clone().expect("granted branch has worm");
                self.sever_downstream(self.out_chan[base + port.idx()] as usize, worm);
            }
        }
    }

    /// Sever the downstream copy of `worm` on channel `ch` (a switch
    /// input or an NI), so that none of its flits still on the wire is
    /// received. If its head has landed, kill the partial copy it opened,
    /// which purges the channel. If the head is still on the wire, mark
    /// its run: the purge starts when it lands, and whatever lands ahead
    /// of it (the tail of the worm before) still counts. Idempotent.
    /// Shared by kill cascades ([`Self::kill_frame_at`]) and transient
    /// link errors ([`Self::apply_transient_faults`]).
    fn sever_downstream(&mut self, ch: usize, worm: Arc<WormCopy>) {
        if matches!(self.drop[ch], DropState::Dead) {
            return; // everything landing there is dropped already
        }
        let resident = match ch.checked_sub(self.nin) {
            None => {
                self.settle_port(ch, self.landed);
                let truncated = self.sw_in[ch]
                    .frames
                    .back()
                    .is_some_and(|f| Arc::ptr_eq(&f.worm, &worm) && f.received < f.total_in);
                if truncated {
                    self.kill_frame_at(ch / self.pmax, ch % self.pmax, FrameSlot::Back);
                }
                truncated
            }
            Some(ni) => {
                self.settle_ni(ni, self.landed);
                let partial =
                    self.rx_current[ni].as_ref().is_some_and(|(w, _, _)| Arc::ptr_eq(w, &worm));
                if partial {
                    self.drop_reassembly(ni);
                    self.set_drop(ch, DropState::Purge);
                }
                partial
            }
        };
        if !resident {
            let head = self.trains[ch]
                .iter_mut()
                .find(|r| r.head.as_ref().is_some_and(|h| Arc::ptr_eq(h, &worm)));
            if let Some(run) = head {
                run.cut = true;
            }
        }
    }

    /// Drop NI `ni`'s partly reassembled worm, if any (its host died, or
    /// the worm was severed): its flits, already counted ejected, count
    /// as dropped too.
    fn drop_reassembly(&mut self, ni: usize) {
        if let Some((_, got, _)) = self.rx_current[ni].take() {
            self.stats.net.flits_dropped += u64::from(got);
            self.audit_redropped += u64::from(got);
            self.stats.net.worms_killed += 1;
        }
    }

    /// End-of-sweep transient-fault resolution: sever the downstream
    /// copies of flits damaged on detection-only links (the receiver's
    /// CRC check caught them), and kill frames whose output exhausted its
    /// link-retry budget (the escalation rung of the recovery ladder).
    /// Deferred to here because the port tables are detached mid-sweep.
    /// Returns true if anything was resolved — that frees resources and
    /// counts as progress for the deadlock watchdog, exactly like a
    /// watchdog recovery.
    fn apply_transient_faults(&mut self) -> bool {
        if self.pending_link_errors.is_empty() && self.pending_retry_kills.is_empty() {
            return false;
        }
        let severs = std::mem::take(&mut self.pending_link_errors);
        for (ch, worm) in severs {
            self.sever_downstream(ch, worm);
        }
        let kills = std::mem::take(&mut self.pending_retry_kills);
        for (sw, p, worm) in kills {
            // A cascade from an earlier sever or kill in this same batch
            // may have already removed the frame; killing blindly would
            // hit the wrong worm (or an empty port).
            let g = self.gidx(sw, p);
            let alive =
                self.sw_in[g].frames.front().is_some_and(|f| Arc::ptr_eq(&f.worm, &worm));
            if alive {
                self.kill_frame_at(sw as usize, p as usize, FrameSlot::Front);
                self.stats.net.retry_exhaustions += 1;
            }
        }
        // Kills and purges freed grants and credits beyond what the
        // normal credit path re-arms: re-list everything with work.
        self.rearm_all();
        true
    }

    /// Recovery mode: kill the youngest resident front frame (latest head
    /// arrival; ties resolve to the lowest switch/port — deterministic).
    /// Returns false if no frame exists to kill (the stall is host-side
    /// and killing nothing would loop forever).
    fn watchdog_recover(&mut self) -> bool {
        let mut best: Option<(usize, usize, Cycle)> = None;
        for si in 0..self.sw_nports.len() {
            for p in 0..self.sw_nports[si] as usize {
                if let Some(f) = self.sw_in[si * self.pmax + p].frames.front() {
                    if best.is_none_or(|(_, _, born)| f.born > born) {
                        best = Some((si, p, f.born));
                    }
                }
            }
        }
        let Some((si, p, _)) = best else { return false };
        self.kill_frame_at(si, p, FrameSlot::Front);
        self.recoveries_used += 1;
        self.stats.net.watchdog_recoveries += 1;
        // The kill released grants and credits well beyond what
        // `credit_freed` traces (cascaded strand kills, freed outputs on
        // this switch): re-list everything with work and re-evaluate.
        self.rearm_all();
        true
    }

    // ------------------------------------------------------------------
    // retransmission
    // ------------------------------------------------------------------

    /// First send of a multicast with retransmission on: record the
    /// source NI and start its delivery timer.
    fn arm_retx(&mut self, idx: u32, node: NodeId) {
        let rt = self.retx.as_mut().expect("retx enabled");
        let i = idx as usize;
        if rt.source.len() <= i {
            rt.source.resize(i + 1, None);
            rt.attempts.resize(i + 1, 0);
            rt.resent.resize(i + 1, NodeMask::default());
        }
        if rt.source[i].is_some() {
            return;
        }
        rt.source[i] = Some(node);
        let delay = rt.policy.next_check_delay(idx, 0);
        self.schedule(self.now + delay, Event::RetxCheck(idx));
    }

    /// Delivery-timeout check: if the multicast still has undelivered
    /// live destinations, re-send to exactly those as unicasts from the
    /// source NI and back off; otherwise (done, dead source, or retry
    /// budget exhausted) let the timer lapse.
    fn process_retx_check(&mut self, idx: u32) {
        let Some(rt) = &self.retx else { return };
        let policy = rt.policy.clone();
        let i = idx as usize;
        let attempt = rt.attempts[i];
        let source = rt.source[i];
        let id = self.stats.mcasts.id_at(idx);
        let Some(rec) = self.stats.mcasts.rec_at(idx) else { return };
        if rec.completed.is_some() {
            return;
        }
        let expected = rec.expected.clone();
        let mut missing: Vec<NodeId> = Vec::new();
        for nd in expected.iter() {
            if !self.stats.is_delivered(id, nd) && !self.host_dead(nd.idx()) {
                missing.push(nd);
            }
        }
        if missing.is_empty() {
            return; // everything still alive got it; dead dests are lost
        }
        let Some(src) = source else { return };
        if self.host_dead(src.idx()) || attempt >= policy.max_retries {
            return; // give up: the run ends with delivery_ratio < 1
        }
        {
            let rt = self.retx.as_mut().expect("retx enabled");
            rt.attempts[i] = attempt + 1;
            // Remember who this round re-covers: a later first delivery to
            // one of these destinations is an end-to-end recovery.
            for dest in &missing {
                rt.resent[i].insert(*dest);
            }
        }
        self.stats.net.retransmissions += missing.len() as u64;
        let total_pkts = self.mcasts[i].total_pkts;
        let dur = self.cfg.o_ni_per_packet();
        for dest in missing {
            // A truncated earlier copy may have partially reassembled at
            // the destination; the retransmission restarts that count.
            let r = &mut self.reassembly[dest.idx()];
            if r.len() > i {
                r[i] = 0;
            }
            for pkt in 0..total_pkts {
                for w in self.make_worms(id, &SendSpec::Unicast { dest }, pkt) {
                    if let Some(c) = self.host_ni[src.idx()].enqueue(NiTask::Tx(w), dur, self.now)
                    {
                        self.schedule(c, Event::NiDone(src.0));
                    }
                }
            }
        }
        let at = self.now + policy.next_check_delay(idx, attempt + 1);
        self.schedule(at, Event::RetxCheck(idx));
    }
}
