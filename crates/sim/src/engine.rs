//! The discrete-event simulation engine.
//!
//! The engine advances a global clock, but it only *executes* a network
//! sweep (deliver arrivals, let hosts inject, let each switch decode /
//! arbitrate / transfer) on cycles where some component can possibly make
//! progress. Everything else is skipped: each switch and host either sits
//! on the hot `active_sw`/`active_tx` lists (swept every executed cycle),
//! parks with a `SwitchWake`/`HostWake` entry on the event heap
//! (self-timed work such as a pending routing decode), or
//! parks with *no* wake at all and is re-armed by whichever component
//! frees the resource it blocks on — a flit arrival, a returned buffer
//! credit, a fault kill, or a watchdog recovery. Between executed sweeps
//! the clock jumps straight to the earliest of: the heap front, the next
//! occupied arrival-calendar slot, the watchdog deadline, or the run
//! limit. See DESIGN.md §7 for the wake-graph rules and the equivalence
//! argument against the stepping loop (`set_full_scan` keeps that loop
//! alive as an oracle).
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
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Where a flit is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SinkRef {
    /// A switch input port.
    SwIn { sw: u16, port: u8 },
    /// A host NI's receive side.
    Ni { node: u16 },
}

/// What travels on the wire. The head flit carries the worm descriptor;
/// body flits are anonymous (channels are FIFO and carry one worm at a
/// time, so counting suffices).
#[derive(Debug, Clone)]
enum FlitPayload {
    Head(Arc<WormCopy>),
    Body,
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

/// Which end of an input-port frame queue to kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FrameSlot {
    Front,
    Back,
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

/// Outcome of one switch sweep: whether any flit moved, and the earliest
/// future cycle a pending decode becomes ready — the only self-timed wake
/// a switch needs (everything else it waits on is re-armed externally by
/// arrivals, credits, or kills).
struct SweepOut {
    moved: bool,
    next_decode: Option<Cycle>,
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
    // `in_reserved`/`out_sink`), the scalars and activity masks are one
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
    /// Sink behind each switch output port (global index); `None` = open.
    out_sink: Vec<Option<SinkRef>>,
    /// Directed-link stat index behind each switch output port
    /// (`link_id * 2 + side`); `None` for host/open ports.
    out_dir_link: Vec<Option<u32>>,
    /// Sink for each host's injection link.
    inject_sink: Vec<SinkRef>,
    /// Widest switch (ports) — stride for global port indices.
    pmax: usize,
    /// Arrival calendar ring, indexed by `cycle % ring.len()`.
    ring: Vec<Vec<(SinkRef, FlitPayload)>>,
    /// Ring slot of the cycle being executed (`now % ring.len()`),
    /// refreshed once per `network_cycle` so per-flit pushes index the
    /// ring with an add-and-wrap instead of a 64-bit division.
    cur_slot: usize,
    /// Arrival cycle of the flits in each ring slot (meaningful only
    /// while the slot is non-empty): the auditor's jump-boundary check
    /// that the clock never skips past a due arrival.
    ring_stamp: Vec<Cycle>,
    /// Spare buffer rotated through ring slots so their capacity
    /// survives the per-cycle drain (no reallocation at steady state).
    ring_scratch: Vec<(SinkRef, FlitPayload)>,
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
    /// Installed fault plan, if any. `None` keeps every fault check off
    /// the per-flit hot path (healthy runs are byte-identical to builds
    /// without fault support).
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
    /// to save them: `(downstream sink, worm)` pairs severed at the end
    /// of the sweep (the port tables are detached mid-sweep, so the
    /// purge/kill machinery cannot run inline).
    pending_link_errors: Vec<(SinkRef, Arc<WormCopy>)>,
    /// Frames whose output exhausted its link-retry budget this sweep:
    /// `(switch, input port, worm)` killed at the end of the sweep. The
    /// worm identifies the frame so a cascade from an earlier kill in
    /// the same batch can't redirect the kill onto an innocent frame.
    pending_retry_kills: Vec<(u16, u8, Arc<WormCopy>)>,
    /// Per input channel (global index): true once the feeding link or
    /// the owning switch died. Arrivals there are dropped.
    dead_in: Vec<bool>,
    /// Per node: true once its switch died.
    dead_host: Vec<bool>,
    /// Per input channel: worm whose remaining in-flight flits must be
    /// swallowed on arrival (its downstream frame was killed while the
    /// feeder keeps streaming). Cleared by the next foreign head.
    purge_in: Vec<Option<Arc<WormCopy>>>,
    /// Same, per NI receive side.
    purge_ni: Vec<Option<Arc<WormCopy>>>,
    /// Count of set purge markers — gates the arrival-path checks.
    purge_active: u32,
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
        let mut out_sink = vec![None; ns * pmax];
        let mut out_dir_link = vec![None; ns * pmax];
        for (sid, sw) in net.topo.switches() {
            for (pi, pu) in sw.ports.iter().enumerate() {
                out_sink[sid.idx() * pmax + pi] = match pu {
                    PortUse::Open => None,
                    PortUse::Host(n) => Some(SinkRef::Ni { node: n.0 }),
                    PortUse::Link { link, side } => {
                        let l = net.topo.link(*link);
                        let (ps, pp) = l.end(1 - side);
                        out_dir_link[sid.idx() * pmax + pi] =
                            Some(link.0 * 2 + *side as u32);
                        Some(SinkRef::SwIn { sw: ps.0, port: pp.0 })
                    }
                };
            }
        }
        let inject_sink: Vec<SinkRef> = net
            .topo
            .hosts()
            .map(|(_, h)| SinkRef::SwIn { sw: h.switch.0, port: h.port.0 })
            .collect();
        let ring_len = (cfg.crossbar_delay + cfg.link_delay + 2) as usize;
        let mut feeder_in = vec![Feeder::None; ns * pmax];
        for (g, sink) in out_sink.iter().enumerate() {
            if let Some(SinkRef::SwIn { sw, port }) = sink {
                feeder_in[*sw as usize * pmax + *port as usize] =
                    Feeder::Switch((g / pmax) as u16);
            }
        }
        for (n, sink) in inject_sink.iter().enumerate() {
            let SinkRef::SwIn { sw, port } = *sink else { unreachable!() };
            feeder_in[sw as usize * pmax + port as usize] = Feeder::Host(n as u16);
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
            out_sink,
            out_dir_link,
            inject_sink,
            pmax,
            ring: (0..ring_len).map(|_| Vec::new()).collect(),
            cur_slot: 0,
            ring_stamp: vec![0; ring_len],
            ring_scratch: Vec::new(),
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
            dead_in: vec![false; ns * pmax],
            dead_host: vec![false; nh],
            purge_in: vec![None; ns * pmax],
            purge_ni: vec![None; nh],
            purge_active: 0,
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

    /// Live link/switch status of the installed fault plan, if any.
    pub fn fault_status(&self) -> Option<&FaultStatus> {
        self.faults.as_ref().map(|f| &f.status)
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

    /// Whether this simulator audits its invariants each sweep.
    pub fn audit_enabled(&self) -> bool {
        self.audit.is_some()
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

    /// Back-date the arrival stamp of the earliest occupied calendar
    /// slot by one cycle, returning the cycle the flits are actually due
    /// — a test-only lever emulating an off-by-one scheduler that jumps
    /// past a pending arrival. Every audit *before* that cycle still
    /// passes; only the trailing-edge audit of a jump landing on it can
    /// observe the staleness (the sweep would drain the slot first).
    #[doc(hidden)]
    pub fn backdate_next_arrival(&mut self) -> Option<Cycle> {
        let len = self.ring.len() as u64;
        for d in 1..len {
            let due = self.now + d;
            let idx = (due % len) as usize;
            if !self.ring[idx].is_empty() {
                self.ring_stamp[idx] = due - 1;
                return Some(due);
            }
        }
        None
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
                match ev {
                    // Wakes only re-list components; they are bookkeeping,
                    // not progress, so they don't feed the watchdog.
                    Event::SwitchWake(s) => {
                        let si = s as usize;
                        if self.sw_wake_at[si] == c {
                            self.sw_wake_at[si] = u64::MAX;
                        }
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
                    ev => {
                        self.process_event(ev);
                        processed_any = true;
                    }
                }
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
                // earlier). Discard wakes, then jump to the first real
                // event.
                loop {
                    match self.heap.peek().copied() {
                        Some(Reverse((c, _, Event::SwitchWake(s)))) => {
                            self.heap.pop();
                            if self.sw_wake_at[s as usize] == c {
                                self.sw_wake_at[s as usize] = u64::MAX;
                            }
                        }
                        Some(Reverse((c, _, Event::HostWake(n)))) => {
                            self.heap.pop();
                            if self.tx_wake_at[n as usize] == c {
                                self.tx_wake_at[n as usize] = u64::MAX;
                            }
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
            // next occupied arrival slot, or the watchdog deadline.
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
    /// carried over the gap, the trailing edge checks nothing became due
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

    /// Earliest future cycle with a flit due to arrive, if any. O(ring
    /// length) worst case, but consulted only when both active lists are
    /// empty — and every occupied slot it skips is a cycle the clock will
    /// jump over entirely.
    fn next_arrival_cycle(&self) -> Option<Cycle> {
        if self.wire_flits == 0 {
            return None;
        }
        let len = self.ring.len() as u64;
        for d in 1..len {
            let idx = ((self.now + d) % len) as usize;
            if !self.ring[idx].is_empty() {
                return Some(self.now + d);
            }
        }
        debug_assert!(false, "wire_flits > 0 with an empty arrival calendar");
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

    /// The statistics, with resource-utilization counters folded in.
    /// Borrows instead of cloning (sweeps call this once per trial, and
    /// the per-mcast tables can be large); the fold overwrites, so
    /// calling repeatedly is idempotent.
    pub fn stats(&mut self) -> &SimStats {
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

    fn can_accept(&self, sink: SinkRef) -> bool {
        match sink {
            SinkRef::SwIn { sw, port } => {
                self.in_reserved[self.gidx(sw, port)] < self.cfg.input_buffer_flits
            }
            SinkRef::Ni { .. } => true,
        }
    }

    fn reserve(&mut self, sink: SinkRef) {
        if let SinkRef::SwIn { sw, port } = sink {
            let g = self.gidx(sw, port);
            self.in_reserved[g] += 1;
            if self.in_reserved[g] > self.stats.net.max_buffer_occupancy {
                self.stats.net.max_buffer_occupancy = self.in_reserved[g];
            }
        }
    }

    /// Only callable from within `network_cycle` (relies on `cur_slot`
    /// being the slot of `self.now`).
    #[inline]
    fn push_flit(&mut self, at: Cycle, sink: SinkRef, payload: FlitPayload) {
        debug_assert!(at > self.now && at < self.now + self.ring.len() as u64);
        let mut idx = self.cur_slot + (at - self.now) as usize;
        if idx >= self.ring.len() {
            idx -= self.ring.len();
        }
        self.ring[idx].push((sink, payload));
        self.ring_stamp[idx] = at;
        self.wire_flits += 1;
    }

    fn enqueue_host_send(&mut self, node: NodeId, mcast: McastId, spec: SendSpec) {
        if self.dead_host[node.idx()] {
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

    fn process_event(&mut self, ev: Event) {
        match ev {
            // Wakes are intercepted in `run_until`'s drain loop (they
            // need the phase context there); reaching here is a bug.
            Event::SwitchWake(_) | Event::HostWake(_) => {
                unreachable!("wake events are handled in run_until")
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
                if self.dead_host[n as usize] {
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
                if self.dead_host[n as usize] {
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
                if self.dead_host[n as usize] {
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
        // The slot is swapped against a scratch buffer (not `take`n) so
        // its capacity survives the drain; nothing lands in the current
        // slot during the cycle (`push_flit` targets strictly future
        // cycles within the ring span).
        let idx = (t % self.ring.len() as u64) as usize;
        self.cur_slot = idx;
        let mut arrivals =
            std::mem::replace(&mut self.ring[idx], std::mem::take(&mut self.ring_scratch));
        // Hoisted fault-path gate: nothing during the arrivals drain can
        // install a plan, kill a channel, or plant a purge marker (those
        // happen only in event processing), so one register-resident test
        // per flit is all a healthy run pays.
        let fault_path = self.faults.is_some() || self.purge_active > 0;
        for (sink, payload) in arrivals.drain(..) {
            self.wire_flits -= 1;
            moved = true;
            match sink {
                SinkRef::SwIn { sw, port } => {
                    // Fault path (gated off entirely on healthy runs):
                    // flits landing on a dead channel vanish; flits of a
                    // killed worm's truncated tail are swallowed until
                    // the channel's next foreign head.
                    if fault_path {
                        let g = self.gidx(sw, port);
                        if self.dead_in[g] {
                            self.stats.net.flits_dropped += 1;
                            self.in_reserved[g] -= 1;
                            self.credit_freed(g);
                            continue;
                        }
                        if let Some(mark) = &self.purge_in[g] {
                            let stale = match &payload {
                                FlitPayload::Head(w) => Arc::ptr_eq(w, mark),
                                FlitPayload::Body => true,
                            };
                            if stale {
                                self.stats.net.flits_dropped += 1;
                                self.in_reserved[g] -= 1;
                                self.credit_freed(g);
                                continue;
                            }
                            self.purge_in[g] = None;
                            self.purge_active -= 1;
                        }
                    }
                    match payload {
                        FlitPayload::Head(w) => {
                            let mut f = Frame::new(w);
                            f.received = 1;
                            f.born = t;
                            if f.received == f.header_in {
                                f.header_done_at = Some(t);
                            }
                            let g = self.gidx(sw, port);
                            let q = &mut self.sw_in[g].frames;
                            q.push_back(f);
                            if q.len() == 1 {
                                // Became the port's front frame: decode pending.
                                self.sw_undecoded[sw as usize] |= 1 << port;
                            }
                            self.frames_alive += 1;
                            self.sw_frames[sw as usize] += 1;
                            if self.sw_frames[sw as usize] == 1 {
                                // First frame after an empty spell: the
                                // stepping loop skipped this switch while
                                // it held nothing, so no arbitration
                                // advances are owed (see the rr catch-up
                                // in the switch sweep).
                                self.sw_rr_base[sw as usize] = t;
                            }
                            self.activate_sw(sw as usize);
                        }
                        FlitPayload::Body => {
                            let g = self.gidx(sw, port);
                            let f = self.sw_in[g]
                                .frames
                                .back_mut()
                                .expect("body flit with no frame");
                            f.received += 1;
                            if f.received == f.header_in {
                                f.header_done_at = Some(t);
                            }
                            debug_assert!(f.received <= f.total_in);
                            // A parked switch may be waiting on exactly
                            // this flit (header completion or transfer
                            // availability): re-list it for this sweep.
                            self.activate_sw(sw as usize);
                        }
                    }
                }
                SinkRef::Ni { node } => {
                    if fault_path {
                        let ni = node as usize;
                        if self.dead_host[ni] {
                            self.stats.net.flits_dropped += 1;
                            continue;
                        }
                        if let Some(mark) = &self.purge_ni[ni] {
                            let stale = match &payload {
                                FlitPayload::Head(w) => Arc::ptr_eq(w, mark),
                                FlitPayload::Body => true,
                            };
                            if stale {
                                self.stats.net.flits_dropped += 1;
                                continue;
                            }
                            self.purge_ni[ni] = None;
                            self.purge_active -= 1;
                        }
                    }
                    self.stats.net.ejected_flits += 1;
                    let rx = &mut self.rx_current[node as usize];
                    let complete = match payload {
                        FlitPayload::Head(w) => {
                            debug_assert!(rx.is_none(), "interleaved worms at NI");
                            let total = w.total_flits();
                            if total == 1 {
                                Some(w)
                            } else {
                                *rx = Some((w, 1, total));
                                None
                            }
                        }
                        FlitPayload::Body => {
                            let (_, got, total) = rx.as_mut().expect("body with no worm");
                            *got += 1;
                            if got == total {
                                let (w, _, _) = rx.take().unwrap();
                                Some(w)
                            } else {
                                None
                            }
                        }
                    };
                    if let Some(w) = complete {
                        self.emit(TraceEvent::PacketAtNi {
                            node: NodeId(node),
                            mcast: w.mcast,
                            pkt: w.pkt,
                        });
                        self.stats.net.packets_received += 1;
                        let pend = &mut self.ni_rx_pending[node as usize];
                        *pend += 1;
                        if *pend > self.stats.net.max_ni_rx_queue {
                            self.stats.net.max_ni_rx_queue = *pend;
                        }
                        // O_{r,ni} per message; later packets pay only
                        // per-packet handling.
                        let rx_dur = if w.pkt == 0 {
                            self.cfg.o_recv_ni
                        } else {
                            self.cfg.o_ni_per_packet()
                        };
                        if let Some(c) =
                            self.host_ni[node as usize].enqueue(NiTask::Rx(w), rx_dur, self.now)
                        {
                            self.schedule(c, Event::NiDone(node));
                        }
                    }
                }
            }
        }
        self.ring_scratch = arrivals;

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
        // next self-timed decode cycle, and otherwise waits for whoever
        // frees the resource it is blocked on.
        // The port tables are detached from `self` for the duration (an
        // O(1) pointer swap of the whole flat array): a switch never
        // writes another switch's ports directly — flits travel through
        // the arrival ring, and credit accounting lives in the separate
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
                }
            }
            self.sw_cursor = usize::MAX;
        }
        self.sw_in = sw_in;
        self.sw_out = sw_out;
        moved
    }

    /// Move one flit of `node`'s front queued worm onto its injection
    /// link, if the downstream buffer accepts. Returns true on a move.
    fn inject_from(&mut self, node: usize, t: Cycle) -> bool {
        let sink = self.inject_sink[node];
        if !self.can_accept(sink) {
            return false;
        }
        let payload = if self.tx_sent[node] == 0 {
            let front = self.tx_queue[node].front().expect("checked nonempty");
            self.tx_total[node] = front.total_flits();
            FlitPayload::Head(front.clone())
        } else {
            FlitPayload::Body
        };
        self.tx_sent[node] += 1;
        if self.tx_sent[node] == self.tx_total[node] {
            self.tx_queue[node].pop_front();
            self.tx_sent[node] = 0;
            self.tx_pending -= 1;
        }
        self.reserve(sink);
        self.push_flit(t + self.cfg.link_delay, sink, payload);
        self.stats.net.injected_flits += 1;
        true
    }

    /// Decode, arbitrate, transfer for one switch. `sw_in`/`sw_out` are
    /// the whole port tables, temporarily detached from `self` (no
    /// self-links, so no aliasing with the sinks this switch transmits
    /// into). Besides the moved flag, reports the earliest future cycle a
    /// pending decode becomes ready (the only *self-timed* work a switch
    /// has — everything else it waits on is re-armed by the component
    /// supplying it).
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
            let f = sw_in[base + p]
                .frames
                .front_mut()
                .expect("undecoded bit without front frame");
            debug_assert!(!f.decoded);
            // No `header_done_at` yet: the arrival completing the header
            // re-lists this switch, so no timer is needed.
            let Some(hd) = f.header_done_at else { continue };
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
                self.sw_undecoded[si] &= !(1 << p);
                self.discard_undecoded_front(si, sw_in, p);
                moved = true;
                continue;
            }
            self.stats.net.replications += branches.len().saturating_sub(1) as u64;
            let f = sw_in[base + p]
                .frames
                .front_mut()
                .expect("undecoded bit without front frame");
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
            let f = sw_in[base + p as usize]
                .frames
                .front_mut()
                .expect("owner without head frame");
            let b = &mut f.branches[bi as usize];
            debug_assert_eq!(b.port, Some(PortIdx(o as u8)));
            debug_assert!(!b.done);
            // Flit availability in the source frame.
            let available = if b.sent < b.out_header() {
                true // header fully present (decode implies it)
            } else {
                f.received > f.header_in + (b.sent - b.out_header())
            };
            if !available {
                continue;
            }
            let sink = self.out_sink[base + o].expect("branch granted to open port");
            if !self.can_accept(sink) {
                continue;
            }
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
                        self.pending_link_errors.push((
                            sink,
                            b.out_worm.clone().expect("granted branch has worm"),
                        ));
                    } else if retry_on {
                        // A clean transfer ends any escalation streak.
                        self.out_retry_cnt[base + o] = 0;
                    }
                }
            }
            let payload = if b.sent == 0 {
                FlitPayload::Head(b.out_worm.clone().expect("granted branch has worm"))
            } else {
                FlitPayload::Body
            };
            b.sent += 1;
            if b.sent == b.out_total() {
                b.done = true;
                sw_out[base + o].owner = None;
                self.sw_owned[si] &= !(1 << o);
            }
            let (freed, frame_done) = f.advance();
            if frame_done {
                debug_assert_eq!(f.received, f.total_in);
                debug_assert_eq!(f.freed, f.total_in);
                let q = &mut sw_in[base + p as usize].frames;
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
                let g = base + p as usize;
                self.in_reserved[g] -= freed;
                self.audit_freed += freed as u64;
                self.credit_freed(g);
            }
            self.reserve(sink);
            self.push_flit(
                t + self.cfg.crossbar_delay + self.cfg.link_delay,
                sink,
                payload,
            );
            self.stats.net.link_flits += 1;
            if let Some(d) = self.out_dir_link[base + o] {
                self.stats.link_flits_per_dir[d as usize] += 1;
            }
            moved = true;
        }
        SweepOut { moved, next_decode }
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

        // Arrival-calendar freshness: no occupied slot may be *overdue*
        // (stamped for a cycle earlier than `now`). During stepped
        // execution this can't happen — the due slot drains every cycle —
        // so the check exists for clock jumps: `advance_clock` audits
        // both edges of a jump, and a scheduler bug that jumped past a
        // pending arrival is caught here at the trailing edge, before
        // any sweep could quietly drain the evidence.
        let mut ring_flits: u64 = 0;
        for (i, slot) in self.ring.iter().enumerate() {
            ring_flits += slot.len() as u64;
            if !slot.is_empty() && self.ring_stamp[i] < self.now {
                return fail(
                    InvariantKind::StaleArrival,
                    format!(
                        "slot {i} holds {} flits due at cycle {}, but the clock is at {}",
                        slot.len(),
                        self.ring_stamp[i],
                        self.now
                    ),
                );
            }
        }

        // Wire conservation: the ring holds exactly `wire_flits` flits.
        if ring_flits != self.wire_flits {
            return fail(
                InvariantKind::WireConservation,
                format!("ring holds {ring_flits} flits, wire_flits says {}", self.wire_flits),
            );
        }

        // In-flight flits per switch input channel (one ring scan).
        let mut inflight = vec![0u32; self.in_reserved.len()];
        for slot in &self.ring {
            for (sink, _) in slot {
                if let SinkRef::SwIn { sw, port } = sink {
                    inflight[self.gidx(*sw, *port)] += 1;
                }
            }
        }

        // Per-switch buffer and frame accounting.
        let mut frames_total = 0u64;
        let mut buffered_total = 0u64;
        for (si, &np) in self.sw_nports.iter().enumerate() {
            let mut count = 0u32;
            for pi in 0..np as usize {
                let g = self.gidx(si as u16, pi as u8);
                let mut buffered = 0u32;
                for f in self.sw_in[g].frames.iter() {
                    if f.received > f.total_in || f.freed > f.received {
                        return fail(
                            InvariantKind::FrameAccounting,
                            format!(
                                "S{si} p{pi}: frame freed {} / received {} / total {}",
                                f.freed, f.received, f.total_in
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
                    buffered += f.received - f.freed;
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
                if self.in_reserved[g] != buffered + inflight[g] {
                    return fail(
                        InvariantKind::OccupancyConservation {
                            switch: si as u16,
                            port: pi as u8,
                        },
                        format!(
                            "reserved {} != buffered {} + in-flight {}",
                            self.in_reserved[g], buffered, inflight[g]
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
        // buffer, still on a wire, or still buffered.
        let n = &self.stats.net;
        let inflow = n.injected_flits + n.link_flits;
        let outflow = n.ejected_flits + (n.flits_dropped - self.audit_redropped)
            + self.audit_freed
            + self.wire_flits
            + buffered_total;
        if inflow != outflow {
            return fail(
                InvariantKind::FlitConservation,
                format!(
                    "injected {} + forwarded {} != ejected {} + dropped {} - redropped {} \
                     + recycled {} + wire {} + buffered {buffered_total}",
                    n.injected_flits,
                    n.link_flits,
                    n.ejected_flits,
                    n.flits_dropped,
                    self.audit_redropped,
                    self.audit_freed,
                    self.wire_flits
                ),
            );
        }

        // Monotonic per-worm progress across sweeps.
        let mut next = std::collections::HashMap::with_capacity(aud.progress.len());
        for (si, &np) in self.sw_nports.iter().enumerate() {
            for pi in 0..np as usize {
                for f in self.sw_in[si * self.pmax + pi].frames.iter() {
                    let sent: u64 = f.branches.iter().map(|b| b.sent as u64).sum();
                    let key = (si as u16, pi as u8, Arc::as_ptr(&f.worm) as usize, f.born);
                    if let Some(&(pr, pf, ps)) = aud.progress.get(&key) {
                        if f.received < pr || f.freed < pf || sent < ps {
                            return fail(
                                InvariantKind::WormRegression {
                                    switch: si as u16,
                                    port: pi as u8,
                                },
                                format!(
                                    "received {} (was {pr}), freed {} (was {pf}), \
                                     sent {sent} (was {ps})",
                                    f.received, f.freed
                                ),
                            );
                        }
                    }
                    next.insert(key, (f.received, f.freed, sent));
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
        // 1. Mark dead input channels (both ends of each dead link, every
        //    port of each dead switch) and dead hosts. Flits already in
        //    flight toward them are dropped lazily on arrival.
        for &l in links {
            let lk = self.net.topo.link(l);
            for side in 0..2u8 {
                let (s, p) = lk.end(side);
                let g = self.gidx(s.0, p.0);
                self.dead_in[g] = true;
            }
        }
        for &s in switches {
            for pi in 0..self.net.topo.switch(s).num_ports() {
                let g = self.gidx(s.0, pi as u8);
                self.dead_in[g] = true;
            }
            for n in self.net.topo.nodes_at(s).iter() {
                let ni = n.idx();
                self.dead_host[ni] = true;
                let queued = self.tx_queue[ni].len() as u64;
                if queued > 0 {
                    self.tx_pending -= queued;
                    self.tx_queue[ni].clear();
                    self.tx_sent[ni] = 0;
                }
                if let Some((_, got, _)) = self.rx_current[ni].take() {
                    self.stats.net.flits_dropped += got as u64;
                    self.audit_redropped += got as u64;
                    self.stats.net.worms_killed += 1;
                }
            }
        }
        // 2. Discard every frame resident on a dead switch. Cascades from
        //    them are no-ops: their outgoing links died with them, so the
        //    downstream channels are already marked dead.
        for &s in switches {
            let si = s.idx();
            for p in 0..self.sw_nports[si] as usize {
                while !self.sw_in[si * self.pmax + p].frames.is_empty() {
                    self.kill_frame_at(si, p, FrameSlot::Front, false);
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
                self.kill_frame_at(si, p, FrameSlot::Back, false);
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

    /// Remove one frame from input `p` of switch `si`: release its buffer
    /// reservations and output grants, and chase down the partial copies
    /// it was feeding downstream. `purge_feeder` marks the channel so the
    /// (live) feeder's remaining in-flight flits are swallowed on
    /// arrival; pass false when the feeder is dead or is the caller.
    fn kill_frame_at(&mut self, si: usize, p: usize, slot: FrameSlot, purge_feeder: bool) {
        let g = self.gidx(si as u16, p as u8);
        let q = &mut self.sw_in[g].frames;
        let was_front = match slot {
            FrameSlot::Front => true,
            FrameSlot::Back => q.len() == 1,
        };
        let f = match slot {
            FrameSlot::Front => q.pop_front(),
            FrameSlot::Back => q.pop_back(),
        }
        .expect("kill on empty port");
        let outstanding = f.received - f.freed;
        self.in_reserved[g] -= outstanding;
        self.stats.net.flits_dropped += outstanding as u64;
        self.stats.net.worms_killed += 1;
        self.frames_alive -= 1;
        self.sw_frames[si] -= 1;
        self.flush_rr(si);
        if outstanding > 0 {
            self.credit_freed(g);
        }
        if purge_feeder && f.received < f.total_in && !self.dead_in[g] {
            if self.purge_in[g].is_none() {
                self.purge_active += 1;
            }
            self.purge_in[g] = Some(f.worm.clone());
        }
        if was_front {
            self.sw_undecoded[si] &= !(1 << p);
            self.sw_waiting[si] &= !(1 << p);
            for b in &f.branches {
                if let Some(port) = b.port {
                    if !b.done {
                        self.sw_out[si * self.pmax + port.idx()].owner = None;
                        self.sw_owned[si] &= !(1 << port.idx());
                        if self.link_retry.is_some() {
                            // A retry hold left by the dead owner must not
                            // delay the output's next owner.
                            self.out_retry_at[si * self.pmax + port.idx()] = 0;
                            self.out_retry_cnt[si * self.pmax + port.idx()] = 0;
                        }
                    }
                }
            }
            if !self.sw_in[g].frames.is_empty() {
                self.sw_undecoded[si] |= 1 << p;
            }
            for b in &f.branches {
                if b.port.is_some() && !b.done && b.sent > 0 {
                    self.cascade_strand(si, b);
                }
            }
        } else {
            debug_assert!(f.branches.is_empty(), "non-front frame with branches");
        }
    }

    /// A killed frame had started transmitting on `b`: the partial copy
    /// downstream can never finish. Mark its channel for purge (drops the
    /// flits still in flight plus the head if it hasn't landed) and, if
    /// the partial frame already exists, kill it too — recursing down the
    /// worm chain. Terminates: a worm's path never revisits a channel.
    fn cascade_strand(&mut self, si: usize, b: &crate::switch::Branch) {
        let port = b.port.expect("cascade on ungranted branch");
        let Some(sink) = self.out_sink[self.gidx(si as u16, port.0)] else { return };
        let worm = b.out_worm.as_ref().expect("granted branch has worm").clone();
        self.sever_downstream(sink, worm);
    }

    /// Sever the downstream copy of `worm` behind `sink`: mark the
    /// channel for purge (in-flight flits are swallowed on arrival) and
    /// kill the partial frame there if it already exists, recursing down
    /// the worm chain. Idempotent — re-severing an already-purged channel
    /// is a no-op. Shared by fault cascades ([`Self::cascade_strand`])
    /// and transient link errors ([`Self::apply_transient_faults`]).
    fn sever_downstream(&mut self, sink: SinkRef, worm: Arc<WormCopy>) {
        match sink {
            SinkRef::SwIn { sw, port: p2 } => {
                let g2 = self.gidx(sw, p2);
                if self.dead_in[g2] {
                    return; // arrivals there are dropped wholesale
                }
                if self.purge_in[g2].is_none() {
                    self.purge_active += 1;
                }
                self.purge_in[g2] = Some(worm.clone());
                let truncated = self.sw_in[g2]
                    .frames
                    .back()
                    .is_some_and(|bf| Arc::ptr_eq(&bf.worm, &worm) && bf.received < bf.total_in);
                if truncated {
                    self.kill_frame_at(sw as usize, p2 as usize, FrameSlot::Back, false);
                }
            }
            SinkRef::Ni { node } => {
                let ni = node as usize;
                if self.dead_host[ni] {
                    return;
                }
                if self.purge_ni[ni].is_none() {
                    self.purge_active += 1;
                }
                self.purge_ni[ni] = Some(worm.clone());
                let matches = self.rx_current[ni]
                    .as_ref()
                    .is_some_and(|(w, _, _)| Arc::ptr_eq(w, &worm));
                if matches {
                    let (_, got, _) = self.rx_current[ni].take().expect("checked");
                    self.stats.net.flits_dropped += got as u64;
                    self.audit_redropped += got as u64;
                    self.stats.net.worms_killed += 1;
                }
            }
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
        for (sink, worm) in severs {
            self.sever_downstream(sink, worm);
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
                self.kill_frame_at(sw as usize, p as usize, FrameSlot::Front, true);
                self.stats.net.retry_exhaustions += 1;
            }
        }
        // Kills and purges freed grants and credits beyond what the
        // normal credit path re-arms: re-list everything with work.
        self.rearm_all();
        true
    }

    /// Discard the (undecoded, branchless) front frame of port `p` of
    /// switch `si` — the fault-masked decode found it nowhere to go.
    /// Mirrors `kill_frame_at` but works on the detached port table.
    fn discard_undecoded_front(&mut self, si: usize, sw_in: &mut [InPort], p: usize) {
        let g = self.gidx(si as u16, p as u8);
        let f = sw_in[g].frames.pop_front().expect("discard on empty port");
        debug_assert!(f.branches.is_empty());
        let outstanding = f.received - f.freed;
        self.in_reserved[g] -= outstanding;
        self.stats.net.flits_dropped += outstanding as u64;
        self.stats.net.worms_killed += 1;
        self.frames_alive -= 1;
        self.sw_frames[si] -= 1;
        if outstanding > 0 {
            self.credit_freed(g);
        }
        if f.received < f.total_in && !self.dead_in[g] {
            // The (live) feeder keeps streaming this worm: swallow the
            // rest on arrival.
            if self.purge_in[g].is_none() {
                self.purge_active += 1;
            }
            self.purge_in[g] = Some(f.worm.clone());
        }
        if !sw_in[g].frames.is_empty() {
            self.sw_undecoded[si] |= 1 << p;
        }
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
        self.kill_frame_at(si, p, FrameSlot::Front, true);
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
            if !self.stats.is_delivered(id, nd) && !self.dead_host[nd.idx()] {
                missing.push(nd);
            }
        }
        if missing.is_empty() {
            return; // everything still alive got it; dead dests are lost
        }
        let Some(src) = source else { return };
        if self.dead_host[src.idx()] || attempt >= policy.max_retries {
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
        let info = self.mcasts[i].clone();
        let dur = self.cfg.o_ni_per_packet();
        for dest in missing {
            // A truncated earlier copy may have partially reassembled at
            // the destination; the retransmission restarts that count.
            let r = &mut self.reassembly[dest.idx()];
            if r.len() > i {
                r[i] = 0;
            }
            for pkt in 0..info.total_pkts {
                let w = Arc::new(WormCopy {
                    mcast: id,
                    pkt,
                    total_pkts: info.total_pkts,
                    payload_flits: self.cfg.packet_payload(info.message_flits, pkt),
                    header_flits: self.cfg.unicast_header_flits,
                    phase: Phase::Up,
                    route: RouteInfo::Unicast { dest },
                });
                if let Some(c) =
                    self.host_ni[src.idx()].enqueue(NiTask::Tx(w), dur, self.now)
                {
                    self.schedule(c, Event::NiDone(src.0));
                }
            }
        }
        let at = self.now + policy.next_check_delay(idx, attempt + 1);
        self.schedule(at, Event::RetxCheck(idx));
    }
}
