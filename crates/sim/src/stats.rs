//! Measurement collection: per-multicast latencies plus network counters.
//!
//! Hot-path storage is dense: multicast ids are interned to sequential
//! `u32` indices the first time the engine sees them (registration
//! order), and every per-multicast structure — the records here, the
//! engine's static descriptions, the hosts' reassembly counters — is a
//! `Vec` indexed by that dense index. The id→index map is consulted only
//! at event boundaries (launch, delivery, host DMA completion), never
//! inside the per-cycle loops. Readers keep the familiar map-like API
//! (`len`/`values`/`contains_key`/`[&id]`), now with deterministic
//! registration-order iteration.

use crate::config::Cycle;
use crate::worm::McastId;
use irrnet_topology::{NodeId, NodeMask};
use std::collections::HashMap;

/// Delivery times of one multicast, in delivery order.
///
/// Destination sets are `NodeMask`s (≤ 128 nodes), so membership is a
/// bit test and the `(node, cycle)` pairs live in a small vector instead
/// of a per-multicast hash map.
#[derive(Debug, Clone, Default)]
pub struct Deliveries {
    order: Vec<(NodeId, Cycle)>,
    seen: NodeMask,
}

impl Deliveries {
    fn with_capacity(n: usize) -> Self {
        Deliveries { order: Vec::with_capacity(n), seen: NodeMask::EMPTY }
    }

    /// Record a delivery; returns true if `node` was already present.
    fn insert(&mut self, node: NodeId, at: Cycle) -> bool {
        if self.seen.contains(node) {
            return true;
        }
        self.seen.insert(node);
        self.order.push((node, at));
        false
    }

    /// Number of destinations delivered.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when nothing has been delivered yet.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Has `node` been delivered?
    pub fn contains_key(&self, node: &NodeId) -> bool {
        self.seen.contains(*node)
    }

    /// Delivery cycle of `node`, if delivered.
    pub fn get(&self, node: &NodeId) -> Option<&Cycle> {
        self.order.iter().find(|(n, _)| n == node).map(|(_, c)| c)
    }

    /// `(node, delivery cycle)` pairs in delivery order.
    pub fn iter(&self) -> impl Iterator<Item = (&NodeId, &Cycle)> {
        self.order.iter().map(|(n, c)| (n, c))
    }
}

impl std::ops::Index<&NodeId> for Deliveries {
    type Output = Cycle;
    fn index(&self, node: &NodeId) -> &Cycle {
        self.get(node).expect("no delivery recorded for node")
    }
}

/// Lifecycle record of one multicast operation.
#[derive(Debug, Clone)]
pub struct McastRecord {
    /// Cycle at which the source's application issued the multicast
    /// (queueing at a busy source is included in latency, as in any
    /// open-loop load experiment).
    pub launched: Cycle,
    /// Destinations that must be reached.
    pub expected: NodeMask,
    /// Delivery cycle per destination (completion of `O_{r,h}`).
    pub deliveries: Deliveries,
    /// Cycle at which the last destination was delivered.
    pub completed: Option<Cycle>,
}

impl McastRecord {
    /// Multicast latency: launch → last delivery.
    pub fn latency(&self) -> Option<Cycle> {
        self.completed.map(|c| c - self.launched)
    }

    /// Latency to a specific destination.
    pub fn dest_latency(&self, n: NodeId) -> Option<Cycle> {
        self.deliveries.get(&n).map(|c| c - self.launched)
    }
}

/// Launched-multicast records, stored densely by interned index.
///
/// Ids are interned in registration order; a slot stays `None` until the
/// multicast launches (dependent multicasts register without launching).
/// Readers see only launched records, in registration order.
#[derive(Debug, Clone, Default)]
pub struct McastTable {
    ids: Vec<McastId>,
    recs: Vec<Option<McastRecord>>,
    index: HashMap<McastId, u32>,
    launched: usize,
}

impl McastTable {
    /// Intern `id`, returning `(dense index, newly interned)`.
    pub(crate) fn intern(&mut self, id: McastId) -> (u32, bool) {
        if let Some(&i) = self.index.get(&id) {
            return (i, false);
        }
        let i = self.ids.len() as u32;
        self.ids.push(id);
        self.recs.push(None);
        self.index.insert(id, i);
        (i, true)
    }

    /// Dense index of `id`, if interned.
    pub(crate) fn idx_of(&self, id: McastId) -> Option<u32> {
        self.index.get(&id).copied()
    }

    pub(crate) fn launched_at(&self, idx: u32) -> bool {
        self.recs[idx as usize].is_some()
    }

    /// Record at dense index `idx`, if that multicast has launched.
    pub(crate) fn rec_at(&self, idx: u32) -> Option<&McastRecord> {
        self.recs[idx as usize].as_ref()
    }

    /// Id interned at dense index `idx`.
    pub(crate) fn id_at(&self, idx: u32) -> McastId {
        self.ids[idx as usize]
    }

    /// Number of launched multicasts.
    pub fn len(&self) -> usize {
        self.launched
    }

    /// True when no multicast has launched.
    pub fn is_empty(&self) -> bool {
        self.launched == 0
    }

    /// Has `id` launched?
    pub fn contains_key(&self, id: &McastId) -> bool {
        self.idx_of(*id).is_some_and(|i| self.launched_at(i))
    }

    /// Record of `id`, if launched.
    pub fn get(&self, id: &McastId) -> Option<&McastRecord> {
        self.idx_of(*id).and_then(|i| self.recs[i as usize].as_ref())
    }

    /// Launched records in registration order.
    pub fn values(&self) -> impl Iterator<Item = &McastRecord> {
        self.recs.iter().filter_map(|r| r.as_ref())
    }

    /// `(id, record)` pairs of launched multicasts in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&McastId, &McastRecord)> {
        self.ids
            .iter()
            .zip(self.recs.iter())
            .filter_map(|(id, r)| r.as_ref().map(|r| (id, r)))
    }
}

impl std::ops::Index<&McastId> for McastTable {
    type Output = McastRecord;
    fn index(&self, id: &McastId) -> &McastRecord {
        self.get(id).expect("no record for multicast id")
    }
}

/// Aggregate network activity counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Flits transferred across inter-switch links.
    pub link_flits: u64,
    /// Flits injected by host NIs.
    pub injected_flits: u64,
    /// Flits ejected into host NIs.
    pub ejected_flits: u64,
    /// Packets fully received at NIs.
    pub packets_received: u64,
    /// Worm copies created by switch replication (branches beyond the
    /// first at each replication point).
    pub replications: u64,
    /// Maximum observed occupancy of any switch input buffer, in flits.
    pub max_buffer_occupancy: u32,
    /// Maximum packets simultaneously queued in any single NI's receive
    /// memory (the §3.3 "additional memory at the network interfaces").
    pub max_ni_rx_queue: u32,
    /// Total busy cycles summed over all NI processors.
    pub ni_busy_cycles: u64,
    /// Total busy cycles summed over all host processors.
    pub host_busy_cycles: u64,
    /// Total busy cycles summed over all I/O buses.
    pub io_bus_busy_cycles: u64,
    /// Flits lost to faults: buffered flits of discarded worms, flits
    /// that arrived over a dead link, and in-flight flits of truncated
    /// worm chains swallowed during drain.
    pub flits_dropped: u64,
    /// Worm copies discarded in flight — by a fault sweep, a downstream
    /// truncation cascade, or watchdog deadlock recovery.
    pub worms_killed: u64,
    /// Per-destination retransmissions issued by the NI timeout layer
    /// (one count per missing destination per retry round).
    pub retransmissions: u64,
    /// Stuck worms killed by the watchdog's recovery mode.
    pub watchdog_recoveries: u64,
    /// Deliveries suppressed because the destination had already received
    /// the message (retransmission racing the original copy).
    pub duplicate_deliveries: u64,
    /// Flit transmissions corrupted in transit by the transient-error
    /// model (bit errors the receiver's CRC catches).
    pub flits_corrupted: u64,
    /// Flit transmissions dropped in transit by the transient-error
    /// model (gaps the receiver's sequence check catches). Distinct from
    /// `flits_dropped`, which counts every flit discarded for any fault
    /// reason (including the purge drains these errors trigger).
    pub flits_dropped_transient: u64,
    /// Link-level replay attempts by switch outputs (one per damaged
    /// transmission while the link-retry mechanism is enabled).
    pub link_retries: u64,
    /// Worm copies killed because a switch output exhausted its retry
    /// budget on one flit (the link-retry escalation ladder's last rung).
    pub retry_exhaustions: u64,
    /// Deliveries that completed only after the source NI had
    /// retransmitted to that destination — the end-to-end recovery path
    /// doing work the network below it failed to do.
    pub e2e_recoveries: u64,
}

/// Everything measured during a run.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Per-multicast lifecycle records, keyed by id.
    pub mcasts: McastTable,
    /// Aggregate network counters.
    pub net: NetCounters,
    /// **Simulated** cycles the clock advanced through — every cycle
    /// between launch and drain, whether it was executed as a sweep or
    /// jumped over by the discrete-event scheduler. Deterministic for a
    /// given workload and identical across execution modes (full scan
    /// vs. event-driven), which is what makes it an exact regression
    /// oracle: `tests/engine_pins.rs` and `tests/huge_fabric.rs` pin it,
    /// with `sweeps_run`, on five fixed workloads.
    pub cycles_run: u64,
    /// Sweeps the engine actually **executed** — the work metric. The
    /// stepping loop has `sweeps_run == cycles_run` while anything is in
    /// flight; the event-driven engine skips every cycle no component
    /// can act in, so `sweeps_run ≤ cycles_run` and the gap is exactly
    /// the dead time the scheduler saved (diagnostic; mode-dependent).
    pub sweeps_run: u64,
    /// Flits carried per *directed* inter-switch link, indexed
    /// `link_id * 2 + departing_side` — the load-balance picture behind
    /// the contention results (root-ward links of the up*/down* tree
    /// carry disproportionate traffic).
    pub link_flits_per_dir: Vec<u64>,
}

impl SimStats {
    /// Register a multicast at launch time.
    pub fn launch(&mut self, id: McastId, at: Cycle, expected: NodeMask) {
        let (idx, _) = self.mcasts.intern(id);
        self.launch_at(idx, at, expected);
    }

    /// Launch by dense index (engine fast path).
    pub(crate) fn launch_at(&mut self, idx: u32, at: Cycle, expected: NodeMask) {
        let slot = &mut self.mcasts.recs[idx as usize];
        if slot.is_none() {
            self.mcasts.launched += 1;
        }
        let deliveries = Deliveries::with_capacity(expected.len());
        *slot = Some(McastRecord { launched: at, expected, deliveries, completed: None });
    }

    /// Record a host-level delivery; returns true if this completed the
    /// multicast. A repeated delivery (a retransmitted copy racing the
    /// original) is a counted no-op, never a double count.
    pub fn deliver(&mut self, id: McastId, node: NodeId, at: Cycle) -> bool {
        let idx = self
            .mcasts
            .idx_of(id)
            .expect("delivery for unknown multicast");
        let rec = self.mcasts.recs[idx as usize]
            .as_mut()
            .expect("delivery for unknown multicast");
        debug_assert!(
            rec.expected.contains(node),
            "delivery to non-destination {node}"
        );
        if rec.deliveries.insert(node, at) {
            self.net.duplicate_deliveries += 1;
            return false;
        }
        if rec.deliveries.len() == rec.expected.len() {
            rec.completed = Some(at);
            true
        } else {
            false
        }
    }

    /// Has `node` already been delivered for multicast `id`?
    pub fn is_delivered(&self, id: McastId, node: NodeId) -> bool {
        self.mcasts
            .get(&id)
            .is_some_and(|r| r.deliveries.contains_key(&node))
    }

    /// Fraction of expected `(multicast, destination)` pairs actually
    /// delivered — 1.0 on a healthy run, below it when faults strand
    /// destinations. Unlaunched registrations don't count.
    pub fn delivery_ratio(&self) -> f64 {
        let mut expected = 0usize;
        let mut delivered = 0usize;
        for r in self.mcasts.values() {
            expected += r.expected.len();
            delivered += r.deliveries.len();
        }
        if expected == 0 {
            1.0
        } else {
            delivered as f64 / expected as f64
        }
    }

    /// Fraction of inter-switch link bandwidth that carried *useful*
    /// flits: successful transfers over all transmission attempts
    /// (successful + corrupted + dropped). With link retry enabled every
    /// damaged attempt is also a replay attempt, so the ratio is the
    /// direct bandwidth cost of the switch-side mechanism; without it,
    /// damaged flits still crossed the wire before the receiver discarded
    /// them, so the ratio reads the same way. 1.0 when nothing was
    /// transmitted or no error model is installed.
    pub fn goodput_ratio(&self) -> f64 {
        let damaged = self.net.flits_corrupted + self.net.flits_dropped_transient;
        let attempts = self.net.link_flits + self.net.link_retries;
        if attempts == 0 {
            1.0
        } else {
            1.0 - damaged as f64 / attempts as f64
        }
    }

    /// True if every registered multicast has completed.
    pub fn all_complete(&self) -> bool {
        self.mcasts.values().all(|r| r.completed.is_some())
    }

    /// Number of completed multicasts.
    pub fn completed_count(&self) -> usize {
        self.mcasts.values().filter(|r| r.completed.is_some()).count()
    }

    /// Mean latency over multicasts launched in `[from, to)` that have
    /// completed. Returns `None` if none qualify.
    pub fn mean_latency_in_window(&self, from: Cycle, to: Cycle) -> Option<f64> {
        let mut sum = 0u64;
        let mut n = 0u64;
        for r in self.mcasts.values() {
            if r.launched >= from && r.launched < to {
                if let Some(l) = r.latency() {
                    sum += l;
                    n += 1;
                }
            }
        }
        if n == 0 {
            None
        } else {
            Some(sum as f64 / n as f64)
        }
    }

    /// Latency of a single multicast (for single-multicast experiments).
    pub fn latency_of(&self, id: McastId) -> Option<Cycle> {
        self.mcasts.get(&id).and_then(|r| r.latency())
    }

    /// Load imbalance across directed links that carried any traffic:
    /// `(max, mean)` flit counts. A high max/mean ratio means the
    /// up*/down* root links are hot.
    pub fn link_load_balance(&self) -> (u64, f64) {
        let used: Vec<u64> = self
            .link_flits_per_dir
            .iter()
            .copied()
            .filter(|&f| f > 0)
            .collect();
        if used.is_empty() {
            (0, 0.0)
        } else {
            let max = *used.iter().max().unwrap();
            let mean = used.iter().sum::<u64>() as f64 / used.len() as f64;
            (max, mean)
        }
    }

    /// Fraction of multicasts launched in `[from, to)` that completed.
    pub fn completion_rate_in_window(&self, from: Cycle, to: Cycle) -> f64 {
        let mut total = 0usize;
        let mut done = 0usize;
        for r in self.mcasts.values() {
            if r.launched >= from && r.launched < to {
                total += 1;
                if r.completed.is_some() {
                    done += 1;
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            done as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_and_latency() {
        let mut s = SimStats::default();
        let id = McastId(1);
        let dests = NodeMask::from_nodes([NodeId(1), NodeId(2)]);
        s.launch(id, 100, dests);
        assert!(!s.deliver(id, NodeId(1), 300));
        assert!(!s.all_complete());
        assert!(s.deliver(id, NodeId(2), 450));
        assert!(s.all_complete());
        assert_eq!(s.latency_of(id), Some(350));
        let rec = &s.mcasts[&id];
        assert_eq!(rec.dest_latency(NodeId(1)), Some(200));
    }

    #[test]
    fn window_statistics() {
        let mut s = SimStats::default();
        for (i, (start, end)) in [(0u64, 100u64), (50, 250), (500, 900)].iter().enumerate() {
            let id = McastId(i as u64);
            s.launch(id, *start, NodeMask::single(NodeId(0)));
            s.deliver(id, NodeId(0), *end);
        }
        // window [0, 100): mcasts launched at 0 and 50 -> latencies 100, 200
        assert_eq!(s.mean_latency_in_window(0, 100), Some(150.0));
        assert_eq!(s.mean_latency_in_window(1000, 2000), None);
        assert_eq!(s.completion_rate_in_window(0, 1000), 1.0);
    }

    #[test]
    fn incomplete_mcast_has_no_latency() {
        let mut s = SimStats::default();
        let id = McastId(9);
        s.launch(id, 0, NodeMask::from_nodes([NodeId(0), NodeId(1)]));
        s.deliver(id, NodeId(0), 10);
        assert_eq!(s.latency_of(id), None);
        assert_eq!(s.completed_count(), 0);
    }

    #[test]
    fn table_exposes_only_launched_records_in_registration_order() {
        let mut s = SimStats::default();
        // Interned (registered) but never launched: invisible to readers.
        let (idx, new) = s.mcasts.intern(McastId(7));
        assert!(new);
        assert!(!s.mcasts.contains_key(&McastId(7)));
        assert_eq!(s.mcasts.len(), 0);
        s.launch(McastId(3), 5, NodeMask::single(NodeId(0)));
        s.launch_at(idx, 9, NodeMask::single(NodeId(1)));
        assert_eq!(s.mcasts.len(), 2);
        // Registration order: id 7 was interned first.
        let ids: Vec<McastId> = s.mcasts.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![McastId(7), McastId(3)]);
    }

    #[test]
    fn duplicate_delivery_is_a_counted_no_op() {
        let mut s = SimStats::default();
        let id = McastId(2);
        let dests = NodeMask::from_nodes([NodeId(3), NodeId(4)]);
        s.launch(id, 0, dests);
        assert!(!s.is_delivered(id, NodeId(3)));
        assert!(!s.deliver(id, NodeId(3), 5));
        assert!(s.is_delivered(id, NodeId(3)));
        // A retransmitted copy arriving later neither double-counts nor
        // completes the multicast; the first timestamp wins.
        assert!(!s.deliver(id, NodeId(3), 6));
        assert_eq!(s.net.duplicate_deliveries, 1);
        let rec = &s.mcasts[&id];
        assert_eq!(rec.deliveries.len(), 1);
        assert_eq!(rec.deliveries[&NodeId(3)], 5);
        assert!(s.deliver(id, NodeId(4), 9));
        assert_eq!(s.latency_of(id), Some(9));
    }

    #[test]
    fn delivery_ratio_on_empty_plan_is_one() {
        // 0/0 must be a defined value, not caller-beware: an empty plan
        // delivered everything it promised.
        let s = SimStats::default();
        assert_eq!(s.delivery_ratio(), 1.0);
        // Registered-but-unlaunched multicasts don't change that.
        let mut s = SimStats::default();
        s.mcasts.intern(McastId(42));
        assert_eq!(s.delivery_ratio(), 1.0);
    }

    #[test]
    fn goodput_ratio_accounts_for_damaged_transmissions() {
        let mut s = SimStats::default();
        assert_eq!(s.goodput_ratio(), 1.0);
        // Detection mode: damaged flits still crossed the wire (counted
        // in link_flits), no replays.
        s.net.link_flits = 100;
        s.net.flits_corrupted = 3;
        s.net.flits_dropped_transient = 2;
        assert_eq!(s.goodput_ratio(), 0.95);
        // Retry mode: damaged attempts live in link_retries instead.
        let mut r = SimStats::default();
        r.net.link_flits = 95;
        r.net.link_retries = 5;
        r.net.flits_corrupted = 5;
        assert_eq!(r.goodput_ratio(), 0.95);
    }

    #[test]
    fn delivery_ratio_tracks_missing_destinations() {
        let mut s = SimStats::default();
        s.launch(McastId(0), 0, NodeMask::from_nodes([NodeId(1), NodeId(2)]));
        s.launch(McastId(1), 0, NodeMask::from_nodes([NodeId(1), NodeId(3)]));
        assert_eq!(s.delivery_ratio(), 0.0);
        s.deliver(McastId(0), NodeId(1), 10);
        s.deliver(McastId(0), NodeId(2), 12);
        s.deliver(McastId(1), NodeId(1), 11);
        assert_eq!(s.delivery_ratio(), 0.75);
        assert_eq!(SimStats::default().delivery_ratio(), 1.0);
    }
}
