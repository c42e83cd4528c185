//! Debug-gated simulation invariant auditor.
//!
//! The engine keeps several denormalized counters (`wire_flits`,
//! `in_reserved`, `sw_frames`, `frames_alive`, `tx_pending`) precisely
//! because recomputing them per cycle is too expensive for the hot path.
//! That makes a silent bookkeeping bug the worst possible failure mode:
//! results stay plausible while flits leak or buffers over-commit. The
//! auditor is the cross-check — once per network sweep it recomputes
//! every counter from ground truth and verifies:
//!
//! * **arrival freshness** — no occupied calendar slot is stamped for a
//!   cycle earlier than `now` (a clock jump must never skip over a
//!   pending arrival);
//! * **wire conservation** — the calendar ring holds exactly
//!   `wire_flits` flits;
//! * **buffer occupancy** — each switch input's reservation counter
//!   equals its buffered plus in-flight flits and never exceeds
//!   `input_buffer_flits`;
//! * **frame accounting** — per-switch and global frame counts match the
//!   buffers, and per-frame `freed ≤ received ≤ total` holds;
//! * **injection accounting** — `tx_pending` equals the summed host
//!   queues;
//! * **flit conservation** — every flit ever put on a wire (injected or
//!   switch-forwarded) is accounted for as ejected, dropped, recycled,
//!   in flight, or buffered;
//! * **monotonic worm progress** — a resident frame's `received`,
//!   `freed`, and summed branch `sent` never regress between sweeps.
//!
//! A failed check aborts the run with a typed
//! [`SimError::InvariantViolation`](crate::error::SimError) instead of
//! silently corrupting results. Auditing is **off by default** (the
//! healthy path pays one branch per active cycle) and enabled per
//! simulator with [`Simulator::enable_audit`](crate::Simulator), or
//! process wide with the `IRRNET_AUDIT=1` environment variable (read
//! once; see [`default_enabled`]).
//!
//! # Sweep cadence and clock jumps
//!
//! The auditor runs once after every *executed* sweep. With the
//! event-driven engine the clock can jump many cycles between sweeps;
//! cycles inside a jump are, by construction, cycles where no component
//! could act, so there is no per-cycle state to audit there. Instead
//! `advance_clock` brackets every multi-cycle jump with two extra
//! passes: a **leading-edge** audit (the post-sweep state being carried
//! over the gap) and a **trailing-edge** audit at the jump target,
//! *before* that cycle's sweep runs. The trailing edge is what makes a
//! jump unable to skip over a violation window: the
//! [`InvariantKind::StaleArrival`] check fires on any arrival the jump
//! left behind before the sweep could quietly drain the slot, and the
//! cross-sweep progress checks compare against the pre-jump snapshot.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// Whether new simulators should audit: the `IRRNET_AUDIT` environment
/// variable, read once per process (set and not `0`).
pub fn default_enabled() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("IRRNET_AUDIT").map(|v| !v.is_empty() && v != "0").unwrap_or(false)
    })
}

/// Which engine invariant failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvariantKind {
    /// An occupied arrival-calendar slot is stamped for a cycle earlier
    /// than `now`: the clock advanced past a pending arrival without
    /// executing its cycle.
    StaleArrival,
    /// The calendar ring's flit count disagrees with `wire_flits`.
    WireConservation,
    /// A switch input's reservation counter exceeds the configured
    /// buffer capacity.
    OccupancyBound {
        /// The switch.
        switch: u16,
        /// Its input port.
        port: u8,
    },
    /// A switch input's reservation counter disagrees with its buffered
    /// plus in-flight flits.
    OccupancyConservation {
        /// The switch.
        switch: u16,
        /// Its input port.
        port: u8,
    },
    /// Frame counters (`sw_frames`, `frames_alive`) or per-frame flit
    /// bounds disagree with the buffers.
    FrameAccounting,
    /// `tx_pending` disagrees with the summed host injection queues.
    TxAccounting,
    /// Flits put on wires don't balance against flits ejected, dropped,
    /// recycled, in flight, and buffered.
    FlitConservation,
    /// A resident frame's progress counters went backwards between
    /// sweeps.
    WormRegression {
        /// The switch holding the frame.
        switch: u16,
        /// Its input port.
        port: u8,
    },
}

/// A failed invariant, with human-readable diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// The invariant that failed.
    pub kind: InvariantKind,
    /// What was expected vs. observed.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            InvariantKind::StaleArrival => write!(f, "stale arrival: {}", self.detail),
            InvariantKind::WireConservation => write!(f, "wire conservation: {}", self.detail),
            InvariantKind::OccupancyBound { switch, port } => {
                write!(f, "buffer occupancy bound at S{switch} p{port}: {}", self.detail)
            }
            InvariantKind::OccupancyConservation { switch, port } => {
                write!(f, "buffer occupancy conservation at S{switch} p{port}: {}", self.detail)
            }
            InvariantKind::FrameAccounting => write!(f, "frame accounting: {}", self.detail),
            InvariantKind::TxAccounting => write!(f, "injection accounting: {}", self.detail),
            InvariantKind::FlitConservation => write!(f, "flit conservation: {}", self.detail),
            InvariantKind::WormRegression { switch, port } => {
                write!(f, "worm progress regressed at S{switch} p{port}: {}", self.detail)
            }
        }
    }
}

/// Frame identity across sweeps: `(switch, port, worm pointer, born
/// cycle)` — the born cycle keeps a recycled descriptor allocation from
/// being mistaken for an old frame.
pub(crate) type FrameKey = (u16, u8, usize, u64);

/// One frame's progress counters: `(received, freed, total sent)`.
pub(crate) type FrameProgress = (u32, u32, u64);

/// Cross-sweep auditor state: the previous sweep's per-frame progress
/// snapshot.
#[derive(Debug, Default)]
pub struct Auditor {
    pub(crate) progress: HashMap<FrameKey, FrameProgress>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violations_render_their_site() {
        let v = InvariantViolation {
            kind: InvariantKind::OccupancyBound { switch: 3, port: 1 },
            detail: "reserved 21 > capacity 16".into(),
        };
        let s = v.to_string();
        assert!(s.contains("S3 p1"));
        assert!(s.contains("21"));
    }
}
