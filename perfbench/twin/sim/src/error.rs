//! Simulator error reporting.

use crate::config::Cycle;
use crate::worm::McastId;
use irrnet_topology::TopologyError;
use std::fmt;

/// One branch of a stuck frame, as captured by the deadlock snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchSnapshot {
    /// Output port granted to this branch, if any.
    pub port: Option<u8>,
    /// Flits of the outgoing copy already sent.
    pub sent: u32,
    /// All flits sent.
    pub done: bool,
}

/// A front frame that was resident when the watchdog fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StuckFrame {
    /// Switch holding the frame.
    pub switch: u16,
    /// Input port holding the frame.
    pub port: u8,
    /// Multicast the worm belongs to.
    pub mcast: McastId,
    /// Packet index within the message.
    pub pkt: u32,
    /// Flits received so far.
    pub received: u32,
    /// Total flits of the worm.
    pub total: u32,
    /// Whether the header had been decoded into branches.
    pub decoded: bool,
    /// Per-branch progress.
    pub branches: Vec<BranchSnapshot>,
}

/// A host with worms still queued for injection at watchdog time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxBacklog {
    /// The node.
    pub node: u16,
    /// Worms queued at its NI.
    pub queued: usize,
    /// Flits of the front worm already on the wire.
    pub sent: u32,
}

/// Structured snapshot of the stuck state captured when the deadlock
/// watchdog gives up. `Display` renders the historical human-readable
/// dump; the fields stay machine-readable for tests and tooling.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeadlockDiagnostics {
    /// Flits in flight on wires.
    pub wire_flits: u64,
    /// Frames resident in switch buffers.
    pub frames_alive: u64,
    /// Worms queued for injection across all hosts.
    pub tx_pending: u64,
    /// Watchdog recoveries already spent before the abort (bounded by
    /// `SimConfig::watchdog_recovery_limit`).
    pub recoveries_used: u32,
    /// Front frames per switch input port.
    pub stuck_frames: Vec<StuckFrame>,
    /// Hosts with non-empty injection queues.
    pub tx_backlogs: Vec<TxBacklog>,
}

impl fmt::Display for DeadlockDiagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "wire_flits={} frames_alive={} tx_pending={} recoveries_used={}",
            self.wire_flits, self.frames_alive, self.tx_pending, self.recoveries_used
        )?;
        for s in &self.stuck_frames {
            writeln!(
                f,
                "S{} in p{}: worm mcast={:?} pkt={} recv={}/{} decoded={} branches={:?}",
                s.switch,
                s.port,
                s.mcast,
                s.pkt,
                s.received,
                s.total,
                s.decoded,
                s.branches
                    .iter()
                    .map(|b| (b.port, b.sent, b.done))
                    .collect::<Vec<_>>()
            )?;
        }
        for t in &self.tx_backlogs {
            writeln!(f, "n{} tx_queue={} tx_sent={}", t.node, t.queued, t.sent)?;
        }
        Ok(())
    }
}

/// Fatal simulation failures.
#[derive(Debug, Clone)]
pub enum SimError {
    /// The watchdog saw no forward progress for the configured number of
    /// cycles while work was still outstanding — a routing/flow-control
    /// deadlock or a protocol that stopped responding — and either
    /// recovery was disabled or its retry budget was exhausted.
    Deadlock {
        /// Cycle at which the watchdog fired.
        at: Cycle,
        /// Structured snapshot of stuck state.
        diagnostics: DeadlockDiagnostics,
    },
    /// `run_to_completion` hit its hard cycle limit before all scheduled
    /// multicasts completed.
    CycleLimit {
        /// The limit that was hit.
        limit: Cycle,
        /// Multicasts still incomplete.
        incomplete: usize,
    },
    /// The configuration failed validation.
    BadConfig(String),
    /// A fault event partitioned the network: the up*/down*
    /// reconfiguration could not reconnect every surviving host, so the
    /// run cannot meaningfully continue.
    Partitioned {
        /// Cycle of the fatal fault event.
        at: Cycle,
        /// The structured topology-level error (carries the stranded
        /// switches and hosts).
        cause: TopologyError,
    },
    /// The scheme-side [`Protocol`](crate::protocol::Protocol) failed in
    /// a callback; the run is aborted at the end of the failing cycle.
    Protocol(crate::protocol::ProtocolError),
    /// The debug auditor (see [`crate::audit`]) found an engine
    /// invariant broken — flit conservation, buffer occupancy, or worm
    /// progress monotonicity. The run is aborted rather than allowed to
    /// produce silently corrupted results.
    InvariantViolation {
        /// Cycle at which the audit sweep failed.
        at: Cycle,
        /// The failed invariant with diagnostics.
        violation: crate::audit::InvariantViolation,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { at, diagnostics } => {
                write!(f, "no progress by cycle {at}; stuck state:\n{diagnostics}")
            }
            SimError::CycleLimit { limit, incomplete } => {
                write!(f, "cycle limit {limit} reached with {incomplete} multicasts incomplete")
            }
            SimError::BadConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::Partitioned { at, cause } => {
                write!(f, "fault at cycle {at} partitioned the network: {cause}")
            }
            SimError::Protocol(e) => write!(f, "protocol failure: {e}"),
            SimError::InvariantViolation { at, violation } => {
                write!(f, "invariant violated at cycle {at}: {violation}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<crate::protocol::ProtocolError> for SimError {
    fn from(e: crate::protocol::ProtocolError) -> Self {
        SimError::Protocol(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = SimError::CycleLimit { limit: 1000, incomplete: 3 };
        assert!(e.to_string().contains("1000"));
        assert!(e.to_string().contains("3"));
    }

    #[test]
    fn deadlock_diagnostics_render_like_the_legacy_dump() {
        let d = DeadlockDiagnostics {
            wire_flits: 2,
            frames_alive: 1,
            tx_pending: 1,
            recoveries_used: 1,
            stuck_frames: vec![StuckFrame {
                switch: 3,
                port: 1,
                mcast: McastId(7),
                pkt: 0,
                received: 10,
                total: 19,
                decoded: true,
                branches: vec![BranchSnapshot { port: Some(2), sent: 4, done: false }],
            }],
            tx_backlogs: vec![TxBacklog { node: 5, queued: 2, sent: 3 }],
        };
        let e = SimError::Deadlock { at: 12345, diagnostics: d };
        let s = e.to_string();
        assert!(s.contains("no progress by cycle 12345"));
        assert!(s.contains("recoveries_used=1"));
        assert!(s.contains("S3 in p1"));
        assert!(s.contains("recv=10/19"));
        assert!(s.contains("n5 tx_queue=2 tx_sent=3"));
    }

    #[test]
    fn partitioned_carries_the_structured_cause() {
        use irrnet_topology::{NodeId, SwitchId};
        let e = SimError::Partitioned {
            at: 500,
            cause: TopologyError::PartitionedNetwork {
                unreachable_switches: vec![SwitchId(2)],
                unreachable_hosts: vec![NodeId(4), NodeId(5)],
            },
        };
        let s = e.to_string();
        assert!(s.contains("cycle 500"));
        assert!(s.contains("partitioned"));
        match e {
            SimError::Partitioned { cause: TopologyError::PartitionedNetwork { unreachable_hosts, .. }, .. } => {
                assert_eq!(unreachable_hosts.len(), 2);
            }
            _ => unreachable!(),
        }
    }
}
