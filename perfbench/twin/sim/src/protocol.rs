//! The hook through which multicast schemes drive the simulator.
//!
//! The simulator models the *hardware* (switches, links, NIs, I/O buses,
//! processor-overhead serialization); the *software* — which message goes
//! where next — is supplied by a [`Protocol`] implementation. The four
//! schemes of the paper live in `irrnet-core` and implement this trait.
//!
//! Callback timing mirrors where the corresponding software runs:
//!
//! * [`Protocol::on_launch`] — the application issues a multicast; the
//!   returned sends are charged to the source host CPU (`O_{s,h}` each).
//! * [`Protocol::on_message_delivered`] — runs after the receiving host
//!   completed `O_{r,h}`; returned sends model *host-level* forwarding
//!   (the software multi-phase schemes) and are charged like fresh sends.
//! * [`Protocol::on_packet_at_ni`] — runs after the NI completed
//!   `O_{r,ni}` for a packet; the returned replica specs model *smart-NI*
//!   forwarding (FPFS) and are charged only `O_{s,ni}` per replica, with
//!   no host involvement and no extra DMA (the packet is already in NI
//!   memory) — exactly the saving of §3.2.1 / Fig. 3(b).
//!
//! Every callback returns a `Result`: a protocol that cannot answer (no
//! plan registered for a multicast, inconsistent internal state) reports
//! a [`ProtocolError`] instead of panicking, and the engine aborts the
//! run with [`SimError::Protocol`](crate::error::SimError::Protocol) at
//! the end of the failing cycle.
//!
//! All protocol-driven timing (launch instants, overhead completions,
//! retransmission-timeout checks and their backoff delays) lives on the
//! engine's event heap rather than being polled, so the event-driven
//! core jumps straight across retx backoff windows and inter-send gaps
//! without executing the intervening sweeps.

use crate::worm::{McastId, SendSpec, WormCopy};
use irrnet_topology::NodeId;

/// A failure reported by a [`Protocol`] callback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// A callback fired for a multicast id the protocol has no plan or
    /// role for.
    UnknownMcast(McastId),
    /// The protocol's internal state is inconsistent (free-form detail).
    State(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::UnknownMcast(id) => {
                write!(f, "callback for unknown multicast {id:?}")
            }
            ProtocolError::State(msg) => write!(f, "inconsistent protocol state: {msg}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Scheme-side logic invoked by the engine.
pub trait Protocol {
    /// A multicast scheduled via
    /// [`crate::engine::Simulator::schedule_multicast`] has reached its start
    /// time. Return the initial sends as `(sending node, spec)` pairs —
    /// typically one or more sends from the multicast's source.
    fn on_launch(&mut self, mcast: McastId, now: u64)
        -> Result<Vec<(NodeId, SendSpec)>, ProtocolError>;

    /// `node` has fully received the message of `mcast` (all packets DMA'd
    /// to host memory and `O_{r,h}` paid). Return follow-up sends *from
    /// this node*, each tagged with the multicast it belongs to — usually
    /// `mcast` itself (software forwarding within one multicast), but a
    /// *different* registered multicast id models dependent messages
    /// (e.g. the parent hop of a reduction tree firing once all children
    /// arrived). Every returned id must have been registered with the
    /// simulator beforehand.
    fn on_message_delivered(
        &mut self,
        node: NodeId,
        mcast: McastId,
        now: u64,
    ) -> Result<Vec<(McastId, SendSpec)>, ProtocolError>;

    /// A packet addressed to `node` has been processed by its NI
    /// (`O_{r,ni}` paid). Return replica specs to inject *from the NI*
    /// (smart-NI forwarding). Conventional NIs return an empty vec.
    fn on_packet_at_ni(
        &mut self,
        node: NodeId,
        worm: &WormCopy,
        now: u64,
    ) -> Result<Vec<SendSpec>, ProtocolError>;
}

/// A protocol that never forwards anything: plain point-to-point traffic.
/// Useful for unicast baselines and simulator unit tests.
#[derive(Debug, Default)]
pub struct NullProtocol;

impl Protocol for NullProtocol {
    fn on_launch(
        &mut self,
        _mcast: McastId,
        _now: u64,
    ) -> Result<Vec<(NodeId, SendSpec)>, ProtocolError> {
        Ok(Vec::new())
    }

    fn on_message_delivered(
        &mut self,
        _node: NodeId,
        _mcast: McastId,
        _now: u64,
    ) -> Result<Vec<(McastId, SendSpec)>, ProtocolError> {
        Ok(Vec::new())
    }

    fn on_packet_at_ni(
        &mut self,
        _node: NodeId,
        _worm: &WormCopy,
        _now: u64,
    ) -> Result<Vec<SendSpec>, ProtocolError> {
        Ok(Vec::new())
    }
}

/// A protocol defined by a static launch table: each multicast id maps to
/// a fixed list of initial sends, with no forwarding. Enough to exercise
/// unicast and single-phase (tree-based) traffic; used heavily in tests.
#[derive(Debug, Default)]
pub struct StaticProtocol {
    launches: std::collections::HashMap<McastId, Vec<(NodeId, SendSpec)>>,
}

impl StaticProtocol {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register the initial sends for a multicast id.
    pub fn set_launch(&mut self, mcast: McastId, sends: Vec<(NodeId, SendSpec)>) {
        self.launches.insert(mcast, sends);
    }
}

impl Protocol for StaticProtocol {
    fn on_launch(
        &mut self,
        mcast: McastId,
        _now: u64,
    ) -> Result<Vec<(NodeId, SendSpec)>, ProtocolError> {
        Ok(self.launches.remove(&mcast).unwrap_or_default())
    }

    fn on_message_delivered(
        &mut self,
        _node: NodeId,
        _mcast: McastId,
        _now: u64,
    ) -> Result<Vec<(McastId, SendSpec)>, ProtocolError> {
        Ok(Vec::new())
    }

    fn on_packet_at_ni(
        &mut self,
        _node: NodeId,
        _worm: &WormCopy,
        _now: u64,
    ) -> Result<Vec<SendSpec>, ProtocolError> {
        Ok(Vec::new())
    }
}
