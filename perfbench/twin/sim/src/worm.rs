//! In-flight worms and the routing plans they carry.
//!
//! A *worm* is one packet instance traveling through the network. Unicast
//! worms carry a destination id; tree-based multidestination worms carry a
//! bit-string of destinations plus precomputed up-phase guidance
//! ([`irrnet_topology::ApexPlan`]); path-based multi-drop worms carry an
//! ordered list of replicating switches with per-switch drop sets.
//!
//! Worm *copies* are created by replication at switches: each copy narrows
//! the destination information it carries (the "modified header" of
//! §3.2.3) or advances the stop cursor and strips header fields (§3.2.4).
//! Copies are immutable and reference-counted; the per-switch frame state
//! lives in the switch model, not here.

use crate::config::SimConfig;
use irrnet_topology::{ApexPlan, NodeId, NodeMask, Phase, SwitchId};
use std::sync::Arc;

/// Identifier of a multicast operation (unique per simulation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct McastId(pub u64);

/// One replicating switch on a path-based worm's route, with the
/// destinations dropped off there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathStop {
    /// The switch where replication occurs.
    pub switch: SwitchId,
    /// Destinations attached to that switch that receive a copy.
    pub drops: Vec<NodeId>,
    /// True if the planned route reaches this stop during its up* prefix.
    /// The worm must then arrive via **up links only**, or it would
    /// forfeit the ability to climb on to the next stop — taking an
    /// arbitrary minimal route here can commit the worm to the down*
    /// suffix early and wedge it (no legal route onward). Stops reached
    /// during the down* suffix are unconstrained.
    pub up_phase: bool,
}

/// The full route of one path-based multi-drop worm.
///
/// Invariants (enforced by the planner in `irrnet-core`):
/// * `stops` is nonempty and every stop has at least one drop;
/// * consecutive stops are connected by a legal up*/down* segment, and the
///   concatenation of all segments is itself a legal up*/down* path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathWormSpec {
    /// Replicating switches in path order.
    pub stops: Vec<PathStop>,
}

impl PathWormSpec {
    /// All destinations covered by this worm.
    pub fn covered(&self) -> NodeMask {
        self.stops
            .iter()
            .flat_map(|s| s.drops.iter().copied())
            .collect()
    }

    /// Number of destinations covered.
    pub fn num_drops(&self) -> usize {
        self.stops.iter().map(|s| s.drops.len()).sum()
    }
}

/// Scheme-specific routing state carried by a worm copy.
#[derive(Debug, Clone)]
pub enum RouteInfo {
    /// Point-to-point worm addressed to one node.
    Unicast {
        /// Final destination.
        dest: NodeId,
    },
    /// Tree-based multidestination worm: remaining destinations (this
    /// copy's bit-string header) plus shared up-phase guidance.
    Tree {
        /// Destinations this copy is still responsible for.
        dests: NodeMask,
        /// Up-phase guidance computed for the *original* destination set.
        plan: Arc<ApexPlan>,
    },
    /// Path-based multi-drop worm: shared stop list and this copy's cursor.
    Path {
        /// The stop list (shared across copies).
        spec: Arc<PathWormSpec>,
        /// Index of the next stop to process.
        cursor: usize,
    },
    /// A copy that has been peeled off onto a host port and only needs to
    /// be absorbed by that node's NI.
    Delivered {
        /// The node absorbing the copy.
        dest: NodeId,
    },
}

/// An immutable in-flight packet copy.
#[derive(Debug, Clone)]
pub struct WormCopy {
    /// The multicast operation this packet belongs to.
    pub mcast: McastId,
    /// Packet index within the message (0-based).
    pub pkt: u32,
    /// Total packets in the message.
    pub total_pkts: u32,
    /// Payload flits in this packet.
    pub payload_flits: u32,
    /// Header flits currently on this copy.
    pub header_flits: u32,
    /// Current routing phase (up* prefix or down* suffix).
    pub phase: Phase,
    /// Scheme-specific routing state.
    pub route: RouteInfo,
}

impl WormCopy {
    /// Total wire length of this copy in flits.
    #[inline]
    pub fn total_flits(&self) -> u32 {
        self.header_flits + self.payload_flits
    }

    /// The node that should absorb this copy if it is sitting at a host
    /// NI, or `None` if the copy is not host-addressed.
    pub fn ni_destination(&self) -> Option<NodeId> {
        match &self.route {
            RouteInfo::Unicast { dest } => Some(*dest),
            RouteInfo::Delivered { dest } => Some(*dest),
            RouteInfo::Tree { dests, .. } => {
                // A tree copy reaching a host port has been narrowed to a
                // single destination by the reachability partition.
                debug_assert!(dests.len() <= 1);
                dests.first()
            }
            RouteInfo::Path { .. } => None,
        }
    }

    /// True if this is the message's final packet.
    #[inline]
    pub fn is_last_pkt(&self) -> bool {
        self.pkt + 1 == self.total_pkts
    }
}

/// What a host asks its NI to put on the wire.
///
/// Produced by the [`crate::protocol::Protocol`] implementations in
/// `irrnet-core`; consumed by the engine, which expands each spec into one
/// [`WormCopy`] per packet (or per packet copy for
/// [`SendSpec::FpfsChildren`]).
#[derive(Debug, Clone)]
pub enum SendSpec {
    /// Send the message as unicast worms to one destination.
    Unicast {
        /// The destination node.
        dest: NodeId,
    },
    /// NI-based multicast: for each packet, inject one unicast copy per
    /// child, first packet to all children before the second (FPFS).
    FpfsChildren {
        /// Children of this node in the k-binomial tree, in send order.
        children: Vec<NodeId>,
    },
    /// Single tree-based multidestination worm per packet.
    Tree {
        /// Full destination set of the worm.
        dests: NodeMask,
        /// Precomputed up-phase guidance.
        plan: Arc<ApexPlan>,
    },
    /// One path-based multi-drop worm per packet.
    Path {
        /// The worm's stop list.
        spec: Arc<PathWormSpec>,
    },
}

impl SendSpec {
    /// Header length in flits of the worms this spec produces.
    pub fn header_flits(&self, cfg: &SimConfig, n_nodes: usize) -> u32 {
        match self {
            SendSpec::Unicast { .. } | SendSpec::FpfsChildren { .. } => cfg.unicast_header_flits,
            SendSpec::Tree { .. } => cfg.tree_header_flits(n_nodes),
            SendSpec::Path { spec } => cfg.path_header_flits(spec.stops.len()),
        }
    }

    /// Number of worm copies injected per packet of the message.
    pub fn copies_per_packet(&self) -> usize {
        match self {
            SendSpec::FpfsChildren { children } => children.len(),
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_spec() -> PathWormSpec {
        PathWormSpec {
            stops: vec![
                PathStop { switch: SwitchId(1), drops: vec![NodeId(3)], up_phase: false },
                PathStop { switch: SwitchId(4), drops: vec![NodeId(7), NodeId(8)], up_phase: false },
            ],
        }
    }

    #[test]
    fn path_spec_covered_set() {
        let s = path_spec();
        assert_eq!(s.covered(), NodeMask::from_nodes([NodeId(3), NodeId(7), NodeId(8)]));
        assert_eq!(s.num_drops(), 3);
    }

    #[test]
    fn worm_lengths() {
        let w = WormCopy {
            mcast: McastId(0),
            pkt: 0,
            total_pkts: 2,
            payload_flits: 128,
            header_flits: 3,
            phase: Phase::Up,
            route: RouteInfo::Unicast { dest: NodeId(1) },
        };
        assert_eq!(w.total_flits(), 131);
        assert!(!w.is_last_pkt());
        assert_eq!(w.ni_destination(), Some(NodeId(1)));
    }

    #[test]
    fn spec_header_lengths() {
        let cfg = SimConfig::paper_default();
        assert_eq!(SendSpec::Unicast { dest: NodeId(0) }.header_flits(&cfg, 32), 3);
        assert_eq!(
            SendSpec::FpfsChildren { children: vec![NodeId(1)] }.header_flits(&cfg, 32),
            3
        );
        let path = SendSpec::Path { spec: Arc::new(path_spec()) };
        assert_eq!(path.header_flits(&cfg, 32), 5);
        assert_eq!(path.copies_per_packet(), 1);
        assert_eq!(
            SendSpec::FpfsChildren { children: vec![NodeId(1), NodeId(2)] }.copies_per_packet(),
            2
        );
    }
}
