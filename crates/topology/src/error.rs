//! Error type for topology construction and analysis.

use crate::ids::{NodeId, SwitchId};
use std::fmt;

/// Everything that can go wrong while building or analyzing a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The switch graph is not connected — the paper's only structural
    /// guarantee is that it is, so everything downstream requires it.
    Disconnected {
        /// A switch unreachable from switch 0.
        unreachable: SwitchId,
    },
    /// A switch ran out of ports while adding a host or link.
    NoFreePort(SwitchId),
    /// A port was referenced that the switch does not have.
    BadPort {
        switch: SwitchId,
        port: u8,
        ports_per_switch: u8,
    },
    /// A link connects a switch to itself, which Autonet disallows.
    SelfLink(SwitchId),
    /// The topology has no switches or no hosts.
    Empty,
    /// More nodes than the `u16` [`NodeId`] space supports
    /// ([`crate::Topology::MAX_NODES`]).
    TooManyNodes(usize),
    /// A host id is attached to a nonexistent switch.
    DanglingHost { node: NodeId, switch: SwitchId },
    /// The requested configuration cannot fit: not enough ports for the
    /// requested hosts plus links.
    InsufficientPorts {
        needed: usize,
        available: usize,
    },
    /// The spanning-tree root is not a switch of this topology.
    BadRoot(SwitchId),
    /// An extra-link fraction that is NaN, infinite or negative (the
    /// value as written, since `f64` has no `Eq`).
    BadExtraLinks(String),
    /// Faults have split the network: some surviving switches (and the
    /// hosts attached to them) can no longer reach the rest. Produced by
    /// [`crate::Network::degrade`] instead of silently building routing
    /// tables with unreachable destinations.
    PartitionedNetwork {
        /// Surviving switches unreachable from the re-elected root.
        unreachable_switches: Vec<SwitchId>,
        /// Alive hosts stranded on those switches.
        unreachable_hosts: Vec<NodeId>,
    },
    /// Internal consistency failure (a bug if it ever fires).
    Inconsistent(&'static str),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Disconnected { unreachable } => {
                write!(f, "network is not connected: {unreachable} unreachable from S0")
            }
            TopologyError::NoFreePort(s) => write!(f, "no free port left on {s}"),
            TopologyError::BadPort { switch, port, ports_per_switch } => write!(
                f,
                "port p{port} out of range on {switch} (switch has {ports_per_switch} ports)"
            ),
            TopologyError::SelfLink(s) => write!(f, "self-link on {s} is not allowed"),
            TopologyError::Empty => write!(f, "topology must have at least one switch and one host"),
            TopologyError::TooManyNodes(n) => {
                write!(f, "{n} nodes exceed the u16 NodeId ceiling of 65536")
            }
            TopologyError::DanglingHost { node, switch } => {
                write!(f, "host {node} attached to nonexistent {switch}")
            }
            TopologyError::InsufficientPorts { needed, available } => write!(
                f,
                "configuration needs {needed} switch ports but only {available} exist"
            ),
            TopologyError::BadRoot(s) => write!(f, "spanning-tree root {s} is not a switch"),
            TopologyError::BadExtraLinks(v) => {
                write!(f, "extra-link fraction {v} is not finite and non-negative")
            }
            TopologyError::PartitionedNetwork { unreachable_switches, unreachable_hosts } => {
                write!(
                    f,
                    "faults partitioned the network: {} surviving switch(es) and {} host(s) \
                     unreachable from the re-elected root",
                    unreachable_switches.len(),
                    unreachable_hosts.len()
                )
            }
            TopologyError::Inconsistent(what) => write!(f, "internal inconsistency: {what}"),
        }
    }
}

impl std::error::Error for TopologyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = TopologyError::Disconnected { unreachable: SwitchId(4) };
        assert!(e.to_string().contains("S4"));
        let e = TopologyError::InsufficientPorts { needed: 70, available: 64 };
        assert!(e.to_string().contains("70"));
        assert!(e.to_string().contains("64"));
    }
}
