//! Cycle-level simulator for irregular switch-based networks with
//! cut-through switching and multidestination-worm support.
//!
//! This crate is the simulation substrate of the ICPP '98 reproduction:
//! it models what the paper's C++/CSIM testbed modeled —
//!
//! * crossbar switches with input-buffered virtual cut-through, adaptive
//!   up*/down* routing, and hardware replication of multidestination
//!   worms (both tree-based bit-string worms and path-based multi-drop
//!   worms);
//! * hosts with a host processor, an NI processor, and an I/O bus, paying
//!   the paper's four software overheads (`O_{s,h}`, `O_{r,h}`,
//!   `O_{s,ni}`, `O_{r,ni}`) and DMA time per packet;
//! * deterministic, seeded execution with per-multicast latency records
//!   and network counters.
//!
//! The multicast *schemes* (who sends what to whom, and what a smart NI
//! forwards) are supplied by a [`protocol::Protocol`] implementation —
//! see the `irrnet-core` crate for the paper's four schemes.
//!
//! # Example
//!
//! ```
//! use irrnet_sim::{Simulator, SimConfig, McastId, SendSpec, StaticProtocol};
//! use irrnet_topology::{zoo, Network, NodeId, NodeMask};
//!
//! let net = Network::analyze(zoo::chain(2).unwrap()).unwrap();
//! let mut proto = StaticProtocol::new();
//! proto.set_launch(
//!     McastId(0),
//!     vec![(NodeId(0), SendSpec::Unicast { dest: NodeId(1) })],
//! );
//! let mut sim = Simulator::new(&net, SimConfig::paper_default(), proto).unwrap();
//! sim.schedule_multicast(0, McastId(0), NodeMask::single(NodeId(1)), 128);
//! let done = sim.run_to_completion(1_000_000).unwrap();
//! assert!(done > 0);
//! ```

pub mod audit;
pub mod config;
pub mod engine;
pub mod error;
pub mod host;
pub mod protocol;
pub mod stats;
pub mod switch;
pub mod trace;
pub mod worm;

pub use audit::{InvariantKind, InvariantViolation};
pub use config::{Cycle, LinkRetryPolicy, RetxPolicy, SimConfig};
pub use engine::Simulator;
pub use error::{BranchSnapshot, DeadlockDiagnostics, SimError, StuckFrame, TxBacklog};
pub use protocol::{NullProtocol, Protocol, ProtocolError, StaticProtocol};
pub use stats::{McastRecord, NetCounters, SimStats};
pub use trace::{TraceEvent, TraceLog};
pub use worm::{McastId, PathStop, PathWormSpec, RouteInfo, SendSpec, WormCopy};
