//! Collective communication built on the multicast schemes — the
//! operations the paper's introduction motivates: "Examples of collective
//! operations include multicast, barrier synchronization, reduction,
//! etc. ... Of these collective operations, multicast is most fundamental
//! and important and is used for implementing several of the other
//! collective operations."
//!
//! This crate implements that derivation literally:
//!
//! * [`CollectiveOp::Broadcast`] — one multicast under any registered
//!   [`irrnet_core::SchemeId`];
//! * [`CollectiveOp::Reduce`] — software combining up a k-binomial tree
//!   (one short message per tree edge; a parent fires once all its
//!   children arrived);
//! * [`CollectiveOp::Barrier`] — a reduce with empty payload followed by
//!   a broadcast release;
//! * [`CollectiveOp::AllReduce`] — a reduce of the data followed by a
//!   broadcast of the result.
//!
//! The reduction phase is pure software (every hop pays the full
//! host/NI/DMA chain — there is no "hardware gather" in any of the
//! paper's proposals), so the broadcast scheme choice is exactly where
//! NI or switch support pays off in a barrier or allreduce.
//!
//! # Example
//!
//! ```
//! use irrnet_collectives::{run_collective, CollectiveOp};
//! use irrnet_core::SchemeId;
//! use irrnet_sim::SimConfig;
//! use irrnet_topology::{zoo, Network, NodeId, NodeMask};
//!
//! let net = Network::analyze(zoo::paper_example().unwrap()).unwrap();
//! let cfg = SimConfig::paper_default();
//! let r = run_collective(
//!     &net,
//!     &cfg,
//!     CollectiveOp::Barrier,
//!     NodeId(0),
//!     NodeMask::all(32),
//!     SchemeId::TREE,
//!     4,
//!     8,
//! )
//! .unwrap();
//! assert!(r.latency > 0);
//! assert_eq!(r.messages, 32); // 31 combining edges + 1 release broadcast
//! ```

pub mod error;
pub mod plan;
pub mod protocol;
pub mod run;

pub use error::CollectiveError;
pub use plan::{CollectiveOp, CollectivePlan};
pub use protocol::CollectiveProtocol;
pub use run::{run_collective, CollectiveResult};
