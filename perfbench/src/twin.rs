//! The reference twin: frozen copies of the topology, sim and core crates
//! (`perfbench/twin/`), under the names `point.rs` uses. The twin runs the
//! same load points as the live crates, interleaved with them, so its host
//! time measures how fast the machine is at that moment.

pub use twin_core as icore;
pub use twin_sim as isim;
pub use twin_topology as itopo;

// Each crate set uses only part of the pipeline.
#[allow(dead_code)]
#[path = "point.rs"]
pub mod point;
