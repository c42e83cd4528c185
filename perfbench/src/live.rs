//! The live crates, under the names `point.rs` uses.

pub use irrnet_core as icore;
pub use irrnet_sim as isim;
pub use irrnet_topology as itopo;

// Each crate set uses only part of the pipeline.
#[allow(dead_code)]
#[path = "point.rs"]
pub mod point;
