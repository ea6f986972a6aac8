//! `sfs-benchmark` as a library: the binary in `main.rs` is a thin
//! command line over these modules, and the integration tests read the
//! metric catalogue and the JSON reader from here.

pub mod data;
pub mod harness;
pub mod layers;
pub mod report;
pub mod run;
pub mod stack;
pub mod workloads;
