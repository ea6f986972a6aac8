//! Benchmark harness reproducing every table and figure in §4 of the SFS
//! paper.
//!
//! - [`kernel`]: the simulated kernel file-system layers — page cache,
//!   name cache, and attribute caching — over three stacks: the local FFS
//!   baseline, kernel NFS3 (UDP or TCP), and SFS;
//! - [`keys`], [`world`]: the memoised deterministic keys and the one
//!   `WorldSpec` → `World::build` assembly every bench and test runs on;
//! - [`calib`]: the §4 systems (local FFS, kernel NFS3, SFS) over that
//!   world, with the calibrated Pentium III / 100 Mbit cost model;
//! - [`oracle`]: the append-only multi-client coherence oracle;
//! - [`workloads`]: the paper's workloads — the §4.2 micro-benchmarks, the
//!   Modified Andrew Benchmark (§4.3), the FreeBSD kernel build (§4.3),
//!   and the Sprite LFS small/large-file benchmarks (§4.4);
//! - [`figures`]: Figures 5–9, the ablations, the trend and the RPC
//!   counts as cells over one memo of worlds, beside the paper's values;
//! - [`experiments`]: the further experiments behind the committed
//!   `BENCH_*.json` artifacts;
//! - [`driver`]: the one `sfs-bench <experiment> [flags]` driver over
//!   them all;
//! - [`report`]: checks as data, the artifact emitter and rerun check.
//!
//! `sfs-bench figures` regenerates every figure and `BENCH_figures.json`;
//! `sfs-bench all` regenerates every committed virtual-time artifact.

pub mod alloc_count;
pub mod args;
pub mod calib;
pub mod driver;
pub mod experiments;
pub mod figures;
pub mod kernel;
pub mod keys;
pub mod microbench;
pub mod oracle;
pub mod report;
pub mod scenario;
pub mod trace;
pub mod workloads;
pub mod world;

pub use calib::{System, Testbed};
pub use kernel::FsBench;
