//! Deterministic virtual-time simulation of SFS's execution environment.
//!
//! The paper's evaluation (§4) ran on two 550 MHz Pentium IIIs joined by
//! 100 Mbit switched Ethernet, with FreeBSD's FFS on an IBM 18ES SCSI disk.
//! This crate substitutes a calibrated, deterministic model of that testbed
//! so that every figure can be regenerated bit-for-bit:
//!
//! - `time`: a shared virtual clock ([`SimClock`]) that components charge
//!   costs to;
//! - `net`: request/response wires with latency, bandwidth, and
//!   per-message transport overhead (UDP vs TCP), plus one
//!   [`Interceptor`] hook for the paper's §2.1.2 adversary — "attackers
//!   can intercept packets, tamper with them, and inject new packets onto
//!   the network" — whether a test scripts it or a [`FaultPlan`] draws it;
//! - `disk`: a seek/rotate/transfer disk model with a write-behind cache
//!   and explicit synchronous-write accounting (the Sprite LFS benchmarks
//!   are dominated by sync writes);
//! - `fault`: a seeded, deterministic [`FaultPlan`]: on a wire, the
//!   interceptor that drops, duplicates, reorders, corrupts, and delays
//!   packets and cuts scheduled partitions; beside it, the schedule that
//!   crash-restarts servers and fails sync disk writes —
//!   every chaos run reproducible byte-for-byte from its seed;
//! - `cpu`: per-byte and per-operation CPU cost accounting (user-level
//!   crossings, software crypto);
//! - [`ipc`]: authenticated local inter-process calls standing in for
//!   Unix-domain sockets plus the `suidconnect` helper (§3.2);
//! - `churn`: seeded population-churn schedules ([`ChurnSchedule`]) for
//!   "million-user day" storm scenarios — mass remounts, key rollover,
//!   lease-expiry waves, revocation broadcast.

mod churn;
mod cpu;
mod disk;
mod fault;
pub mod ipc;
mod journal;
mod net;
mod repl;
mod time;

pub use churn::ChurnSchedule;
pub use cpu::CpuCosts;
pub use disk::{DiskCommitQueue, DiskParams, DiskQueueStats, DiskTally, SimDisk};
pub use fault::{parse_duration_ns, FaultEvent, FaultKind, FaultPlan};
pub use journal::JournalDisk;
pub use net::{
    Direction, Exchange, ExchangeReply, Interceptor, NetParams, PacketLog, ServerCost, ServerLoad,
    Transport, Verdict, Wire, WireError,
};
pub use repl::{ReplLink, ReplTransport};
pub use time::{CoreSet, SimClock, SimTime};
