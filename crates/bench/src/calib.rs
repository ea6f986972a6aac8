//! Testbed assembly with the calibrated cost model.
//!
//! §4.1: "We measured file system performance between two 550 MHz Pentium
//! IIIs running FreeBSD 3.3. The client and server were connected by
//! 100 Mbit/sec switched Ethernet. … an IBM 18ES 9 Gigabyte SCSI disk."
//!
//! The cost constants live in [`sfs_sim::CpuCosts::pentium_iii_550`] and
//! [`sfs_sim::NetParams::switched_100mbit`]; they are fitted *only* to the
//! four corners of Figure 5 (the micro-benchmarks). Every other figure is
//! then produced by running the real protocol code over this single model
//! — no per-figure tuning.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use sfs::ShardEngine;
use sfs_nfs3::Nfs3Server;
use sfs_sim::{NetParams, SimClock, Transport, Wire};
use sfs_vfs::Vfs;

use crate::kernel::{FsBench, KernelNfs, LocalFs, SfsBench};
use crate::world::{World, WorldSpec};

/// The benchmark user.
pub const BENCH_UID: u32 = crate::world::UID;

/// The systems compared throughout §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    /// FreeBSD's local FFS on the server machine.
    Local,
    /// NFS 3 over UDP.
    NfsUdp,
    /// NFS 3 over TCP.
    NfsTcp,
    /// SFS (secure channel, user-level daemons, enhanced caching).
    Sfs,
    /// SFS with software encryption disabled (§4.2/§4.3 ablation).
    SfsNoEncrypt,
    /// SFS without the enhanced attribute/access caching (§4.3 ablation).
    SfsNoCache,
}

impl System {
    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            System::Local => "Local",
            System::NfsUdp => "NFS 3 (UDP)",
            System::NfsTcp => "NFS 3 (TCP)",
            System::Sfs => "SFS",
            System::SfsNoEncrypt => "SFS w/o encryption",
            System::SfsNoCache => "SFS w/o enhanced caching",
        }
    }

    /// The four systems of Figures 6–9.
    pub fn main_four() -> [System; 4] {
        [System::Local, System::NfsUdp, System::NfsTcp, System::Sfs]
    }
}

/// A fully assembled single-system testbed.
pub struct Testbed {
    /// The virtual clock everything charges.
    pub clock: SimClock,
    /// The file-system stack under test.
    pub fs: Box<dyn FsBench>,
    /// Path prefix workloads join their names to with `/` ("" = the
    /// bench directory itself; the local and NFS stacks address the
    /// bench directory explicitly).
    pub prefix: &'static str,
    /// The server-side file system (for cache-state control).
    pub server_vfs: Vfs,
    /// The multi-core scheduler, when built with `cores` on an SFS
    /// system — so reporters can flush its final open commit batches
    /// into the `server.disk.batch_size` histogram after the workload.
    pub shard_engine: Option<Arc<ShardEngine>>,
}

/// Testbeds built by this process — what a figure run is charged for.
static BUILDS: AtomicUsize = AtomicUsize::new(0);

impl Testbed {
    /// How many testbeds this process has built so far.
    pub fn builds() -> usize {
        BUILDS.load(Ordering::Relaxed)
    }

    /// Builds the testbed for one system on the [`WorldSpec::bench`]
    /// world (`spec` overrides its CPU costs, tracing sink, fault plan
    /// and core count). The exported file system starts with a
    /// world-writable `bench` directory. The non-SFS systems take the
    /// world's disk → `Vfs` stage and its cost model and put the kernel
    /// stacks on top; cores are ignored there (no sharded dispatch to
    /// configure).
    pub fn build(system: System, spec: &WorldSpec) -> Testbed {
        BUILDS.fetch_add(1, Ordering::Relaxed);
        let transport = match system {
            System::Local => None,
            System::NfsUdp => Some(Transport::Udp),
            System::NfsTcp => Some(Transport::Tcp),
            System::Sfs | System::SfsNoEncrypt | System::SfsNoCache => {
                return Self::sfs(system, spec)
            }
        };
        let clock = spec.clock();
        let vfs = spec.export(&clock, 0, spec.locations[0]);
        let fs: Box<dyn FsBench> = match transport {
            None => Box::new(LocalFs::new(vfs.clone(), clock.clone())),
            Some(transport) => {
                let mut wire = Wire::new(clock.clone(), NetParams::switched_100mbit(transport));
                let server = Nfs3Server::new(vfs.clone());
                if let Some(tel) = &spec.tel {
                    wire.set_telemetry(tel);
                    server.set_telemetry(tel);
                }
                if let Some(plan) = &spec.plan {
                    wire.set_fault_plan(plan.clone());
                }
                let cpu = spec.cpu.expect("the kernel NFS stack charges CPU");
                Box::new(KernelNfs::new(
                    system.label(),
                    clock.clone(),
                    wire,
                    server,
                    cpu,
                ))
            }
        };
        Testbed {
            clock,
            fs,
            prefix: "bench",
            server_vfs: vfs,
            shard_engine: None,
        }
    }

    /// The SFS systems: the world itself, one client behind the kernel
    /// layers.
    fn sfs(system: System, spec: &WorldSpec) -> Testbed {
        let world = World::build(spec);
        let client = world.clients[0].clone();
        match system {
            System::SfsNoEncrypt => client.set_charge_crypto(false),
            System::SfsNoCache => client.set_caching(false),
            _ => {}
        }
        let server = &world.servers[0];
        let prefix = format!("{}/bench", server.path().full_path());
        Testbed {
            fs: Box::new(SfsBench::new(system.label(), client, BENCH_UID, &prefix)),
            prefix: "",
            server_vfs: server.vfs().clone(),
            shard_engine: server.shard_engine(),
            clock: world.clock,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmarks_are_deterministic() {
        // The simulator's core promise: identical runs give identical
        // virtual times, bit for bit.
        let run = || {
            let Testbed {
                fs, clock, prefix, ..
            } = Testbed::build(System::Sfs, &WorldSpec::bench());
            let p = format!("{prefix}/det").trim_start_matches('/').to_string();
            fs.create(&p).unwrap();
            fs.write(&p, 0, b"determinism").unwrap();
            for _ in 0..10 {
                fs.read(&p, 0, 11).unwrap();
                fs.stat(&p).unwrap();
            }
            clock.now().as_nanos()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn all_systems_build_and_do_io() {
        for system in [
            System::Local,
            System::NfsUdp,
            System::NfsTcp,
            System::Sfs,
            System::SfsNoEncrypt,
            System::SfsNoCache,
        ] {
            let Testbed {
                fs, clock, prefix, ..
            } = Testbed::build(system, &WorldSpec::bench());
            let p = |name: &str| {
                if prefix.is_empty() {
                    name.to_string()
                } else {
                    format!("{prefix}/{name}")
                }
            };
            fs.create(&p("hello")).unwrap();
            fs.write(&p("hello"), 0, b"world").unwrap();
            assert_eq!(fs.read(&p("hello"), 0, 5).unwrap(), b"world");
            assert_eq!(fs.stat(&p("hello")).unwrap(), 5);
            fs.unlink(&p("hello")).unwrap();
            assert!(clock.now().as_nanos() > 0, "{system:?} charged no time");
        }
    }

    #[test]
    fn sfs_slower_than_nfs_on_rpc_latency() {
        // The Figure-5 ordering must hold structurally.
        let mut times = Vec::new();
        for system in [System::NfsUdp, System::NfsTcp, System::Sfs] {
            let Testbed {
                fs, clock, prefix, ..
            } = Testbed::build(system, &WorldSpec::bench());
            let p = format!("{prefix}/f").trim_start_matches('/').to_string();
            fs.create(&p).unwrap();
            let t0 = clock.now();
            for _ in 0..100 {
                fs.chown_fail(&p).unwrap();
            }
            times.push(clock.now().since(t0).as_nanos());
        }
        assert!(times[0] < times[1], "UDP < TCP: {times:?}");
        assert!(times[1] < times[2], "TCP < SFS: {times:?}");
    }
}
