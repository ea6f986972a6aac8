//! A minimal wall-clock micro-benchmark harness for the `benches/`
//! targets. Unlike the `fig*` binaries (deterministic virtual time),
//! these measure genuine CPU time on the host machine, so they are
//! reporting tools, not regression tests.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sfs::client::{Mount, SfsClient};
use sfs_nfs3::proto::FileHandle;

use crate::world::{World, WorldSpec, UID};

/// Target measurement window per benchmark.
const WINDOW: Duration = Duration::from_millis(100);

fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Runs `f` repeatedly until the measurement window fills, then prints
/// mean time per iteration. Returns the mean in ns.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> u128 {
    // Warm up and calibrate the iteration count.
    let mut iters: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let dt = t0.elapsed();
        if dt >= WINDOW || iters >= 1 << 28 {
            let per = dt.as_nanos() / iters as u128;
            println!("{name:<44} {iters:>9} iters   {:>12}/iter", fmt_ns(per));
            return per;
        }
        // Scale the count toward the window (at least double).
        let scale = (WINDOW.as_nanos() / dt.as_nanos().max(1)).clamp(2, 1024) as u64;
        iters = iters.saturating_mul(scale);
    }
}

/// Like [`bench()`], also reporting throughput for `bytes` processed per
/// iteration.
pub fn bench_throughput<T>(name: &str, bytes: u64, f: impl FnMut() -> T) {
    let per = bench(name, f);
    if per > 0 {
        let mbps = bytes as f64 * 1e9 / per as f64 / (1024.0 * 1024.0);
        println!("{:>44}   {mbps:>10.1} MiB/s", "");
    }
}

/// The steady-state sealed relay loop the wall-clock and allocation
/// numbers are taken on: a memory-backed world with no CPU model, one
/// mounted client with caching off (every measured RPC must cross the
/// wire), and one `/bench/data` file of `0xAB` bytes to read.
pub struct RelayRig {
    /// The world; `servers[0]` is the server under test.
    pub world: World,
    /// The world's one client.
    pub client: Arc<SfsClient>,
    /// Its mount of the server.
    pub mount: Arc<Mount>,
    /// The data file's handle.
    pub data_fh: FileHandle,
}

/// Builds a [`RelayRig`] with a `file_bytes`-byte data file, the server
/// dispatching on `cores` when given.
pub fn relay_rig(cores: Option<usize>, file_bytes: usize) -> RelayRig {
    let world = World::build(&WorldSpec {
        disk: None,
        cpu: None,
        cores,
        ..WorldSpec::bench()
    });
    let client = world.clients[0].clone();
    let mount = client.mount(UID, world.path()).expect("mount");
    let file = format!("{}/bench/data", world.path().full_path());
    client
        .write_file(UID, &file, &vec![0xAB; file_bytes])
        .expect("write data file");
    let (_, data_fh, _) = client.resolve(UID, &file).expect("resolve data file");
    client.set_caching(false);
    RelayRig {
        world,
        client,
        mount,
        data_fh,
    }
}
