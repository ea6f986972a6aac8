//! A minimal wall-clock micro-benchmark harness for the `benches/`
//! targets and `sfs-bench hotpath`. Unlike the virtual-time experiments
//! these measure genuine CPU time on the host machine, so the timings
//! are reports, not regression tests; the allocation counts taken on
//! the same loops are exact, and `tests/alloc_regression.rs` pins them.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sfs::client::{Mount, SfsClient};
use sfs_crypto::poly1305::poly1305;
use sfs_crypto::ChaCha20;
use sfs_nfs3::proto::{FileHandle, Nfs3Request, StableHow};
use sfs_proto::channel::{SecureChannelEnd, SuiteId, FRAME_HEADER_LEN};
use sfs_proto::keyneg::SessionKeys;
use sfs_xdr::XdrEncoder;

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

/// One measured loop body: a stage of the per-RPC data path at one
/// payload size.
pub struct Stage {
    /// Row name in `BENCH_hotpath.json`.
    pub name: &'static str,
    /// Payload bytes per operation.
    pub payload: usize,
    /// One operation.
    pub op: Box<dyn FnMut()>,
}

/// Payload sizes exercised at every stage (8 B … 8 KiB).
pub const PAYLOAD_SIZES: [usize; 5] = [8, 64, 512, 4096, 8192];

/// Message sizes for the bare Poly1305 and ChaCha20 kernel rows: below
/// one wide step, a few steps, and the bulk NFS transfer size.
const KERNEL_SIZES: [usize; 3] = [64, 512, 8192];

fn channel_pair(suite: SuiteId) -> (SecureChannelEnd, SecureChannelEnd) {
    let keys = SessionKeys {
        kcs: *b"hotpath-kcs-12345678",
        ksc: *b"hotpath-ksc-87654321",
        session_id: [7u8; 20],
    };
    (
        SecureChannelEnd::client_with_suite(&keys, suite),
        SecureChannelEnd::server_with_suite(&keys, suite),
    )
}

/// The stages below the relay — XDR encode, secure-channel seal and
/// seal+open on both negotiable suites, and the AEAD's two kernels — all
/// of which must be allocation-free once their buffers are warm.
///
/// `seal_into` / `seal_open_roundtrip` keep their historical names for
/// the paper-baseline ARC4+SHA-1 channel so JSON diffs line up across
/// PRs; the chacha20-poly1305 fast path lands under a `chacha_` prefix.
/// The kernel rows go through the public entry points, i.e. whichever
/// tier this CPU dispatches to, so a `chacha_seal_into` row decomposes
/// into cipher + MAC (plus the frame bookkeeping).
pub fn micro_stages() -> Vec<Stage> {
    let mut stages = Vec::new();
    let mut stage = |name, payload, op: Box<dyn FnMut()>| stages.push(Stage { name, payload, op });
    let fh = FileHandle(vec![0x42; 32]);
    for n in PAYLOAD_SIZES {
        let req = Nfs3Request::Write {
            fh: fh.clone(),
            offset: 0,
            stable: StableHow::FileSync,
            data: vec![0x5A; n],
        };
        // One reused encoder; `reset` keeps the allocation.
        let mut enc = XdrEncoder::new();
        let op = move || {
            enc.reset();
            req.encode_args_into(&mut enc);
            std::hint::black_box(enc.bytes().len());
        };
        stage("encode_write", n, Box::new(op));
    }
    for (seal_name, roundtrip_name, suite) in [
        ("seal_into", "seal_open_roundtrip", SuiteId::Arc4Sha1),
        (
            "chacha_seal_into",
            "chacha_seal_open_roundtrip",
            SuiteId::ChaCha20Poly1305,
        ),
    ] {
        for (name, open, fill) in [(seal_name, false, 0x33u8), (roundtrip_name, true, 0x44)] {
            for n in PAYLOAD_SIZES {
                let (mut tx, mut rx) = channel_pair(suite);
                let payload = vec![fill; n];
                let mut buf: Vec<u8> = Vec::new();
                let op = move || {
                    buf.clear();
                    buf.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
                    buf.extend_from_slice(&payload);
                    tx.seal_into(&mut buf, 0).expect("seal");
                    if open {
                        let plain = rx.open_in_place(&mut buf).expect("open");
                        std::hint::black_box(plain.len());
                    }
                    std::hint::black_box(buf.len());
                };
                stage(name, n, Box::new(op));
            }
        }
    }
    let kernel_key = [0x42u8; 32];
    for n in KERNEL_SIZES {
        let msg = vec![0x55u8; n];
        let op = move || {
            std::hint::black_box(poly1305(&kernel_key, std::hint::black_box(&msg)));
        };
        stage("poly1305", n, Box::new(op));
    }
    for n in KERNEL_SIZES {
        let mut buf = vec![0x66u8; n];
        let op = move || {
            ChaCha20::new(&kernel_key, &[7u8; 12], 1).xor_keystream(&mut buf);
            std::hint::black_box(&mut buf);
        };
        stage("chacha20", n, Box::new(op));
    }
    stages
}

/// Steady-state allocations per RPC on the [`relay_rig`] loop, pinned by
/// both `sfs-bench hotpath` and `tests/alloc_regression.rs`. The full
/// relay crosses the VFS and the NFS server, so it keeps a small budget:
/// 5.2 allocations per GETATTR and 7.2 per READ measured (debug and
/// release profiles alike; 36/38 before pooling, 11/14 before the
/// direct-encode call path and stack-buffer handle decryption, 7/9
/// while every wire kept a private string-keyed counter registry — the
/// reply-cache copy every sealed reply now leaves behind is one of
/// them, its map node the fraction), rounded up. Raising these is a
/// perf regression — justify it in the PR that does.
pub const RELAY_GETATTR_ALLOC_CEILING: f64 = 6.0;
/// READ replies materialise the payload, and `hotpath`'s loop builds
/// its request (a file-handle clone) inside the measured operation, so
/// reads carry two more per-RPC allocations than GETATTR there and one
/// more in `alloc_regression`.
pub const RELAY_READ_ALLOC_CEILING: f64 = 8.0;

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
