//! A minimal wall-clock micro-benchmark harness for the `benches/`
//! targets and `sfs-bench hotpath`. Unlike the virtual-time experiments
//! these measure genuine CPU time on the host machine, so the timings
//! are reports, not regression tests; the allocation counts taken on
//! the same loops are exact, and `tests/alloc_regression.rs` pins them.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sfs::client::{Mount, SfsClient};
use sfs::wire::{encode_inner_nfs, InnerReply};
use sfs_crypto::poly1305::poly1305;
use sfs_crypto::ChaCha20;
use sfs_nfs3::proto::{Fattr3, FileHandle, Nfs3Reply, Nfs3Request, PostOpAttr, StableHow};
use sfs_proto::channel::{SecureChannelEnd, SuiteId, FRAME_HEADER_LEN};
use sfs_proto::keyneg::SessionKeys;
use sfs_vfs::FileType;
use sfs_xdr::{Xdr, XdrEncoder};

use crate::world::{World, WorldSpec, UID};

/// Target measurement window per loop (split across its passes).
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

/// Warms `f` up and grows its iteration count until one pass fills
/// `window`; returns that count.
fn calibrate(f: &mut impl FnMut(), window: Duration) -> u64 {
    let mut iters: u64 = 1;
    loop {
        let t0 = Instant::now();
        (0..iters).for_each(|_| f());
        let dt = t0.elapsed();
        if dt >= window || iters >= 1 << 28 {
            return iters;
        }
        // Scale the count toward the window (at least double).
        let scale = (window.as_nanos() / dt.as_nanos().max(1)).clamp(2, 1024) as u64;
        iters = iters.saturating_mul(scale);
    }
}

/// Several loops measured side by side: each is calibrated to
/// `window / rounds`, then the loops run round-robin `rounds` times and
/// each keeps its fastest pass. Rows a ratio compares are then measured
/// in the same stretches of the run, and a stretch the host spends
/// elsewhere slows one pass, not the row. Prints one line per loop and
/// returns the best ns per iteration, in order.
pub(crate) fn bench_rounds(
    names: &[String],
    ops: &mut [Box<dyn FnMut() + '_>],
    rounds: u32,
) -> Vec<u128> {
    let iters: Vec<u64> = ops
        .iter_mut()
        .map(|f| calibrate(f, WINDOW / rounds))
        .collect();
    let mut best = vec![u128::MAX; ops.len()];
    for _ in 0..rounds {
        for ((f, &n), best) in ops.iter_mut().zip(&iters).zip(&mut best) {
            let t0 = Instant::now();
            (0..n).for_each(|_| f());
            *best = (*best).min(t0.elapsed().as_nanos() / n as u128);
        }
    }
    for ((name, n), per) in names.iter().zip(&iters).zip(&best) {
        let per = fmt_ns(*per);
        println!("{name:<44} {n:>9} iters x{rounds}  {per:>9}/iter");
    }
    best
}

/// Passes per loop of a [`Rows`] run.
pub(crate) const ROUNDS: u32 = 5;

/// Loops for one `bench_rounds` run, added one at a time: what the
/// `benches/` targets report through, so each group's rows are measured
/// side by side and a rerun of one binary repeats them.
#[derive(Default)]
pub struct Rows<'a> {
    names: Vec<String>,
    /// Bytes one iteration processes, for a throughput line.
    bytes: Vec<Option<u64>>,
    ops: Vec<Box<dyn FnMut() + 'a>>,
}

impl<'a> Rows<'a> {
    /// No rows yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// A loop of `f`.
    pub fn add<T>(&mut self, name: impl Into<String>, f: impl FnMut() -> T + 'a) -> &mut Self {
        self.push(name.into(), None, f)
    }

    /// A loop of `f` over `bytes` a pass, whose line also reports
    /// throughput.
    pub fn add_throughput<T>(
        &mut self,
        name: impl Into<String>,
        bytes: u64,
        f: impl FnMut() -> T + 'a,
    ) -> &mut Self {
        self.push(name.into(), Some(bytes), f)
    }

    fn push<T>(
        &mut self,
        name: String,
        bytes: Option<u64>,
        mut f: impl FnMut() -> T + 'a,
    ) -> &mut Self {
        self.names.push(name);
        self.bytes.push(bytes);
        self.ops.push(Box::new(move || {
            std::hint::black_box(f());
        }));
        self
    }

    /// Times every loop, `ROUNDS` passes each, side by side; returns
    /// each one's best ns per iteration, in order.
    pub fn run(mut self) -> Vec<u128> {
        let best = bench_rounds(&self.names, &mut self.ops, ROUNDS);
        for (name, (bytes, per)) in self.names.iter().zip(self.bytes.iter().zip(&best)) {
            if let (Some(bytes), true) = (bytes, *per > 0) {
                let mbps = *bytes as f64 * 1e9 / *per as f64 / (1024.0 * 1024.0);
                println!("{name:>44}   {mbps:>10.1} MiB/s");
            }
        }
        best
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
pub(crate) const PAYLOAD_SIZES: [usize; 5] = [8, 64, 512, 4096, 8192];

/// Message sizes for the bare Poly1305 and ChaCha20 kernel rows: below
/// one wide step, a few steps, and the bulk NFS transfer size (Poly1305
/// also runs at [`bulk_frames`]).
const KERNEL_SIZES: [usize; 3] = [64, 512, 8192];

/// ChaCha20 adds a row at its tier boundary: 1 KiB is the shortest
/// input the AVX-512 sixteen-block step takes.
const CHACHA20_SIZES: [usize; 4] = [64, 512, 1024, 8192];

/// The channel plaintext of the bulk path's two frames, as the sealed
/// path encodes them: one 8 KiB READ reply (the data, its header and
/// attributes, no invalidations) and one 32 KiB WRITE call.
pub(crate) fn bulk_frames() -> [usize; 2] {
    let fattr = Fattr3 {
        ftype: FileType::Regular,
        mode: 0o644,
        nlink: 1,
        uid: 0,
        gid: 0,
        size: 1 << 24,
        fsid: 1,
        fileid: 2,
        atime: 3,
        mtime: 4,
        ctime: 5,
    };
    let read = Nfs3Reply::Read {
        data: vec![0u8; 8192],
        eof: false,
        attr: PostOpAttr {
            attr: Some(fattr),
            lease_ns: 1,
        },
    };
    let reply = InnerReply::Nfs {
        results: read.encode_results(),
        invalidations: Vec::new(),
    };
    let write: Nfs3Request = Nfs3Request::Write {
        fh: FileHandle::new(&[0x42; 24]).expect("a public handle"),
        offset: 0,
        stable: StableHow::Unstable,
        data: vec![0u8; 32 * 1024],
    };
    let mut call = Vec::new();
    encode_inner_nfs(&mut call, 1, &write.borrowed());
    [reply.to_xdr().len(), call.len()]
}

/// A client end and a server end keyed alike under `suite`.
pub fn channel_pair(suite: SuiteId) -> (SecureChannelEnd, SecureChannelEnd) {
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
/// into cipher + MAC (plus the frame bookkeeping). Each channel stage
/// seals frame after frame on one channel, so on AVX-512 its 8- and
/// 64-byte rows run the paired frame-head step and take every other
/// head from the direction's stash.
pub fn micro_stages() -> Vec<Stage> {
    let mut stages = Vec::new();
    let mut stage = |name, payload, op: Box<dyn FnMut()>| stages.push(Stage { name, payload, op });
    let fh = FileHandle::from([0x42; 32]);
    for n in PAYLOAD_SIZES {
        let req: Nfs3Request = Nfs3Request::Write {
            fh,
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
            // The negotiated suite's round trip also at the bulk frames.
            let bulk = bulk_frames()
                .into_iter()
                .filter(|_| open && suite != SuiteId::Arc4Sha1);
            for n in PAYLOAD_SIZES.into_iter().chain(bulk) {
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
    for n in KERNEL_SIZES.into_iter().chain(bulk_frames()) {
        let msg = vec![0x55u8; n];
        let op = move || {
            std::hint::black_box(poly1305(&kernel_key, std::hint::black_box(&msg)));
        };
        stage("poly1305", n, Box::new(op));
    }
    for n in CHACHA20_SIZES {
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
/// both `sfs-bench hotpath` and `tests/alloc_regression.rs`. A warm
/// GETATTR crosses client, channel, wire, server, NFS server and VFS
/// without allocating (debug and release profiles alike; 36/38 per
/// GETATTR/READ before pooling, 11/14 before the direct-encode call path
/// and stack-buffer handle decryption, 7/9 while every wire kept a
/// private string-keyed counter registry, 5.2/7.2 while every sealed
/// reply left a fresh copy in a 256-deep reply cache and the client
/// decoded through an `InnerReply` with its own results `Vec`, 3/5
/// while every file handle was a heap `Vec` re-allocated at each layer
/// it crossed). Raising these is a perf regression — justify it in the
/// PR that does.
pub const RELAY_GETATTR_ALLOC_CEILING: f64 = 0.0;
/// A READ's payload is materialised once, in the copy the client hands
/// the caller: the server encodes the file's bytes straight into its
/// reply frame (2 while the VFS copied them into a `Vec` of the reply's
/// own first).
pub const RELAY_READ_ALLOC_CEILING: f64 = 1.0;

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
