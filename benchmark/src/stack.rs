//! The one seam between the benchmark and the program under test.
//!
//! Every call into the `sfs*` crates is made from this file, through
//! public functions only, and everything it hands back is plain data —
//! so a later PR that renames or removes a program item is repaired
//! here alone, and no other benchmark file can drift onto a private or
//! soon-to-be-consolidated entry point. The full list of program items
//! used is in `README.md` ("What the benchmark calls").
//!
//! Three groups:
//!
//! - [`World`] / [`Member`]: build the real stack (client → XDR →
//!   secure channel → simulated wire → server dispatch → NFS3 → VFS →
//!   simulated disk) and issue file-system calls through it;
//! - [`Harvest`]: counters, gauges, histograms and spans recorded by the
//!   program's own `Telemetry`, copied out as plain data;
//! - the `probe_*` functions: wall-clock timings of single layers'
//!   public functions, taken from outside on caller-supplied requests.

use std::sync::Arc;
use std::time::Instant;

use sfs::authserver::{AuthServer, UserRecord};
use sfs::bufpool::BufPool;
use sfs::client::{Mount, SfsClient, SfsNetwork};
use sfs::server::{ServerConfig, SfsServer};
use sfs_bignum::XorShiftSource;
use sfs_crypto::rabin::{generate_keypair, RabinPrivateKey};
use sfs_crypto::srp::SrpGroup;
use sfs_crypto::SfsPrg;
use sfs_nfs3::{FileHandle, Nfs3Reply, Nfs3Request, Nfs3Server, Proc, Sattr3, StableHow};
use sfs_proto::channel::{SecureChannelEnd, SuiteId, FRAME_HEADER_LEN};
use sfs_proto::keyneg::SessionKeys;
use sfs_sim::{CpuCosts, DiskParams, NetParams, SimClock, SimDisk, Transport};
use sfs_telemetry::{Telemetry, ZeroClock};
use sfs_vfs::{AccessMode, Credentials, Ino, SetAttr, Vfs};
use sfs_xdr::XdrEncoder;

/// The benchmark user every client authenticates as.
const UID: u32 = 4242;
const GID: u32 = 100;

/// ACCESS mask asking for every right (RFC 1813 bits 0x01..0x20).
pub const ACCESS_ALL: u32 = 0x3f;
/// What the server grants the owner of a mode-0644 file out of
/// [`ACCESS_ALL`]: READ | MODIFY | EXTEND | DELETE.
pub const ACCESS_OWNER_RW: u32 = 0x1d;

/// An opaque SFS file handle as the client sees it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Handle(FileHandle);

/// Secure-channel cipher suite a workload negotiates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Suite {
    /// The client's default offer: the paper's ARC4 + SHA-1 MAC.
    Arc4Sha1,
    /// ChaCha20-Poly1305 offered first (ARC4 stays the fallback).
    ChaCha,
}

impl Suite {
    fn id(self) -> SuiteId {
        match self {
            Suite::Arc4Sha1 => SuiteId::Arc4Sha1,
            Suite::ChaCha => SuiteId::ChaCha20Poly1305,
        }
    }
}

/// How a workload wants the stack assembled.
#[derive(Clone, Debug)]
pub struct WorldSpec {
    /// Client machines. One shares a single virtual clock with the
    /// server; more than one puts every client and the server on its own
    /// clock (a fleet is many machines, not one timeline).
    pub clients: usize,
    pub suite: Suite,
    /// Sealed calls a client may keep in flight (1 = blocking RPC).
    pub window: usize,
    /// The client's enhanced attribute/access caching (§3.3 leases).
    pub caching: bool,
    /// Put the server's VFS on the simulated disk.
    pub disk: bool,
    /// Install an N-core `ShardEngine`; `None` keeps the classic
    /// single-server discipline.
    pub cores: Option<usize>,
}

/// One client machine.
pub struct Member {
    client: Arc<SfsClient>,
    mount: Arc<Mount>,
}

/// A fully assembled stack: one server, its exported `/bench` directory,
/// and the mounted clients.
pub struct World {
    server: Arc<SfsServer>,
    tel: Telemetry,
    bench_ino: Ino,
    /// `/sfs/<location>:<hostid>/bench`.
    pub dir: String,
    /// SFS-form handle of the bench directory.
    pub dir_handle: Handle,
    pub members: Vec<Member>,
}

/// The disk the write workloads run on: the IBM 18ES with FFS-style
/// metadata clustering used by every figure (4.5 ms positioning,
/// 13 MB/s media rate).
fn disk_params() -> DiskParams {
    DiskParams {
        seek_ns: 4_500_000,
        bandwidth_bps: 13_000_000,
        block_size: 8192,
        write_path_ns_per_byte: 36,
    }
}

fn keypair(bits: usize, seed: u64) -> RabinPrivateKey {
    generate_keypair(bits, &mut XorShiftSource::new(seed))
}

impl World {
    /// Builds the stack. Keys come from fixed generator seeds (set-up
    /// does the same prime searches every time); `link_extra_ns` is
    /// added to the modelled one-way link latency (see
    /// `workloads::link_extra_ns`). The program's `Telemetry` —
    /// recording with `traced`, else the disabled sink every component
    /// starts with — is attached to client, network, server and disk
    /// *before* the first mount, so the handshake is in the trace too.
    pub fn build(spec: &WorldSpec, link_extra_ns: u64, traced: bool) -> World {
        let fleet = spec.clients > 1;
        let tel = if traced {
            Telemetry::recording(ZeroClock)
        } else {
            Telemetry::disabled()
        };
        let server_clock = SimClock::new();
        let mut vfs = Vfs::new(7, server_clock.clone());
        if spec.disk {
            let disk = SimDisk::new(server_clock.clone(), disk_params());
            disk.set_telemetry(&tel);
            vfs = vfs.with_disk(disk);
        }
        let bench_ino = vfs.mkdir_p("/bench").expect("mkdir /bench");
        vfs.setattr(
            &Credentials::root(),
            bench_ino,
            SetAttr {
                mode: Some(0o777),
                uid: Some(UID),
                gid: Some(GID),
                ..Default::default()
            },
        )
        .expect("chown /bench");

        let user_key = keypair(512, 0xB0B);
        let auth = Arc::new(AuthServer::new(
            SrpGroup::generate(128, &mut XorShiftSource::new(0x5A9)),
            2,
        ));
        auth.register_user(UserRecord {
            user: "bench".into(),
            uid: UID,
            gids: vec![GID],
            public_key: user_key.public().to_bytes(),
        });
        let server = SfsServer::new(
            ServerConfig::new("bench.sfs.example"),
            keypair(768, 0x5E4),
            vfs,
            auth,
            SfsPrg::from_entropy(b"sfs-benchmark-server"),
        );
        if let Some(n) = spec.cores {
            server.set_cores(n);
        }
        server.set_telemetry(&tel);
        let dir = format!("{}/bench", server.path().full_path());

        let mut params = NetParams::switched_100mbit(Transport::Tcp);
        params.latency_ns += link_extra_ns;
        let members: Vec<Member> = (0..spec.clients)
            .map(|i| {
                let clock = if fleet {
                    SimClock::new()
                } else {
                    server_clock.clone()
                };
                let net = SfsNetwork::new(clock, params);
                net.register(server.clone());
                let client = SfsClient::with_costs(
                    net,
                    format!("sfs-benchmark-client-{i}").as_bytes(),
                    CpuCosts::pentium_iii_550(),
                );
                if spec.suite != Suite::Arc4Sha1 {
                    client.set_suite_offer(&[spec.suite.id()]);
                }
                client.set_pipeline_window(spec.window);
                client.set_caching(spec.caching);
                client.install_agent_key(UID, user_key.clone());
                // In a fleet each client's spans live on its own clock;
                // a scope keeps the time axes apart.
                if fleet {
                    client.set_telemetry(&tel.scoped(&format!("c{i}")));
                } else {
                    client.set_telemetry(&tel);
                }
                let mount = client.mount(UID, server.path()).expect("mount");
                Member { client, mount }
            })
            .collect();
        let dir_handle = members[0].resolve(&dir).expect("resolve bench directory");
        World {
            server,
            tel,
            bench_ino,
            dir,
            dir_handle,
            members,
        }
    }

    /// Creates `/bench/<name>` with `data` directly in the server's VFS
    /// (mode 0644, owned by the benchmark user) — set-up, not measured
    /// traffic.
    pub fn create_file(&self, name: &str, data: &[u8]) {
        self.server
            .vfs()
            .write_file(&Credentials::user(UID, GID), self.bench_ino, name, data)
            .expect("populate file");
    }

    /// Absolute `/sfs/...` path of a file in the bench directory.
    pub fn path(&self, name: &str) -> String {
        format!("{}/{}", self.dir, name)
    }

    /// Crash-restarts the server: every session dies, keys and files
    /// survive.
    pub fn crash_restart(&self) {
        self.server.crash_restart();
    }

    /// Copies out everything the program's telemetry recorded.
    pub fn harvest(&self) -> Harvest {
        Harvest {
            counters: self
                .tel
                .counters_snapshot()
                .into_iter()
                .map(|(p, n, v)| (p, n.to_string(), v))
                .collect(),
            gauge_hwms: self
                .tel
                .gauges_snapshot()
                .into_iter()
                .map(|(p, n, _, hwm)| (p, n.to_string(), hwm))
                .collect(),
            hists: self
                .tel
                .histograms()
                .into_iter()
                .map(|(p, n, h)| (p, n.to_string(), h.count(), h.sum()))
                .collect(),
            spans: self
                .tel
                .finished_spans()
                .into_iter()
                .map(|s| SpanRec {
                    proc: s.proc,
                    cat: s.cat,
                    name: s.name,
                    start_ns: s.start_ns,
                    dur_ns: s.dur_ns,
                })
                .collect(),
        }
    }

    /// The whole recording as Chrome-trace JSON.
    pub fn chrome_trace(&self) -> String {
        self.tel.chrome_trace()
    }
}

/// A prepared NFS3 request (built outside the timed bracket: the
/// program's call API takes requests by reference, and building one
/// allocates).
pub struct Request(Nfs3Request);

/// A prepared batch for one windowed exchange.
pub struct Batch(Vec<Nfs3Request>);

/// The part of an NFS3 reply the workloads check.
#[derive(Debug)]
pub enum Answer {
    Handle(Handle),
    Written(u32),
    Other,
}

fn answer(reply: Nfs3Reply) -> Result<Answer, String> {
    Ok(match reply {
        Nfs3Reply::Error { status, .. } => return Err(format!("NFS error {status:?}")),
        Nfs3Reply::Lookup { fh, .. } => Answer::Handle(Handle(fh)),
        Nfs3Reply::Write { count, .. } => Answer::Written(count),
        _ => Answer::Other,
    })
}

impl Request {
    pub fn lookup(dir: &Handle, name: &str) -> Request {
        Request(Nfs3Request::Lookup {
            dir: dir.0.clone(),
            name: name.to_string(),
        })
    }
}

impl Batch {
    /// FILE_SYNC WRITEs of `blocks` (offset, data) to one file.
    pub fn sync_writes(fh: &Handle, blocks: Vec<(u64, Vec<u8>)>) -> Batch {
        Batch(
            blocks
                .into_iter()
                .map(|(offset, data)| Nfs3Request::Write {
                    fh: fh.0.clone(),
                    offset,
                    stable: StableHow::FileSync,
                    data,
                })
                .collect(),
        )
    }
}

impl Member {
    /// This machine's virtual clock, ns.
    pub fn now_ns(&self) -> u64 {
        self.client.clock().now().as_nanos()
    }

    /// Resolves an absolute path to its handle (automounting).
    pub fn resolve(&self, path: &str) -> Result<Handle, String> {
        let (_, fh, _) = self.client.resolve(UID, path).map_err(|e| e.to_string())?;
        Ok(Handle(fh))
    }

    /// GETATTR through the attribute cache; returns `(size, fileid)`.
    pub fn getattr(&self, fh: &Handle) -> Result<(u64, u64), String> {
        let a = self
            .client
            .getattr(&self.mount, UID, &fh.0)
            .map_err(|e| e.to_string())?;
        Ok((a.size, a.fileid))
    }

    /// ACCESS through the access cache; returns the granted mask.
    pub fn access(&self, fh: &Handle, mask: u32) -> Result<u32, String> {
        self.client
            .access(&self.mount, UID, &fh.0, mask)
            .map_err(|e| e.to_string())
    }

    /// One blocking NFS3 call.
    pub fn call(&self, req: &Request) -> Result<Answer, String> {
        let reply = self
            .client
            .call_nfs(&self.mount, UID, &req.0)
            .map_err(|e| e.to_string())?;
        answer(reply)
    }

    /// One windowed exchange: every request of the batch in flight at
    /// once (up to the client's pipeline window).
    pub fn call_window(&self, batch: &Batch) -> Result<Vec<Answer>, String> {
        self.client
            .call_nfs_window(&self.mount, UID, &batch.0)
            .map_err(|e| e.to_string())?
            .into_iter()
            .map(answer)
            .collect()
    }

    /// READ through the sequential-stream detector and read-ahead.
    pub fn read(&self, fh: &Handle, offset: u64, count: u32) -> Result<Vec<u8>, String> {
        self.client
            .read(&self.mount, UID, &fh.0, offset, count)
            .map(|(data, _eof)| data)
            .map_err(|e| e.to_string())
    }

    /// Creates or truncates `path` and streams `data` out (write-behind,
    /// then the close barrier).
    pub fn write_file(&self, path: &str, data: &[u8]) -> Result<(), String> {
        self.client
            .write_file(UID, path, data)
            .map_err(|e| e.to_string())
    }

    /// Reads a whole file by path.
    pub fn read_file(&self, path: &str) -> Result<Vec<u8>, String> {
        self.client.read_file(UID, path).map_err(|e| e.to_string())
    }

    /// Drops every mount, so the next access runs the full Figure-3
    /// negotiation again.
    pub fn unmount_all(&self) {
        self.client.unmount_all();
    }

    /// `(hits, misses, rejected)` of ticket resumption so far.
    pub fn resume_stats(&self) -> (u64, u64, u64) {
        self.client.resume_stats()
    }

    /// `(reconnects, round trips)` of the live mount of the benchmark
    /// server (no traffic: the mount is cached).
    pub fn mount_stats(&self) -> Result<(u64, u64), String> {
        let m = self
            .client
            .mount(UID, &self.mount.path)
            .map_err(|e| e.to_string())?;
        Ok((m.reconnects(), m.round_trips()))
    }
}

/// One completed span of the program's trace.
pub struct SpanRec {
    /// Process row ("client", "wire", "server", "c2/client", …).
    pub proc: String,
    /// Layer: the crate/module that opened the span.
    pub cat: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Everything the program's telemetry recorded in one traced run.
pub struct Harvest {
    /// `(process, name, total)`.
    pub counters: Vec<(String, String, u64)>,
    /// `(process, name, high-water mark)`.
    pub gauge_hwms: Vec<(String, String, u64)>,
    /// `(process, name, samples, sum)`.
    pub hists: Vec<(String, String, u64, u64)>,
    /// In completion order.
    pub spans: Vec<SpanRec>,
}

// ---------------------------------------------------------------------
// Wall-clock probes: one layer's public function, timed from outside.
// ---------------------------------------------------------------------

/// A representative request a probe can replay in both of its forms:
/// as the client marshals it (SFS handle) and as the server's NFS3
/// engine receives it (handle decrypted). The handle must come from the
/// world the probes run against.
pub struct ProbeRpc {
    fh: Handle,
    build: Box<dyn Fn(FileHandle) -> Nfs3Request>,
}

impl ProbeRpc {
    fn new(fh: &Handle, build: impl Fn(FileHandle) -> Nfs3Request + 'static) -> Self {
        ProbeRpc {
            fh: fh.clone(),
            build: Box::new(build),
        }
    }

    pub fn getattr(fh: &Handle) -> Self {
        Self::new(fh, |fh| Nfs3Request::GetAttr { fh })
    }

    pub fn lookup(dir: &Handle, name: &str) -> Self {
        let name = name.to_string();
        Self::new(dir, move |dir| Nfs3Request::Lookup {
            dir,
            name: name.clone(),
        })
    }

    pub fn access(fh: &Handle, mask: u32) -> Self {
        Self::new(fh, move |fh| Nfs3Request::Access { fh, mask })
    }

    pub fn read(fh: &Handle, offset: u64, count: u32) -> Self {
        Self::new(fh, move |fh| Nfs3Request::Read { fh, offset, count })
    }

    /// WRITE of `len` bytes at `offset`, FILE_SYNC or unstable.
    pub fn write(fh: &Handle, offset: u64, len: usize, sync: bool) -> Self {
        Self::new(fh, move |fh| Nfs3Request::Write {
            fh,
            offset,
            stable: if sync {
                StableHow::FileSync
            } else {
                StableHow::Unstable
            },
            data: vec![0xA5; len],
        })
    }

    /// SETATTR size = 0 (the truncate in `write_file`).
    pub fn truncate(fh: &Handle) -> Self {
        Self::new(fh, |fh| Nfs3Request::SetAttr {
            fh,
            attrs: Sattr3 {
                size: Some(0),
                ..Default::default()
            },
        })
    }
}

/// Mean wall ns per op of each probed layer (already multiplied by the
/// calls one op makes).
#[derive(Default, Debug, Clone)]
pub struct ProbeTimes {
    pub xdr_encode_ns: f64,
    pub xdr_decode_ns: f64,
    pub handle_cipher_ns: f64,
    pub nfs3_handle_ns: f64,
    pub vfs_op_ns: f64,
    /// Smallest and largest plaintext the probed RPCs put through the
    /// secure channel (request or reply), bytes: the two sizes the
    /// channel's cost is probed at.
    pub frame_lens: (usize, usize),
}

/// Times `f` over `iters` calls after a short warm-up and returns the
/// best of five batch means, in ns per call — the same "quiet host"
/// estimator as the end-to-end wall metric, at probe scale.
fn time_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters.min(16) {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    best
}

/// Calls the VFS function an NFS3 request maps to, with no NFS3 layer
/// around it.
fn vfs_call(vfs: &Vfs, nfs: &Nfs3Server, creds: &Credentials, req: &Nfs3Request) {
    let ino = |fh: &FileHandle| nfs.decode_handle(fh).expect("probe handle decodes");
    match req {
        Nfs3Request::GetAttr { fh } => {
            std::hint::black_box(vfs.getattr(ino(fh)).ok());
        }
        Nfs3Request::Lookup { dir, name } => {
            std::hint::black_box(vfs.lookup(creds, ino(dir), name).ok());
        }
        Nfs3Request::Access { fh, .. } => {
            std::hint::black_box(vfs.access(creds, ino(fh), AccessMode::Read).ok());
        }
        Nfs3Request::Read { fh, offset, count } => {
            std::hint::black_box(vfs.read(creds, ino(fh), *offset, *count as usize).ok());
        }
        Nfs3Request::Write {
            fh,
            offset,
            stable,
            data,
        } => {
            let sync = *stable == StableHow::FileSync;
            std::hint::black_box(vfs.write(creds, ino(fh), *offset, data, sync).ok());
        }
        Nfs3Request::SetAttr { fh, attrs } => {
            std::hint::black_box(vfs.setattr(creds, ino(fh), (*attrs).into()).ok());
        }
        _ => {}
    }
}

/// Plaintext bytes the client seals for one NFS3 call: the inner-call
/// header (tag, authno, proc, args length) plus the marshaled arguments.
const INNER_CALL_HEADER: usize = 16;
/// Plaintext bytes the server seals around the marshaled results: tag,
/// results length, invalidation count.
const INNER_REPLY_OVERHEAD: usize = 12;

/// Runs every per-op wall probe against `world` for an op that sends
/// each of `rpcs` the given number of times. Call it only after all
/// output checks are done: WRITE and SETATTR probes modify the probed
/// files.
pub fn probe_op(world: &World, rpcs: &[(ProbeRpc, f64)], iters: usize) -> ProbeTimes {
    let server = &world.server;
    // "Over the same VFS": clones share the server's file system state.
    let vfs = server.vfs().clone();
    let nfs = Nfs3Server::new(vfs.clone());
    let creds = Credentials::user(UID, GID);
    let mut out = ProbeTimes {
        frame_lens: (usize::MAX, 0),
        ..Default::default()
    };
    for (rpc, per_op) in rpcs {
        let sfs_req = (rpc.build)(rpc.fh.0.clone());
        let nfs_fh = server
            .decrypt_handle(&rpc.fh.0)
            .expect("probe handle decrypts");
        let nfs_req = (rpc.build)(nfs_fh);
        let proc: Proc = sfs_req.proc();
        let reply = nfs.handle(&creds, &nfs_req);
        let args = sfs_req.encode_args();
        let results = reply.encode_results();

        // XDR, both directions on both sides: the client marshals the
        // call and unmarshals the results; the server does the reverse.
        let mut enc = XdrEncoder::new();
        let encode = time_ns(iters, || {
            enc.reset();
            sfs_req.encode_args_into(&mut enc);
            std::hint::black_box(enc.len());
        }) + time_ns(iters, || {
            enc.reset();
            reply.encode_results_into(&mut enc);
            std::hint::black_box(enc.len());
        });
        let decode = time_ns(iters, || {
            std::hint::black_box(Nfs3Request::decode_args(proc, &args).is_ok());
        }) + time_ns(iters, || {
            std::hint::black_box(Nfs3Reply::decode_results(proc, &results).is_ok());
        });

        for plain_len in [
            INNER_CALL_HEADER + args.len(),
            INNER_REPLY_OVERHEAD + results.len(),
        ] {
            out.frame_lens.0 = out.frame_lens.0.min(plain_len);
            out.frame_lens.1 = out.frame_lens.1.max(plain_len);
        }

        // Handle cipher: the server decrypts the request's handle, and
        // encrypts the handle a LOOKUP returns.
        let mut cipher = time_ns(iters, || {
            std::hint::black_box(server.decrypt_handle(&rpc.fh.0).is_ok());
        });
        if let Nfs3Reply::Lookup { fh, .. } = &reply {
            cipher += time_ns(iters, || {
                std::hint::black_box(server.encrypt_handle(fh.clone()));
            });
        }

        let handle = time_ns(iters, || {
            std::hint::black_box(nfs.handle(&creds, &nfs_req));
        });
        let vfs_ns = time_ns(iters, || vfs_call(&vfs, &nfs, &creds, &nfs_req));

        out.xdr_encode_ns += per_op * encode;
        out.xdr_decode_ns += per_op * decode;
        out.handle_cipher_ns += per_op * cipher;
        out.nfs3_handle_ns += per_op * handle;
        out.vfs_op_ns += per_op * vfs_ns;
    }
    out
}

/// `(seal_into ns, open_in_place ns)` for one frame of `plain_len`
/// plaintext bytes under `suite`. Frames are sealed in batches and then
/// opened in the same order, because the channel's ciphers only open
/// frames in the order they were sealed.
pub fn probe_channel(suite: Suite, plain_len: usize, iters: usize) -> (f64, f64) {
    let keys = SessionKeys {
        kcs: *b"sfs-benchmark-kcs-00",
        ksc: *b"sfs-benchmark-ksc-00",
        session_id: [7u8; 20],
    };
    let batch = iters.clamp(1, 64);
    let mut tx = SecureChannelEnd::client_with_suite(&keys, suite.id());
    let mut rx = SecureChannelEnd::server_with_suite(&keys, suite.id());
    let mut frames: Vec<Vec<u8>> = (0..batch)
        .map(|_| Vec::with_capacity(plain_len + 64))
        .collect();
    let (mut seal_best, mut open_best) = (f64::INFINITY, f64::INFINITY);
    for round in 0..6 {
        for f in &mut frames {
            f.clear();
            f.resize(FRAME_HEADER_LEN + plain_len, 0x33);
        }
        let t0 = Instant::now();
        for f in &mut frames {
            tx.seal_into(f, 0).expect("probe seal");
        }
        let seal = t0.elapsed().as_nanos() as f64 / batch as f64;
        let t1 = Instant::now();
        for f in &mut frames {
            std::hint::black_box(rx.open_in_place(f).expect("probe open").len());
        }
        let open = t1.elapsed().as_nanos() as f64 / batch as f64;
        if round > 0 {
            // Round 0 warms caches and page-faults the buffers in.
            seal_best = seal_best.min(seal);
            open_best = open_best.min(open);
        }
    }
    (seal_best, open_best)
}

/// Wall ns of one `BufPool` get + put cycle on a warm pool.
pub fn probe_bufpool(iters: usize) -> f64 {
    let pool = BufPool::new("probe");
    pool.put(Vec::with_capacity(256));
    time_ns(iters, || {
        let b = pool.get();
        pool.put(std::hint::black_box(b));
    })
}

/// Wall ns of one `Telemetry::count` on a counters-only sink — the call
/// the always-on wire statistics make on every frame.
pub fn probe_telemetry_count(iters: usize) -> f64 {
    let tel = Telemetry::counters();
    time_ns(iters, || tel.count("probe", "probe.count", 1))
}

/// Wall ns of the four Rabin operations of one key negotiation plus
/// user authentication, at the key sizes the benchmark world uses:
/// `(decrypt-768, sign-512, encrypt-768, verify-512)`.
pub fn probe_rabin(iters: usize) -> (f64, f64, f64, f64) {
    let server = keypair(768, 0x5E4);
    let user = keypair(512, 0xB0B);
    let mut rng = XorShiftSource::new(0xEC);
    let msg = [0x42u8; 20];
    let cipher = server.public().encrypt(&msg, &mut rng).expect("encrypt");
    let sig = user.sign(&msg);
    (
        time_ns(iters, || {
            std::hint::black_box(server.decrypt(&cipher).is_ok());
        }),
        time_ns(iters, || {
            std::hint::black_box(user.sign(&msg));
        }),
        time_ns(iters, || {
            std::hint::black_box(server.public().encrypt(&msg, &mut rng).is_ok());
        }),
        time_ns(iters, || {
            std::hint::black_box(user.public().verify(&msg, &sig));
        }),
    )
}
