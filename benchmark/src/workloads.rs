//! The five workloads: what each sets up, what one op is, and how its
//! output is checked. Every input (names, sizes, op stream) is drawn
//! from `--seed` before the program sees it; every workload is a closed
//! loop (a file-system caller waits for its reply) driven from one
//! thread. Why each exists is in `README.md` and `BENCHMARK.json`.

use crate::data::{self, Rng, BLOCK};
use crate::harness::{bracket, Outcome};
use crate::stack::{
    Answer, Batch, Handle, ProbeRpc, Request, Suite, World, WorldSpec, ACCESS_ALL, ACCESS_OWNER_RW,
};

/// Everything that distinguishes one workload from another, in one
/// place.
pub struct Def {
    pub name: &'static str,
    /// How the stack is assembled.
    pub spec: WorldSpec,
    /// Ops run for one second of `--seconds`, sized on the seed commit
    /// so the timed region takes about that long on the reference
    /// sandbox. Fixed counts (not a deadline) keep the op stream — and
    /// with it every virtual-time metric and count — a pure function of
    /// `(workload, seed, seconds)`.
    ops_per_second: usize,
    /// Untimed ops run as the tail of set-up, so caches, stream
    /// detectors and buffer pools are warm before the first timed op.
    warmup: usize,
    /// Most ops a traced pass may run: recording costs about 1 KB of
    /// memory per span.
    traced_cap: usize,
    /// Timed ops at `--smoke` size.
    smoke_ops: usize,
    /// Populates the world and returns the workload bound to it:
    /// `(world, seed, total ops, sabotage)`.
    bind: fn(&World, u64, usize, bool) -> Box<dyn Workload>,
}

const fn world(
    clients: usize,
    suite: Suite,
    window: usize,
    caching: bool,
    disk: bool,
) -> WorldSpec {
    WorldSpec {
        clients,
        suite,
        window,
        caching,
        disk,
        cores: None,
    }
}

/// The catalogue, in the order of `BENCHMARK.json`.
pub const DEFS: [Def; 5] = [
    Def {
        name: "meta_rpc",
        spec: world(1, Suite::ChaCha, 1, false, false),
        ops_per_second: 190_000,
        warmup: 2_000,
        traced_cap: 48_000,
        smoke_ops: 7_200,
        bind: |w, seed, total, sabotage| Box::new(MetaRpc::new(w, seed, total, sabotage)),
    },
    Def {
        name: "seq_read",
        spec: world(1, Suite::ChaCha, 8, true, false),
        ops_per_second: 6_000,
        warmup: 64,
        traced_cap: 4_800,
        smoke_ops: 1_200,
        bind: |w, seed, _, sabotage| Box::new(SeqRead::new(w, seed, sabotage)),
    },
    Def {
        name: "seq_write",
        spec: world(1, Suite::ChaCha, 8, true, true),
        ops_per_second: 5_400,
        // One pass over the 64 names: the CREATE path runs here, the
        // timed ops all take LOOKUP + SETATTR.
        warmup: 64,
        traced_cap: 4_800,
        smoke_ops: 1_200,
        bind: |w, seed, _, sabotage| Box::new(SeqWrite::new(w, seed, sabotage)),
    },
    Def {
        name: "connect",
        spec: world(1, Suite::ChaCha, 8, true, false),
        ops_per_second: 430,
        warmup: 4,
        traced_cap: 1_200,
        smoke_ops: 120,
        bind: |w, seed, _, sabotage| Box::new(Connect::new(w, seed, sabotage)),
    },
    Def {
        name: "fleet_mix",
        // The paper-faithful configuration: default cipher offer,
        // caching + leases + callbacks, default window; two cores.
        spec: WorldSpec {
            cores: Some(2),
            ..world(4, Suite::Arc4Sha1, 8, true, true)
        },
        ops_per_second: 24_000,
        warmup: 2_000,
        traced_cap: 48_000,
        smoke_ops: 7_200,
        bind: |w, seed, total, sabotage| Box::new(FleetMix::new(w, seed, total, sabotage)),
    },
];

/// Looks a workload up by name.
pub fn def(name: &str) -> Option<&'static Def> {
    DEFS.iter().find(|d| d.name == name)
}

/// Op counts of one run.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub warmup: usize,
    /// Timed ops (a multiple of the segment count).
    pub timed: usize,
    /// Ops of each pass of the traced run (`--trace 1`).
    pub traced: usize,
}

impl Def {
    pub fn plan(&self, seconds: u64, smoke: bool) -> Plan {
        if smoke {
            return Plan {
                warmup: self.warmup.min(self.smoke_ops),
                timed: self.smoke_ops,
                traced: self.smoke_ops,
            };
        }
        let seg = crate::harness::SEGMENTS;
        let round = |n: usize| (n / seg).max(1) * seg;
        let timed = round(self.ops_per_second * seconds as usize);
        Plan {
            warmup: self.warmup,
            timed,
            // The traced run fits an untraced and a traced pass of the
            // same ops plus the probes into the same `--seconds`.
            traced: round((timed / 4).min(self.traced_cap)),
        }
    }

    /// Populates `world` and returns the workload bound to it. With
    /// `sabotage` the workload deliberately *expects wrong content* on
    /// part of its checks — the `--self-test` that proves the checks
    /// can fail.
    pub fn bind(&self, world: &World, seed: u64, plan: &Plan, sabotage: bool) -> Box<dyn Workload> {
        (self.bind)(world, seed, plan.warmup + plan.timed, sabotage)
    }
}

/// Seeded extra one-way link latency, 0–63 ns on top of the model's
/// 35 µs. The virtual clock is a deterministic model: on a workload
/// whose ops all have the same shape (sequential reads) every seed
/// would otherwise report the very same virtual latencies, to the
/// nanosecond. Cable length is as legitimate an input as any, moves an
/// RPC by at most 0.02 %, and makes each seed's virtual numbers its
/// own.
pub fn link_extra_ns(seed: u64) -> u64 {
    data::mix(seed ^ 0xCAB1E) % 64
}

/// One workload instance bound to a world.
pub trait Workload {
    /// Runs op `i` (ops are numbered from 0 across warm-up and timed
    /// region) and checks its output.
    fn op(&mut self, world: &World, i: usize) -> Outcome;

    /// Output checks that run after the timed region (read-back of
    /// written files): `(checks made, checks failed)`.
    fn finish(&mut self, _world: &World) -> (u64, u64) {
        (0, 0)
    }

    /// `client.read` calls issued so far (denominator of the read-ahead
    /// hit ratio).
    fn reads_issued(&self) -> u64 {
        0
    }

    /// A representative request per NFS3 procedure this workload sends,
    /// for the outside wall probes (which weight them by the calls per
    /// op the traced run counted).
    fn probe_rpcs(&self, world: &World) -> Vec<(&'static str, ProbeRpc)>;

    /// Per-arm samples of the connect cycle (empty elsewhere).
    fn connect_arms(&self) -> Option<&ConnectArms> {
        None
    }
}

/// Every `SABOTAGE_STRIDE`-th check of a sabotaged workload expects
/// wrong content.
const SABOTAGE_STRIDE: usize = 7;

fn file_name(rng: &mut Rng, min_len: u64, max_len: u64, index: usize) -> String {
    let len = min_len + rng.below(max_len - min_len + 1);
    format!("{}-{index}", rng.name(len as usize))
}

/// Seeded op kinds with an exact mix: the stream is a sequence of
/// 100-op blocks, each holding exactly `shares[k]` ops of kind `k` in a
/// seeded order. Which op comes when is the seed's; how many of each
/// kind a stretch of the run contains is not, so neither the segments
/// of one run nor the runs of different seeds differ by sampling luck
/// in the mix (on `fleet_mix` a 16 KiB write costs thirty GETATTRs).
fn stratified_kinds(rng: &mut Rng, total: usize, shares: &[u8]) -> Vec<u8> {
    let block: Vec<u8> = shares
        .iter()
        .enumerate()
        .flat_map(|(kind, &n)| std::iter::repeat_n(kind as u8, usize::from(n)))
        .collect();
    assert_eq!(block.len(), 100, "shares are percentages");
    let mut out = Vec::with_capacity(total + block.len());
    while out.len() < total {
        let start = out.len();
        out.extend_from_slice(&block);
        // Fisher–Yates over the block just appended.
        for i in (1..block.len()).rev() {
            out.swap(start + i, start + rng.below(i as u64 + 1) as usize);
        }
    }
    out.truncate(total);
    out
}

fn expect_handle(answer: Result<Answer, String>, want: &Handle) -> bool {
    matches!(answer, Ok(Answer::Handle(h)) if h == *want)
}

// ---------------------------------------------------------------------
// meta_rpc
// ---------------------------------------------------------------------

const META_FILES: usize = 1024;

#[derive(Clone, Copy)]
enum MetaKind {
    GetAttr,
    Lookup,
    Access,
}

impl MetaKind {
    /// In discriminant order, to unpack a [`PackedOp`].
    const ALL: [MetaKind; 3] = [MetaKind::GetAttr, MetaKind::Lookup, MetaKind::Access];
}

/// Percent of ops per [`MetaKind`], in discriminant order.
const META_MIX: [u8; 3] = [54, 27, 19];

/// One pre-generated op packed into 16 bits (procedure in the top
/// bits, operands below): at two million ops the stream would otherwise
/// weigh more than the program in `peak_rss_mib`.
#[derive(Clone, Copy)]
struct PackedOp(u16);

impl PackedOp {
    fn new(kind: u8, file: u16, extra: u8) -> Self {
        debug_assert!(kind < 8 && file < 1024 && extra < 8);
        PackedOp((u16::from(kind) << 13) | (u16::from(extra) << 10) | file)
    }

    fn kind(self) -> u8 {
        (self.0 >> 13) as u8
    }

    fn extra(self) -> usize {
        usize::from((self.0 >> 10) & 7)
    }

    fn file(self) -> usize {
        usize::from(self.0 & 1023)
    }
}

struct MetaFile {
    name: String,
    size: u64,
    handle: Handle,
    fileid: u64,
    lookup: Request,
}

/// One small RPC per op, nothing cached: per-message fixed cost is the
/// whole cost.
struct MetaRpc {
    files: Vec<MetaFile>,
    ops: Vec<PackedOp>,
    sabotage: bool,
}

impl MetaRpc {
    fn new(world: &World, seed: u64, total_ops: usize, sabotage: bool) -> Self {
        let m = &world.members[0];
        let mut rng = Rng::new(seed, 1);
        let files = (0..META_FILES)
            .map(|i| {
                let name = file_name(&mut rng, 4, 64, i);
                let size = rng.below(4096);
                world.create_file(&name, &vec![i as u8; size as usize]);
                let lookup = Request::lookup(&world.dir_handle, &name);
                let handle = match m.call(&lookup) {
                    Ok(Answer::Handle(h)) => h,
                    other => panic!("set-up LOOKUP {name}: {other:?}"),
                };
                let (_, fileid) = m.getattr(&handle).expect("set-up GETATTR");
                MetaFile {
                    name,
                    size,
                    handle,
                    fileid,
                    lookup,
                }
            })
            .collect();
        let mut rng = Rng::new(seed, 2);
        // fleet_mix's metadata share (37 : 19 : 13), renormalised. Not
        // 50 % GETATTR: a median sitting exactly on the boundary between
        // two procedures would flip with the seed.
        let ops = stratified_kinds(&mut rng, total_ops, &META_MIX)
            .into_iter()
            .map(|kind| PackedOp::new(kind, rng.below(META_FILES as u64) as u16, 0))
            .collect();
        MetaRpc {
            files,
            ops,
            sabotage,
        }
    }
}

impl Workload for MetaRpc {
    fn op(&mut self, world: &World, i: usize) -> Outcome {
        let m = &world.members[0];
        let op = self.ops[i];
        let file = &self.files[op.file()];
        let wrong = u64::from(self.sabotage && i.is_multiple_of(SABOTAGE_STRIDE));
        let now = || m.now_ns();
        let (ok, mut out) = match MetaKind::ALL[usize::from(op.kind())] {
            MetaKind::GetAttr => {
                let (r, out) = bracket(now, || m.getattr(&file.handle));
                (r == Ok((file.size + wrong, file.fileid)), out)
            }
            MetaKind::Lookup => {
                let (r, out) = bracket(now, || m.call(&file.lookup));
                (expect_handle(r, &file.handle) && wrong == 0, out)
            }
            MetaKind::Access => {
                let (r, out) = bracket(now, || m.access(&file.handle, ACCESS_ALL));
                (r == Ok(ACCESS_OWNER_RW + wrong as u32), out)
            }
        };
        out.ok = ok;
        out
    }

    fn probe_rpcs(&self, world: &World) -> Vec<(&'static str, ProbeRpc)> {
        // The file with the median name length stands for the LOOKUPs.
        let mut by_len: Vec<&MetaFile> = self.files.iter().collect();
        by_len.sort_by_key(|f| f.name.len());
        let f = by_len[by_len.len() / 2];
        vec![
            ("GETATTR", ProbeRpc::getattr(&f.handle)),
            ("LOOKUP", ProbeRpc::lookup(&world.dir_handle, &f.name)),
            ("ACCESS", ProbeRpc::access(&f.handle, ACCESS_ALL)),
        ]
    }
}

// ---------------------------------------------------------------------
// seq_read
// ---------------------------------------------------------------------

/// Reads of one op: a 64 KiB stripe in 8 KiB blocks.
const STRIPE_BLOCKS: usize = 8;
const STREAM_FILE: u64 = 0;

/// Sequential 8 KiB reads over a warm ~16 MiB file, looping: bulk
/// seal/open and the windowed engine do the work.
struct SeqRead {
    seed: u64,
    handle: Handle,
    blocks: u64,
    cursor: u64,
    reads: u64,
    got: Vec<(u64, Vec<u8>)>,
    sabotage: bool,
}

impl SeqRead {
    fn new(world: &World, seed: u64, sabotage: bool) -> Self {
        // 16 MiB less a seeded 0–63 blocks, so the wrap does not fall on
        // a stripe boundary at the same place for every seed.
        let blocks = 2048 - Rng::new(seed, 3).below(64);
        world.create_file(
            "stream",
            &data::file_content(seed, STREAM_FILE, blocks as usize, 0),
        );
        let handle = world.members[0]
            .resolve(&world.path("stream"))
            .expect("resolve stream file");
        SeqRead {
            seed,
            handle,
            blocks,
            cursor: 0,
            reads: 0,
            got: Vec::with_capacity(STRIPE_BLOCKS),
            sabotage,
        }
    }
}

impl Workload for SeqRead {
    fn op(&mut self, world: &World, i: usize) -> Outcome {
        let m = &world.members[0];
        let (handle, blocks) = (&self.handle, self.blocks);
        let (mut cursor, got) = (self.cursor, &mut self.got);
        got.clear();
        let (res, mut out) = bracket(
            || m.now_ns(),
            || -> Result<(), String> {
                for _ in 0..STRIPE_BLOCKS {
                    let data = m.read(handle, cursor * BLOCK as u64, BLOCK as u32)?;
                    got.push((cursor, data));
                    cursor = (cursor + 1) % blocks;
                }
                Ok(())
            },
        );
        self.cursor = cursor;
        self.reads += STRIPE_BLOCKS as u64;
        let version = u64::from(self.sabotage && i.is_multiple_of(SABOTAGE_STRIDE));
        out.ok = res.is_ok()
            && self.got.len() == STRIPE_BLOCKS
            && self.got.iter().all(|(b, d)| {
                d.len() == BLOCK && data::check_block(self.seed, STREAM_FILE, *b, version, d)
            });
        out
    }

    fn reads_issued(&self) -> u64 {
        self.reads
    }

    fn probe_rpcs(&self, _world: &World) -> Vec<(&'static str, ProbeRpc)> {
        vec![("READ", ProbeRpc::read(&self.handle, 0, BLOCK as u32))]
    }
}

// ---------------------------------------------------------------------
// seq_write
// ---------------------------------------------------------------------

const WRITE_FILES: usize = 64;
const FILE_BLOCKS: usize = 8;

/// `write_file` of a 64 KiB file, rotating over 64 names, on the
/// simulated disk: the channel and window layers in the other
/// direction, plus the VFS write path and disk commits.
struct SeqWrite {
    seed: u64,
    names: Vec<String>,
    paths: Vec<String>,
    /// Version last written to each file (0 = never).
    written: Vec<u64>,
    buf: Vec<u8>,
    sabotage: bool,
}

impl SeqWrite {
    fn new(world: &World, seed: u64, sabotage: bool) -> Self {
        let mut rng = Rng::new(seed, 4);
        let names: Vec<String> = (0..WRITE_FILES)
            .map(|i| file_name(&mut rng, 8, 40, i))
            .collect();
        SeqWrite {
            seed,
            paths: names.iter().map(|n| world.path(n)).collect(),
            names,
            written: vec![0; WRITE_FILES],
            buf: vec![0u8; FILE_BLOCKS * BLOCK],
            sabotage,
        }
    }
}

impl Workload for SeqWrite {
    fn op(&mut self, world: &World, i: usize) -> Outcome {
        let m = &world.members[0];
        let f = i % WRITE_FILES;
        let version = (i / WRITE_FILES) as u64 + 1;
        for (b, chunk) in self.buf.chunks_exact_mut(BLOCK).enumerate() {
            data::fill_block(self.seed, f as u64, b as u64, version, chunk);
        }
        let (path, buf) = (&self.paths[f], &self.buf);
        let (res, mut out) = bracket(|| m.now_ns(), || m.write_file(path, buf));
        out.ok = res.is_ok();
        if out.ok {
            self.written[f] = version;
        }
        out
    }

    /// Reads every written file back and compares it with the content
    /// function at the version last written.
    fn finish(&mut self, world: &World) -> (u64, u64) {
        let m = &world.members[0];
        let (mut checks, mut failed) = (0, 0);
        for f in 0..WRITE_FILES {
            if self.written[f] == 0 {
                continue;
            }
            let want =
                self.written[f] + u64::from(self.sabotage && f.is_multiple_of(SABOTAGE_STRIDE));
            checks += 1;
            let good = m
                .read_file(&self.paths[f])
                .is_ok_and(|d| data::check_file(self.seed, f as u64, FILE_BLOCKS, want, &d));
            failed += u64::from(!good);
        }
        (checks, failed)
    }

    fn probe_rpcs(&self, world: &World) -> Vec<(&'static str, ProbeRpc)> {
        let m = &world.members[0];
        let fh = m.resolve(&self.paths[0]).expect("resolve written file");
        vec![
            ("GETATTR", ProbeRpc::getattr(&world.dir_handle)),
            (
                "LOOKUP",
                ProbeRpc::lookup(&world.dir_handle, &self.names[0]),
            ),
            ("SETATTR", ProbeRpc::truncate(&fh)),
            // `write_file` streams in 32 KiB write-behind chunks.
            ("WRITE", ProbeRpc::write(&fh, 0, 32_768, false)),
        ]
    }
}

// ---------------------------------------------------------------------
// connect
// ---------------------------------------------------------------------

/// Samples of one arm of the connect cycle, one entry per cycle.
#[derive(Default)]
pub struct Arm {
    pub wall_ns: Vec<u64>,
    pub virt_ns: Vec<u64>,
    pub round_trips: Vec<u64>,
}

impl Arm {
    fn push(&mut self, out: &Outcome, round_trips: u64) {
        self.wall_ns.push(out.wall_ns);
        self.virt_ns.push(out.virt_ns);
        self.round_trips.push(round_trips);
    }
}

/// Per-arm samples of the connect cycle.
#[derive(Default)]
pub struct ConnectArms {
    pub full: Arm,
    pub resume: Arm,
}

/// One connect cycle per op: a full Figure-3 negotiation, then a
/// ticket-resumed reconnect after a server restart. The only workload
/// where public-key work is the cost.
///
/// Wall time and allocations are those of the two connecting reads.
/// The *virtual* latency of the op is deliberately not: the model
/// charges no public-key time today (`CpuCosts` has no such term), so
/// the negotiation's virtual cost is known-wrong and the PR that fixes
/// the model must not read as a regression here. What the op reports on
/// the virtual clock instead is a third read, issued on the freshly
/// negotiated session between the two arms — the first use of a new
/// session, which no public-key charge can move. Both arms' virtual
/// times and round trips are reported per layer (`core.client.connect_*`).
struct Connect {
    path: String,
    body: Vec<u8>,
    arms: ConnectArms,
    sabotage: bool,
}

impl Connect {
    fn new(world: &World, seed: u64, sabotage: bool) -> Self {
        let body = Rng::new(seed, 5).name(5).into_bytes();
        world.create_file("hello", &body);
        Connect {
            path: world.path("hello"),
            body,
            arms: ConnectArms::default(),
            sabotage,
        }
    }
}

impl Workload for Connect {
    fn op(&mut self, world: &World, i: usize) -> Outcome {
        let m = &world.members[0];
        let path = &self.path;
        let mut want = self.body.clone();
        if self.sabotage && i.is_multiple_of(SABOTAGE_STRIDE) {
            want[0] ^= 1;
        }
        let before = m.resume_stats();

        // Arm 1: forget the mount; the read automounts through the full
        // negotiation + user authentication.
        let (full, full_out) = bracket(
            || m.now_ns(),
            || {
                m.unmount_all();
                m.read_file(path)
            },
        );
        let after_full = m.mount_stats();
        let full_ok = full.as_deref() == Ok(&want[..])
            && matches!(after_full, Ok((0, _)))
            && m.resume_stats() == before;

        // The same read again on the session just negotiated. Only its
        // virtual time is kept: it is what this workload reports on the
        // virtual clock (see the type's comment).
        let (settled, settled_out) = bracket(|| m.now_ns(), || m.read_file(path));
        let settled_ok = settled.as_deref() == Ok(&want[..]);

        // Arm 2: the server restarts; the same read reconnects on a
        // banked ticket and re-authenticates.
        world.crash_restart();
        let (resumed, resume_out) = bracket(|| m.now_ns(), || m.read_file(path));
        let after_resume = m.mount_stats();
        let resume_ok = resumed.as_deref() == Ok(&want[..])
            && matches!(after_resume, Ok((1, _)))
            // Exactly one more hit; a miss or a rejected ticket (which
            // falls back to the full handshake) is a failed op.
            && m.resume_stats() == (before.0 + 1, before.1, before.2);

        let rts = |s: &Result<(u64, u64), String>| s.as_ref().map_or(0, |s| s.1);
        self.arms.full.push(&full_out, rts(&after_full));
        self.arms.resume.push(
            &resume_out,
            rts(&after_resume).saturating_sub(rts(&after_full)),
        );
        Outcome {
            wall_ns: full_out.wall_ns + resume_out.wall_ns,
            virt_ns: settled_out.virt_ns,
            allocs: full_out.allocs + resume_out.allocs,
            ok: full_ok && settled_ok && resume_ok,
            client: 0,
        }
    }

    fn probe_rpcs(&self, world: &World) -> Vec<(&'static str, ProbeRpc)> {
        let m = &world.members[0];
        let fh = m.resolve(&self.path).expect("resolve hello");
        vec![
            ("GETATTR", ProbeRpc::getattr(&world.dir_handle)),
            ("LOOKUP", ProbeRpc::lookup(&world.dir_handle, "hello")),
            // `read_file` asks for 32 KiB; the file holds 5 bytes.
            ("READ", ProbeRpc::read(&fh, 0, 32_768)),
        ]
    }

    fn connect_arms(&self) -> Option<&ConnectArms> {
        Some(&self.arms)
    }
}

// ---------------------------------------------------------------------
// fleet_mix
// ---------------------------------------------------------------------

const FLEET_FILES: usize = 64;

#[derive(Clone, Copy)]
enum FleetKind {
    GetAttr,
    Lookup,
    Access,
    Read,
    Write,
}

impl FleetKind {
    /// In discriminant order, to unpack a [`PackedOp`].
    const ALL: [FleetKind; 5] = [
        FleetKind::GetAttr,
        FleetKind::Lookup,
        FleetKind::Access,
        FleetKind::Read,
        FleetKind::Write,
    ];
}

/// Percent of ops per [`FleetKind`], in discriminant order.
const FLEET_MIX: [u8; 5] = [37, 19, 13, 19, 12];

struct FleetFile {
    name: String,
    handle: Handle,
    lookup: Request,
    /// Committed version of each block.
    version: [u64; FILE_BLOCKS],
}

/// Four clients on their own clocks share 64 files on a two-core server
/// with the paper's defaults everywhere: no layer dominates.
struct FleetMix {
    seed: u64,
    files: Vec<FleetFile>,
    ops: Vec<PackedOp>,
    /// Per client, per file: next block of that client's sequential
    /// pass over the file.
    cursor: Vec<[u8; FLEET_FILES]>,
    /// Per client, per file, per block: the newest version this client
    /// has seen or written — what it may never read behind.
    floor: Vec<Vec<[u64; FILE_BLOCKS]>>,
    reads: u64,
    sabotage: bool,
}

impl FleetMix {
    fn new(world: &World, seed: u64, total_ops: usize, sabotage: bool) -> Self {
        let mut rng = Rng::new(seed, 6);
        let files: Vec<FleetFile> = (0..FLEET_FILES)
            .map(|i| {
                let name = file_name(&mut rng, 8, 40, i);
                world.create_file(&name, &data::file_content(seed, i as u64, FILE_BLOCKS, 0));
                let lookup = Request::lookup(&world.dir_handle, &name);
                // Every client looks every file up once, as a client
                // that has the directory open would have.
                let mut handle = None;
                for m in &world.members {
                    match m.call(&lookup) {
                        Ok(Answer::Handle(h)) => handle = Some(h),
                        other => panic!("set-up LOOKUP {name}: {other:?}"),
                    }
                }
                FleetFile {
                    name,
                    handle: handle.expect("at least one client"),
                    lookup,
                    version: [0; FILE_BLOCKS],
                }
            })
            .collect();
        let mut rng = Rng::new(seed, 7);
        let ops = stratified_kinds(&mut rng, total_ops, &FLEET_MIX)
            .into_iter()
            .map(|kind| {
                let file = rng.below(FLEET_FILES as u64) as u16;
                // WRITE: which aligned pair of blocks.
                let pair = rng.below(FILE_BLOCKS as u64 / 2) as u8;
                PackedOp::new(kind, file, pair * 2)
            })
            .collect();
        let clients = world.members.len();
        FleetMix {
            seed,
            files,
            ops,
            cursor: vec![[0; FLEET_FILES]; clients],
            floor: vec![vec![[0; FILE_BLOCKS]; FLEET_FILES]; clients],
            reads: 0,
            sabotage,
        }
    }
}

impl Workload for FleetMix {
    fn op(&mut self, world: &World, i: usize) -> Outcome {
        let c = i % world.members.len();
        let m = &world.members[c];
        let op = self.ops[i];
        let (f, first_block) = (op.file(), op.extra());
        let wrong = self.sabotage && i.is_multiple_of(SABOTAGE_STRIDE);
        let now = || m.now_ns();
        let file = &mut self.files[f];
        let (ok, mut out) = match FleetKind::ALL[usize::from(op.kind())] {
            FleetKind::GetAttr => {
                let (r, out) = bracket(now, || m.getattr(&file.handle));
                let size = (FILE_BLOCKS * BLOCK) as u64 + u64::from(wrong);
                (r.is_ok_and(|(s, _)| s == size), out)
            }
            FleetKind::Lookup => {
                let (r, out) = bracket(now, || m.call(&file.lookup));
                (expect_handle(r, &file.handle) && !wrong, out)
            }
            FleetKind::Access => {
                let (r, out) = bracket(now, || m.access(&file.handle, ACCESS_ALL));
                (r == Ok(ACCESS_OWNER_RW + u32::from(wrong)), out)
            }
            FleetKind::Read => {
                let b = self.cursor[c][f] as usize;
                self.cursor[c][f] = ((b + 1) % FILE_BLOCKS) as u8;
                self.reads += 1;
                let (r, out) = bracket(now, || {
                    m.read(&file.handle, (b * BLOCK) as u64, BLOCK as u32)
                });
                // A shared file may legitimately be read one or more
                // versions behind (read-ahead data, leases); never behind
                // what this client already saw, never ahead of what was
                // committed, and always exactly the content function at
                // the version the block itself declares.
                let floor = &mut self.floor[c][f][b];
                let ok = r.is_ok_and(|d| {
                    d.len() == BLOCK
                        && data::block_version(&d).is_some_and(|v| {
                            let v_check = v + u64::from(wrong);
                            let in_window = *floor <= v && v <= file.version[b];
                            *floor = (*floor).max(v);
                            in_window
                                && data::check_block(self.seed, f as u64, b as u64, v_check, &d)
                        })
                });
                (ok, out)
            }
            FleetKind::Write => {
                // A 16 KiB synchronous write: two pipelined 8 KiB
                // FILE_SYNC WRITEs (NFS3's transfer size), built before
                // the bracket.
                let blocks: Vec<(u64, Vec<u8>)> = (0..2)
                    .map(|k| {
                        let b = first_block + k;
                        let mut d = vec![0u8; BLOCK];
                        data::fill_block(
                            self.seed,
                            f as u64,
                            b as u64,
                            file.version[b] + 1,
                            &mut d,
                        );
                        ((b * BLOCK) as u64, d)
                    })
                    .collect();
                let batch = Batch::sync_writes(&file.handle, blocks);
                let (r, out) = bracket(now, || m.call_window(&batch));
                let ok = r.is_ok_and(|answers| {
                    answers.len() == 2
                        && answers
                            .iter()
                            .all(|a| matches!(a, Answer::Written(n) if *n as usize == BLOCK))
                });
                if ok {
                    for k in 0..2 {
                        let b = first_block + k;
                        file.version[b] += 1;
                        self.floor[c][f][b] = file.version[b];
                    }
                }
                (ok && !wrong, out)
            }
        };
        out.ok = ok;
        out.client = c as u8;
        out
    }

    /// Client 0 reads every file back whole: each block must be exactly
    /// at its last committed version.
    fn finish(&mut self, world: &World) -> (u64, u64) {
        let m = &world.members[0];
        let (mut checks, mut failed) = (0, 0);
        for (f, file) in self.files.iter().enumerate() {
            checks += 1;
            let good = m.read_file(&world.path(&file.name)).is_ok_and(|d| {
                d.len() == FILE_BLOCKS * BLOCK
                    && d.chunks_exact(BLOCK).enumerate().all(|(b, chunk)| {
                        let want = file.version[b]
                            + u64::from(self.sabotage && f.is_multiple_of(SABOTAGE_STRIDE));
                        data::check_block(self.seed, f as u64, b as u64, want, chunk)
                    })
            });
            failed += u64::from(!good);
        }
        (checks, failed)
    }

    fn reads_issued(&self) -> u64 {
        self.reads
    }

    fn probe_rpcs(&self, world: &World) -> Vec<(&'static str, ProbeRpc)> {
        let f = &self.files[0];
        vec![
            ("GETATTR", ProbeRpc::getattr(&f.handle)),
            ("LOOKUP", ProbeRpc::lookup(&world.dir_handle, &f.name)),
            ("ACCESS", ProbeRpc::access(&f.handle, ACCESS_ALL)),
            ("READ", ProbeRpc::read(&f.handle, 0, BLOCK as u32)),
            ("WRITE", ProbeRpc::write(&f.handle, 0, BLOCK, true)),
        ]
    }
}
