//! Trace-driven workload scenarios and churn storms.
//!
//! fig5–fig9 drive synthetic sequential streams; this module adds the
//! evidence class the SPEC-SFS lineage uses instead — declarative
//! *op-mix* workloads — plus "million-user day" churn storms exercising
//! the §2.5 key-management machinery no sequential stream touches.
//!
//! Three pieces:
//!
//! 1. **Mix engine** ([`run_mix`]): takes a [`ScenarioSpec`] (op-mix
//!    percentages, file-set shape, client count, op count), builds a
//!    multi-client SFS world on one virtual clock, and replays the mix
//!    through the `FsBench` kernel. Every `stat`/`open` result is
//!    scored by the coherence oracle's rules 1–3 (`oracle::CommitLog`):
//!    observed sizes must be states the file actually passed through,
//!    per-client observations must be monotone, stale reads older than
//!    the server lease are illegal. Every read byte is checked against
//!    the file's generator function.
//!
//! 2. **Trace recorder** (`RecordingFs`, [`TraceOp`]): wraps any
//!    `FsBench` and logs the request stream in a line-oriented text
//!    format. A recorded trace replayed through a fresh world
//!    re-records to byte-identical text — the determinism contract the
//!    `scenarios` experiment and tests enforce.
//!
//! 3. **Churn storms** (`run_*_storm`): mass mount/unmount waves, agent
//!    key rollover against the authserver, lease-expiry waves, and §2.5
//!    revocation broadcast — paced by [`sfs_sim::ChurnSchedule`] so the
//!    same seed replays the same storm byte-for-byte.
//!
//! Everything here is deterministic: seeded choices, virtual time, no
//! host randomness. Running a scenario twice must produce identical op
//! logs, identical latency tables, and identical final clocks — the
//! `scenarios` experiment runs under the driver's rerun check, which
//! asserts exactly that.

use std::sync::Arc;

use sfs::authserver::sign_key_update;
use sfs_bignum::XorShiftSource;
use sfs_crypto::rabin::RabinPrivateKey;
use sfs_proto::channel::SuiteId;
use sfs_proto::revoke::RevocationCert;
use sfs_sim::{ChurnSchedule, FaultPlan, SimClock};
use sfs_telemetry::sync::Mutex;
use sfs_telemetry::Telemetry;
use sfs_vfs::{Credentials, SetAttr};

use crate::args::{ScenarioOp, ScenarioSpec};
use crate::calib::BENCH_UID;
use crate::kernel::{BenchFsError, FsBench, SfsBench};
use crate::keys;
use crate::oracle::CommitLog;
use crate::world::{KeySeeds, World, WorldSpec, USER};

/// Lease duration the mix engine's oracle assumes (the
/// [`sfs::server::ServerConfig::new`] default; [`scenario_world`] only overrides it for
/// the lease storm).
pub(crate) const DEFAULT_LEASE_NS: u64 = 30_000_000_000;

// --------------------------------------------------------------- world

/// The replacement user key rolled in during rollover-storm wave `wave`.
fn rollover_key(wave: usize) -> RabinPrivateKey {
    keys::rabin(512, 0x5CE_B000 + wave as u64)
}

const SCENARIO_KEYS: KeySeeds = KeySeeds {
    servers: &[0x5CE_A000, 0x5CE_B000],
    user: 0x5CE_0001,
    srp: 0x5CE_5209,
    ephemeral: None,
};

/// `/sfs/Location:HostID/bench` prefix for server `s` of `world`.
fn prefix(world: &World, s: usize) -> String {
    format!("{}/bench", world.servers[s].path().full_path())
}

/// Builds the substrate every scenario runs on: `clients` clients and
/// `servers` servers (≤ 2, at `s{k}.scenario`) on one virtual clock,
/// every agent holding the user's key, every client offering `suite`
/// (part of a run's determinism contract: it sets the per-byte crypto
/// charge). Each server exports a world-writable `/bench`
/// with a world-readable `probe` file and a 0600 `secret` readable only
/// by the user. `lease_ns` overrides the attribute-lease duration (the
/// lease storm shrinks it); the fault plan, when given, is threaded
/// through the wire, every server, and every disk.
pub(crate) fn scenario_world(
    clients: usize,
    servers: usize,
    lease_ns: Option<u64>,
    suite: SuiteId,
    tel: &Telemetry,
    plan: Option<&FaultPlan>,
) -> World {
    let world = World::build(&WorldSpec {
        keys: SCENARIO_KEYS,
        locations: &["s0.scenario", "s1.scenario"][..servers],
        server_entropy: "scenario-server-{}",
        client_entropy: "scenario-client-{}",
        lease_ns,
        clients,
        cpu: None,
        ..WorldSpec::bench().traced(tel).faulted(plan)
    });
    let root = Credentials::root();
    for server in &world.servers {
        let vfs = server.vfs();
        let (bench, _) = vfs.lookup(&root, vfs.root(), "bench").unwrap();
        for (name, mode, body) in [
            ("probe", 0o644, format!("probe@{}", server.path().location)),
            ("secret", 0o600, "rollover-secret".to_string()),
        ] {
            let ino = vfs.write_file(&root, bench, name, body.as_bytes()).unwrap();
            let attr = SetAttr {
                mode: Some(mode),
                uid: Some(BENCH_UID),
                gid: Some(100),
                ..Default::default()
            };
            vfs.setattr(&root, ino, attr).unwrap();
        }
    }
    for client in &world.clients {
        client.set_suite_offer(&[suite]);
    }
    world
}

// --------------------------------------------------------------- trace

/// One recorded file-system request. Traces record *requests*, not
/// results: a trace replayed against any world that accepts the ops
/// re-records to byte-identical text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceOp {
    /// `mkdir <path>`
    Mkdir(String),
    /// `create <path>`
    Create(String),
    /// `write <path> <offset> <hex-data>`
    Write {
        /// Target path.
        path: String,
        /// Byte offset.
        offset: u64,
        /// The written bytes.
        data: Vec<u8>,
    },
    /// `read <path> <offset> <len>`
    Read {
        /// Target path.
        path: String,
        /// Byte offset.
        offset: u64,
        /// Bytes requested.
        len: usize,
    },
    /// `stat <path>`
    Stat(String),
    /// `open <path>`
    Open(String),
    /// `unlink <path>`
    Unlink(String),
    /// `flush <path>`
    Flush(String),
}

fn hex_encode(data: &[u8]) -> String {
    let mut s = String::with_capacity(data.len() * 2);
    for b in data {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err(format!("odd-length hex data ({} chars)", s.len()));
    }
    (0..s.len() / 2)
        .map(|i| {
            u8::from_str_radix(&s[2 * i..2 * i + 2], 16)
                .map_err(|_| format!("bad hex byte {:?}", &s[2 * i..2 * i + 2]))
        })
        .collect()
}

impl TraceOp {
    /// One-line text form. Paths must not contain whitespace (the
    /// scenario engine's generated paths never do).
    pub(crate) fn encode(&self) -> String {
        match self {
            TraceOp::Mkdir(p) => format!("mkdir {p}"),
            TraceOp::Create(p) => format!("create {p}"),
            TraceOp::Write { path, offset, data } => {
                format!("write {path} {offset} {}", hex_encode(data))
            }
            TraceOp::Read { path, offset, len } => format!("read {path} {offset} {len}"),
            TraceOp::Stat(p) => format!("stat {p}"),
            TraceOp::Open(p) => format!("open {p}"),
            TraceOp::Unlink(p) => format!("unlink {p}"),
            TraceOp::Flush(p) => format!("flush {p}"),
        }
    }

    /// Parses one line of [`TraceOp::encode`] output.
    pub(crate) fn parse(line: &str) -> Result<TraceOp, String> {
        let mut it = line.split_whitespace();
        let verb = it.next().ok_or("empty trace line")?;
        let fields: Vec<&str> = it.collect();
        let arity = |n: usize| -> Result<(), String> {
            if fields.len() == n {
                Ok(())
            } else {
                Err(format!(
                    "trace op {verb:?} takes {n} field(s), got {}: {line:?}",
                    fields.len()
                ))
            }
        };
        let num = |s: &str, what: &str| -> Result<u64, String> {
            s.parse::<u64>()
                .map_err(|_| format!("trace {verb} {what} {s:?} is not an integer"))
        };
        match verb {
            "mkdir" | "create" | "stat" | "open" | "unlink" | "flush" => {
                arity(1)?;
                let p = fields[0].to_string();
                Ok(match verb {
                    "mkdir" => TraceOp::Mkdir(p),
                    "create" => TraceOp::Create(p),
                    "stat" => TraceOp::Stat(p),
                    "open" => TraceOp::Open(p),
                    "unlink" => TraceOp::Unlink(p),
                    _ => TraceOp::Flush(p),
                })
            }
            "write" => {
                arity(3)?;
                Ok(TraceOp::Write {
                    path: fields[0].to_string(),
                    offset: num(fields[1], "offset")?,
                    data: hex_decode(fields[2])?,
                })
            }
            "read" => {
                arity(3)?;
                Ok(TraceOp::Read {
                    path: fields[0].to_string(),
                    offset: num(fields[1], "offset")?,
                    len: num(fields[2], "len")? as usize,
                })
            }
            other => Err(format!(
                "unknown trace op {other:?} (known: mkdir, create, write, read, stat, open, \
                 unlink, flush)"
            )),
        }
    }
}

/// Encodes a trace as newline-terminated text.
pub fn encode_trace(ops: &[TraceOp]) -> String {
    let mut out = String::new();
    for op in ops {
        out.push_str(&op.encode());
        out.push('\n');
    }
    out
}

/// Parses [`encode_trace`] output; errors carry the 1-based line number.
pub(crate) fn parse_trace(text: &str) -> Result<Vec<TraceOp>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| TraceOp::parse(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Shared request-stream sink for a `RecordingFs` (one sink may be
/// shared by many wrappers; requests land in execution order).
pub type TraceSink = Arc<Mutex<Vec<TraceOp>>>;

/// Wraps any [`FsBench`] and records every request into a [`TraceSink`].
/// `chown_fail` (a microbenchmark probe, not a workload op) is delegated
/// without recording.
pub(crate) struct RecordingFs {
    inner: Box<dyn FsBench>,
    sink: TraceSink,
}

impl RecordingFs {
    /// Wraps `inner`, appending every request to `sink`.
    pub(crate) fn new(inner: Box<dyn FsBench>, sink: TraceSink) -> Self {
        RecordingFs { inner, sink }
    }

    fn log(&self, op: TraceOp) {
        self.sink.lock().push(op);
    }
}

impl FsBench for RecordingFs {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn clock(&self) -> &SimClock {
        self.inner.clock()
    }

    fn mkdir(&self, path: &str) -> Result<(), BenchFsError> {
        self.log(TraceOp::Mkdir(path.to_string()));
        self.inner.mkdir(path)
    }

    fn create(&self, path: &str) -> Result<(), BenchFsError> {
        self.log(TraceOp::Create(path.to_string()));
        self.inner.create(path)
    }

    fn write(&self, path: &str, offset: u64, data: &[u8]) -> Result<(), BenchFsError> {
        self.log(TraceOp::Write {
            path: path.to_string(),
            offset,
            data: data.to_vec(),
        });
        self.inner.write(path, offset, data)
    }

    fn read(&self, path: &str, offset: u64, len: usize) -> Result<Vec<u8>, BenchFsError> {
        self.log(TraceOp::Read {
            path: path.to_string(),
            offset,
            len,
        });
        self.inner.read(path, offset, len)
    }

    fn stat(&self, path: &str) -> Result<u64, BenchFsError> {
        self.log(TraceOp::Stat(path.to_string()));
        self.inner.stat(path)
    }

    fn open(&self, path: &str) -> Result<u64, BenchFsError> {
        self.log(TraceOp::Open(path.to_string()));
        self.inner.open(path)
    }

    fn unlink(&self, path: &str) -> Result<(), BenchFsError> {
        self.log(TraceOp::Unlink(path.to_string()));
        self.inner.unlink(path)
    }

    fn flush(&self, path: &str) -> Result<(), BenchFsError> {
        self.log(TraceOp::Flush(path.to_string()));
        self.inner.flush(path)
    }

    fn chown_fail(&self, path: &str) -> Result<(), BenchFsError> {
        self.inner.chown_fail(path)
    }

    fn set_pipeline_window(&self, window: usize) {
        self.inner.set_pipeline_window(window)
    }

    fn cpu_burn(&self, ns: u64) {
        self.inner.cpu_burn(ns)
    }

    fn rpcs(&self) -> u64 {
        self.inner.rpcs()
    }

    fn drop_caches(&self) {
        self.inner.drop_caches()
    }
}

/// Replays a trace against `fs`, failing on the first op the target
/// refuses.
pub(crate) fn replay_trace(fs: &dyn FsBench, ops: &[TraceOp]) -> Result<(), BenchFsError> {
    for op in ops {
        match op {
            TraceOp::Mkdir(p) => fs.mkdir(p)?,
            TraceOp::Create(p) => fs.create(p)?,
            TraceOp::Write { path, offset, data } => fs.write(path, *offset, data)?,
            TraceOp::Read { path, offset, len } => {
                fs.read(path, *offset, *len)?;
            }
            TraceOp::Stat(p) => {
                fs.stat(p)?;
            }
            TraceOp::Open(p) => {
                fs.open(p)?;
            }
            TraceOp::Unlink(p) => fs.unlink(p)?,
            TraceOp::Flush(p) => fs.flush(p)?,
        }
    }
    Ok(())
}

// ----------------------------------------------------------- mix engine

/// What a scenario run produced. Two runs of the same scenario with the
/// same seed must agree on every field byte-for-byte.
pub struct ScenarioOutcome {
    /// One line per operation (setup included), with virtual timestamps.
    pub op_log: Vec<String>,
    /// Final virtual clock, ns.
    pub final_ns: u64,
    /// Oracle assertions that passed (0 would mean the oracle never ran).
    pub oracle_checks: u64,
}

/// The file-content generator: byte `off` of instance `inst` is a pure
/// function, so any read can be verified without tracking written data.
fn content_byte(instance: u64, off: u64) -> u8 {
    ((instance.wrapping_mul(131)).wrapping_add(off.wrapping_mul(7)) % 251) as u8
}

/// The path of file slot `slot`'s `instance`. A slot holds at most one
/// live file instance (its file in the mix's [`CommitLog`]); the instance
/// number is part of the file name, so a recreated slot never aliases
/// any cache entry of its predecessor.
fn slot_path(spec: &ScenarioSpec, slot: usize, instance: u64) -> String {
    format!("d{}/f{slot}-{instance}", slot % spec.dirs)
}

/// Aborts a scenario with a labelled oracle-violation message.
fn scenario_fail(name: &str, msg: String) -> ! {
    panic!("scenario {name}: {msg}")
}

/// One op-mix run: a single-server world, each client's kernel stack,
/// each slot's current instance, and the [`CommitLog`] every
/// observation is scored against (a slot is linked while it holds a
/// commit).
struct Mix<'a> {
    name: &'a str,
    spec: &'a ScenarioSpec,
    tel: &'a Telemetry,
    world: World,
    fs: Vec<Box<dyn FsBench>>,
    instances: Vec<u64>,
    log: CommitLog,
    rng: XorShiftSource,
    op_log: Vec<String>,
    oracle_checks: u64,
}

impl<'a> Mix<'a> {
    /// Builds the world and, through client 0, the directories and one
    /// committed instance per slot with `file_bytes` of generated
    /// content.
    fn new(
        name: &'a str,
        spec: &'a ScenarioSpec,
        suite: SuiteId,
        tel: &'a Telemetry,
        plan: Option<&FaultPlan>,
        trace: Option<&TraceSink>,
    ) -> Self {
        let world = scenario_world(spec.clients, 1, None, suite, tel, plan);
        let prefix = prefix(&world, 0);
        let fs = world
            .clients
            .iter()
            .map(|c| {
                let bench: Box<dyn FsBench> =
                    Box::new(SfsBench::new("SFS", c.clone(), BENCH_UID, &prefix));
                match trace {
                    Some(sink) => Box::new(RecordingFs::new(bench, sink.clone())),
                    None => bench,
                }
            })
            .collect();
        let mut mix = Mix {
            name,
            spec,
            tel,
            world,
            fs,
            instances: vec![0; spec.files],
            log: CommitLog::new(spec.clients, spec.files, DEFAULT_LEASE_NS),
            rng: XorShiftSource::new(spec.seed),
            op_log: Vec::new(),
            oracle_checks: 0,
        };
        for d in 0..spec.dirs {
            let p = format!("d{d}");
            mix.fs[0]
                .mkdir(&p)
                .unwrap_or_else(|e| scenario_fail(name, format!("setup mkdir {p}: {e}")));
            mix.op_log.push(format!("{} c0 mkdir {p}", mix.now()));
        }
        for s in 0..spec.files {
            let path = slot_path(spec, s, 0);
            let data: Vec<u8> = (0..spec.file_bytes as u64)
                .map(|o| content_byte(0, o))
                .collect();
            let fs = &mix.fs[0];
            fs.create(&path)
                .unwrap_or_else(|e| scenario_fail(name, format!("setup create {path}: {e}")));
            fs.write(&path, 0, &data)
                .unwrap_or_else(|e| scenario_fail(name, format!("setup write {path}: {e}")));
            fs.flush(&path)
                .unwrap_or_else(|e| scenario_fail(name, format!("setup flush {path}: {e}")));
            let t = mix.now();
            mix.log.commit(s, t, spec.file_bytes as u64);
            mix.op_log
                .push(format!("{t} c0 setup {path} len={}", spec.file_bytes));
        }
        mix
    }

    fn now(&self) -> u64 {
        self.world.clock.now().as_nanos()
    }

    /// A seeded pick among `slots`.
    fn pick(&mut self, slots: &[usize]) -> usize {
        slots[self.rng.below(slots.len() as u64) as usize]
    }

    /// Scores client `c`'s observation of slot `s` at `size`, now,
    /// through rules 1–3; panics on a violation.
    fn observe(&mut self, c: usize, s: usize, size: u64, what: &str, path: &str) {
        let mut violations = Vec::new();
        let now = self.now();
        self.log.observe(c, s, size, now, what, &mut violations);
        if let Some(v) = violations.first() {
            scenario_fail(self.name, format!("{path}: {v}"));
        }
    }

    /// One seeded weighted op by one seeded client.
    fn step(&mut self) {
        let (name, spec) = (self.name, self.spec);
        let c = self.rng.below(spec.clients as u64) as usize;
        let total_weight: u64 = spec.mix.iter().map(|(_, w)| *w as u64).sum();
        let mut pick = self.rng.below(total_weight);
        let mut op = spec.mix[0].0;
        for (o, w) in &spec.mix {
            if pick < *w as u64 {
                op = *o;
                break;
            }
            pick -= *w as u64;
        }
        let (linked, unlinked): (Vec<usize>, Vec<usize>) =
            (0..spec.files).partition(|&s| self.log.linked(s));

        // Feasibility redirects keep the op stream total: an op with no
        // legal target degrades to a stat of some live file.
        let op = match op {
            ScenarioOp::Create if unlinked.is_empty() => ScenarioOp::Stat,
            ScenarioOp::Unlink if linked.len() <= 1 => ScenarioOp::Stat,
            _ => op,
        };

        let t0 = self.now();
        match op {
            ScenarioOp::Stat | ScenarioOp::Open => {
                let s = self.pick(&linked);
                let path = slot_path(spec, s, self.instances[s]);
                let size = if op == ScenarioOp::Stat {
                    self.fs[c].stat(&path)
                } else {
                    self.fs[c].open(&path)
                }
                .unwrap_or_else(|e| scenario_fail(name, format!("{} {path}: {e}", op.label())));
                self.observe(c, s, size, op.label(), &path);
                self.oracle_checks += 3;
                self.op_log
                    .push(format!("{t0} c{c} {} {path} -> {size}", op.label()));
            }
            ScenarioOp::Read => {
                let s = self.pick(&linked);
                let instance = self.instances[s];
                let path = slot_path(spec, s, instance);
                // Read only below what is safe for this client: the lease
                // floor (every client's cache is at least that fresh) or
                // its own last observation, whichever is larger. With the
                // 30 s default lease nothing expires inside a short run,
                // so the client's own knowledge (what it read or wrote)
                // is what usually covers a read.
                let floor = self.log.lease_floor(s, t0);
                let safe = floor.max(self.log.last_seen(c, s));
                let io = spec.io_bytes as u64;
                if safe < io {
                    // Nothing safely readable yet; observe instead.
                    let size = self.fs[c]
                        .stat(&path)
                        .unwrap_or_else(|e| scenario_fail(name, format!("read→stat {path}: {e}")));
                    // Scored like a stat; counted as one check, the count
                    // `BENCH_scenarios.json` commits.
                    self.observe(c, s, size, "read0", &path);
                    self.oracle_checks += 1;
                    self.op_log
                        .push(format!("{t0} c{c} read0 {path} -> {size}"));
                } else {
                    let off = self.rng.below(safe - io + 1);
                    let data = self.fs[c]
                        .read(&path, off, spec.io_bytes)
                        .unwrap_or_else(|e| scenario_fail(name, format!("read {path}@{off}: {e}")));
                    if data.len() != spec.io_bytes {
                        scenario_fail(
                            name,
                            format!(
                                "read {path}@{off}: got {} of {} bytes below the safe bound {safe}",
                                data.len(),
                                spec.io_bytes
                            ),
                        );
                    }
                    for (k, b) in data.iter().enumerate() {
                        let want = content_byte(instance, off + k as u64);
                        if *b != want {
                            scenario_fail(name, format!(
                                "read {path}@{off}: byte {k} is {b:#04x}, generator says {want:#04x}"
                            ));
                        }
                    }
                    self.oracle_checks += 1;
                    self.op_log
                        .push(format!("{t0} c{c} read {path}@{off}+{}", spec.io_bytes));
                }
            }
            ScenarioOp::Write => {
                let s = self.pick(&linked);
                let instance = self.instances[s];
                let path = slot_path(spec, s, instance);
                let off = self.log.latest(s);
                let data: Vec<u8> = (off..off + spec.io_bytes as u64)
                    .map(|o| content_byte(instance, o))
                    .collect();
                self.fs[c]
                    .write(&path, off, &data)
                    .unwrap_or_else(|e| scenario_fail(name, format!("write {path}@{off}: {e}")));
                self.fs[c]
                    .flush(&path)
                    .unwrap_or_else(|e| scenario_fail(name, format!("flush {path}: {e}")));
                if spec.cpu_ns > 0 {
                    self.fs[c].cpu_burn(spec.cpu_ns);
                }
                let new_len = off + spec.io_bytes as u64;
                let t = self.now();
                self.log.commit(s, t, new_len);
                self.log.saw(c, s, new_len);
                self.op_log
                    .push(format!("{t0} c{c} write {path}@{off}+{}", spec.io_bytes));
            }
            ScenarioOp::Create => {
                let s = self.pick(&unlinked);
                let instance = self.instances[s] + 1;
                let path = slot_path(spec, s, instance);
                self.fs[c]
                    .create(&path)
                    .unwrap_or_else(|e| scenario_fail(name, format!("create {path}: {e}")));
                let t = self.now();
                self.instances[s] = instance;
                self.log.commit(s, t, 0);
                self.op_log.push(format!("{t0} c{c} create {path}"));
            }
            ScenarioOp::Unlink => {
                let s = self.pick(&linked);
                let path = slot_path(spec, s, self.instances[s]);
                self.fs[c]
                    .unlink(&path)
                    .unwrap_or_else(|e| scenario_fail(name, format!("unlink {path}: {e}")));
                self.log.unlink(s);
                self.op_log.push(format!("{t0} c{c} unlink {path}"));
            }
        }
        self.tel.record("ops", op.label(), self.now() - t0);
    }
}

/// Replays `spec` against a fresh single-server world whose clients
/// offer `suite`, checking every observation against the coherence
/// oracle. `plan` threads seeded faults through the testbed; `trace`
/// records the request stream of every client (setup included) for
/// later replay.
///
/// Panics (with a scenario-labelled message) on any oracle violation or
/// unexpected op failure — scenarios are self-asserting.
pub fn run_mix(
    name: &str,
    spec: &ScenarioSpec,
    suite: SuiteId,
    tel: &Telemetry,
    plan: Option<&FaultPlan>,
    trace: Option<&TraceSink>,
) -> ScenarioOutcome {
    let mut mix = Mix::new(name, spec, suite, tel, plan, trace);
    for _ in 0..spec.ops {
        mix.step();
    }
    ScenarioOutcome {
        final_ns: mix.now(),
        op_log: mix.op_log,
        oracle_checks: mix.oracle_checks,
    }
}

// -------------------------------------------------------------- storms

/// Mass mount/unmount waves: clients selected by a [`ChurnSchedule`]
/// drop every mount and renegotiate from scratch, wave after wave —
/// the morning-login stampede. Every remount's latency lands in the
/// `storm/mount_ns` histogram; every remount must succeed and serve a
/// correct probe read.
pub(crate) fn run_mount_storm(
    seed: u64,
    clients: usize,
    waves: usize,
    suite: SuiteId,
    tel: &Telemetry,
    plan: Option<&FaultPlan>,
) -> ScenarioOutcome {
    let world = scenario_world(clients, 1, None, suite, tel, plan);
    let path = world.servers[0].path().clone();
    let probe = format!("{}/probe", prefix(&world, 0));
    let want = b"probe@s0.scenario".to_vec();
    let mut log = Vec::new();
    let mut oracle_checks = 0u64;

    for (c, client) in world.clients.iter().enumerate() {
        let data = client
            .read_file(BENCH_UID, &probe)
            .unwrap_or_else(|e| panic!("mount-storm warm read c{c}: {e:?}"));
        assert_eq!(data, want, "mount-storm warm probe content");
        oracle_checks += 1;
        log.push(format!("{} c{c} warm", world.clock.now().as_nanos()));
    }

    let schedule = ChurnSchedule::generate(seed, waves, 200_000_000, 50_000_000);
    for (w, wave) in schedule.waves().iter().enumerate() {
        world.clock.advance_to(wave.at);
        for (c, client) in world.clients.iter().enumerate() {
            if !schedule.selects(w, c) {
                continue;
            }
            client.unmount_all();
            let t0 = world.clock.now();
            client
                .mount(BENCH_UID, &path)
                .unwrap_or_else(|e| panic!("mount-storm wave {w} c{c} remount: {e:?}"));
            let dt = world.clock.now().since(t0).as_nanos();
            tel.record("storm", "mount_ns", dt);
            let data = client
                .read_file(BENCH_UID, &probe)
                .unwrap_or_else(|e| panic!("mount-storm wave {w} c{c} probe: {e:?}"));
            assert_eq!(data, want, "mount-storm probe content after remount");
            oracle_checks += 2;
            log.push(format!(
                "{} c{c} wave{w} remount {dt}ns",
                world.clock.now().as_nanos()
            ));
        }
    }
    ScenarioOutcome {
        op_log: log,
        final_ns: world.clock.now().as_nanos(),
        oracle_checks,
    }
}

/// Agent key rollover against the authserver: every wave registers a
/// new public key for `bench` (signed by the old key, §2.5-style),
/// rotated clients swap their agent keys and reconnect, and one
/// designated laggard keeps the stale key — falling back to anonymous
/// credentials, it must lose access to the 0600 `secret` while
/// world-readable files stay reachable.
pub(crate) fn run_rollover_storm(
    seed: u64,
    clients: usize,
    waves: usize,
    suite: SuiteId,
    tel: &Telemetry,
    plan: Option<&FaultPlan>,
) -> ScenarioOutcome {
    assert!(clients >= 2, "rollover storm needs a laggard plus rollers");
    let world = scenario_world(clients, 1, None, suite, tel, plan);
    let secret = format!("{}/secret", prefix(&world, 0));
    let probe = format!("{}/probe", prefix(&world, 0));
    let laggard = clients - 1;
    let mut log = Vec::new();
    let mut oracle_checks = 0u64;

    for (c, client) in world.clients.iter().enumerate() {
        let data = client
            .read_file(BENCH_UID, &secret)
            .unwrap_or_else(|e| panic!("rollover warm read c{c}: {e:?}"));
        assert_eq!(data, b"rollover-secret", "warm secret content");
        oracle_checks += 1;
    }
    log.push(format!("{} all-warm", world.clock.now().as_nanos()));

    let schedule = ChurnSchedule::generate(seed, waves, 300_000_000, 60_000_000);
    let mut current = world.user_key();
    for (w, wave) in schedule.waves().iter().enumerate() {
        world.clock.advance_to(wave.at);
        let new = rollover_key(w);
        let new_pub = new.public().to_bytes();
        let sig = sign_key_update(&current, USER, &new_pub);
        world.servers[0]
            .authserver()
            .change_public_key(USER, &new_pub, &sig)
            .unwrap_or_else(|e| panic!("rollover wave {w}: authserver refused update: {e:?}"));
        let old_pub = current.public().to_bytes();
        assert!(
            world.servers[0]
                .authserver()
                .credentials_for_key(&old_pub)
                .is_none(),
            "rolled-over key must no longer resolve to credentials"
        );
        oracle_checks += 1;
        log.push(format!(
            "{} wave{w} key-rolled",
            world.clock.now().as_nanos()
        ));

        for (c, client) in world.clients.iter().enumerate() {
            if c == laggard {
                continue;
            }
            let t0 = world.clock.now();
            assert!(
                client.agent(BENCH_UID).lock().replace_key(0, new.clone()),
                "agent must hold a key slot 0 to replace"
            );
            client.unmount_all();
            let data = client
                .read_file(BENCH_UID, &secret)
                .unwrap_or_else(|e| panic!("rollover wave {w} c{c} post-roll secret: {e:?}"));
            assert_eq!(data, b"rollover-secret");
            oracle_checks += 2;
            tel.record(
                "storm",
                "rollover_ns",
                world.clock.now().since(t0).as_nanos(),
            );
            log.push(format!(
                "{} c{c} wave{w} rolled",
                world.clock.now().as_nanos()
            ));
        }

        // The laggard's stale key now authenticates as nobody: the
        // server falls back to anonymous credentials, which cannot read
        // a 0600 file but still reach world-readable ones.
        let lc = &world.clients[laggard];
        lc.unmount_all();
        let denied = lc.read_file(BENCH_UID, &secret);
        assert!(
            denied.is_err(),
            "laggard with rolled-over key read the 0600 secret: {denied:?}"
        );
        let open = lc
            .read_file(BENCH_UID, &probe)
            .unwrap_or_else(|e| panic!("rollover wave {w} laggard probe: {e:?}"));
        assert_eq!(open, b"probe@s0.scenario");
        oracle_checks += 2;
        log.push(format!(
            "{} c{laggard} wave{w} laggard-denied",
            world.clock.now().as_nanos()
        ));
        current = new;
    }
    ScenarioOutcome {
        op_log: log,
        final_ns: world.clock.now().as_nanos(),
        oracle_checks,
    }
}

/// Lease-expiry waves: a short-lease world where one writer commits
/// appends and, once the lease has provably expired, every reader must
/// observe the *exact* new size (a stale cached attribute would be a
/// protocol violation, not a tuning artifact) and must have spent RPCs
/// revalidating.
pub(crate) fn run_lease_storm(
    seed: u64,
    clients: usize,
    files: usize,
    waves: usize,
    suite: SuiteId,
    tel: &Telemetry,
    plan: Option<&FaultPlan>,
) -> ScenarioOutcome {
    assert!(clients >= 2, "lease storm needs a writer plus readers");
    const LEASE_NS: u64 = 250_000_000;
    const IO: u64 = 512;
    let world = scenario_world(clients, 1, Some(LEASE_NS), suite, tel, plan);
    let prefix = prefix(&world, 0);
    let fs: Vec<SfsBench> = world
        .clients
        .iter()
        .map(|c| SfsBench::new("SFS", c.clone(), BENCH_UID, &prefix))
        .collect();
    let mut log = Vec::new();
    let mut oracle_checks = 0u64;
    let mut lens = vec![0u64; files];

    for (f, len) in lens.iter_mut().enumerate() {
        let p = format!("lease{f}");
        fs[0].create(&p).unwrap();
        let data: Vec<u8> = (0..IO).map(|o| content_byte(f as u64, o)).collect();
        fs[0].write(&p, 0, &data).unwrap();
        fs[0].flush(&p).unwrap();
        *len = IO;
    }
    for bench in &fs[1..] {
        for (f, len) in lens.iter().enumerate() {
            let s = bench.stat(&format!("lease{f}")).unwrap();
            assert_eq!(s, *len, "warm stat");
            oracle_checks += 1;
        }
    }
    log.push(format!(
        "{} warm files={files}",
        world.clock.now().as_nanos()
    ));

    let schedule = ChurnSchedule::generate(seed, waves, 400_000_000, 100_000_000);
    for (w, wave) in schedule.waves().iter().enumerate() {
        world.clock.advance_to(wave.at);
        for (f, len) in lens.iter_mut().enumerate() {
            let p = format!("lease{f}");
            let data: Vec<u8> = (*len..*len + IO)
                .map(|o| content_byte(f as u64, o))
                .collect();
            fs[0].write(&p, *len, &data).unwrap();
            fs[0].flush(&p).unwrap();
            *len += IO;
        }
        log.push(format!(
            "{} wave{w} appended len={}",
            world.clock.now().as_nanos(),
            lens[0]
        ));
        // Outlive every lease granted before or during the appends.
        world.clock.advance_ns(LEASE_NS + 1);
        for (c, bench) in fs.iter().enumerate().skip(1) {
            let before = world.clients[c].network_rpcs();
            let t0 = world.clock.now();
            for (f, len) in lens.iter().enumerate() {
                let s = bench.stat(&format!("lease{f}")).unwrap();
                assert_eq!(
                    s, *len,
                    "wave {w}: reader {c} saw a stale size for lease{f} after lease expiry"
                );
                oracle_checks += 1;
            }
            let delta = world.clients[c].network_rpcs() - before;
            assert!(
                delta > 0,
                "wave {w}: reader {c} revalidated nothing — lease expiry not enforced"
            );
            oracle_checks += 1;
            tel.record(
                "storm",
                "lease_wave_ns",
                world.clock.now().since(t0).as_nanos(),
            );
            log.push(format!(
                "{} c{c} wave{w} revalidated rpcs={delta}",
                world.clock.now().as_nanos()
            ));
        }
    }
    ScenarioOutcome {
        op_log: log,
        final_ns: world.clock.now().as_nanos(),
        oracle_checks,
    }
}

/// §2.5 revocation broadcast mid-workload: two servers, every client
/// holding warm mounts (and warm kernel-level handle caches) on both.
/// A revocation certificate for server 0 is installed and broadcast to
/// every agent; from that instant every access to server 0 — including
/// through cached mounts and cached file handles — must be refused,
/// while server 1 traffic is entirely unaffected.
pub(crate) fn run_revocation_storm(
    clients: usize,
    suite: SuiteId,
    tel: &Telemetry,
    plan: Option<&FaultPlan>,
) -> ScenarioOutcome {
    let world = scenario_world(clients, 2, None, suite, tel, plan);
    let bench0: Vec<SfsBench> = world
        .clients
        .iter()
        .map(|c| SfsBench::new("SFS", c.clone(), BENCH_UID, &prefix(&world, 0)))
        .collect();
    let bench1: Vec<SfsBench> = world
        .clients
        .iter()
        .map(|c| SfsBench::new("SFS", c.clone(), BENCH_UID, &prefix(&world, 1)))
        .collect();
    let mut log = Vec::new();
    let mut oracle_checks = 0u64;

    // Warm workload: every client touches both servers, filling the
    // mount table, the name cache, and the attribute cache.
    for c in 0..clients {
        for (which, bench) in [(0usize, &bench0[c]), (1, &bench1[c])] {
            let s = bench
                .stat("probe")
                .unwrap_or_else(|e| panic!("revocation warm stat c{c} s{which}: {e}"));
            assert_eq!(s as usize, format!("probe@s{which}.scenario").len());
            let data = bench.read("probe", 0, s as usize).unwrap();
            assert_eq!(data, format!("probe@s{which}.scenario").as_bytes());
            oracle_checks += 2;
        }
    }
    log.push(format!("{} all-warm", world.clock.now().as_nanos()));

    // The broadcast: the owner's self-authenticating certificate is
    // installed at the server and pushed to every agent.
    let cert = RevocationCert::issue(&keys::rabin(768, SCENARIO_KEYS.servers[0]), "s0.scenario");
    world.servers[0].install_revocation(cert.clone());
    for (c, client) in world.clients.iter().enumerate() {
        assert!(
            client
                .agent(BENCH_UID)
                .lock()
                .submit_revocation(cert.clone()),
            "client {c} agent rejected a valid revocation certificate"
        );
        oracle_checks += 1;
    }
    let t_revoked = world.clock.now().as_nanos();
    log.push(format!("{t_revoked} revocation-broadcast"));

    for c in 0..clients {
        // The cached-handle path: SfsBench still holds the Arc<Mount>
        // and file handle from the warm phase, so this exercises the
        // per-RPC refusal check, not the mount-time one.
        let denied = bench0[c].stat("probe");
        match denied {
            Err(BenchFsError::Sfs(ref msg)) if msg.contains("blocked") => {}
            other => panic!("revocation: c{c} cached-handle access not refused: {other:?}"),
        }
        // The fresh-mount path must refuse too.
        let fresh = world.clients[c].mount(BENCH_UID, world.servers[0].path());
        assert!(
            fresh.is_err(),
            "revocation: c{c} remounted a revoked HostID"
        );
        // The unrevoked server must regress in no way.
        let t0 = world.clock.now();
        let s = bench1[c]
            .stat("probe")
            .unwrap_or_else(|e| panic!("revocation: c{c} unrevoked server regressed: {e}"));
        assert_eq!(s as usize, "probe@s1.scenario".len());
        tel.record(
            "storm",
            "post_revoke_stat_ns",
            world.clock.now().since(t0).as_nanos(),
        );
        oracle_checks += 3;
        log.push(format!(
            "{} c{c} revoked-refused unrevoked-ok",
            world.clock.now().as_nanos()
        ));
    }
    ScenarioOutcome {
        op_log: log,
        final_ns: world.clock.now().as_nanos(),
        oracle_checks,
    }
}

// ------------------------------------------------------------ built-ins

/// The built-in op-mix scenarios.
///
/// - `laddis`: the LADDIS/SPEC-SFS NFS operation mix (heavy lookup/
///   getattr traffic, moderate reads, light writes), mapped onto this
///   engine's op set.
/// - `compile`: an edit-compile cycle over a source tree — open/stat/
///   read-dominated with object-file creation and CPU burned between
///   I/Os.
/// - `mail-spool`: an append-heavy spool — many small committed writes,
///   deliveries (create) and expunges (unlink).
pub fn builtin_mixes() -> Vec<(&'static str, ScenarioSpec)> {
    let parse = |s: &str| ScenarioSpec::parse(s).expect("built-in scenario spec");
    vec![
        (
            "laddis",
            parse(
                "seed=101,clients=4,dirs=8,files=48,file_bytes=8192,io_bytes=4096,ops=600,\
                 cpu_ns=0,mix=stat:13+read:22+write:15+create:2+unlink:1+open:34",
            ),
        ),
        (
            "compile",
            parse(
                "seed=202,clients=2,dirs=6,files=36,file_bytes=4096,io_bytes=2048,ops=400,\
                 cpu_ns=2ms,mix=stat:20+read:30+write:15+create:8+unlink:2+open:25",
            ),
        ),
        (
            "mail-spool",
            parse(
                "seed=303,clients=3,dirs=4,files=24,file_bytes=2048,io_bytes=1024,ops=500,\
                 cpu_ns=0,mix=stat:20+read:25+write:40+create:5+unlink:10",
            ),
        ),
    ]
}

/// The built-in churn storms, by name.
pub const STORM_NAMES: [&str; 4] = [
    "mount-storm",
    "rollover-storm",
    "lease-storm",
    "revocation-storm",
];

/// Runs a built-in storm with every client offering `suite`. `smoke`
/// shrinks wave and client counts for smoke/test runs. Returns `None`
/// for an unknown name.
pub fn run_storm(
    name: &str,
    suite: SuiteId,
    tel: &Telemetry,
    plan: Option<&FaultPlan>,
    smoke: bool,
) -> Option<ScenarioOutcome> {
    let (clients, waves) = if smoke { (3, 2) } else { (6, 4) };
    Some(match name {
        "mount-storm" => run_mount_storm(0xA11_0001, clients, waves, suite, tel, plan),
        "rollover-storm" => run_rollover_storm(0xA11_0002, clients, waves, suite, tel, plan),
        "lease-storm" => run_lease_storm(
            0xA11_0003,
            clients,
            if smoke { 4 } else { 8 },
            waves,
            suite,
            tel,
            plan,
        ),
        "revocation-storm" => run_revocation_storm(clients, suite, tel, plan),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ops_round_trip() {
        let ops = vec![
            TraceOp::Mkdir("d0".into()),
            TraceOp::Create("d0/f1-0".into()),
            TraceOp::Write {
                path: "d0/f1-0".into(),
                offset: 128,
                data: vec![0, 255, 16],
            },
            TraceOp::Flush("d0/f1-0".into()),
            TraceOp::Read {
                path: "d0/f1-0".into(),
                offset: 0,
                len: 64,
            },
            TraceOp::Stat("d0/f1-0".into()),
            TraceOp::Open("d0/f1-0".into()),
            TraceOp::Unlink("d0/f1-0".into()),
        ];
        let text = encode_trace(&ops);
        assert_eq!(parse_trace(&text).unwrap(), ops);
        assert_eq!(encode_trace(&parse_trace(&text).unwrap()), text);
    }

    #[test]
    fn trace_parse_rejects_garbage() {
        for (line, needle) in [
            ("chmod f", "unknown trace op"),
            ("write f 12", "takes 3 field"),
            ("write f twelve aa", "not an integer"),
            ("write f 12 abc", "odd-length hex"),
            ("write f 12 zz", "bad hex byte"),
            ("stat", "takes 1 field"),
        ] {
            let err = TraceOp::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line:?}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "stat 517 was never committed (latest 512)")]
    fn a_file_grown_behind_the_protocols_back_breaks_rule_one() {
        let spec = ScenarioSpec::parse(
            "seed=5,clients=2,dirs=1,files=2,file_bytes=512,io_bytes=256,ops=8,cpu_ns=0,\
             mix=stat:1",
        )
        .unwrap();
        let tel = Telemetry::recording(sfs_telemetry::ZeroClock);
        let mut mix = Mix::new("grown", &spec, SuiteId::ChaCha20Poly1305, &tel, None, None);
        // Append to every file straight on the server's disk: no commit
        // the log knows of, and no callback to any client.
        let vfs = mix.world.servers[0].vfs();
        let root = Credentials::root();
        for s in 0..spec.files {
            let path = format!("/bench/{}", slot_path(&spec, s, 0));
            let (ino, _) = vfs.lookup_path(&root, &path).unwrap();
            vfs.write(&root, ino, 512, b"grown", true).unwrap();
        }
        for _ in 0..spec.ops {
            mix.step();
        }
    }
}
