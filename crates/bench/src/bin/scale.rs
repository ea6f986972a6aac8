//! `scale`: multi-core server throughput sweep (clients × cores).
//!
//! The single-machine cost model serializes every frame's seal/open on
//! one simulated CPU; DESIGN.md §15's [`sfs::ShardEngine`] lifts that
//! limit by scheduling each frame's server-side work on the
//! earliest-free core of an N-core calendar and each request's disk
//! work on a per-shard commit queue with group commit. This sweep
//! measures what that buys: a fleet of clients (each on its own virtual
//! clock, all dialing the same server) drives two workloads against a
//! server swept over core counts:
//!
//! - **crypto-bound**: windowed batches of 1 KiB READs of a warm file.
//!   Per-frame CPU (user crossing + RPC processing + copies, ~325 µs on
//!   the Pentium III 550 model) dwarfs the 1 KiB wire time, so
//!   aggregate MB/s tracks core count nearly linearly until the fleet's
//!   own reply links saturate.
//! - **disk-bound**: streamed rewrites of a 64 KiB file, each closed
//!   with a sync commit. The spindle dominates, so extra cores buy
//!   little beyond what per-shard group commit amortizes — the curve
//!   flattens exactly where the simulated disk saturates.
//!
//! Aggregate throughput is total payload bytes over the fleet makespan
//! (the slowest client's elapsed virtual time). Every sweep point runs
//! twice and must reproduce byte-for-byte — the engine's placement is
//! deterministic (earliest start, lowest core index) and holds no
//! wall-clock state.
//!
//! Results land in `BENCH_scale.json`. The binary asserts its own
//! envelope and exits nonzero on regression: the crypto-bound workload
//! at the full fleet must scale ≥ 3× from 1 to 4 cores (≥ 1.8× in
//! `--smoke`, which CI runs), stay monotone in cores, and the
//! disk-bound workload must actually exercise group commit (joined
//! commits > 0).
//!
//! Usage: `cargo run --release -p sfs-bench --bin scale [-- --smoke] [--out PATH]`

use sfs_bench::args::Args;
use sfs_bench::calib::BENCH_UID;
use sfs_bench::report::{rerun_identical, write_artifact, Obj};
use sfs_bench::world::{KeySeeds, World, WorldSpec};
use sfs_nfs3::proto::{Nfs3Reply, Nfs3Request};
use sfs_proto::channel::SuiteId;

/// Frames kept in flight per client batch.
const WINDOW: usize = 16;

/// Crypto-bound READ size: small enough that per-frame CPU dominates
/// the wire.
const READ_CHUNK: usize = 1024;

/// The warm file each client re-reads, one window per round.
const READ_FILE_BYTES: usize = WINDOW * READ_CHUNK;

/// Disk-bound rewrite payload per round (streamed, then sync-committed).
const WRITE_BYTES: usize = 64 * 1024;

/// Cores swept; 1 doubles as the single-core baseline row.
const CORES: [usize; 4] = [1, 2, 4, 8];

/// 4 cores must beat 1 core by at least this factor on the crypto-bound
/// workload at the full fleet.
const REQUIRED_SPEEDUP_FULL: f64 = 3.0;
const REQUIRED_SPEEDUP_SMOKE: f64 = 1.8;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    CryptoReads,
    DiskWrites,
}

impl Workload {
    fn label(self) -> &'static str {
        match self {
            Workload::CryptoReads => "crypto_reads",
            Workload::DiskWrites => "disk_writes",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Row {
    workload: &'static str,
    clients: usize,
    cores: usize,
    virtual_ns: u64,
    total_bytes: u64,
    ops: u64,
    aggregate_mb_per_s: f64,
    per_client_mb_per_s: f64,
    mean_op_us: f64,
    frames_scheduled: u64,
    disk_commits: u64,
    disk_batches: u64,
    disk_joined: u64,
}

fn body(c: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| ((c * 137 + i) % 251) as u8).collect()
}

/// The shared N-core server on the benchmark disk plus a fleet of
/// `clients` windowed clients, each on an independent clock, so
/// measured-phase disk work flows through the engine's per-shard commit
/// queues.
fn fleet(clients: usize, cores: usize, suite: SuiteId) -> World {
    let world = World::build(&WorldSpec {
        keys: KeySeeds {
            servers: &[0x5CA1E],
            user: 0x5CA1E + 1,
            srp: 0x5CA1E + 2,
            ephemeral: None,
        },
        locations: &["scale.bench"],
        server_entropy: "scale-server",
        client_entropy: "scale-client-{}",
        cores: Some(cores),
        clients,
        own_clocks: true,
        ..WorldSpec::bench()
    });
    for client in &world.clients {
        client.set_pipeline_window(WINDOW);
        client.set_suite_offer(&[suite]);
    }
    world
}

/// One sweep point: builds a fresh world, warms every client's file and
/// caches, then runs `rounds` measured rounds interleaved across the
/// fleet so their service windows overlap on the engine's calendars.
fn run_point(
    workload: Workload,
    clients: usize,
    cores: usize,
    suite: SuiteId,
    rounds: usize,
) -> Row {
    let world = fleet(clients, cores, suite);
    let fleet = &world.clients;
    let path = |c: usize| format!("{}/bench/scale-{c}", world.path().full_path());

    // Warm-up (unmeasured): mount + auth handshakes, file creation, and
    // one read so attribute caches and stream detectors are hot.
    for (c, m) in fleet.iter().enumerate() {
        m.write_file(BENCH_UID, &path(c), &body(c, READ_FILE_BYTES))
            .unwrap();
        assert_eq!(
            m.read_file(BENCH_UID, &path(c)).unwrap(),
            body(c, READ_FILE_BYTES)
        );
    }

    let resolved: Vec<_> = fleet
        .iter()
        .enumerate()
        .map(|(c, m)| {
            let (mount, fh, _) = m.resolve(BENCH_UID, &path(c)).unwrap();
            (mount, fh)
        })
        .collect();
    let t0: Vec<u64> = fleet.iter().map(|m| m.clock().now().as_nanos()).collect();

    let mut total_bytes = 0u64;
    let mut ops = 0u64;
    for round in 0..rounds {
        for (c, m) in fleet.iter().enumerate() {
            match workload {
                Workload::CryptoReads => {
                    let (mount, fh) = &resolved[c];
                    let reqs: Vec<Nfs3Request> = (0..WINDOW)
                        .map(|i| Nfs3Request::Read {
                            fh: fh.clone(),
                            offset: (i * READ_CHUNK) as u64,
                            count: READ_CHUNK as u32,
                        })
                        .collect();
                    let replies = m.call_nfs_window(mount, BENCH_UID, &reqs).unwrap();
                    let want = body(c, READ_FILE_BYTES);
                    for (i, reply) in replies.iter().enumerate() {
                        match reply {
                            Nfs3Reply::Read { data, .. } => {
                                assert_eq!(
                                    data.as_slice(),
                                    &want[i * READ_CHUNK..(i + 1) * READ_CHUNK],
                                    "client {c} round {round} read {i}: payload mismatch"
                                );
                                total_bytes += data.len() as u64;
                            }
                            other => panic!("client {c}: unexpected reply {other:?}"),
                        }
                        ops += 1;
                    }
                }
                Workload::DiskWrites => {
                    let data = body(c + round, WRITE_BYTES);
                    m.write_file(BENCH_UID, &path(c), &data).unwrap();
                    total_bytes += data.len() as u64;
                    ops += 1;
                }
            }
        }
    }

    let engine = world.servers[0].shard_engine().expect("engine installed");
    assert!(
        engine.frames_scheduled() > 0,
        "the shard engine never scheduled any work"
    );
    let elapsed: Vec<u64> = fleet
        .iter()
        .zip(&t0)
        .map(|(m, t)| m.clock().now().as_nanos() - t)
        .collect();
    let makespan = *elapsed.iter().max().unwrap();
    let secs = makespan as f64 / 1e9;
    let disk = engine.disk_stats();
    Row {
        workload: workload.label(),
        clients,
        cores,
        virtual_ns: makespan,
        total_bytes,
        ops,
        aggregate_mb_per_s: total_bytes as f64 / 1_000_000.0 / secs,
        per_client_mb_per_s: total_bytes as f64 / clients as f64 / 1_000_000.0 / secs,
        mean_op_us: elapsed.iter().sum::<u64>() as f64 / 1_000.0 / ops as f64,
        frames_scheduled: engine.frames_scheduled(),
        disk_commits: disk.iter().map(|s| s.commits).sum(),
        disk_batches: disk.iter().map(|s| s.batches).sum(),
        disk_joined: disk.iter().map(|s| s.joined).sum(),
    }
}

fn row_json(r: &Row) -> Obj {
    Obj::new()
        .str("workload", r.workload)
        .num("clients", r.clients)
        .num("cores", r.cores)
        .num("virtual_ns", r.virtual_ns)
        .float("aggregate_mb_per_s", r.aggregate_mb_per_s, 3)
        .float("per_client_mb_per_s", r.per_client_mb_per_s, 3)
        .float("mean_op_us", r.mean_op_us, 1)
        .num("total_bytes", r.total_bytes)
        .num("ops", r.ops)
        .num("frames_scheduled", r.frames_scheduled)
        .num("disk_commits", r.disk_commits)
        .num("disk_batches", r.disk_batches)
        .num("disk_joined", r.disk_joined)
}

fn main() {
    let args = Args::from_env();
    args.enforce_known(&["out", "suite"], &["smoke"]);
    let smoke = std::env::args().any(|a| a == "--smoke");
    let out_path = args.opt("out").unwrap_or_else(|| "BENCH_scale.json".into());
    // The sweep runs the negotiated fast suite end-to-end by default;
    // `--suite arc4-sha1` keeps the paper-parity baseline reachable.
    let suite_label = args
        .opt("suite")
        .unwrap_or_else(|| SuiteId::ChaCha20Poly1305.label().into());
    let suite = SuiteId::parse(&suite_label)
        .unwrap_or_else(|| panic!("unknown suite {suite_label:?} (arc4-sha1 | chacha20-poly1305)"));
    let (client_sweep, rounds_read, rounds_write): (&[usize], usize, usize) =
        if smoke { (&[4], 4, 2) } else { (&[2, 8], 8, 4) };
    let fleet_max = *client_sweep.iter().max().unwrap();

    println!("== scale: clients × cores sweep, windowed fleet against one server ==");
    let mut rows: Vec<Row> = Vec::new();
    for &workload in &[Workload::CryptoReads, Workload::DiskWrites] {
        let rounds = match workload {
            Workload::CryptoReads => rounds_read,
            Workload::DiskWrites => rounds_write,
        };
        for &clients in client_sweep {
            for cores in CORES {
                let what = format!("{} clients={clients} cores={cores}", workload.label());
                let row =
                    rerun_identical(&what, || run_point(workload, clients, cores, suite, rounds));
                println!(
                    "  {:>12}  clients {:>2}  cores {:>2}  {:>13} ns makespan  {:>8.2} MB/s aggregate  {:>8.1} µs/op  batches {:>4} (joined {:>4})",
                    row.workload,
                    row.clients,
                    row.cores,
                    row.virtual_ns,
                    row.aggregate_mb_per_s,
                    row.mean_op_us,
                    row.disk_batches,
                    row.disk_joined,
                );
                rows.push(row);
            }
        }
    }
    let workloads = Obj::new()
        .obj(
            "crypto_reads",
            Obj::new()
                .num("window", WINDOW)
                .num("read_bytes", READ_CHUNK),
        )
        .obj("disk_writes", Obj::new().num("rewrite_bytes", WRITE_BYTES));
    let unit = Obj::new()
        .str("aggregate_mb_per_s", "MB/s of virtual time, fleet makespan")
        .str("virtual_ns", "nanoseconds")
        .str("mean_op_us", "microseconds per op, fleet mean");
    let header = Obj::new()
        .str("schema", "sfs-bench/scale/v1")
        .str("mode", if smoke { "smoke" } else { "full" })
        .str("suite", suite.label())
        .obj("workloads", workloads)
        .obj("unit", unit);
    let json_rows: Vec<Obj> = rows.iter().map(row_json).collect();
    write_artifact(&out_path, &header, "rows", &json_rows);

    // Regression envelope. Virtual time is deterministic, so these are
    // exact checks, not statistical ones.
    let mut failed = false;
    let read_rows: Vec<&Row> = rows
        .iter()
        .filter(|r| r.workload == Workload::CryptoReads.label() && r.clients == fleet_max)
        .collect();
    for pair in read_rows.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        // Allow a hair of slack at saturation; below it the curve must
        // rise with cores.
        if b.aggregate_mb_per_s < a.aggregate_mb_per_s * 0.98 {
            eprintln!(
                "FAIL: crypto-bound aggregate fell with cores: {} cores = {:.3} MB/s < {} cores = {:.3} MB/s",
                b.cores, b.aggregate_mb_per_s, a.cores, a.aggregate_mb_per_s
            );
            failed = true;
        }
    }
    let c1 = read_rows.iter().find(|r| r.cores == 1).expect("1-core row");
    let c4 = read_rows.iter().find(|r| r.cores == 4).expect("4-core row");
    let speedup = c4.aggregate_mb_per_s / c1.aggregate_mb_per_s;
    let required = if smoke {
        REQUIRED_SPEEDUP_SMOKE
    } else {
        REQUIRED_SPEEDUP_FULL
    };
    println!("crypto-bound, {fleet_max} clients: 4 cores vs 1 = {speedup:.2}x aggregate");
    if speedup < required {
        eprintln!(
            "FAIL: 4 cores must deliver at least {required}x the single-core aggregate \
             on the crypto-bound workload, got {speedup:.2}x"
        );
        failed = true;
    }
    for r in rows
        .iter()
        .filter(|r| r.workload == Workload::DiskWrites.label())
    {
        // With at least as many disk shards as clients, every file can
        // land on its own spindle and there is legitimately nothing to
        // group; below that, commits contend and batching must show up.
        if r.cores < r.clients && r.disk_joined == 0 {
            eprintln!(
                "FAIL: disk-bound point clients={} cores={} never joined a commit batch — \
                 group commit is not being exercised",
                r.clients, r.cores
            );
            failed = true;
        }
        if r.disk_commits == 0 {
            eprintln!(
                "FAIL: disk-bound point clients={} cores={} scheduled no disk commits",
                r.clients, r.cores
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
