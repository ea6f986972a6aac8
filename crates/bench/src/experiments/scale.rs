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
//! (the slowest client's elapsed virtual time). The engine's placement
//! is deterministic (earliest start, lowest core index) and holds no
//! wall-clock state, so the driver's rerun reproduces every point.
//!
//! Envelope: the crypto-bound workload at the full fleet scales ≥ 3×
//! from 1 to 4 cores (≥ 1.8× in `--smoke`) and stays monotone in cores,
//! and the disk-bound workload actually exercises group commit.

use sfs_nfs3::proto::{Nfs3Reply, Nfs3Request};
use sfs_proto::channel::SuiteId;

use super::suite;
use crate::calib::BENCH_UID;
use crate::driver::{Ctx, Report};
use crate::report::{monotone, Check, Obj};
use crate::world::{KeySeeds, World, WorldSpec};

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

/// The two workloads, by the label their rows carry.
const CRYPTO_READS: &str = "crypto_reads";
const DISK_WRITES: &str = "disk_writes";

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
    workload: &'static str,
    clients: usize,
    cores: usize,
    suite: SuiteId,
    rounds: usize,
) -> Obj {
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
                CRYPTO_READS => {
                    let (mount, fh) = &resolved[c];
                    let reqs: Vec<Nfs3Request> = (0..WINDOW)
                        .map(|i| Nfs3Request::Read {
                            fh: *fh,
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
                _ => {
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
    Obj::new()
        .str("workload", workload)
        .num("clients", clients)
        .num("cores", cores)
        .num("virtual_ns", makespan)
        .float(
            "aggregate_mb_per_s",
            total_bytes as f64 / 1_000_000.0 / secs,
            3,
        )
        .float(
            "per_client_mb_per_s",
            total_bytes as f64 / clients as f64 / 1_000_000.0 / secs,
            3,
        )
        .float(
            "mean_op_us",
            elapsed.iter().sum::<u64>() as f64 / 1_000.0 / ops as f64,
            1,
        )
        .num("total_bytes", total_bytes)
        .num("ops", ops)
        .num("frames_scheduled", engine.frames_scheduled())
        .num("disk_commits", disk.iter().map(|s| s.commits).sum::<u64>())
        .num("disk_batches", disk.iter().map(|s| s.batches).sum::<u64>())
        .num("disk_joined", disk.iter().map(|s| s.joined).sum::<u64>())
}

pub(crate) fn run(ctx: &Ctx) -> Result<Report, String> {
    // The sweep runs the negotiated fast suite end-to-end by default;
    // `--suite arc4-sha1` keeps the paper-parity baseline reachable.
    let suite = suite(ctx)?;
    let (client_sweep, rounds_read, rounds_write): (&[usize], usize, usize) = if ctx.smoke {
        (&[4], 4, 2)
    } else {
        (&[2, 8], 8, 4)
    };
    let fleet_max = *client_sweep.iter().max().unwrap();

    let sweep = |workload, rounds| -> Vec<Obj> {
        let points = client_sweep
            .iter()
            .flat_map(|&clients| CORES.map(|cores| (clients, cores)));
        points
            .map(|(clients, cores)| run_point(workload, clients, cores, suite, rounds))
            .collect()
    };
    let (reads, writes) = (
        sweep(CRYPTO_READS, rounds_read),
        sweep(DISK_WRITES, rounds_write),
    );
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
        .str("mode", ctx.mode())
        .str("suite", suite.label())
        .obj("workloads", workloads)
        .obj("unit", unit);

    // The envelope reads the crypto-bound curve at the full fleet. Allow
    // a hair of slack at saturation; below it the curve must rise with
    // cores.
    let aggregate = |row: &Obj| row.number("aggregate_mb_per_s");
    let curve: Vec<&Obj> = reads
        .iter()
        .filter(|r| r.number("clients") == fleet_max as f64)
        .collect();
    let mut checks = monotone(&curve, "cores", "aggregate_mb_per_s", 0.02);
    // CORES[0] = 1 and CORES[2] = 4.
    let speedup = aggregate(curve[2]) / aggregate(curve[0]);
    let required = if ctx.smoke {
        REQUIRED_SPEEDUP_SMOKE
    } else {
        REQUIRED_SPEEDUP_FULL
    };
    checks.push(Check::perf(
        format!("crypto-bound, {fleet_max} clients: 4 cores deliver at least {required}x one core"),
        speedup >= required,
        format!("{speedup:.2}x"),
    ));
    for p in &writes {
        // With at least as many disk shards as clients, every file can
        // land on its own spindle and there is legitimately nothing to
        // group; below that, commits contend and batching must show up.
        let (clients, cores) = (p.number("clients"), p.number("cores"));
        let (commits, joined) = (p.number("disk_commits"), p.number("disk_joined"));
        checks.push(Check::perf(
            format!("disk-bound clients={clients} cores={cores} commits, and groups them when shards contend"),
            commits > 0.0 && (cores >= clients || joined > 0.0),
            format!("{commits} commits, {joined} joined"),
        ));
    }
    Ok(Report {
        header,
        rows_key: "rows",
        rows: reads.into_iter().chain(writes).collect(),
        checks,
        ..Report::default()
    })
}
