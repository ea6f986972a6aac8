//! `fanout`: read-throughput sweep over read-only replica count.
//!
//! The §2.4 read-only dialect exists for exactly one reason: read
//! bandwidth should scale with *machines*, not with the private key.
//! A publisher signs the hash tree once, offline; after that, any
//! number of keyless replicas can serve it, and clients verify every
//! block against the HostID rather than trusting the machine.
//!
//! The sweep publishes one file tree, stands up `R ∈ {1, 2, 4, 8}`
//! keyless replicas behind a [`sfs_relay::ReplicaGroup`], and aims a
//! fixed fleet of 8 verifying clients at the group. Each client runs on
//! its own virtual clock (the fleet is concurrent in wall-clock terms),
//! while per-machine contention is modelled by `sfs_sim::ServerLoad`:
//! a replica serving 8 streams serializes replies 8× slower than one
//! serving a single stream. Aggregate throughput is total bytes
//! delivered divided by the *slowest* client's virtual time — the
//! makespan of the fleet.
//!
//! Results land in `BENCH_fanout.json`. The binary asserts its own
//! envelope and exits nonzero on regression: aggregate MB/s must be
//! monotone non-decreasing in replica count, and 4 replicas must beat
//! 1 replica by at least 2×. `--smoke` publishes a smaller tree (CI
//! runs that mode); the assertions hold there too because virtual time
//! is deterministic at any scale.
//!
//! `--faults <spec>` threads a seeded fault plan through every client's
//! wire; the perf envelope is skipped (drops legitimately break
//! monotone scaling and force failovers) but the fault envelope is
//! asserted instead — a faulted run must actually inject what its spec
//! promises.
//!
//! Usage: `cargo run --release -p sfs-bench --bin fanout [-- --smoke] [--out PATH] [--faults SPEC]`

use sfs::client::Router;
use sfs::roclient::RoMount;
use sfs::server::RoReplicaServer;
use sfs_bench::args::{Args, FaultOpt};
use sfs_bench::keys;
use sfs_bench::report::{write_artifact, Obj};
use sfs_crypto::rabin::RabinPrivateKey;
use sfs_proto::pathname::SelfCertifyingPath;
use sfs_proto::readonly::RoDatabase;
use sfs_relay::ReplicaGroup;
use sfs_sim::{FaultPlan, NetParams, SimClock, Transport, Wire};
use sfs_vfs::{Credentials, Vfs};

const LOCATION: &str = "ro.lcs.mit.edu";

/// Verifying clients aimed at the group in every configuration.
const CLIENTS: usize = 8;

/// Replica counts swept; 1 doubles as the no-fan-out baseline row.
const REPLICAS: [usize; 4] = [1, 2, 4, 8];

/// Published tree: full mode 48 files × 32 KiB, smoke 12 × 8 KiB.
const FILES_FULL: usize = 48;
const FILE_BYTES_FULL: usize = 32 * 1024;
const FILES_SMOKE: usize = 12;
const FILE_BYTES_SMOKE: usize = 8 * 1024;

/// 4 replicas must beat 1 replica by at least this factor.
const REQUIRED_SPEEDUP: f64 = 2.0;

struct Row {
    replicas: usize,
    clients: usize,
    virtual_ns: u64,
    aggregate_mb_per_s: f64,
    per_client_mb_per_s: f64,
    total_bytes: u64,
    round_trips: u64,
    failovers: u64,
}

fn file_body(f: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| ((f * 131 + i) % 251) as u8).collect()
}

/// Publishes the tree once and exports the signed distribution bundle.
fn published_bundle(key: &RabinPrivateKey, files: usize, file_bytes: usize) -> Vec<u8> {
    let vfs = Vfs::new(17, SimClock::new());
    let creds = Credentials::root();
    let data = vfs.mkdir_p("/data").unwrap();
    for f in 0..files {
        vfs.write_file(&creds, data, &format!("f{f}"), &file_body(f, file_bytes))
            .unwrap();
    }
    RoDatabase::publish(&vfs, key, 1).export()
}

/// One sweep point: `r` keyless replicas of the bundle behind a relay,
/// the full client fleet reading the entire tree with verification on.
fn run_replicas(
    r: usize,
    key: &RabinPrivateKey,
    bundle: &[u8],
    files: usize,
    plan: Option<&FaultPlan>,
) -> Row {
    let path = SelfCertifyingPath::for_server(LOCATION, key.public());
    let group = ReplicaGroup::new(path.clone());
    for _ in 0..r {
        group.add_ro(RoReplicaServer::from_bundle(LOCATION, key.public(), bundle).expect("bundle"));
    }

    // Attach the whole fleet first so every read below runs under the
    // steady-state per-replica stream count (CLIENTS / r).
    let mut fleet: Vec<(SimClock, RoMount)> = Vec::new();
    for c in 0..CLIENTS {
        // Under faults the handshake itself can time out; retry a few
        // times (each attempt re-routes), and only then drop the client
        // from the fleet.
        let attempts = if plan.is_some() { 3 } else { 1 };
        let mut connected = false;
        for _ in 0..attempts {
            let clock = SimClock::new();
            let mut wire = Wire::new(clock.clone(), NetParams::switched_100mbit(Transport::Tcp));
            if let Some(p) = plan {
                wire.set_fault_plan(p.clone());
            }
            let routed = group.route_ro().expect("group has live replicas");
            if let Some(load) = routed.load {
                wire.set_server_load(load);
            }
            match RoMount::connect(path.clone(), wire, routed.conn) {
                Ok(mount) => {
                    fleet.push((clock, mount));
                    connected = true;
                    break;
                }
                Err(e) if plan.is_some() => {
                    eprintln!("  client {c} handshake failed under faults: {e:?}");
                }
                Err(e) => panic!("handshake: {e:?}"),
            }
        }
        if !connected {
            eprintln!("  client {c} never connected under faults; running without it");
        }
    }

    let mut total_bytes = 0u64;
    let mut makespan_ns = 0u64;
    let mut round_trips = 0u64;
    let mut failovers = 0u64;
    for (clock, mount) in &fleet {
        for f in 0..files {
            // Under faults a read may fail outright once retries and
            // failover are exhausted; what must never happen — faults
            // or not — is an unverified byte getting through.
            let data = match mount.read_file(&format!("/data/f{f}")) {
                Ok(data) => data,
                Err(e) if plan.is_some() => {
                    eprintln!("  read of f{f} failed under faults: {e:?}");
                    continue;
                }
                Err(e) => panic!("verified read of f{f}: {e:?}"),
            };
            assert_eq!(
                data,
                file_body(f, data.len()),
                "replica served bytes that cannot have passed verification"
            );
            total_bytes += data.len() as u64;
        }
        makespan_ns = makespan_ns.max(clock.now().as_nanos());
        round_trips += mount.round_trips();
        failovers += mount.failovers();
    }
    let secs = makespan_ns as f64 / 1e9;
    Row {
        replicas: r,
        clients: CLIENTS,
        virtual_ns: makespan_ns,
        aggregate_mb_per_s: total_bytes as f64 / 1_000_000.0 / secs,
        per_client_mb_per_s: total_bytes as f64 / CLIENTS as f64 / 1_000_000.0 / secs,
        total_bytes,
        round_trips,
        failovers,
    }
}

fn main() {
    let args = Args::from_env();
    args.enforce_known(&["out", "faults"], &["smoke"]);
    let smoke = std::env::args().any(|a| a == "--smoke");
    let faults = FaultOpt::from_args();
    let out_path = args
        .opt("out")
        .unwrap_or_else(|| "BENCH_fanout.json".into());
    let (files, file_bytes) = if smoke {
        (FILES_SMOKE, FILE_BYTES_SMOKE)
    } else {
        (FILES_FULL, FILE_BYTES_FULL)
    };

    // The publisher's one offline signing pass; replicas get the bundle
    // and never see the key.
    let key = keys::rabin(768, 0xFA17);
    let bundle = published_bundle(&key, files, file_bytes);
    println!(
        "== fanout: {CLIENTS} verifying clients, {files} × {file_bytes} B tree, replica sweep =="
    );
    println!("   bundle: {} bytes, no key material", bundle.len());

    let mut rows = Vec::new();
    for r in REPLICAS {
        let row = run_replicas(r, &key, &bundle, files, faults.plan());
        println!(
            "  replicas {:>2}  {:>12} ns makespan   {:>8.2} MB/s aggregate   {:>6.2} MB/s per client   {} RPCs   {} failovers",
            row.replicas,
            row.virtual_ns,
            row.aggregate_mb_per_s,
            row.per_client_mb_per_s,
            row.round_trips,
            row.failovers,
        );
        rows.push(row);
    }
    let workload = Obj::new()
        .str("kind", "verified_tree_read")
        .num("clients", CLIENTS)
        .num("files", files)
        .num("file_bytes", file_bytes);
    let unit = Obj::new()
        .str("aggregate_mb_per_s", "MB/s of virtual time, fleet makespan")
        .str("virtual_ns", "nanoseconds");
    let header = Obj::new()
        .str("schema", "sfs-bench/fanout/v1")
        .str("mode", if smoke { "smoke" } else { "full" })
        .obj("workload", workload)
        .obj("unit", unit);
    let json_rows: Vec<Obj> = rows
        .iter()
        .map(|r| {
            Obj::new()
                .num("replicas", r.replicas)
                .num("clients", r.clients)
                .num("virtual_ns", r.virtual_ns)
                .float("aggregate_mb_per_s", r.aggregate_mb_per_s, 3)
                .float("per_client_mb_per_s", r.per_client_mb_per_s, 3)
                .num("total_bytes", r.total_bytes)
                .num("round_trips", r.round_trips)
                .num("failovers", r.failovers)
        })
        .collect();
    write_artifact(&out_path, &header, "rows", &json_rows);

    // Under --faults the perf envelope does not apply — drops break
    // monotone scaling and legitimately force failovers — but the fault
    // envelope must hold: the plan actually injected what it promised.
    let final_ns = rows.iter().map(|r| r.virtual_ns).max().unwrap_or(0);
    faults.finish();
    faults.assert_envelope(final_ns);
    if faults.enabled() {
        println!("perf envelope skipped under --faults");
        return;
    }

    // Regression envelope. Virtual time is deterministic, so these are
    // exact checks, not statistical ones.
    let mut failed = false;
    for pair in rows.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if b.aggregate_mb_per_s < a.aggregate_mb_per_s {
            eprintln!(
                "FAIL: aggregate throughput not monotone: {} replicas = {:.3} MB/s < {} replicas = {:.3} MB/s",
                b.replicas, b.aggregate_mb_per_s, a.replicas, a.aggregate_mb_per_s
            );
            failed = true;
        }
    }
    let r1 = rows
        .iter()
        .find(|r| r.replicas == 1)
        .expect("1-replica row");
    let r4 = rows
        .iter()
        .find(|r| r.replicas == 4)
        .expect("4-replica row");
    let speedup = r4.aggregate_mb_per_s / r1.aggregate_mb_per_s;
    println!("4 replicas vs 1: {speedup:.2}x aggregate");
    if speedup < REQUIRED_SPEEDUP {
        eprintln!(
            "FAIL: 4 read-only replicas must deliver at least {REQUIRED_SPEEDUP}x the \
             single-replica aggregate, got {speedup:.2}x"
        );
        failed = true;
    }
    if rows.iter().any(|r| r.failovers != 0) {
        eprintln!("FAIL: a healthy fleet must not fail over");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
