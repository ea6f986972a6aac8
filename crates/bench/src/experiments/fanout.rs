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
//! serving a single stream. Reply serialization on the replica's one
//! downlink is all the multiplier scales: it is the only resource of a
//! replica's that the sweep's makespans were measured to depend on.
//! Aggregate throughput is total bytes delivered divided by the
//! *slowest* client's virtual time — the makespan of the fleet.
//!
//! Envelope: aggregate MB/s is monotone non-decreasing in replica
//! count, 4 replicas beat 1 by at least 2×, and a healthy fleet never
//! fails over. `--smoke` publishes a smaller tree. Under `--faults`
//! drops legitimately break monotone scaling and force failovers, so
//! the envelope is a performance one; what must never happen, faults or
//! not, is an unverified byte getting through.

use std::sync::Arc;

use sfs::client::Router;
use sfs::roclient::RoMount;
use sfs::server::RoReplicaServer;
use sfs_crypto::rabin::RabinPrivateKey;
use sfs_proto::pathname::SelfCertifyingPath;
use sfs_proto::readonly::RoDatabase;
use sfs_relay::ReplicaGroup;
use sfs_sim::{FaultPlan, NetParams, SimClock, Transport, Wire};
use sfs_telemetry::sync::Mutex;
use sfs_vfs::{Credentials, Vfs};

use crate::driver::{Ctx, Report};
use crate::keys;
use crate::report::{monotone, Check, Obj};

const LOCATION: &str = "ro.lcs.mit.edu";

/// Verifying clients aimed at the group in every configuration.
const CLIENTS: usize = 8;

/// Replica counts swept; 1 doubles as the no-fan-out baseline row.
const REPLICAS: [usize; 4] = [1, 2, 4, 8];

/// Published tree (files, bytes each): full mode 48 × 32 KiB, smoke
/// 12 × 8 KiB.
const TREE_FULL: (usize, usize) = (48, 32 * 1024);
const TREE_SMOKE: (usize, usize) = (12, 8 * 1024);

/// 4 replicas must beat 1 replica by at least this factor.
const REQUIRED_SPEEDUP: f64 = 2.0;

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
) -> Obj {
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
                wire.set_interceptor(Arc::new(Mutex::new(p.clone())));
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
    Obj::new()
        .num("replicas", r)
        .num("clients", CLIENTS)
        .num("virtual_ns", makespan_ns)
        .float(
            "aggregate_mb_per_s",
            total_bytes as f64 / 1_000_000.0 / secs,
            3,
        )
        .float(
            "per_client_mb_per_s",
            total_bytes as f64 / CLIENTS as f64 / 1_000_000.0 / secs,
            3,
        )
        .num("total_bytes", total_bytes)
        .num("round_trips", round_trips)
        .num("failovers", failovers)
}

pub(crate) fn run(ctx: &Ctx) -> Result<Report, String> {
    let (files, file_bytes) = if ctx.smoke { TREE_SMOKE } else { TREE_FULL };
    // The publisher's one offline signing pass; replicas get the bundle
    // and never see the key.
    let key = keys::rabin(768, 0xFA17);
    let bundle = published_bundle(&key, files, file_bytes);
    let rows = REPLICAS.map(|r| run_replicas(r, &key, &bundle, files, ctx.faults.plan()));

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
        .str("mode", ctx.mode())
        .obj("workload", workload)
        .obj("unit", unit);

    let aggregate = |row: &Obj| row.number("aggregate_mb_per_s");
    let all: Vec<&Obj> = rows.iter().collect();
    let mut checks = monotone(&all, "replicas", "aggregate_mb_per_s", 0.0);
    // REPLICAS[0] = 1 and REPLICAS[2] = 4.
    let speedup = aggregate(&rows[2]) / aggregate(&rows[0]);
    checks.push(Check::perf(
        format!("4 read-only replicas deliver at least {REQUIRED_SPEEDUP}x the single-replica aggregate"),
        speedup >= REQUIRED_SPEEDUP,
        format!("{speedup:.2}x"),
    ));
    let failovers: f64 = rows.iter().map(|r| r.number("failovers")).sum();
    checks.push(Check::perf(
        "a healthy fleet does not fail over",
        failovers == 0.0,
        format!("{failovers} failovers"),
    ));
    let makespans = rows.iter().map(|r| r.number("virtual_ns") as u64);
    Ok(Report {
        header,
        rows_key: "rows",
        final_ns: makespans.max().unwrap_or(0),
        rows: rows.into(),
        checks,
        ..Report::default()
    })
}
