//! Chaos soak: the full SFS stack (key negotiation, secure channel, user
//! authentication, NFS relay, disk) driven over a seeded [`FaultPlan`]
//! injecting every fault kind the simulator knows — drops, duplicates,
//! reorders, corruption, delays, partitions, server crash-restarts, and
//! transient disk sync-write failures.
//!
//! Three invariants, per ISSUE and paper §2.1 ("an attacker can delay,
//! duplicate, modify, or drop" packets):
//!
//! 1. every seeded run *completes* — the client's retransmission,
//!    backoff, and reconnect/rekey machinery rides out the faults;
//! 2. no corrupted payload is ever accepted past the MAC — every byte
//!    read back equals every byte written;
//! 3. rerunning a seed reproduces the run bit-for-bit: identical
//!    virtual-time totals and an identical fault-event log.

use sfs::client::DEFAULT_PIPELINE_WINDOW;
use sfs_bench::world::{World, WorldSpec, UID as ALICE_UID};
use sfs_sim::{DiskParams, FaultEvent, FaultKind, FaultPlan};
use std::collections::BTreeSet;

/// Builds the e2e world with `plan` wired through every layer: the disk
/// under the Vfs, the server's crash schedule, and every wire the
/// network dials.
fn chaos_world(plan: &FaultPlan) -> World {
    World::build(&WorldSpec {
        client_entropy: "chaos-client",
        disk: Some(DiskParams::ibm_18es()),
        ..WorldSpec::test().faulted(Some(plan))
    })
}

/// Everything one seeded run produced, for reproducibility assertions.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    total_ns: u64,
    events: Vec<FaultEvent>,
    reconnects: u64,
}

/// Runs the paper workload (create and write a handful of files in
/// alice's home, read every byte back, read the world-readable motd)
/// under `spec` at an explicit pipeline window: 1 forces the strict
/// blocking protocol, deeper windows stream the same workload through
/// the in-flight machinery. `mid_advance_ns` optionally jumps the
/// virtual clock mid-workload so scheduled instants (partitions,
/// crashes) land between RPCs. Panics if the workload fails or any
/// payload comes back altered.
fn soak_with_window(spec: &str, mid_advance_ns: u64, window: usize) -> Outcome {
    soak_with_window_cores(spec, mid_advance_ns, window, 0)
}

/// [`soak_with_window`] with the multi-core shard engine installed on
/// the server (`cores == 0` leaves the legacy single-core path). With an
/// engine present the streamed workload's seal/open work really is
/// scheduled across core timelines, which the soak asserts by checking
/// the engine accumulated busy time.
fn soak_with_window_cores(spec: &str, mid_advance_ns: u64, window: usize, cores: usize) -> Outcome {
    let plan = FaultPlan::from_spec(spec).unwrap();
    let w = chaos_world(&plan);
    if cores > 0 {
        w.servers[0].set_cores(cores);
    }
    w.clients[0].set_pipeline_window(window);
    let home = format!("{}/home/alice", w.path().full_path());
    let files: Vec<(String, Vec<u8>)> = (0..5)
        .map(|i| {
            (
                format!("{home}/chaos-{i}"),
                format!("chaos file {i}: every byte must survive the MAC").into_bytes(),
            )
        })
        .collect();
    for (i, (path, data)) in files.iter().enumerate() {
        w.clients[0].write_file(ALICE_UID, path, data).unwrap();
        if i == 1 && mid_advance_ns > 0 {
            w.clock.advance_ns(mid_advance_ns);
        }
    }
    for (path, data) in &files {
        assert_eq!(
            &w.clients[0].read_file(ALICE_UID, path).unwrap(),
            data,
            "a corrupted payload leaked past the MAC in {spec:?}"
        );
    }
    let motd = format!("{}/public/motd", w.path().full_path());
    assert_eq!(
        w.clients[0].read_file(ALICE_UID, &motd).unwrap(),
        b"welcome to sfs.lcs.mit.edu"
    );
    let (mount, _, _) = w.clients[0].resolve(ALICE_UID, &motd).unwrap();
    if cores > 0 {
        // The five chaos files are single-WRITE payloads, which the
        // windowed client degenerates to blocking calls — so stream one
        // multi-chunk file too, forcing real windowed batches through
        // the engine, and pin that the engine actually scheduled them.
        let big = format!("{}/home/alice/chaos-stream", w.path().full_path());
        let stream: Vec<u8> = (0..65_536u32).map(|i| (i % 253) as u8).collect();
        w.clients[0].write_file(ALICE_UID, &big, &stream).unwrap();
        assert_eq!(
            w.clients[0].read_file(ALICE_UID, &big).unwrap(),
            stream,
            "streamed payload corrupted under {spec:?} at cores={cores}"
        );
        let engine = w.servers[0].shard_engine().expect("engine installed");
        assert!(
            engine.frames_scheduled() > 0,
            "the shard engine never scheduled any work in {spec:?}"
        );
    }
    Outcome {
        total_ns: w.clock.now().as_nanos(),
        events: plan.events(),
        reconnects: mount.reconnects(),
    }
}

/// Runs `spec` twice at the default pipeline window and asserts the two
/// runs are indistinguishable: same virtual-time total, same fault-event
/// log (instants, kinds, and sites), same reconnect count.
fn soak_twice(spec: &str, mid_advance_ns: u64) -> Outcome {
    soak_twice_with_window(spec, mid_advance_ns, DEFAULT_PIPELINE_WINDOW)
}

/// [`soak_twice`] at an explicit pipeline window.
fn soak_twice_with_window(spec: &str, mid_advance_ns: u64, window: usize) -> Outcome {
    let a = soak_with_window(spec, mid_advance_ns, window);
    let b = soak_with_window(spec, mid_advance_ns, window);
    assert_eq!(
        a.total_ns, b.total_ns,
        "virtual-time total diverged across reruns of {spec:?}"
    );
    assert_eq!(
        a.events, b.events,
        "fault schedule diverged across reruns of {spec:?}"
    );
    assert_eq!(a.reconnects, b.reconnects);
    a
}

fn kinds(events: &[FaultEvent]) -> BTreeSet<&'static str> {
    events.iter().map(|e| e.kind.label()).collect()
}

// ---- one seeded plan per fault kind -------------------------------------

#[test]
fn survives_packet_drops() {
    let out = soak_twice("seed=101,drop=50", 0);
    assert!(
        kinds(&out.events).contains(FaultKind::Drop.label()),
        "{out:?}"
    );
}

#[test]
fn survives_packet_duplication() {
    let out = soak_twice("seed=102,dup=40", 0);
    assert!(
        kinds(&out.events).contains(FaultKind::Duplicate.label()),
        "{out:?}"
    );
}

#[test]
fn survives_packet_reordering() {
    let out = soak_twice("seed=103,reorder=40", 0);
    assert!(
        kinds(&out.events).contains(FaultKind::Reorder.label()),
        "{out:?}"
    );
}

#[test]
fn survives_packet_corruption() {
    // Every flipped bit must be caught by the channel MAC and retried;
    // `soak` asserts byte-for-byte read-back.
    let out = soak_twice("seed=104,corrupt=25", 0);
    assert!(
        kinds(&out.events).contains(FaultKind::Corrupt.label()),
        "{out:?}"
    );
}

#[test]
fn survives_packet_delays() {
    let out = soak_twice("seed=105,delay=200,delay_ns=5ms", 0);
    assert!(
        kinds(&out.events).contains(FaultKind::Delay.label()),
        "{out:?}"
    );
}

#[test]
fn survives_network_partition() {
    // The partition opens 1ms in (mid-workload, thanks to the clock jump)
    // and every packet inside it is dropped; each retransmission timeout
    // advances the clock one second, so the client waits it out and the
    // workload still completes.
    let out = soak_twice("seed=106,partition=2ms+3s", 2_000_000);
    assert!(
        kinds(&out.events).contains(FaultKind::Partition.label()),
        "{out:?}"
    );
}

#[test]
fn survives_scheduled_server_crash() {
    // The crash instant (1s, safely after the mount handshake) passes
    // when the mid-workload clock jump crosses it; the next sealed call
    // hits "connection reset: server restarted", and the client
    // reconnects and renegotiates session keys transparently.
    let out = soak_twice("seed=107,crash=1s", 2_000_000_000);
    assert!(
        kinds(&out.events).contains(FaultKind::ServerCrash.label()),
        "{out:?}"
    );
    assert!(
        out.reconnects >= 1,
        "a crash mid-workload must force at least one rekey: {out:?}"
    );
}

#[test]
fn survives_disk_sync_write_failures() {
    let out = soak_twice("seed=108,syncfail=300", 0);
    assert!(
        kinds(&out.events).contains(FaultKind::DiskSyncFail.label()),
        "{out:?}"
    );
}

// ---- mixed-fault soak ---------------------------------------------------

/// Twelve more seeded plans (20 total across the suite) mixing fault
/// kinds, including hostile combinations: corruption under drops,
/// partitions over a lossy link, crashes with disk failures.
const MIXED_SPECS: &[(&str, u64)] = &[
    ("seed=1,drop=20,dup=10,reorder=10", 0),
    ("seed=2,drop=15,corrupt=15", 0),
    ("seed=3,delay=100,delay_ns=2ms,drop=10", 0),
    ("seed=4,dup=25,corrupt=10", 0),
    ("seed=5,reorder=30,delay=50,delay_ns=1ms", 0),
    ("seed=6,drop=10,syncfail=150", 0),
    ("seed=7,partition=2ms+2s,drop=10", 2_000_000),
    ("seed=8,crash=1s,corrupt=10", 2_000_000_000),
    (
        "seed=9,drop=25,dup=15,reorder=10,corrupt=10,delay=50,delay_ns=1ms",
        0,
    ),
    ("seed=10,crash=1s,partition=1500ms+2s,drop=5", 2_000_000_000),
    ("seed=11,syncfail=200,corrupt=15,dup=10", 0),
    ("seed=12,drop=30,delay=100,delay_ns=3ms,syncfail=100", 0),
];

#[test]
fn mixed_chaos_soak_completes_and_reproduces() {
    let mut seen: BTreeSet<&'static str> = BTreeSet::new();
    let mut injected = 0usize;
    for (spec, jump) in MIXED_SPECS {
        let out = soak_twice(spec, *jump);
        seen.extend(kinds(&out.events));
        injected += out.events.len();
    }
    assert!(injected > 0, "the soak must actually inject faults");
    // Across the battery, every fault kind the simulator knows shows up.
    for kind in [
        FaultKind::Drop,
        FaultKind::Duplicate,
        FaultKind::Reorder,
        FaultKind::Corrupt,
        FaultKind::Delay,
        FaultKind::Partition,
        FaultKind::ServerCrash,
        FaultKind::DiskSyncFail,
    ] {
        assert!(
            seen.contains(kind.label()),
            "no mixed plan injected {:?}; saw {seen:?}",
            kind.label()
        );
    }
}

#[test]
fn mixed_storm_survives_multicore_dispatch() {
    // The mixed-fault battery reruns with the shard engine installed at
    // cores ∈ {1, 4}: streamed payloads must still survive the storm
    // byte-for-byte (asserted inside the soak), the engine must actually
    // schedule work, and every configuration must reproduce exactly
    // across reruns.
    for cores in [1usize, 4] {
        for (spec, jump) in &MIXED_SPECS[..6] {
            let a = soak_with_window_cores(spec, *jump, DEFAULT_PIPELINE_WINDOW, cores);
            let b = soak_with_window_cores(spec, *jump, DEFAULT_PIPELINE_WINDOW, cores);
            assert_eq!(
                a, b,
                "multicore soak diverged across reruns of {spec:?} at cores={cores}"
            );
        }
    }
}

// ---- manual crash: the kill-server regression ---------------------------

#[test]
fn manual_server_kill_mid_workload_recovers_via_rekey() {
    // No network faults at all: the only disturbance is the server being
    // killed by hand between two writes. The client must back off,
    // redial, renegotiate session keys, and finish the workload — and
    // its attribute/access caches must not serve pre-crash entries as if
    // nothing happened.
    let plan = FaultPlan::from_spec("seed=200").unwrap();
    let w = chaos_world(&plan);
    let file = format!("{}/home/alice/journal", w.path().full_path());
    w.clients[0]
        .write_file(ALICE_UID, &file, b"before crash")
        .unwrap();
    let (mount, _, _) = w.clients[0].resolve(ALICE_UID, &file).unwrap();
    let session_before = mount.session_id();
    assert_eq!(mount.reconnects(), 0);
    // Warm the attribute cache on a file the post-crash workload will
    // not touch: repeated getattrs stay off the wire.
    let motd = format!("{}/public/motd", w.path().full_path());
    let (_, motd_fh, _) = w.clients[0].resolve(ALICE_UID, &motd).unwrap();
    w.clients[0].getattr(&mount, ALICE_UID, &motd_fh).unwrap();
    let rpcs = w.clients[0].network_rpcs();
    w.clients[0].getattr(&mount, ALICE_UID, &motd_fh).unwrap();
    assert_eq!(
        w.clients[0].network_rpcs(),
        rpcs,
        "getattr should be cached"
    );

    w.servers[0].crash_restart();

    w.clients[0]
        .write_file(ALICE_UID, &file, b"after crash, new session")
        .unwrap();
    assert_eq!(
        w.clients[0].read_file(ALICE_UID, &file).unwrap(),
        b"after crash, new session"
    );
    assert!(mount.reconnects() >= 1, "the kill must force a reconnect");
    assert_ne!(
        mount.session_id(),
        session_before,
        "rekey must produce a fresh session"
    );
    // The reconnect dropped the pre-crash attribute/access caches: the
    // getattr that was a cache hit before now has to go back to the wire.
    let rpcs = w.clients[0].network_rpcs();
    w.clients[0].getattr(&mount, ALICE_UID, &motd_fh).unwrap();
    assert!(
        w.clients[0].network_rpcs() > rpcs,
        "attr cache must be invalidated by the reconnect"
    );
    // The crash is visible in the plan's event log too.
    assert!(kinds(&plan.events()).contains(FaultKind::ServerCrash.label()));
}

#[test]
fn every_pipeline_window_survives_the_mixed_storm() {
    // The full soak workload (windowed write-behind streams, read-ahead
    // read-back, cross-mount motd read) swept across pipeline depths
    // under a storm mixing every wire fault kind. Each depth must
    // complete byte-for-byte and reproduce bit-for-bit; deeper windows
    // keep more sealed frames exposed to the storm at once, so this is
    // the soak's worst case for the in-flight machinery.
    let spec = "seed=120,drop=15,dup=15,reorder=20,corrupt=10,delay=80,delay_ns=2ms";
    for window in [1usize, 2, DEFAULT_PIPELINE_WINDOW, 16] {
        let out = soak_twice_with_window(spec, 0, window);
        assert!(
            !out.events.is_empty(),
            "window {window}: the storm injected nothing"
        );
    }
}

#[test]
fn blocking_and_windowed_soaks_agree_on_payloads() {
    // Same clean-wire workload at window 1 and window 8: the payload
    // assertions inside `soak` already prove both protocols deliver
    // identical bytes; the windowed run must also never be slower than
    // the blocking one in virtual time.
    let blocking = soak_with_window("seed=121", 0, 1);
    let windowed = soak_with_window("seed=121", 0, DEFAULT_PIPELINE_WINDOW);
    assert!(
        windowed.total_ns <= blocking.total_ns,
        "pipelining made the clean-wire soak slower: {} > {}",
        windowed.total_ns,
        blocking.total_ns
    );
}

#[test]
fn backoff_cap_holds_when_partition_outlives_the_retransmit_schedule() {
    // A partition long enough to consume the entire per-RPC retransmit
    // schedule and push the reconnect loop to its backoff ceiling. Three
    // things must hold while the client waits it out: every backoff
    // interval respects the configured cap (within the ±25% jitter
    // spread), the mount's auth seqnos only move forward across the
    // forced reconnects, and the write that straddled the partition
    // executes exactly once — the file ends up byte-identical to the
    // single acked write, reissues notwithstanding.
    use sfs::client::RetryPolicy;
    use sfs_telemetry::Telemetry;

    const CAP_NS: u64 = 2_000_000_000;

    fn backoff_intervals(trace: &str) -> Vec<u64> {
        let mut out = Vec::new();
        let mut rest = trace;
        while let Some(i) = rest.find("\"name\":\"backoff\"") {
            rest = &rest[i..];
            let key = "\"args\":{\"ns\":\"";
            let a = rest.find(key).expect("backoff instant carries its ns") + key.len();
            let tail = &rest[a..];
            let end = tail.find('"').unwrap();
            out.push(tail[..end].parse().unwrap());
            rest = tail;
        }
        out
    }

    let run = || {
        let plan = FaultPlan::from_spec("seed=170,partition=1s+20s").unwrap();
        let w = chaos_world(&plan);
        let tel = Telemetry::recording(w.clock.clone());
        w.clients[0].set_telemetry(&tel);
        w.clients[0].set_retry_policy(RetryPolicy {
            max_retransmits: 3,
            max_reconnects: 16,
            base_backoff_ns: 100_000_000,
            max_backoff_ns: CAP_NS,
        });
        let file = format!("{}/home/alice/longhaul", w.path().full_path());
        w.clients[0]
            .write_file(ALICE_UID, &file, b"before")
            .unwrap();
        let (mount, _, _) = w.clients[0].resolve(ALICE_UID, &file).unwrap();
        let seq_before = mount.seq_watermark();
        assert!(
            w.clock.now().as_nanos() < 1_000_000_000,
            "setup overran the scheduled partition start"
        );
        // Step into the partition: this write's retransmissions all die,
        // the schedule escalates to reconnect, and the capped reconnect
        // backoff rides out the remaining ~20 seconds.
        w.clock.advance_ns(1_000_000_000);
        w.clients[0]
            .write_file(ALICE_UID, &file, b"across")
            .unwrap();
        assert!(
            w.clock.now().as_nanos() > 21_000_000_000,
            "the workload cannot have finished inside the partition"
        );
        assert!(
            mount.reconnects() >= 1,
            "outliving the retransmit schedule must escalate to reconnect"
        );
        let seq_after = mount.seq_watermark();
        assert!(
            seq_after > seq_before,
            "auth seqnos must move strictly forward across reconnects"
        );
        assert_eq!(
            w.clients[0].read_file(ALICE_UID, &file).unwrap(),
            b"across",
            "the straddling write must land exactly once, byte-for-byte"
        );

        let intervals = backoff_intervals(&tel.chrome_trace());
        assert!(
            intervals.len() >= 4,
            "waiting out a 20s partition must back off repeatedly: {intervals:?}"
        );
        let spread = CAP_NS / 4;
        assert!(
            intervals.iter().all(|&ns| ns <= CAP_NS + spread),
            "a backoff exceeded the cap plus jitter: {intervals:?}"
        );
        assert!(
            intervals.iter().any(|&ns| ns >= CAP_NS - spread),
            "the schedule never reached its ceiling: {intervals:?}"
        );
        (
            w.clock.now().as_nanos(),
            plan.events(),
            mount.reconnects(),
            seq_after,
            intervals,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "the capped-backoff run must reproduce bit-for-bit");
}
