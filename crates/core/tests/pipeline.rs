//! Pipelined-RPC property tests: a window of in-flight calls must
//! execute **exactly once each, in order**, no matter how the wire
//! reorders, duplicates, delays, or drops the frames.
//!
//! The oracle is a batch of `Mkdir` calls with distinct names issued
//! through [`SfsClient::call_nfs_window`]:
//!
//! * at-most-once: a retransmitted frame that re-executed (instead of
//!   being answered from the server's reply cache) would return
//!   `Status::Exist` for a directory the same batch already created —
//!   so an all-success batch proves nothing ran twice;
//! * at-least-once: re-issuing the identical batch afterwards must come
//!   back all-`Exist`, proving every call of the first batch really
//!   executed;
//! * in-order: the server's sequencer admits frames strictly by channel
//!   sequence number, so replies decode against their own requests or
//!   not at all — the xid→slot matching is asserted by construction
//!   (every slot filled exactly once).
//!
//! Fault kinds are restricted to drop/dup/reorder/delay: those are the
//! ones the windowed retransmission machinery must absorb *without*
//! tearing down the session (corruption and crashes legitimately force
//! a reconnect-and-reissue, which is chaos.rs territory). Every spec is
//! run twice and must reproduce byte for byte.

use std::sync::Arc;

use sfs::client::{Mount, RetryPolicy, DEFAULT_PIPELINE_WINDOW};
use sfs_bench::world::{World, WorldSpec, UID as ALICE_UID};
use sfs_nfs3::{Nfs3Reply, Nfs3Request, Sattr3, Status};
use sfs_sim::{Direction, FaultEvent, FaultPlan, Interceptor, Verdict};
use sfs_telemetry::sync::Mutex;
use sfs_telemetry::Telemetry;

/// The batch is wider than the window so the engine must run several
/// exchange rounds and chunk boundaries are exercised.
const BATCH: usize = 12;

/// Full client/server stack with `plan` wired through the network and
/// the server (these plans carry wire faults only).
fn world(plan: &FaultPlan) -> World {
    let w = World::build(&WorldSpec {
        server_entropy: "pipeline-server",
        client_entropy: "pipeline-client",
        ..WorldSpec::test().faulted(Some(plan))
    });
    // These properties assert that *retransmission alone* rides out the
    // wire faults (reconnects == 0 below), so give it enough budget that
    // even a 30% drop rate can't exhaust it before the seeded plan
    // relents.
    w.clients[0].set_retry_policy(RetryPolicy {
        max_retransmits: 32,
        ..RetryPolicy::default()
    });
    w
}

fn home(w: &World) -> String {
    format!("{}/home/alice", w.path().full_path())
}

fn mkdir_batch(dir_fh: &sfs_nfs3::FileHandle, tag: &str) -> Vec<Nfs3Request> {
    (0..BATCH)
        .map(|i| Nfs3Request::Mkdir {
            dir: dir_fh.clone(),
            name: format!("{tag}-{i:02}"),
            attrs: Sattr3::default(),
        })
        .collect()
}

/// Everything one seeded run produced, for reproducibility comparison.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    total_ns: u64,
    events: Vec<FaultEvent>,
    replies: Vec<String>,
    /// Reconnects forced after the mount was established.
    mid_batch_reconnects: u64,
}

/// Runs the exactly-once oracle under `spec` at `window` and returns
/// the run's fingerprint. Panics on any violation.
fn exactly_once(spec: &str, window: usize) -> Outcome {
    let plan = FaultPlan::from_spec(spec).unwrap();
    let w = world(&plan);
    w.clients[0].set_pipeline_window(window);
    let (mount, dir_fh, _) = w.clients[0].resolve(ALICE_UID, &home(&w)).unwrap();
    // Mount establishment (key negotiation + SRP auth) may legitimately
    // need a reconnect under heavy drops — the handshake has no reply
    // cache to fall back on. The exactly-once property targets the
    // windowed data path, so score reconnects from here on.
    let reconnects_at_mount = mount.reconnects();

    // First batch: all 12 must succeed. An Exist here means a
    // retransmitted frame re-executed instead of hitting the reply
    // cache — the at-most-once property is broken.
    let reqs = mkdir_batch(&dir_fh, "once");
    let replies = w.clients[0]
        .call_nfs_window(&mount, ALICE_UID, &reqs)
        .unwrap();
    assert_eq!(replies.len(), BATCH);
    let mid_batch_reconnects = mount.reconnects() - reconnects_at_mount;
    for (i, reply) in replies.iter().enumerate() {
        // The unconditional at-most-once property: as long as the
        // session survived, retransmitted frames must hit the reply
        // cache, never re-execute. Only a reconnect-and-reissue (a
        // stray frame killed the session mid-batch) may legitimately
        // surface Exist for its own already-executed calls.
        let ok = matches!(reply, Nfs3Reply::Mkdir { .. })
            || (mid_batch_reconnects > 0
                && matches!(
                    reply,
                    Nfs3Reply::Error {
                        status: Status::Exist,
                        ..
                    }
                ));
        assert!(
            ok,
            "call {i} of the windowed batch did not execute exactly once \
             under {spec:?} (window {window}): {reply:?}"
        );
    }

    // Second, identical batch: every call must now fail with Exist,
    // proving the first batch's calls all actually executed
    // (at-least-once), and proving these twelve executed too.
    let replay = w.clients[0]
        .call_nfs_window(&mount, ALICE_UID, &reqs)
        .unwrap();
    for (i, reply) in replay.iter().enumerate() {
        assert!(
            matches!(
                reply,
                Nfs3Reply::Error {
                    status: Status::Exist,
                    ..
                }
            ),
            "re-issued call {i} should have found its directory already \
             present under {spec:?} (window {window}): {reply:?}"
        );
    }

    Outcome {
        total_ns: w.clock.now().as_nanos(),
        events: plan.events(),
        replies: replies.iter().map(|r| format!("{r:?}")).collect(),
        mid_batch_reconnects,
    }
}

/// Seeded wire-fault plans: drop/dup/reorder/delay alone and in
/// combination, at escalating intensities.
const WIRE_SPECS: &[&str] = &[
    "seed=501,drop=30",
    "seed=502,dup=35",
    "seed=503,reorder=45",
    "seed=504,delay=150,delay_ns=3ms",
    "seed=505,drop=20,dup=20",
    "seed=506,reorder=30,delay=100,delay_ns=1ms",
    "seed=507,drop=15,dup=15,reorder=25,delay=80,delay_ns=2ms",
];

#[test]
fn windowed_batches_execute_exactly_once_under_wire_faults() {
    for spec in WIRE_SPECS {
        let a = exactly_once(spec, DEFAULT_PIPELINE_WINDOW);
        let b = exactly_once(spec, DEFAULT_PIPELINE_WINDOW);
        assert_eq!(a, b, "windowed run diverged across reruns of {spec:?}");
        assert!(
            !a.events.is_empty(),
            "{spec:?} injected nothing — the property was vacuous"
        );
        // On these seeded plans the window machinery rides out every
        // fault by retransmission alone: the session never dies, so
        // every first-batch reply was a success (asserted above).
        assert_eq!(
            a.mid_batch_reconnects, 0,
            "wire faults in {spec:?} must not force the windowed data \
             path to reconnect"
        );
    }
}

#[test]
fn full_reply_cache_evicts_oldest_first_without_breaking_exactly_once() {
    // The server keeps 256 sealed replies for retransmission. Drive well
    // over that many sequenced calls through one session on a clean wire
    // and verify (a) the cache actually evicted (counter + size gauge),
    // and (b) exactly-once semantics survived: every distinct Mkdir
    // succeeded once, and a full re-issue comes back all-Exist. Eviction
    // is oldest-first by channel sequence number, so the recent replies a
    // client could still legitimately retransmit for stay answerable.
    const CALLS: usize = 280; // > REPLY_CACHE_CAPACITY (256)
    let plan = FaultPlan::from_spec("seed=0").unwrap();
    let w = world(&plan);
    let tel = sfs_telemetry::Telemetry::counters();
    w.servers[0].set_telemetry(&tel);
    w.clients[0].set_pipeline_window(8);
    let (mount, dir_fh, _) = w.clients[0].resolve(ALICE_UID, &home(&w)).unwrap();
    let reqs: Vec<Nfs3Request> = (0..CALLS)
        .map(|i| Nfs3Request::Mkdir {
            dir: dir_fh.clone(),
            name: format!("evict-{i:03}"),
            attrs: Sattr3::default(),
        })
        .collect();
    let replies = w.clients[0]
        .call_nfs_window(&mount, ALICE_UID, &reqs)
        .unwrap();
    assert_eq!(replies.len(), CALLS);
    for (i, reply) in replies.iter().enumerate() {
        assert!(
            matches!(reply, Nfs3Reply::Mkdir { .. }),
            "call {i} did not execute exactly once: {reply:?}"
        );
    }
    // The first batch alone overflows the cache.
    let evicted_after_first = tel.counter("server", "replycache.evictions");
    assert!(
        evicted_after_first >= (CALLS - 256) as u64,
        "expected at least {} evictions, saw {evicted_after_first}",
        CALLS - 256
    );
    assert_eq!(tel.gauge("server", "replycache.size"), 256);

    // Re-issue the identical batch: all-Exist proves every original call
    // executed, and the session survived the evictions — the cache only
    // dropped replies too old for any in-window retransmission to want.
    let replay = w.clients[0]
        .call_nfs_window(&mount, ALICE_UID, &reqs)
        .unwrap();
    for (i, reply) in replay.iter().enumerate() {
        assert!(
            matches!(
                reply,
                Nfs3Reply::Error {
                    status: Status::Exist,
                    ..
                }
            ),
            "re-issued call {i} should have found its directory: {reply:?}"
        );
    }
    assert_eq!(mount.reconnects(), 0, "eviction must not kill the session");
    assert_eq!(tel.gauge("server", "replycache.size"), 256);
    assert!(tel.counter("server", "replycache.evictions") > evicted_after_first);
}

#[test]
fn every_window_depth_preserves_exactly_once() {
    // The nastiest combined spec, swept across window depths including
    // the blocking degenerate case.
    let spec = "seed=507,drop=15,dup=15,reorder=25,delay=80,delay_ns=2ms";
    for window in [1usize, 2, 3, 8, 16] {
        exactly_once(spec, window);
    }
}

#[test]
fn window_one_matches_blocking_replies() {
    // Window 1 through the windowed entry point and the plain blocking
    // path must produce identical reply streams on a clean wire.
    let plan = FaultPlan::from_spec("seed=0").unwrap();

    let w = world(&plan);
    w.clients[0].set_pipeline_window(1);
    let (mount, dir_fh, _) = w.clients[0].resolve(ALICE_UID, &home(&w)).unwrap();
    let reqs = mkdir_batch(&dir_fh, "parity");
    let windowed = w.clients[0]
        .call_nfs_window(&mount, ALICE_UID, &reqs)
        .unwrap();

    let w2 = world(&plan);
    let (mount2, dir_fh2, _) = w2.clients[0].resolve(ALICE_UID, &home(&w2)).unwrap();
    let reqs2 = mkdir_batch(&dir_fh2, "parity");
    let blocking: Vec<Nfs3Reply> = reqs2
        .iter()
        .map(|r| w2.clients[0].call_nfs(&mount2, ALICE_UID, r).unwrap())
        .collect();

    let fp = |rs: &[Nfs3Reply]| rs.iter().map(|r| format!("{r:?}")).collect::<Vec<_>>();
    assert_eq!(fp(&windowed), fp(&blocking));
}

/// An adversary with one shot: once armed, hands the next reply to
/// `strike` and lets everything else through.
struct OneReply {
    armed: bool,
    strike: fn(&[u8]) -> Verdict,
}

impl Interceptor for OneReply {
    fn intercept(&mut self, dir: Direction, bytes: &[u8]) -> Verdict {
        if dir == Direction::Reply && std::mem::take(&mut self.armed) {
            (self.strike)(bytes)
        } else {
            Verdict::Deliver
        }
    }
}

/// One MKDIR on the blocking loop (window 1) whose first reply meets
/// `strike`. Returns the call's reply, the mount, and the counters of
/// both ends, with `nfs3.calls` taken around the MKDIR alone.
fn blocking_mkdir_whose_first_reply_meets(
    strike: fn(&[u8]) -> Verdict,
) -> (Nfs3Reply, Arc<Mount>, Telemetry, u64) {
    let w = world(&FaultPlan::from_spec("seed=0").unwrap());
    let tel = Telemetry::counters();
    w.servers[0].set_telemetry(&tel);
    w.clients[0].set_telemetry(&tel);
    w.clients[0].set_pipeline_window(1);
    let adversary = Arc::new(Mutex::new(OneReply {
        armed: false,
        strike,
    }));
    w.net.set_interceptor(adversary.clone());
    let (mount, dir_fh, _) = w.clients[0].resolve(ALICE_UID, &home(&w)).unwrap();
    let dispatched = tel.counter("server", "nfs3.calls");
    adversary.lock().armed = true;
    let reply = w.clients[0]
        .call_nfs(
            &mount,
            ALICE_UID,
            &Nfs3Request::Mkdir {
                dir: dir_fh,
                name: "once".into(),
                attrs: Sattr3::default(),
            },
        )
        .unwrap();
    assert!(!adversary.lock().armed, "the adversary never saw a reply");
    let dispatched = tel.counter("server", "nfs3.calls") - dispatched;
    (reply, mount, tel, dispatched)
}

#[test]
fn blocking_loop_is_exactly_once_when_the_reply_is_lost() {
    // The server ran the MKDIR and its reply vanished. The client
    // resends the identical frame; the sequencer recognises a consumed
    // position and the reply cache answers it byte for byte, so the
    // call succeeds, ran once, and the session lives. A resend that
    // reached the cipher instead would kill the session, and the MKDIR
    // reissued after the rekey would come back `Exist`.
    let (reply, mount, tel, dispatched) = blocking_mkdir_whose_first_reply_meets(|_| Verdict::Drop);
    assert!(matches!(reply, Nfs3Reply::Mkdir { .. }), "{reply:?}");
    assert_eq!(dispatched, 1, "the MKDIR must reach NFS dispatch once");
    assert_eq!(tel.counter("client", "retry.retransmits"), 1);
    assert_eq!(tel.counter("server", "pipeline.retransmits"), 1);
    assert_eq!(mount.reconnects(), 0);
}

#[test]
fn blocking_loop_discards_a_stray_reply_on_its_cleartext_header() {
    // The reply arrives carrying another cipher position (a recorded
    // frame replayed onto the wire). Opening it would fail the MAC and
    // poison the channel; the client instead drops it on the header,
    // waits out the timeout and resends, and the server's cached reply
    // opens at the position the receive cipher still stands at.
    let (reply, mount, tel, dispatched) = blocking_mkdir_whose_first_reply_meets(|bytes| {
        let mut stray = bytes.to_vec();
        stray[11] ^= 1; // low byte of the big-endian chanseq at [4..12]
        Verdict::Replace(stray)
    });
    assert!(matches!(reply, Nfs3Reply::Mkdir { .. }), "{reply:?}");
    assert_eq!(dispatched, 1);
    assert_eq!(tel.counter("client", "pipeline.stale_frames"), 1);
    assert_eq!(tel.counter("client", "retry.retransmits"), 1);
    assert_eq!(tel.counter("server", "pipeline.retransmits"), 1);
    assert_eq!(mount.reconnects(), 0, "the stray must not reach the cipher");
}

#[test]
fn write_behind_barrier_roundtrips_under_wire_faults() {
    // Streaming writes ride the write-behind queue; the barrier at
    // read-back must flush them in order even while the wire misbehaves.
    let plan = FaultPlan::from_spec("seed=509,drop=20,reorder=30,delay=60,delay_ns=1ms").unwrap();
    let w = world(&plan);
    w.clients[0].set_pipeline_window(DEFAULT_PIPELINE_WINDOW);
    let path = format!("{}/stream", home(&w));
    let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
    w.clients[0].write_file(ALICE_UID, &path, &data).unwrap();
    assert_eq!(
        w.clients[0].read_file(ALICE_UID, &path).unwrap(),
        data,
        "write-behind + barrier lost or reordered bytes"
    );
}
