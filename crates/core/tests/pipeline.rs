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
use sfs::wire::ReplyMsg;
use sfs_bench::world::{World, WorldSpec, UID as ALICE_UID};
use sfs_nfs3::{Nfs3Reply, Nfs3Request, Sattr3, Status};
use sfs_sim::{Direction, FaultEvent, FaultPlan, Interceptor, PacketLog, SimTime, Verdict};
use sfs_telemetry::sync::Mutex;
use sfs_telemetry::Telemetry;
use sfs_xdr::Xdr;

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
            dir: *dir_fh,
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

/// 280 windowed MKDIRs at window 8 — more calls than the reply cache's
/// 256-reply cap — on a clean wire, then the identical batch again,
/// with `tamper` on the wire. Checks exactly-once (every first call
/// succeeds, every re-issue is `Exist`, no reconnect) and returns the
/// server's counters after each batch.
fn mkdir_280_twice(tamper: Option<Arc<Mutex<dyn Interceptor>>>) -> [(u64, u64); 2] {
    const CALLS: usize = 280;
    let w = world(&FaultPlan::from_spec("seed=0").unwrap());
    let tel = Telemetry::counters();
    w.servers[0].set_telemetry(&tel);
    w.clients[0].set_pipeline_window(8);
    if let Some(tamper) = tamper {
        w.net.set_interceptor(tamper);
    }
    let (mount, dir_fh, _) = w.clients[0].resolve(ALICE_UID, &home(&w)).unwrap();
    let reqs: Vec<Nfs3Request> = (0..CALLS)
        .map(|i| Nfs3Request::Mkdir {
            dir: dir_fh,
            name: format!("evict-{i:03}"),
            attrs: Sattr3::default(),
        })
        .collect();
    let cache = || {
        (
            tel.gauge("server", "replycache.size"),
            tel.counter("server", "replycache.evictions"),
        )
    };
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
    let first = cache();
    // Re-issue the identical batch: all-Exist proves every original call
    // executed, and the session survived the evictions — the cache only
    // dropped replies no retransmission could still ask for.
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
    [first, cache()]
}

#[test]
fn reply_cache_is_bounded_by_the_retransmit_horizon_without_breaking_exactly_once() {
    // Every window opens with xid 0 only after the previous window's
    // replies were all opened, so serving it retires every cached reply
    // below it: the cache holds one window, not 256 cold copies.
    let [(size, evicted), (size_after, evicted_after)] = mkdir_280_twice(None);
    assert!(
        size <= 8,
        "the cache holds {size} replies, more than a window"
    );
    assert!(evicted >= 280 - 8, "only {evicted} replies retired");
    assert!(size_after <= 8, "{size_after} cached after the re-issue");
    assert!(evicted_after >= evicted + 280);
}

/// Sets the top bit of every sealed call's cleartext xid and clears it
/// on every sealed reply: the server sees a peer that never starts a
/// new batch (no xid 0), the client its own xids.
struct HideBatchStarts;

impl Interceptor for HideBatchStarts {
    fn intercept(&mut self, dir: Direction, _: SimTime, mut bytes: Vec<u8>) -> Verdict {
        // Discriminant 7 is a sealed call, 8 a sealed reply; the xid is
        // bytes 12..16.
        let (disc, flip): (u8, fn(u8) -> u8) = match dir {
            Direction::Request => (7, |b| b | 0x80),
            Direction::Reply => (8, |b| b & 0x7F),
        };
        if bytes.len() >= 16 && bytes[..4] == [0, 0, 0, disc] {
            bytes[12] = flip(bytes[12]);
        }
        Verdict::Deliver(bytes)
    }
}

#[test]
fn a_peer_that_never_starts_a_new_batch_is_capped_at_reply_cache_capacity() {
    // Without batch starts no horizon ever passes, so the cap is what
    // bounds the cache: oldest first, at 256 — the memory any peer that
    // can reach a sealed session can make the server hold (ROADMAP
    // aim 3). Exactly-once holds for what stays answerable.
    let [(size, evicted), (size_after, evicted_after)] =
        mkdir_280_twice(Some(Arc::new(Mutex::new(HideBatchStarts))));
    assert_eq!(size, 256);
    assert!(evicted >= 280 - 256, "only {evicted} replies evicted");
    assert_eq!(size_after, 256);
    assert!(evicted_after >= evicted + 280);
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
    // A batch at window 1 and the same calls issued one by one must put
    // the same bytes on the wire, get the same replies and end at the
    // same virtual instant on a clean wire.
    let plan = FaultPlan::from_spec("seed=0").unwrap();

    let w = world(&plan);
    let log = PacketLog::new();
    w.net.set_log(log.clone());
    w.clients[0].set_pipeline_window(1);
    let (mount, dir_fh, _) = w.clients[0].resolve(ALICE_UID, &home(&w)).unwrap();
    let reqs = mkdir_batch(&dir_fh, "parity");
    let windowed = w.clients[0]
        .call_nfs_window(&mount, ALICE_UID, &reqs)
        .unwrap();

    let w2 = world(&plan);
    let log2 = PacketLog::new();
    w2.net.set_log(log2.clone());
    let (mount2, dir_fh2, _) = w2.clients[0].resolve(ALICE_UID, &home(&w2)).unwrap();
    let reqs2 = mkdir_batch(&dir_fh2, "parity");
    let blocking: Vec<Nfs3Reply> = reqs2
        .iter()
        .map(|r| w2.clients[0].call_nfs(&mount2, ALICE_UID, r).unwrap())
        .collect();

    let fp = |rs: &[Nfs3Reply]| rs.iter().map(|r| format!("{r:?}")).collect::<Vec<_>>();
    assert_eq!(fp(&windowed), fp(&blocking));
    assert!(!log.is_empty());
    assert!(log.snapshot() == log2.snapshot(), "the wire bytes differ");
    assert_eq!(w.clock.now(), w2.clock.now());
}

/// An adversary with one shot: once armed, hands the next reply to
/// `strike` and lets everything else through.
struct OneReply {
    armed: bool,
    strike: fn(Vec<u8>) -> Verdict,
}

impl Interceptor for OneReply {
    fn intercept(&mut self, dir: Direction, _: SimTime, bytes: Vec<u8>) -> Verdict {
        if dir == Direction::Reply && std::mem::take(&mut self.armed) {
            (self.strike)(bytes)
        } else {
            Verdict::Deliver(bytes)
        }
    }
}

/// One MKDIR on the blocking loop (window 1) whose first reply meets
/// `strike`. Returns the call's reply, the mount, and the counters of
/// both ends, with `nfs3.calls` taken around the MKDIR alone.
fn blocking_mkdir_whose_first_reply_meets(
    strike: fn(Vec<u8>) -> Verdict,
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
    let (reply, mount, tel, dispatched) = blocking_mkdir_whose_first_reply_meets(|mut stray| {
        stray[11] ^= 1; // low byte of the big-endian chanseq at [4..12]
        Verdict::Deliver(stray)
    });
    assert!(matches!(reply, Nfs3Reply::Mkdir { .. }), "{reply:?}");
    assert_eq!(dispatched, 1);
    assert_eq!(tel.counter("client", "pipeline.stale_frames"), 1);
    assert_eq!(tel.counter("client", "retry.retransmits"), 1);
    assert_eq!(tel.counter("server", "pipeline.retransmits"), 1);
    assert_eq!(mount.reconnects(), 0, "the stray must not reach the cipher");
}

#[test]
fn blocking_loop_reconnects_on_a_server_refusal_whatever_its_words() {
    // The reply is replaced by a server Error whose words the wire
    // mangled: no words the client knows, but unsequenced and an Error,
    // so the session is given up and rekeyed. The MKDIR the server did
    // run comes back `Exist` on the new session, as NFS retry semantics
    // have it.
    let (reply, mount, tel, _) = blocking_mkdir_whose_first_reply_meets(|_| {
        Verdict::Deliver(ReplyMsg::Error("chanmel failuse: garbled".into()).to_xdr())
    });
    assert_eq!(tel.counter("client", "reconnect.completed"), 1);
    assert!(
        matches!(
            reply,
            Nfs3Reply::Error {
                status: Status::Exist,
                ..
            }
        ),
        "{reply:?}"
    );
    assert_eq!(mount.reconnects(), 1);
}

/// Records every reply; once armed, puts the last one it recorded in
/// place of the next.
struct ReplayPreviousReply {
    last: Option<Vec<u8>>,
    armed: bool,
}

impl Interceptor for ReplayPreviousReply {
    fn intercept(&mut self, dir: Direction, _: SimTime, bytes: Vec<u8>) -> Verdict {
        if dir != Direction::Reply {
            return Verdict::Deliver(bytes);
        }
        if std::mem::take(&mut self.armed) {
            let replay = self.last.take().expect("a reply to replay");
            return Verdict::Deliver(replay);
        }
        self.last = Some(bytes.clone());
        Verdict::Deliver(bytes)
    }
}

#[test]
fn a_reply_replayed_from_the_previous_window_is_dropped_as_stale() {
    // A window of eight MKDIRs, then a second one whose first reply the
    // wire replaces with the last reply of the first window. That reply
    // carries an xid the second window uses, but a cipher position below
    // every reply it is owed: it is dropped on its cleartext header, the
    // missing reply is answered from the server's reply cache after one
    // retransmission, every call runs once and the session lives.
    let w = world(&FaultPlan::from_spec("seed=0").unwrap());
    let tel = Telemetry::counters();
    w.servers[0].set_telemetry(&tel);
    w.clients[0].set_telemetry(&tel);
    w.clients[0].set_pipeline_window(8);
    let adversary = Arc::new(Mutex::new(ReplayPreviousReply {
        last: None,
        armed: false,
    }));
    w.net.set_interceptor(adversary.clone());
    let (mount, dir_fh, _) = w.clients[0].resolve(ALICE_UID, &home(&w)).unwrap();
    let windows: Vec<Vec<Nfs3Request>> = ["first", "second"]
        .iter()
        .map(|tag| mkdir_batch(&dir_fh, tag)[..8].to_vec())
        .collect();
    let run = |reqs: &[Nfs3Request]| {
        for reply in w.clients[0]
            .call_nfs_window(&mount, ALICE_UID, reqs)
            .unwrap()
        {
            assert!(matches!(reply, Nfs3Reply::Mkdir { .. }), "{reply:?}");
        }
    };
    run(&windows[0]);
    let dispatched = tel.counter("server", "nfs3.calls");
    adversary.lock().armed = true;
    run(&windows[1]);
    assert!(!adversary.lock().armed, "the adversary never saw a reply");
    assert_eq!(tel.counter("server", "nfs3.calls") - dispatched, 8);
    assert_eq!(tel.counter("client", "pipeline.stale_frames"), 1);
    assert_eq!(tel.counter("client", "retry.retransmits"), 1);
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
