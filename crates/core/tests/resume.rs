//! Session-resumption tickets: reconnecting after a server restart with
//! one round trip instead of the full Figure-3 handshake.
//!
//! Invariants, per ISSUE:
//!
//! 1. a post-restart reconnect with a banked ticket is a *hit*: one wire
//!    round trip, no Rabin decryption, and the mount keeps working with
//!    a fresh session;
//! 2. round-trip accounting proves the saving — the resumed reconnect
//!    costs exactly one RT less than the identical workload with
//!    resumption disabled;
//! 3. tickets rotate and survive repeated restarts; a replayed,
//!    already-consumed ticket is accepted but buys a session its
//!    replayer cannot key;
//! 4. an expired ticket is rejected and the client falls back to the
//!    full handshake, loudly (counter) but successfully;
//! 5. resumption composes with the negotiated ChaCha20-Poly1305 suite.

use sfs::wire::{
    seq_call_envelope, seq_reply_envelope, CallMsg, ReplyMsg, SEALED_SEQ_ENV_FRAME_START,
};
use sfs_bench::world::{World, WorldSpec, UID as ALICE_UID};
use sfs_proto::channel::SuiteId;
use sfs_sim::{Direction, PacketLog, SimTime};
use sfs_telemetry::Telemetry;
use sfs_xdr::Xdr;

fn world(entropy: &'static str) -> World {
    World::build(&WorldSpec {
        server_entropy: "resume-server",
        client_entropy: entropy,
        ..WorldSpec::test()
    })
}

/// Mount, restart the server, write through the dead session. Returns
/// the number of wire round trips the whole sequence took.
fn restart_and_write(w: &World) -> u64 {
    let file = format!("{}/home/alice/notes", w.path().full_path());
    w.clients[0]
        .write_file(ALICE_UID, &file, b"before")
        .unwrap();
    let (mount, _, _) = w.clients[0].resolve(ALICE_UID, &file).unwrap();
    let before = mount.round_trips();
    w.servers[0].crash_restart();
    w.clients[0].write_file(ALICE_UID, &file, b"after").unwrap();
    assert_eq!(w.clients[0].read_file(ALICE_UID, &file).unwrap(), b"after");
    assert!(mount.reconnects() >= 1, "restart must force a reconnect");
    mount.round_trips() - before
}

#[test]
fn post_restart_reconnect_resumes_with_a_ticket() {
    let w = world("resume-basic");
    let file = format!("{}/home/alice/notes", w.path().full_path());
    w.clients[0].write_file(ALICE_UID, &file, b"v1").unwrap();
    let (mount, _, _) = w.clients[0].resolve(ALICE_UID, &file).unwrap();
    let session_before = mount.session_id();

    w.servers[0].crash_restart();
    w.clients[0].write_file(ALICE_UID, &file, b"v2").unwrap();

    let (hits, misses, rejected) = w.clients[0].resume_stats();
    assert_eq!(
        (hits, misses, rejected),
        (1, 0, 0),
        "the reconnect must be a ticket-resume hit"
    );
    assert_ne!(
        mount.session_id(),
        session_before,
        "a resumed session is a fresh session"
    );
    assert_eq!(w.clients[0].read_file(ALICE_UID, &file).unwrap(), b"v2");
}

#[test]
fn resume_saves_exactly_one_round_trip_over_full_rekey() {
    // Two identical worlds, one workload; the only difference is the
    // resumption switch. Full keyneg spends two round trips (hello +
    // client-keys) where the ticket path spends one.
    let resumed = world("rt-accounting");
    let control = world("rt-accounting");
    control.clients[0].set_resumption(false);

    let rt_resumed = restart_and_write(&resumed);
    let rt_control = restart_and_write(&control);

    assert_eq!(resumed.clients[0].resume_stats().0, 1);
    assert_eq!(
        control.clients[0].resume_stats(),
        (0, 0, 0),
        "the control arm must not touch the ticket machinery"
    );
    assert_eq!(
        rt_resumed,
        rt_control - 1,
        "ticket resume must replace the 2-RT handshake with 1 RT"
    );
}

#[test]
fn tickets_rotate_across_repeated_restarts() {
    let w = world("resume-rotate");
    let file = format!("{}/home/alice/log", w.path().full_path());
    w.clients[0].write_file(ALICE_UID, &file, b"r0").unwrap();
    let (mount, _, _) = w.clients[0].resolve(ALICE_UID, &file).unwrap();
    // Each restart consumes the banked ticket and banks the rotated one
    // from the resume reply — hits keep accumulating without a single
    // full handshake in between.
    for round in 1..=3u64 {
        w.servers[0].crash_restart();
        let payload = format!("r{round}");
        w.clients[0]
            .write_file(ALICE_UID, &file, payload.as_bytes())
            .unwrap();
        assert_eq!(
            w.clients[0].resume_stats(),
            (round, 0, 0),
            "restart {round} must resume off the rotated ticket"
        );
    }
    assert_eq!(mount.reconnects(), 3);
    assert_eq!(w.clients[0].read_file(ALICE_UID, &file).unwrap(), b"r3");
}

#[test]
fn a_replayed_consumed_ticket_yields_no_usable_session() {
    // The server keeps no record of tickets it has honoured, so an
    // eavesdropper who replays a recorded `Resume` is answered with
    // `ResumeOk`. What it cannot do is use the session: the keys mix
    // the ticket's sealed secret, which it never saw, with a server
    // nonce drawn fresh for this connection — so nothing it sends,
    // recorded or invented, opens, and nothing is dispatched.
    let tel = Telemetry::counters();
    let w = world("resume-replay");
    w.servers[0].set_telemetry(&tel);
    let log = PacketLog::new();
    w.net.set_log(log.clone());
    let file = format!("{}/home/alice/diary", w.path().full_path());
    w.clients[0].write_file(ALICE_UID, &file, b"d0").unwrap();
    w.servers[0].crash_restart();
    w.clients[0].write_file(ALICE_UID, &file, b"d1").unwrap();
    assert_eq!(w.clients[0].resume_stats(), (1, 0, 0));

    // Everything the client sent from its `Resume` on: the consumed
    // ticket, then the sealed frames of the session it resumed.
    let sent: Vec<Vec<u8>> = log
        .snapshot()
        .into_iter()
        .filter(|(dir, _)| *dir == Direction::Request)
        .map(|(_, bytes)| bytes)
        .skip_while(|b| !matches!(CallMsg::from_xdr(b), Ok(CallMsg::Resume { .. })))
        .collect();
    let (resume, sealed) = sent.split_first().expect("the client resumed");
    assert!(sealed.iter().all(|b| seq_call_envelope(b).is_some()));
    assert!(!sealed.is_empty());

    let replayer = w.servers[0].accept();
    let reply = ReplyMsg::from_xdr(&replayer.handle_bytes(resume)).unwrap();
    assert!(matches!(reply, ReplyMsg::ResumeOk { .. }), "{reply:?}");
    assert_eq!(tel.counter("server", "resume.accepted"), 2);
    let dispatched = tel.counter("server", "nfs3.calls");
    // Through the sealed entry: the first frame reaches the cipher and
    // fails its MAC; nothing after it, recorded or invented, yields a
    // sealed reply.
    let inbound = replayer.inbound();
    let mut replies = Vec::new();
    inbound.handle_frames_on(0, 0, sealed[0].clone(), &mut replies);
    let [refusal] = &replies[..] else {
        panic!("{} replies to the first replayed frame", replies.len());
    };
    let refusal = ReplyMsg::from_xdr(refusal).unwrap();
    assert!(
        matches!(&refusal, ReplyMsg::Error(e) if e.contains("channel failure")),
        "{refusal:?}"
    );
    let mut invented = sealed[0].clone();
    invented[SEALED_SEQ_ENV_FRAME_START] ^= 1;
    for frame in sealed[1..].iter().chain([&invented]) {
        replies.clear();
        inbound.handle_frames_on(0, 0, frame.clone(), &mut replies);
        for reply in &replies {
            assert!(
                seq_reply_envelope(reply).is_none(),
                "a replayed frame was answered under the session's key"
            );
        }
    }
    assert_eq!(tel.counter("server", "nfs3.calls"), dispatched);

    // The legitimate client's resumed session is untouched, and the
    // ticket it was rotated to still resumes.
    assert_eq!(w.clients[0].read_file(ALICE_UID, &file).unwrap(), b"d1");
    w.servers[0].crash_restart();
    w.clients[0].write_file(ALICE_UID, &file, b"d2").unwrap();
    assert_eq!(w.clients[0].resume_stats(), (2, 0, 0));
    assert_eq!(w.clients[0].read_file(ALICE_UID, &file).unwrap(), b"d2");
}

#[test]
fn expired_ticket_falls_back_to_full_handshake() {
    let w = world("resume-expiry");
    let file = format!("{}/home/alice/stale", w.path().full_path());
    w.clients[0].write_file(ALICE_UID, &file, b"old").unwrap();

    // Outlive the ticket (1 virtual hour), then kill the session.
    w.clock.advance(SimTime::from_millis(2 * 3_600 * 1_000));
    w.servers[0].crash_restart();
    w.clients[0].write_file(ALICE_UID, &file, b"new").unwrap();

    let (hits, misses, rejected) = w.clients[0].resume_stats();
    assert_eq!(
        (hits, misses, rejected),
        (0, 0, 1),
        "an expired ticket must be rejected, not honored"
    );
    assert_eq!(w.clients[0].read_file(ALICE_UID, &file).unwrap(), b"new");
}

#[test]
fn reconnect_without_a_ticket_counts_a_miss() {
    let w = world("resume-miss");
    w.clients[0].set_resumption(false);
    let file = format!("{}/home/alice/miss", w.path().full_path());
    // Mount with resumption off: no ticket is banked. Turning it on
    // afterwards leaves the next reconnect empty-handed.
    w.clients[0].write_file(ALICE_UID, &file, b"one").unwrap();
    w.clients[0].set_resumption(true);
    w.servers[0].crash_restart();
    w.clients[0].write_file(ALICE_UID, &file, b"two").unwrap();
    assert_eq!(
        w.clients[0].resume_stats(),
        (0, 1, 0),
        "no banked ticket must count as a miss"
    );
}

#[test]
fn resume_preserves_the_negotiated_chacha_suite() {
    let w = world("resume-chacha");
    w.clients[0].set_suite_offer(&[SuiteId::ChaCha20Poly1305]);
    let file = format!("{}/home/alice/fast", w.path().full_path());
    w.clients[0].write_file(ALICE_UID, &file, b"aead").unwrap();
    let (mount, _, _) = w.clients[0].resolve(ALICE_UID, &file).unwrap();

    w.servers[0].crash_restart();
    w.clients[0].write_file(ALICE_UID, &file, b"aead2").unwrap();

    assert_eq!(
        w.clients[0].resume_stats().0,
        1,
        "resume must hit under chacha"
    );
    assert!(mount.reconnects() >= 1);
    assert_eq!(w.clients[0].read_file(ALICE_UID, &file).unwrap(), b"aead2");
}

#[test]
fn resume_telemetry_counters_fire() {
    let tel = Telemetry::counters();
    let w = world("resume-counters");
    w.clients[0].set_telemetry(&tel);
    w.servers[0].set_telemetry(&tel);
    let file = format!("{}/home/alice/tel", w.path().full_path());
    w.clients[0].write_file(ALICE_UID, &file, b"x").unwrap();
    w.servers[0].crash_restart();
    w.clients[0].write_file(ALICE_UID, &file, b"y").unwrap();
    let snap = tel.counters_snapshot();
    let get = |proc: &str, name: &str| {
        snap.iter()
            .find(|(p, n, _)| p == proc && *n == name)
            .map(|(_, _, v)| *v)
            .unwrap_or(0)
    };
    assert_eq!(get("client", "resume.hit"), 1);
    assert_eq!(get("server", "resume.accepted"), 1);
    assert_eq!(get("client", "resume.miss"), 0);
    assert_eq!(get("server", "resume.rejected"), 0);
}
