//! The replicated write path under fire: the same 21-plan coherence
//! battery as `tests/coherence.rs`, but the relay now fronts a
//! [`ReplGroup`] — three members, each with its *own* file system and
//! its own CRC-framed op log, quorum 2 — and every plan crashes the
//! primary mid-stream (plans without a `crash=` instant get one).
//!
//! What must hold: the oracle's verdict is unchanged (committed-only
//! sizes, lease-bounded staleness, hash-exact wire reads), every
//! crashing plan produces a promotion, and a rerun of any plan is
//! byte-for-byte identical — log shipping, quorum waits and promotion
//! replay are all part of the deterministic simulation.
//!
//! The directed tests pin down the protocol's edges one at a time:
//! no acked write is lost across a mid-burst primary crash,
//! checkpoints truncate every log to the same mark, a lagging backup
//! either catches up from the primary's log or is quarantined when
//! truncation has outrun it, degraded-quorum commits are counted,
//! admission control meters a reconnect stampede into `Busy` retries,
//! and a rolling read-only republish is version-monotone mid-stream.

use std::sync::Arc;

use sfs_bench::oracle::{self, Oracle, OracleSpec, RunOutcome, BATTERY, FILES, OP_GAP_NS};
use sfs_bench::world::{Behind, UID};
use sfs_proto::repl::{ReplOp, ReplRecord};
use sfs_relay::{AdmissionControl, ReplGroup};

/// Members of the replicated write group in every harness.
const N_MEMBERS: usize = 3;
/// The group: quorum 2 durable copies (primary's included) per commit.
/// The fault plan's `crash=` instants are attached only to member 0 —
/// the initial primary — so a server crash is a *primary* crash and the
/// group must fail over, not merely reconnect.
const BEHIND: Behind = Behind::Replicated {
    members: N_MEMBERS,
    quorum: 2,
};

fn failover_harness(spec: &str, n_clients: usize) -> (Oracle, Arc<ReplGroup>) {
    let h = Oracle::new(&OracleSpec::new(BEHIND, spec, n_clients));
    let group = h.world.repl.clone().expect("replicated world");
    (h, group)
}

/// The group's health at the end of a run.
#[derive(Debug, PartialEq, Eq)]
struct Health {
    promotions: u64,
    primary: usize,
    commit_lsn: u64,
    quarantined: usize,
}

fn run(spec: &str, n_clients: usize) -> RunOutcome<Health> {
    failover_harness(spec, n_clients).0.run(0x5EED, |w| {
        let health = w.repl.as_ref().unwrap().health_check();
        Health {
            promotions: health.promotions,
            primary: health.primary,
            commit_lsn: health.commit_lsn,
            quarantined: health.needs_full_sync,
        }
    })
}

/// The battery from `tests/coherence.rs`; plans without a server-crash
/// instant get one appended, so every plan kills the primary mid-run.
/// (`,crash=` cannot confuse a `ccrash=` — the comma anchors it.)
fn crashing_spec(spec: &str) -> String {
    if spec.contains(",crash=") {
        spec.to_string()
    } else {
        format!("{spec},crash=1100ms")
    }
}

#[test]
fn coherence_oracle_passes_with_replicated_write_path() {
    let mut crashes = 0;
    for (spec, n) in BATTERY {
        let spec = crashing_spec(spec);
        let out = run(&spec, *n);
        assert!(
            out.violations.is_empty(),
            "coherence violated on the replicated write path under {spec:?}: {:#?}",
            out.violations
        );
        assert!(
            out.health.promotions >= 1,
            "a primary crash under {spec:?} must promote a backup"
        );
        assert_ne!(
            out.health.primary, 0,
            "the crashed initial primary cannot still be serving under {spec:?}"
        );
        assert!(
            out.health.quarantined >= 1,
            "the deposed primary must be quarantined pending resync under {spec:?}"
        );
        crashes += out.crashes;
    }
    assert!(crashes >= 8, "the battery must exercise client restarts");
}

#[test]
fn failover_runs_reproduce_byte_for_byte() {
    // Log shipping, quorum waits, promotion replay and admission-free
    // routing are all part of the deterministic simulation: rerunning a
    // plan yields the identical outcome, promotion count included.
    for (spec, n) in [
        ("seed=409,ccrash=800ms", 2usize),
        ("seed=410,ccrash=700ms,crash=700ms", 2),
        (
            "seed=418,drop=25,dup=10,reorder=10,corrupt=10,delay=60,delay_ns=1ms",
            3,
        ),
    ] {
        let spec = crashing_spec(spec);
        let a = run(&spec, n);
        let b = run(&spec, n);
        assert_eq!(a, b, "failover run diverged across reruns of {spec:?}");
    }
}

#[test]
fn promotion_loses_no_acked_write() {
    // The acknowledged-commit barrier, witnessed end to end: the primary
    // dies between two acked writes of a burst, the most-caught-up
    // backup is promoted, and the promoted member serves exactly the
    // committed history — every acked byte, in order.
    let (mut h, group) = failover_harness("seed=940", 1);
    for k in 0..6 {
        h.world.clock.advance_ns(OP_GAP_NS);
        h.write(0, k % FILES);
    }
    assert_eq!(group.primary_index(), 0);
    let commit_before = group.commit_lsn();
    assert!(commit_before > 0);

    group.member_server(0).crash_restart();

    for k in 0..6 {
        h.world.clock.advance_ns(OP_GAP_NS);
        h.write(0, k % FILES);
        h.wire_read_and_check(0, k % FILES);
    }
    assert!(h.violations.is_empty(), "{:#?}", h.violations);
    assert_eq!(
        group.promotions(),
        1,
        "the first post-crash dial must promote exactly once"
    );
    assert_eq!(
        group.primary_index(),
        1,
        "ties in durable LSN break to the lowest-index backup"
    );
    assert!(group.commit_lsn() > commit_before);
    assert!(
        h.mounts[0].reconnects() >= 1,
        "the crash must surface as a transparent reconnect"
    );
    // The deposed primary may hold unacked state; it is quarantined.
    assert!(group.member_stats(0).needs_full_sync);
    let health = group.health_check();
    assert_eq!(health.needs_full_sync, 1);
    assert_eq!(health.primary, 1);

    // Byte-for-byte: the promoted backup serves the full acked history.
    for f in 0..FILES {
        let p = format!("{}/public/coh-{f}", h.world.path().full_path());
        assert_eq!(
            h.world.clients[0].read_file(UID, &p).unwrap(),
            h.contents[f],
            "file {f} lost acked bytes across the failover"
        );
    }
}

#[test]
fn checkpoints_truncate_every_log_to_the_same_mark() {
    let (mut h, group) = failover_harness("seed=941", 1);
    group.set_checkpoint_every(4);
    for k in 0..12 {
        h.world.clock.advance_ns(OP_GAP_NS);
        h.write(0, k % FILES);
    }
    let commit = group.commit_lsn();
    let mut marks = Vec::new();
    for r in 0..N_MEMBERS {
        let recs = group.member_log(r).records();
        let Ok(ReplRecord::Checkpoint { lsn }) = ReplRecord::from_xdr(&recs[0]) else {
            panic!("member {r}'s truncated log must begin with a checkpoint mark");
        };
        assert!(
            commit - lsn < 4,
            "member {r}'s checkpoint mark {lsn} lags commit {commit} beyond the window"
        );
        for bytes in &recs[1..] {
            assert!(
                matches!(
                    ReplRecord::from_xdr(bytes),
                    Ok(ReplRecord::Op(ReplOp { lsn: l, .. })) if l > lsn
                ),
                "member {r} kept a frame at or below its checkpoint mark"
            );
        }
        let st = group.member_stats(r);
        assert!(
            st.applied_lsn >= lsn,
            "member {r} was truncated past what it has applied"
        );
        assert_eq!(st.durable_lsn, commit);
        marks.push(lsn);
    }
    assert!(
        marks.windows(2).all(|w| w[0] == w[1]),
        "truncation must be coordinated: all members share one mark, got {marks:?}"
    );

    // A checkpointed backup still promotes cleanly: only the short
    // suffix beyond the mark needs replaying.
    group.member_server(0).crash_restart();
    h.world.clock.advance_ns(OP_GAP_NS);
    h.write(0, 0);
    assert_eq!(group.promotions(), 1);
    for f in 0..FILES {
        let p = format!("{}/public/coh-{f}", h.world.path().full_path());
        assert_eq!(
            h.world.clients[0].read_file(UID, &p).unwrap(),
            h.contents[f],
            "file {f} diverged on the checkpoint-applied backup"
        );
    }
    assert!(h.violations.is_empty(), "{:#?}", h.violations);
}

#[test]
fn lagging_backup_catches_up_or_quarantines_past_truncation() {
    let (mut h, group) = failover_harness("seed=942", 1);
    group.set_checkpoint_every(1000); // freeze truncation for now

    // A short outage: the missed frames still sit in the primary's log,
    // so rejoining replays them and the backup is whole again.
    group.mark_down(2);
    for k in 0..3 {
        h.world.clock.advance_ns(OP_GAP_NS);
        h.write(0, k % FILES);
    }
    assert!(group.mark_up(2), "an in-window rejoin must catch up");
    assert_eq!(group.member_stats(2).durable_lsn, group.commit_lsn());
    assert!(!group.member_stats(2).needs_full_sync);

    // A long outage: truncation outruns the backup's durable horizon
    // while it is away, so log shipping can no longer repair it.
    group.mark_down(2);
    group.set_checkpoint_every(2);
    for k in 0..4 {
        h.world.clock.advance_ns(OP_GAP_NS);
        h.write(0, k % FILES);
    }
    assert!(
        !group.mark_up(2),
        "rejoining past coordinated truncation must fail"
    );
    assert!(group.member_stats(2).needs_full_sync);
    assert!(group.full_syncs_needed() >= 1);
    let health = group.health_check();
    assert_eq!(health.needs_full_sync, 1);
    assert_eq!(health.eligible_backups, 1);

    // A quarantined member is never promoted, no matter its LSN.
    group.member_server(0).crash_restart();
    h.world.clock.advance_ns(OP_GAP_NS);
    h.write(0, 0);
    assert_eq!(group.promotions(), 1);
    assert_eq!(
        group.primary_index(),
        1,
        "promotion must pass over the quarantined member"
    );
    for f in 0..FILES {
        let p = format!("{}/public/coh-{f}", h.world.path().full_path());
        assert_eq!(
            h.world.clients[0].read_file(UID, &p).unwrap(),
            h.contents[f]
        );
    }
    assert!(h.violations.is_empty(), "{:#?}", h.violations);
}

#[test]
fn degraded_quorum_commits_are_counted() {
    let (mut h, group) = failover_harness("seed=945", 1);
    group.set_checkpoint_every(1000);
    assert_eq!(group.quorum_degraded(), 0);

    // Both backups away: the group prefers availability, commits on the
    // primary's copy alone, and says so.
    group.mark_down(1);
    group.mark_down(2);
    h.world.clock.advance_ns(OP_GAP_NS);
    h.write(0, 0);
    assert!(group.quorum_degraded() >= 1);
    let degraded = group.quorum_degraded();

    // One backup back within the window: quorum is met again.
    assert!(group.mark_up(1));
    assert_eq!(group.member_stats(1).durable_lsn, group.commit_lsn());
    h.world.clock.advance_ns(OP_GAP_NS);
    h.write(0, 1);
    assert_eq!(group.quorum_degraded(), degraded);
    assert!(h.violations.is_empty(), "{:#?}", h.violations);
}

#[test]
fn admission_control_meters_a_mount_stampede() {
    // A cold-start bucket of one: the first fresh mount spends the
    // burst token, the second is told `Busy`, backs off on the client's
    // normal schedule, and is admitted once virtual time has minted a
    // token — no dial is ever turned into a hard failure.
    let (h, group) = failover_harness("seed=943", 1);
    let ac = Arc::new(AdmissionControl::new(1, 10));
    group.set_admission(ac.clone());

    let mut late = Vec::new();
    for i in 0..2 {
        let c = h.world.client(format!("failover-stampede-{i}").as_bytes());
        h.world.login(&c);
        let mount = c.mount(UID, h.world.path()).unwrap();
        late.push((c, mount));
    }
    let (admitted, throttled) = ac.stats();
    assert!(admitted >= 2, "both stampeders must eventually mount");
    assert!(
        throttled >= 1,
        "the bucket must have throttled at least one dial"
    );

    // Throttling never corrupts the session that results: the late
    // mounts read the populated files correctly.
    group.clear_admission();
    for (c, _) in &late {
        let p = format!("{}/public/coh-0", h.world.path().full_path());
        assert_eq!(c.read_file(UID, &p).unwrap(), h.contents[0]);
    }
}

#[test]
fn rolling_republish_stays_version_monotone() {
    // A read-only mount rides the primary while the publisher rolls a
    // new snapshot across the group: the mount may fail over mid-walk
    // when the old root's blocks vanish, but it only ever moves to a
    // *newer* signed root — version bumps are monotone, content is
    // always a consistent snapshot, never a rollback or a torn mix.
    let (mut h, group) = failover_harness("seed=944", 1);
    for k in 0..4 {
        h.world.clock.advance_ns(OP_GAP_NS);
        h.write(0, k % 2); // files 0 and 1
    }
    for r in 0..N_MEMBERS {
        group.member_server(r).publish_read_only(1);
    }
    let snapshot1_file0 = h.contents[0].clone();

    let ro = h.world.clients[0].mount_read_only(h.world.path()).unwrap();
    assert_eq!(ro.version(), 1);
    assert_eq!(ro.read_file("/public/coh-0").unwrap(), snapshot1_file0);

    // The tree grows, and the publisher republishes the primary first.
    for k in 0..4 {
        h.world.clock.advance_ns(OP_GAP_NS);
        h.write(0, k % 2);
    }
    group
        .member_server(group.primary_index())
        .publish_read_only(2);

    // coh-1 was never walked under v1, so this read must fetch — and
    // the v1 blocks are gone from the primary. The mount fails over to
    // the v2 root and restarts the walk there.
    assert_eq!(ro.read_file("/public/coh-1").unwrap(), h.contents[1]);
    assert_eq!(ro.version(), 2, "the republish must surface as a bump");
    assert!(ro.failovers() >= 1, "the hole must be healed by failover");

    // Finish the roll; the mount stays at v2 and keeps reading the
    // consistent v2 snapshot.
    for r in 0..N_MEMBERS {
        group.member_server(r).publish_read_only(2);
    }
    assert_eq!(ro.read_file("/public/coh-0").unwrap(), h.contents[0]);
    assert_eq!(ro.version(), 2);
}

#[test]
fn oracle_detects_deliberately_torn_write_on_the_replicated_path() {
    oracle::detects_torn_write(BEHIND);
}

#[test]
fn oracle_detects_deliberately_injected_stale_read_on_the_replicated_path() {
    oracle::detects_injected_stale_read(BEHIND);
}
