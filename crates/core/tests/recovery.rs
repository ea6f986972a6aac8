//! Client crash-recovery: a client that dies mid-session journals enough
//! state — mounts, agent keys and links, seqno high-water marks — to come
//! back as *itself*, and nothing more.
//!
//! Invariants, per ISSUE and paper §2:
//!
//! 1. a restarted client reconstructs its mount table from the journal,
//!    re-running the full key negotiation against each recorded HostID —
//!    self-certification, not the journal, is the trust decision;
//! 2. a HostID whose server no longer proves the journaled identity (a
//!    swapped key) is refused, loudly;
//! 3. authentication seqnos resume past the journaled high-water mark, so
//!    a signed seqno is never reused across a crash;
//! 4. keys the user never asked to persist (a plain in-memory agent
//!    install) are *not* resurrected — they must be re-acquired via
//!    `sfskey` SRP retrieval, which works under a faulty network;
//! 5. rerunning a seeded crash-recovery scenario reproduces it exactly.

use std::sync::Arc;

use sfs::client::{RetryPolicy, SfsClient};
use sfs::journal::ClientJournal;
use sfs::sfskey;
use sfs_bench::keys;
use sfs_bench::world::{KeySeeds, World, WorldSpec, UID as ALICE_UID};
use sfs_bignum::XorShiftSource;
use sfs_sim::FaultPlan;
use sfs_telemetry::Telemetry;

/// One server under `spec`'s fault plan, no clients yet, and the journal
/// every client incarnation of the test shares.
fn world(spec: &str) -> (World, ClientJournal, FaultPlan) {
    let plan = FaultPlan::from_spec(spec).unwrap();
    let w = World::build(&WorldSpec {
        clients: 0,
        ..WorldSpec::test().faulted(Some(&plan))
    });
    let journal = w.journal(0);
    (w, journal, plan)
}

/// A fresh client incarnation on the shared network, wired to the shared
/// journal — what a reboot of the client machine produces.
fn boot_client(w: &World, journal: &ClientJournal, entropy: &[u8]) -> Arc<SfsClient> {
    let client = w.client(entropy);
    client.attach_journal(journal.clone());
    client
}

#[test]
fn restarted_client_recovers_mounts_keys_and_seqnos_from_journal() {
    let (w, journal, plan) = world("seed=301,drop=10,dup=10");
    let tel = Telemetry::counters();

    // First incarnation: journal attached from boot, key installed
    // through the journaling path, a link created over the agent IPC
    // socket, real authenticated traffic.
    let client = boot_client(&w, &journal, b"recovery-client");
    client.install_agent_key(ALICE_UID, w.user_key());
    client.create_agent_link(ALICE_UID, "mit", &w.path().full_path());
    let file = format!("{}/home/alice/notes", w.path().full_path());
    client
        .write_file(ALICE_UID, &file, b"survives the crash")
        .unwrap();
    let (mount, _, _) = client.resolve(ALICE_UID, &file).unwrap();
    let seq_before = mount.seq_watermark();
    assert!(seq_before > 1, "authentication must have consumed seqnos");
    let records_before = journal.len();
    assert!(records_before > 0, "journal must have accumulated records");

    // The crash: the incarnation vanishes, taking every in-memory table
    // with it. Only the journal (and the server) survive.
    plan.note_client_crash(w.clock.now());
    drop(client);
    drop(mount);

    // Second incarnation, cold: no keys, no mounts, no caches.
    let reborn = boot_client(&w, &journal, b"recovery-client-reborn");
    reborn.set_telemetry(&tel);
    let report = reborn.recover(ALICE_UID).unwrap();
    assert_eq!(report.remounted, vec![w.path().dir_name()], "{report:?}");
    assert!(report.refused.is_empty(), "{report:?}");
    assert_eq!(report.key_mismatch_refusals, 0);
    assert!(report.agent_keys_restored >= 1, "{report:?}");
    assert!(report.agent_links_restored >= 1, "{report:?}");
    assert!(report.records_replayed as usize >= records_before);

    // The restored agent authenticates without any re-enrollment…
    assert_eq!(
        reborn.read_file(ALICE_UID, &file).unwrap(),
        b"survives the crash"
    );
    // …through the restored dynamic link too.
    assert_eq!(
        reborn
            .read_file(ALICE_UID, "/sfs/mit/home/alice/notes")
            .unwrap(),
        b"survives the crash"
    );
    assert_eq!(reborn.agent(ALICE_UID).lock().key_count(), 1);

    // Seqno monotonicity across the crash: the reborn mount resumed past
    // the journaled high-water mark, which is past every seqno the dead
    // incarnation ever signed.
    let (mount, _, _) = reborn.resolve(ALICE_UID, &file).unwrap();
    assert!(
        mount.seq_watermark() >= seq_before,
        "seqno watermark regressed across restart: {} < {}",
        mount.seq_watermark(),
        seq_before
    );

    // Recovery telemetry: replays, remounts, restored agent state.
    assert_eq!(tel.counter("client", "client.recovery.journal_replays"), 1);
    assert_eq!(tel.counter("client", "client.recovery.remounts"), 1);
    assert!(tel.counter("client", "client.recovery.agent_keys") >= 1);
    assert!(tel.counter("client", "client.recovery.agent_links") >= 1);
    assert_eq!(
        tel.counter("client", "client.recovery.key_mismatch_refusals"),
        0
    );

    // The crash shows up in the plan's event log alongside wire faults.
    assert!(plan
        .events()
        .iter()
        .any(|e| e.kind == sfs_sim::FaultKind::ClientCrash));
}

#[test]
fn recovery_refuses_mount_whose_server_key_was_swapped() {
    let (mut w, journal, _plan) = world("seed=302");
    let second = w.add_server("b.example.org", 0xD4D4);
    let second_path = second.path().clone();

    let client = boot_client(&w, &journal, b"swap-client");
    client.install_agent_key(ALICE_UID, w.user_key());
    client.mount(ALICE_UID, w.path()).unwrap();
    client.mount(ALICE_UID, &second_path).unwrap();
    drop(client);

    // While the client is down, `b.example.org` is replaced by a server
    // with a *different* key — the paper's key-swap attack. The HostID in
    // the journal still names the old key.
    w.add_server("b.example.org", 0xBAD0);

    let reborn = boot_client(&w, &journal, b"swap-client-reborn");
    let tel = Telemetry::counters();
    reborn.set_telemetry(&tel);
    // A swapped key only surfaces after the retry budget is exhausted
    // (one mangled hello must not condemn a mount); keep the budget small
    // so the test stays fast.
    reborn.set_retry_policy(RetryPolicy {
        max_reconnects: 1,
        ..RetryPolicy::default()
    });
    let report = reborn.recover(ALICE_UID).unwrap();
    assert_eq!(
        report.remounted,
        vec![w.path().dir_name()],
        "only the honest server comes back: {report:?}"
    );
    assert_eq!(report.key_mismatch_refusals, 1, "{report:?}");
    assert_eq!(report.refused.len(), 1);
    assert_eq!(report.refused[0].0, second_path.dir_name());
    assert_eq!(
        tel.counter("client", "client.recovery.key_mismatch_refusals"),
        1
    );
    // The honest mount is fully usable…
    let file = format!("{}/home/alice/ok", w.path().full_path());
    reborn.write_file(ALICE_UID, &file, b"still here").unwrap();
    // …and the swapped HostID stays unmounted: a fresh access re-fails
    // self-certification rather than silently trusting the impostor.
    assert!(reborn.mount(ALICE_UID, &second_path).is_err());
}

#[test]
fn unjournaled_key_needs_sfskey_srp_reacquisition_after_restart() {
    // A key dropped straight into the in-memory agent (no journaling
    // path) dies with the client — by design, the journal persists only
    // what went through the journaling APIs. Getting it back is exactly
    // the paper's §2.4 travel scenario: one SRP password retrieves the
    // key from the authserver, over the same faulty network.
    let (w, journal, _plan) = world("seed=303,drop=15,dup=10");
    let mut rng = XorShiftSource::new(0x51);
    sfskey::register(
        w.servers[0].authserver(),
        "alice",
        b"correct horse battery staple",
        &w.user_key(),
        &mut rng,
    );

    let client = boot_client(&w, &journal, b"srp-client");
    // Deliberately bypass `install_agent_key`: an ephemeral install.
    client.agent(ALICE_UID).lock().add_key(w.user_key());
    let file = format!("{}/home/alice/diary", w.path().full_path());
    client.write_file(ALICE_UID, &file, b"pre-crash").unwrap();
    drop(client);

    let reborn = boot_client(&w, &journal, b"srp-client-reborn");
    let report = reborn.recover(ALICE_UID).unwrap();
    assert_eq!(report.remounted, vec![w.path().dir_name()]);
    assert_eq!(
        report.agent_keys_restored, 0,
        "an unjournaled key must not be resurrected: {report:?}"
    );
    // Without the key the client is anonymous: alice's 0700 home refuses.
    assert!(reborn.read_file(ALICE_UID, &file).is_err());

    // sfskey SRP retrieval end-to-end: password → mutual auth → sealed
    // key download → journaled install.
    let conn = w.servers[0].accept();
    let mut fresh_agent = sfs::Agent::new();
    let result = sfskey::add(
        &conn,
        &keys::srp_group(128, KeySeeds::TEST.srp),
        &mut fresh_agent,
        "alice",
        b"correct horse battery staple",
        &mut rng,
    )
    .unwrap();
    let key = result.private_key.unwrap();
    assert_eq!(key.public(), w.user_key().public());
    reborn.install_agent_key(ALICE_UID, key);
    // A fresh session picks up the new credentials (the old session
    // already fell back to anonymous for this uid).
    reborn.remount(ALICE_UID, w.path()).unwrap();
    assert_eq!(reborn.read_file(ALICE_UID, &file).unwrap(), b"pre-crash");

    // And this time the key *was* journaled: a second crash restores it.
    drop(reborn);
    let third = boot_client(&w, &journal, b"srp-client-third");
    let report = third.recover(ALICE_UID).unwrap();
    assert_eq!(report.agent_keys_restored, 1, "{report:?}");
    assert_eq!(third.read_file(ALICE_UID, &file).unwrap(), b"pre-crash");
}

#[test]
fn recovery_replays_across_a_compaction_checkpoint() {
    // Journal GC must be invisible to recovery: fold the live journal
    // into a checkpoint mid-session, keep working, crash, and the reborn
    // client must recover state from both sides of the checkpoint.
    let (w, journal, plan) = world("seed=305");
    let client = boot_client(&w, &journal, b"compact-client");
    client.install_agent_key(ALICE_UID, w.user_key());
    client.create_agent_link(ALICE_UID, "mit", &w.path().full_path());
    let pre = format!("{}/home/alice/pre", w.path().full_path());
    client
        .write_file(ALICE_UID, &pre, b"before checkpoint")
        .unwrap();

    // Compaction truncates to one record and preserves the folded state.
    let records_before = journal.len();
    assert!(records_before > 1);
    let folded_before = journal.replay().unwrap();
    journal.compact().unwrap();
    assert_eq!(journal.len(), 1, "compaction leaves one checkpoint");
    let folded_after = journal.replay().unwrap();
    assert_eq!(folded_after.mounts, folded_before.mounts);
    assert_eq!(folded_after.seq_hwm, folded_before.seq_hwm);
    assert_eq!(folded_after.agent_keys, folded_before.agent_keys);
    assert_eq!(folded_after.agent_links, folded_before.agent_links);

    // More journaled activity lands *after* the checkpoint.
    let post = format!("{}/home/alice/post", w.path().full_path());
    client
        .write_file(ALICE_UID, &post, b"after checkpoint")
        .unwrap();
    let (mount, _, _) = client.resolve(ALICE_UID, &post).unwrap();
    let seq_before = mount.seq_watermark();

    plan.note_client_crash(w.clock.now());
    drop(client);
    drop(mount);

    let reborn = boot_client(&w, &journal, b"compact-client-reborn");
    let report = reborn.recover(ALICE_UID).unwrap();
    assert_eq!(report.remounted, vec![w.path().dir_name()], "{report:?}");
    assert!(report.agent_keys_restored >= 1, "{report:?}");
    assert!(report.agent_links_restored >= 1, "{report:?}");
    // State journaled before the checkpoint…
    assert_eq!(
        reborn.read_file(ALICE_UID, &pre).unwrap(),
        b"before checkpoint"
    );
    assert_eq!(
        reborn
            .read_file(ALICE_UID, "/sfs/mit/home/alice/pre")
            .unwrap(),
        b"before checkpoint"
    );
    // …and after it both survive the crash.
    assert_eq!(
        reborn.read_file(ALICE_UID, &post).unwrap(),
        b"after checkpoint"
    );
    let (mount, _, _) = reborn.resolve(ALICE_UID, &post).unwrap();
    assert!(
        mount.seq_watermark() >= seq_before,
        "seqno watermark regressed across a checkpointed restart"
    );
}

#[test]
fn seeded_crash_recovery_reruns_identically() {
    // Byte-for-byte reproducibility of a full crash/recover cycle under
    // wire faults: identical journal record counts, identical recovery
    // reports, identical virtual-time totals, identical fault logs.
    let run = || {
        let (w, journal, plan) = world("seed=304,drop=15,corrupt=10,ccrash=2s");
        let client = boot_client(&w, &journal, b"det-client");
        client.install_agent_key(ALICE_UID, w.user_key());
        let file = format!("{}/home/alice/det", w.path().full_path());
        client
            .write_file(ALICE_UID, &file, b"deterministic")
            .unwrap();
        // Cross the scheduled client-crash instant, then honour it.
        w.clock.advance_ns(2_500_000_000);
        assert_eq!(plan.client_epoch(w.clock.now()), 1);
        plan.note_client_crash(w.clock.now());
        drop(client);
        let reborn = boot_client(&w, &journal, b"det-client-reborn");
        let report = reborn.recover(ALICE_UID).unwrap();
        let data = reborn.read_file(ALICE_UID, &file).unwrap();
        (
            journal.len(),
            report.records_replayed,
            report.remounted,
            data,
            w.clock.now().as_nanos(),
            plan.events(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "crash-recovery run diverged across reruns");
}
