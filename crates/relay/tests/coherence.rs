//! The multi-client cache-coherence oracle with the relay interposed:
//! the same 21 seeded fault plans as `crates/core/tests/coherence.rs`,
//! but every dial now resolves through a [`ReplicaGroup`] fronting two
//! read-write replicas that share the exported file system and the
//! group's private key (one logical server, many frontends — a
//! replicated storage layer below them is out of scope).
//!
//! What the relay must not change: the oracle's verdict. Sizes stay
//! committed-only and monotone, stale reads stay lease-bounded, and a
//! rerun of any plan is byte-for-byte identical — round-robin routing is
//! part of the deterministic simulation, not a source of nondeterminism.
//!
//! The dedicated crash-during-handoff test kills the exact replica a
//! client is streaming through while a fault plan guarantees in-flight
//! calls die with it; the transparent reconnect redials through the
//! relay and must land on the surviving replica without the workload
//! observing anything but a retried call.

use sfs_bench::oracle::{self, Oracle, OracleSpec, RunOutcome, BATTERY, FILES, OP_GAP_NS};
use sfs_bench::world::{Behind, World, WorldSpec, UID};
use sfs_sim::FaultPlan;
use sfs_telemetry::Telemetry;

/// Read-write replicas behind the relay in every harness. Every replica
/// shares the VFS, the key and the fault plan, so a `crash=` instant
/// restarts the whole group — exactly like the single-machine battery —
/// while routing still round-robins every (re)dial across the frontends.
const N_RW: usize = 2;
const BEHIND: Behind = Behind::Relay(N_RW);

fn relay_harness(spec: &str, n_clients: usize) -> Oracle {
    Oracle::new(&OracleSpec::new(BEHIND, spec, n_clients))
}

/// Runs the seeded workload; health is the relay-observed reboot count.
fn run(h: Oracle, seed: u64) -> RunOutcome<u64> {
    h.run(seed, |w| {
        w.relay.as_ref().unwrap().health_check().reboots_observed
    })
}

#[test]
fn a_traced_relay_world_counts_its_routing() {
    // A traced spec's sink reaches the relay as it does every other
    // layer, so a `--trace` run of a relay world shows where its dials
    // went.
    let tel = Telemetry::counters();
    let spec = WorldSpec {
        behind: BEHIND,
        ..WorldSpec::test()
    };
    let w = World::build(&spec.traced(&tel));
    w.clients[0].mount(UID, w.path()).unwrap();
    assert!(tel.counter("relay", "route.rw") >= 1);
}

#[test]
fn coherence_oracle_passes_with_relay_interposed() {
    let mut crashes = 0;
    let mut reboots = 0;
    for (spec, n) in BATTERY {
        let out = run(relay_harness(spec, *n), 0x5EED);
        assert!(
            out.violations.is_empty(),
            "coherence violated behind the relay under {spec:?}: {:#?}",
            out.violations
        );
        crashes += out.crashes;
        reboots += out.health;
    }
    assert!(crashes >= 8, "the battery must exercise client restarts");
    assert!(
        reboots >= 2,
        "crash= plans must surface as relay-observed reboots, saw {reboots}"
    );
}

#[test]
fn relay_coherence_runs_reproduce_byte_for_byte() {
    // Round-robin routing is part of the deterministic simulation:
    // rerunning a plan — crash-restarts, reconnect-handoffs and all —
    // yields the identical outcome, reconnect and reboot counts included.
    for (spec, n) in [
        ("seed=409,ccrash=800ms", 2usize),
        ("seed=410,ccrash=700ms,crash=700ms", 2),
        (
            "seed=418,drop=25,dup=10,reorder=10,corrupt=10,delay=60,delay_ns=1ms",
            3,
        ),
    ] {
        let a = run(relay_harness(spec, n), 0x5EED);
        let b = run(relay_harness(spec, n), 0x5EED);
        assert_eq!(
            a, b,
            "relayed coherence run diverged across reruns of {spec:?}"
        );
    }
}

#[test]
fn routing_skips_dead_epoch_replicas_until_stable() {
    // Satellite of the health checker: a replica whose last health check
    // caught a crashed (advanced) boot epoch is skipped by round-robin —
    // and counted — instead of being handed to a client to discover the
    // hard way. A later check that sees the epoch hold still clears the
    // flag; and if *every* replica is in that state (a whole-group
    // crash), routing absorbs one restart rather than going dark.
    let h = relay_harness("seed=950", 1);
    let (servers, group) = (&h.world.servers, h.world.relay.as_ref().unwrap());
    let attached = (0..N_RW)
        .find(|&r| servers[r].load().streams() > 0)
        .expect("the mount streams through some replica");
    let survivor = 1 - attached;

    servers[attached].crash_restart();
    let health = group.health_check();
    assert!(health.reboots_observed >= 1);
    let skipped_before = group.skipped_dead();
    let survivor_streams = servers[survivor].load().streams();

    let fresh = |tag: &str| {
        let c = h.world.client(tag.as_bytes());
        h.world.login(&c);
        c
    };
    // Two consecutive dials: round-robin advances its start slot each
    // time, so at least one of them begins at the stale replica and must
    // skip it. Both land on the survivor either way.
    let c1 = fresh("skip-dead-1");
    c1.mount(UID, h.world.path()).unwrap();
    let c1b = fresh("skip-dead-1b");
    c1b.mount(UID, h.world.path()).unwrap();
    assert!(
        group.skipped_dead() > skipped_before,
        "a dial starting at the stale-epoch replica must skip it"
    );
    assert_eq!(
        servers[survivor].load().streams(),
        survivor_streams + 2,
        "both fresh mounts must land on the survivor"
    );

    // The epoch held still across another check: back in rotation,
    // no more skips.
    let _ = group.health_check();
    let skipped_stable = group.skipped_dead();
    let c2 = fresh("skip-dead-2");
    c2.mount(UID, h.world.path()).unwrap();
    assert_eq!(
        group.skipped_dead(),
        skipped_stable,
        "a stable replica must not be skipped"
    );

    // Whole-group crash: every replica looks stale, yet routing must
    // still serve by absorbing one of the restarts.
    for server in servers {
        server.crash_restart();
    }
    let _ = group.health_check();
    let c3 = fresh("skip-dead-3");
    c3.mount(UID, h.world.path())
        .expect("an all-stale group must still route");
    assert!(group.skipped_dead() > skipped_stable);
}

#[test]
fn crash_during_handoff_lands_on_surviving_replica() {
    // A client streams appends through one replica of a two-replica
    // group. The health monitor pulls that replica from rotation for
    // maintenance, and before the session can drain the machine crashes
    // outright — killing the connection mid-workload. The client's
    // transparent reconnect redials through the relay, which now routes
    // to the survivor; the workload sees nothing but a retried call and
    // the oracle stays green.
    let mut h = relay_harness("seed=930", 1);
    let (servers, group) = (h.world.servers.clone(), h.world.relay.clone().unwrap());
    // Warm up with scored traffic so the crash interrupts a real stream.
    for k in 0..4 {
        h.world.clock.advance_ns(OP_GAP_NS);
        h.write(0, k % FILES);
        h.read_and_check(0, k % FILES);
    }
    assert!(
        h.world.clock.now().as_nanos() < 500_000_000,
        "warm-up overran the scheduled crash instant"
    );
    let attached = (0..N_RW)
        .find(|&r| servers[r].load().streams() > 0)
        .expect("the mount streams through some replica");
    let survivor = 1 - attached;
    assert_eq!(
        servers[survivor].load().streams(),
        0,
        "a single mount holds a single stream"
    );
    // Schedule the crash on exactly the attached machine and take it out
    // of rotation so the redial cannot land back on it post-restart.
    servers[attached].set_fault_plan(FaultPlan::from_spec("seed=931,crash=500ms").unwrap());
    group.mark_down(attached);

    for k in 0..12 {
        h.world.clock.advance_ns(OP_GAP_NS);
        h.write(0, k % FILES);
        h.read_and_check(0, k % FILES);
        h.wire_read_and_check(0, k % FILES);
    }

    assert!(h.violations.is_empty(), "{:#?}", h.violations);
    assert!(
        h.mounts[0].reconnects() >= 1,
        "the mid-workload crash must force a transparent reconnect"
    );
    assert_eq!(
        servers[survivor].load().streams(),
        1,
        "the mount must now stream through the surviving replica"
    );
    assert_eq!(
        servers[attached].load().streams(),
        0,
        "the dead replica's stream must be torn down"
    );
    let health = group.health_check();
    assert!(
        health.reboots_observed >= 1,
        "the health check must observe the crashed replica's epoch bump"
    );
    assert_eq!(health.live_rw, 1);
    assert_eq!(health.down_rw, 1);

    // Every byte written across the handoff is durable and in order.
    for f in 0..FILES {
        let p = format!("{}/public/coh-{f}", h.world.path().full_path());
        assert_eq!(
            h.world.clients[0].read_file(UID, &p).unwrap(),
            h.contents[f],
            "file {f} lost bytes across the handoff"
        );
    }
}

#[test]
fn oracle_detects_deliberately_torn_write_behind_the_relay() {
    oracle::detects_torn_write(BEHIND);
}

#[test]
fn oracle_detects_deliberately_injected_stale_read_behind_the_relay() {
    oracle::detects_injected_stale_read(BEHIND);
}
