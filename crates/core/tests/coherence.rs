//! The coherence oracle ([`sfs_bench::oracle`]) against one server: the
//! 21-plan battery, its reruns at cores ∈ {1, 4} and under the
//! negotiated ChaCha suite, every pipeline window, and the oracle's own
//! injected-bug self-tests.

use std::collections::BTreeSet;

use sfs::client::DEFAULT_PIPELINE_WINDOW;
use sfs_bench::oracle::{self, Oracle, OracleSpec, RunOutcome, BATTERY};
use sfs_bench::world::{Behind, UID};
use sfs_proto::channel::SuiteId;
use sfs_sim::FaultKind;

fn harness(spec: &str, n_clients: usize) -> Oracle {
    Oracle::new(&OracleSpec::new(Behind::Servers, spec, n_clients))
}

fn harness_windowed(spec: &str, n_clients: usize, window: usize) -> Oracle {
    Oracle::new(&OracleSpec {
        window,
        ..OracleSpec::new(Behind::Servers, spec, n_clients)
    })
}

fn run_spec(spec: &str, seed: u64, n_clients: usize) -> RunOutcome<()> {
    harness(spec, n_clients).run(seed, |_| ())
}

fn run_spec_cores(spec: &str, seed: u64, n_clients: usize, cores: usize) -> RunOutcome<()> {
    let h = harness(spec, n_clients);
    h.world.servers[0].set_cores(cores);
    h.run(seed, |_| ())
}

#[test]
fn coherence_oracle_passes_over_all_seeded_fault_plans() {
    let mut seen: BTreeSet<&'static str> = BTreeSet::new();
    let mut crashes = 0;
    for (spec, n) in BATTERY {
        let out = run_spec(spec, 0x5EED, *n);
        assert!(
            out.violations.is_empty(),
            "coherence violated under {spec:?}: {:#?}",
            out.violations
        );
        seen.extend(out.events.iter().map(|e| e.kind.label()));
        crashes += out.crashes;
    }
    assert!(crashes >= 8, "the battery must exercise client restarts");
    // Across the battery every fault kind shows up, client crashes
    // included.
    for kind in [
        FaultKind::Drop,
        FaultKind::Duplicate,
        FaultKind::Reorder,
        FaultKind::Corrupt,
        FaultKind::Delay,
        FaultKind::Partition,
        FaultKind::ServerCrash,
        FaultKind::ClientCrash,
        FaultKind::DiskSyncFail,
    ] {
        assert!(
            seen.contains(kind.label()),
            "no coherence plan injected {:?}; saw {seen:?}",
            kind.label()
        );
    }
}

#[test]
fn multicore_dispatch_causes_no_semantic_drift_in_the_oracle_battery() {
    // The full 21-plan battery reruns with the shard engine installed at
    // cores ∈ {1, 4}. The blocking oracle workload must be *byte-for-byte*
    // identical to the pre-shard baseline — same virtual-time total, same
    // fault log, same sizes, journals, and crash count — because the
    // engine only reschedules windowed traffic and the sharded reply
    // cache is semantically identical to the flat map it replaced (the
    // dup/drop plans replay retransmissions through it at 4 shards).
    for (spec, n) in BATTERY {
        let baseline = run_spec(spec, 0x5EED, *n);
        assert!(baseline.violations.is_empty(), "{spec:?}");
        for cores in [1usize, 4] {
            let out = run_spec_cores(spec, 0x5EED, *n, cores);
            assert_eq!(
                out, baseline,
                "op log drifted from the pre-shard baseline under {spec:?} \
                 at cores={cores}"
            );
        }
    }
}

#[test]
fn negotiated_chacha_suite_passes_the_oracle_battery_at_both_core_counts() {
    // The full 21-plan battery reruns with every client incarnation
    // offering ChaCha20-Poly1305 (negotiated, not assumed: a stripped
    // offer would fail key confirmation and show up as violations or a
    // hang) at cores ∈ {1, 4}. Frame sizes differ from the ARC4 baseline
    // (16-byte tag vs 20-byte MAC) so virtual-time totals are not
    // compared — the oracle's coherence rules and per-configuration
    // determinism are the invariants.
    for (spec, n) in BATTERY {
        let mut per_core = Vec::new();
        for cores in [1usize, 4] {
            let h = Oracle::new(&OracleSpec {
                suite: Some(SuiteId::ChaCha20Poly1305),
                ..OracleSpec::new(Behind::Servers, spec, *n)
            });
            h.world.servers[0].set_cores(cores);
            let out = h.run(0x5EED, |_| ());
            assert!(
                out.violations.is_empty(),
                "coherence violated under {spec:?} with chacha at cores={cores}: {:#?}",
                out.violations
            );
            per_core.push(out);
        }
        // The shard engine must not perturb the blocking oracle workload
        // under the negotiated suite either.
        assert_eq!(
            per_core[0], per_core[1],
            "chacha oracle run drifted between core counts under {spec:?}"
        );
    }
}

#[test]
fn multicore_dispatch_is_deterministic_across_reruns() {
    for (spec, n) in [
        ("seed=409,ccrash=800ms", 2usize),
        (
            "seed=418,drop=25,dup=10,reorder=10,corrupt=10,delay=60,delay_ns=1ms",
            3,
        ),
    ] {
        let a = run_spec_cores(spec, 0x5EED, n, 4);
        let b = run_spec_cores(spec, 0x5EED, n, 4);
        assert_eq!(a, b, "4-core run diverged across reruns of {spec:?}");
    }
}

#[test]
fn windowed_streams_are_coherent_under_multicore_dispatch() {
    // The engine-exercising variant: streamed write-behind/read-ahead
    // traffic goes through the windowed exchange, so seal/open really is
    // scheduled across cores here (asserted via frames scheduled). The
    // bytes must survive the faulty wire at every core count, and each
    // configuration must reproduce exactly.
    let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
    for cores in [1usize, 4] {
        let mut elapsed = Vec::new();
        for _ in 0..2 {
            let h = harness("seed=453,reorder=20,dup=10", 2);
            let server = &h.world.servers[0];
            server.set_cores(cores);
            let p = format!("{}/public/stream", h.world.path().full_path());
            h.world.clients[0].write_file(UID, &p, &data).unwrap();
            assert_eq!(
                h.world.clients[1].read_file(UID, &p).unwrap(),
                data,
                "cross-client stream lost bytes at cores={cores}"
            );
            let engine = server.shard_engine().expect("engine installed");
            assert!(
                engine.frames_scheduled() > 0,
                "the shard engine never scheduled any work"
            );
            elapsed.push(h.world.clock.now().as_nanos());
        }
        assert_eq!(
            elapsed[0], elapsed[1],
            "multicore stream diverged across reruns at cores={cores}"
        );
    }
}

#[test]
fn coherence_runs_reproduce_byte_for_byte() {
    // A subset of plans — including client crash-restarts — rerun
    // identically: same virtual-time totals, same fault logs, same final
    // sizes, same journal record counts, same (empty) violation list.
    for (spec, n) in [
        ("seed=409,ccrash=800ms", 2usize),
        ("seed=410,ccrash=700ms,crash=700ms", 2),
        (
            "seed=418,drop=25,dup=10,reorder=10,corrupt=10,delay=60,delay_ns=1ms",
            3,
        ),
    ] {
        let a = run_spec(spec, 0x5EED, n);
        let b = run_spec(spec, 0x5EED, n);
        assert_eq!(a, b, "coherence run diverged across reruns of {spec:?}");
    }
}

#[test]
fn oracle_detects_deliberately_torn_write() {
    oracle::detects_torn_write(Behind::Servers);
}

#[test]
fn oracle_detects_deliberately_injected_stale_read() {
    oracle::detects_injected_stale_read(Behind::Servers);
}

#[test]
fn coherence_oracle_holds_at_every_pipeline_window() {
    // The oracle's rules are window-agnostic: whether a client keeps one
    // or sixteen calls in flight, committed sizes stay monotone and
    // lease-bounded. Swept at the blocking depth and beyond the default,
    // over plans that stress reordering (the pipeline's worst enemy) and
    // client crashes (reborn incarnations inherit the window).
    for window in [1usize, DEFAULT_PIPELINE_WINDOW, 16] {
        for (spec, n) in [
            ("seed=403,reorder=25", 2usize),
            ("seed=413,drop=10,reorder=15,delay=80,delay_ns=1ms", 4),
            ("seed=411,drop=15,dup=10,ccrash=900ms", 3),
        ] {
            let a = harness_windowed(spec, n, window).run(0x5EED, |_| ());
            assert!(
                a.violations.is_empty(),
                "coherence violated under {spec:?} at window {window}: {:#?}",
                a.violations
            );
            let b = harness_windowed(spec, n, window).run(0x5EED, |_| ());
            assert_eq!(
                a, b,
                "windowed coherence run diverged across reruns of {spec:?} \
                 at window {window}"
            );
        }
    }
}

#[test]
fn windowed_streams_are_coherent_across_clients() {
    // Client 0 streams a multi-chunk file through the write-behind queue
    // (flushed by the close barrier); client 1 read-ahead-streams it
    // back. The bytes must survive the faulty wire and the handoff
    // between two independently-mounted clients.
    let h = harness("seed=452,reorder=20,dup=10", 2);
    let p = format!("{}/public/stream", h.world.path().full_path());
    let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
    h.world.clients[0].write_file(UID, &p, &data).unwrap();
    assert_eq!(
        h.world.clients[1].read_file(UID, &p).unwrap(),
        data,
        "cross-client stream lost or reordered bytes"
    );
}
