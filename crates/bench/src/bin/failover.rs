//! `failover`: time-to-recover and cold-start stampede cost for the
//! replicated write path.
//!
//! Two phases, one story: what does a primary crash cost the clients,
//! and what keeps the recovery itself from becoming the next outage?
//!
//! **Phase A — recovery.** The full stack, for real: a three-member
//! [`sfs_relay::ReplGroup`] (quorum 2) behind the relay, one client
//! streaming durable one-byte appends. Mid-burst the bench kills the
//! primary outright. The next append rides the client's transparent
//! reconnect through the relay, which observes the epoch bump, promotes
//! the most-caught-up backup (replaying its log first), and serves the
//! retried call. Time-to-recover is that one op's virtual-time cost;
//! the bench asserts it stays inside a fixed envelope and — the
//! acknowledged-commit guarantee — that not one acked byte is missing
//! afterwards.
//!
//! **Phase B — stampede.** When a whole replica set restarts, every
//! client redials at once and each admission costs the server a
//! private-key operation (§3.4: the Rabin decryption dominating SFS
//! connection setup). The storm is a deterministic processor-sharing
//! model over [`sfs_sim::ChurnSchedule`] reconnect waves: concurrent
//! rekeys timeslice the primary's one key CPU, and a handshake that
//! joins an already-busy server pays a *convoy penalty* on top — its
//! RPCs ride a queue deep enough to time out and retransmit, so its
//! total work grows with the number of rekeys already in flight. That
//! superlinearity is the whole case for admission control: a wave
//! admitted whole costs more total CPU than the same wave admitted in
//! file. Run once uncontrolled and once behind the relay's production
//! [`sfs_relay::AdmissionControl`] token bucket (throttled dials retry
//! on a fixed tick, exactly like `ClientError::Busy`). The bench
//! asserts the controlled storm's worst-client latency beats the
//! uncontrolled stampede, and that both phases reproduce byte-for-byte
//! when rerun.
//!
//! Results land in `BENCH_failover.json`; `--smoke` shrinks both phases
//! for CI. `--faults <spec>` threads a fault plan through Phase A's
//! wire (the recovery envelope and the rerun-determinism check are
//! skipped — a stateful plan shared across reruns legitimately
//! diverges — and the fault envelope is asserted instead).
//!
//! Usage: `cargo run --release -p sfs-bench --bin failover [-- --smoke] [--out PATH] [--faults SPEC]`

use sfs_bench::args::{Args, FaultOpt};
use sfs_bench::report::{rerun_identical, write_artifact, Obj};
use sfs_bench::world::{Behind, KeySeeds, World, WorldSpec, UID};
use sfs_nfs3::proto::{Nfs3Reply, Nfs3Request, StableHow};
use sfs_relay::AdmissionControl;
use sfs_sim::{ChurnSchedule, FaultPlan, SimTime};

/// Replica-group shape in both phases.
const MEMBERS: usize = 3;
const QUORUM: usize = 2;

/// Phase A: appends in the burst; the primary dies halfway through.
const WRITES_FULL: usize = 32;
const WRITES_SMOKE: usize = 12;

/// Phase A envelope: promotion + reconnect + replay must fit here.
const RECOVERY_BOUND_NS: u64 = 1_000_000_000;

/// Phase B: the redialling population and its churn waves.
const STORM_CLIENTS_FULL: usize = 24;
const STORM_WAVES_FULL: usize = 4;
const STORM_CLIENTS_SMOKE: usize = 8;
const STORM_WAVES_SMOKE: usize = 2;

/// Server-side cost of admitting one cold client onto an idle server:
/// the private-key (Rabin) decryption in the session-key negotiation,
/// plus the handshake's wire round trips.
const HANDSHAKE_WORK_NS: u64 = 26_000_000;

/// Convoy penalty, per rekey already in flight at admission, in
/// per-mille of [`HANDSHAKE_WORK_NS`]: joining a server with `k`
/// handshakes running costs `(1 + k/2)×` the idle-server work, because
/// the newcomer's RPCs queue long enough to time out and retransmit.
const CONVOY_PM: u64 = 500;

/// Token bucket for the controlled runs; throttled dials retry on a
/// fixed tick (the client's `Busy` backoff, simplified to its floor).
const ADMIT_CAPACITY_FULL: u64 = 4;
const ADMIT_CAPACITY_SMOKE: u64 = 2;
const ADMIT_REFILL_PER_SEC: u64 = 25;
const RETRY_TICK_NS: u64 = 20_000_000;

#[derive(Debug, Clone, PartialEq)]
struct RecoveryRow {
    writes: usize,
    baseline_max_ns: u64,
    recovery_ns: u64,
    promotions: u64,
    commit_lsn: u64,
    reconnects: u64,
    lost_acked_writes: u64,
    total_ns: u64,
}

/// Phase A, end to end on the real stack.
fn run_recovery(writes: usize, plan: Option<&FaultPlan>) -> RecoveryRow {
    let world = World::build(&WorldSpec {
        keys: KeySeeds {
            servers: &[0xFA11],
            user: 0xFA12,
            srp: 0xFA13,
            ephemeral: Some(0xFA14),
        },
        server_entropy: "failover-bench-server-{}",
        client_entropy: "failover-bench-client",
        lease_ns: Some(250_000_000),
        behind: Behind::Replicated {
            members: MEMBERS,
            quorum: QUORUM,
        },
        ..WorldSpec::test().faulted(plan)
    });
    let (clock, client) = (&world.clock, &world.clients[0]);
    let group = world.repl.as_ref().expect("replicated world");
    let path = world.path();
    let mount = client.mount(UID, path).unwrap();
    let file = format!("{}/public/burst", path.full_path());
    client.write_file(UID, &file, b"").unwrap();
    let (_, fh, _) = client.resolve(UID, &file).unwrap();

    let mut expected = Vec::new();
    let mut baseline_max_ns = 0u64;
    let mut recovery_ns = 0u64;
    for k in 0..writes {
        if k == writes / 2 {
            // The primary dies between two acked appends of the burst.
            group.member_server(0).crash_restart();
        }
        let byte = b'a' + (k % 26) as u8;
        let t0 = clock.now().as_nanos();
        let reply = client
            .call_nfs(
                &mount,
                UID,
                &Nfs3Request::Write {
                    fh: fh.clone(),
                    offset: expected.len() as u64,
                    stable: StableHow::FileSync,
                    data: vec![byte],
                },
            )
            .unwrap();
        assert!(matches!(reply, Nfs3Reply::Write { count: 1, .. }));
        expected.push(byte);
        let dt = clock.now().as_nanos() - t0;
        if k == writes / 2 {
            recovery_ns = dt;
        } else if k < writes / 2 {
            baseline_max_ns = baseline_max_ns.max(dt);
        }
    }

    // The acknowledged-commit guarantee, audited byte-for-byte: the
    // promoted backup serves every acked append, in order.
    let served = client.read_file(UID, &file).unwrap();
    let lost = expected.len().saturating_sub(
        served
            .iter()
            .zip(expected.iter())
            .take_while(|(a, b)| a == b)
            .count(),
    ) as u64;
    assert_eq!(
        served, expected,
        "the promoted backup must serve exactly the acked history"
    );
    RecoveryRow {
        writes,
        baseline_max_ns,
        recovery_ns,
        promotions: group.promotions(),
        commit_lsn: group.commit_lsn(),
        reconnects: mount.reconnects(),
        lost_acked_writes: lost,
        total_ns: clock.now().as_nanos(),
    }
}

#[derive(Debug, Clone, PartialEq)]
struct StormRow {
    admission: bool,
    clients: usize,
    waves: usize,
    worst_client_ns: u64,
    mean_client_ns: u64,
    throttled: u64,
    completed: usize,
    total_ns: u64,
}

/// Phase B: a deterministic processor-sharing storm. Every in-flight
/// rekey timeslices the primary's single key CPU, and a handshake
/// admitted onto a busy server is inflated by [`CONVOY_PM`] per rekey
/// already running; the token bucket trades a short queueing delay for
/// never forming that convoy.
fn run_storm(m: usize, schedule: &ChurnSchedule, admission: Option<&AdmissionControl>) -> StormRow {
    let waves = schedule.waves();
    let mut arrival: Vec<Option<u64>> = vec![None; m];
    for (w, wave) in waves.iter().enumerate() {
        for (c, slot) in arrival.iter_mut().enumerate() {
            if slot.is_none() && schedule.selects(w, c) {
                *slot = Some(wave.at.as_nanos());
            }
        }
    }
    // Anyone the waves never picked redials in the last wave: the storm
    // must account for the whole population.
    let last_wave = waves.last().map(|w| w.at.as_nanos()).unwrap_or(0);
    let arrivals: Vec<u64> = arrival
        .into_iter()
        .map(|a| a.unwrap_or(last_wave))
        .collect();

    struct Flight {
        client: usize,
        remaining_ns: u64,
    }
    let mut pending: Vec<(u64, usize)> = arrivals.iter().copied().zip(0..m).collect();
    pending.sort_unstable();
    pending.reverse(); // pop earliest from the back
    let mut retry: Vec<(u64, usize)> = Vec::new();
    let mut in_flight: Vec<Flight> = Vec::new();
    let mut done = vec![0u64; m];
    let mut throttled = 0u64;
    let mut now = 0u64;

    loop {
        let t_arrival = pending.last().map(|&(t, _)| t);
        let t_retry = retry.iter().map(|&(t, _)| t).min();
        let t_finish = in_flight
            .iter()
            .map(|f| f.remaining_ns)
            .min()
            .map(|w| now + w.saturating_mul(in_flight.len() as u64));
        let Some(next) = [t_arrival, t_retry, t_finish].into_iter().flatten().min() else {
            break;
        };
        if next > now && !in_flight.is_empty() {
            // Processor sharing: k concurrent rekeys each progress at 1/k.
            let share = (next - now) / in_flight.len() as u64;
            for f in &mut in_flight {
                f.remaining_ns = f.remaining_ns.saturating_sub(share);
            }
        }
        now = next;
        in_flight.retain(|f| {
            if f.remaining_ns == 0 {
                done[f.client] = now;
                false
            } else {
                true
            }
        });
        let mut due: Vec<usize> = Vec::new();
        while pending.last().is_some_and(|&(t, _)| t <= now) {
            due.push(pending.pop().unwrap().1);
        }
        retry.retain(|&(t, c)| {
            if t <= now {
                due.push(c);
                false
            } else {
                true
            }
        });
        due.sort_unstable();
        for c in due {
            let admitted = admission
                .map(|ac| ac.admit(SimTime::from_micros(now / 1_000)))
                .unwrap_or(true);
            if admitted {
                let convoy = in_flight.len() as u64 * CONVOY_PM;
                in_flight.push(Flight {
                    client: c,
                    remaining_ns: HANDSHAKE_WORK_NS * (1000 + convoy) / 1000,
                });
            } else {
                throttled += 1;
                retry.push((now + RETRY_TICK_NS, c));
            }
        }
    }

    let latencies: Vec<u64> = done
        .iter()
        .zip(arrivals.iter())
        .map(|(&d, &a)| d.saturating_sub(a))
        .collect();
    assert!(
        done.iter().all(|&d| d > 0),
        "every redialling client must eventually be admitted and finish"
    );
    StormRow {
        admission: admission.is_some(),
        clients: m,
        waves: waves.len(),
        worst_client_ns: latencies.iter().copied().max().unwrap_or(0),
        mean_client_ns: latencies.iter().sum::<u64>() / m.max(1) as u64,
        throttled,
        completed: done.len(),
        total_ns: now,
    }
}

fn main() {
    let args = Args::from_env();
    args.enforce_known(&["out", "faults"], &["smoke"]);
    let smoke = std::env::args().any(|a| a == "--smoke");
    let faults = FaultOpt::from_args();
    let out_path = args
        .opt("out")
        .unwrap_or_else(|| "BENCH_failover.json".into());
    let (writes, storm_clients, storm_waves, capacity) = if smoke {
        (
            WRITES_SMOKE,
            STORM_CLIENTS_SMOKE,
            STORM_WAVES_SMOKE,
            ADMIT_CAPACITY_SMOKE,
        )
    } else {
        (
            WRITES_FULL,
            STORM_CLIENTS_FULL,
            STORM_WAVES_FULL,
            ADMIT_CAPACITY_FULL,
        )
    };

    println!("== failover: {MEMBERS}-member group, quorum {QUORUM} ==");
    // A fault plan is stateful (its RNG advances as it injects), so a
    // faulted rerun legitimately diverges; determinism is only asserted
    // on clean runs.
    let recovery = if faults.enabled() {
        run_recovery(writes, faults.plan())
    } else {
        rerun_identical("recovery", || run_recovery(writes, None))
    };
    println!(
        "  recovery: {} writes, baseline max {} ns/op, crash-to-ack {} ns, {} promotion(s), 0 acked writes lost",
        recovery.writes, recovery.baseline_max_ns, recovery.recovery_ns, recovery.promotions,
    );

    let schedule = ChurnSchedule::generate(0x57AB, storm_waves, 300_000_000, 80_000_000);
    let uncontrolled = rerun_identical("stampede", || run_storm(storm_clients, &schedule, None));
    let controlled = rerun_identical("admission-controlled storm", || {
        let bucket = AdmissionControl::new(capacity, ADMIT_REFILL_PER_SEC);
        run_storm(storm_clients, &schedule, Some(&bucket))
    });
    for s in [&uncontrolled, &controlled] {
        println!(
            "  storm ({}): {} clients in {} waves, worst {} ns, mean {} ns, {} throttles",
            if s.admission { "admission" } else { "stampede" },
            s.clients,
            s.waves,
            s.worst_client_ns,
            s.mean_client_ns,
            s.throttled,
        );
    }

    let header = Obj::new()
        .str("schema", "sfs-bench/failover/v1")
        .str("mode", if smoke { "smoke" } else { "full" })
        .obj(
            "replication",
            Obj::new().num("members", MEMBERS).num("quorum", QUORUM),
        )
        .obj(
            "admission",
            Obj::new()
                .num("capacity", capacity)
                .num("refill_per_sec", ADMIT_REFILL_PER_SEC)
                .num("retry_tick_ns", RETRY_TICK_NS)
                .num("handshake_work_ns", HANDSHAKE_WORK_NS)
                .num("convoy_pm", CONVOY_PM),
        )
        .obj(
            "unit",
            Obj::new().str("*_ns", "nanoseconds of virtual time"),
        )
        .obj(
            "recovery",
            Obj::new()
                .num("writes", recovery.writes)
                .num("baseline_max_ns", recovery.baseline_max_ns)
                .num("recovery_ns", recovery.recovery_ns)
                .num("promotions", recovery.promotions)
                .num("commit_lsn", recovery.commit_lsn)
                .num("reconnects", recovery.reconnects)
                .num("lost_acked_writes", recovery.lost_acked_writes)
                .num("total_ns", recovery.total_ns),
        );
    let storms: Vec<Obj> = [&uncontrolled, &controlled]
        .iter()
        .map(|s| {
            Obj::new()
                .num("admission", s.admission)
                .num("clients", s.clients)
                .num("waves", s.waves)
                .num("worst_client_ns", s.worst_client_ns)
                .num("mean_client_ns", s.mean_client_ns)
                .num("throttled", s.throttled)
                .num("completed", s.completed)
                .num("total_ns", s.total_ns)
        })
        .collect();
    write_artifact(&out_path, &header, "storm", &storms);

    let mut failed = false;
    if recovery.promotions != 1 {
        eprintln!(
            "FAIL: the crash must cause exactly one promotion, saw {}",
            recovery.promotions
        );
        failed = true;
    }
    if recovery.lost_acked_writes != 0 {
        eprintln!(
            "FAIL: {} acked writes missing after failover",
            recovery.lost_acked_writes
        );
        failed = true;
    }

    faults.finish();
    faults.assert_envelope(recovery.total_ns);
    if faults.enabled() {
        println!("perf envelope skipped under --faults");
        if failed {
            std::process::exit(1);
        }
        return;
    }

    if recovery.recovery_ns > RECOVERY_BOUND_NS {
        eprintln!(
            "FAIL: crash-to-ack recovery took {} ns, envelope is {} ns",
            recovery.recovery_ns, RECOVERY_BOUND_NS
        );
        failed = true;
    }
    if recovery.reconnects == 0 {
        eprintln!(
            "FAIL: the burst never reconnected — the crash was not actually in the measurement"
        );
        failed = true;
    }
    if controlled.worst_client_ns >= uncontrolled.worst_client_ns {
        eprintln!(
            "FAIL: admission control must beat the stampede: worst {} ns (controlled) vs {} ns (uncontrolled)",
            controlled.worst_client_ns, uncontrolled.worst_client_ns
        );
        failed = true;
    }
    if controlled.throttled == 0 {
        eprintln!("FAIL: the controlled storm never throttled — the bucket did nothing");
        failed = true;
    }
    println!(
        "admission control: worst-client {:.1} ms vs {:.1} ms uncontrolled ({:.2}x better)",
        controlled.worst_client_ns as f64 / 1e6,
        uncontrolled.worst_client_ns as f64 / 1e6,
        uncontrolled.worst_client_ns as f64 / controlled.worst_client_ns.max(1) as f64,
    );
    if failed {
        std::process::exit(1);
    }
}
