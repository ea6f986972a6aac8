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
//! it must stay inside a fixed envelope and — the acknowledged-commit
//! guarantee — not one acked byte may be missing afterwards.
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
//! on a fixed tick, exactly like `ClientError::Busy`); the controlled
//! storm's worst-client latency must beat the uncontrolled stampede.
//!
//! `--smoke` shrinks both phases. `--faults` threads a fault plan
//! through Phase A's wire: the recovery-time and storm envelopes become
//! performance checks, while exactly-one-promotion and zero lost acked
//! writes hold under any plan.

use sfs_nfs3::proto::{Nfs3Reply, Nfs3Request, StableHow};
use sfs_relay::AdmissionControl;
use sfs_sim::{ChurnSchedule, FaultPlan, SimTime};

use crate::driver::{Ctx, Report};
use crate::report::{Check, Obj};
use crate::world::{Behind, KeySeeds, World, WorldSpec, UID};

/// Replica-group shape in both phases.
const MEMBERS: usize = 3;
const QUORUM: usize = 2;

/// Phase A: appends in the burst (the primary dies halfway through);
/// Phase B: the redialling population, its churn waves, and the token
/// bucket's capacity — full mode, then smoke.
const SIZES_FULL: (usize, usize, usize, u64) = (32, 24, 4, 4);
const SIZES_SMOKE: (usize, usize, usize, u64) = (12, 8, 2, 2);

/// Phase A envelope: promotion + reconnect + replay must fit here.
const RECOVERY_BOUND_NS: u64 = 1_000_000_000;

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
const ADMIT_REFILL_PER_SEC: u64 = 25;
const RETRY_TICK_NS: u64 = 20_000_000;

/// Phase A, end to end on the real stack.
fn run_recovery(writes: usize, plan: Option<&FaultPlan>) -> Obj {
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
    let intact = served.iter().zip(&expected).take_while(|(a, b)| a == b);
    let lost_acked_writes = expected.len().saturating_sub(intact.count()) as u64;
    assert_eq!(
        served, expected,
        "the promoted backup must serve exactly the acked history"
    );
    Obj::new()
        .num("writes", writes)
        .num("baseline_max_ns", baseline_max_ns)
        .num("recovery_ns", recovery_ns)
        .num("promotions", group.promotions())
        .num("commit_lsn", group.commit_lsn())
        .num("reconnects", mount.reconnects())
        .num("lost_acked_writes", lost_acked_writes)
        .num("total_ns", clock.now().as_nanos())
}

/// Phase B: a deterministic processor-sharing storm. Every in-flight
/// rekey timeslices the primary's single key CPU, and a handshake
/// admitted onto a busy server is inflated by [`CONVOY_PM`] per rekey
/// already running; the token bucket trades a short queueing delay for
/// never forming that convoy.
fn run_storm(m: usize, schedule: &ChurnSchedule, admission: Option<&AdmissionControl>) -> Obj {
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

    assert!(
        done.iter().all(|&d| d > 0),
        "every redialling client must eventually be admitted and finish"
    );
    let latencies = done
        .iter()
        .zip(&arrivals)
        .map(|(&d, &a)| d.saturating_sub(a));
    Obj::new()
        .num("admission", admission.is_some())
        .num("clients", m)
        .num("waves", waves.len())
        .num("worst_client_ns", latencies.clone().max().unwrap_or(0))
        .num("mean_client_ns", latencies.sum::<u64>() / m.max(1) as u64)
        .num("throttled", throttled)
        .num("completed", done.len())
        .num("total_ns", now)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let (writes, storm_clients, storm_waves, capacity) =
        if ctx.smoke { SIZES_SMOKE } else { SIZES_FULL };
    let recovery = run_recovery(writes, ctx.faults.plan());
    let schedule = ChurnSchedule::generate(0x57AB, storm_waves, 300_000_000, 80_000_000);
    let uncontrolled = run_storm(storm_clients, &schedule, None);
    let bucket = AdmissionControl::new(capacity, ADMIT_REFILL_PER_SEC);
    let controlled = run_storm(storm_clients, &schedule, Some(&bucket));

    let worst_ms = |storm: &Obj| storm.number("worst_client_ns") / 1e6;
    let checks = vec![
        Check::invariant(
            "the crash causes exactly one promotion",
            recovery.number("promotions") == 1.0,
            format!("{} promotion(s)", recovery.number("promotions")),
        ),
        Check::invariant(
            "no acked write is missing after failover",
            recovery.number("lost_acked_writes") == 0.0,
            format!("{} lost", recovery.number("lost_acked_writes")),
        ),
        Check::perf(
            "crash-to-ack recovery fits its envelope",
            recovery.number("recovery_ns") <= RECOVERY_BOUND_NS as f64,
            format!(
                "{} ns, envelope {RECOVERY_BOUND_NS} ns",
                recovery.number("recovery_ns")
            ),
        ),
        Check::perf(
            "the burst reconnected, so the crash was in the measurement",
            recovery.number("reconnects") > 0.0,
            format!("{} reconnect(s)", recovery.number("reconnects")),
        ),
        Check::perf(
            "admission control beats the stampede on worst-client latency",
            worst_ms(&controlled) < worst_ms(&uncontrolled),
            format!(
                "{:.1} ms controlled vs {:.1} ms uncontrolled",
                worst_ms(&controlled),
                worst_ms(&uncontrolled)
            ),
        ),
        Check::perf(
            "the controlled storm throttled, so the bucket did something",
            controlled.number("throttled") > 0.0,
            format!("{} throttles", controlled.number("throttled")),
        ),
    ];
    let final_ns = recovery.number("total_ns") as u64;
    let header = Obj::new()
        .str("schema", "sfs-bench/failover/v1")
        .str("mode", ctx.mode())
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
        .obj("recovery", recovery);
    Ok(Report {
        header,
        rows_key: "storm",
        rows: vec![uncontrolled, controlled],
        checks,
        final_ns,
        ..Report::default()
    })
}
