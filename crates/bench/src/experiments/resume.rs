//! `resume`: the post-restart reconnect storm — session-resumption
//! tickets against the full Figure-3 re-handshake.
//!
//! A fleet of clients, each on its own virtual clock, mounts one
//! server, banks a resumption ticket per session, and keeps working.
//! The server then crash-restarts (all session state gone; only its
//! private key survives, and with it the ticket-sealing key), and the
//! whole fleet reconnects at once through the first post-restart
//! operation. The experiment has two arms:
//!
//! - **resumed**: tickets on — every reconnect should present its
//!   banked single-use ticket and pay one round trip;
//! - **full-handshake**: `set_resumption(false)` — every reconnect
//!   repeats the 2-RT key negotiation, Rabin decryption included.
//!
//! Envelope: ≥ 90% of the resumed arm's reconnects are ticket hits
//! (every client banked a ticket, so anything less means the machinery
//! dropped some); each saves exactly one round trip; and the resumed
//! arm's **worst-client** storm latency beats the full-handshake arm's
//! — the tail is what a restart storm is about.
//!
//! Options: `--suite NAME` (default `chacha20-poly1305`), `--clients N`
//! (default 64, smoke 8).

use sfs_proto::channel::SuiteId;

use super::suite;
use crate::calib::BENCH_UID;
use crate::driver::{Ctx, Report};
use crate::report::{Check, Obj};
use crate::world::{KeySeeds, World, WorldSpec};

/// Floor on the resumed arm's ticket-hit rate.
const HIT_RATE_FLOOR: f64 = 0.90;

/// One memory-backed server, `clients` fleet members each on an
/// independent clock and network (a restart storm is many machines
/// reconnecting at once, not one shared timeline).
fn fleet(clients: usize, suite: SuiteId, resumption: bool) -> World {
    let world = World::build(&WorldSpec {
        keys: KeySeeds {
            servers: &[0x7E5],
            user: 0x7E6,
            srp: 0x7E7,
            ephemeral: None,
        },
        locations: &["resume.bench"],
        server_entropy: "resume-bench-server",
        client_entropy: "resume-client-{}",
        disk: None,
        clients,
        own_clocks: true,
        ..WorldSpec::bench()
    });
    for client in &world.clients {
        client.set_suite_offer(&[suite]);
        client.set_resumption(resumption);
    }
    world
}

/// Runs one arm: warm the fleet (mount + bank tickets), crash-restart
/// the server, then drive every client through one post-restart write —
/// the reconnect storm — measuring each client's latency on its own
/// clock.
fn run_arm(arm: &'static str, clients: usize, suite: SuiteId, resumption: bool) -> Obj {
    let world = fleet(clients, suite, resumption);
    let fleet = &world.clients;
    let path = |c: usize| format!("{}/bench/f{c}", world.path().full_path());
    for (c, m) in fleet.iter().enumerate() {
        let body = format!("warm-{c}");
        m.write_file(BENCH_UID, &path(c), body.as_bytes()).unwrap();
    }
    let rts_before: u64 = fleet
        .iter()
        .enumerate()
        .map(|(c, m)| {
            let (mount, _, _) = m.resolve(BENCH_UID, &path(c)).unwrap();
            mount.round_trips()
        })
        .sum();

    world.servers[0].crash_restart();

    let mut latencies: Vec<u64> = Vec::with_capacity(clients);
    for (c, m) in fleet.iter().enumerate() {
        let start = m.clock().now().as_nanos();
        let body = format!("storm-{c}");
        m.write_file(BENCH_UID, &path(c), body.as_bytes()).unwrap();
        latencies.push(m.clock().now().as_nanos() - start);
    }

    let (mut hits, mut misses, mut rejected, mut reconnects, mut rts_after) = (0, 0, 0, 0, 0u64);
    for (c, m) in fleet.iter().enumerate() {
        let (h, mi, rj) = m.resume_stats();
        hits += h;
        misses += mi;
        rejected += rj;
        let (mount, _, _) = m.resolve(BENCH_UID, &path(c)).unwrap();
        reconnects += mount.reconnects();
        rts_after += mount.round_trips();
    }
    Obj::new()
        .str("arm", arm)
        .num("clients", clients)
        .num("ticket_hits", hits)
        .num("ticket_misses", misses)
        .num("ticket_rejected", rejected)
        .num("reconnects", reconnects)
        .num("storm_round_trips", rts_after - rts_before)
        .num("worst_client_ns", *latencies.iter().max().unwrap())
        .num(
            "mean_client_ns",
            latencies.iter().sum::<u64>() / clients as u64,
        )
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let suite = suite(ctx)?;
    let default_clients = if ctx.smoke { 8 } else { 64 };
    let clients = ctx.args.number("clients")?.unwrap_or(default_clients);
    let resumed = run_arm("resumed", clients, suite, true);
    let control = run_arm("full-handshake", clients, suite, false);

    let reconnects = (resumed.number("reconnects"), control.number("reconnects"));
    let hits = resumed.number("ticket_hits");
    let hit_rate = hits / reconnects.0;
    let worst = (
        resumed.number("worst_client_ns"),
        control.number("worst_client_ns"),
    );
    let storm_rts = (
        resumed.number("storm_round_trips"),
        control.number("storm_round_trips"),
    );
    let checks = vec![
        Check::invariant(
            "every client reconnects exactly once after the restart",
            reconnects == (clients as f64, clients as f64),
            format!("{} resumed, {} control", reconnects.0, reconnects.1),
        ),
        Check::invariant(
            format!(
                "ticket-resume hit rate is at least {:.0}%",
                HIT_RATE_FLOOR * 100.0
            ),
            hit_rate >= HIT_RATE_FLOOR,
            format!("{hits} hits / {} reconnects", reconnects.0),
        ),
        Check::invariant(
            "the full-handshake arm never touches the ticket machinery",
            control.number("ticket_hits") == 0.0,
            format!("{} hits", control.number("ticket_hits")),
        ),
        Check::perf(
            "resumed worst-client latency beats the full-handshake arm's",
            worst.0 < worst.1,
            format!("{} ns vs {} ns", worst.0, worst.1),
        ),
        Check::invariant(
            "each resumed reconnect saves exactly one round trip",
            storm_rts.0 + reconnects.0 == storm_rts.1,
            format!(
                "resumed {} RTs + {} reconnects, control {} RTs",
                storm_rts.0, reconnects.0, storm_rts.1
            ),
        ),
    ];
    let header = Obj::new()
        .str("schema", "sfs-bench/resume/v1")
        .str("mode", ctx.mode())
        .str("suite", suite.label())
        .float("hit_rate_floor", HIT_RATE_FLOOR, 2)
        .float("hit_rate", hit_rate, 4)
        .str(
            "determinism",
            "both arms reran from fresh worlds; every row was byte-identical",
        );
    Ok(Report {
        header,
        rows_key: "rows",
        rows: vec![resumed, control],
        checks,
        ..Report::default()
    })
}
