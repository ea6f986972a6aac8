//! `resume`: the post-restart reconnect storm — session-resumption
//! tickets against the full Figure-3 re-handshake.
//!
//! A fleet of clients, each on its own virtual clock, mounts one
//! server, banks a resumption ticket per session, and keeps working.
//! The server then crash-restarts (all session state gone; only its
//! private key survives, and with it the ticket-sealing key), and the
//! whole fleet reconnects at once through the first post-restart
//! operation. The experiment runs twice:
//!
//! - **resumed** arm: tickets on — every reconnect should present its
//!   banked single-use ticket and pay one round trip;
//! - **full-handshake** arm: `set_resumption(false)` — every reconnect
//!   repeats the 2-RT key negotiation, Rabin decryption included.
//!
//! Self-asserting envelope (exit nonzero on regression):
//!
//! - ≥ 90% of the resumed arm's reconnects are ticket hits (here every
//!   client banked a ticket, so anything less means the machinery
//!   dropped some);
//! - the resumed arm's **worst-client** storm latency beats the
//!   full-handshake arm's — the tail is what a restart storm is about;
//! - the entire experiment, rerun from fresh worlds, reproduces every
//!   row byte-for-byte (virtual time: same storm, same nanoseconds).
//!
//! Options: `--suite NAME` (default `chacha20-poly1305`), `--clients N`
//! (default 64, smoke 8), `--smoke`, `--out PATH` (default
//! `BENCH_resume.json`).

use sfs_bench::args::Args;
use sfs_bench::calib::BENCH_UID;
use sfs_bench::report::{rerun_identical, write_artifact, Obj};
use sfs_bench::world::{KeySeeds, World, WorldSpec};
use sfs_proto::channel::SuiteId;

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

#[derive(Debug, PartialEq)]
struct ArmResult {
    arm: &'static str,
    clients: usize,
    hits: u64,
    misses: u64,
    rejected: u64,
    reconnects: u64,
    storm_rts: u64,
    worst_ns: u64,
    mean_ns: u64,
}

/// Runs one arm: warm the fleet (mount + bank tickets), crash-restart
/// the server, then drive every client through one post-restart write —
/// the reconnect storm — measuring each client's latency on its own
/// clock.
fn run_arm(arm: &'static str, clients: usize, suite: SuiteId, resumption: bool) -> ArmResult {
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
    let worst_ns = *latencies.iter().max().unwrap();
    let mean_ns = latencies.iter().sum::<u64>() / clients as u64;
    ArmResult {
        arm,
        clients,
        hits,
        misses,
        rejected,
        reconnects,
        storm_rts: rts_after - rts_before,
        worst_ns,
        mean_ns,
    }
}

fn row_json(r: &ArmResult) -> Obj {
    Obj::new()
        .str("arm", r.arm)
        .num("clients", r.clients)
        .num("ticket_hits", r.hits)
        .num("ticket_misses", r.misses)
        .num("ticket_rejected", r.rejected)
        .num("reconnects", r.reconnects)
        .num("storm_round_trips", r.storm_rts)
        .num("worst_client_ns", r.worst_ns)
        .num("mean_client_ns", r.mean_ns)
}

fn run_experiment(clients: usize, suite: SuiteId) -> Vec<ArmResult> {
    vec![
        run_arm("resumed", clients, suite, true),
        run_arm("full-handshake", clients, suite, false),
    ]
}

fn main() {
    let args = Args::from_env();
    args.enforce_known(&["suite", "clients", "out"], &["smoke"]);
    let smoke = std::env::args().any(|a| a == "--smoke");
    let suite = match args.opt("suite") {
        None => SuiteId::ChaCha20Poly1305,
        Some(label) => SuiteId::parse(&label).unwrap_or_else(|| {
            eprintln!("resume: unknown suite {label:?} (arc4-sha1 | chacha20-poly1305)");
            std::process::exit(2)
        }),
    };
    let clients: usize = args
        .opt("clients")
        .map(|v| v.parse().expect("--clients takes a number"))
        .unwrap_or(if smoke { 8 } else { 64 });
    let out_path = args
        .opt("out")
        .unwrap_or_else(|| "BENCH_resume.json".into());

    println!(
        "== resume: {clients}-client post-restart reconnect storm ({}) ==",
        suite.label()
    );
    let rows = rerun_identical("reconnect storm", || run_experiment(clients, suite));

    for r in &rows {
        println!(
            "  {:>14}: {} reconnects, tickets {}h/{}m/{}r, {} storm RTs, worst client {:.1} µs, mean {:.1} µs",
            r.arm,
            r.reconnects,
            r.hits,
            r.misses,
            r.rejected,
            r.storm_rts,
            r.worst_ns as f64 / 1_000.0,
            r.mean_ns as f64 / 1_000.0,
        );
    }

    let resumed = &rows[0];
    let control = &rows[1];
    if resumed.reconnects != clients as u64 || control.reconnects != clients as u64 {
        eprintln!("FAIL: every client must reconnect exactly once after the restart");
        std::process::exit(1);
    }
    let hit_rate = resumed.hits as f64 / resumed.reconnects as f64;
    if hit_rate < 0.90 {
        eprintln!(
            "FAIL: ticket-resume hit rate {:.0}% is below the 90% floor ({} hits / {} reconnects)",
            hit_rate * 100.0,
            resumed.hits,
            resumed.reconnects
        );
        std::process::exit(1);
    }
    if control.hits != 0 {
        eprintln!("FAIL: the full-handshake arm must never touch the ticket machinery");
        std::process::exit(1);
    }
    if resumed.worst_ns >= control.worst_ns {
        eprintln!(
            "FAIL: resumed worst-client latency {} ns must beat the full-handshake arm's {} ns",
            resumed.worst_ns, control.worst_ns
        );
        std::process::exit(1);
    }
    if resumed.storm_rts + resumed.reconnects != control.storm_rts {
        eprintln!(
            "FAIL: each resumed reconnect must save exactly one round trip \
             (resumed {} RTs + {} reconnects != control {} RTs)",
            resumed.storm_rts, resumed.reconnects, control.storm_rts
        );
        std::process::exit(1);
    }
    println!(
        "resume storm: {:.0}% ticket hits; worst client {:.1} µs vs {:.1} µs full handshake ({:.2}x)",
        hit_rate * 100.0,
        resumed.worst_ns as f64 / 1_000.0,
        control.worst_ns as f64 / 1_000.0,
        control.worst_ns as f64 / resumed.worst_ns as f64
    );

    let header = Obj::new()
        .str("schema", "sfs-bench/resume/v1")
        .str("mode", if smoke { "smoke" } else { "full" })
        .str("suite", suite.label())
        .float("hit_rate_floor", 0.90, 2)
        .float("hit_rate", hit_rate, 4)
        .str(
            "determinism",
            "both arms reran from fresh worlds; every row was byte-identical",
        );
    let json_rows: Vec<Obj> = rows.iter().map(row_json).collect();
    write_artifact(&out_path, &header, "rows", &json_rows);
}
