//! `scenarios`: the trace-driven workload engine and churn-storm driver.
//!
//! Replays the built-in declarative workloads — the LADDIS-style op mix,
//! the compile-a-tree mix, the mail-spool mix — and the "million-user
//! day" churn storms (mass remount waves, agent key rollover, lease-
//! expiry stampedes, a §2.5 revocation broadcast) through the full SFS
//! stack under virtual time. Every scenario is self-asserting: the
//! coherence oracle checks each observation against the committed file
//! history, and each scenario runs **twice** so the binary can prove the
//! run is deterministic byte-for-byte (op log, final clock, and latency
//! table all identical).
//!
//! Options:
//!
//! - `--scenario NAME|SPEC`: run one scenario — a built-in name (see
//!   `--list`) or an inline `ScenarioSpec` (`seed=7,clients=2,...,mix=...`);
//!   default runs every built-in mix and storm;
//! - `--faults SPEC`: thread a seeded fault plan through the wire,
//!   server, and disk of every run; the envelope is asserted per run;
//! - `--suite NAME`: cipher suite every client offers (`arc4-sha1` |
//!   `chacha20-poly1305`; default the negotiated AEAD fast path) — the
//!   suite changes virtual-time results because the simulator charges
//!   crypto at the suite's measured per-byte rate;
//! - `--smoke`: shrink op counts and populations for CI;
//! - `--out PATH`: results JSON (default `BENCH_scenarios.json`);
//! - `--latency-out PATH`: per-procedure latency tables (default
//!   `BENCH_scenarios_latency.txt`);
//! - `--record PATH`: write the byte-replayable request trace of a mix
//!   scenario (requires `--scenario` naming a mix);
//! - `--replay PATH`: replay a recorded trace against a fresh world and
//!   verify the re-recorded trace is byte-identical;
//! - `--list`: print the built-in scenario names.

use sfs_bench::args::{Args, FaultOpt, ScenarioSpec};
use sfs_bench::kernel::SfsBench;
use sfs_bench::report::{rerun_identical, write_artifact, Obj};
use sfs_bench::scenario::{
    builtin_mixes, encode_trace, parse_trace, replay_trace, run_mix, run_storm, scenario_suite,
    scenario_world, set_scenario_suite, RecordingFs, TraceSink, STORM_NAMES,
};
use sfs_proto::channel::SuiteId;
use sfs_telemetry::sync::Mutex;
use sfs_telemetry::{Telemetry, ZeroClock};
use std::sync::Arc;

use sfs_bench::calib::BENCH_UID;
use sfs_bench::kernel::FsBench;

/// FNV-1a 64-bit, used to commit the op log compactly into the JSON.
fn fnv64(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for b in line.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^= b'\n' as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn die(msg: String) -> ! {
    eprintln!("scenarios: {msg}");
    std::process::exit(2)
}

/// Builds a fresh fault option from the run's `--faults` spec; each of
/// the two determinism runs needs its own plan so injected-event
/// tallies don't leak between them.
fn fresh_faults(spec: &Option<String>) -> FaultOpt {
    FaultOpt::with_spec(spec.clone()).unwrap_or_else(|e| die(format!("--faults: {e}")))
}

/// Every observable byte of one scenario execution.
#[derive(Debug, PartialEq)]
struct Observed {
    op_log: Vec<String>,
    final_ns: u64,
    oracle_checks: u64,
    latency_table: String,
    injected_faults: u64,
}

/// One scenario execution with its own telemetry and fault plan;
/// asserts the fault envelope before returning.
fn execute(
    name: &str,
    kind: &'static str,
    fault_spec: &Option<String>,
    smoke: bool,
    spec: Option<&ScenarioSpec>,
    trace: Option<&TraceSink>,
) -> Observed {
    let faults = fresh_faults(fault_spec);
    let tel = Telemetry::recording(ZeroClock);
    let outcome = match kind {
        "mix" => run_mix(name, spec.expect("mix spec"), &tel, faults.plan(), trace),
        _ => run_storm(name, &tel, faults.plan(), smoke)
            .unwrap_or_else(|| die(format!("unknown storm {name:?}"))),
    };
    faults.finish();
    faults.assert_envelope(outcome.final_ns);
    Observed {
        op_log: outcome.op_log,
        final_ns: outcome.final_ns,
        oracle_checks: outcome.oracle_checks,
        latency_table: tel.histograms_json(),
        injected_faults: faults.plan().map(|p| p.injected() as u64).unwrap_or(0),
    }
}

/// Runs one scenario twice (recording the trace, when asked, on the
/// first run only) and verifies the two runs agree on every observable
/// byte. Returns the row and the latency table.
fn run_twice(
    name: &str,
    kind: &'static str,
    fault_spec: &Option<String>,
    smoke: bool,
    spec: Option<&ScenarioSpec>,
    mut trace: Option<&TraceSink>,
) -> (Obj, String) {
    println!("== scenario {name} ({kind}) ==");
    let a = rerun_identical(&format!("scenario {name}"), || {
        execute(name, kind, fault_spec, smoke, spec, trace.take())
    });
    let (clients, ops) = match spec {
        Some(s) => (s.clients, s.ops),
        None => (0, a.op_log.len()),
    };
    println!(
        "  {} ops, final clock {} ns, {} oracle checks, deterministic across 2 runs{}",
        a.op_log.len(),
        a.final_ns,
        a.oracle_checks,
        if a.injected_faults > 0 {
            format!(", {} faults injected", a.injected_faults)
        } else {
            String::new()
        }
    );
    let row = Obj::new()
        .str("name", name)
        .str("kind", kind)
        .num("clients", clients)
        .num("ops", ops)
        .num("final_ns", a.final_ns)
        .num("oracle_checks", a.oracle_checks)
        .str("oplog_fnv64", &format!("{:016x}", fnv64(&a.op_log)))
        .num("injected_faults", a.injected_faults)
        .num("deterministic", true);
    (row, a.latency_table)
}

/// Replays a recorded trace against a fresh single-client world while
/// re-recording it, then verifies the re-recording is byte-identical to
/// the input — the trace format's round-trip guarantee through the real
/// stack, not just the parser.
fn replay_file(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| die(format!("read {path}: {e}")));
    let ops = parse_trace(&text).unwrap_or_else(|e| die(format!("{path}: {e}")));
    let tel = Telemetry::recording(ZeroClock);
    let world = scenario_world(1, 1, None, &tel, None);
    let prefix = format!("{}/bench", world.path().full_path());
    let bench: Box<dyn FsBench> = Box::new(SfsBench::new(
        "SFS",
        world.clients[0].clone(),
        BENCH_UID,
        &prefix,
    ));
    let sink: TraceSink = Arc::new(Mutex::new(Vec::new()));
    let rec = RecordingFs::new(bench, sink.clone());
    replay_trace(&rec, &ops).unwrap_or_else(|e| die(format!("replaying {path}: {e:?}")));
    let replayed = encode_trace(&sink.lock());
    if replayed != encode_trace(&ops) {
        eprintln!("FAIL: replay of {path} did not reproduce the trace byte-for-byte");
        std::process::exit(1);
    }
    println!(
        "replayed {} ops from {path}; re-recorded trace is byte-identical",
        ops.len()
    );
}

fn main() {
    let args = Args::from_env();
    args.enforce_known(
        &[
            "scenario",
            "faults",
            "suite",
            "out",
            "latency-out",
            "record",
            "replay",
        ],
        &["smoke", "list"],
    );
    let smoke = std::env::args().any(|a| a == "--smoke");
    if let Some(label) = args.opt("suite") {
        let suite = SuiteId::parse(&label).unwrap_or_else(|| {
            die(format!(
                "unknown suite {label:?} (arc4-sha1 | chacha20-poly1305)"
            ))
        });
        set_scenario_suite(suite);
    }
    if std::env::args().any(|a| a == "--list") {
        for (name, spec) in builtin_mixes() {
            println!("{name:<18} mix    {}", spec.encode());
        }
        for name in STORM_NAMES {
            println!("{name:<18} storm");
        }
        return;
    }
    // Validate the fault spec once up front, then rebuild per run.
    let fault_spec = args.opt("faults");
    let _ = fresh_faults(&fault_spec);

    if let Some(path) = args.opt("replay") {
        replay_file(&path);
        return;
    }

    // Resolve the scenario set: everything by default, or one chosen by
    // name / inline spec.
    let mut mixes: Vec<(String, ScenarioSpec)> = Vec::new();
    let mut storms: Vec<String> = Vec::new();
    match args.opt("scenario") {
        None => {
            mixes = builtin_mixes()
                .into_iter()
                .map(|(n, s)| (n.to_string(), s))
                .collect();
            storms = STORM_NAMES.iter().map(|s| s.to_string()).collect();
        }
        Some(sel) => {
            if let Some((_, spec)) = builtin_mixes().iter().find(|(n, _)| *n == sel) {
                mixes.push((sel.clone(), spec.clone()));
            } else if STORM_NAMES.contains(&sel.as_str()) {
                storms.push(sel.clone());
            } else if sel.contains('=') {
                let spec =
                    ScenarioSpec::parse(&sel).unwrap_or_else(|e| die(format!("--scenario: {e}")));
                mixes.push(("custom".to_string(), spec));
            } else {
                die(format!(
                    "unknown scenario {sel:?} (see --list for built-ins, or pass an inline spec)"
                ));
            }
        }
    }
    if smoke {
        for (_, spec) in &mut mixes {
            spec.ops = spec.ops.min(120);
            spec.clients = spec.clients.min(2);
        }
    }

    let record = args.opt("record");
    if record.is_some() && mixes.len() != 1 {
        die("--record requires --scenario naming exactly one mix scenario".into());
    }

    let out_path = args
        .opt("out")
        .unwrap_or_else(|| "BENCH_scenarios.json".into());
    let latency_path = args
        .opt("latency-out")
        .unwrap_or_else(|| "BENCH_scenarios_latency.txt".into());

    let mut rows = Vec::new();
    let mut tables = String::new();
    for (name, spec) in &mixes {
        let sink: Option<TraceSink> = record.as_ref().map(|_| Arc::new(Mutex::new(Vec::new())));
        let (row, table) = run_twice(name, "mix", &fault_spec, smoke, Some(spec), sink.as_ref());
        if let (Some(path), Some(sink)) = (&record, &sink) {
            let text = encode_trace(&sink.lock());
            std::fs::write(path, &text).unwrap_or_else(|e| die(format!("write {path}: {e}")));
            println!("recorded {} trace ops to {path}", sink.lock().len());
        }
        tables.push_str(&format!(
            "== {name} (mix: {}) ==\n{table}\n\n",
            spec.encode()
        ));
        rows.push(row);
    }
    for name in &storms {
        let (row, table) = run_twice(name, "storm", &fault_spec, smoke, None, None);
        tables.push_str(&format!("== {name} (storm) ==\n{table}\n\n"));
        rows.push(row);
    }

    std::fs::write(&latency_path, &tables)
        .unwrap_or_else(|e| die(format!("write {latency_path}: {e}")));
    println!("wrote {latency_path}");
    let header = Obj::new()
        .str("schema", "sfs-bench/scenarios/v1")
        .str("mode", if smoke { "smoke" } else { "full" })
        .str("suite", scenario_suite().label());
    let header = match &fault_spec {
        Some(s) => header.str("faults", s),
        None => header.null("faults"),
    }
    .str(
        "determinism",
        "each scenario ran twice; op log, final clock, and latency table were byte-identical",
    );
    write_artifact(&out_path, &header, "rows", &rows);
}
