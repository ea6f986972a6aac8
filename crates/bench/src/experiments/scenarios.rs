//! `scenarios`: the trace-driven workload engine and churn-storm driver.
//!
//! Replays the built-in declarative workloads — the LADDIS-style op mix,
//! the compile-a-tree mix, the mail-spool mix — and the "million-user
//! day" churn storms (mass remount waves, agent key rollover, lease-
//! expiry stampedes, a §2.5 revocation broadcast) through the full SFS
//! stack under virtual time. Every scenario is self-asserting: the
//! coherence oracle checks each observation against the committed file
//! history, and the driver's rerun proves op log, final clock and
//! latency table deterministic byte-for-byte.
//!
//! Options:
//!
//! - `--scenario NAME|SPEC`: run one scenario — a built-in name (see
//!   `--list`) or an inline `ScenarioSpec` (`seed=7,clients=2,...,mix=...`);
//!   default runs every built-in mix and storm;
//! - `--faults SPEC`: thread a seeded fault plan through the wire,
//!   server, and disk of every scenario;
//! - `--suite NAME`: cipher suite every client offers (`arc4-sha1` |
//!   `chacha20-poly1305`; default the negotiated AEAD fast path) — the
//!   suite changes virtual-time results because the simulator charges
//!   crypto at the suite's measured per-byte rate;
//! - `--smoke`: shrink op counts and populations for CI;
//! - `--latency-out PATH`: per-procedure latency tables (default
//!   `BENCH_scenarios_latency.txt`);
//! - `--record PATH`: write the byte-replayable request trace of a mix
//!   scenario (requires `--scenario` naming a mix);
//! - `--replay PATH`: replay a recorded trace against a fresh world and
//!   verify the re-recorded trace is byte-identical;
//! - `--list`: print the built-in scenario names.

use std::sync::Arc;

use sfs_proto::channel::SuiteId;
use sfs_telemetry::sync::Mutex;
use sfs_telemetry::{Telemetry, ZeroClock};

use super::suite;
use crate::args::ScenarioSpec;
use crate::calib::BENCH_UID;
use crate::driver::{Ctx, Report};
use crate::kernel::{FsBench, SfsBench};
use crate::report::{Check, Obj};
use crate::scenario::{
    builtin_mixes, encode_trace, parse_trace, replay_trace, run_mix, run_storm, scenario_world,
    RecordingFs, TraceSink, STORM_NAMES,
};

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

/// Replays a recorded trace against a fresh single-client world while
/// re-recording it, and checks the re-recording is byte-identical to
/// the input — the trace format's round-trip guarantee through the real
/// stack, not just the parser.
fn replay_file(path: &str, suite: SuiteId) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let ops = parse_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    let tel = Telemetry::recording(ZeroClock);
    let world = scenario_world(1, 1, None, suite, &tel, None);
    let prefix = format!("{}/bench", world.path().full_path());
    let bench: Box<dyn FsBench> = Box::new(SfsBench::new(
        "SFS",
        world.clients[0].clone(),
        BENCH_UID,
        &prefix,
    ));
    let sink: TraceSink = Arc::new(Mutex::new(Vec::new()));
    let rec = RecordingFs::new(bench, sink.clone());
    replay_trace(&rec, &ops).map_err(|e| format!("replaying {path}: {e:?}"))?;
    let check = Check::invariant(
        format!("replaying {path} re-records it byte-for-byte"),
        encode_trace(&sink.lock()) == encode_trace(&ops),
        format!("{} ops", ops.len()),
    );
    Ok(Report {
        text: format!("replayed {} ops from {path}\n", ops.len()),
        checks: vec![check],
        ..Report::default()
    })
}

pub(crate) fn run(ctx: &Ctx) -> Result<Report, String> {
    let suite = suite(ctx)?;
    if ctx.args.flag("list") {
        let mixes = builtin_mixes().into_iter();
        let mixes = mixes.map(|(name, spec)| format!("{name:<18} mix    {}\n", spec.encode()));
        let storms = STORM_NAMES.iter().map(|name| format!("{name:<18} storm\n"));
        return Ok(Report {
            text: mixes.chain(storms).collect(),
            ..Report::default()
        });
    }
    if let Some(path) = ctx.args.opt("replay") {
        return replay_file(&path, suite);
    }

    // Resolve the scenario set: everything by default, or one chosen by
    // name / inline spec.
    let mut mixes: Vec<(String, ScenarioSpec)> = Vec::new();
    let mut storms: Vec<&str> = Vec::new();
    match ctx.args.opt("scenario") {
        None => {
            let builtin = builtin_mixes().into_iter();
            mixes = builtin.map(|(n, s)| (n.to_string(), s)).collect();
            storms = STORM_NAMES.to_vec();
        }
        Some(sel) => {
            if let Some((_, spec)) = builtin_mixes().into_iter().find(|(n, _)| *n == sel) {
                mixes.push((sel, spec));
            } else if let Some(storm) = STORM_NAMES.iter().find(|s| **s == sel) {
                storms.push(storm);
            } else if sel.contains('=') {
                let spec = ScenarioSpec::parse(&sel).map_err(|e| format!("--scenario: {e}"))?;
                mixes.push(("custom".to_string(), spec));
            } else {
                return Err(format!(
                    "unknown scenario {sel:?} (see --list for built-ins, or pass an inline spec)"
                ));
            }
        }
    }
    if ctx.smoke {
        for (_, spec) in &mut mixes {
            spec.ops = spec.ops.min(120);
            spec.clients = spec.clients.min(2);
        }
    }
    let record = ctx.args.opt("record");
    if record.is_some() && mixes.len() != 1 {
        return Err("--record requires --scenario naming exactly one mix scenario".into());
    }

    let mut report = Report {
        rows_key: "rows",
        ..Report::default()
    };
    let mut tables = String::new();
    let plan = ctx.faults.plan();
    let mixes = mixes.iter().map(|(name, spec)| (name.as_str(), Some(spec)));
    for (name, spec) in mixes.chain(storms.into_iter().map(|name| (name, None))) {
        let injected_before = plan.map_or(0, |p| p.injected());
        let tel = Telemetry::recording(ZeroClock);
        let sink: Option<TraceSink> = record.as_ref().map(|_| Arc::new(Mutex::new(Vec::new())));
        let outcome = match spec {
            Some(spec) => run_mix(name, spec, suite, &tel, plan, sink.as_ref()),
            None => run_storm(name, suite, &tel, plan, ctx.smoke).expect("built-in storm"),
        };
        if let (Some(path), Some(sink)) = (&record, &sink) {
            report
                .files
                .push((path.clone(), encode_trace(&sink.lock())));
        }
        let (kind, shape, clients, ops) = match spec {
            Some(s) => ("mix", format!("mix: {}", s.encode()), s.clients, s.ops),
            None => ("storm", "storm".into(), 0, outcome.op_log.len()),
        };
        tables += &format!("== {name} ({shape}) ==\n{}\n\n", tel.histograms_json());
        report.final_ns = report.final_ns.max(outcome.final_ns);
        report.rows.push(
            Obj::new()
                .str("name", name)
                .str("kind", kind)
                .num("clients", clients)
                .num("ops", ops)
                .num("final_ns", outcome.final_ns)
                .num("oracle_checks", outcome.oracle_checks)
                .str("oplog_fnv64", &format!("{:016x}", fnv64(&outcome.op_log)))
                .num(
                    "injected_faults",
                    plan.map_or(0, |p| p.injected()) - injected_before,
                )
                .num("deterministic", true),
        );
    }
    let latency_out = ctx.args.opt("latency-out");
    let latency_out = latency_out.unwrap_or_else(|| "BENCH_scenarios_latency.txt".into());
    report.files.push((latency_out, tables));
    let header = Obj::new()
        .str("schema", "sfs-bench/scenarios/v1")
        .str("mode", ctx.mode())
        .str("suite", suite.label());
    let header = match ctx.args.opt("faults") {
        Some(s) => header.str("faults", &s),
        None => header.null("faults"),
    };
    report.header = header.str(
        "determinism",
        "each scenario ran twice; op log, final clock, and latency table were byte-identical",
    );
    Ok(report)
}
