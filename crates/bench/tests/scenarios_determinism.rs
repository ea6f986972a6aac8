//! Rerun-determinism for every built-in scenario: the same seed must
//! reproduce the op log, the final virtual clock, and the latency
//! table byte-for-byte — fault-free and under a seeded fault plan —
//! and a recorded trace must replay to byte-identical text.
//!
//! These run in debug mode under the tier-1 suite, so each mix is
//! shrunk to a few dozen ops; determinism is scale-free.

use sfs_bench::args::{FaultOpt, ScenarioSpec};
use sfs_bench::scenario::{
    builtin_mixes, encode_trace, run_mix, run_storm, TraceSink, STORM_NAMES,
};
use sfs_proto::channel::SuiteId;
use sfs_telemetry::sync::Mutex;
use sfs_telemetry::{Telemetry, ZeroClock};
use std::sync::Arc;

/// The `scenarios` experiment's default suite.
const SUITE: SuiteId = SuiteId::ChaCha20Poly1305;

/// Shrinks a built-in mix to debug-test scale without changing its
/// character (seed, dir shape, and op mix stay).
fn tiny(mut spec: ScenarioSpec) -> ScenarioSpec {
    spec.clients = spec.clients.min(2);
    spec.files = spec.files.min(8);
    spec.file_bytes = spec.file_bytes.min(1024);
    spec.io_bytes = spec.io_bytes.min(512);
    spec.ops = spec.ops.min(40);
    spec.cpu_ns = spec.cpu_ns.min(100_000);
    spec
}

/// Runs a mix with fresh telemetry (and a fresh fault plan from
/// `fault_spec`) and returns every observable byte.
fn observe_mix(
    name: &str,
    spec: &ScenarioSpec,
    fault_spec: Option<&str>,
) -> (Vec<String>, u64, String) {
    let faults = FaultOpt::with_spec(fault_spec.map(String::from)).unwrap();
    let tel = Telemetry::recording(ZeroClock);
    let out = run_mix(name, spec, SUITE, &tel, faults.plan(), None);
    (out.op_log, out.final_ns, tel.histograms_json())
}

#[test]
fn builtin_mixes_are_rerun_deterministic() {
    for (name, spec) in builtin_mixes() {
        let spec = tiny(spec);
        let a = observe_mix(name, &spec, None);
        let b = observe_mix(name, &spec, None);
        assert_eq!(a.0, b.0, "{name}: op logs diverged");
        assert_eq!(a.1, b.1, "{name}: final clocks diverged");
        assert_eq!(a.2, b.2, "{name}: latency tables diverged");
    }
}

#[test]
fn builtin_mixes_are_deterministic_under_faults() {
    let fault_spec = "seed=9,drop=15,delay=25,delay_ns=500us";
    for (name, spec) in builtin_mixes() {
        let spec = tiny(spec);
        let a = observe_mix(name, &spec, Some(fault_spec));
        let b = observe_mix(name, &spec, Some(fault_spec));
        assert_eq!(a.0, b.0, "{name}: op logs diverged under faults");
        assert_eq!(a.1, b.1, "{name}: final clocks diverged under faults");
        assert_eq!(a.2, b.2, "{name}: latency tables diverged under faults");
    }
}

#[test]
fn storms_are_rerun_deterministic() {
    for name in STORM_NAMES {
        let run = || {
            let tel = Telemetry::recording(ZeroClock);
            let out = run_storm(name, SUITE, &tel, None, true).expect("built-in storm");
            (
                out.op_log,
                out.final_ns,
                out.oracle_checks,
                tel.histograms_json(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "{name}: storm runs diverged");
        assert!(a.2 > 0, "{name}: the oracle never ran");
    }
}

#[test]
fn recorded_traces_are_byte_identical_across_runs() {
    let (name, spec) = &builtin_mixes()[0];
    let mut spec = tiny(spec.clone());
    spec.clients = 1; // one client gives one totally ordered stream
    spec.ops = 25;
    let record = || {
        let tel = Telemetry::recording(ZeroClock);
        let sink: TraceSink = Arc::new(Mutex::new(Vec::new()));
        run_mix(name, &spec, SUITE, &tel, None, Some(&sink));
        let ops = sink.lock();
        encode_trace(&ops)
    };
    let a = record();
    let b = record();
    assert!(!a.is_empty(), "trace recorded nothing");
    assert_eq!(a, b, "recorded traces diverged between identical runs");
}
