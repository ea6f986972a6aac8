//! End-to-end checks of the benchmark binary at `--smoke` size: what it
//! prints is complete, repeatable where it claims to be, sensitive to
//! the seed, and its output checks can fail.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use sfs_benchmark::report::{parse_json, Json, END_TO_END, PER_LAYER};
use sfs_benchmark::workloads::DEFS;

struct Run {
    exit_ok: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    /// name → (value, unit).
    metrics: BTreeMap<String, (f64, String)>,
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_sfs-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(scratch("traces"))
        .args(extra)
        .output()
        .expect("spawn sfs-benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let v = parse_json(last).unwrap_or_else(|e| panic!("result line is not JSON ({e}): {last}"));
    let Json::Obj(top) = &v else {
        panic!("result line is not an object")
    };
    let keys: Vec<&str> = top.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let Some(Json::Obj(metrics)) = v.get("metrics") else {
        panic!("no metrics object")
    };
    Run {
        exit_ok: out.status.success(),
        correct: v.get("correct") == Some(&Json::Bool(true)),
        attempted: v
            .get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted") as u64,
        failed: v.get("failed").and_then(Json::as_f64).expect("failed") as u64,
        metrics: metrics
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64).expect("value");
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                (name.clone(), (value, unit.to_string()))
            })
            .collect(),
    }
}

/// Metrics that must repeat exactly for one `(workload, seed)`: the
/// virtual clock and every count. Wall-clock readings are the rest.
fn exact(name: &str) -> bool {
    let wall = name.contains("wall")
        || (name.ends_with("_ns_per_op") && !name.contains("virtual"))
        || name.starts_with("crypto.rabin_")
        || name.starts_with("harness.")
        || name.starts_with("telemetry.")
        || name.starts_with("budget.wall")
        || ["setup_s", "peak_rss_mib", "core.bufpool.get_put_ns"].contains(&name);
    !wall
}

#[test]
fn end_to_end_metrics_are_complete_and_virtual_ones_repeat_exactly() {
    for workload in DEFS.map(|d| d.name) {
        let a = run(workload, 11, false, &["--smoke"]);
        let b = run(workload, 11, false, &["--smoke"]);
        assert!(a.exit_ok && a.correct && a.failed == 0, "{workload} failed");
        // Every named metric, with its unit, and nothing else.
        let want: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
        let mut got: Vec<(&str, &str)> = a
            .metrics
            .iter()
            .map(|(n, (_, u))| (n.as_str(), u.as_str()))
            .collect();
        got.sort();
        let mut sorted = want.clone();
        sorted.sort();
        assert_eq!(got, sorted, "{workload}");
        for (name, (value, _)) in &a.metrics {
            assert!(*value > 0.0, "{workload} {name} must never be 0");
            let again = b.metrics[name].0;
            if name == "allocs_per_op" {
                // Exact but for the program's `HashMap`s: with removals
                // in play, whether an insert grows the table or reuses
                // a tombstone depends on the per-process hash seed. A
                // handful of allocations in a hundred thousand.
                assert!((value - again).abs() <= 1e-3 * value, "{workload} {name}");
            } else if exact(name) {
                assert_eq!(*value, again, "{workload} {name} must repeat");
            }
        }
        assert_eq!(a.attempted, b.attempted);

        // Another seed: another op stream (other virtual numbers), the
        // same op counts.
        let c = run(workload, 12, false, &["--smoke"]);
        assert!(c.exit_ok && c.correct);
        assert_eq!(a.attempted, c.attempted, "{workload} op counts");
        assert_ne!(
            a.metrics["virtual_ops_per_s"].0, c.metrics["virtual_ops_per_s"].0,
            "{workload}: seed must change the inputs"
        );
    }
}

#[test]
fn traced_run_reports_every_layer_repeats_and_does_not_perturb() {
    for workload in DEFS.map(|d| d.name) {
        let a = run(workload, 11, true, &["--smoke"]);
        let b = run(workload, 11, true, &["--smoke"]);
        // `correct` covers the zero-perturbation check: the traced and
        // untraced passes reported the same virtual latency for every op.
        assert!(a.exit_ok && a.correct && a.failed == 0, "{workload} failed");
        let names: Vec<&str> = a.metrics.keys().map(String::as_str).collect();
        let mut want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        want.sort();
        assert_eq!(names, want, "{workload}");
        for (name, unit, _) in PER_LAYER {
            assert_eq!(a.metrics[*name].1, *unit, "{workload} {name}");
            if exact(name) {
                assert_eq!(
                    a.metrics[*name].0, b.metrics[*name].0,
                    "{workload} {name} must repeat"
                );
            }
        }
        // The budgets add up: probed + unattributed wall shares to 1,
        // and no layer's virtual self time was counted twice.
        let m = |n: &str| a.metrics[n].0;
        assert!(
            (m("budget.wall_probed_share") + m("budget.wall_unattributed_share") - 1.0).abs()
                < 1e-9
        );
        assert!(m("budget.virtual_unattributed_share") > -1e-9, "{workload}");
        assert!(m("budget.virtual_unattributed_share") <= 1.0);
        assert_eq!(m("harness.op_fail_ratio"), 0.0);

        // The trace is loadable JSON with events in it.
        let trace = scratch("traces").join(format!("{workload}.trace.json"));
        let text = std::fs::read_to_string(&trace).expect("trace written");
        let v = parse_json(&text).expect("trace parses");
        let Some(Json::Arr(events)) = v.get("traceEvents") else {
            panic!("{workload}: no traceEvents array")
        };
        assert!(events.len() > 100, "{workload}: trace is nearly empty");
    }
}

#[test]
fn per_layer_counts_tell_the_workloads_apart() {
    let get = |w: &str| run(w, 5, true, &["--smoke"]).metrics;
    let meta = get("meta_rpc");
    assert_eq!(meta["sim.net.round_trips_per_op"].0, 1.0);
    assert_eq!(meta["core.client.attr_hit_ratio"].0, 0.0);
    assert_eq!(meta["sim.disk.syncs_per_op"].0, 0.0);
    let read = get("seq_read");
    assert!(read["core.client.readahead_hit_ratio"].0 > 0.8);
    assert_eq!(read["core.client.inflight_hwm"].0, 8.0);
    let write = get("seq_write");
    assert!(write["sim.disk.bytes_written_per_op"].0 >= 65536.0);
    let connect = get("connect");
    assert_eq!(connect["proto.keyneg.handshakes_per_op"].0, 1.0);
    assert_eq!(connect["core.client.resume_hit_ratio"].0, 1.0);
    assert!(
        connect["core.client.connect_resume_wall_ns"].0
            < connect["core.client.connect_full_wall_ns"].0
    );
    let fleet = get("fleet_mix");
    assert!(fleet["core.client.attr_hit_ratio"].0 > 0.0);
    assert!(fleet["core.client.lease_invalidations_per_op"].0 > 0.0);
    assert!(fleet["core.shard.frames_scheduled_per_op"].0 > 0.0);
    assert!(fleet["core.shard.disk_joined_ratio"].0 > 0.0);
}

#[test]
fn self_test_proves_the_output_checks_can_fail() {
    for workload in DEFS.map(|d| d.name) {
        let r = run(workload, 3, false, &["--self-test"]);
        // Exit 0 means "the sabotage was caught".
        assert!(r.exit_ok, "{workload}: wrong expectations went unnoticed");
        assert!(!r.correct && r.failed > 0, "{workload}");
        assert!(r.failed < r.attempted, "{workload}: only part is sabotaged");
    }
}

#[test]
fn compare_is_unchanged_against_itself_and_flags_one_bumped_virtual_metric() {
    let dir = scratch("compare");
    let a = dir.join("a.jsonl");
    let b = dir.join("b.jsonl");
    let _ = std::fs::remove_file(&a);
    for workload in ["meta_rpc", "seq_write"] {
        for _ in 0..3 {
            let r = run(
                workload,
                7,
                false,
                &["--smoke", "--out", a.to_str().expect("utf-8 path")],
            );
            assert!(r.exit_ok);
        }
    }
    let compare = |x: &PathBuf, y: &PathBuf| {
        let out = Command::new(env!("CARGO_BIN_EXE_sfs-benchmark"))
            .arg("compare")
            .args([x, y])
            .output()
            .expect("spawn compare");
        (
            out.status.code(),
            String::from_utf8(out.stdout).expect("utf-8"),
        )
    };
    let rows = |text: &str, verdict: &str| -> Vec<String> {
        text.lines()
            .skip(1)
            .filter(|l| l.trim_end().ends_with(verdict))
            .map(str::to_string)
            .collect()
    };

    let (code, text) = compare(&a, &a);
    assert_eq!(code, Some(0), "{text}");
    assert!(rows(&text, "regressed").is_empty() && rows(&text, "unresolved").is_empty());
    // Two workloads × (eight metrics + the failure ratio).
    assert_eq!(rows(&text, "unchanged").len(), 18, "{text}");

    // A copy with meta_rpc's virtual p99 one percent worse in every run.
    let bumped: String = std::fs::read_to_string(&a)
        .expect("runs file")
        .lines()
        .map(|line| {
            let v = parse_json(line).expect("record");
            if v.get("workload").and_then(Json::as_str) != Some("meta_rpc") {
                return format!("{line}\n");
            }
            let old = v
                .get("metrics")
                .and_then(|m| m.get("op_virtual_ns_p99"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .expect("p99");
            let from = format!("\"op_virtual_ns_p99\": {{\"value\": {old}");
            let to = format!("\"op_virtual_ns_p99\": {{\"value\": {}", old * 1.01);
            assert!(line.contains(&from));
            format!("{}\n", line.replace(&from, &to))
        })
        .collect();
    std::fs::write(&b, bumped).expect("write bumped copy");
    let (code, text) = compare(&a, &b);
    assert_eq!(code, Some(1), "{text}");
    let regressed = rows(&text, "regressed");
    assert_eq!(regressed.len(), 1, "{text}");
    assert!(regressed[0].starts_with("meta_rpc") && regressed[0].contains("op_virtual_ns_p99"));
    assert_eq!(rows(&text, "unchanged").len(), 17, "{text}");
}

/// `BENCHMARK.json` at the repo root names exactly the catalogue's
/// workloads and metrics, with the same units and directions. (Skipped
/// where the package is checked out without the repo around it.)
#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return;
    };
    let v = parse_json(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<BTreeMap<String, Json>> {
        let Some(Json::Arr(items)) = v.get(key) else {
            panic!("no {key} array")
        };
        items
            .iter()
            .map(|i| match i {
                Json::Obj(m) => m.clone(),
                _ => panic!("{key} entry is not an object"),
            })
            .collect()
    };
    let s = |m: &BTreeMap<String, Json>, k: &str| m[k].as_str().expect(k).to_string();

    let workloads: Vec<String> = list("workloads").iter().map(|w| s(w, "name")).collect();
    assert_eq!(workloads, DEFS.map(|d| d.name));

    let e2e: Vec<(String, String, String)> = list("end_to_end")
        .iter()
        .map(|m| {
            let bound = m["bound"].as_f64().expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{} bound", s(m, "name"));
            (s(m, "name"), s(m, "unit"), s(m, "better"))
        })
        .collect();
    let want: Vec<(String, String, String)> = END_TO_END
        .iter()
        .map(|m| (m.name.into(), m.unit.into(), m.better.label().into()))
        .collect();
    assert_eq!(e2e, want);

    let layers: Vec<(String, String, String)> = list("per_layer")
        .iter()
        .map(|m| (s(m, "name"), s(m, "unit"), s(m, "better")))
        .collect();
    let want: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|(n, u, b)| (n.to_string(), u.to_string(), b.label().to_string()))
        .collect();
    assert_eq!(layers, want);
}
