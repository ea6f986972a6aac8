//! The one driver's contract, for every registered experiment: flags are
//! validated before any work, usage errors exit 2 and name what is
//! accepted, every check is judged, and under `--faults` the performance
//! envelope gives way to the fault envelope.

use std::process::Command;

use sfs_bench::driver::{drive, verdict, Ctx, Experiment, Report, Verdict};
use sfs_bench::experiments::EXPERIMENTS;
use sfs_bench::report::Check;

fn sfs_bench(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sfs-bench"))
        .args(args)
        .output()
        .expect("run sfs-bench");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn every_experiment_rejects_an_unknown_flag_and_names_the_accepted_ones() {
    for exp in EXPERIMENTS {
        let (status, stderr) = sfs_bench(&[exp.name, "--no-such-flag"]);
        assert_eq!(status, Some(2), "{}: {stderr}", exp.name);
        assert!(stderr.contains("--no-such-flag"), "{}: {stderr}", exp.name);
        for flag in exp.valued.iter().chain(exp.boolean) {
            let flag = format!("--{flag}");
            assert!(
                stderr.contains(&flag),
                "{} must name {flag}: {stderr}",
                exp.name
            );
        }
    }
    // The figure selections are validated the same way.
    let (status, stderr) = sfs_bench(&["figures", "fig6", "--windw", "1"]);
    assert_eq!(status, Some(2), "{stderr}");
    assert!(
        stderr.contains("--windw") && stderr.contains("--window"),
        "{stderr}"
    );
    let (status, stderr) = sfs_bench(&["figures", "fig10"]);
    assert_eq!(status, Some(2), "{stderr}");
    assert!(
        stderr.contains("fig10") && stderr.contains("fig9"),
        "{stderr}"
    );
}

#[test]
fn a_malformed_value_is_a_usage_error_not_a_panic() {
    for args in [
        &["figures", "fig6", "--window", "abc"][..],
        &["latency_table", "--cores", "many"],
        &["resume", "--smoke", "--clients", "lots"],
        &["scale", "--smoke", "--suite", "rot13"],
        &["figures", "fig8", "--faults", "sed=1"],
        &["pipeline", "--out"],
    ] {
        let (status, stderr) = sfs_bench(args);
        assert_eq!(status, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(args[args.len() - 2]), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// One failing invariant, then a passing one, then a failing
/// performance envelope.
fn three_checks() -> Vec<Check> {
    vec![
        Check::invariant("first", false, "broken"),
        Check::invariant("second", true, "fine"),
        Check::perf("third", false, "slow"),
    ]
}

/// Experiments that build no world and report the given checks.
fn all_three(_: &Ctx) -> Result<Report, String> {
    Ok(Report {
        text: "no rows\n".into(),
        checks: three_checks(),
        ..Report::default()
    })
}

fn only_the_envelope(_: &Ctx) -> Result<Report, String> {
    Ok(Report {
        text: "no rows\n".into(),
        checks: three_checks().split_off(2),
        ..Report::default()
    })
}

fn fake(run: fn(&Ctx) -> Result<Report, String>) -> Experiment {
    Experiment {
        name: "fake",
        about: "driver test",
        valued: &["faults"],
        boolean: &[],
        selects: &[],
        artifact: None,
        rerun: true,
        run,
    }
}

#[test]
fn a_failing_check_does_not_suppress_the_ones_after_it() {
    let judged = three_checks().into_iter().map(|c| verdict(&c, false));
    let judged: Vec<Verdict> = judged.collect();
    assert_eq!(judged, [Verdict::Fail, Verdict::Ok, Verdict::Fail]);
    assert_eq!(drive(&fake(all_three), &[]), 1);
    assert_eq!(drive(&fake(only_the_envelope), &[]), 1);
}

#[test]
fn under_faults_perf_checks_are_skipped_and_the_fault_envelope_asserted() {
    let judged = three_checks().into_iter().map(|c| verdict(&c, true));
    let judged: Vec<Verdict> = judged.collect();
    assert_eq!(judged, [Verdict::Fail, Verdict::Ok, Verdict::Skipped]);

    // A crash schedule the short run never reaches promises nothing yet:
    // the envelope holds, and the failing performance check is skipped.
    let quiet = ["--faults".to_string(), "seed=1,crash=1s".to_string()];
    assert_eq!(drive(&fake(only_the_envelope), &quiet), 0);
    // 50 per mille of drops with nothing injected means the plan reached
    // no wire: the fault envelope fails the run by itself.
    let unwired = ["--faults".to_string(), "seed=2,drop=50".to_string()];
    assert_eq!(drive(&fake(only_the_envelope), &unwired), 1);
    // A malformed spec never runs.
    let typo = ["--faults".to_string(), "seed=2,dorp=50".to_string()];
    assert_eq!(drive(&fake(only_the_envelope), &typo), 2);
}
