//! `sfs-benchmark`: the repo's one benchmark. See `README.md` beside
//! this package for the metric and workload catalogue.
//!
//! ```text
//! sfs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--smoke] [--self-test] [--out <runs.jsonl>] [--out-dir <dir>]
//! sfs-benchmark compare <baseline.jsonl> <candidate.jsonl>
//! sfs-benchmark summarize <runs.jsonl> --label <text>
//! ```
//!
//! The last line of standard output of a run is the result object;
//! everything for people goes above it or to standard error.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use sfs_benchmark::{harness, report, run, workloads};

#[global_allocator]
static ALLOC: harness::CountingAlloc = harness::CountingAlloc;

fn usage() -> ExitCode {
    eprintln!(
        "usage: sfs-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--smoke] [--self-test] [--out <runs.jsonl>] [--out-dir <dir>]\n       \
         sfs-benchmark compare <baseline.jsonl> <candidate.jsonl>\n       \
         sfs-benchmark summarize <runs.jsonl> --label <text>",
        workloads::DEFS.map(|d| d.name).join("|")
    );
    ExitCode::from(2)
}

fn read_runs(path: &str) -> Result<report::RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    report::load_runs(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = argv.as_slice() else {
                return usage();
            };
            match (read_runs(a), read_runs(b)) {
                (Ok(a), Ok(b)) => {
                    let (text, regressed) = report::compare(&a, &b);
                    print!("{text}");
                    ExitCode::from(u8::from(regressed))
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Some("summarize") => {
            let [_, runs, flag, label] = argv.as_slice() else {
                return usage();
            };
            if flag != "--label" {
                return usage();
            }
            match read_runs(runs) {
                Ok(set) => {
                    print!("{}", report::summarize(&set, label));
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("summarize: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => run_workload(&argv),
    }
}

fn run_workload(argv: &[String]) -> ExitCode {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut smoke, mut self_test) = (false, false);
    let (mut out, mut out_dir) = (None, PathBuf::from("benchmark/out"));
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned();
        match flag.as_str() {
            "--workload" => workload = value(),
            "--seed" => seed = value().and_then(|v| v.parse::<u64>().ok()),
            "--seconds" => seconds = value().and_then(|v| v.parse::<u64>().ok()),
            "--trace" => {
                trace = match value().as_deref() {
                    Some("0") => Some(false),
                    Some("1") => Some(true),
                    _ => None,
                }
            }
            "--smoke" => smoke = true,
            "--self-test" => self_test = true,
            "--out" => out = value().map(PathBuf::from),
            "--out-dir" => match value() {
                Some(v) => out_dir = PathBuf::from(v),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage();
    };
    let Some(workload) = workloads::def(&workload) else {
        return usage();
    };
    if !(1..=60).contains(&seconds) {
        return usage();
    }

    let args = run::RunArgs {
        workload,
        seed,
        seconds,
        // The self-test only has to show the checks can fail.
        smoke: smoke || self_test,
        sabotage: self_test,
    };
    let result = if trace {
        run::run_traced(
            &args,
            &out_dir.join(format!("{}.trace.json", workload.name)),
        )
    } else {
        run::run_end_to_end(&args)
    };

    println!(
        "{} seed {} ({}), {} of {} checked ops failed or were wrong",
        workload.name,
        seed,
        if trace { "per-layer" } else { "end-to-end" },
        result.failed,
        result.attempted
    );
    print!("{}", result.table());
    if let Some(path) = &out {
        let line = result.record_line(workload.name, seed, seconds, trace);
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = appended {
            eprintln!("cannot append to {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", result.result_line());

    if self_test {
        // Sabotaged expectations must be caught.
        if result.failed > 0 {
            eprintln!(
                "self-test passed: {} deliberately wrong expectations were all reported",
                result.failed
            );
            return ExitCode::SUCCESS;
        }
        eprintln!("self-test FAILED: wrong expectations went unnoticed");
        return ExitCode::FAILURE;
    }
    if result.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAIL: {} wrong or failed ops", result.failed);
        ExitCode::FAILURE
    }
}
