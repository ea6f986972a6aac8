//! The one driver behind `sfs-bench <experiment> [flags]`.
//!
//! An [`Experiment`] is a name, the flags it accepts, its default
//! artifact path and a `run(&Ctx) -> Report`. Everything else is here,
//! once: flag validation, `--smoke` / `--out` / `--faults` / `--trace`,
//! the rerun-determinism check, the stdout view of the rows, the
//! artifact, and the evaluation of *every* check the run returned —
//! performance envelopes skipped and the fault envelope asserted under
//! `--faults` — with one exit status at the end.

use crate::args::{Args, FaultOpt};
use crate::experiments::EXPERIMENTS;
use crate::report::{rerun_identical, rows_table, write_artifact, write_file, Check, Obj};
use crate::trace::TraceOpt;

/// One registered experiment.
pub struct Experiment {
    /// The subcommand.
    pub name: &'static str,
    /// One line for the usage listing.
    pub about: &'static str,
    /// Options taking a value.
    pub valued: &'static [&'static str],
    /// Options taking none.
    pub boolean: &'static [&'static str],
    /// Names a leading positional argument may select (`figures fig5`).
    pub selects: &'static [&'static str],
    /// Default artifact path (`--out` overrides it where accepted).
    pub artifact: Option<&'static str>,
    /// Virtual-time experiments run twice from fresh worlds and must
    /// report identically.
    pub rerun: bool,
    /// One run; `Err` is a usage error.
    pub run: fn(&Ctx) -> Result<Report, String>,
}

/// What one run of an experiment sees of the command line. Built fresh
/// for every run, so a rerun starts from a fresh fault plan and sink.
pub struct Ctx<'a> {
    /// The validated flags, for the experiment's own options.
    pub(crate) args: &'a Args,
    /// The positional selection, when given.
    pub(crate) select: Option<&'a str>,
    /// `--smoke`: CI-sized run.
    pub(crate) smoke: bool,
    /// `--faults`: the plan to thread through every world.
    pub(crate) faults: FaultOpt,
    /// `--trace`: the sink to thread through every world.
    pub(crate) trace: TraceOpt,
}

impl Ctx<'_> {
    /// `"smoke"` or `"full"`, as artifact headers record it.
    pub(crate) fn mode(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }
}

/// What one run produced.
#[derive(Debug, Default, PartialEq)]
pub struct Report {
    /// Artifact header fields.
    pub header: Obj,
    /// Key of the row array in the artifact.
    pub rows_key: &'static str,
    /// Artifact rows; no rows, no artifact.
    pub rows: Vec<Obj>,
    /// The envelope, as data.
    pub checks: Vec<Check>,
    /// The experiment's own rendering, printed in place of the row table.
    pub text: String,
    /// Further files to write: (path, contents).
    pub files: Vec<(String, String)>,
    /// Latest virtual clock any world reached, for the fault envelope.
    pub final_ns: u64,
}

/// Exit status of a usage error.
const USAGE: i32 = 2;

fn usage() -> i32 {
    eprintln!("usage: sfs-bench <experiment> [flags]\n\nexperiments:");
    for e in EXPERIMENTS {
        eprintln!("  {:<14} {}", e.name, e.about);
    }
    eprintln!(
        "  {:<14} figures plus every virtual-time artifact, full mode, default paths",
        "all"
    );
    USAGE
}

/// `sfs-bench` itself: dispatches `argv` (program name removed) and
/// returns the exit status.
pub fn main(argv: &[String]) -> i32 {
    let Some((name, rest)) = argv.split_first() else {
        return usage();
    };
    if name == "all" {
        if !rest.is_empty() {
            eprintln!("all takes no arguments");
            return USAGE;
        }
        let status = EXPERIMENTS
            .iter()
            .filter(|e| e.rerun || e.name == "figures")
            .map(|e| drive(e, &[]));
        return status.max().unwrap_or(0);
    }
    match EXPERIMENTS.iter().find(|e| e.name == name) {
        Some(exp) => drive(exp, rest),
        None => {
            eprintln!("unknown experiment {name:?}");
            usage()
        }
    }
}

/// Runs one experiment under `argv` (its flags) and returns the exit
/// status: 0, 1 when a check failed or a rerun diverged, 2 on a usage
/// error.
pub fn drive(exp: &Experiment, argv: &[String]) -> i32 {
    match run(exp, argv) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(msg) => {
            eprintln!("sfs-bench {}: {msg}", exp.name);
            USAGE
        }
    }
}

fn run(exp: &Experiment, argv: &[String]) -> Result<bool, String> {
    let select = argv.first().filter(|a| !a.starts_with("--"));
    if let Some(s) = select {
        if !exp.selects.contains(&s.as_str()) {
            return Err(match exp.selects {
                [] => format!("unexpected argument {s:?}"),
                known => format!("unknown selection {s:?} (known: {})", known.join(", ")),
            });
        }
    }
    let flags = &argv[usize::from(select.is_some())..];
    let args = Args::from_vec(flags.iter().map(String::as_str).collect());
    args.reject_unknown(exp.valued, exp.boolean)?;
    let ctx = || -> Result<Ctx, String> {
        Ok(Ctx {
            args: &args,
            select: select.map(String::as_str),
            smoke: args.flag("smoke"),
            faults: FaultOpt::with_spec(args.opt("faults"))
                .map_err(|e| format!("--faults: {e}"))?,
            trace: TraceOpt::with_path(args.opt("trace")),
        })
    };

    println!("== {}: {} ==", exp.name, exp.about);
    let first = ctx()?;
    let mut report = (exp.run)(&first)?;
    if exp.rerun {
        let again = (exp.run)(&ctx()?)?;
        if let Err(diverged) = rerun_identical(exp.name, &report, &again) {
            eprintln!("FAIL: {diverged}");
            return Ok(false);
        }
    }

    if report.text.is_empty() {
        print!("{}{}", report.header.lines(), rows_table(&report.rows));
    } else {
        print!("{}", report.text);
    }
    let out = args.opt("out").or(exp.artifact.map(String::from));
    if let (Some(path), false) = (out, report.rows.is_empty()) {
        write_artifact(&path, &report.header, report.rows_key, &report.rows)?;
    }
    for (path, contents) in &report.files {
        write_file(path, contents)?;
    }
    first.trace.finish()?;

    let faulted = first.faults.enabled();
    if let Some(tally) = first.faults.tally() {
        println!("{tally}");
        let envelope = first.faults.check_envelope(report.final_ns);
        report.checks.push(Check::invariant(
            "the run stayed inside its --faults envelope",
            envelope.is_ok(),
            envelope.err().unwrap_or_default(),
        ));
    }
    Ok(evaluate(&report.checks, faulted))
}

/// What the driver makes of one check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// It held.
    Ok,
    /// It did not: the run exits 1.
    Fail,
    /// A performance envelope on a faulted run: not judged.
    Skipped,
}

/// Judges one check; performance envelopes do not apply to a faulted run.
pub fn verdict(check: &Check, faulted: bool) -> Verdict {
    match (check.perf && faulted, check.holds) {
        (true, _) => Verdict::Skipped,
        (false, true) => Verdict::Ok,
        (false, false) => Verdict::Fail,
    }
}

/// Prints every check's verdict — a failing one does not hide those
/// after it — and returns whether none failed.
fn evaluate(checks: &[Check], faulted: bool) -> bool {
    let verdicts: Vec<Verdict> = checks.iter().map(|c| verdict(c, faulted)).collect();
    for (c, v) in checks.iter().zip(&verdicts) {
        match v {
            Verdict::Ok => println!("ok: {} [{}]", c.what, c.detail),
            Verdict::Skipped => println!("skipped under --faults: {} [{}]", c.what, c.detail),
            Verdict::Fail => eprintln!("FAIL: {} [{}]", c.what, c.detail),
        }
    }
    !verdicts.contains(&Verdict::Fail)
}
