//! The command-line parser behind `sfs-bench <experiment> [flags]`.
//!
//! `Args` handles `--flag value` / `--flag=value`; the option types
//! ([`crate::trace::TraceOpt`], [`FaultOpt`]) are thin wrappers over it.
//! An experiment declares the options it understands and the driver
//! checks them with `Args::reject_unknown`, which turns a typo
//! (`--fauls=drop=20`) into a clear error instead of a silently
//! fault-free figure; the fault-spec *keys* themselves are validated by
//! `sfs_sim::FaultSpec::parse`, whose errors [`FaultOpt`] surfaces
//! verbatim.

use std::collections::BTreeMap;

use sfs_sim::{parse_duration_ns, FaultKind, FaultPlan};

/// Parsed process arguments supporting `--flag value` and `--flag=value`.
pub(crate) struct Args {
    argv: Vec<String>,
}

impl Args {
    /// Builds from an explicit vector.
    pub(crate) fn from_vec(argv: Vec<&str>) -> Self {
        Args {
            argv: argv.into_iter().map(String::from).collect(),
        }
    }

    /// Whether the boolean option `--<name>` was given.
    pub(crate) fn flag(&self, name: &str) -> bool {
        self.argv.iter().any(|a| a.strip_prefix("--") == Some(name))
    }

    /// The value of `--<name>` parsed as a number; anything else is a
    /// usage error naming the option.
    pub(crate) fn number(&self, name: &str) -> Result<Option<usize>, String> {
        self.opt(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: not a non-negative integer: {v:?}"))
            })
            .transpose()
    }

    /// The value of `--<name> <value>` or `--<name>=<value>`; the last
    /// occurrence wins, matching conventional CLI override behaviour.
    pub(crate) fn opt(&self, name: &str) -> Option<String> {
        let flag = format!("--{name}");
        let prefix = format!("--{name}=");
        let mut found = None;
        let mut it = self.argv.iter();
        while let Some(a) = it.next() {
            if *a == flag {
                found = it.next().cloned();
            } else if let Some(v) = a.strip_prefix(&prefix) {
                found = Some(v.to_string());
            }
        }
        found
    }

    /// Validates that every argument is an option the experiment declared:
    /// `valued` options take a value (either form), `boolean` ones take
    /// none. Anything else — a misspelled flag, a stray positional, a
    /// missing value — is a clear error naming the offender, so a typo'd
    /// `--fauls=...` can never silently produce a fault-free figure.
    pub(crate) fn reject_unknown(&self, valued: &[&str], boolean: &[&str]) -> Result<(), String> {
        let known = || {
            let mut k: Vec<String> = valued
                .iter()
                .chain(boolean)
                .map(|k| format!("--{k}"))
                .collect();
            k.sort();
            k.join(", ")
        };
        let mut it = self.argv.iter();
        while let Some(a) = it.next() {
            let Some(body) = a.strip_prefix("--") else {
                return Err(format!(
                    "unexpected positional argument {a:?} (known options: {})",
                    known()
                ));
            };
            let name = body.split('=').next().unwrap_or(body);
            let inline_value = body.contains('=');
            if valued.contains(&name) {
                if !inline_value && it.next().is_none() {
                    return Err(format!("--{name} expects a value"));
                }
            } else if boolean.contains(&name) {
                if inline_value {
                    return Err(format!("--{name} takes no value"));
                }
            } else {
                return Err(format!(
                    "unknown option --{name} (known options: {})",
                    known()
                ));
            }
        }
        Ok(())
    }
}

/// `--faults <spec>` support: a seeded deterministic [`FaultPlan`]
/// threaded through every layer of the testbed (wire, server, disk), so
/// any figure can be regenerated under a degraded network. The spec
/// grammar is `sfs_sim::FaultSpec::parse`'s
/// (`seed=7,drop=20,delay=50,delay_ns=2ms,partition=1s+200ms,crash=3s,ccrash=4s,syncfail=10`).
pub struct FaultOpt {
    plan: Option<FaultPlan>,
    spec: Option<String>,
}

impl FaultOpt {
    /// Builds from the value of `--faults`, when given; a malformed spec
    /// is the parse error.
    pub fn with_spec(spec: Option<String>) -> Result<Self, String> {
        let plan = match &spec {
            Some(s) => Some(FaultPlan::from_spec(s)?),
            None => None,
        };
        Ok(FaultOpt { plan, spec })
    }

    /// Whether `--faults` was given.
    pub(crate) fn enabled(&self) -> bool {
        self.plan.is_some()
    }

    /// The plan to thread through the testbed, when `--faults` was given.
    pub fn plan(&self) -> Option<&FaultPlan> {
        self.plan.as_ref()
    }

    /// The injected-fault tally after a run (`None` without `--faults`),
    /// so chaos figures are self-describing.
    pub(crate) fn tally(&self) -> Option<String> {
        let (plan, spec) = (self.plan.as_ref()?, self.spec.as_ref()?);
        let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
        for ev in plan.events() {
            *by_kind.entry(ev.kind.label()).or_insert(0) += 1;
        }
        let tally: Vec<String> = by_kind.iter().map(|(k, n)| format!("{k}={n}")).collect();
        Some(format!(
            "faults: spec \"{spec}\" (seed {}) injected {} events [{}]",
            plan.seed(),
            plan.injected(),
            tally.join(", ")
        ))
    }

    /// Checks the run's injected-fault tally against the envelope its
    /// spec promises — a figure produced under `--faults` must not
    /// silently have run fault-free (plan not wired into a layer) or
    /// injected faults its spec never enabled. `final_ns` is the latest
    /// virtual clock any testbed in the run reached; scheduled crashes
    /// due well before it must have fired. `Ok` without `--faults`.
    pub(crate) fn check_envelope(&self, final_ns: u64) -> Result<(), String> {
        let Some(plan) = &self.plan else {
            return Ok(());
        };
        let spec = plan.spec();
        let events = plan.events();
        // 1. Every injected event must belong to an axis the spec enabled.
        for ev in &events {
            let enabled = match ev.kind {
                // Partitions inject drops for every packet in the window.
                FaultKind::Drop => spec.drop_pm > 0 || !spec.partitions.is_empty(),
                FaultKind::Duplicate => spec.duplicate_pm > 0,
                FaultKind::Reorder => spec.reorder_pm > 0,
                FaultKind::Corrupt => spec.corrupt_pm > 0,
                FaultKind::Delay => spec.delay_pm > 0,
                FaultKind::Partition => !spec.partitions.is_empty(),
                FaultKind::ServerCrash => !spec.server_crashes.is_empty(),
                FaultKind::ClientCrash => !spec.client_crashes.is_empty(),
                FaultKind::DiskSyncFail => spec.disk_sync_fail_pm > 0,
            };
            if !enabled {
                return Err(format!(
                    "injected {:?} at {}ns but the spec never enabled that fault kind",
                    ev.kind.label(),
                    ev.at.0
                ));
            }
        }
        // 2. Substantial probability mass with zero injected events means
        // the plan was not actually threaded through the testbed.
        let mass = spec.drop_pm
            + spec.duplicate_pm
            + spec.reorder_pm
            + spec.corrupt_pm
            + spec.delay_pm
            + spec.disk_sync_fail_pm;
        if events.is_empty() && mass >= 20 {
            return Err(format!(
                "spec enables {mass}‰ of per-packet faults but the run injected none — \
                 is the plan wired into the wire/disk layers?"
            ));
        }
        // 3. A scheduled server crash due well before the run ended must
        // have fired (the epoch bump is observed on first post-crash
        // access, so only complain when the run clearly outlived it).
        let fired = events
            .iter()
            .filter(|e| e.kind == FaultKind::ServerCrash)
            .count();
        let due = spec
            .server_crashes
            .iter()
            .filter(|t| t.0.saturating_mul(2) < final_ns)
            .count();
        if fired < due {
            return Err(format!(
                "{due} scheduled server crash(es) were due well before the final \
                 clock ({final_ns}ns) but only {fired} fired"
            ));
        }
        Ok(())
    }
}

/// One operation kind in a scenario op mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioOp {
    /// `GETATTR` through the attribute cache.
    Stat,
    /// Read `io_bytes` from a committed region of a file.
    Read,
    /// Append `io_bytes` and flush (a synchronous commit point).
    Write,
    /// Create a fresh file instance in a retired slot.
    Create,
    /// Remove a live file instance.
    Unlink,
    /// Open: close-to-open attribute + access check.
    Open,
}

impl ScenarioOp {
    /// Every op kind, in canonical (encode) order.
    pub const ALL: [ScenarioOp; 6] = [
        ScenarioOp::Stat,
        ScenarioOp::Read,
        ScenarioOp::Write,
        ScenarioOp::Create,
        ScenarioOp::Unlink,
        ScenarioOp::Open,
    ];

    /// The spec-grammar name of this op.
    pub(crate) fn label(self) -> &'static str {
        match self {
            ScenarioOp::Stat => "stat",
            ScenarioOp::Read => "read",
            ScenarioOp::Write => "write",
            ScenarioOp::Create => "create",
            ScenarioOp::Unlink => "unlink",
            ScenarioOp::Open => "open",
        }
    }

    /// Parses a spec-grammar op name.
    pub(crate) fn parse(s: &str) -> Option<ScenarioOp> {
        Self::ALL.iter().copied().find(|op| op.label() == s)
    }
}

/// A declarative workload scenario: op-mix percentages, file-set shape,
/// client count, and duration, in one comma-separated spec string the
/// `scenarios` experiment and the engine share
/// (`seed=7,clients=4,dirs=8,files=64,file_bytes=8192,io_bytes=8192,ops=1200,cpu_ns=0,mix=stat:13+read:22+write:15+create:2+unlink:1+open:34`).
///
/// [`ScenarioSpec::encode`] is the canonical form: `parse(encode(s)) ==
/// s` for every valid spec, which is what the round-trip property tests
/// enforce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Seed for the deterministic op/file/client choices.
    pub seed: u64,
    /// Concurrent clients sharing the server (1–64).
    pub clients: usize,
    /// Directories the file set is spread over.
    pub dirs: usize,
    /// File slots (each slot holds one live file instance at a time).
    pub files: usize,
    /// Initial bytes per file instance.
    pub file_bytes: usize,
    /// Bytes per read/append.
    pub io_bytes: usize,
    /// Operations to execute after setup.
    pub ops: usize,
    /// CPU burned per write op, ns (models compilation between I/Os).
    pub cpu_ns: u64,
    /// Weighted op mix, in spec order. Non-empty; weights positive.
    pub mix: Vec<(ScenarioOp, u32)>,
}

/// Hard cap on `clients`: beyond this the simulated single-server world
/// stops resembling the testbed the cost model was calibrated for.
pub const MAX_SCENARIO_CLIENTS: usize = 64;

impl ScenarioSpec {
    /// Parses a scenario spec. Unknown keys, malformed numbers, and
    /// structurally invalid mixes are rejected with errors that name the
    /// offending key or entry.
    pub fn parse(s: &str) -> Result<ScenarioSpec, String> {
        let mut spec = ScenarioSpec {
            seed: 1,
            clients: 1,
            dirs: 1,
            files: 16,
            file_bytes: 4096,
            io_bytes: 1024,
            ops: 100,
            cpu_ns: 0,
            mix: Vec::new(),
        };
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part.split_once('=').ok_or_else(|| {
                format!("scenario spec entry {part:?} is not of the form key=value")
            })?;
            let int = |what: &str| -> Result<u64, String> {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{what}={value:?} is not a non-negative integer"))
            };
            match key {
                "seed" => spec.seed = int("seed")?,
                "clients" => spec.clients = int("clients")? as usize,
                "dirs" => spec.dirs = int("dirs")? as usize,
                "files" => spec.files = int("files")? as usize,
                "file_bytes" => spec.file_bytes = int("file_bytes")? as usize,
                "io_bytes" => spec.io_bytes = int("io_bytes")? as usize,
                "ops" => spec.ops = int("ops")? as usize,
                "cpu_ns" => spec.cpu_ns = parse_duration_ns(value)?,
                "mix" => spec.mix = parse_mix(value)?,
                other => {
                    return Err(format!(
                        "unknown scenario spec key {other:?} (known keys: seed, clients, \
                         dirs, files, file_bytes, io_bytes, ops, cpu_ns, mix)"
                    ))
                }
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// The canonical spec string: every field, fixed order, mix in
    /// stored order. `parse(encode(x)) == x`.
    pub fn encode(&self) -> String {
        let mix: Vec<String> = self
            .mix
            .iter()
            .map(|(op, w)| format!("{}:{}", op.label(), w))
            .collect();
        format!(
            "seed={},clients={},dirs={},files={},file_bytes={},io_bytes={},ops={},cpu_ns={},mix={}",
            self.seed,
            self.clients,
            self.dirs,
            self.files,
            self.file_bytes,
            self.io_bytes,
            self.ops,
            self.cpu_ns,
            mix.join("+")
        )
    }

    fn validate(&self) -> Result<(), String> {
        if self.clients == 0 {
            return Err("clients=0: a scenario needs at least one client".into());
        }
        if self.clients > MAX_SCENARIO_CLIENTS {
            return Err(format!(
                "clients={} exceeds the maximum of {MAX_SCENARIO_CLIENTS}",
                self.clients
            ));
        }
        if self.dirs == 0 {
            return Err("dirs=0: the file set needs at least one directory".into());
        }
        if self.files < 2 {
            return Err(format!(
                "files={}: need at least 2 file slots so unlink can always leave one live file",
                self.files
            ));
        }
        if self.file_bytes == 0 || self.io_bytes == 0 {
            return Err("file_bytes and io_bytes must be at least 1".into());
        }
        if self.ops == 0 {
            return Err("ops=0: the scenario would do nothing after setup".into());
        }
        if self.mix.is_empty() {
            return Err(
                "scenario spec needs a mix= op table, e.g. mix=stat:30+read:50+write:20".into(),
            );
        }
        let total: u64 = self.mix.iter().map(|(_, w)| *w as u64).sum();
        if total > 100_000 {
            return Err(format!("mix weights sum to {total}, above the 100000 cap"));
        }
        Ok(())
    }
}

fn parse_mix(value: &str) -> Result<Vec<(ScenarioOp, u32)>, String> {
    let mut mix = Vec::new();
    for entry in value.split('+') {
        let (name, weight) = entry.split_once(':').ok_or_else(|| {
            format!("mix entry {entry:?} is not of the form op:weight (e.g. read:30)")
        })?;
        let op = ScenarioOp::parse(name).ok_or_else(|| {
            format!("unknown mix op {name:?} (known ops: stat, read, write, create, unlink, open)")
        })?;
        let w: u32 = weight
            .parse()
            .map_err(|_| format!("mix weight {weight:?} for {name} is not an integer"))?;
        if w == 0 {
            return Err(format!("mix weight for {name} must be positive"));
        }
        if mix.iter().any(|(o, _)| *o == op) {
            return Err(format!("mix lists {name} twice"));
        }
        mix.push((op, w));
    }
    Ok(mix)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_flag_forms_parse_and_last_wins() {
        let a = Args::from_vec(vec!["--trace", "a.json", "--trace=b.json"]);
        assert_eq!(a.opt("trace").as_deref(), Some("b.json"));
        let a = Args::from_vec(vec!["--faults=seed=1,drop=5", "ignored"]);
        assert_eq!(a.opt("faults").as_deref(), Some("seed=1,drop=5"));
        assert_eq!(a.opt("missing"), None);
    }

    #[test]
    fn fault_opt_builds_a_plan() {
        let f = FaultOpt::with_spec(Some("seed=9,drop=10".into())).unwrap();
        assert!(f.enabled());
        assert_eq!(f.plan().unwrap().seed(), 9);
        let off = FaultOpt::with_spec(None).unwrap();
        assert!(!off.enabled());
        assert!(off.plan().is_none());
    }

    #[test]
    fn fault_opt_rejects_bad_specs() {
        assert!(FaultOpt::with_spec(Some("drop=2000".into())).is_err());
        assert!(FaultOpt::with_spec(Some("nonsense".into())).is_err());
    }

    #[test]
    fn durations_that_overflow_are_rejected_not_wrapped() {
        let err = FaultOpt::with_spec(Some("delay_ns=99999999999s".into()))
            .map(|_| ())
            .unwrap_err();
        assert!(err.contains("overflows"), "{err}");
        let err = ScenarioSpec::parse("mix=stat:1,cpu_ns=99999999999s").unwrap_err();
        assert!(err.contains("overflows"), "{err}");
        let spec = ScenarioSpec::parse("mix=stat:1,cpu_ns=2ms").unwrap();
        assert_eq!(spec.cpu_ns, 2_000_000);
    }

    #[test]
    fn fault_opt_rejects_unknown_spec_keys_with_a_clear_error() {
        // A typo'd axis must fail loudly, not run fault-free: the error
        // names the offending key so the user can see the typo.
        let err = FaultOpt::with_spec(Some("seed=7,dorp=20".into()))
            .map(|_| ())
            .unwrap_err();
        assert!(
            err.contains("unknown fault spec key") && err.contains("dorp"),
            "error must name the unknown key: {err}"
        );
    }

    #[test]
    fn reject_unknown_accepts_declared_options_in_both_forms() {
        let a = Args::from_vec(vec!["--faults", "seed=1,drop=5", "--out=x.json", "--smoke"]);
        assert!(a.reject_unknown(&["faults", "out"], &["smoke"]).is_ok());
        assert!(Args::from_vec(vec![])
            .reject_unknown(&["faults"], &[])
            .is_ok());
    }

    #[test]
    fn reject_unknown_flags_typos_and_strays() {
        // Misspelled option: named in the error, known set listed.
        let a = Args::from_vec(vec!["--fauls=seed=1,drop=5"]);
        let err = a.reject_unknown(&["faults"], &["smoke"]).unwrap_err();
        assert!(
            err.contains("--fauls") && err.contains("--faults"),
            "error must name the typo and the known options: {err}"
        );
        // Stray positional argument.
        let a = Args::from_vec(vec!["extra"]);
        assert!(a.reject_unknown(&["faults"], &[]).is_err());
        // Valued option missing its value.
        let a = Args::from_vec(vec!["--faults"]);
        let err = a.reject_unknown(&["faults"], &[]).unwrap_err();
        assert!(err.contains("expects a value"), "{err}");
        // Boolean option given a value.
        let a = Args::from_vec(vec!["--smoke=yes"]);
        let err = a.reject_unknown(&[], &["smoke"]).unwrap_err();
        assert!(err.contains("takes no value"), "{err}");
    }

    #[test]
    fn envelope_passes_without_faults_and_within_spec() {
        // No --faults: always fine.
        let off = FaultOpt::with_spec(None).unwrap();
        assert!(off.check_envelope(1_000_000_000).is_ok());
        // Scheduled crash that fired: fine.
        let f = FaultOpt::with_spec(Some("seed=1,crash=1s".into())).unwrap();
        let plan = f.plan().unwrap();
        plan.note_server_crash(sfs_sim::SimTime(1_000_000_000));
        assert!(f.check_envelope(10_000_000_000).is_ok());
    }

    #[test]
    fn envelope_rejects_zero_events_under_substantial_mass() {
        // 50‰ of drops but nothing injected: the plan was not wired in.
        let f = FaultOpt::with_spec(Some("seed=2,drop=50".into())).unwrap();
        let err = f.check_envelope(5_000_000_000).unwrap_err();
        assert!(err.contains("injected none"), "{err}");
    }

    #[test]
    fn envelope_rejects_unscheduled_fault_kinds() {
        // The run recorded a client crash the spec never scheduled.
        let f = FaultOpt::with_spec(Some("seed=3,crash=5s".into())).unwrap();
        f.plan()
            .unwrap()
            .note_client_crash(sfs_sim::SimTime(1_000_000));
        let err = f.check_envelope(1_000_000_000).unwrap_err();
        assert!(err.contains("never enabled"), "{err}");
    }

    #[test]
    fn envelope_rejects_missed_scheduled_server_crash() {
        // The run ran far past the scheduled crash instant and it never
        // fired.
        let f = FaultOpt::with_spec(Some("seed=4,crash=1s".into())).unwrap();
        let err = f.check_envelope(60_000_000_000).unwrap_err();
        assert!(err.contains("server crash"), "{err}");
    }
}
