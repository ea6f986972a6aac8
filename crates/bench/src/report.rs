//! Checks as data, the latency tables, and the one emitter and rerun
//! check behind every committed `BENCH_*.json` artifact.

use std::collections::BTreeMap;
use std::fmt::{Debug, Display, Write};

use sfs_telemetry::Telemetry;

/// A table cell's value: three significant digits from 1 up.
pub fn format_val(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.2}")
    }
}

/// The NFS3 procedures the server keeps service-time histograms for, in
/// RFC 1813 procedure-number order (how the table lists them).
pub const NFS3_PROCS: &[&str] = &[
    "NULL",
    "GETATTR",
    "SETATTR",
    "LOOKUP",
    "ACCESS",
    "READLINK",
    "READ",
    "WRITE",
    "CREATE",
    "MKDIR",
    "SYMLINK",
    "REMOVE",
    "RMDIR",
    "RENAME",
    "LINK",
    "READDIR",
    "READDIRPLUS",
    "FSSTAT",
    "FSINFO",
    "PATHCONF",
    "COMMIT",
];

/// Renders the per-procedure NFS3 latency breakdown from a tracing
/// sink's histograms: one block per process (system/server), one row
/// per procedure in wire order, quantiles in microseconds. Integer-only
/// formatting, so two identical virtual-time runs render byte-identical
/// tables.
pub fn latency_table(tel: &Telemetry) -> String {
    let hists = tel.histograms();
    let mut by_proc: BTreeMap<String, Vec<(usize, &sfs_telemetry::Histogram)>> = BTreeMap::new();
    for (process, name, h) in &hists {
        if let Some(i) = NFS3_PROCS.iter().position(|n| n == name) {
            by_proc.entry(process.clone()).or_default().push((i, h));
        }
    }
    let mut out = String::new();
    out.push_str("== NFS3 per-procedure latency breakdown (unit: µs) ==\n");
    if by_proc.is_empty() {
        out.push_str("(no per-procedure histograms recorded — is tracing enabled?)\n");
        return out;
    }
    for (process, mut rows) in by_proc {
        rows.sort_by_key(|(i, _)| *i);
        out.push_str(&format!("\n{process}:\n"));
        out.push_str(&format!(
            "  {:<12} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
            "procedure", "count", "mean", "p50", "p90", "p99", "max"
        ));
        for (i, h) in rows {
            out.push_str(&format!(
                "  {:<12} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                NFS3_PROCS[i],
                h.count(),
                us(h.mean()),
                us(h.quantile(0.5).unwrap_or(0)),
                us(h.quantile(0.9).unwrap_or(0)),
                us(h.quantile(0.99).unwrap_or(0)),
                us(h.max()),
            ));
        }
    }
    out.push_str(&shard_table(tel, &hists));
    out
}

/// Renders the multi-core shard breakdown when a `ShardEngine` recorded
/// any per-shard series: CPU busy time per simulated core
/// (`server.shard.busy_ticks`), the disk commit queue's depth high-water
/// mark (`server.shard.queue_depth`), and the group-commit batch-size
/// histogram (`server.disk.batch_size`). Empty string when no shard
/// engine ran, so single-core tables stay byte-identical.
fn shard_table(
    tel: &Telemetry,
    hists: &[(String, &'static str, sfs_telemetry::Histogram)],
) -> String {
    let mut busy: BTreeMap<String, u64> = BTreeMap::new();
    for (process, name, total) in tel.counters_snapshot() {
        if name == "server.shard.busy_ticks" {
            busy.insert(process, total);
        }
    }
    let mut queue_hwm: BTreeMap<String, u64> = BTreeMap::new();
    for (process, name, _current, hwm) in tel.gauges_snapshot() {
        if name == "server.shard.queue_depth" {
            queue_hwm.insert(process, hwm);
        }
    }
    let mut batches: BTreeMap<String, &sfs_telemetry::Histogram> = BTreeMap::new();
    for (process, name, h) in hists {
        if *name == "server.disk.batch_size" {
            batches.insert(process.clone(), h);
        }
    }
    let shards: std::collections::BTreeSet<&String> = busy
        .keys()
        .chain(queue_hwm.keys())
        .chain(batches.keys())
        .collect();
    if shards.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    out.push_str("\n== Multi-core shard breakdown ==\n");
    out.push_str(&format!(
        "  {:<24} {:>12} {:>10} {:>8} {:>11} {:>10}\n",
        "shard", "busy (µs)", "queue hwm", "batches", "batch mean", "batch max"
    ));
    for shard in shards {
        let (count, mean, max) = match batches.get(shard) {
            Some(h) => (
                h.count().to_string(),
                h.mean().to_string(),
                h.max().to_string(),
            ),
            None => ("0".into(), "-".into(), "-".into()),
        };
        out.push_str(&format!(
            "  {:<24} {:>12} {:>10} {:>8} {:>11} {:>10}\n",
            shard,
            us(busy.get(shard).copied().unwrap_or(0)),
            queue_hwm.get(shard).copied().unwrap_or(0),
            count,
            mean,
            max,
        ));
    }
    out
}

/// Nanoseconds rendered as decimal microseconds, integer math only.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// An ordered JSON object. Field order is insertion order and every
/// value is rendered when it is added (floats at a fixed precision), so
/// equal inputs serialize byte-for-byte equally.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Obj(Vec<(&'static str, String)>);

impl Obj {
    /// The empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    fn put(mut self, key: &'static str, rendered: String) -> Obj {
        self.0.push((key, rendered));
        self
    }

    /// A string field (escaped).
    pub fn str(self, key: &'static str, v: &str) -> Obj {
        let mut out = String::from('"');
        for c in v.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
                c => out.push(c),
            }
        }
        out.push('"');
        self.put(key, out)
    }

    /// An integer or boolean field, rendered as `Display` prints it.
    pub fn num(self, key: &'static str, v: impl Display) -> Obj {
        self.put(key, v.to_string())
    }

    /// A float field with exactly `decimals` fractional digits.
    pub fn float(self, key: &'static str, v: f64, decimals: usize) -> Obj {
        self.put(key, format!("{v:.decimals$}"))
    }

    /// A nested object field (rendered on one line).
    pub fn obj(self, key: &'static str, v: Obj) -> Obj {
        self.put(key, v.line())
    }

    /// A `null` field.
    pub fn null(self, key: &'static str) -> Obj {
        self.put(key, "null".into())
    }

    /// The value of field `key` as rendered.
    pub fn get(&self, key: &str) -> Option<&str> {
        let (_, v) = self.0.iter().find(|(k, _)| *k == key)?;
        Some(v)
    }

    /// The numeric field `key`, as the artifact states it.
    pub fn number(&self, key: &str) -> f64 {
        let v = self.get(key).unwrap_or_else(|| panic!("no field {key:?}"));
        v.parse()
            .unwrap_or_else(|_| panic!("field {key:?} is not a number: {v}"))
    }

    /// `key: value`, one field per line — how a header prints.
    pub fn lines(&self) -> String {
        self.0
            .iter()
            .fold(String::new(), |out, (k, v)| out + &format!("  {k}: {v}\n"))
    }

    /// `{"k": v, …}` on one line.
    fn line(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Renders a bench artifact: the `header` fields one per line, then the
/// array `rows_key` with one row per line.
pub fn artifact_json(header: &Obj, rows_key: &str, rows: &[Obj]) -> String {
    let mut out = String::from("{\n");
    for (k, v) in &header.0 {
        writeln!(out, "  \"{k}\": {v},").unwrap();
    }
    writeln!(out, "  \"{rows_key}\": [").unwrap();
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        writeln!(out, "    {}{sep}", row.line()).unwrap();
    }
    out.push_str("  ]\n}\n");
    out
}

/// The rows as an aligned text table, one column per field of the first
/// row — the stdout view of exactly what the artifact holds.
pub fn rows_table(rows: &[Obj]) -> String {
    let Some(first) = rows.first() else {
        return String::new();
    };
    let widths: Vec<usize> = (0..first.0.len())
        .map(|i| {
            let cells = rows.iter().filter_map(|r| r.0.get(i)).map(|(_, v)| v.len());
            cells.chain([first.0[i].0.len()]).max().unwrap_or(0)
        })
        .collect();
    let mut out = String::new();
    let mut line = |cells: Vec<&str>| {
        for (cell, w) in cells.iter().zip(&widths) {
            write!(out, "  {cell:>w$}").unwrap();
        }
        out.push('\n');
    };
    line(first.0.iter().map(|(k, _)| *k).collect());
    for row in rows {
        line(row.0.iter().map(|(_, v)| v.as_str()).collect());
    }
    out
}

/// Writes [`artifact_json`] to `path`.
pub fn write_artifact(
    path: &str,
    header: &Obj,
    rows_key: &str,
    rows: &[Obj],
) -> Result<(), String> {
    write_file(path, &artifact_json(header, rows_key, rows))
}

/// Writes `contents` to `path` and says so on stdout.
pub fn write_file(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

/// One envelope assertion as data: what must hold, whether it did, and
/// the numbers behind the verdict. Experiments return these; the driver
/// evaluates every one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Check {
    /// The property, in words.
    pub what: String,
    /// Whether it held.
    pub holds: bool,
    /// The measured values that decided it.
    pub detail: String,
    /// A performance envelope, which a faulted run legitimately leaves
    /// (skipped under `--faults`); invariants hold under any fault plan.
    pub perf: bool,
}

impl Check {
    /// A property that must hold on every run, faulted or not.
    pub fn invariant(what: impl Into<String>, holds: bool, detail: impl Into<String>) -> Check {
        Check {
            what: what.into(),
            holds,
            detail: detail.into(),
            perf: false,
        }
    }

    /// A performance envelope of the fault-free run.
    pub fn perf(what: impl Into<String>, holds: bool, detail: impl Into<String>) -> Check {
        Check {
            perf: true,
            ..Check::invariant(what, holds, detail)
        }
    }
}

/// One performance check per adjacent pair of `rows`: `value` must not
/// fall as `along` grows, beyond the fraction `slack` of it.
pub fn monotone(rows: &[&Obj], along: &str, value: &str, slack: f64) -> Vec<Check> {
    let check = |pair: &[&Obj]| {
        let (a, b) = (pair[0], pair[1]);
        Check::perf(
            format!(
                "{value} does not fall from {along} {} to {}",
                a.number(along),
                b.number(along)
            ),
            b.number(value) >= a.number(value) * (1.0 - slack),
            format!("{} -> {}", a.number(value), b.number(value)),
        )
    };
    rows.windows(2).map(check).collect()
}

/// Compares the outcomes of two runs of `what`, each from whatever
/// fresh world it built. Virtual time leaves the host nothing to vary,
/// so any difference is a bug: the error says where the two outcomes'
/// `{:#?}` renderings first part.
pub fn rerun_identical<T: PartialEq + Debug>(
    what: &str,
    first: &T,
    again: &T,
) -> Result<(), String> {
    if first == again {
        return Ok(());
    }
    let (a, b) = (format!("{first:#?}"), format!("{again:#?}"));
    let parted = a
        .lines()
        .zip(b.lines())
        .enumerate()
        .find(|(_, (x, y))| x != y);
    let at = match parted {
        Some((i, (x, y))) => format!("line {}: {x:?} vs {y:?}", i + 1),
        None => "one outcome is a prefix of the other".into(),
    };
    Err(format!("{what} is not deterministic across reruns: {at}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_bytes_are_pinned() {
        let header = Obj::new()
            .str("schema", "sfs-bench/demo/v1")
            .str("mode", "smoke")
            .float("hit_rate_floor", 0.9, 2)
            .obj(
                "unit",
                Obj::new().str("*_ns", "nanoseconds").num("window", 16),
            )
            .null("faults");
        let rows = [
            Obj::new()
                .str("name", "say \"hi\"\\\n")
                .num("clients", 8usize)
                .num("blocking", true)
                .float("mb_per_s", 3.23049, 3)
                .float("mean_op_us", 12.25, 1),
            Obj::new().num("virtual_ns", u64::MAX).float("x", 2.0, 0),
        ];
        assert_eq!(
            artifact_json(&header, "rows", &rows),
            concat!(
                "{\n",
                "  \"schema\": \"sfs-bench/demo/v1\",\n",
                "  \"mode\": \"smoke\",\n",
                "  \"hit_rate_floor\": 0.90,\n",
                "  \"unit\": {\"*_ns\": \"nanoseconds\", \"window\": 16},\n",
                "  \"faults\": null,\n",
                "  \"rows\": [\n",
                "    {\"name\": \"say \\\"hi\\\"\\\\\\u000a\", \"clients\": 8, \"blocking\": true, ",
                "\"mb_per_s\": 3.230, \"mean_op_us\": 12.2},\n",
                "    {\"virtual_ns\": 18446744073709551615, \"x\": 2}\n",
                "  ]\n",
                "}\n",
            )
        );
        assert_eq!(
            artifact_json(&Obj::new(), "rows", &[]),
            "{\n  \"rows\": [\n  ]\n}\n"
        );
    }

    #[test]
    fn rerun_identical_says_where_two_outcomes_part() {
        assert_eq!(
            rerun_identical("demo", &vec![1u64, 2, 3], &vec![1, 2, 3]),
            Ok(())
        );
        let err = rerun_identical("demo", &vec![1u64, 2, 3], &vec![1, 9, 3]).unwrap_err();
        assert!(err.contains("demo") && err.contains("line 3"), "{err}");
    }

    #[test]
    fn latency_table_orders_procedures_and_is_deterministic() {
        let render = || {
            let t = Telemetry::recording(sfs_telemetry::ZeroClock);
            t.record("NFS 3 (UDP)/server", "WRITE", 250_000);
            t.record("NFS 3 (UDP)/server", "GETATTR", 180_000);
            t.record("NFS 3 (UDP)/server", "GETATTR", 190_000);
            t.record("NFS 3 (UDP)/server", "not_a_proc", 1);
            latency_table(&t)
        };
        let s = render();
        assert_eq!(s, render());
        let getattr = s.find("GETATTR").unwrap();
        let write = s.find("WRITE").unwrap();
        assert!(getattr < write, "wire order: GETATTR before WRITE");
        assert!(!s.contains("not_a_proc"));
        assert!(s.contains("180.000"), "{s}");
    }

    #[test]
    fn latency_table_smoke_over_a_real_workload() {
        // End to end: run a little I/O through the kernel-NFS stack and
        // render the breakdown from the histograms the server recorded.
        let tel = Telemetry::recording(sfs_telemetry::ZeroClock);
        let scoped = tel.scoped("NFS 3 (UDP)");
        let crate::Testbed { fs, prefix, .. } = crate::Testbed::build(
            crate::System::NfsUdp,
            &crate::world::WorldSpec::bench().traced(&scoped),
        );
        let p = format!("{prefix}/smoke");
        fs.create(&p).unwrap();
        fs.write(&p, 0, b"breakdown").unwrap();
        fs.read(&p, 0, 9).unwrap();
        // `open` forces the close-to-open GETATTR regardless of the
        // attribute cache.
        fs.open(&p).unwrap();
        let s = latency_table(&tel);
        for proc in ["LOOKUP", "CREATE", "WRITE", "GETATTR"] {
            assert!(s.contains(proc), "missing {proc} in:\n{s}");
        }
        assert!(s.contains("NFS 3 (UDP)/server"));
    }

    #[test]
    fn latency_table_empty_without_tracing() {
        let s = latency_table(&Telemetry::disabled());
        assert!(s.contains("no per-procedure histograms"));
    }

    #[test]
    fn latency_table_surfaces_shard_series_when_present() {
        let t = Telemetry::recording(sfs_telemetry::ZeroClock);
        t.record("SFS/server", "READ", 90_000);
        // No shard series recorded: the shard section must not render,
        // so single-core tables stay byte-identical to the pre-shard
        // format.
        assert!(!latency_table(&t).contains("Multi-core shard breakdown"));

        t.count("SFS/shard0", "server.shard.busy_ticks", 1_250_000);
        t.count("SFS/shard1", "server.shard.busy_ticks", 980_000);
        t.gauge_set("SFS/shard0", "server.shard.queue_depth", 3);
        t.gauge_set("SFS/shard0", "server.shard.queue_depth", 1);
        t.record("SFS/shard0", "server.disk.batch_size", 4);
        t.record("SFS/shard0", "server.disk.batch_size", 2);
        let s = latency_table(&t);
        assert!(s.contains("Multi-core shard breakdown"), "{s}");
        assert!(s.contains("SFS/shard0"), "{s}");
        assert!(s.contains("SFS/shard1"), "{s}");
        // busy_ticks rendered in µs; queue hwm keeps the peak (3), not
        // the final level (1); batch stats come from the histogram.
        assert!(s.contains("1250.000"), "{s}");
        let shard0_row = s.lines().find(|l| l.contains("SFS/shard0")).unwrap();
        assert!(shard0_row.contains(" 3 "), "{shard0_row}");
        assert_eq!(s, latency_table(&t), "deterministic render");
    }
}
