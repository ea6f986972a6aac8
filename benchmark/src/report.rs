//! The metric catalogue, the result line, run records, and the
//! `compare` / `summarize` subcommands over them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::harness::median_f64;

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric may worsen between two sets of runs *of the same
/// seeds* before `compare` calls it a regression.
#[derive(Clone, Copy, Debug)]
pub enum Slack {
    /// A share of the baseline median.
    Relative(f64),
    /// An absolute amount in the metric's unit.
    Absolute(f64),
    /// Whichever of the two is larger.
    Either(f64, f64),
}

/// An end-to-end metric.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Same-seed regression slack used by `compare`.
    pub slack: Slack,
    /// Deterministic for a given `(workload, seed, seconds)`: repeats
    /// exactly, so its spread never makes a comparison `unresolved`.
    pub exact: bool,
}

/// The end-to-end metrics, in the order they are printed. `BENCHMARK.json`
/// carries the same names with the *cross-seed* bounds the driver
/// applies; the slacks here are for same-seed comparison (virtual-time
/// metrics and counts repeat exactly for one seed, so they can be held
/// far tighter than any cross-seed bound).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        slack: Slack::Absolute(0.3),
        exact: false,
    },
    EndToEnd {
        name: "op_wall_ns",
        unit: "ns",
        better: Better::Lower,
        slack: Slack::Relative(0.08),
        exact: false,
    },
    EndToEnd {
        name: "wall_ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        slack: Slack::Relative(0.10),
        exact: false,
    },
    EndToEnd {
        name: "op_virtual_ns_p50",
        unit: "ns",
        better: Better::Lower,
        slack: Slack::Relative(0.001),
        exact: true,
    },
    EndToEnd {
        name: "op_virtual_ns_p99",
        unit: "ns",
        better: Better::Lower,
        slack: Slack::Relative(0.001),
        exact: true,
    },
    EndToEnd {
        name: "virtual_ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        slack: Slack::Relative(0.001),
        exact: true,
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "count",
        better: Better::Lower,
        slack: Slack::Either(0.02, 0.5),
        exact: true,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        slack: Slack::Relative(0.10),
        exact: false,
    },
];

/// Failed-or-wrong ops over attempted: derived from every run record's
/// `failed`/`attempted` and held at +0 by `compare`. Not an end-to-end
/// *metric* of the result line because it is 0 on every good run.
pub const FAIL_RATIO: &str = "op_fail_ratio";

/// Per-layer metrics `(name, unit, better)`, in print order. The layer
/// is the crate/module prefix of the name.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    // Counts per op, exact.
    ("sim.net.round_trips_per_op", "count", Better::Lower),
    ("sim.net.wire_bytes_per_op", "B", Better::Lower),
    ("sim.net.timeouts_per_op", "count", Better::Lower),
    ("sim.disk.syncs_per_op", "count", Better::Lower),
    ("sim.disk.bytes_written_per_op", "B", Better::Lower),
    ("sim.cpu.crypto_bytes_per_op", "B", Better::Lower),
    ("sim.cpu.crossings_per_op", "count", Better::Lower),
    ("proto.channel.msgs_sealed_per_op", "count", Better::Lower),
    ("proto.channel.bytes_sealed_per_op", "B", Better::Lower),
    ("proto.channel.mac_failures", "count", Better::Lower),
    ("proto.keyneg.handshakes_per_op", "count", Better::Lower),
    ("core.client.resume_hit_ratio", "ratio", Better::Higher),
    ("core.client.attr_hit_ratio", "ratio", Better::Higher),
    ("core.client.access_hit_ratio", "ratio", Better::Higher),
    (
        "core.client.lease_invalidations_per_op",
        "count",
        Better::Lower,
    ),
    ("core.client.readahead_hit_ratio", "ratio", Better::Higher),
    ("core.client.retransmits_per_op", "count", Better::Lower),
    ("core.client.inflight_hwm", "count", Better::Higher),
    ("core.server.dispatch_calls_per_op", "count", Better::Lower),
    ("core.server.seqwin_rejected", "count", Better::Lower),
    ("core.server.queue_depth_hwm", "count", Better::Lower),
    ("core.bufpool.hit_ratio", "ratio", Better::Higher),
    ("core.shard.busy_share", "ratio", Better::Lower),
    ("core.shard.frames_scheduled_per_op", "count", Better::Lower),
    ("core.shard.disk_joined_ratio", "ratio", Better::Higher),
    ("core.shard.queue_depth_hwm", "count", Better::Lower),
    ("nfs3.calls_per_op", "count", Better::Lower),
    // Virtual self time per op.
    ("sim.net.virtual_ns_per_op", "ns", Better::Lower),
    ("sim.disk.virtual_ns_per_op", "ns", Better::Lower),
    ("nfs3.virtual_ns_per_op", "ns", Better::Lower),
    ("core.client.virtual_self_ns_per_op", "ns", Better::Lower),
    ("core.server.virtual_self_ns_per_op", "ns", Better::Lower),
    ("proto.keyneg.virtual_ns_per_op", "ns", Better::Lower),
    ("budget.virtual_unattributed_share", "ratio", Better::Lower),
    ("core.client.connect_full_virtual_ns", "ns", Better::Lower),
    ("core.client.connect_resume_virtual_ns", "ns", Better::Lower),
    (
        "core.client.connect_full_round_trips",
        "count",
        Better::Lower,
    ),
    (
        "core.client.connect_resume_round_trips",
        "count",
        Better::Lower,
    ),
    // Wall probes from outside.
    ("xdr.encode_ns_per_op", "ns", Better::Lower),
    ("xdr.decode_ns_per_op", "ns", Better::Lower),
    ("proto.channel.seal_ns_per_op", "ns", Better::Lower),
    ("proto.channel.open_ns_per_op", "ns", Better::Lower),
    ("crypto.handle_cipher_ns_per_op", "ns", Better::Lower),
    ("crypto.rabin_decrypt_ns", "ns", Better::Lower),
    ("crypto.rabin_sign_ns", "ns", Better::Lower),
    ("crypto.rabin_encrypt_ns", "ns", Better::Lower),
    ("crypto.rabin_verify_ns", "ns", Better::Lower),
    ("nfs3.handle_ns_per_op", "ns", Better::Lower),
    ("vfs.op_ns_per_op", "ns", Better::Lower),
    ("core.bufpool.get_put_ns", "ns", Better::Lower),
    ("telemetry.count_ns", "ns", Better::Lower),
    ("core.client.connect_full_wall_ns", "ns", Better::Lower),
    ("core.client.connect_resume_wall_ns", "ns", Better::Lower),
    ("telemetry.overhead_ratio", "ratio", Better::Lower),
    ("budget.wall_probed_share", "ratio", Better::Higher),
    ("budget.wall_unattributed_share", "ratio", Better::Lower),
    // The harness's own diagnostics.
    ("harness.op_wall_ns_p50_all", "ns", Better::Lower),
    ("harness.op_wall_ns_p99_all", "ns", Better::Lower),
    ("harness.segment_spread", "ratio", Better::Lower),
    ("harness.timer_ns", "ns", Better::Lower),
    ("harness.samples", "count", Better::Higher),
    ("harness.op_fail_ratio", "ratio", Better::Lower),
];

/// Named metric values of one run, in catalogue order.
pub type Metrics = Vec<(&'static str, f64)>;

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// A JSON number with all its digits (shortest form that parses back to
/// the same f64).
fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric values must be finite");
    format!("{v}")
}

fn metrics_json(metrics: &Metrics) -> String {
    let mut out = String::from("{");
    for (i, (name, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            num(*value),
            unit_of(name)
        );
    }
    out.push('}');
    out
}

/// What one run produced.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunResult {
    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }

    /// The run record appended to `--out`: the result line's content
    /// plus what was run.
    pub fn record_line(&self, workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \
             \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            u8::from(trace),
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }

    /// A table for people, printed above the result line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            let _ = writeln!(out, "  {name:<42} {:>18} {}", num(*value), unit_of(name));
        }
        out
    }
}

// ---------------------------------------------------------------------
// A minimal JSON reader (run records and history lines only need
// objects, strings, numbers and booleans, but arrays and null are
// accepted so a hand-edited file fails on content, not on syntax).
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(m));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.eat(b':')?;
                    m.insert(k, self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(m));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(a));
                }
                loop {
                    a.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(a));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    // Names and units never need escapes beyond these.
                    let c = *self.s.get(self.i + 1).ok_or("unterminated escape")?;
                    out.push(match c {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'"' | b'\\' | b'/' => c,
                        _ => return Err(format!("unsupported escape at byte {}", self.i)),
                    });
                    self.i += 2;
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }
}

pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing bytes after value at byte {}", p.i));
    }
    Ok(v)
}

// ---------------------------------------------------------------------
// compare / summarize
// ---------------------------------------------------------------------

/// Values of every metric per workload, gathered from a file of run
/// records (one value per run) or history lines (the `median` of each).
pub type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Reads a JSON-lines file of run records and/or history lines.
pub fn load_runs(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for (ln, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse_json(line).map_err(|e| format!("line {}: {e}", ln + 1))?;
        let workload = v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no \"workload\"", ln + 1))?;
        let per = set.entry(workload.to_string()).or_default();
        let Some(Json::Obj(metrics)) = v.get("metrics") else {
            return Err(format!("line {}: no \"metrics\" object", ln + 1));
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .or_else(|| m.get("median"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("line {}: metric {name} has no value", ln + 1))?;
            per.entry(name.clone()).or_default().push(value);
        }
        // Run records carry failure accounting; history lines carry the
        // ratio as a metric already.
        if let (Some(failed), Some(attempted)) = (
            v.get("failed").and_then(Json::as_f64),
            v.get("attempted").and_then(Json::as_f64),
        ) {
            per.entry(FAIL_RATIO.to_string())
                .or_default()
                .push(failed / attempted.max(1.0));
        }
    }
    Ok(set)
}

/// Python's `statistics.quantiles(values, n=4)` (exclusive method): the
/// three cut points, for the spread the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measurements"));
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (cut(1), cut(2), cut(3))
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric on one workload: baseline runs `a`, candidate runs
/// `b`. Regressed when `b`'s median is worse than `a`'s by more than the
/// slack. Otherwise, when either side's own quartile spread is wider
/// than the slack the medians cannot be told apart — `unresolved`,
/// unless every run of `b` reads at least as well as every run of `a`.
pub fn judge(better: Better, slack: Slack, exact: bool, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median_f64(a), median_f64(b));
    let allowed = match slack {
        Slack::Relative(r) => r * ma.abs(),
        Slack::Absolute(x) => x,
        Slack::Either(r, x) => (r * ma.abs()).max(x),
    };
    let worse_by = match better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    if worse_by > allowed {
        return Verdict::Regressed;
    }
    if exact {
        return Verdict::Unchanged;
    }
    let spread = |v: &[f64]| {
        let (q1, _, q3) = quartiles(v);
        q3 - q1
    };
    if spread(a) > allowed || spread(b) > allowed {
        let all_no_worse = match better {
            Better::Lower => {
                b.iter().cloned().fold(f64::MIN, f64::max)
                    <= a.iter().cloned().fold(f64::MAX, f64::min)
            }
            Better::Higher => {
                b.iter().cloned().fold(f64::MAX, f64::min)
                    >= a.iter().cloned().fold(f64::MIN, f64::max)
            }
        };
        if !all_no_worse {
            return Verdict::Unresolved;
        }
    }
    Verdict::Unchanged
}

/// The `compare` report: one row per workload and end-to-end metric.
/// Returns the text and whether any row regressed.
pub fn compare(a: &RunSet, b: &RunSet) -> (String, bool) {
    let mut out = String::new();
    let mut any_regressed = false;
    let _ = writeln!(
        out,
        "{:<10} {:<20} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "baseline", "candidate", "change"
    );
    for (workload, ma) in a {
        let Some(mb) = b.get(workload) else {
            let _ = writeln!(out, "{workload:<10} (absent from the candidate file)");
            continue;
        };
        let fail = EndToEnd {
            name: FAIL_RATIO,
            unit: "ratio",
            better: Better::Lower,
            slack: Slack::Absolute(0.0),
            exact: true,
        };
        for m in END_TO_END.iter().chain(std::iter::once(&fail)) {
            let (Some(va), Some(vb)) = (ma.get(m.name), mb.get(m.name)) else {
                continue;
            };
            let verdict = judge(m.better, m.slack, m.exact, va, vb);
            any_regressed |= verdict == Verdict::Regressed;
            let (x, y) = (median_f64(va), median_f64(vb));
            let change = if x != 0.0 {
                format!("{:+.3}%", (y - x) / x * 100.0)
            } else {
                format!("{:+}", y - x)
            };
            let _ = writeln!(
                out,
                "{workload:<10} {:<20} {:>16} {:>16} {change:>9}  {}",
                m.name,
                num(x),
                num(y),
                verdict.label()
            );
        }
    }
    (out, any_regressed)
}

/// One history line per workload: median and quartiles of every metric
/// over the file's runs.
pub fn summarize(runs: &RunSet, label: &str) -> String {
    let mut out = String::new();
    for (workload, metrics) in runs {
        let runs_n = metrics.values().map(Vec::len).max().unwrap_or(0);
        let _ = write!(
            out,
            "{{\"label\": \"{label}\", \"workload\": \"{workload}\", \"runs\": {runs_n}, \"metrics\": {{"
        );
        for (i, (name, values)) in metrics.iter().enumerate() {
            let (q1, q2, q3) = quartiles(values);
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"median\": {}, \"q1\": {}, \"q3\": {}}}",
                num(q2),
                num(q1),
                num(q3)
            );
        }
        out.push_str("}}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip_of_a_result_line() {
        let r = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![("op_wall_ns", 4213.5), ("setup_s", 0.25)],
        };
        let v = parse_json(&r.result_line()).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let m = v.get("metrics").unwrap().get("op_wall_ns").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(4213.5));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("ns"));
        assert!(parse_json("{\"a\": 1} x").is_err());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn judge_applies_slack_direction_and_spread() {
        let rel = Slack::Relative(0.08);
        // Within slack, tight runs: unchanged.
        assert_eq!(
            judge(
                Better::Lower,
                rel,
                false,
                &[100.0, 101.0, 99.0],
                &[104.0, 105.0, 103.0]
            ),
            Verdict::Unchanged
        );
        // Median worse than slack: regressed.
        assert_eq!(
            judge(
                Better::Lower,
                rel,
                false,
                &[100.0, 101.0, 99.0],
                &[110.0, 111.0, 109.0]
            ),
            Verdict::Regressed
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            judge(
                Better::Higher,
                rel,
                false,
                &[100.0, 100.0, 100.0],
                &[80.0, 80.0, 80.0]
            ),
            Verdict::Regressed
        );
        // Spread wider than slack and overlapping runs: unresolved …
        assert_eq!(
            judge(
                Better::Lower,
                rel,
                false,
                &[100.0, 130.0, 90.0],
                &[101.0, 128.0, 95.0]
            ),
            Verdict::Unresolved
        );
        // … unless every candidate run beats every baseline run.
        assert_eq!(
            judge(
                Better::Lower,
                rel,
                false,
                &[100.0, 130.0, 90.0],
                &[80.0, 85.0, 70.0]
            ),
            Verdict::Unchanged
        );
        // Exact metrics ignore spread and use the absolute floor.
        let allocs = Slack::Either(0.02, 0.5);
        assert_eq!(
            judge(Better::Lower, allocs, true, &[7.0], &[7.4]),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(Better::Lower, allocs, true, &[7.0], &[7.6]),
            Verdict::Regressed
        );
    }
}
