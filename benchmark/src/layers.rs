//! Per-layer accounting of a traced region, from what the program's own
//! telemetry recorded (counters, gauges, histograms, spans) — nothing is
//! added inside the program.

use std::collections::BTreeMap;

use crate::stack::{Harvest, SpanRec};

/// Sums `(process, name, value)` rows by name across processes.
fn by_name(rows: &[(String, String, u64)]) -> BTreeMap<&str, u64> {
    let mut m = BTreeMap::new();
    for (_, name, v) in rows {
        *m.entry(name.as_str()).or_insert(0) += *v;
    }
    m
}

/// Sums `(process, name, samples, sum)` rows by name across processes.
fn hists_by_name(rows: &[(String, String, u64, u64)]) -> BTreeMap<&str, (u64, u64)> {
    let mut m: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (_, name, n, sum) in rows {
        let e = m.entry(name.as_str()).or_default();
        *e = (e.0 + n, e.1 + sum);
    }
    m
}

/// Counter, gauge and histogram movement between two harvests of one
/// world (before and after the traced region).
pub struct Delta<'a> {
    counters: BTreeMap<&'a str, u64>,
    gauge_hwms: BTreeMap<&'a str, u64>,
    /// name → (samples, sum).
    hists: BTreeMap<&'a str, (u64, u64)>,
}

impl<'a> Delta<'a> {
    pub fn new(before: &'a Harvest, after: &'a Harvest) -> Self {
        let b = by_name(&before.counters);
        let counters = by_name(&after.counters)
            .into_iter()
            .map(|(k, v)| (k, v - b.get(k).copied().unwrap_or(0)))
            .collect();
        // A high-water mark cannot be differenced; the set-up traffic is
        // blocking single calls, which never raise the marks read here.
        let mut gauge_hwms = BTreeMap::new();
        for (_, name, hwm) in &after.gauge_hwms {
            let e = gauge_hwms.entry(name.as_str()).or_insert(0);
            *e = (*e).max(*hwm);
        }
        let hb = hists_by_name(&before.hists);
        let hists = hists_by_name(&after.hists)
            .into_iter()
            .map(|(k, (n, sum))| {
                let (n0, s0) = hb.get(k).copied().unwrap_or_default();
                (k, (n - n0, sum - s0))
            })
            .collect();
        Delta {
            counters,
            gauge_hwms,
            hists,
        }
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    pub fn hwm(&self, name: &str) -> f64 {
        self.gauge_hwms.get(name).copied().unwrap_or(0) as f64
    }

    /// `(samples, sum)` recorded into histogram `name` in the region.
    pub fn hist(&self, name: &str) -> (f64, f64) {
        let (n, s) = self.hists.get(name).copied().unwrap_or_default();
        (n as f64, s as f64)
    }

    /// `hits / (hits + misses)`, 0 when neither moved.
    pub fn ratio(&self, hits: &str, misses: &[&str]) -> f64 {
        let h = self.count(hits);
        let total = h + misses.iter().map(|m| self.count(m)).sum::<f64>();
        if total > 0.0 {
            h / total
        } else {
            0.0
        }
    }
}

/// Virtual self time per layer over `spans` (one traced region).
pub struct SelfTimes {
    /// Layer (span category) → summed self time, ns, over every clock.
    pub by_layer: BTreeMap<&'static str, u64>,
    /// Self time on the clocks the ops were timed on, ns: what the
    /// layers together explain of the end-to-end virtual time.
    pub on_op_clocks_ns: u64,
}

/// The clock a span was stamped with: in a fleet every client's spans
/// carry its scope (`c2/client`, `c2/wire`), and the unscoped rest is on
/// the server's clock; a single-client world has one clock for all.
fn clock_domain(proc: &str) -> &str {
    proc.split_once('/').map_or("", |(scope, _)| scope)
}

/// A layer's self time is its spans' duration minus the part their
/// child spans cover. The loop is single-threaded and closed, so on one
/// clock spans nest properly by time, across process rows too (a wire
/// span sits inside the client span that caused it, a server span
/// inside the wire span); parents are found by interval containment.
pub fn self_times(spans: &[SpanRec]) -> SelfTimes {
    let mut domains: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        domains.entry(clock_domain(&s.proc)).or_default().push(i);
    }
    let scoped = domains.keys().any(|d| !d.is_empty());
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut on_op_clocks_ns = 0;
    for (domain, mut idx) in domains {
        // Outer spans first: by start, then longest first; of two spans
        // over the very same interval the one that completed later is
        // the parent (a guard closes after the guards opened inside it).
        idx.sort_by_key(|&i| {
            let s = &spans[i];
            (
                s.start_ns,
                std::cmp::Reverse(s.start_ns + s.dur_ns),
                std::cmp::Reverse(i),
            )
        });
        let mut self_ns: Vec<u64> = idx.iter().map(|&i| spans[i].dur_ns).collect();
        // Stack of (position in idx, end).
        let mut open: Vec<(usize, u64)> = Vec::new();
        for (pos, &i) in idx.iter().enumerate() {
            let s = &spans[i];
            while open.last().is_some_and(|&(_, end)| end <= s.start_ns) {
                open.pop();
            }
            if let Some(&(parent, end)) = open.last() {
                // Clipped to the parent: a child cannot explain more of
                // the parent than the parent lasted.
                let covered = s.dur_ns.min(end - s.start_ns);
                self_ns[parent] = self_ns[parent].saturating_sub(covered);
            }
            if s.dur_ns > 0 {
                open.push((pos, s.start_ns + s.dur_ns));
            }
        }
        let on_op_clock = !scoped || !domain.is_empty();
        for (pos, &i) in idx.iter().enumerate() {
            *by_layer.entry(spans[i].cat).or_insert(0) += self_ns[pos];
            if on_op_clock {
                on_op_clocks_ns += self_ns[pos];
            }
        }
    }
    SelfTimes {
        by_layer,
        on_op_clocks_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(proc: &str, cat: &'static str, start: u64, dur: u64) -> SpanRec {
        SpanRec {
            proc: proc.into(),
            cat,
            name: "x".into(),
            start_ns: start,
            dur_ns: dur,
        }
    }

    #[test]
    fn self_time_subtracts_children_across_process_rows() {
        // Completion order: innermost first.
        let spans = vec![
            span("server", "nfs3", 42, 6),
            span("server", "core.server", 40, 10),
            span("wire", "sim.net", 10, 80),
            span("client", "core.client", 0, 100),
            // A second op; its wire span fills the client span exactly.
            span("wire", "sim.net", 100, 50),
            span("client", "core.client", 100, 50),
        ];
        let t = self_times(&spans);
        assert_eq!(t.by_layer["nfs3"], 6);
        assert_eq!(t.by_layer["core.server"], 4);
        assert_eq!(t.by_layer["sim.net"], 70 + 50);
        assert_eq!(t.by_layer["core.client"], 20);
        assert_eq!(t.on_op_clocks_ns, 150);
    }

    #[test]
    fn fleet_clocks_are_kept_apart() {
        let spans = vec![
            // Server clock: unrelated axis.
            span("server", "nfs3", 5, 7),
            span("c0/wire", "sim.net", 10, 20),
            span("c0/client", "core.client", 0, 40),
            span("c1/client", "core.client", 0, 30),
        ];
        let t = self_times(&spans);
        assert_eq!(t.by_layer["nfs3"], 7);
        assert_eq!(t.by_layer["core.client"], 20 + 30);
        assert_eq!(t.on_op_clocks_ns, 70);
    }
}
