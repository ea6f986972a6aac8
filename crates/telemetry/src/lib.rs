//! `sfs-telemetry`: deterministic tracing and metrics for the SFS stack.
//!
//! The paper's evaluation (§4.2–§4.3) is an exercise in attributing
//! time — RPC round trips, crypto bytes, user-level crossings, disk
//! syncs. This crate makes those quantities first-class: every layer
//! (simulated wire, NFS3 engine, secure channel, client/server
//! daemons, benchmarks) reports **spans**, **counters**, and
//! **histograms** into a shared [`Telemetry`] handle.
//!
//! Three properties drive the design:
//!
//! - **Virtual-time aware.** Timestamps come from a [`Clock`] — in the
//!   simulator that is `SimClock`, so traces are in virtual
//!   nanoseconds and bit-for-bit reproducible.
//! - **Zero-cost when disabled.** [`Telemetry::disabled`] is a `None`
//!   inside; every call short-circuits without locking or reading the
//!   clock, and nothing ever advances virtual time.
//! - **Deterministic output.** All aggregate state lives in `BTreeMap`s,
//!   events are appended in completion order, and the exporters use
//!   integer-only formatting — two identical virtual-time runs produce
//!   byte-identical Chrome traces.
//!
//! Exporters: [`Telemetry::chrome_trace`] emits `chrome://tracing`
//! JSON (load the file via the "Load" button or Perfetto), and
//! [`Telemetry::summary`] renders a per-layer text table.
//!
//! The `process` dimension ("client", "server", "agent", "wire", …)
//! becomes the Chrome trace's process row, so one trace shows every
//! simulated host concurrently; the `category` ("sim.net", "nfs3",
//! "proto.channel", "core.client", "bench", …) becomes the thread row,
//! i.e. the layer within the host.

mod metrics;
pub mod sync;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, LazyLock};

pub use metrics::Histogram;

/// A monotonic nanosecond time source. Implemented by the simulator's
/// `SimClock`; [`ZeroClock`] pins time at zero for clock-less uses
/// (pure counters, unit tests).
pub trait Clock: Send + Sync {
    /// Current time in nanoseconds.
    fn now_ns(&self) -> u64;
}

/// A [`Clock`] that always reads zero.
#[derive(Clone, Copy, Debug, Default)]
pub struct ZeroClock;

impl Clock for ZeroClock {
    fn now_ns(&self) -> u64 {
        0
    }
}

/// The one [`ZeroClock`] every clock-less handle shares, so making one
/// allocates nothing.
fn zero_clock() -> Arc<dyn Clock> {
    static ZERO: LazyLock<Arc<dyn Clock>> = LazyLock::new(|| Arc::new(ZeroClock));
    ZERO.clone()
}

impl<C: Clock + ?Sized> Clock for Arc<C> {
    fn now_ns(&self) -> u64 {
        (**self).now_ns()
    }
}

/// One completed trace event.
#[derive(Clone, Debug)]
enum Event {
    Span {
        proc: String,
        cat: &'static str,
        name: String,
        start_ns: u64,
        dur_ns: u64,
        depth: u32,
        args: Vec<(&'static str, String)>,
    },
    Instant {
        proc: String,
        cat: &'static str,
        name: String,
        ts_ns: u64,
        args: Vec<(&'static str, String)>,
    },
}

#[derive(Clone, Copy, Debug, Default)]
struct CounterState {
    total: u64,
    last_ns: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct GaugeState {
    current: u64,
    hwm: u64,
    last_ns: u64,
}

#[derive(Default)]
struct State {
    events: Vec<Event>,
    /// Currently-open span count per process (for nesting depth).
    depths: BTreeMap<String, u32>,
    counters: BTreeMap<(String, &'static str), CounterState>,
    gauges: BTreeMap<(String, &'static str), GaugeState>,
    hists: BTreeMap<(String, &'static str), Histogram>,
}

struct Inner {
    /// `true`: record spans/instants/histograms too. `false`: counters
    /// only (bounded memory; used as the default backing for ad-hoc
    /// stats like `Wire::round_trips`).
    full: bool,
    state: sync::Mutex<State>,
}

/// A cheaply-clonable handle onto a telemetry sink (or onto nothing).
///
/// The handle also carries the [`Clock`] and an optional scope prefix,
/// so several subsystems with *different* clocks (e.g. one simulated
/// run per benchmarked system) can share one sink: give each its own
/// handle via [`Telemetry::scoped`] + [`Telemetry::with_clock`].
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
    clock: Arc<dyn Clock>,
    scope: Option<Arc<str>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mode = match &self.inner {
            None => "disabled",
            Some(i) if i.full => "recording",
            Some(_) => "counters",
        };
        write!(f, "Telemetry({mode})")
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

/// A completed span's record, for tests and programmatic inspection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanInfo {
    /// Process/host dimension ("client", "server", "agent", "wire").
    pub proc: String,
    /// Layer dimension ("sim.net", "nfs3", "proto.channel", …).
    pub cat: &'static str,
    /// Span name.
    pub name: String,
    /// Start timestamp, ns of the handle's clock.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Nesting depth within the process at start time (1 = top level).
    pub(crate) depth: u32,
}

impl Telemetry {
    /// The no-op handle: every operation short-circuits.
    pub fn disabled() -> Self {
        Telemetry {
            inner: None,
            clock: zero_clock(),
            scope: None,
        }
    }

    /// A counters-only sink: `count`/`counter` work (O(1) memory), all
    /// tracing is dropped. Needs no clock.
    pub fn counters() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                full: false,
                state: sync::Mutex::new(State::default()),
            })),
            clock: zero_clock(),
            scope: None,
        }
    }

    /// A full recording sink timestamped by `clock`.
    pub fn recording(clock: impl Clock + 'static) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                full: true,
                state: sync::Mutex::new(State::default()),
            })),
            clock: Arc::new(clock),
            scope: None,
        }
    }

    /// This handle with a different clock (same sink). A disabled handle
    /// never reads its clock, so it keeps the shared one.
    pub fn with_clock(mut self, clock: impl Clock + 'static) -> Self {
        if self.inner.is_some() {
            self.clock = Arc::new(clock);
        }
        self
    }

    /// This handle with process names prefixed by `label/` (same sink).
    /// Scopes compose: `t.scoped("SFS").scoped("client")` yields
    /// processes under `SFS/client/…`.
    pub fn scoped(&self, label: &str) -> Self {
        let scope: Arc<str> = match &self.scope {
            Some(s) => format!("{s}/{label}").into(),
            None => label.into(),
        };
        Telemetry {
            inner: self.inner.clone(),
            clock: self.clock.clone(),
            scope: Some(scope),
        }
    }

    /// Whether any sink is attached (counters-only or full).
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether spans/instants/histograms are being recorded.
    pub fn is_tracing(&self) -> bool {
        self.inner.as_ref().map(|i| i.full).unwrap_or(false)
    }

    /// The handle's clock, in ns (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(_) => self.clock.now_ns(),
            None => 0,
        }
    }

    fn qualify(&self, proc: &str) -> String {
        match &self.scope {
            Some(s) => format!("{s}/{proc}"),
            None => proc.to_string(),
        }
    }

    /// Opens a span; it closes (and is recorded) when the guard drops.
    /// No-op unless tracing.
    pub fn span(&self, proc: &str, cat: &'static str, name: &str) -> Span {
        let Some(inner) = &self.inner else {
            return Span(None);
        };
        if !inner.full {
            return Span(None);
        }
        let proc = self.qualify(proc);
        let start_ns = self.clock.now_ns();
        let depth = {
            let mut st = inner.state.lock();
            let d = st.depths.entry(proc.clone()).or_insert(0);
            *d += 1;
            *d
        };
        Span(Some(ActiveSpan {
            inner: inner.clone(),
            clock: self.clock.clone(),
            proc,
            cat,
            name: name.to_string(),
            start_ns,
            depth,
            args: Vec::new(),
        }))
    }

    /// Records a zero-duration instant event. No-op unless tracing.
    pub fn instant(&self, proc: &str, cat: &'static str, name: &str) {
        self.instant_args(proc, cat, name, Vec::new());
    }

    /// An instant event with one attribute. No-op (and allocation-free)
    /// unless tracing.
    pub fn instant_kv(
        &self,
        proc: &str,
        cat: &'static str,
        name: &str,
        key: &'static str,
        value: impl std::fmt::Display,
    ) {
        if self.is_tracing() {
            self.instant_args(proc, cat, name, vec![(key, value.to_string())]);
        }
    }

    fn instant_args(
        &self,
        proc: &str,
        cat: &'static str,
        name: &str,
        args: Vec<(&'static str, String)>,
    ) {
        let Some(inner) = &self.inner else { return };
        if !inner.full {
            return;
        }
        let ev = Event::Instant {
            proc: self.qualify(proc),
            cat,
            name: name.to_string(),
            ts_ns: self.clock.now_ns(),
            args,
        };
        inner.state.lock().events.push(ev);
    }

    /// Adds `delta` to counter `(proc, name)`. Works in counters-only
    /// and full modes.
    pub fn count(&self, proc: &str, name: &'static str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        let ts = if inner.full { self.clock.now_ns() } else { 0 };
        let proc = self.qualify(proc);
        let mut st = inner.state.lock();
        let c = st.counters.entry((proc, name)).or_default();
        c.total += delta;
        c.last_ns = c.last_ns.max(ts);
    }

    /// Sets gauge `(proc, name)` to `value`, tracking its high-water
    /// mark. Gauges model instantaneous levels (in-flight RPCs, queue
    /// depths) where the interesting aggregate is the peak, not a sum.
    /// Works in counters-only and full modes.
    pub fn gauge_set(&self, proc: &str, name: &'static str, value: u64) {
        let Some(inner) = &self.inner else { return };
        let ts = if inner.full { self.clock.now_ns() } else { 0 };
        let proc = self.qualify(proc);
        let mut st = inner.state.lock();
        let g = st.gauges.entry((proc, name)).or_default();
        g.current = value;
        g.hwm = g.hwm.max(value);
        g.last_ns = g.last_ns.max(ts);
    }

    /// Current value of gauge `(proc, name)` (0 if never written).
    pub fn gauge(&self, proc: &str, name: &'static str) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let proc = self.qualify(proc);
        inner
            .state
            .lock()
            .gauges
            .get(&(proc, name))
            .map(|g| g.current)
            .unwrap_or(0)
    }

    /// High-water mark of gauge `(proc, name)` (0 if never written).
    #[cfg(test)]
    fn gauge_hwm(&self, proc: &str, name: &'static str) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let proc = self.qualify(proc);
        inner
            .state
            .lock()
            .gauges
            .get(&(proc, name))
            .map(|g| g.hwm)
            .unwrap_or(0)
    }

    /// Current value of counter `(proc, name)` (0 if never written).
    pub fn counter(&self, proc: &str, name: &'static str) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let proc = self.qualify(proc);
        inner
            .state
            .lock()
            .counters
            .get(&(proc, name))
            .map(|c| c.total)
            .unwrap_or(0)
    }

    /// Snapshot of every counter as `(process, name, total)`, sorted by
    /// `(process, name)` (the map order). Lets reporters discover series
    /// they did not know the process names for (e.g. per-shard
    /// `server.shard.busy_ticks` under dynamically-numbered shard
    /// processes).
    pub fn counters_snapshot(&self) -> Vec<(String, &'static str, u64)> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        inner
            .state
            .lock()
            .counters
            .iter()
            .map(|((p, n), c)| (p.clone(), *n, c.total))
            .collect()
    }

    /// Snapshot of every gauge as `(process, name, current, high-water
    /// mark)`, sorted by `(process, name)`.
    pub fn gauges_snapshot(&self) -> Vec<(String, &'static str, u64, u64)> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        inner
            .state
            .lock()
            .gauges
            .iter()
            .map(|((p, n), g)| (p.clone(), *n, g.current, g.hwm))
            .collect()
    }

    /// Records `value` into histogram `(proc, name)`. No-op unless
    /// tracing.
    pub fn record(&self, proc: &str, name: &'static str, value: u64) {
        let Some(inner) = &self.inner else { return };
        if !inner.full {
            return;
        }
        let proc = self.qualify(proc);
        inner
            .state
            .lock()
            .hists
            .entry((proc, name))
            .or_insert_with(Histogram::new)
            .record(value);
    }

    /// Snapshot of every histogram as `(process, name, histogram)`,
    /// sorted by `(process, name)` (the map order). Empty unless
    /// tracing.
    pub fn histograms(&self) -> Vec<(String, &'static str, Histogram)> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        inner
            .state
            .lock()
            .hists
            .iter()
            .map(|((p, n), h)| (p.clone(), *n, h.clone()))
            .collect()
    }

    /// Every histogram as one deterministic JSON array — the
    /// per-scenario latency export benchmark binaries commit as
    /// artifacts. Rows are sorted by `(process, name)` and every field
    /// is an integer, so identical runs serialize byte-for-byte
    /// identically.
    pub fn histograms_json(&self) -> String {
        let mut out = String::from("[\n");
        let hists = self.histograms();
        for (i, (proc, name, h)) in hists.iter().enumerate() {
            let q = |p: f64| h.quantile(p).unwrap_or(0);
            out.push_str(&format!(
                "  {{\"process\": \"{}\", \"name\": \"{}\", \"count\": {}, \"mean_ns\": {}, \
                 \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}{}\n",
                proc,
                name,
                h.count(),
                h.mean(),
                q(0.5),
                q(0.9),
                q(0.99),
                h.max(),
                if i + 1 == hists.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }

    /// Every completed span in completion order (tests/inspection).
    pub fn finished_spans(&self) -> Vec<SpanInfo> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        inner
            .state
            .lock()
            .events
            .iter()
            .filter_map(|e| match e {
                Event::Span {
                    proc,
                    cat,
                    name,
                    start_ns,
                    dur_ns,
                    depth,
                    ..
                } => Some(SpanInfo {
                    proc: proc.clone(),
                    cat,
                    name: name.clone(),
                    start_ns: *start_ns,
                    dur_ns: *dur_ns,
                    depth: *depth,
                }),
                Event::Instant { .. } => None,
            })
            .collect()
    }

    /// Exports everything recorded so far as Chrome-trace JSON
    /// (`chrome://tracing` / Perfetto "Load trace"). Deterministic:
    /// byte-identical across identical virtual-time runs.
    pub fn chrome_trace(&self) -> String {
        let Some(inner) = &self.inner else {
            return "{\"traceEvents\":[]}\n".to_string();
        };
        let st = inner.state.lock();

        // Stable pid/tid assignment: sorted process names, then sorted
        // categories within each process.
        let mut procs: BTreeSet<String> = BTreeSet::new();
        let mut tracks: BTreeSet<(String, &'static str)> = BTreeSet::new();
        for e in &st.events {
            match e {
                Event::Span { proc, cat, .. } | Event::Instant { proc, cat, .. } => {
                    procs.insert(proc.clone());
                    tracks.insert((proc.clone(), cat));
                }
            }
        }
        for (proc, _) in st.counters.keys() {
            procs.insert(proc.clone());
        }
        for (proc, _) in st.gauges.keys() {
            procs.insert(proc.clone());
        }
        let pid_of: BTreeMap<&String, usize> =
            procs.iter().enumerate().map(|(i, p)| (p, i + 1)).collect();
        let tid_of: BTreeMap<&(String, &'static str), usize> = {
            let mut next: BTreeMap<&String, usize> = BTreeMap::new();
            let mut map = BTreeMap::new();
            for track in &tracks {
                let n = next.entry(&track.0).or_insert(0);
                *n += 1;
                map.insert(track, *n);
            }
            map
        };

        let mut out = String::with_capacity(4096 + st.events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        let mut emit = |out: &mut String, line: String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&line);
        };

        for (proc, pid) in &pid_of {
            emit(
                &mut out,
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":{}}}}}",
                    json_string(proc)
                ),
            );
        }
        for (track, tid) in &tid_of {
            let pid = pid_of[&track.0];
            emit(
                &mut out,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
                    json_string(track.1)
                ),
            );
        }

        for e in &st.events {
            match e {
                Event::Span {
                    proc,
                    cat,
                    name,
                    start_ns,
                    dur_ns,
                    args,
                    ..
                } => {
                    let pid = pid_of[proc];
                    let tid = tid_of[&(proc.clone(), *cat)];
                    emit(
                        &mut out,
                        format!(
                            "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"dur\":{}{}}}",
                            json_string(name),
                            json_string(cat),
                            micros(*start_ns),
                            micros(*dur_ns),
                            json_args(args),
                        ),
                    );
                }
                Event::Instant {
                    proc,
                    cat,
                    name,
                    ts_ns,
                    args,
                } => {
                    let pid = pid_of[proc];
                    let tid = tid_of[&(proc.clone(), *cat)];
                    emit(
                        &mut out,
                        format!(
                            "{{\"name\":{},\"cat\":{},\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{tid},\"ts\":{}{}}}",
                            json_string(name),
                            json_string(cat),
                            micros(*ts_ns),
                            json_args(args),
                        ),
                    );
                }
            }
        }

        // Counters: a zero sample at t=0 and the final total at the
        // last update, so chrome draws the accumulation ramp.
        for ((proc, name), c) in &st.counters {
            let pid = pid_of[proc];
            emit(
                &mut out,
                format!(
                    "{{\"name\":{},\"ph\":\"C\",\"pid\":{pid},\"ts\":0.000,\"args\":{{\"value\":0}}}}",
                    json_string(name)
                ),
            );
            emit(
                &mut out,
                format!(
                    "{{\"name\":{},\"ph\":\"C\",\"pid\":{pid},\"ts\":{},\"args\":{{\"value\":{}}}}}",
                    json_string(name),
                    micros(c.last_ns),
                    c.total
                ),
            );
        }

        // Gauges: same counter-track rendering, with the level and its
        // high-water mark as two series on one track.
        for ((proc, name), g) in &st.gauges {
            let pid = pid_of[proc];
            emit(
                &mut out,
                format!(
                    "{{\"name\":{},\"ph\":\"C\",\"pid\":{pid},\"ts\":0.000,\"args\":{{\"value\":0,\"hwm\":0}}}}",
                    json_string(name)
                ),
            );
            emit(
                &mut out,
                format!(
                    "{{\"name\":{},\"ph\":\"C\",\"pid\":{pid},\"ts\":{},\"args\":{{\"value\":{},\"hwm\":{}}}}}",
                    json_string(name),
                    micros(g.last_ns),
                    g.current,
                    g.hwm
                ),
            );
        }

        out.push_str("\n]}\n");
        out
    }

    /// Renders the per-layer summary table: spans aggregated by
    /// (layer, process, name), then counters, then histogram
    /// quantiles. Deterministic ordering throughout.
    pub fn summary(&self) -> String {
        let Some(inner) = &self.inner else {
            return "telemetry: disabled\n".to_string();
        };
        let st = inner.state.lock();

        // (cat, proc, name) -> (count, total_ns)
        let mut spans: BTreeMap<(&'static str, &String, &String), (u64, u64)> = BTreeMap::new();
        for e in &st.events {
            if let Event::Span {
                proc,
                cat,
                name,
                dur_ns,
                ..
            } = e
            {
                let s = spans.entry((cat, proc, name)).or_insert((0, 0));
                s.0 += 1;
                s.1 += dur_ns;
            }
        }

        let mut out = String::new();
        out.push_str("== telemetry summary ==\n");
        if !spans.is_empty() {
            out.push_str("\nspans (layer / process / name):\n");
            out.push_str(&format!(
                "  {:<14} {:<24} {:<26} {:>8} {:>14}\n",
                "layer", "process", "span", "count", "total(us)"
            ));
            for ((cat, proc, name), (count, total)) in &spans {
                out.push_str(&format!(
                    "  {:<14} {:<24} {:<26} {:>8} {:>14}\n",
                    cat,
                    proc,
                    name,
                    count,
                    micros(*total)
                ));
            }
        }
        if !st.counters.is_empty() {
            out.push_str("\ncounters:\n");
            out.push_str(&format!(
                "  {:<24} {:<30} {:>14}\n",
                "process", "counter", "value"
            ));
            for ((proc, name), c) in &st.counters {
                out.push_str(&format!("  {:<24} {:<30} {:>14}\n", proc, name, c.total));
            }
        }
        if !st.gauges.is_empty() {
            out.push_str("\ngauges:\n");
            out.push_str(&format!(
                "  {:<24} {:<30} {:>10} {:>10}\n",
                "process", "gauge", "current", "hwm"
            ));
            for ((proc, name), g) in &st.gauges {
                out.push_str(&format!(
                    "  {:<24} {:<30} {:>10} {:>10}\n",
                    proc, name, g.current, g.hwm
                ));
            }
        }
        if !st.hists.is_empty() {
            out.push_str("\nhistograms (us):\n");
            out.push_str(&format!(
                "  {:<24} {:<22} {:>7} {:>10} {:>10} {:>10} {:>10}\n",
                "process", "histogram", "count", "p50", "p90", "p99", "max"
            ));
            for ((proc, name), h) in &st.hists {
                out.push_str(&format!(
                    "  {:<24} {:<22} {:>7} {:>10} {:>10} {:>10} {:>10}\n",
                    proc,
                    name,
                    h.count(),
                    micros(h.quantile(0.5).unwrap_or(0)),
                    micros(h.quantile(0.9).unwrap_or(0)),
                    micros(h.quantile(0.99).unwrap_or(0)),
                    micros(h.max()),
                ));
            }
        }
        out
    }
}

/// An open span; records itself into the sink when dropped.
#[must_use = "a span records when dropped; binding it to _ closes it immediately"]
pub struct Span(Option<ActiveSpan>);

struct ActiveSpan {
    inner: Arc<Inner>,
    clock: Arc<dyn Clock>,
    proc: String,
    cat: &'static str,
    name: String,
    start_ns: u64,
    depth: u32,
    args: Vec<(&'static str, String)>,
}

impl Span {
    /// Attaches a key/value attribute to the span.
    pub(crate) fn attr(&mut self, key: &'static str, value: impl std::fmt::Display) {
        if let Some(a) = &mut self.0 {
            a.args.push((key, value.to_string()));
        }
    }

    /// Builder-style `Self::attr`.
    pub fn with_attr(mut self, key: &'static str, value: impl std::fmt::Display) -> Self {
        self.attr(key, value);
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.0.take() else { return };
        let end_ns = a.clock.now_ns();
        let mut st = a.inner.state.lock();
        if let Some(d) = st.depths.get_mut(&a.proc) {
            *d = d.saturating_sub(1);
        }
        st.events.push(Event::Span {
            proc: a.proc,
            cat: a.cat,
            name: a.name,
            start_ns: a.start_ns,
            dur_ns: end_ns.saturating_sub(a.start_ns),
            depth: a.depth,
            args: a.args,
        });
    }
}

/// Nanoseconds as a decimal-microsecond literal ("12.345"), integer
/// math only so output is platform- and run-independent.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_args(args: &[(&'static str, String)]) -> String {
    if args.is_empty() {
        return String::new();
    }
    let body: Vec<String> = args
        .iter()
        .map(|(k, v)| format!("{}:{}", json_string(k), json_string(v)))
        .collect();
    format!(",\"args\":{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Clone, Default)]
    struct TestClock(Arc<AtomicU64>);

    impl TestClock {
        fn advance(&self, ns: u64) {
            self.0.fetch_add(ns, Ordering::SeqCst);
        }
    }

    impl Clock for TestClock {
        fn now_ns(&self) -> u64 {
            self.0.load(Ordering::SeqCst)
        }
    }

    #[test]
    fn disabled_is_inert() {
        let t = Telemetry::disabled();
        let mut sp = t.span("client", "core.client", "noop");
        sp.attr("k", 1);
        drop(sp);
        t.count("client", "x", 5);
        t.record("client", "h", 9);
        assert_eq!(t.counter("client", "x"), 0);
        assert!(t.finished_spans().is_empty());
        assert_eq!(t.chrome_trace(), "{\"traceEvents\":[]}\n");
    }

    #[test]
    fn histograms_json_is_sorted_and_integer_only() {
        let t = Telemetry::recording(ZeroClock);
        t.record("srv", "nfs3_read", 1_000);
        t.record("srv", "nfs3_read", 3_000);
        t.record("cli", "ops_stat", 500);
        let json = t.histograms_json();
        // Sorted by (process, name): cli row first.
        let cli = json.find("\"process\": \"cli\"").expect("cli row");
        let srv = json.find("\"process\": \"srv\"").expect("srv row");
        assert!(cli < srv);
        assert!(json.contains("\"count\": 2"));
        assert!(json.contains("\"mean_ns\": 2000"));
        assert!(!json.contains('.'), "all fields integral: {json}");
        // Deterministic: a second serialization is byte-identical.
        assert_eq!(json, t.histograms_json());
    }

    #[test]
    fn counters_only_counts_but_does_not_trace() {
        let t = Telemetry::counters();
        t.count("wire", "round_trips", 1);
        t.count("wire", "round_trips", 2);
        let _sp = t.span("wire", "sim.net", "rpc");
        t.record("wire", "lat", 10);
        assert_eq!(t.counter("wire", "round_trips"), 3);
        assert!(t.finished_spans().is_empty());
        assert!(!t.is_tracing());
        assert!(t.is_enabled());
    }

    #[test]
    fn span_nesting_and_ordering() {
        let clock = TestClock::default();
        let t = Telemetry::recording(clock.clone());
        let outer = t.span("client", "core.client", "outer");
        clock.advance(1_000);
        {
            let _inner = t.span("client", "core.client", "inner");
            clock.advance(2_000);
        }
        clock.advance(500);
        drop(outer);

        let spans = t.finished_spans();
        // Completion order: inner closes first.
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].depth, 2);
        assert_eq!(spans[0].start_ns, 1_000);
        assert_eq!(spans[0].dur_ns, 2_000);
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[1].start_ns, 0);
        assert_eq!(spans[1].dur_ns, 3_500);
        // The parent's interval contains the child's.
        assert!(spans[1].start_ns <= spans[0].start_ns);
        assert!(spans[0].start_ns + spans[0].dur_ns <= spans[1].start_ns + spans[1].dur_ns);
    }

    #[test]
    fn sibling_spans_do_not_nest() {
        let t = Telemetry::recording(ZeroClock);
        drop(t.span("client", "c", "a"));
        drop(t.span("client", "c", "b"));
        let spans = t.finished_spans();
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[1].depth, 1);
    }

    #[test]
    fn scoped_handles_share_the_sink() {
        let t = Telemetry::recording(ZeroClock);
        let a = t.scoped("NFS");
        let b = t.scoped("SFS");
        a.count("wire", "rpcs", 1);
        b.count("wire", "rpcs", 2);
        assert_eq!(a.counter("wire", "rpcs"), 1);
        assert_eq!(b.counter("wire", "rpcs"), 2);
        let trace = t.chrome_trace();
        assert!(trace.contains("NFS/wire"));
        assert!(trace.contains("SFS/wire"));
    }

    #[test]
    fn chrome_trace_is_valid_shape_and_deterministic() {
        let run = || {
            let clock = TestClock::default();
            let t = Telemetry::recording(clock.clone());
            let mut sp = t.span("server", "nfs3", "LOOKUP");
            sp.attr("status", "Ok");
            clock.advance(1_234);
            drop(sp);
            t.instant_kv("server", "proto.channel", "poisoned", "seq", 7);
            t.count("wire", "bytes", 4_096);
            t.record("server", "lat_ns", 1_234);
            t.chrome_trace()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"displayTimeUnit\""));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ph\":\"C\""));
        assert!(a.contains("\"ph\":\"i\""));
        assert!(a.contains("\"ts\":1.234") || a.contains("\"dur\":1.234"));
        // Balanced braces/brackets (cheap well-formedness check; none
        // of our strings contain braces).
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn summary_lists_all_three_kinds() {
        let t = Telemetry::recording(ZeroClock);
        drop(t.span("client", "core.client", "mount"));
        t.count("wire", "round_trips", 3);
        t.record("server", "nfs3.LOOKUP", 5_000);
        let s = t.summary();
        assert!(s.contains("mount"));
        assert!(s.contains("round_trips"));
        assert!(s.contains("nfs3.LOOKUP"));
    }

    #[test]
    fn gauges_track_level_and_high_water_mark() {
        let t = Telemetry::counters();
        assert_eq!(t.gauge("client", "pipeline.inflight"), 0);
        assert_eq!(t.gauge_hwm("client", "pipeline.inflight"), 0);
        t.gauge_set("client", "pipeline.inflight", 3);
        t.gauge_set("client", "pipeline.inflight", 8);
        t.gauge_set("client", "pipeline.inflight", 2);
        assert_eq!(t.gauge("client", "pipeline.inflight"), 2);
        assert_eq!(t.gauge_hwm("client", "pipeline.inflight"), 8);
        // Disabled handles stay inert.
        let d = Telemetry::disabled();
        d.gauge_set("client", "pipeline.inflight", 9);
        assert_eq!(d.gauge_hwm("client", "pipeline.inflight"), 0);
    }

    #[test]
    fn summary_includes_gauges() {
        let t = Telemetry::recording(ZeroClock);
        t.gauge_set("server", "pipeline.queue_depth", 5);
        t.gauge_set("server", "pipeline.queue_depth", 1);
        let s = t.summary();
        assert!(s.contains("gauges:"));
        assert!(s.contains("pipeline.queue_depth"));
        assert!(s.contains('5'));
    }

    #[test]
    fn histograms_snapshot_sorted_by_process_then_name() {
        let t = Telemetry::recording(ZeroClock);
        t.record("server", "GETATTR", 10);
        t.record("server", "GETATTR", 20);
        t.record("client", "rpc", 5);
        let hs = t.histograms();
        assert_eq!(hs.len(), 2);
        assert_eq!((hs[0].0.as_str(), hs[0].1), ("client", "rpc"));
        assert_eq!((hs[1].0.as_str(), hs[1].1), ("server", "GETATTR"));
        assert_eq!(hs[1].2.count(), 2);
        assert!(Telemetry::disabled().histograms().is_empty());
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn micros_formatting() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(1), "0.001");
        assert_eq!(micros(1_234_567), "1234.567");
    }
}
