//! Virtual time.
//!
//! All SFS components in this reproduction charge their costs (network
//! transit, disk I/O, CPU work, context switches) to a shared [`SimClock`].
//! Virtual time makes benchmark output deterministic across machines while
//! preserving the *relative* costs the paper's evaluation measures.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A point in virtual time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Builds from whole microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Builds from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Nanoseconds.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float, for report formatting.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference.
    pub fn since(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }
}

impl std::ops::Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}µs", self.0 / 1000)
        }
    }
}

/// A shared, monotonically advancing virtual clock.
///
/// Clones share state; the clock is thread-safe though benchmarks drive it
/// from one thread for determinism.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now_ns: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime(self.now_ns.load(Ordering::SeqCst))
    }

    /// Advances the clock by `ns` nanoseconds, returning the new time.
    pub fn advance_ns(&self, ns: u64) -> SimTime {
        SimTime(self.now_ns.fetch_add(ns, Ordering::SeqCst) + ns)
    }

    /// Advances by a [`SimTime`] duration.
    pub fn advance(&self, d: SimTime) -> SimTime {
        self.advance_ns(d.0)
    }

    /// Measures the virtual time a closure consumes.
    pub(crate) fn measure<T>(&self, f: impl FnOnce() -> T) -> (T, SimTime) {
        let start = self.now();
        let out = f();
        (out, self.now().since(start))
    }

    /// Advances the clock to `target` if it is in the future; a target in
    /// the past leaves the clock untouched (virtual time never rewinds).
    /// Returns the resulting time. This is how overlapped work finishes:
    /// compute the latest completion instant of a set of concurrent
    /// operations and jump the shared clock there.
    pub fn advance_to(&self, target: SimTime) -> SimTime {
        let prev = self.now_ns.fetch_max(target.0, Ordering::SeqCst);
        SimTime(prev.max(target.0))
    }
}

impl sfs_telemetry::Clock for SimClock {
    fn now_ns(&self) -> u64 {
        self.now_ns.load(Ordering::SeqCst)
    }
}

/// A gap-filling reservation calendar over absolute virtual time.
///
/// One `Timeline` models one serially-reusable resource (a CPU core, a
/// disk spindle). Callers reserve `work_ns` of exclusive use starting no
/// earlier than `ready_ns`; the timeline places the reservation in the
/// earliest gap that fits, so independently-clocked request streams that
/// overlap in absolute virtual time genuinely contend, while idle gaps
/// left by one stream can be back-filled by another. Adjacent and merged
/// intervals are coalesced (one entry per *gap*, not per reservation),
/// and [`Self::forget_until`] drops the past no future request can
/// reach, so the calendar stays small.
#[derive(Debug, Clone, Default)]
pub(crate) struct Timeline {
    /// Non-overlapping busy intervals `(start, end)` in time order,
    /// coalesced when they touch. A deque: reservations land at or near
    /// the back, [`Self::forget_until`] drops from the front.
    busy: VecDeque<(u64, u64)>,
    /// Total work ever reserved.
    busy_ns: u64,
}

impl Timeline {
    /// An empty (fully idle) timeline.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Where a reservation of `work_ns` starting no earlier than
    /// `ready_ns` would be placed, without placing it.
    pub(crate) fn probe(&self, ready_ns: u64, work_ns: u64) -> u64 {
        let mut t = ready_ns;
        // From the last interval starting at or before `ready_ns` (it may
        // still run past it) on.
        let first = self
            .busy
            .partition_point(|&(s, _)| s <= ready_ns)
            .saturating_sub(1);
        for &(s, e) in self.busy.range(first..) {
            if s >= t.saturating_add(work_ns.max(1)) {
                break; // the gap [t, s) fits
            }
            if e > t {
                t = e;
            }
        }
        t
    }

    /// Reserves `work_ns` of exclusive time starting no earlier than
    /// `ready_ns`, in the earliest gap that fits. Returns
    /// `(start_ns, end_ns)`. A zero-length reservation returns
    /// `(ready_ns, ready_ns)` without touching the calendar.
    pub(crate) fn reserve(&mut self, ready_ns: u64, work_ns: u64) -> (u64, u64) {
        if work_ns == 0 {
            return (ready_ns, ready_ns);
        }
        self.occupy(self.probe(ready_ns, work_ns), work_ns)
    }

    /// Marks `[start_ns, start_ns + work_ns)` busy: a gap [`Self::probe`]
    /// found for `work_ns > 0`.
    fn occupy(&mut self, start_ns: u64, work_ns: u64) -> (u64, u64) {
        let end_ns = start_ns + work_ns;
        let i = self.busy.partition_point(|&(s, _)| s < start_ns);
        let joins_prev = i > 0 && self.busy[i - 1].1 == start_ns;
        let joins_next = self.busy.get(i).is_some_and(|&(s, _)| s == end_ns);
        match (joins_prev, joins_next) {
            (true, true) => {
                self.busy[i - 1].1 = self.busy[i].1;
                self.busy.remove(i);
            }
            (true, false) => self.busy[i - 1].1 = end_ns,
            (false, true) => self.busy[i].0 = start_ns,
            (false, false) => self.busy.insert(i, (start_ns, end_ns)),
        }
        self.busy_ns += work_ns;
        (start_ns, end_ns)
    }

    /// Total work reserved so far.
    pub(crate) fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// Drops every busy interval that ends at or before `horizon_ns`.
    /// Exact for every later reservation ready at or after the horizon:
    /// [`Self::probe`] never looks further back than the interval just
    /// before its ready time, and one that ended by then cannot delay it.
    pub(crate) fn forget_until(&mut self, horizon_ns: u64) {
        while self.busy.front().is_some_and(|&(_, e)| e <= horizon_ns) {
            self.busy.pop_front();
        }
    }

    /// Busy intervals the calendar holds.
    #[cfg(test)]
    pub(crate) fn intervals(&self) -> usize {
        self.busy.len()
    }
}

/// A placed [`CoreSet`] reservation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreReservation {
    /// Which core ran the work.
    pub core: usize,
    /// When the work started (≥ the requested ready time).
    pub(crate) start_ns: u64,
    /// When the work completed.
    pub end_ns: u64,
}

/// Per-core virtual timelines: N serially-reusable CPU cores sharing one
/// absolute virtual-time axis.
///
/// This is how the simulation models true parallelism: the shared
/// [`SimClock`] still serializes the *driver*, but work scheduled through
/// a `CoreSet` lands on whichever core timeline can start it earliest, so
/// two requests whose service windows overlap in absolute time run on
/// different cores instead of queueing — until all cores are busy, at
/// which point queueing (and thus sub-linear scaling) emerges naturally.
/// Placement is deterministic: earliest feasible start wins, ties go to
/// the lowest core index.
#[derive(Debug, Clone)]
pub struct CoreSet {
    cores: Vec<Timeline>,
}

impl CoreSet {
    /// A set of `n` idle cores (at least one).
    pub fn new(n: usize) -> Self {
        CoreSet {
            cores: vec![Timeline::new(); n.max(1)],
        }
    }

    /// Reserves `work_ns` on whichever core can start it earliest at or
    /// after `ready_ns` (lowest index wins ties).
    pub fn reserve(&mut self, ready_ns: u64, work_ns: u64) -> CoreReservation {
        let mut best = 0usize;
        let mut best_start = u64::MAX;
        for (i, core) in self.cores.iter().enumerate() {
            let start = core.probe(ready_ns, work_ns);
            if start < best_start {
                best = i;
                best_start = start;
            }
            if start == ready_ns {
                break; // can't do better than starting immediately
            }
        }
        let (start_ns, end_ns) = match work_ns {
            0 => (ready_ns, ready_ns),
            _ => self.cores[best].occupy(best_start, work_ns),
        };
        CoreReservation {
            core: best,
            start_ns,
            end_ns,
        }
    }

    /// Total work reserved on core `i`.
    #[cfg(test)]
    fn busy_ns(&self, i: usize) -> u64 {
        self.cores.get(i).map(Timeline::busy_ns).unwrap_or(0)
    }

    /// `Timeline::forget_until` on every core.
    pub fn forget_until(&mut self, horizon_ns: u64) {
        for core in &mut self.cores {
            core.forget_until(horizon_ns);
        }
    }

    /// Busy intervals held across all cores.
    #[cfg(test)]
    pub(crate) fn intervals(&self) -> usize {
        self.cores.iter().map(Timeline::intervals).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero_and_advances() {
        let c = SimClock::new();
        assert_eq!(c.now(), SimTime(0));
        c.advance_ns(500);
        assert_eq!(c.now().as_nanos(), 500);
        c.advance(SimTime::from_micros(2));
        assert_eq!(c.now().as_nanos(), 2_500);
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance_ns(100);
        assert_eq!(b.now().as_nanos(), 100);
    }

    #[test]
    fn measure_reports_elapsed() {
        let c = SimClock::new();
        let (v, dt) = c.measure(|| {
            c.advance_ns(1234);
            42
        });
        assert_eq!(v, 42);
        assert_eq!(dt.as_nanos(), 1234);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimTime::from_micros(5).to_string(), "5µs");
        assert_eq!(SimTime::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimTime(2_500_000_000).to_string(), "2.500s");
    }

    #[test]
    fn advance_to_never_rewinds() {
        let c = SimClock::new();
        c.advance_ns(1_000);
        assert_eq!(c.advance_to(SimTime(500)).as_nanos(), 1_000);
        assert_eq!(c.now().as_nanos(), 1_000);
        assert_eq!(c.advance_to(SimTime(2_500)).as_nanos(), 2_500);
        assert_eq!(c.now().as_nanos(), 2_500);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime(5);
        let b = SimTime(10);
        assert_eq!(a.since(b), SimTime(0));
        assert_eq!(b.since(a).as_nanos(), 5);
    }

    #[test]
    fn timeline_back_to_back_and_queueing() {
        let mut t = Timeline::new();
        assert_eq!(t.reserve(100, 50), (100, 150));
        // Arrives while busy: queues behind.
        assert_eq!(t.reserve(120, 30), (150, 180));
        // Arrives after the tail: starts on time.
        assert_eq!(t.reserve(500, 10), (500, 510));
        assert_eq!(t.busy_ns(), 90);
        // Everything ending by 180 is past; the interval at 500 stays.
        t.forget_until(180);
        assert_eq!(t.intervals(), 1);
        assert_eq!(t.reserve(180, 10), (180, 190));
    }

    #[test]
    fn timeline_fills_gaps() {
        let mut t = Timeline::new();
        t.reserve(0, 100);
        t.reserve(1_000, 100);
        // A 100 ns job ready at 50 fits the [100, 1000) gap at 100.
        assert_eq!(t.reserve(50, 100), (100, 200));
        // A 900 ns job ready at 0 no longer fits any gap before 1100.
        assert_eq!(t.reserve(0, 900), (1_100, 2_000));
    }

    #[test]
    fn timeline_zero_work_is_free() {
        let mut t = Timeline::new();
        t.reserve(0, 100);
        assert_eq!(t.reserve(10, 0), (10, 10));
        assert_eq!(t.busy_ns(), 100);
    }

    #[test]
    fn coreset_spreads_overlapping_work() {
        let mut cs = CoreSet::new(2);
        let a = cs.reserve(0, 100);
        let b = cs.reserve(0, 100);
        let c = cs.reserve(0, 100);
        assert_eq!((a.core, a.start_ns, a.end_ns), (0, 0, 100));
        assert_eq!((b.core, b.start_ns, b.end_ns), (1, 0, 100));
        // Third job queues on the earliest-free core (tie → core 0).
        assert_eq!((c.core, c.start_ns, c.end_ns), (0, 100, 200));
        assert_eq!(cs.busy_ns(0), 200);
        assert_eq!(cs.busy_ns(1), 100);
    }

    #[test]
    fn coreset_single_core_serializes() {
        let mut cs = CoreSet::new(1);
        cs.reserve(0, 100);
        let r = cs.reserve(0, 100);
        assert_eq!((r.core, r.start_ns, r.end_ns), (0, 100, 200));
    }

    #[test]
    fn coreset_placement_is_deterministic() {
        let jobs: Vec<(u64, u64)> = (0..64).map(|i| (i * 37 % 500, 20 + i * 13 % 90)).collect();
        let run = |jobs: &[(u64, u64)]| {
            let mut cs = CoreSet::new(4);
            jobs.iter()
                .map(|&(r, w)| cs.reserve(r, w))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(&jobs), run(&jobs));
    }
}
