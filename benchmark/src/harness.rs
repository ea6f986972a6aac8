//! Measurement plumbing: the counting allocator, the timed bracket, the
//! 24-segment wall estimator, order statistics and process-level
//! readings. Nothing here knows what a workload does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

thread_local! {
    // const-init: reading the counter inside the allocator must never
    // take a lazily-initialised (allocating) TLS path.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Pass-through over the system allocator that counts `alloc` and
/// `realloc` calls on the calling thread. Frees are not counted: they
/// are not the scarce resource, and a `realloc` that grows in place
/// still paid the allocator round trip.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only added work is a
// thread-local integer increment that cannot allocate or unwind.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from a matching `alloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations made by this thread so far.
pub fn allocations() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// Equal-op-count segments the timed region is cut into (see README,
/// "The wall estimator").
pub const SEGMENTS: usize = 24;

/// What one op cost and whether its output was right.
#[derive(Clone, Copy, Debug, Default)]
pub struct Outcome {
    pub wall_ns: u64,
    pub virt_ns: u64,
    pub allocs: u64,
    pub ok: bool,
    /// Which client machine ran the op (virtual time is per machine).
    pub client: u8,
}

/// Runs `f` between two readings of the wall clock, a virtual clock
/// (`now_virt`) and the allocation counter. Output checks belong
/// *after* the bracket so their cost is not billed to the program.
pub fn bracket<T>(now_virt: impl Fn() -> u64, f: impl FnOnce() -> T) -> (T, Outcome) {
    let v0 = now_virt();
    let a0 = allocations();
    let t0 = Instant::now();
    let out = f();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let allocs = allocations() - a0;
    let virt_ns = now_virt() - v0;
    (
        out,
        Outcome {
            wall_ns,
            virt_ns,
            allocs,
            ok: true,
            client: 0,
        },
    )
}

/// Nearest-rank quantile of an ascending slice (`q` in 0..=1): the
/// smallest sample with at least `q` of the samples at or below it.
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a copy and takes nearest-rank quantiles.
pub fn quantiles<T: Copy + Ord>(samples: &[T], qs: &[f64]) -> Vec<T> {
    let mut s = samples.to_vec();
    s.sort_unstable();
    qs.iter().map(|&q| quantile_sorted(&s, q)).collect()
}

/// Median of f64 samples (mean of the middle two for an even count).
pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in measurements"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The wall-clock view of one timed region.
#[derive(Debug, Clone)]
pub struct WallEstimate {
    /// Min over segments of the segment's median per-op latency.
    pub op_wall_ns: f64,
    /// Max over segments of ops ÷ summed op time.
    pub wall_ops_per_s: f64,
    /// Max ÷ min segment median: how unquiet the host was.
    pub segment_spread: f64,
    pub p50_all: u32,
    pub p99_all: u32,
}

/// The quiet-host estimator. Per-op wall time on a shared box moves
/// with cache and memory contention from neighbours, which no
/// normalisation removes; but within a run of a few seconds some
/// stretch is almost always quiet. So the region is cut into `segments`
/// runs of equal op count, each is summarised on its own, and the best
/// segment stands for the program: latency as the segment's *median*
/// (robust to the odd preempted op), throughput from the segment's
/// *summed* op time (so amortised periodic work still counts).
pub fn wall_estimate(wall_ns: &[u32], segments: usize) -> WallEstimate {
    assert!(
        segments > 0 && wall_ns.len() >= segments,
        "need at least one op per segment"
    );
    let per = wall_ns.len() / segments;
    let mut medians = Vec::with_capacity(segments);
    let mut best_rate = 0.0f64;
    for seg in wall_ns.chunks_exact(per).take(segments) {
        let mut s = seg.to_vec();
        s.sort_unstable();
        // Interpolated median: keeps sub-ns digits when the two middle
        // samples differ.
        let mid = if per % 2 == 1 {
            f64::from(s[per / 2])
        } else {
            (f64::from(s[per / 2 - 1]) + f64::from(s[per / 2])) / 2.0
        };
        medians.push(mid);
        let total: u64 = seg.iter().map(|&w| u64::from(w)).sum();
        best_rate = best_rate.max(per as f64 * 1e9 / total.max(1) as f64);
    }
    let min = medians.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = medians.iter().cloned().fold(0.0, f64::max);
    let all = quantiles(wall_ns, &[0.5, 0.99]);
    WallEstimate {
        op_wall_ns: min,
        wall_ops_per_s: best_rate,
        segment_spread: if min > 0.0 { max / min } else { 1.0 },
        p50_all: all[0],
        p99_all: all[1],
    }
}

/// Cost of one bracket's two `Instant::now()` readings, ns (best of a
/// few batches).
pub fn timer_ns() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..10_000 {
            let a = Instant::now();
            std::hint::black_box(a.elapsed());
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / 10_000.0);
    }
    best
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_sorted(&s, 0.5), 50);
        assert_eq!(quantile_sorted(&s, 0.99), 99);
        assert_eq!(quantile_sorted(&s, 1.0), 100);
        assert_eq!(quantile_sorted(&[7u64], 0.5), 7);
    }

    #[test]
    fn estimator_picks_the_quiet_segment() {
        // Three segments: noisy, quiet, noisy.
        let mut wall = vec![200u32; 10];
        wall.extend(vec![100u32; 10]);
        wall.extend(vec![300u32; 10]);
        let e = wall_estimate(&wall, 3);
        assert_eq!(e.op_wall_ns, 100.0);
        assert_eq!(e.wall_ops_per_s, 1e9 / 100.0);
        assert_eq!(e.segment_spread, 3.0);
    }
}
