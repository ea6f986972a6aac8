//! A counting global allocator for allocation-per-operation baselines.
//!
//! The zero-copy hot path's whole point is that steady-state RPC traffic
//! stops hitting the allocator; wall-clock timings are too noisy to
//! prove that, but allocation *counts* are exact and deterministic. A
//! binary or test opts in with:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: sfs_bench::alloc_count::CountingAlloc = CountingAlloc;
//! ```
//!
//! and then brackets the measured region with [`count_allocs`]. The
//! counter is thread-local, so a single-threaded measured loop is not
//! polluted by other threads. Only `alloc` and `realloc` count — frees
//! are not the scarce resource, and a `realloc` that grows in place
//! still paid the allocator round trip.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // const-init so reading the counter inside the allocator itself
    // never triggers a lazily-initialised (allocating) TLS path.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Pass-through wrapper over the system allocator that counts
/// `alloc`/`realloc` calls per thread.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Total allocations on this thread since it started (monotonic; only
/// meaningful when [`CountingAlloc`] is installed as the global
/// allocator).
pub(crate) fn allocations() -> u64 {
    ALLOCS.with(|c| c.get())
}

/// Runs `f` and returns its result plus the number of allocations it
/// performed on this thread.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocations();
    let out = f();
    let after = allocations();
    (out, after - before)
}
