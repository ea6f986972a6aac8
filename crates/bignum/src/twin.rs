//! Two halves of one computation on two cores: [`join`] runs `b` on a
//! persistent helper thread while the caller runs `a`.
//!
//! A Rabin–Williams decryption or signature is two independent
//! exponentiations, one per prime, and nothing else of its cost;
//! [`crate::BlumPrime::root_pair`] runs its second root here. The
//! secure-channel client is the other caller: it opens a window of
//! replies here while it serves the window. It is not a pool: there is
//! one helper per process and one job at a time.
//!
//! - **Spawn.** The helper is spawned on the first `join`, at most once,
//!   and only when [`std::thread::available_parallelism`] is at least 2.
//!   Without it (one CPU, or a failed spawn) every `join` runs `a` then
//!   `b` inline.
//! - **One owner.** A single claim flag. A `join` that finds it taken —
//!   another thread's `join` in flight, or a `join` made inside either
//!   half — runs both halves inline.
//! - **Take-back.** A job moves IDLE → POSTED → RUNNING → DONE. When the
//!   caller finishes `a` it tries POSTED → IDLE; if that wins, the helper
//!   never saw the job and the caller runs `b` itself. The caller waits
//!   only for a job already RUNNING, so a `join` costs at worst the
//!   sequential time plus one compare-and-swap, never a wake-up.
//! - **Bounded spin.** After each job (and each wake-up) the helper spins
//!   for [`SPIN`], then parks; a `join` unparks it only when it has said
//!   it is parking. A longer spin contended with the work that follows a
//!   handshake.
//! - **Panics.** A panic in `b` is caught on the helper, which keeps
//!   serving, and resumed on the caller once `a` is done. A panic in `a`
//!   still waits for a `b` the helper has started (a drop guard), and
//!   drops one it has not.
//!
//! The helper allocates nothing of its own: whatever `b` needs the caller
//! lends it.

// The lifetime erasure that lends the helper a closure on the caller's
// stack is this crate's only `unsafe`.
#![allow(unsafe_code)]

use std::any::Any;
use std::cell::UnsafeCell;
use std::hint::spin_loop;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// How long the helper spins for the next job before it parks.
const SPIN: Duration = Duration::from_micros(100);

/// Spins between readings of the clock while the helper waits.
const SPINS_PER_CLOCK: u32 = 64;

/// Spins before a caller waiting for a running job starts yielding its
/// CPU (the helper may have been preempted).
const SPINS_BEFORE_YIELD: u32 = 1 << 14;

const IDLE: u8 = 0;
const POSTED: u8 = 1;
const RUNNING: u8 = 2;
const DONE: u8 = 3;

/// A posted job: `b` and the slot for its result, behind one call.
type Job = *mut (dyn FnMut() + Send);

/// The one slot the caller and the helper share.
struct Twin {
    /// Held by the `join` that owns the slot, from its post to its return.
    claimed: AtomicBool,
    /// IDLE, POSTED, RUNNING or DONE.
    state: AtomicU8,
    /// Set by the helper just before it parks.
    parking: AtomicBool,
    /// Written by the owner before POSTED; read by the helper once it has
    /// moved POSTED → RUNNING.
    job: UnsafeCell<Option<Job>>,
    /// A panic the job raised on the helper: written before DONE, taken
    /// by the owner after it.
    panic: UnsafeCell<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `job` and `panic` are plain cells handed between the owner and
// the helper by `state`: the owner writes `job` only while it holds the
// claim and the state is IDLE, and publishes it with the SeqCst store of
// POSTED; the helper reads it only after its Acquire CAS POSTED → RUNNING
// and writes `panic` before its Release store of DONE, which the owner
// Acquire-loads before it reads `panic` and stores IDLE. The claim flag
// makes the owner unique, so no two threads touch a cell at once. What
// crosses threads is `Send`: the job is `dyn FnMut() + Send` and the
// payload `dyn Any + Send`.
unsafe impl Sync for Twin {}

static TWIN: Twin = Twin {
    claimed: AtomicBool::new(false),
    state: AtomicU8::new(IDLE),
    parking: AtomicBool::new(false),
    job: UnsafeCell::new(None),
    panic: UnsafeCell::new(None),
};

/// The helper's handle, once it is spawned; `None` when it cannot be.
static HELPER: OnceLock<Option<Thread>> = OnceLock::new();

/// While set, the helper starts no job: a test's stand-in for a helper
/// that is slow to wake.
#[cfg(test)]
static HOLD: AtomicBool = AtomicBool::new(false);

/// Jobs the helper has run.
#[cfg(test)]
static HELPER_JOBS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

#[cfg(test)]
thread_local! {
    /// Set on the helper thread, for the test allocator to tell it apart.
    static ON_HELPER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `a` on this thread and `b` on the helper, at once when the
/// helper is free, and returns both results. The caller returns only
/// after `b` has finished or been taken back; a panic in either half
/// reaches the caller after the other half is settled.
///
/// `b` may run after `a` on this thread (no second CPU, the helper busy,
/// or not started before `a` finished), so it must not wait for `a`.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    let Some(helper) = claim() else {
        return (a(), b());
    };
    let mut b = Some(b);
    let mut rb = None;
    let mut job = || rb = Some(b.take().expect("a job runs once")());
    let ra;
    let taken_back = {
        let posted = Posted::new(helper, &mut job);
        ra = a();
        posted.settle()
    };
    if taken_back {
        job();
    }
    (ra, rb.expect("the job ran"))
}

/// One empty hand-off to the root-pair helper thread and back: the fixed
/// cost [`crate::BlumPrime::root_pair`] pays to run its second root there
/// (nothing but a failed claim on a one-CPU host). For benchmarks.
pub fn join_round_trip() {
    join(|| (), || ());
}

/// The helper, spawned on first use, when this `join` may own it.
fn claim() -> Option<&'static Thread> {
    let helper = HELPER.get_or_init(spawn).as_ref()?;
    TWIN.claimed
        .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
        .is_ok()
        .then_some(helper)
}

/// The helper lives as long as the process and never returns (a job's
/// panic is caught), so its handle is dropped: there is nothing to join.
fn spawn() -> Option<Thread> {
    if thread::available_parallelism().map_or(true, |n| n.get() < 2) {
        return None;
    }
    thread::Builder::new()
        .name("sfs-bignum-twin".into())
        .spawn(serve)
        .ok()
        .map(|handle| handle.thread().clone())
}

/// Runs posted jobs, forever.
fn serve() {
    #[cfg(test)]
    ON_HELPER.with(|on| on.set(true));
    loop {
        wait_for_job();
        // SAFETY: the CAS POSTED → RUNNING in `wait_for_job` made this
        // thread the job's only reader, and its owner keeps the closure
        // alive and untouched until it sees DONE (see `Posted::new`).
        let job = unsafe { (*TWIN.job.get()).expect("a posted job") };
        // SAFETY: as above.
        let ran = panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*job)() }));
        #[cfg(test)]
        HELPER_JOBS.fetch_add(1, Ordering::Relaxed);
        if let Err(payload) = ran {
            // SAFETY: the owner reads the cell only after DONE.
            unsafe { *TWIN.panic.get() = Some(payload) };
        }
        TWIN.state.store(DONE, Ordering::Release);
    }
}

/// Spins for [`SPIN`], then parks, until it moves a posted job to
/// RUNNING; every wake-up starts another spin.
fn wait_for_job() {
    loop {
        let since = Instant::now();
        let mut spins = 0u32;
        loop {
            if start_job() {
                return;
            }
            spins += 1;
            if spins.is_multiple_of(SPINS_PER_CLOCK) && since.elapsed() >= SPIN {
                break;
            }
            spin_loop();
        }
        // Pairs with the post in `Posted::new`: this sees POSTED, or the
        // owner sees `parking` and unparks.
        TWIN.parking.store(true, Ordering::SeqCst);
        if TWIN.state.load(Ordering::SeqCst) != POSTED {
            thread::park();
        }
        TWIN.parking.store(false, Ordering::Relaxed);
    }
}

fn start_job() -> bool {
    #[cfg(test)]
    if HOLD.load(Ordering::Relaxed) {
        return false;
    }
    TWIN.state.load(Ordering::Relaxed) == POSTED
        && TWIN
            .state
            .compare_exchange(POSTED, RUNNING, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
}

/// A job posted to the helper and not yet settled. Dropping it unsettled
/// (`a` panicked) settles it too, discarding `b`'s result or panic.
struct Posted<'a> {
    /// The job lives on the caller's stack for `'a`.
    job: PhantomData<&'a mut (dyn FnMut() + Send + 'a)>,
}

impl<'a> Posted<'a> {
    fn new(helper: &Thread, job: &'a mut (dyn FnMut() + Send + 'a)) -> Posted<'a> {
        let job: *mut (dyn FnMut() + Send + 'a) = job;
        // SAFETY: only the lifetime bound changes (same fat pointer). The
        // helper dereferences the pointer only between its CAS POSTED →
        // RUNNING and its store of DONE, and the returned guard — which
        // borrows the job for `'a` — does not let go of it (`settle` or
        // drop) until it has either won POSTED → IDLE, so the helper never
        // starts, or seen DONE. So the pointer is never used after `'a`.
        let job: Job = unsafe { std::mem::transmute(job) };
        // SAFETY: this thread holds the claim and the state is IDLE, so
        // the helper does not read the cell (see `impl Sync for Twin`).
        unsafe { *TWIN.job.get() = Some(job) };
        TWIN.state.store(POSTED, Ordering::SeqCst);
        if TWIN.parking.load(Ordering::SeqCst) {
            helper.unpark();
        }
        Posted { job: PhantomData }
    }

    /// Takes the job back if the helper has not started it, else waits
    /// for it. Returns `true` when it was taken back (the caller runs it);
    /// resumes a panic the helper caught in it.
    fn settle(self) -> bool {
        let (taken_back, panic) = self.release();
        std::mem::forget(self);
        if let Some(payload) = panic {
            panic::resume_unwind(payload);
        }
        taken_back
    }

    fn release(&self) -> (bool, Option<Box<dyn Any + Send>>) {
        let taken_back = TWIN
            .state
            .compare_exchange(POSTED, IDLE, Ordering::Acquire, Ordering::Acquire)
            .is_ok();
        let mut panic = None;
        if !taken_back {
            let mut spins = 0u32;
            while TWIN.state.load(Ordering::Acquire) != DONE {
                if spins < SPINS_BEFORE_YIELD {
                    spins += 1;
                    spin_loop();
                } else {
                    thread::yield_now();
                }
            }
            // SAFETY: the helper wrote the cell before DONE and has let go
            // of the slot; this thread still holds the claim.
            panic = unsafe { (*TWIN.panic.get()).take() };
            TWIN.state.store(IDLE, Ordering::Relaxed);
        }
        // SAFETY: the state is IDLE again and this thread holds the claim.
        unsafe { *TWIN.job.get() = None };
        TWIN.claimed.store(false, Ordering::Release);
        (taken_back, panic)
    }
}

impl Drop for Posted<'_> {
    fn drop(&mut self) {
        self.release();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{gen_prime_congruent, BlumPrime, Nat, XorShiftSource};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::AtomicU64;
    use std::sync::{Mutex, MutexGuard};
    use std::thread::ThreadId;

    /// Tallies allocations made on the helper thread.
    struct HelperAllocs;

    static ON_HELPER_ALLOCS: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        /// Allocations made on this thread.
        static HERE: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// `f`'s result and the number of allocations it made on this thread.
    pub(crate) fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = HERE.get();
        let out = f();
        (out, HERE.get() - before)
    }

    fn tally() {
        HERE.set(HERE.get() + 1);
        if ON_HELPER.get() {
            ON_HELPER_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }

    // SAFETY: every method forwards its arguments unchanged to `System`;
    // the tally is a const thread-local's add and an atomic add behind
    // another, which cannot allocate or unwind.
    unsafe impl GlobalAlloc for HelperAllocs {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            tally();
            // SAFETY: the caller's layout, unchanged.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` with this layout.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            tally();
            // SAFETY: forwarded unchanged.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static ALLOC: HelperAllocs = HelperAllocs;

    /// One test at a time drives the helper, so each sees only its own
    /// jobs (and the allocation tally only root pairs).
    fn serial() -> MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn two_cpus() -> bool {
        thread::available_parallelism().is_ok_and(|n| n.get() >= 2)
    }

    fn me() -> ThreadId {
        thread::current().id()
    }

    #[test]
    fn join_returns_both_halves_results() {
        let _serial = serial();
        for i in 0..100u64 {
            assert_eq!(join(|| i * 3, || i + 7), (i * 3, i + 7));
        }
        let mut left = vec![1, 2];
        let (len, sum) = join(|| left.len(), || (1..=10u32).sum::<u32>());
        left.push(3);
        assert_eq!((len, sum, left.len()), (2, 55, 3));
    }

    /// `a` for a join whose `b` sets `started` first: with a helper, wait
    /// (boundedly) until it has started `b`, so the helper's side runs.
    fn once_started(started: &AtomicBool) {
        let since = Instant::now();
        while two_cpus()
            && !started.load(Ordering::SeqCst)
            && since.elapsed() < Duration::from_secs(5)
        {
            thread::yield_now();
        }
    }

    #[test]
    fn a_panic_in_either_half_reaches_the_caller_after_the_other_half() {
        let _serial = serial();
        let (b_started, a_done) = (AtomicBool::new(false), AtomicBool::new(false));
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            join(
                || {
                    once_started(&b_started);
                    a_done.store(true, Ordering::SeqCst);
                },
                || {
                    b_started.store(true, Ordering::SeqCst);
                    panic!("in b")
                },
            )
        }));
        let payload = caught.expect_err("b's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"in b"));
        assert!(a_done.load(Ordering::SeqCst));

        let (b_started, b_done) = (AtomicBool::new(false), AtomicBool::new(false));
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            join(
                || {
                    once_started(&b_started);
                    panic!("in a")
                },
                || {
                    b_started.store(true, Ordering::SeqCst);
                    // Long enough for a caller that did not wait to leave.
                    thread::sleep(Duration::from_millis(20));
                    b_done.store(true, Ordering::SeqCst);
                },
            )
        }));
        let payload = caught.expect_err("a's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"in a"));
        // A `b` the helper started has finished; one it had not is dropped
        // unrun (the only case without a helper).
        assert_eq!(b_started.load(Ordering::SeqCst), two_cpus());
        assert_eq!(b_done.load(Ordering::SeqCst), two_cpus());

        // The helper survived both panics and is free again.
        assert_eq!(join(|| 1, || 2), (1, 2));
    }

    #[test]
    fn nested_joins_run_inline() {
        let _serial = serial();
        let caller = me();
        let ((a1, a2), (b1, b2)) = join(|| join(me, me), || join(me, me));
        assert_eq!((a1, a2), (caller, caller));
        assert_eq!(b1, b2);
    }

    #[test]
    fn a_job_the_helper_has_not_started_is_taken_back() {
        let _serial = serial();
        HOLD.store(true, Ordering::SeqCst);
        let ran_on = join(|| (), me).1;
        HOLD.store(false, Ordering::SeqCst);
        assert_eq!(ran_on, me());
        assert_eq!(join(|| 1, || 2), (1, 2));
    }

    #[test]
    fn the_helper_never_allocates() {
        let _serial = serial();
        let mut rng = XorShiftSource::new(0x7171);
        for bits in [256, 384, 640] {
            let prime = |rng: &mut XorShiftSource| {
                BlumPrime::new(&gen_prime_congruent(bits, 3, 4, rng)).unwrap()
            };
            let (p, q) = (prime(&mut rng), prime(&mut rng));
            let (allocs, jobs) = (
                ON_HELPER_ALLOCS.load(Ordering::SeqCst),
                HELPER_JOBS.load(Ordering::SeqCst),
            );
            for i in 0..1000u64 {
                let a = Nat::from(i)
                    .shl_bits(2 * bits - 70)
                    .add_nat(&Nat::from(i * i + 5));
                let (rp, rq) = BlumPrime::root_pair(&p, &q, &a);
                if i % 100 == 0 {
                    assert_eq!((rp, rq), (p.root(&a), q.root(&a)), "{bits} bits, {i}");
                }
            }
            assert_eq!(
                ON_HELPER_ALLOCS.load(Ordering::SeqCst),
                allocs,
                "{bits} bits"
            );
            if two_cpus() {
                assert!(
                    HELPER_JOBS.load(Ordering::SeqCst) > jobs,
                    "the helper ran no root"
                );
            }
        }
    }

    #[test]
    fn no_helper_is_spawned_without_a_second_cpu() {
        let _serial = serial();
        join_round_trip();
        let spawned = HELPER.get().expect("the first join decides").is_some();
        assert_eq!(spawned, two_cpus());
    }
}
