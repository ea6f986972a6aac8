//! Poison-transparent wrappers around the std locks.
//!
//! The whole workspace locks through these instead of `std::sync`
//! directly: a panic while holding a lock does not poison it for the
//! next caller (the simulator is single-threaded per virtual host, and
//! tests that probe panics still want the state afterwards). The API
//! mirrors `parking_lot`: `lock()` returns the guard directly, with no
//! `Result` to unwrap at every call site.
//!
//! **The lock budget.** No program crate starts a thread, so every
//! acquisition is uncontended — and still costs two atomic
//! read-modify-writes, which on a small RPC add up to more than its
//! crypto. Debug builds (`cfg(debug_assertions)`, i.e. `cargo test`)
//! count [`Mutex::lock`] calls per thread; [`lock_acquisitions`] reads
//! the count, so a test can pin acquisitions per operation the way
//! `alloc_count` pins allocations. Release builds compile neither the
//! counter nor the function, so the benchmark pays nothing for it.

#[cfg(debug_assertions)]
thread_local! {
    static ACQUISITIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// [`Mutex::lock`] calls made on this thread so far (debug builds only).
#[cfg(debug_assertions)]
pub fn lock_acquisitions() -> u64 {
    ACQUISITIONS.with(|c| c.get())
}

/// A mutual exclusion primitive; `lock` never returns a poison error.
#[derive(Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// Guard type returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Creates a new mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available. A poisoned
    /// lock (panic while held) is recovered transparently.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        ACQUISITIONS.with(|c| c.set(c.get() + 1));
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Attempts to acquire the lock without blocking.
    pub(crate) fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }
}

impl<T> From<T> for Mutex<T> {
    fn from(value: T) -> Self {
        Mutex::new(value)
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_roundtrip() {
        let m = Mutex::new(1u32);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        // parking_lot semantics: the next lock just works.
        *m.lock() += 1;
        assert_eq!(*m.lock(), 1);
    }

    #[test]
    fn unsized_coercion_through_arc() {
        trait Speak {
            fn speak(&self) -> &'static str;
        }
        struct Dog;
        impl Speak for Dog {
            fn speak(&self) -> &'static str {
                "woof"
            }
        }
        let m: Arc<Mutex<dyn Speak>> = Arc::new(Mutex::new(Dog));
        assert_eq!(m.lock().speak(), "woof");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn lock_acquisitions_count_this_threads_locks() {
        let m = Mutex::new(0u32);
        let before = lock_acquisitions();
        *m.lock() += 1;
        drop(m.lock());
        assert!(m.try_lock().is_some());
        assert_eq!(lock_acquisitions() - before, 2, "try_lock is not counted");
        std::thread::scope(|s| {
            s.spawn(|| drop(m.lock()));
        });
        assert_eq!(
            lock_acquisitions() - before,
            2,
            "other threads' locks are not"
        );
    }
}
