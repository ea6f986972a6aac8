//! A per-connection buffer pool for the sealed-RPC hot path.
//!
//! Every sealed RPC used to allocate fresh `Vec<u8>`s for the XDR
//! encode, the sealed frame, the wire envelope, the opened reply and the
//! server's reply-cache copy.
//! The paper's performance argument (§4) is that security overhead is
//! small enough to leave on by default; gratuitous per-RPC allocation
//! works against that. A [`BufPool`] is a small freelist of `Vec<u8>`s
//! shared by both ends of a connection so steady-state traffic recycles
//! the same handful of buffers instead of hitting the allocator.
//!
//! Pool discipline: buffers are handed out empty (`len == 0`) with
//! whatever capacity they accumulated (a fresh one with room for one
//! small frame), and returned with contents
//! intact (the pool clears them on reuse, not on return, so a caller
//! may keep reading a buffer up to the moment it re-enters circulation).
//! Hits and misses are telemetry-counted (`bufpool.hits` /
//! `bufpool.misses`) so benchmarks and tests can pin reuse rates.
//!
//! **Ownership under multi-core dispatch.** Each pool is created by
//! `crate::SfsServer::accept` (or the client link setup) for exactly
//! one connection, and both ends of that simulated loopback share it;
//! no pool is ever reachable from two connections. The multi-core
//! `ShardEngine` schedules *time*, not buffers — worker shards never
//! exchange `Vec<u8>`s — so a buffer recycled on one shard cannot alias
//! an in-flight frame on another: the only path back into circulation
//! is `put` on the same connection's pool, and a buffer only re-enters
//! a *different* pool by deep copy. Every pool carries a process-unique
//! `BufPool::id` so tests can pin this single-owner discipline.

use std::sync::Arc;

use sfs_telemetry::sync::Mutex;
use sfs_telemetry::Telemetry;

use crate::client::DEFAULT_PIPELINE_WINDOW;

/// Buffers retained per pool: every buffer one pipelined exchange of
/// `W` frames (the default window) holds at its peak, its last frame:
/// the client's `W` sealed frames (kept for retransmission), the `W`
/// sealed replies, and the `W` reply-cache copies the server made of
/// them in its request buffers. The reply cache releases the previous
/// exchange's copies only once the new one's first frame is served, and
/// between exchanges it may hold a single buffer — a lone call retires
/// the window before it — so the freelist must be able to keep all
/// `3W` itself: capped at `2W + 1`, every lone call dropped `W - 1`
/// buffers, and the next window missed on each of them (and grew the
/// fresh ones while encoding its replies). More would only be idle.
const MAX_POOLED: usize = 3 * DEFAULT_PIPELINE_WINDOW;

/// Buffers above this capacity are dropped rather than pooled, so one
/// huge READ/WRITE burst does not pin megabytes forever.
const MAX_RETAINED_CAPACITY: usize = 1 << 20;

/// Capacity of a buffer the pool allocates on a miss: one small sealed
/// frame — the 20-byte envelope and 4-byte frame header, a metadata call
/// or reply or a user-authentication request (about 200 bytes with a
/// 512-bit user key), and the 20-byte MAC. Such a frame is then written
/// without growing the buffer; grown from empty by `extend_from_slice`,
/// every fresh connection's buffers paid several reallocations each.
const FRESH_CAPACITY: usize = 256;

/// Process-unique pool identities, so ownership can be asserted.
/// A freelist of reusable `Vec<u8>`s shared by a connection's two ends.
pub struct BufPool {
    /// The freelist and the sink its hit/miss counters go to, under one
    /// lock: a `get` takes it once.
    state: Mutex<PoolState>,
    host: &'static str,
}

struct PoolState {
    free: Vec<Vec<u8>>,
    tel: Telemetry,
}

impl PoolState {
    fn get(&mut self, host: &'static str) -> Vec<u8> {
        match self.free.pop() {
            Some(mut b) => {
                self.tel.count(host, "bufpool.hits", 1);
                b.clear();
                b
            }
            None => {
                self.tel.count(host, "bufpool.misses", 1);
                Vec::with_capacity(FRESH_CAPACITY)
            }
        }
    }

    fn put(&mut self, buf: Vec<u8>) {
        if self.free.len() < MAX_POOLED {
            self.free.push(buf);
        }
    }
}

/// Whether the freelist keeps a buffer of `capacity` at all: an empty
/// one holds nothing worth reusing, an oversized one would pin memory.
fn retained(capacity: usize) -> bool {
    capacity != 0 && capacity <= MAX_RETAINED_CAPACITY
}

impl BufPool {
    /// Creates an empty pool tagged with a telemetry process dimension.
    pub fn new(host: &'static str) -> Arc<Self> {
        Arc::new(BufPool {
            state: Mutex::new(PoolState {
                free: Vec::new(),
                tel: Telemetry::disabled(),
            }),
            host,
        })
    }

    /// Routes hit/miss counters to `tel`.
    pub(crate) fn set_telemetry(&self, tel: Telemetry) {
        self.state.lock().tel = tel;
    }

    /// Takes a cleared buffer from the freelist, or allocates one.
    pub fn get(&self) -> Vec<u8> {
        self.state.lock().get(self.host)
    }

    /// Returns a buffer to the freelist. Oversized buffers and overflow
    /// beyond the retention cap are dropped.
    pub fn put(&self, buf: Vec<u8>) {
        if retained(buf.capacity()) {
            self.state.lock().put(buf);
        }
    }

    /// [`Self::put`] then [`Self::get`], under one lock: a caller done
    /// with one buffer that needs another gets `buf` back, cleared,
    /// whenever the freelist would have kept it.
    pub(crate) fn recycle(&self, buf: Vec<u8>) -> Vec<u8> {
        let mut st = self.state.lock();
        if retained(buf.capacity()) {
            st.put(buf);
        }
        st.get(self.host)
    }

    /// Buffers currently idle in the freelist (for tests).
    pub(crate) fn idle(&self) -> usize {
        self.state.lock().free.len()
    }
}

impl std::fmt::Debug for BufPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufPool")
            .field("host", &self.host)
            .field("idle", &self.idle())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuses_buffers_and_counts_hits() {
        let pool = BufPool::new("client");
        let tel = Telemetry::counters();
        pool.set_telemetry(tel.clone());

        let mut a = pool.get();
        a.extend_from_slice(b"hello");
        let cap = a.capacity();
        pool.put(a);
        assert_eq!(pool.idle(), 1);

        let b = pool.get();
        assert!(b.is_empty(), "reused buffers come back cleared");
        assert_eq!(b.capacity(), cap, "capacity survives the round trip");
        assert_eq!(tel.counter("client", "bufpool.hits"), 1);
        assert_eq!(tel.counter("client", "bufpool.misses"), 1);
    }

    #[test]
    fn recycle_is_put_then_get() {
        let pool = BufPool::new("client");
        let tel = Telemetry::counters();
        pool.set_telemetry(tel.clone());
        let mut a = Vec::with_capacity(64);
        a.extend_from_slice(b"request");
        let marker = a.as_ptr();
        let b = pool.recycle(a);
        assert_eq!(b.as_ptr(), marker, "a kept buffer comes straight back");
        assert!(b.is_empty());
        assert_eq!(tel.counter("client", "bufpool.hits"), 1);
        // One the freelist would not keep is dropped, and the draw
        // misses on an empty freelist: a fresh buffer, sized for a frame.
        let c = pool.recycle(Vec::new());
        assert_eq!(c.capacity(), FRESH_CAPACITY);
        assert_eq!(tel.counter("client", "bufpool.misses"), 1);
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn retention_is_capped() {
        let pool = BufPool::new("client");
        for _ in 0..MAX_POOLED + 4 {
            pool.put(Vec::with_capacity(64));
        }
        assert_eq!(pool.idle(), MAX_POOLED);
        // Zero-capacity and oversized buffers are never retained.
        let before = pool.idle();
        pool.put(Vec::new());
        pool.put(Vec::with_capacity(MAX_RETAINED_CAPACITY + 1));
        assert_eq!(pool.idle(), before);
    }

    #[test]
    fn pools_are_single_owner_never_cross_recycled() {
        // The cross-shard aliasing regression: a buffer returned to one
        // connection's pool must never surface from another's freelist.
        let a = BufPool::new("server");
        let b = BufPool::new("server");
        let mut buf = Vec::with_capacity(128);
        buf.extend_from_slice(b"frame-in-flight");
        let marker = buf.as_ptr();
        a.put(buf);
        assert_eq!(a.idle(), 1);
        assert_eq!(b.idle(), 0, "pool B must not see pool A's buffer");
        // Drain B: everything it hands out is freshly allocated, so no
        // pointer from A's freelist can alias it.
        let from_b = b.get();
        assert_ne!(from_b.as_ptr(), marker);
        assert_eq!(
            from_b.capacity(),
            FRESH_CAPACITY,
            "B had nothing pooled to reuse"
        );
        let from_a = a.get();
        assert_eq!(from_a.as_ptr(), marker, "A recycles its own buffer");
    }
}
