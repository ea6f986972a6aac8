//! Pins lock acquisitions per RPC on the rigs `alloc_regression.rs` pins
//! allocations on: the blocking GETATTR relay loop and a sharded
//! windowed 4 KiB READ.
//!
//! No program crate starts a thread, so every lock is uncontended, yet
//! each one is still two atomic read-modify-writes; on a small RPC they
//! once cost more than the crypto. Both ends of an exchange now read
//! each piece of shared state once — the telemetry handle, the link,
//! the shard scheduler — and pass it down, instead of every helper
//! locking it again. The counts are exact and deterministic, so they
//! gate here like allocations do. The counter lives in debug builds only
//! (`sfs_telemetry::sync`), so this file compiles to nothing under
//! `--release`.
#![cfg(debug_assertions)]

use sfs_bench::microbench::{relay_rig, RelayRig};
use sfs_bench::world::UID;
use sfs_nfs3::proto::{Nfs3Reply, Nfs3Request};
use sfs_telemetry::sync::lock_acquisitions;

/// Measured 20 per blocking GETATTR (a window of one frame): per end
/// one telemetry handle, the link, the authentication number, the
/// revocation check (agent map and agent) and the write-behind barrier
/// on the client; the shard-engine slot, the session state, the boot
/// epoch and the invalidation queue on the server; the file system and
/// its lease table in the NFS server; and seven for the buffer pool,
/// whose eight operations take one lock each except the server's return
/// of the request buffer and draw of the cache copy, which share one
/// (22 while the server copied each request frame into a buffer of its
/// own, 42 when every helper read its own copy of the shared state and
/// the pool kept its counters behind a second mutex).
const GETATTR_LOCK_CEILING: f64 = 21.0;
/// Measured 14 per windowed READ with the shard engine installed: a
/// READ also locks the file system once, not twice (17 while the
/// server copied each frame and read the file's attributes apart from
/// its bytes, 31.5 when every helper read its own copy of the shared
/// state).
const SHARDED_READ_LOCK_CEILING: f64 = 16.0;

/// Lock acquisitions `f` takes on this thread.
fn count_locks(f: impl FnOnce()) -> u64 {
    let before = lock_acquisitions();
    f();
    lock_acquisitions() - before
}

#[test]
fn blocking_getattr_locks_stay_pinned() {
    let RelayRig {
        client,
        mount,
        data_fh: fh,
        ..
    } = relay_rig(None, 4096);
    for _ in 0..8 {
        client.getattr(&mount, UID, &fh).unwrap();
    }
    const ITERS: u64 = 32;
    let locks = count_locks(|| {
        for _ in 0..ITERS {
            client.getattr(&mount, UID, &fh).unwrap();
        }
    });
    let per_rpc = locks as f64 / ITERS as f64;
    assert!(
        per_rpc <= GETATTR_LOCK_CEILING,
        "GETATTR now takes {per_rpc:.2} locks/RPC (ceiling {GETATTR_LOCK_CEILING}); \
         a helper on the blocking path is re-reading shared state"
    );
}

#[test]
fn sharded_windowed_read_locks_stay_pinned() {
    let RelayRig {
        world,
        client,
        mount,
        data_fh: fh,
    } = relay_rig(Some(4), 8 * 4096);
    client.set_pipeline_window(8);
    const BATCH: usize = 8;
    let reqs: Vec<Nfs3Request> = (0..BATCH)
        .map(|i| Nfs3Request::Read {
            fh,
            offset: (i * 4096) as u64,
            count: 4096,
        })
        .collect();
    for _ in 0..4 {
        client.call_nfs_window(&mount, UID, &reqs).unwrap();
    }
    const ITERS: u64 = 16;
    let locks = count_locks(|| {
        for _ in 0..ITERS {
            for reply in client.call_nfs_window(&mount, UID, &reqs).unwrap() {
                match reply {
                    Nfs3Reply::Read { data, .. } => assert_eq!(data.len(), 4096),
                    other => panic!("unexpected reply {other:?}"),
                }
            }
        }
    });
    let engine = world.servers[0].shard_engine().expect("engine installed");
    assert!(
        engine.frames_scheduled() > 0,
        "the windowed batches never went through the shard engine"
    );
    let per_rpc = locks as f64 / (ITERS * BATCH as u64) as f64;
    assert!(
        per_rpc <= SHARDED_READ_LOCK_CEILING,
        "sharded windowed 4 KiB READ now takes {per_rpc:.2} locks/RPC \
         (ceiling {SHARDED_READ_LOCK_CEILING}); a helper on the windowed path \
         is re-reading shared state"
    );
}
