//! Pins allocations-per-RPC on the steady-state sealed relay loop, per
//! operation on the stages below it, and per private-key operation on
//! the Rabin handshake path.
//!
//! Wall-clock perf regressions need a benchmark run to notice;
//! allocation-count regressions are exact and deterministic, so they can
//! gate in an ordinary test. The relay ceilings are `microbench`'s —
//! the same pair `sfs-bench hotpath` asserts on the same loop; anything
//! above them means the pooled buffer flow broke somewhere.

use sfs_bench::alloc_count::{count_allocs, CountingAlloc};
use sfs_bench::keys;
use sfs_bench::microbench::{
    micro_stages, relay_rig, RelayRig, RELAY_GETATTR_ALLOC_CEILING, RELAY_READ_ALLOC_CEILING,
};
use sfs_bench::world::UID;
use sfs_bignum::XorShiftSource;
use sfs_nfs3::proto::{Nfs3Reply, Nfs3Request};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SHARDED_READ_ALLOC_CEILING: f64 = 16.0;
const RABIN_768_DECRYPT_ALLOC_CEILING: u64 = 90;
const RABIN_512_SIGN_ALLOC_CEILING: u64 = 84;

#[test]
fn steady_state_relay_allocations_stay_pinned() {
    let RelayRig {
        client,
        mount,
        data_fh: fh,
        ..
    } = relay_rig(None, 4096);

    // Warm the pools, the connection, and any lazy collection growth.
    for _ in 0..8 {
        client.getattr(&mount, UID, &fh).unwrap();
    }

    const ITERS: u64 = 32;
    let (_, getattr_allocs) = count_allocs(|| {
        for _ in 0..ITERS {
            client.getattr(&mount, UID, &fh).unwrap();
        }
    });
    let per_getattr = getattr_allocs as f64 / ITERS as f64;
    assert!(
        per_getattr <= RELAY_GETATTR_ALLOC_CEILING,
        "GETATTR now costs {per_getattr:.2} allocs/RPC (ceiling {RELAY_GETATTR_ALLOC_CEILING}); \
         the pooled hot path has regressed"
    );

    let read = Nfs3Request::Read {
        fh: fh.clone(),
        offset: 0,
        count: 4096,
    };
    for _ in 0..4 {
        client.call_nfs(&mount, UID, &read).unwrap();
    }
    let (_, read_allocs) = count_allocs(|| {
        for _ in 0..ITERS {
            match client.call_nfs(&mount, UID, &read).unwrap() {
                Nfs3Reply::Read { data, .. } => assert_eq!(data.len(), 4096),
                other => panic!("unexpected reply {other:?}"),
            }
        }
    });
    let per_read = read_allocs as f64 / ITERS as f64;
    assert!(
        per_read <= RELAY_READ_ALLOC_CEILING,
        "4 KiB READ now costs {per_read:.2} allocs/RPC (ceiling {RELAY_READ_ALLOC_CEILING}); \
         the pooled hot path has regressed"
    );
}

#[test]
fn stages_below_the_relay_stay_allocation_free() {
    // XDR encode, seal and seal+open on both negotiable suites, and the
    // AEAD kernels: once their buffers are warm, none may allocate.
    for mut stage in micro_stages() {
        for _ in 0..8 {
            (stage.op)();
        }
        let ((), allocs) = count_allocs(|| (0..16).for_each(|_| (stage.op)()));
        assert_eq!(
            allocs, 0,
            "{}/{}B allocated {allocs} times in 16 warm operations",
            stage.name, stage.payload
        );
    }
}

#[test]
fn sharded_windowed_allocations_stay_pinned() {
    // The multi-core dispatch path: windowed batches through a 4-core
    // `ShardEngine`. Per-RPC the windowed engine legitimately costs more
    // than the blocking loop (sealed frames are kept for retransmission,
    // the reorder buffer and reply cache bookkeep per frame), but the
    // engine itself must stay allocation-lean — measured 15.8 allocs per
    // windowed 4 KiB READ with the engine installed (23.4 while every
    // sequenced frame was copied into a fresh `Vec` for the reorder
    // buffer on both sides, 21.2 while the window built an `InnerCall`
    // and an argument `Vec` per frame, 17.9 while every wire kept a
    // private counter registry keyed by strings; in-order frames are
    // opened in the pooled buffer they arrive in and the inner call is
    // marshaled straight into the envelope), so the ceiling is the
    // measured value rounded up.
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
            fh: fh.clone(),
            offset: (i * 4096) as u64,
            count: 4096,
        })
        .collect();
    // Warm pools, sequencer capacity, and the engine's calendars.
    for _ in 0..4 {
        client.call_nfs_window(&mount, UID, &reqs).unwrap();
    }

    const ITERS: u64 = 16;
    let (_, allocs) = count_allocs(|| {
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
    let per_rpc = allocs as f64 / (ITERS * BATCH as u64) as f64;
    assert!(
        per_rpc <= SHARDED_READ_ALLOC_CEILING,
        "sharded windowed 4 KiB READ now costs {per_rpc:.2} allocs/RPC \
         (ceiling {SHARDED_READ_ALLOC_CEILING}); the multi-core hot path has regressed"
    );
}

#[test]
fn rabin_private_operations_stay_allocation_lean() {
    // The two private-key operations a `connect` pays for. When every
    // modular product and every extended-Euclid step was a fresh `Nat`
    // they cost 17 320 allocations per 768-bit decrypt and 8 536 per
    // 512-bit sign. With the Montgomery kernel and the key-held CRT
    // context each exponentiation allocates its window table and scratch
    // once; what remains is reducing the input, the CRT recombinations
    // and OAEP unpadding of the candidate roots: 74 and 69 measured,
    // pinned with ~20 % headroom.
    let mut rng = XorShiftSource::new(0x51F0);
    let server_key = keys::rabin(768, 0x51F0);
    let user_key = keys::rabin(512, 0x51F1);
    let cipher = server_key
        .public()
        .encrypt(b"sixteen-byte-key", &mut rng)
        .unwrap();
    assert_eq!(server_key.decrypt(&cipher).unwrap(), b"sixteen-byte-key");

    let (plain, decrypt_allocs) = count_allocs(|| server_key.decrypt(&cipher));
    assert!(plain.is_ok());
    assert!(
        decrypt_allocs <= RABIN_768_DECRYPT_ALLOC_CEILING,
        "rabin_768 decrypt now costs {decrypt_allocs} allocations \
         (ceiling {RABIN_768_DECRYPT_ALLOC_CEILING})"
    );

    let (sig, sign_allocs) = count_allocs(|| user_key.sign(b"AuthMsg to sign"));
    assert!(user_key.public().verify(b"AuthMsg to sign", &sig));
    assert!(
        sign_allocs <= RABIN_512_SIGN_ALLOC_CEILING,
        "rabin_512 sign now costs {sign_allocs} allocations \
         (ceiling {RABIN_512_SIGN_ALLOC_CEILING})"
    );
}
