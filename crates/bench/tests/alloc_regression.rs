//! Pins allocations-per-RPC on the steady-state sealed relay loop, per
//! operation on the stages below it, per Rabin operation and generator
//! draw on the handshake path, and per whole connect cycle — and, beside
//! them, the pool's hit/miss behaviour and the totals the CPU cost terms
//! and the pool count.
//!
//! Wall-clock perf regressions need a benchmark run to notice;
//! allocation-count regressions are exact and deterministic, so they can
//! gate in an ordinary test. The relay ceilings are `microbench`'s —
//! the same pair `sfs-bench hotpath` asserts on the same loop; anything
//! above them means the pooled buffer flow broke somewhere.

use sfs_bench::alloc_count::{count_allocs, CountingAlloc};
use sfs_bench::keys;
use sfs_bench::microbench::{
    micro_stages, relay_rig, RelayRig, Stage, RELAY_GETATTR_ALLOC_CEILING, RELAY_READ_ALLOC_CEILING,
};
use sfs_bench::world::{World, WorldSpec, UID};
use sfs_bignum::{RandomSource, XorShiftSource};
use sfs_crypto::SfsPrg;
use sfs_nfs3::proto::{Nfs3Reply, Nfs3Request, StableHow};
use sfs_telemetry::{Telemetry, ZeroClock};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// ACCESS carries a handle and a mask each way: nothing to allocate.
const RELAY_ACCESS_ALLOC_CEILING: f64 = 0.0;
/// LOOKUP's name crosses client, XDR and server by borrow: the client
/// marshals it from the caller's request, the server decodes it as a
/// `&str` in the opened frame (1 while it decoded into a `String`).
const RELAY_LOOKUP_ALLOC_CEILING: f64 = 0.0;
/// A relayed 8 KiB FILE_SYNC WRITE: the data goes from the caller's
/// request into the frame, and from the opened frame into the file.
const RELAY_WRITE_ALLOC_CEILING: f64 = 0.0;
/// A whole `write_file` of 64 KiB: path walk, LOOKUP, truncate and two
/// 32 KiB WRITEs borrowed from the caller's slice in one window (19 per
/// `sfs-benchmark seq_write` op while the names were `String`s and the
/// chunks were queued as copies; the benchmark's claim is at most 2).
const WRITE_FILE_ALLOC_CEILING: f64 = 0.0;
/// Eight sequential 8 KiB `read`s of a stream — one window of READs,
/// seven of them answered from read-ahead: exactly the eight `Vec`s the
/// reads return.
const READ_STRIPE_ALLOC_CEILING: f64 = 8.0;
const SHARDED_READ_ALLOC_CEILING: f64 = 2.125;
/// The ciphertext's number, the two roots, the plaintext.
const RABIN_768_DECRYPT_ALLOC_CEILING: u64 = 4;
/// The hash's number, the two roots, the signature's root.
const RABIN_512_SIGN_ALLOC_CEILING: u64 = 4;
/// The ciphertext.
const RABIN_768_ENCRYPT_ALLOC_CEILING: u64 = 1;
/// One `sfs-benchmark connect` op on the library world: a full Figure-3
/// mount with user authentication, then a ticket-resumed reconnect
/// after a server restart, each reading a small file. The count is exact,
/// so the ceiling is the measurement.
const CONNECT_CYCLE_ALLOC_CEILING: f64 = 149.125;

#[test]
fn steady_state_relay_allocations_stay_pinned() {
    let RelayRig {
        world,
        client,
        mount,
        data_fh: fh,
    } = relay_rig(None, 4096);
    let dir = format!("{}/bench", world.path().full_path());
    let (_, dir_fh, _) = client.resolve(UID, &dir).unwrap();
    let lookup = Nfs3Request::Lookup {
        dir: dir_fh,
        name: "data".into(),
    };
    let read = Nfs3Request::Read {
        fh,
        offset: 0,
        count: 4096,
    };
    let write = Nfs3Request::Write {
        fh,
        offset: 0,
        stable: StableHow::FileSync,
        data: vec![0xAB; 8192],
    };
    let getattr = || {
        client.getattr(&mount, UID, &fh).unwrap();
    };
    let access = || {
        client.access(&mount, UID, &fh, 0x3f).unwrap();
    };
    let lookup = || match client.call_nfs(&mount, UID, &lookup).unwrap() {
        Nfs3Reply::Lookup { fh: found, .. } => assert_eq!(found, fh),
        other => panic!("unexpected reply {other:?}"),
    };
    let read = || match client.call_nfs(&mount, UID, &read).unwrap() {
        Nfs3Reply::Read { data, .. } => assert_eq!(data.len(), 4096),
        other => panic!("unexpected reply {other:?}"),
    };
    let write = || match client.call_nfs(&mount, UID, &write).unwrap() {
        Nfs3Reply::Write { count, .. } => assert_eq!(count, 8192),
        other => panic!("unexpected reply {other:?}"),
    };
    let rows: [(&str, f64, &dyn Fn()); 5] = [
        ("GETATTR", RELAY_GETATTR_ALLOC_CEILING, &getattr),
        ("ACCESS", RELAY_ACCESS_ALLOC_CEILING, &access),
        ("LOOKUP", RELAY_LOOKUP_ALLOC_CEILING, &lookup),
        ("4 KiB READ", RELAY_READ_ALLOC_CEILING, &read),
        ("8 KiB WRITE", RELAY_WRITE_ALLOC_CEILING, &write),
    ];
    const ITERS: u64 = 32;
    for (name, ceiling, op) in rows {
        // Warm the pools, the connection, and any lazy collection growth.
        (0..8).for_each(|_| op());
        let ((), allocs) = count_allocs(|| (0..ITERS).for_each(|_| op()));
        let per_rpc = allocs as f64 / ITERS as f64;
        assert!(
            per_rpc <= ceiling,
            "{name} now costs {per_rpc:.2} allocs/RPC (ceiling {ceiling}); \
             the pooled hot path has regressed"
        );
    }
}

#[test]
fn whole_file_writes_and_read_stripes_allocate_only_what_they_return() {
    let RelayRig { world, client, .. } = relay_rig(None, 4096);
    let dir = format!("{}/bench", world.path().full_path());
    let small = format!("{dir}/written");
    let data = vec![0x5A; 64 * 1024];
    let write_file = || client.write_file(UID, &small, &data).unwrap();
    (0..8).for_each(|_| write_file());
    const ITERS: u64 = 16;
    let ((), allocs) = count_allocs(|| (0..ITERS).for_each(|_| write_file()));
    let per_op = allocs as f64 / ITERS as f64;
    assert!(
        per_op <= WRITE_FILE_ALLOC_CEILING,
        "a 64 KiB write_file now costs {per_op:.2} allocs (ceiling {WRITE_FILE_ALLOC_CEILING})"
    );
    assert_eq!(client.read_file(UID, &small).unwrap(), data);

    // A long stream, read 8 KiB at a time: each stripe of eight reads is
    // one window of READs, its first read waiting on the window and the
    // other seven served from read-ahead.
    const STRIPE: u64 = 8 * 8192;
    let big = format!("{dir}/stream");
    client
        .write_file(UID, &big, &vec![0xC3; (STRIPE * 24) as usize])
        .unwrap();
    let (mount, fh, _) = client.resolve(UID, &big).unwrap();
    let mut offset = 0;
    let mut stripe = || {
        for _ in 0..8 {
            let (data, _) = client.read(&mount, UID, &fh, offset, 8192).unwrap();
            assert_eq!(data.len(), 8192);
            offset += 8192;
        }
    };
    (0..4).for_each(|_| stripe());
    let ((), allocs) = count_allocs(|| (0..ITERS).for_each(|_| stripe()));
    let per_stripe = allocs as f64 / ITERS as f64;
    assert!(
        per_stripe <= READ_STRIPE_ALLOC_CEILING,
        "a stripe of eight 8 KiB reads now costs {per_stripe:.2} allocs \
         (ceiling {READ_STRIPE_ALLOC_CEILING})"
    );
}

#[test]
fn the_borrowed_decode_accepts_what_the_owned_decode_accepts() {
    // The sealed server decodes every call with names and data borrowed
    // from the opened frame; anything else (the relay's log replay, the
    // benchmark's probes) decodes them owned. Over the seeded mutations
    // of `wire`'s inner-call corpus, seeded with a call of each of the
    // 21 procedures, both must accept exactly the same arguments and
    // re-encode what they accept byte for byte.
    use sfs::wire::{inner_nfs_call, InnerCall};
    use sfs_nfs3::proto::{FileHandle, Proc, Sattr3};
    use sfs_xdr::enc::MAX_VAR_LEN;
    use sfs_xdr::Xdr;
    let fh = |b: u8| FileHandle::from([b; 16]);
    let attrs = Sattr3 {
        mode: Some(0o640),
        size: Some(12),
        ..Default::default()
    };
    let name = || "entry".to_string();
    let calls: [Nfs3Request; 21] = [
        Nfs3Request::Null,
        Nfs3Request::GetAttr { fh: fh(1) },
        Nfs3Request::SetAttr { fh: fh(2), attrs },
        Nfs3Request::Lookup {
            dir: fh(3),
            name: name(),
        },
        Nfs3Request::Access {
            fh: fh(4),
            mask: 0x3f,
        },
        Nfs3Request::ReadLink { fh: fh(5) },
        Nfs3Request::Read {
            fh: fh(6),
            offset: 8192,
            count: 4096,
        },
        Nfs3Request::Write {
            fh: fh(7),
            offset: 4096,
            stable: StableHow::Unstable,
            data: vec![0xA5; 13],
        },
        Nfs3Request::Create {
            dir: fh(8),
            name: name(),
            attrs,
        },
        Nfs3Request::Mkdir {
            dir: fh(9),
            name: name(),
            attrs,
        },
        Nfs3Request::Symlink {
            dir: fh(10),
            name: name(),
            target: "/sfs/target".into(),
        },
        Nfs3Request::Remove {
            dir: fh(11),
            name: name(),
        },
        Nfs3Request::Rmdir {
            dir: fh(12),
            name: name(),
        },
        Nfs3Request::Rename {
            from_dir: fh(13),
            from_name: name(),
            to_dir: fh(14),
            to_name: "renamed".into(),
        },
        Nfs3Request::Link {
            fh: fh(15),
            dir: fh(16),
            name: name(),
        },
        Nfs3Request::ReadDir {
            dir: fh(17),
            cookie: 3,
            count: 64,
            plus: false,
        },
        Nfs3Request::ReadDir {
            dir: fh(18),
            cookie: 0,
            count: 64,
            plus: true,
        },
        Nfs3Request::FsStat { root: fh(19) },
        Nfs3Request::FsInfo { root: fh(20) },
        Nfs3Request::PathConf { fh: fh(21) },
        Nfs3Request::Commit {
            fh: fh(22),
            offset: 0,
            count: 0,
        },
    ];
    let seeds = calls.map(|req| {
        let call = InnerCall::Nfs {
            authno: 7,
            proc: req.proc() as u32,
            args: req.encode_args(),
        };
        call.to_xdr()
    });
    let mut rng = XorShiftSource::new(0x1CA11);
    let mut draw = move |n: usize| rng.below(n as u64) as usize;
    let (mut accepted, mut declined) = (0, 0);
    for _ in 0..4000 {
        let mut p = seeds[draw(seeds.len())].clone();
        match draw(5) {
            0 => {}
            1 => {
                let i = draw(p.len());
                p[i] ^= 1 << draw(8);
            }
            2 => p.truncate(draw(p.len() + 1)),
            3 => p.extend((0..1 + draw(4)).map(|_| draw(2) as u8)),
            _ => {
                let word = draw(p.len() / 4) * 4;
                let v = [0u32, 1, 2, 3, MAX_VAR_LEN, MAX_VAR_LEN + 1][draw(6)];
                p[word..word + 4].copy_from_slice(&v.to_be_bytes());
            }
        }
        let Some((_, proc, args)) = inner_nfs_call(&p) else {
            continue;
        };
        let Some(proc) = Proc::from_u32(proc) else {
            continue;
        };
        let owned = Nfs3Request::decode_args(proc, args);
        let borrowed = Nfs3Request::decode_args_ref(proc, args);
        match (&owned, &borrowed) {
            (Ok(owned), Ok(borrowed)) => {
                assert_eq!(owned.borrowed(), *borrowed);
                assert_eq!(owned.encode_args(), borrowed.encode_args(), "{p:?}");
                accepted += 1;
            }
            (Err(o), Err(b)) => {
                assert_eq!(o, b, "{p:?}");
                declined += 1;
            }
            _ => panic!("{proc:?}: owned {owned:?}, borrowed {borrowed:?}"),
        }
    }
    assert!(accepted > 400 && declined > 200, "{accepted} / {declined}");
}

#[test]
fn stages_below_the_relay_stay_allocation_free() {
    // XDR encode, seal and seal+open on both negotiable suites, and the
    // AEAD kernels: once their buffers are warm, none may allocate. Nor
    // may an attributed instant on a sink that does not trace: the
    // shard engine, client backoff and fault injection emit one per
    // event whether or not anyone records it.
    let instants = [
        ("instant_kv_disabled", Telemetry::disabled()),
        ("instant_kv_counters", Telemetry::counters()),
    ]
    .map(|(name, tel)| Stage {
        name,
        payload: 0,
        op: Box::new(move || tel.instant_kv("client", "core.client", "backoff", "attempt", 3)),
    });
    // Every dial makes disabled handles for its wire and pools and gives
    // them a clock; none of that may allocate.
    let handle = Stage {
        name: "telemetry_disabled_handle",
        payload: 0,
        op: Box::new(|| drop(Telemetry::disabled().with_clock(ZeroClock))),
    };
    for mut stage in micro_stages().into_iter().chain(instants).chain([handle]) {
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
    // engine itself must stay allocation-lean — measured 2.125 allocs
    // per windowed 4 KiB READ with the engine installed (4.125 while every
    // file handle was a heap `Vec` copied at each layer it crossed, 6.375
    // while each exchange built its own frame, arrival and reply `Vec`s,
    // 23.4 while every sequenced frame was copied into a fresh `Vec` for
    // the reorder buffer on both sides, 21.2 while the window built an
    // `InnerCall` and an argument `Vec` per frame, 17.9 while every wire
    // kept a private counter registry keyed by strings, 15.8 while the reply
    // cache kept fresh copies, the wire copies were dropped and replies
    // were decoded through an `InnerReply`; in-order frames are opened
    // and decoded in the pooled buffer they arrive in, the inner call is
    // marshaled straight into the envelope, and every buffer of a warm
    // window comes from the pool, and the link reuses the exchange's own
    // buffers). The count is exact, so the ceiling is the measurement.
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
fn a_steady_state_window_of_8k_reads_takes_no_pool_misses() {
    // `BufPool` keeps what one window-8 exchange circulates (bufpool.rs,
    // `MAX_POOLED`): once warm, every buffer a window of eight 8 KiB
    // READs touches — sealed frames, their wire copies (the server opens
    // each frame in its copy), replies and reply-cache copies — is a
    // recycled one. So is every buffer of a mixed steady state on a
    // two-core engine — lone calls between windows of READs and of
    // FILE_SYNC WRITEs — though a lone call leaves the reply cache
    // holding one buffer where a window left eight.
    let tel = Telemetry::counters();
    let world = World::build(
        &WorldSpec {
            disk: None,
            cpu: None,
            cores: Some(2),
            ..WorldSpec::bench()
        }
        .traced(&tel),
    );
    let client = &world.clients[0];
    let file = format!("{}/bench/data", world.path().full_path());
    client
        .write_file(UID, &file, &vec![0xAB; 8 * 8192])
        .unwrap();
    let (mount, fh, _) = client.resolve(UID, &file).unwrap();
    client.set_caching(false);
    client.set_pipeline_window(8);
    let reads: Vec<Nfs3Request> = (0..8)
        .map(|i| Nfs3Request::Read {
            fh,
            offset: i * 8192,
            count: 8192,
        })
        .collect();
    let writes: Vec<Nfs3Request> = (0..2)
        .map(|i| Nfs3Request::Write {
            fh,
            offset: i * 8192,
            stable: StableHow::FileSync,
            data: vec![0xCD; 8192],
        })
        .collect();
    let window = |reqs: &[Nfs3Request]| {
        for reply in client.call_nfs_window(&mount, UID, reqs).unwrap() {
            match reply {
                Nfs3Reply::Read { data, .. } => assert_eq!(data.len(), 8192),
                Nfs3Reply::Write { count, .. } => assert_eq!(count, 8192),
                other => panic!("unexpected reply {other:?}"),
            }
        }
    };
    let lone = || {
        client.getattr(&mount, UID, &fh).unwrap();
    };
    let mixed = || {
        lone();
        window(&reads);
        window(&writes);
        lone();
        window(&reads);
        lone();
    };
    let count = |name| tel.counter("server", name);
    let pool = || (count("bufpool.hits"), count("bufpool.misses"));

    for _ in 0..4 {
        window(&reads);
    }
    let (hits, misses) = pool();
    for _ in 0..16 {
        window(&reads);
    }
    assert_eq!(pool().1 - misses, 0, "a warm window missed the pool");
    // Four draws per frame: the sealed frame, its wire copy, the reply
    // and the reply-cache copy (drawn in the request's buffer).
    assert_eq!(pool().0 - hits, 16 * 8 * 4, "the window bypassed the pool");

    for _ in 0..4 {
        mixed();
    }
    let (hits, misses) = pool();
    for _ in 0..16 {
        mixed();
    }
    let (hits, misses) = (pool().0 - hits, pool().1 - misses);
    assert!(hits > 0, "the mixed steady state bypassed the pool");
    assert_eq!(
        hits as f64 / (hits + misses) as f64,
        1.0,
        "the mixed steady state missed the pool {misses} times"
    );
}

#[test]
fn cost_and_pool_counters_keep_their_totals() {
    // The CPU cost terms and the buffer pool count into whichever
    // telemetry handle their caller passes down; where that handle comes
    // from may move, what it counts may not. Totals after a mount, a
    // 64 KiB write, one blocking GETATTR and one window of eight 8 KiB
    // READs on the §4.1 cost model. Every call, a lone one included,
    // marshals its inner call straight into its envelope, and the server
    // opens every frame in the buffer it arrived in (one pool draw per
    // frame fewer than when it copied the frame out first: 48 and 70
    // hits, 7 and 25 misses).
    const COUNTERS: [(&str, &str); 7] = [
        ("client", "cpu.crossings"),
        ("client", "cpu.rpc_charges"),
        ("client", "cpu.user_copy_bytes"),
        ("server", "cpu.server_copy_bytes"),
        ("client", "cpu.crypto_bytes"),
        ("server", "bufpool.hits"),
        ("server", "bufpool.misses"),
    ];
    let tel = Telemetry::counters();
    let world = World::build(
        &WorldSpec {
            disk: None,
            ..WorldSpec::bench()
        }
        .traced(&tel),
    );
    let client = &world.clients[0];
    let file = format!("{}/bench/data", world.path().full_path());
    client
        .write_file(UID, &file, &vec![0xAB; 8 * 8192])
        .unwrap();
    let (mount, fh, _) = client.resolve(UID, &file).unwrap();
    client.set_caching(false);
    client.set_pipeline_window(8);
    let totals = || COUNTERS.map(|(proc, name)| tel.counter(proc, name));

    client.getattr(&mount, UID, &fh).unwrap();
    let after_getattr = totals();
    let reqs: Vec<Nfs3Request> = (0..8)
        .map(|i| Nfs3Request::Read {
            fh,
            offset: i * 8192,
            count: 8192,
        })
        .collect();
    assert_eq!(client.call_nfs_window(&mount, UID, &reqs).unwrap().len(), 8);
    let after_window = totals();
    assert_eq!(
        (after_getattr, after_window),
        (
            [21, 24, 67_820, 66_684, 67_820, 38, 6],
            [30, 40, 134_860, 67_484, 134_860, 52, 24]
        ),
        "{COUNTERS:?}"
    );
}

#[test]
fn rabin_private_operations_stay_allocation_lean() {
    // The two private-key operations a `connect` pays for. When every
    // modular product and every extended-Euclid step was a fresh `Nat`
    // they cost 17 320 allocations per 768-bit decrypt and 8 536 per
    // 512-bit sign; with the Montgomery ladder on the stack, 54 and 34,
    // for reducing the input by division, the CRT recombinations and OAEP
    // unpadding. Now the input enters the domain by REDC, the roots are
    // recombined and unpadded in stack buffers, and only the values
    // handed across the API are allocated.
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

    // Both tweak cases: a signature whose root mod p is multiplied by
    // the root of −2 takes no more than one that is not.
    let mut doubled = [false, false];
    for i in 0..16 {
        let msg = format!("AuthMsg {i} to sign");
        let (sig, sign_allocs) = count_allocs(|| user_key.sign(msg.as_bytes()));
        assert!(user_key.public().verify(msg.as_bytes(), &sig));
        doubled[usize::from(sig.double)] = true;
        assert!(
            sign_allocs <= RABIN_512_SIGN_ALLOC_CEILING,
            "rabin_512 sign now costs {sign_allocs} allocations \
             (ceiling {RABIN_512_SIGN_ALLOC_CEILING})"
        );
    }
    assert_eq!(doubled, [true, true], "both tweak cases signed");
}

#[test]
fn rabin_public_operations_and_the_generator_allocate_only_what_they_return() {
    // OAEP padding, the squaring and the check all run in stack buffers:
    // an encryption allocates its ciphertext and a verification nothing.
    // The FIPS 186 generator's state is a fixed 512-bit array.
    let mut rng = SfsPrg::from_entropy(b"alloc_regression");
    let server_key = keys::rabin(768, 0x51F0);
    let user_key = keys::rabin(512, 0x51F1);
    let sig = user_key.sign(b"AuthMsg to verify");
    let mut buf = [0u8; 97];
    rng.fill(&mut buf);

    let (cipher, encrypt_allocs) =
        count_allocs(|| server_key.public().encrypt(b"sixteen-byte-key", &mut rng));
    assert_eq!(
        server_key.decrypt(&cipher.unwrap()).unwrap(),
        b"sixteen-byte-key"
    );
    assert!(
        encrypt_allocs <= RABIN_768_ENCRYPT_ALLOC_CEILING,
        "rabin_768 encrypt now costs {encrypt_allocs} allocations \
         (ceiling {RABIN_768_ENCRYPT_ALLOC_CEILING})"
    );

    let (ok, verify_allocs) = count_allocs(|| user_key.public().verify(b"AuthMsg to verify", &sig));
    assert!(ok);
    assert_eq!(
        verify_allocs, 0,
        "rabin_512 verify now costs {verify_allocs} allocations"
    );

    // Draws of every length up to and past a SHA-1 block, so refills
    // land at every offset.
    let ((), fill_allocs) = count_allocs(|| {
        for len in 0..buf.len() {
            rng.fill(&mut buf[..len]);
        }
    });
    assert_eq!(
        fill_allocs, 0,
        "SfsPrg::fill now costs {fill_allocs} allocations"
    );
}

#[test]
fn a_connect_cycle_stays_allocation_lean() {
    // The cycle `sfs-benchmark connect` times: forget the mount and read
    // through a full negotiation and user authentication, then restart
    // the server and read through a ticket-resumed reconnect.
    let world = World::build(&WorldSpec {
        disk: None,
        cpu: None,
        ..WorldSpec::bench()
    });
    let client = &world.clients[0];
    let file = format!("{}/bench/hello", world.path().full_path());
    client.write_file(UID, &file, b"hello").unwrap();
    let cycle = || {
        client.unmount_all();
        assert_eq!(client.read_file(UID, &file).unwrap(), b"hello");
        world.servers[0].crash_restart();
        assert_eq!(client.read_file(UID, &file).unwrap(), b"hello");
    };
    for _ in 0..4 {
        cycle();
    }
    const CYCLES: u64 = 16;
    let hits = client.resume_stats().0;
    let ((), allocs) = count_allocs(|| (0..CYCLES).for_each(|_| cycle()));
    assert_eq!(
        client.resume_stats().0 - hits,
        CYCLES,
        "every reconnect resumed"
    );
    let per_cycle = allocs as f64 / CYCLES as f64;
    assert!(
        per_cycle <= CONNECT_CYCLE_ALLOC_CEILING,
        "a connect cycle now costs {per_cycle:.2} allocations \
         (ceiling {CONNECT_CYCLE_ALLOC_CEILING})"
    );
}
