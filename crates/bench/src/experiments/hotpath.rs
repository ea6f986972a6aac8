//! `hotpath`: the per-RPC data-path baseline.
//!
//! Measures the layers every sealed NFS3 RPC crosses — XDR encode,
//! secure-channel seal/open, and the full client↔server relay — and
//! reports three numbers per stage and payload size: wall-clock ns per
//! operation, throughput in MiB/s, and (the regression-proof one)
//! allocations per operation under the binary's counting allocator.
//!
//! `--smoke` runs a few iterations and asserts only exact quantities:
//! the relay's allocation ceilings. The ChaCha-over-ARC4 speedup floor
//! is a wall-clock claim, asserted in full mode only, where
//! [`microbench::bench`]'s calibrated loops back it.

use sfs_nfs3::proto::{Nfs3Reply, Nfs3Request};

use crate::alloc_count::count_allocs;
use crate::calib::BENCH_UID;
use crate::driver::{Ctx, Report};
use crate::microbench::{
    self, micro_stages, relay_rig, Stage, PAYLOAD_SIZES, RELAY_GETATTR_ALLOC_CEILING,
    RELAY_READ_ALLOC_CEILING,
};
use crate::report::{Check, Obj};

/// Iterations for allocation counting (exact, so few are enough).
const ALLOC_ITERS: u64 = 64;
const ALLOC_ITERS_SMOKE: u64 = 16;

/// The negotiated AEAD fast path must beat the paper-baseline
/// ARC4+SHA-1 channel by at least this factor on the 8 KiB seal+open
/// round trip. The floor follows the Poly1305 tier the CPU dispatches
/// to: with the AVX-512 IFMA vector MAC the round trip measures 7.7x
/// the baseline (floor = that less 20 %); a host without it runs the
/// scalar MAC, which measured 4.2x.
fn chacha_min_speedup() -> f64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512ifma") {
        return 6.0;
    }
    3.0
}

struct Micro {
    name: &'static str,
    payload: usize,
    ns_per_op: u128,
    allocs_per_op: f64,
}

fn measure(stage: Stage, smoke: bool) -> Micro {
    let Stage {
        name,
        payload,
        op: mut f,
    } = stage;
    for _ in 0..8 {
        f(); // warm buffers, caches, and freelists out of the measurement
    }
    let iters = if smoke {
        ALLOC_ITERS_SMOKE
    } else {
        ALLOC_ITERS
    };
    let ((), allocs) = count_allocs(|| (0..iters).for_each(|_| f()));
    let ns_per_op = if smoke {
        // No timing claim in smoke mode: one pass fills the column.
        let t0 = std::time::Instant::now();
        (0..8).for_each(|_| f());
        t0.elapsed().as_nanos() / 8
    } else {
        microbench::bench(&format!("{name}/{payload}B"), &mut f)
    };
    Micro {
        name,
        payload,
        ns_per_op: ns_per_op.max(1),
        allocs_per_op: allocs as f64 / iters as f64,
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut stages = micro_stages();
    let rig = std::rc::Rc::new(relay_rig(None, *PAYLOAD_SIZES.last().unwrap()));
    let world = rig.clone();
    let getattr = move || {
        let attr = world
            .client
            .getattr(&world.mount, BENCH_UID, &world.data_fh)
            .expect("getattr");
        std::hint::black_box(attr.size);
    };
    stages.push(Stage {
        name: "relay_getattr",
        payload: 8,
        op: Box::new(getattr),
    });
    for n in PAYLOAD_SIZES {
        let world = rig.clone();
        let read = move || {
            let read = Nfs3Request::Read {
                fh: world.data_fh.clone(),
                offset: 0,
                count: n as u32,
            };
            match world.client.call_nfs(&world.mount, BENCH_UID, &read) {
                Ok(Nfs3Reply::Read { data, .. }) => assert_eq!(data.len(), n),
                other => panic!("unexpected reply {other:?}"),
            }
        };
        stages.push(Stage {
            name: "relay_read",
            payload: n,
            op: Box::new(read),
        });
    }
    let micros: Vec<Micro> = stages.into_iter().map(|s| measure(s, ctx.smoke)).collect();

    let unit = Obj::new()
        .str("ns_per_op", "nanoseconds")
        .str("mib_per_s", "MiB/s")
        .str("allocs_per_op", "heap allocations");
    let header = Obj::new()
        .str("schema", "sfs-bench/hotpath/v1")
        .str("mode", ctx.mode())
        .obj("unit", unit);
    let rows = micros
        .iter()
        .map(|m| {
            let mib_per_s = m.payload as f64 * 1e9 / m.ns_per_op as f64 / (1024.0 * 1024.0);
            Obj::new()
                .str("name", m.name)
                .num("payload_bytes", m.payload)
                .num("ns_per_op", m.ns_per_op)
                .float("mib_per_s", mib_per_s, 2)
                .float("allocs_per_op", m.allocs_per_op, 3)
        })
        .collect();

    // Allocation counts are exact, so the ceilings hold in smoke mode too.
    let mut checks: Vec<Check> = micros
        .iter()
        .filter_map(|m| {
            let ceiling = match m.name {
                "relay_getattr" => RELAY_GETATTR_ALLOC_CEILING,
                "relay_read" => RELAY_READ_ALLOC_CEILING,
                _ => return None,
            };
            Some(Check::invariant(
                format!("{}/{}B stays under {ceiling} allocs/op", m.name, m.payload),
                m.allocs_per_op <= ceiling,
                format!("{:.2} allocs/op", m.allocs_per_op),
            ))
        })
        .collect();
    if !ctx.smoke {
        let roundtrip_ns = |name: &str| {
            let m = micros.iter().find(|m| m.name == name && m.payload == 8192);
            m.expect("8 KiB roundtrip measured").ns_per_op as f64
        };
        let speedup =
            roundtrip_ns("seal_open_roundtrip") / roundtrip_ns("chacha_seal_open_roundtrip");
        let floor = chacha_min_speedup();
        checks.push(Check::invariant(
            format!("chacha20-poly1305 8 KiB seal+open is at least {floor}x arc4-sha1"),
            speedup >= floor,
            format!("{speedup:.2}x"),
        ));
    }
    Ok(Report {
        header,
        rows_key: "benches",
        rows,
        checks,
        ..Report::default()
    })
}
