//! `hotpath`: the per-RPC data-path baseline.
//!
//! Measures the layers every sealed NFS3 RPC crosses — XDR encode,
//! secure-channel seal/open, and the full client↔server relay — and
//! reports three numbers per stage and payload size: wall-clock ns per
//! operation, throughput in MiB/s, and (the regression-proof one)
//! allocations per operation under the binary's counting allocator.
//!
//! `--smoke` runs a few iterations and asserts only exact quantities:
//! the relay's allocation ceilings. The AEAD's glue bound is a wall-clock
//! claim, asserted in full mode only, where
//! [`microbench::bench_rounds`]' side-by-side loops back it.

use sfs_nfs3::proto::{Nfs3Reply, Nfs3Request};

use crate::alloc_count::count_allocs;
use crate::calib::BENCH_UID;
use crate::driver::{Ctx, Report};
use crate::microbench::{
    self, micro_stages, relay_rig, Stage, PAYLOAD_SIZES, RELAY_GETATTR_ALLOC_CEILING,
    RELAY_READ_ALLOC_CEILING,
};
use crate::report::{Check, Obj};

/// Full mode's timed passes per stage ([`microbench::bench_rounds`]).
const ROUNDS: u32 = 5;

/// Iterations for allocation counting (exact, so few are enough).
const ALLOC_ITERS: u64 = 64;
const ALLOC_ITERS_SMOKE: u64 = 16;

/// Full mode's one wall check: the negotiated AEAD's 8 KiB seal+open
/// round trip over the two kernels it runs at that size, `chacha20` +
/// `poly1305`, all three rows measured side by side in one run on the one
/// SIMD tier the host dispatches to, so the host's speed divides out and
/// what is left is the AEAD's glue. Each kernel runs once to seal and
/// once to open, so no glue reads 2. Rows timed by the old one-window
/// estimator read 2.28 (as committed) and 2.30–2.56 (four runs); twenty
/// runs of [`microbench::bench_rounds`] read 2.24–2.45, all on an AVX-512
/// IFMA host. The bound sits above all of them. A build whose glue adds
/// 20 % to the round trip read 2.82–3.20 over ten runs and failed every
/// one. A slower kernel moves both sides, so only alternating runs
/// against the parent see it.
const CHACHA_GLUE_MAX_RATIO: f64 = 2.6;

struct Micro {
    name: &'static str,
    payload: usize,
    ns_per_op: u128,
    allocs_per_op: f64,
}

/// Allocations per operation of every stage, counted exactly, then its
/// wall time: one pass of eight in smoke mode, full mode's side-by-side
/// rounds ([`microbench::bench_rounds`]) otherwise.
fn measure(stages: Vec<Stage>, smoke: bool) -> Vec<Micro> {
    let iters = if smoke {
        ALLOC_ITERS_SMOKE
    } else {
        ALLOC_ITERS
    };
    let (mut micros, mut ops) = (Vec::new(), Vec::new());
    for stage in stages {
        let (name, payload, mut op) = (stage.name, stage.payload, stage.op);
        for _ in 0..8 {
            op(); // warm buffers, caches, and freelists out of the measurement
        }
        let ((), allocs) = count_allocs(|| (0..iters).for_each(|_| op()));
        let allocs_per_op = allocs as f64 / iters as f64;
        micros.push(Micro {
            name,
            payload,
            ns_per_op: 0,
            allocs_per_op,
        });
        ops.push(op);
    }
    let ns = if smoke {
        // No timing claim in smoke mode: one pass fills the column.
        let pass = |f: &mut Box<dyn FnMut()>| {
            let t0 = std::time::Instant::now();
            (0..8).for_each(|_| f());
            t0.elapsed().as_nanos() / 8
        };
        ops.iter_mut().map(pass).collect()
    } else {
        let names: Vec<String> = micros
            .iter()
            .map(|m| format!("{}/{}B", m.name, m.payload))
            .collect();
        microbench::bench_rounds(&names, &mut ops, ROUNDS)
    };
    for (m, ns) in micros.iter_mut().zip(ns) {
        m.ns_per_op = ns.max(1);
    }
    micros
}

pub(crate) fn run(ctx: &Ctx) -> Result<Report, String> {
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
                fh: world.data_fh,
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
    let micros = measure(stages, ctx.smoke);

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
                format!(
                    "{}/{}B allocates at most {ceiling} times per op",
                    m.name, m.payload
                ),
                m.allocs_per_op <= ceiling,
                format!("{:.2} allocs/op", m.allocs_per_op),
            ))
        })
        .collect();
    if !ctx.smoke {
        let ns_8k = |name: &str| {
            let m = micros.iter().find(|m| m.name == name && m.payload == 8192);
            m.expect("8 KiB row measured").ns_per_op as f64
        };
        let chacha = ns_8k("chacha_seal_open_roundtrip");
        let kernels = ns_8k("chacha20") + ns_8k("poly1305");
        checks.push(Check::invariant(
            format!(
                "chacha20-poly1305 8 KiB seal+open costs at most {CHACHA_GLUE_MAX_RATIO}x \
                 its two kernels at 8 KiB (chacha20 + poly1305, same run)"
            ),
            chacha <= CHACHA_GLUE_MAX_RATIO * kernels,
            format!("{chacha} ns / {kernels} ns = {:.2}x", chacha / kernels),
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
