//! `pipeline`: windowed-RPC throughput sweep.
//!
//! Measures sequential-read throughput through the full SFS stack (the
//! Figure-5 cost model: Pentium III 550 costs on a switched 100 Mbit
//! wire) as a function of the client's pipeline window. Window 1 is the
//! strict blocking request/reply protocol — the pre-pipelining
//! baseline — and each larger window keeps that many sealed READs in
//! flight, so the sweep shows exactly how much latency the overlap of
//! client crypto, wire transfer, and server work hides.
//!
//! Envelope: virtual throughput is monotone non-decreasing from window
//! 1 through 8, and window 8 is at least twice window 1. `--smoke`
//! reads a smaller file; the envelope holds there too because virtual
//! time is deterministic at any scale. Under `--faults` dropped packets
//! make the sweep non-monotone by design, so the envelope is a
//! performance one.

use crate::calib::{System, Testbed};
use crate::driver::{Ctx, Report};
use crate::report::{monotone, Check, Obj};
use crate::world::WorldSpec;

/// The windows swept; 1 doubles as the blocking baseline row.
const WINDOWS: [usize; 5] = [1, 2, 4, 8, 16];

/// Sequential-read chunk size (the NFS3 READ payload of Figure 5).
const CHUNK: usize = 8192;

/// File size: full mode streams 8 MiB per window, smoke 512 KiB.
const TOTAL: usize = 8 * 1024 * 1024;
const TOTAL_SMOKE: usize = 512 * 1024;

/// Window 8 must beat the blocking baseline by at least this factor.
const REQUIRED_SPEEDUP: f64 = 2.0;

/// One full-stack sequential read of `total` bytes with the given
/// pipeline window, on a fresh testbed sharing the run's fault plan.
/// Returns the row and the final clock.
fn run_window(window: usize, total: usize, ctx: &Ctx) -> (Obj, u64) {
    let Testbed {
        fs, clock, prefix, ..
    } = Testbed::build(System::Sfs, &WorldSpec::bench().faulted(ctx.faults.plan()));
    fs.set_pipeline_window(window);
    let path = format!("{prefix}/pipefile");
    let path = path.trim_start_matches('/');
    fs.create(path).expect("create");
    let block = vec![0x5Au8; 64 * 1024];
    for off in (0..total).step_by(block.len()) {
        fs.write(path, off as u64, &block).expect("fill");
    }
    fs.flush(path).expect("flush");
    fs.drop_caches();
    fs.open(path).expect("open");

    let rpcs_before = fs.rpcs();
    let t0 = clock.now();
    let mut off = 0u64;
    while (off as usize) < total {
        let data = fs.read(path, off, CHUNK).expect("read");
        assert!(!data.is_empty(), "short stream at offset {off}");
        off += data.len() as u64;
    }
    let virtual_ns = clock.now().since(t0).as_nanos();
    let mb_per_s = total as f64 / 1_000_000.0 / (virtual_ns as f64 / 1e9);
    let row = Obj::new()
        .num("window", window)
        .num("blocking", window == 1)
        .num("virtual_ns", virtual_ns)
        .float("virtual_mb_per_s", mb_per_s, 3)
        .num("virtual_ns_per_read", virtual_ns / (total / CHUNK) as u64)
        .num("rpcs", fs.rpcs() - rpcs_before);
    (row, clock.now().as_nanos())
}

pub(crate) fn run(ctx: &Ctx) -> Result<Report, String> {
    let total = if ctx.smoke { TOTAL_SMOKE } else { TOTAL };
    let (rows, clocks): (Vec<Obj>, Vec<u64>) =
        WINDOWS.iter().map(|&w| run_window(w, total, ctx)).unzip();
    let workload = Obj::new()
        .str("kind", "sequential_read")
        .num("chunk_bytes", CHUNK)
        .num("total_bytes", total);
    let unit = Obj::new()
        .str("virtual_mb_per_s", "MB/s of virtual time")
        .str("virtual_ns_per_read", "nanoseconds");
    let header = Obj::new()
        .str("schema", "sfs-bench/pipeline/v2")
        .str("mode", ctx.mode())
        .obj("workload", workload)
        .obj("unit", unit);

    // Virtual time is deterministic, so these are exact checks, not
    // statistical ones.
    let mb_per_s = |row: &Obj| row.number("virtual_mb_per_s");
    let through_8: Vec<&Obj> = rows.iter().take(4).collect();
    let mut checks = monotone(&through_8, "window", "virtual_mb_per_s", 0.0);
    // WINDOWS[0] = 1 and WINDOWS[3] = 8.
    let speedup = mb_per_s(&rows[3]) / mb_per_s(&rows[0]);
    checks.push(Check::perf(
        format!("window 8 is at least {REQUIRED_SPEEDUP}x the blocking baseline"),
        speedup >= REQUIRED_SPEEDUP,
        format!("{speedup:.2}x"),
    ));
    Ok(Report {
        header,
        rows_key: "rows",
        rows,
        checks,
        final_ns: clocks.into_iter().max().unwrap_or(0),
        ..Report::default()
    })
}
