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
//! Results land in `BENCH_pipeline.json`. The binary asserts its own
//! envelope and exits nonzero on regression: virtual throughput must be
//! monotone non-decreasing from window 1 through 8, and window 8 must
//! be at least twice window 1. `--smoke` reads a smaller file (CI runs
//! that mode); the assertions hold there too because virtual time is
//! deterministic at any scale.
//!
//! `--faults <spec>` threads a seeded fault plan through the wire,
//! server, and disk; the perf envelope is skipped (dropped packets make
//! the window sweep non-monotone by design) but the fault envelope is
//! asserted instead — a faulted run must actually inject what its spec
//! promises.
//!
//! Usage: `cargo run --release -p sfs-bench --bin pipeline [-- --smoke] [--out PATH] [--faults SPEC]`

use std::time::Instant;

use sfs_bench::args::{Args, FaultOpt};
use sfs_bench::calib::{System, Testbed};
use sfs_bench::report::{write_artifact, Obj};
use sfs_bench::world::WorldSpec;
use sfs_sim::FaultPlan;
use sfs_telemetry::{Telemetry, ZeroClock};

/// The windows swept; 1 doubles as the blocking baseline row.
const WINDOWS: [usize; 5] = [1, 2, 4, 8, 16];

/// Sequential-read chunk size (the NFS3 READ payload of Figure 5).
const CHUNK: usize = 8192;

/// File size: full mode streams 8 MiB per window, smoke 512 KiB.
const TOTAL: usize = 8 * 1024 * 1024;
const TOTAL_SMOKE: usize = 512 * 1024;

/// Window 8 must beat the blocking baseline by at least this factor.
const REQUIRED_SPEEDUP: f64 = 2.0;

struct Row {
    window: usize,
    virtual_ns: u64,
    virtual_mb_per_s: f64,
    virtual_ns_per_read: u64,
    wall_ns_per_read: u128,
    rpcs: u64,
    final_clock_ns: u64,
}

/// One full-stack sequential read of `total` bytes with the given
/// pipeline window, on a fresh testbed sharing the run's fault plan.
fn run_window(window: usize, total: usize, tel: &Telemetry, plan: Option<&FaultPlan>) -> Row {
    let Testbed {
        fs, clock, prefix, ..
    } = Testbed::build(System::Sfs, &WorldSpec::bench().traced(tel).faulted(plan));
    fs.set_pipeline_window(window);
    let path = if prefix.is_empty() {
        "pipefile".to_string()
    } else {
        format!("{prefix}/pipefile")
    };
    fs.create(&path).expect("create");
    let block = vec![0x5Au8; 64 * 1024];
    let mut off = 0u64;
    while (off as usize) < total {
        fs.write(&path, off, &block).expect("fill");
        off += block.len() as u64;
    }
    fs.flush(&path).expect("flush");
    fs.drop_caches();
    fs.open(&path).expect("open");

    let n_reads = total / CHUNK;
    let rpcs_before = fs.rpcs();
    let t0 = clock.now();
    let wall0 = Instant::now();
    let mut off = 0u64;
    while (off as usize) < total {
        let data = fs.read(&path, off, CHUNK).expect("read");
        assert!(!data.is_empty(), "short stream at offset {off}");
        off += data.len() as u64;
    }
    let wall_ns = wall0.elapsed().as_nanos();
    let virtual_ns = clock.now().since(t0).as_nanos();
    let virtual_secs = virtual_ns as f64 / 1e9;
    Row {
        window,
        virtual_ns,
        virtual_mb_per_s: total as f64 / 1_000_000.0 / virtual_secs,
        virtual_ns_per_read: virtual_ns / n_reads as u64,
        wall_ns_per_read: wall_ns / n_reads as u128,
        rpcs: fs.rpcs() - rpcs_before,
        final_clock_ns: clock.now().as_nanos(),
    }
}

fn main() {
    let args = Args::from_env();
    args.enforce_known(&["out", "faults"], &["smoke"]);
    let smoke = std::env::args().any(|a| a == "--smoke");
    let faults = FaultOpt::from_args();
    let tel = Telemetry::recording(ZeroClock);
    let out_path = args
        .opt("out")
        .unwrap_or_else(|| "BENCH_pipeline.json".into());
    let total = if smoke { TOTAL_SMOKE } else { TOTAL };

    println!("== pipeline: sequential 8 KiB reads, window sweep ==");
    let mut rows = Vec::new();
    for window in WINDOWS {
        let row = run_window(window, total, &tel, faults.plan());
        println!(
            "  window {:>2}{}  {:>12} ns virtual   {:>8.2} MB/s   {:>8} ns/read (virtual)   {:>8} ns/read (wall)   {} RPCs",
            row.window,
            if row.window == 1 { " (blocking)" } else { "          " },
            row.virtual_ns,
            row.virtual_mb_per_s,
            row.virtual_ns_per_read,
            row.wall_ns_per_read,
            row.rpcs,
        );
        rows.push(row);
    }
    let workload = Obj::new()
        .str("kind", "sequential_read")
        .num("chunk_bytes", CHUNK)
        .num("total_bytes", total);
    let unit = Obj::new()
        .str("virtual_mb_per_s", "MB/s of virtual time")
        .str("virtual_ns_per_read", "nanoseconds")
        .str("wall_ns_per_read", "nanoseconds");
    let header = Obj::new()
        .str("schema", "sfs-bench/pipeline/v1")
        .str("mode", if smoke { "smoke" } else { "full" })
        .obj("workload", workload)
        .obj("unit", unit);
    let json_rows: Vec<Obj> = rows
        .iter()
        .map(|r| {
            Obj::new()
                .num("window", r.window)
                .num("blocking", r.window == 1)
                .num("virtual_ns", r.virtual_ns)
                .float("virtual_mb_per_s", r.virtual_mb_per_s, 3)
                .num("virtual_ns_per_read", r.virtual_ns_per_read)
                .num("wall_ns_per_read", r.wall_ns_per_read)
                .num("rpcs", r.rpcs)
        })
        .collect();
    write_artifact(&out_path, &header, "rows", &json_rows);

    // Under --faults the perf envelope does not apply (a dropped or
    // delayed packet can legitimately slow any window), but the fault
    // envelope must hold: the plan actually injected what it promised.
    let final_ns = rows.iter().map(|r| r.final_clock_ns).max().unwrap_or(0);
    faults.finish();
    faults.assert_envelope(final_ns);
    if faults.enabled() {
        println!("perf envelope skipped under --faults");
        return;
    }

    // Regression envelope. Virtual time is deterministic, so these are
    // exact checks, not statistical ones.
    let mut failed = false;
    for pair in rows.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        if b.window <= 8 && b.virtual_mb_per_s < a.virtual_mb_per_s {
            eprintln!(
                "FAIL: throughput not monotone: window {} = {:.3} MB/s < window {} = {:.3} MB/s",
                b.window, b.virtual_mb_per_s, a.window, a.virtual_mb_per_s
            );
            failed = true;
        }
    }
    let w1 = rows.iter().find(|r| r.window == 1).expect("window 1 row");
    let w8 = rows.iter().find(|r| r.window == 8).expect("window 8 row");
    let speedup = w8.virtual_mb_per_s / w1.virtual_mb_per_s;
    println!("window 8 vs blocking: {speedup:.2}x");
    if speedup < REQUIRED_SPEEDUP {
        eprintln!(
            "FAIL: window 8 must be at least {REQUIRED_SPEEDUP}x the blocking baseline, got {speedup:.2}x"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
