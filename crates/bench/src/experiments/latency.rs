//! `latency_table`: the per-procedure latency breakdown.
//!
//! Runs the Modified Andrew Benchmark on each of the paper's four systems
//! with the tracing sink attached, then renders the NFS3 servers'
//! service-time histograms as one table per system — where GETATTR storms
//! and synchronous WRITEs spend their time (§4.2–§4.3). Options:
//!
//! - `--trace <path>`: also write the full Chrome trace JSON;
//! - `--faults <spec>`: thread a seeded fault plan through every layer,
//!   showing the breakdown under a degraded network;
//! - `--window N`: override the client pipeline depth (default 8);
//!   `--window 1` shows the breakdown under the blocking protocol;
//! - `--cores N`: install the multi-core shard engine on the SFS
//!   server, so the table (and any `--trace` dump) also carries the
//!   per-shard `server.shard.*` / `server.disk.batch_size` series.

use sfs_telemetry::{Telemetry, ZeroClock};

use crate::calib::{System, Testbed};
use crate::driver::{Ctx, Report};
use crate::report::latency_table;
use crate::workloads::{mab, MabConfig};
use crate::world::WorldSpec;

pub(crate) fn run(ctx: &Ctx) -> Result<Report, String> {
    let window = ctx.args.number("window")?;
    let cores = ctx.args.number("cores")?;
    // The table needs histograms whether or not `--trace` asked for the
    // JSON dump, so fall back to a standalone recording sink.
    let tel = if ctx.trace.enabled() {
        ctx.trace.telemetry().clone()
    } else {
        Telemetry::recording(ZeroClock)
    };
    let mut final_ns = 0u64;
    for system in System::main_four() {
        let scoped = tel.scoped(system.label());
        let spec = WorldSpec {
            cores,
            ..WorldSpec::bench()
                .traced(&scoped)
                .faulted(ctx.faults.plan())
        };
        let bed = Testbed::build(system, &spec);
        let (fs, prefix) = (bed.fs, bed.prefix);
        if let Some(w) = window {
            fs.set_pipeline_window(w);
        }
        let _ = mab(fs.as_ref(), prefix, &MabConfig::default());
        if let Some(engine) = bed.shard_engine {
            // The MAB's files are small enough that every RPC degenerates
            // to a single-frame (blocking) exchange, which never consults
            // the shard engine. Stream one large file through the
            // write-behind queue so the table actually has per-shard
            // series to show.
            let p = format!("{prefix}/shard-stream");
            fs.create(&p).expect("create shard-stream");
            let chunk: Vec<u8> = (0..32_768u32).map(|i| (i % 249) as u8).collect();
            for i in 0..8u64 {
                fs.write(&p, i * 32_768, &chunk)
                    .expect("write shard-stream");
            }
            fs.flush(&p).expect("flush shard-stream");
            // `--window 1` forces the blocking protocol, which never
            // consults the engine — only multi-frame windows dispatch.
            if window.is_none_or(|w| w > 1) {
                assert!(
                    engine.frames_scheduled() > 0,
                    "--cores was given but no frame ever reached the shard engine"
                );
            }
            engine.finish(&scoped);
        }
        final_ns = final_ns.max(bed.clock.now().as_nanos());
    }
    Ok(Report {
        text: format!("{}\n", latency_table(&tel)),
        final_ns,
        ..Report::default()
    })
}
