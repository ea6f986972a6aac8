//! Figure 5: micro-benchmarks for basic operations — RPC latency
//! (unauthorized `fchown`, µs) and sequential-read throughput (MB/s).

use sfs_bench::args::{Args, FaultOpt};
use sfs_bench::calib::{System, Testbed};
use sfs_bench::figures::{record, Cell, Measured};
use sfs_bench::report::{Compared, Table};
use sfs_bench::trace::TraceOpt;
use sfs_bench::workloads::{micro_latency, micro_throughput};
use sfs_bench::world::WorldSpec;

pub fn main() {
    let trace = TraceOpt::from_args();
    let faults = FaultOpt::from_args();
    // `--window N` overrides the client pipeline depth (default 8);
    // `--window 1` reruns the figure under the blocking protocol.
    let window: Option<usize> = Args::from_env().opt("window").map(|w| w.parse().unwrap());
    let mut table = Table::new(
        "Figure 5: micro-benchmarks for basic operations",
        "µs / MB/s",
        &["latency (µs)", "throughput (MB/s)"],
    );
    let rows: [(System, Option<f64>, Option<f64>); 4] = [
        (System::NfsUdp, Some(200.0), Some(9.3)),
        (System::NfsTcp, Some(220.0), Some(7.6)),
        (System::Sfs, Some(790.0), Some(4.1)),
        (System::SfsNoEncrypt, Some(770.0), Some(7.1)),
    ];
    let mut final_ns = 0u64;
    for (system, paper_lat, paper_tp) in rows {
        // One fresh testbed per micro-benchmark, each with its own trace.
        let bed = |what: &str| {
            let tel = trace.for_system(&format!("{}/{what}", system.label()));
            let spec = WorldSpec::bench().traced(&tel).faulted(faults.plan());
            let bed = Testbed::build(system, &spec);
            if let Some(w) = window {
                bed.fs.set_pipeline_window(w);
            }
            bed
        };
        let lat_bed = bed("latency");
        let lat = micro_latency(lat_bed.fs.as_ref(), lat_bed.prefix);
        final_ns = final_ns.max(lat_bed.clock.now().as_nanos());
        let tp_bed = bed("throughput");
        let tp = micro_throughput(tp_bed.fs.as_ref(), tp_bed.prefix);
        final_ns = final_ns.max(tp_bed.clock.now().as_nanos());
        record(Cell::of(
            "fig5",
            system.label(),
            "latency",
            "µs",
            Measured::Real(lat),
        ));
        record(Cell::of(
            "fig5",
            system.label(),
            "throughput",
            "MB/s",
            Measured::Real(tp),
        ));
        table.push_row(
            system.label(),
            vec![Compared::new(lat, paper_lat), Compared::new(tp, paper_tp)],
        );
    }
    println!("{}", table.render());
    trace.finish();
    faults.finish();
    // A faulted figure that silently ran outside its fault envelope is
    // worthless as a chaos artefact: fail loudly instead.
    faults.assert_envelope(final_ns);
}
