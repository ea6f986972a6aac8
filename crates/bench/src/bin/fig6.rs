//! Figure 6: the Modified Andrew Benchmark — wall-clock execution time per
//! phase on Local, NFS 3 (UDP), NFS 3 (TCP), and SFS.
//!
//! Headline shape from §4.3: "SFS is only 11% (0.6 seconds) slower than
//! NFS 3 over UDP."

use sfs_bench::args::{Args, FaultOpt};
use sfs_bench::calib::{System, Testbed};
use sfs_bench::figures::{record, Cell, Measured, SFS_VS_UDP};
use sfs_bench::report::{secs, Compared, Table};
use sfs_bench::trace::TraceOpt;
use sfs_bench::workloads::{mab, total, MabConfig};
use sfs_bench::world::WorldSpec;

pub fn main() {
    let trace = TraceOpt::from_args();
    let faults = FaultOpt::from_args();
    // `--window N` overrides the client pipeline depth (default 8);
    // `--window 1` reruns the figure under the blocking protocol.
    let window: Option<usize> = Args::from_env().opt("window").map(|w| w.parse().unwrap());
    let cfg = MabConfig::default();
    let mut table = Table::new(
        "Figure 6: Modified Andrew Benchmark phases",
        "s",
        &[
            "directories",
            "copy",
            "attributes",
            "search",
            "compile",
            "total",
        ],
    );
    // The paper presents Figure 6 as a bar chart; the quantified anchors
    // in the text are the NFS/UDP-vs-SFS total gap (11%, 0.6 s ⇒ totals
    // ≈5.4 s and ≈6.0 s).
    let paper_total: [(System, Option<f64>); 4] = [
        (System::Local, None),
        (System::NfsUdp, Some(5.4)),
        (System::NfsTcp, None),
        (System::Sfs, Some(6.0)),
    ];
    let mut totals = Vec::new();
    let mut final_ns = 0u64;
    for (system, paper) in paper_total {
        let tel = trace.for_system(system.label());
        let spec = WorldSpec::bench().traced(&tel).faulted(faults.plan());
        let Testbed {
            fs, clock, prefix, ..
        } = Testbed::build(system, &spec);
        if let Some(w) = window {
            fs.set_pipeline_window(w);
        }
        let phases = mab(fs.as_ref(), prefix, &cfg);
        final_ns = final_ns.max(clock.now().as_nanos());
        let mut cells: Vec<Compared> = phases
            .iter()
            .map(|p| Compared::new(secs(p.time), None))
            .collect();
        const COLUMNS: [&str; 5] = ["directories", "copy", "attributes", "search", "compile"];
        for (column, p) in COLUMNS.into_iter().zip(&phases) {
            assert_eq!(column, p.name);
            record(Cell::ns("fig6", system.label(), column, p.time.as_nanos()));
        }
        record(Cell::ns(
            "fig6",
            system.label(),
            "total",
            total(&phases).as_nanos(),
        ));
        let tot = secs(total(&phases));
        cells.push(Compared::new(tot, paper));
        totals.push((system, tot));
        table.push_row(system.label(), cells);
    }
    println!("{}", table.render());
    let nfs_udp = totals.iter().find(|(s, _)| *s == System::NfsUdp).unwrap().1;
    let sfs = totals.iter().find(|(s, _)| *s == System::Sfs).unwrap().1;
    record(
        Cell::of(
            "fig6",
            SFS_VS_UDP,
            "total",
            "%",
            Measured::Real((sfs / nfs_udp - 1.0) * 100.0),
        )
        .claim(),
    );
    println!(
        "SFS vs NFS 3 (UDP) total: {:+.1}% (paper: +11%)",
        (sfs / nfs_udp - 1.0) * 100.0
    );
    trace.finish();
    faults.finish();
    // A faulted figure that silently ran outside its fault envelope is
    // worthless as a chaos artefact: fail loudly instead.
    faults.assert_envelope(final_ns);
}
