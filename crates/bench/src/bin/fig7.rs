//! Figure 7: compiling the GENERIC FreeBSD 3.3 kernel.
//!
//! Paper values: Local 140 s, NFS 3/UDP 178 s, NFS 3/TCP 207 s,
//! SFS 197 s. "SFS performs 16% worse (29 seconds) than NFS 3 over UDP
//! and 5% better (10 seconds) than NFS 3 over TCP."

use sfs_bench::calib::{System, Testbed};
use sfs_bench::figures::{record, Cell, Measured, SFS_VS_UDP};
use sfs_bench::report::{secs, Compared, Table};
use sfs_bench::trace::TraceOpt;
use sfs_bench::workloads::{kernel_build, KernelBuildConfig};
use sfs_bench::world::WorldSpec;

pub fn main() {
    let trace = TraceOpt::from_args();
    let cfg = KernelBuildConfig::default();
    let mut table = Table::new(
        "Figure 7: compiling the GENERIC FreeBSD 3.3 kernel",
        "s",
        &["time (s)"],
    );
    let rows: [(System, Option<f64>); 4] = [
        (System::Local, Some(140.0)),
        (System::NfsUdp, Some(178.0)),
        (System::NfsTcp, Some(207.0)),
        (System::Sfs, Some(197.0)),
    ];
    let mut times = Vec::new();
    for (system, paper) in rows {
        let tel = trace.for_system(system.label());
        let Testbed { fs, prefix, .. } = Testbed::build(system, &WorldSpec::bench().traced(&tel));
        let t = kernel_build(fs.as_ref(), prefix, &cfg);
        record(Cell::ns("fig7", system.label(), "time", t.as_nanos()));
        times.push((system, secs(t)));
        table.push_row(system.label(), vec![Compared::new(secs(t), paper)]);
    }
    let time_of = |sys: System| times.iter().find(|(s, _)| *s == sys).unwrap().1;
    record(
        Cell::of(
            "fig7",
            SFS_VS_UDP,
            "time",
            "%",
            Measured::Real((time_of(System::Sfs) / time_of(System::NfsUdp) - 1.0) * 100.0),
        )
        .claim(),
    );
    println!("{}", table.render());
    trace.finish();
}
