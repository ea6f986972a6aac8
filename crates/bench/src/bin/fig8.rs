//! Figure 8: the Sprite LFS small-file benchmark — create, read, and
//! unlink 1,000 1 KB files.
//!
//! Shapes from §4.4: "On the create phase, SFS performs about the same as
//! NFS 3 over UDP … On the read phase, SFS is 3 times slower than NFS 3
//! over UDP … The unlink phase is almost completely dominated by
//! synchronous writes to the disk \[so\] all file systems have roughly the
//! same performance."

use sfs_bench::calib::{System, Testbed};
use sfs_bench::figures::{record, Cell, Measured, SFS_VS_UDP};
use sfs_bench::report::{secs, Compared, Table};
use sfs_bench::trace::TraceOpt;
use sfs_bench::workloads::lfs_small;
use sfs_bench::world::WorldSpec;

pub fn main() {
    let trace = TraceOpt::from_args();
    let mut table = Table::new(
        "Figure 8: Sprite LFS small-file benchmark (1,000 × 1 KB)",
        "s",
        &["create", "read", "unlink"],
    );
    let mut results = Vec::new();
    for system in System::main_four() {
        let tel = trace.for_system(system.label());
        let Testbed { fs, prefix, .. } = Testbed::build(system, &WorldSpec::bench().traced(&tel));
        let phases = lfs_small(fs.as_ref(), prefix, 1000);
        let cells: Vec<Compared> = phases
            .iter()
            .map(|p| Compared::new(secs(p.time), None))
            .collect();
        for (column, p) in ["create", "read", "unlink"].into_iter().zip(&phases) {
            assert_eq!(column, p.name);
            record(Cell::ns("fig8", system.label(), column, p.time.as_nanos()));
        }
        results.push((system, phases));
        table.push_row(system.label(), cells);
    }
    println!("{}", table.render());
    let read_of = |sys: System| {
        results
            .iter()
            .find(|(s, _)| *s == sys)
            .unwrap()
            .1
            .iter()
            .find(|p| p.name == "read")
            .unwrap()
            .time
            .as_secs_f64()
    };
    record(
        Cell::of(
            "fig8",
            SFS_VS_UDP,
            "read",
            "x",
            Measured::Real(read_of(System::Sfs) / read_of(System::NfsUdp)),
        )
        .claim(),
    );
    println!(
        "SFS read phase vs NFS 3 (UDP): {:.1}x (paper: ~3x)",
        read_of(System::Sfs) / read_of(System::NfsUdp)
    );
    trace.finish();
}
