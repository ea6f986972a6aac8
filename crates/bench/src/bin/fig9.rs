//! Figure 9: the Sprite LFS large-file benchmark — sequential and random
//! writes/reads of a 40,000 KB file in 8 KB chunks.
//!
//! Shapes from §4.4: "On the sequential write phase, SFS is … 44% slower
//! than NFS 3 over UDP. On the sequential read phase, it is … 145%
//! slower. Without encryption, SFS is only … 17% slower on sequential
//! writes and … 31% slower on sequential reads."

use sfs_bench::calib::{System, Testbed};
use sfs_bench::figures::{record, Cell, Measured, NOENC_VS_UDP, SFS_VS_UDP};
use sfs_bench::report::{secs, Compared, Table};
use sfs_bench::trace::TraceOpt;
use sfs_bench::workloads::lfs_large;
use sfs_bench::world::WorldSpec;

pub fn main() {
    let trace = TraceOpt::from_args();
    let mut table = Table::new(
        "Figure 9: Sprite LFS large-file benchmark (40,000 KB, 8 KB chunks)",
        "s",
        &[
            "seq write",
            "seq read",
            "rand write",
            "rand read",
            "seq read 2",
        ],
    );
    let mut results = Vec::new();
    let systems = [
        System::Local,
        System::NfsUdp,
        System::NfsTcp,
        System::Sfs,
        System::SfsNoEncrypt,
    ];
    for system in systems {
        let tel = trace.for_system(system.label());
        let Testbed { fs, prefix, .. } = Testbed::build(system, &WorldSpec::bench().traced(&tel));
        let phases = lfs_large(fs.as_ref(), prefix);
        let cells: Vec<Compared> = phases
            .iter()
            .map(|p| Compared::new(secs(p.time), None))
            .collect();
        const COLUMNS: [&str; 5] = [
            "seq write",
            "seq read",
            "rand write",
            "rand read",
            "seq read 2",
        ];
        for (column, p) in COLUMNS.into_iter().zip(&phases) {
            assert_eq!(column, p.name);
            record(Cell::ns("fig9", system.label(), column, p.time.as_nanos()));
        }
        results.push((system, phases));
        table.push_row(system.label(), cells);
    }
    println!("{}", table.render());
    let phase_of = |sys: System, name: &str| {
        results
            .iter()
            .find(|(s, _)| *s == sys)
            .unwrap()
            .1
            .iter()
            .find(|p| p.name == name)
            .unwrap()
            .time
            .as_secs_f64()
    };
    for (phase, paper) in [("seq write", 44.0), ("seq read", 145.0)] {
        let pct = (phase_of(System::Sfs, phase) / phase_of(System::NfsUdp, phase) - 1.0) * 100.0;
        record(Cell::of("fig9", SFS_VS_UDP, phase, "%", Measured::Real(pct)).claim());
        println!(
            "SFS {phase} vs NFS 3 (UDP): {:+.0}% (paper: +{paper:.0}%)",
            (phase_of(System::Sfs, phase) / phase_of(System::NfsUdp, phase) - 1.0) * 100.0
        );
    }
    for (phase, paper) in [("seq write", 17.0), ("seq read", 31.0)] {
        let pct =
            (phase_of(System::SfsNoEncrypt, phase) / phase_of(System::NfsUdp, phase) - 1.0) * 100.0;
        record(Cell::of("fig9", NOENC_VS_UDP, phase, "%", Measured::Real(pct)).claim());
        println!(
            "SFS w/o encryption {phase} vs NFS 3 (UDP): {:+.0}% (paper: +{paper:.0}%)",
            (phase_of(System::SfsNoEncrypt, phase) / phase_of(System::NfsUdp, phase) - 1.0) * 100.0
        );
    }
    trace.finish();
}
