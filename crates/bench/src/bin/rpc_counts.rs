//! The mechanism behind §4.2's caching claim: "SFS's enhanced caching
//! improves performance by reducing the number of RPCs that need to
//! travel over the network." This harness counts actual wire RPCs for the
//! MAB and LFS-small workloads across NFS, SFS, and SFS without the
//! enhanced caching.
//!
//! The counts come from the `sfs-telemetry` counter sink attached to the
//! simulated wire — the same single counting path that backs
//! `Wire::round_trips` — so the figure binaries, the summary tables, and
//! this harness can never disagree.

use sfs_bench::calib::{System, Testbed};
use sfs_bench::figures::{record, Cell, Measured};
use sfs_bench::workloads::{lfs_small, mab, MabConfig};
use sfs_bench::world::WorldSpec;
use sfs_telemetry::Telemetry;

fn counts(system: System) -> (u64, u64) {
    let tel = Telemetry::counters();
    let Testbed { fs, prefix, .. } = Testbed::build(system, &WorldSpec::bench().traced(&tel));
    mab(fs.as_ref(), prefix, &MabConfig::default());
    let mab_rpcs = tel.counter("wire", "net.round_trips");
    drop(fs);

    let tel = Telemetry::counters();
    let Testbed { fs, prefix, .. } = Testbed::build(system, &WorldSpec::bench().traced(&tel));
    lfs_small(fs.as_ref(), prefix, 1000);
    (mab_rpcs, tel.counter("wire", "net.round_trips"))
}

pub fn main() {
    println!("== Wire RPC counts (lower is better) ==\n");
    println!("  {:26} {:>10} {:>12}", "system", "MAB", "LFS small");
    let mut rows = Vec::new();
    for system in [System::NfsUdp, System::Sfs, System::SfsNoCache] {
        let (mab_rpcs, lfs_rpcs) = counts(system);
        println!("  {:26} {mab_rpcs:>10} {lfs_rpcs:>12}", system.label());
        for (column, rpcs) in [("MAB", mab_rpcs), ("LFS small", lfs_rpcs)] {
            record(Cell::of(
                "rpc_counts",
                system.label(),
                column,
                "rpcs",
                Measured::Int(rpcs),
            ));
        }
        rows.push((system, mab_rpcs, lfs_rpcs));
    }
    let nfs = rows[0];
    let sfs = rows[1];
    let nocache = rows[2];
    println!(
        "\nSFS issues {:.0}% of NFS 3's MAB RPCs (leases + callbacks replace\n\
         close-to-open GETATTR/ACCESS revalidation); disabling the enhanced\n\
         caching costs {} extra RPCs on MAB and {} on the LFS create/read/unlink\n\
         run — the RPCs whose latency the §4.3 ablations measure.",
        sfs.1 as f64 / nfs.1 as f64 * 100.0,
        nocache.1 - sfs.1,
        nocache.2 - sfs.2,
    );
}
