//! §4.3's ablation experiments:
//!
//! - "Without enhanced caching, MAB takes a total of 6.6 seconds, 0.7
//!   seconds slower than with caching and 1.3 seconds slower than NFS 3
//!   over UDP."
//! - "We disabled encryption in SFS and observed only an 0.2 second
//!   performance improvement [on MAB]."
//! - "Disabling software encryption in SFS sped up the \[kernel\] compile
//!   by only 3 seconds or 1.5%."
//! - (Figure 8) "without attribute caching SFS performs 1 second worse
//!   [than NFS 3 on the LFS create phase]."

use sfs_bench::calib::{System, Testbed};
use sfs_bench::figures::{record, Cell, NOCACHE_VS_SFS, SFS_VS_NOENC};
use sfs_bench::report::secs;
use sfs_bench::trace::TraceOpt;
use sfs_bench::workloads::{kernel_build, lfs_small, mab, total, KernelBuildConfig, MabConfig};
use sfs_bench::world::WorldSpec;

fn mab_total(trace: &TraceOpt, system: System) -> f64 {
    let tel = trace.for_system(&format!("mab/{}", system.label()));
    let Testbed { fs, prefix, .. } = Testbed::build(system, &WorldSpec::bench().traced(&tel));
    let t = total(&mab(fs.as_ref(), prefix, &MabConfig::default()));
    record(Cell::ns(
        "ablations",
        system.label(),
        "MAB total",
        t.as_nanos(),
    ));
    secs(t)
}

/// A difference of two recorded totals, in nanoseconds.
fn delta(row: &'static str, column: &'static str, a: f64, b: f64) {
    let ns = ((a - b) * 1e9).round() as u64;
    record(Cell::ns("ablations", row, column, ns).claim());
}

pub fn main() {
    let trace = TraceOpt::from_args();
    println!("== Ablations (§4.3, §4.4) ==\n");

    let nfs = mab_total(&trace, System::NfsUdp);
    let sfs = mab_total(&trace, System::Sfs);
    let nocache = mab_total(&trace, System::SfsNoCache);
    let noenc = mab_total(&trace, System::SfsNoEncrypt);
    delta(NOCACHE_VS_SFS, "MAB total", nocache, sfs);
    delta(SFS_VS_NOENC, "MAB total", sfs, noenc);
    println!("MAB totals (s):");
    println!("  NFS 3 (UDP)                {nfs:6.2}");
    println!("  SFS                        {sfs:6.2}");
    println!(
        "  SFS w/o enhanced caching   {nocache:6.2}   (paper: 6.6; +{:.1}s over SFS, paper +0.7)",
        nocache - sfs
    );
    println!(
        "  SFS w/o encryption         {noenc:6.2}   (paper: SFS −0.2; measured −{:.1}s)",
        sfs - noenc
    );

    println!("\nLFS small-file create phase (s):");
    let mut creates = Vec::new();
    for system in [System::NfsUdp, System::Sfs, System::SfsNoCache] {
        let tel = trace.for_system(&format!("lfs/{}", system.label()));
        let Testbed { fs, prefix, .. } = Testbed::build(system, &WorldSpec::bench().traced(&tel));
        let phases = lfs_small(fs.as_ref(), prefix, 1000);
        let create = phases.iter().find(|p| p.name == "create").unwrap();
        record(Cell::ns(
            "ablations",
            system.label(),
            "LFS create",
            create.time.as_nanos(),
        ));
        creates.push(secs(create.time));
        println!("  {:26} {:6.2}", system.label(), secs(create.time));
    }
    delta(NOCACHE_VS_SFS, "LFS create", creates[2], creates[1]);
    println!("  (paper: SFS ≈ NFS; w/o attribute caching ≈ 1 s worse)");

    println!("\nKernel compile (s):");
    let cfg = KernelBuildConfig::default();
    let mut builds = Vec::new();
    for (system, note) in [
        (System::Sfs, ""),
        (System::SfsNoEncrypt, "(paper: 3 s / 1.5% faster than SFS)"),
    ] {
        let tel = trace.for_system(&format!("kernel/{}", system.label()));
        let Testbed { fs, prefix, .. } = Testbed::build(system, &WorldSpec::bench().traced(&tel));
        let t = kernel_build(fs.as_ref(), prefix, &cfg);
        record(Cell::ns(
            "ablations",
            system.label(),
            "kernel build",
            t.as_nanos(),
        ));
        builds.push(secs(t));
        println!("  {:26} {:6.1} {note}", system.label(), secs(t));
    }
    delta(SFS_VS_NOENC, "kernel build", builds[0], builds[1]);
    trace.finish();
}
