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
use sfs_bench::report::secs;
use sfs_bench::trace::TraceOpt;
use sfs_bench::workloads::{kernel_build, lfs_small, mab, total, KernelBuildConfig, MabConfig};
use sfs_bench::world::WorldSpec;

fn mab_total(trace: &TraceOpt, system: System) -> f64 {
    let tel = trace.for_system(&format!("mab/{}", system.label()));
    let Testbed { fs, prefix, .. } = Testbed::build(system, &WorldSpec::bench().traced(&tel));
    secs(total(&mab(fs.as_ref(), prefix, &MabConfig::default())))
}

fn main() {
    let trace = TraceOpt::from_args();
    println!("== Ablations (§4.3, §4.4) ==\n");

    let sfs = mab_total(&trace, System::Sfs);
    let nocache = mab_total(&trace, System::SfsNoCache);
    let noenc = mab_total(&trace, System::SfsNoEncrypt);
    let nfs = mab_total(&trace, System::NfsUdp);
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
    for system in [System::NfsUdp, System::Sfs, System::SfsNoCache] {
        let tel = trace.for_system(&format!("lfs/{}", system.label()));
        let Testbed { fs, prefix, .. } = Testbed::build(system, &WorldSpec::bench().traced(&tel));
        let phases = lfs_small(fs.as_ref(), prefix, 1000);
        let create = phases.iter().find(|p| p.name == "create").unwrap();
        println!("  {:26} {:6.2}", system.label(), secs(create.time));
    }
    println!("  (paper: SFS ≈ NFS; w/o attribute caching ≈ 1 s worse)");

    println!("\nKernel compile (s):");
    let cfg = KernelBuildConfig::default();
    for (system, note) in [
        (System::Sfs, ""),
        (System::SfsNoEncrypt, "(paper: 3 s / 1.5% faster than SFS)"),
    ] {
        let tel = trace.for_system(&format!("kernel/{}", system.label()));
        let Testbed { fs, prefix, .. } = Testbed::build(system, &WorldSpec::bench().traced(&tel));
        let t = kernel_build(fs.as_ref(), prefix, &cfg);
        println!("  {:26} {:6.1} {note}", system.label(), secs(t));
    }
    trace.finish();
}
