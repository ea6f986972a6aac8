//! §4.5's forward-looking claim: "We expect SFS's performance penalty to
//! decline as hardware improves. The relative performance difference of
//! SFS and NFS 3 on MAB shrunk by a factor of two when we moved from
//! 200 MHz Pentium Pros to 550 MHz Pentium IIIs. We expect this trend to
//! continue."
//!
//! This harness runs MAB on three generations of CPU (network and disk
//! held constant) and reports the SFS-over-NFS/UDP penalty at each.
//!
//! Modeling note: the *protocol-stack* CPU costs (daemon crossings,
//! crypto, RPC processing) scale with the processor generation while the
//! application's own compile time is held constant. This isolates what
//! the paper's claim is about — the protocol overhead's hardware
//! sensitivity; scaling the application CPU too would mix in the
//! workload's own speedup.

use sfs_bench::calib::{System, Testbed};
use sfs_bench::figures::{record, Cell, Measured, PIII_TO_NEXT, PPRO_TO_PIII};
use sfs_bench::report::secs;
use sfs_bench::trace::TraceOpt;
use sfs_bench::workloads::{mab, total, MabConfig};
use sfs_bench::world::WorldSpec;
use sfs_sim::CpuCosts;

fn mab_total(trace: &TraceOpt, name: &'static str, system: System, cpu: CpuCosts) -> f64 {
    let tel = trace.for_system(&format!("{name}/{}", system.label()));
    let Testbed { fs, prefix, .. } = Testbed::build(
        system,
        &WorldSpec {
            cpu: Some(cpu),
            ..WorldSpec::bench().traced(&tel)
        },
    );
    let t = total(&mab(fs.as_ref(), prefix, &MabConfig::default()));
    record(Cell::ns(
        "hardware_trend",
        name,
        system.label(),
        t.as_nanos(),
    ));
    secs(t)
}

pub fn main() {
    let trace = TraceOpt::from_args();
    println!("== §4.5 hardware trend: MAB penalty of SFS vs NFS 3 (UDP) ==\n");
    let generations: [(&'static str, CpuCosts); 3] = [
        ("Pentium Pro 200", CpuCosts::pentium_pro_200()),
        ("Pentium III 550", CpuCosts::pentium_iii_550()),
        (
            "hypothetical 2x PIII",
            CpuCosts::pentium_iii_550().scaled(0.5),
        ),
    ];
    let mut penalties = Vec::new();
    for (name, cpu) in generations {
        let nfs = mab_total(&trace, name, System::NfsUdp, cpu);
        let sfs = mab_total(&trace, name, System::Sfs, cpu);
        let penalty = (sfs / nfs - 1.0) * 100.0;
        record(Cell::of(
            "hardware_trend",
            name,
            "penalty",
            "%",
            Measured::Real(penalty),
        ));
        penalties.push(penalty);
        println!("  {name:22} NFS/UDP {nfs:6.2}s   SFS {sfs:6.2}s   penalty {penalty:+5.1}%");
    }
    for (row, ratio) in [
        (PPRO_TO_PIII, penalties[0] / penalties[1]),
        (PIII_TO_NEXT, penalties[1] / penalties[2]),
    ] {
        record(
            Cell::of(
                "hardware_trend",
                row,
                "penalty ratio",
                "x",
                Measured::Real(ratio),
            )
            .claim(),
        );
    }
    println!(
        "\nPPro→PIII penalty ratio: {:.2}x (paper: \"shrunk by a factor of two\")",
        penalties[0] / penalties[1]
    );
    println!(
        "PIII→2x penalty ratio:   {:.2}x (\"we expect this trend to continue\")",
        penalties[1] / penalties[2]
    );
}
