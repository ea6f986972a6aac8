//! The telemetry subsystem's two core promises, checked end to end over
//! the full SFS stack (client, agent, secure channel, server, NFS3
//! engine, wire, disk):
//!
//! 1. **Determinism** — two identical virtual-time runs produce
//!    byte-identical Chrome trace output.
//! 2. **Zero perturbation** — tracing never advances the virtual clock,
//!    so results with tracing on and off are identical.

use sfs_bench::calib::{System, Testbed};
use sfs_bench::workloads::{mab, total, MabConfig};
use sfs_bench::world::WorldSpec;
use sfs_telemetry::{Telemetry, ZeroClock};

fn small_mab() -> MabConfig {
    MabConfig {
        dirs: 4,
        files: 12,
        mean_file_size: 2000,
        compile_cpu_ns: 1_000_000,
        stat_passes: 2,
    }
}

/// One traced MAB run over the full SFS stack; returns the final virtual
/// time and the rendered trace.
fn traced_run(system: System) -> (u64, String) {
    let tel = Telemetry::recording(ZeroClock);
    let Testbed {
        fs, clock, prefix, ..
    } = Testbed::build(system, &WorldSpec::bench().traced(&tel));
    mab(fs.as_ref(), prefix, &small_mab());
    (clock.now().as_nanos(), tel.chrome_trace())
}

#[test]
fn identical_runs_give_byte_identical_traces() {
    let (t1, trace1) = traced_run(System::Sfs);
    let (t2, trace2) = traced_run(System::Sfs);
    assert_eq!(t1, t2, "virtual times diverged");
    assert_eq!(trace1, trace2, "traces diverged");
    // And the trace is not trivially empty: it must contain spans or
    // counters from all four corners of the stack.
    for needle in [
        "sim.net",
        "sim.disk",
        "nfs3",
        "channel.msgs_sealed",
        "cache.",
    ] {
        assert!(trace1.contains(needle), "trace missing {needle}");
    }
}

#[test]
fn tracing_does_not_perturb_virtual_time() {
    for system in [System::NfsUdp, System::Sfs] {
        let Testbed {
            fs, clock, prefix, ..
        } = Testbed::build(system, &WorldSpec::bench());
        let untraced = total(&mab(fs.as_ref(), prefix, &small_mab()));
        let _ = (fs, clock);

        let (traced_ns, _) = traced_run(system);
        // The traced run's end time includes exactly the same charges.
        let Testbed {
            fs: fs2,
            clock: clock2,
            prefix: prefix2,
            ..
        } = Testbed::build(system, &WorldSpec::bench());
        mab(fs2.as_ref(), prefix2, &small_mab());
        assert_eq!(
            clock2.now().as_nanos(),
            traced_ns,
            "{system:?}: tracing perturbed the clock"
        );
        assert!(untraced.as_nanos() > 0);
    }
}
