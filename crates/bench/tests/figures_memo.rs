//! The figure memo builds each distinct world once, and a run carries
//! its wire RPC count. One test, in its own process: it reads the
//! process-wide `Testbed::build` counter.

use sfs_bench::calib::{System, Testbed};
use sfs_bench::figures::{cells, Memo, Workload};
use sfs_bench::trace::TraceOpt;
use sfs_sim::CpuCosts;

#[test]
fn asking_twice_builds_one_world_and_runs_carry_their_rpc_counts() {
    let trace = TraceOpt::with_path(None);
    let piii = CpuCosts::pentium_iii_550();
    let memo = Memo::new(piii, None, &trace, None);
    let before = Testbed::builds();
    let first = memo.run(System::Sfs, Workload::Mab);
    let again = memo.run_on(System::Sfs, Workload::Mab, piii);
    assert!(std::rc::Rc::ptr_eq(&first, &again));
    assert_eq!(Testbed::builds() - before, 1);
    // A different CPU generation is a different world.
    memo.run_on(System::Sfs, Workload::Mab, piii.scaled(0.5));
    assert_eq!(Testbed::builds() - before, 2);

    // The §4.2 counts, read off the memoised runs (the parent's
    // `rpc_counts` binary counted the same round trips through a
    // telemetry sink on worlds built for the purpose).
    let rpcs = |system, workload| memo.run(system, workload).rpcs;
    for (system, mab, lfs_small) in [
        (System::NfsUdp, 919, 7_004),
        (System::Sfs, 714, 6_009),
        (System::SfsNoCache, 1_495, 9_010),
    ] {
        assert_eq!(rpcs(system, Workload::Mab), mab, "{system:?} MAB");
        assert_eq!(
            rpcs(system, Workload::LfsSmall),
            lfs_small,
            "{system:?} LFS small"
        );
    }
    // Figure 6, Figure 8 and the counts now share those worlds: only the
    // Local and NFS/TCP runs of each workload are new.
    let built = Testbed::builds();
    for figure in ["rpc_counts", "fig6", "fig8"] {
        cells(figure, &memo);
    }
    assert_eq!(Testbed::builds() - built, 4);
}
