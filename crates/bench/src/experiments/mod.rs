//! The experiment table: everything `sfs-bench` can run.

use sfs_proto::channel::SuiteId;

use crate::driver::{Ctx, Experiment, Report};
use crate::figures;

mod failover;
mod fanout;
mod hotpath;
mod latency;
mod pipeline;
mod resume;
mod scale;
mod scenarios;

/// `--suite`, defaulting to the negotiated AEAD fast path.
fn suite(ctx: &Ctx) -> Result<SuiteId, String> {
    let fast = SuiteId::ChaCha20Poly1305.label();
    let label = ctx.args.opt("suite").unwrap_or_else(|| fast.into());
    SuiteId::parse(&label)
        .ok_or_else(|| format!("--suite: unknown suite {label:?} (arc4-sha1 | chacha20-poly1305)"))
}

/// An experiment behind a committed artifact: CI-sized under `--smoke`,
/// written to `--out` (among its `valued` options) or `artifact`, and —
/// all but `hotpath` run in virtual time — run twice and compared.
const fn artifact(
    name: &'static str,
    about: &'static str,
    valued: &'static [&'static str],
    artifact: &'static str,
    run: fn(&Ctx) -> Result<Report, String>,
) -> Experiment {
    Experiment {
        name,
        about,
        valued,
        boolean: &["smoke"],
        selects: &[],
        artifact: Some(artifact),
        rerun: true,
        run,
    }
}

/// Every experiment, in the order `sfs-bench all` runs those it covers.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "figures",
        about: "Figures 5-9, the §4.3-4.5 ablations and trend, the §4.2 RPC counts",
        valued: &["trace", "faults", "window"],
        boolean: &[],
        selects: &[
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "ablations",
            "hardware_trend",
            "rpc_counts",
        ],
        artifact: Some("BENCH_figures.json"),
        rerun: false,
        run: figures::run,
    },
    Experiment {
        name: "latency_table",
        about: "per-procedure NFS3 latency breakdown of the MAB on the four systems",
        valued: &["trace", "faults", "window", "cores"],
        boolean: &[],
        selects: &[],
        artifact: None,
        rerun: false,
        run: latency::run,
    },
    Experiment {
        rerun: false,
        ..artifact(
            "hotpath",
            "wall-clock ns and allocations per operation of every layer a sealed RPC crosses",
            &["out"],
            "BENCH_hotpath.json",
            hotpath::run,
        )
    },
    artifact(
        "pipeline",
        "sequential 8 KiB reads, client window sweep",
        &["out", "faults"],
        "BENCH_pipeline.json",
        pipeline::run,
    ),
    artifact(
        "fanout",
        "verified read throughput over read-only replica count",
        &["out", "faults"],
        "BENCH_fanout.json",
        fanout::run,
    ),
    artifact(
        "failover",
        "primary-crash recovery time and the cold-start stampede",
        &["out", "faults"],
        "BENCH_failover.json",
        failover::run,
    ),
    artifact(
        "scale",
        "clients x cores sweep of a windowed fleet against one server",
        &["out", "suite"],
        "BENCH_scale.json",
        scale::run,
    ),
    artifact(
        "resume",
        "post-restart reconnect storm, tickets against full handshakes",
        &["out", "suite", "clients"],
        "BENCH_resume.json",
        resume::run,
    ),
    Experiment {
        boolean: &["smoke", "list"],
        ..artifact(
            "scenarios",
            "declarative op mixes and churn storms under the coherence oracle",
            &[
                "scenario",
                "faults",
                "suite",
                "out",
                "latency-out",
                "record",
                "replay",
            ],
            "BENCH_scenarios.json",
            scenarios::run,
        )
    },
];
