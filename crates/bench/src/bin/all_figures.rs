//! Runs every §4 reproduction in sequence (Figures 5–9 plus the
//! ablations) — the one-shot regeneration backing EXPERIMENTS.md — and
//! writes every cell the eight figures recorded as `BENCH_figures.json`.

#[path = "ablations.rs"]
mod ablations;
#[path = "fig5.rs"]
mod fig5;
#[path = "fig6.rs"]
mod fig6;
#[path = "fig7.rs"]
mod fig7;
#[path = "fig8.rs"]
mod fig8;
#[path = "fig9.rs"]
mod fig9;
#[path = "hardware_trend.rs"]
mod hardware_trend;
#[path = "rpc_counts.rs"]
mod rpc_counts;

fn main() {
    let figures: [(&str, fn()); 8] = [
        ("fig5", fig5::main),
        ("fig6", fig6::main),
        ("fig7", fig7::main),
        ("fig8", fig8::main),
        ("fig9", fig9::main),
        ("ablations", ablations::main),
        ("hardware_trend", hardware_trend::main),
        ("rpc_counts", rpc_counts::main),
    ];
    for (name, run) in figures {
        println!("\n################ {name} ################\n");
        run();
    }
    sfs_bench::figures::write_collected("BENCH_figures.json");
}
