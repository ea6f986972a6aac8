//! The §4 evaluation as data: every Figure 5–9 / §4.2–4.5 number is a
//! [`Cell`], the paper's value for it (with the tolerance the
//! reproduction is held to, and the written cause where that tolerance
//! is wide) is a row of [`PAPER`], and `BENCH_figures.json` is the two
//! joined. The text tables, the fidelity gate (`tests/fidelity.rs`) and
//! EXPERIMENTS.md all read these cells; no paper value lives anywhere
//! else.
//!
//! [`Memo`] runs each distinct `(System, Workload, CpuCosts)` world once
//! — 33 for the full set — and every table, shape claim, ablation delta,
//! trend row and RPC count is derived from those runs.

use std::cell::RefCell;
use std::rc::Rc;

use sfs_sim::{CpuCosts, FaultPlan, SimTime};

use crate::calib::{System, Testbed};
use crate::driver::{Ctx, Report};
use crate::report::{format_val, Check, Obj};
use crate::trace::TraceOpt;
use crate::workloads::{
    kernel_build, lfs_large, lfs_small, mab, micro_latency, micro_throughput, total,
    KernelBuildConfig, MabConfig, Phase,
};
use crate::world::WorldSpec;

/// One measured number of one figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Figure id — also the name `sfs-bench figures <id>` selects.
    pub figure: &'static str,
    /// Row label: a system, a CPU generation, or the pair a claim compares.
    pub row: &'static str,
    /// Column label.
    pub column: &'static str,
    /// Unit of `measured` and of the paper's value. `"ns"` (virtual
    /// time) and `"rpcs"` are whole numbers and are written as integers.
    pub unit: &'static str,
    /// The measurement.
    pub measured: f64,
    /// A shape claim or ablation delta derived from other cells: rendered
    /// as a line under the figure's table rather than inside it.
    pub claim: bool,
}

impl Cell {
    /// The paper's value for this cell, when it publishes one.
    pub fn anchor(&self) -> Option<&'static Anchor> {
        let at = (self.figure, self.row, self.column);
        PAPER.iter().find(|a| (a.figure, a.row, a.column) == at)
    }

    /// `measured / paper − 1`, when the paper publishes a value.
    pub fn deviation(&self) -> Option<f64> {
        self.anchor().map(|a| self.measured / a.paper - 1.0)
    }

    /// The `BENCH_figures.json` row.
    pub fn obj(&self) -> Obj {
        let o = Obj::new()
            .str("figure", self.figure)
            .str("row", self.row)
            .str("column", self.column)
            .str("unit", self.unit);
        let o = match self.unit {
            "ns" | "rpcs" => o.num("measured", self.measured as u64),
            _ => o.float("measured", self.measured, 6),
        };
        match (self.anchor(), self.deviation()) {
            (Some(a), Some(deviation)) => o
                .num("paper", a.paper)
                .float("deviation", deviation, 4)
                .float("tolerance", a.tolerance, 2)
                .str("cause", a.cause),
            _ => o
                .null("paper")
                .null("deviation")
                .null("tolerance")
                .null("cause"),
        }
    }
}

/// The `BENCH_figures.json` header.
pub fn header() -> Obj {
    Obj::new()
        .str("schema", "sfs-bench/figures/v1")
        .str(
            "model",
            "virtual time: CpuCosts::pentium_iii_550, NetParams::switched_100mbit, bench_disk_params",
        )
        .str("deviation", "measured / paper - 1")
        .str(
            "gate",
            "|deviation| <= tolerance; a tolerance above 0.06 states its cause",
        )
}

/// The fidelity gate over a set of cells: one check per cell the paper
/// publishes a value for.
pub fn checks(cells: &[Cell]) -> Vec<Check> {
    cells
        .iter()
        .filter_map(|c| {
            let (a, dev) = (c.anchor()?, c.deviation()?);
            Some(Check::invariant(
                format!("{} {} / {}", c.figure, c.row, c.column),
                dev.abs() <= a.tolerance,
                format!(
                    "measured {} {}, paper {}: {:+.1}% (tolerance ±{:.0}%)",
                    c.obj().number("measured"),
                    c.unit,
                    a.paper,
                    dev * 100.0,
                    a.tolerance * 100.0
                ),
            ))
        })
        .collect()
}

/// The tolerance every cell is held to unless a cause says otherwise.
pub const TOLERANCE: f64 = 0.06;

/// A value the paper publishes for one cell.
#[derive(Debug)]
pub struct Anchor {
    /// Figure id.
    pub figure: &'static str,
    /// Row label.
    pub row: &'static str,
    /// Column label.
    pub column: &'static str,
    /// The paper's value, in the cell's unit.
    pub paper: f64,
    /// Largest `|measured / paper − 1|` the gate accepts.
    pub tolerance: f64,
    /// Why the tolerance is wider than [`TOLERANCE`] (empty otherwise).
    pub cause: &'static str,
}

const fn anchor(
    figure: &'static str,
    row: &'static str,
    column: &'static str,
    paper: f64,
    tolerance: f64,
    cause: &'static str,
) -> Anchor {
    Anchor {
        figure,
        row,
        column,
        paper,
        tolerance,
        cause,
    }
}

const UDP: &str = "NFS 3 (UDP)";
const TCP: &str = "NFS 3 (TCP)";
const SFS: &str = "SFS";
const NOENC: &str = "SFS w/o encryption";
const NOCACHE: &str = "SFS w/o enhanced caching";
/// Row label of the claims comparing SFS with NFS 3 over UDP.
pub const SFS_VS_UDP: &str = "SFS vs NFS 3 (UDP)";
/// Row label of the claims comparing unencrypted SFS with NFS 3 over UDP.
pub const NOENC_VS_UDP: &str = "SFS w/o encryption vs NFS 3 (UDP)";
/// Row label of the ablation deltas of encryption.
pub const SFS_VS_NOENC: &str = "SFS vs SFS w/o encryption";
/// Row label of the ablation deltas of the enhanced caching.
pub const NOCACHE_VS_SFS: &str = "SFS w/o enhanced caching vs SFS";
/// Row label of the §4.5 claim.
pub const PPRO_TO_PIII: &str = "Pentium Pro 200 → Pentium III 550";
/// Row label of §4.5's "we expect this trend to continue".
pub const PIII_TO_NEXT: &str = "Pentium III 550 → hypothetical 2x PIII";

const WINDOW_8: &str = "the figures run the client's default window of 8 READs in flight \
    (DESIGN §11), which overlaps the per-byte ARC4+SHA-1 cost with the wire; the paper's client \
    sits between that and the blocking protocol, which reads 3.23 MB/s (`--window 1`)";
const WINDOW_8_NOENC: &str = "the figures run the client's default window of 8 READs in flight \
    (DESIGN §11), which overlaps the user-level copies with the wire; the paper's client sits \
    between that and the blocking protocol, which reads 4.89 MB/s (`--window 1`)";
const WINDOW_8_LFS: &str = "window-8 pipelining and write-behind (DESIGN §11) overlap SFS's \
    crypto and user-level crossings with the wire, so its large-file phases sit near NFS's \
    instead of the paper's blocking client's";
const ONE_DIGIT: &str = "a difference of two totals, which the paper quotes to one significant \
    digit: an error of a few percent in either total (see their own cells) is tens of percent \
    of the difference";

/// Every value §4 publishes, in the order the figures list them.
pub const PAPER: &[Anchor] = &[
    anchor("fig5", UDP, "latency", 200.0, TOLERANCE, ""),
    anchor("fig5", UDP, "throughput", 9.3, TOLERANCE, ""),
    anchor("fig5", TCP, "latency", 220.0, TOLERANCE, ""),
    anchor("fig5", TCP, "throughput", 7.6, TOLERANCE, ""),
    anchor("fig5", SFS, "latency", 790.0, TOLERANCE, ""),
    anchor("fig5", SFS, "throughput", 4.1, 0.81, WINDOW_8),
    anchor("fig5", NOENC, "latency", 770.0, TOLERANCE, ""),
    anchor("fig5", NOENC, "throughput", 7.1, 0.17, WINDOW_8_NOENC),
    anchor("fig6", UDP, "total", 5.4e9, TOLERANCE, ""),
    anchor("fig6", SFS, "total", 6.0e9, TOLERANCE, ""),
    anchor(
        "fig6",
        SFS_VS_UDP,
        "total",
        11.0,
        0.31,
        "a ratio of two totals each within 4 % of the paper's: SFS reads +3.7 % and NFS +0.8 %, \
         which moves an 11 % gap to 14.3 %; 0.03 of those points is the 12-byte sequencing \
         header every blocking RPC carries each way (+2.6 µs per round trip, on the SFS total \
         only), which took the deviation from 0.298 to 0.301",
    ),
    anchor("fig7", "Local", "time", 140e9, TOLERANCE, ""),
    anchor("fig7", UDP, "time", 178e9, TOLERANCE, ""),
    anchor(
        "fig7",
        TCP,
        "time",
        207e9,
        0.10,
        "the paper could not explain its own TCP number (\"FreeBSD's TCP implementation of NFS \
         may be suboptimal\", with a kernel panic while writing a large file); the TCP model is \
         fitted to Figure 5's TCP row and does not reproduce that pathology",
    ),
    anchor("fig7", SFS, "time", 197e9, TOLERANCE, ""),
    anchor(
        "fig7",
        SFS_VS_UDP,
        "time",
        16.0,
        0.42,
        "the paper's own numbers disagree: its text says 16 % (29 s), its Figure 7 values (197 s \
         vs 178 s, the cells above) differ by 10.7 %; the measured 9.5 % follows the cells",
    ),
    anchor("fig8", SFS_VS_UDP, "read", 3.0, TOLERANCE, ""),
    anchor("fig9", SFS_VS_UDP, "seq write", 44.0, 0.85, WINDOW_8_LFS),
    anchor("fig9", SFS_VS_UDP, "seq read", 145.0, 0.86, WINDOW_8_LFS),
    anchor("fig9", NOENC_VS_UDP, "seq write", 17.0, 1.39, WINDOW_8_LFS),
    anchor("fig9", NOENC_VS_UDP, "seq read", 31.0, 0.76, WINDOW_8_LFS),
    anchor("ablations", NOCACHE, "MAB total", 6.6e9, TOLERANCE, ""),
    anchor(
        "ablations",
        NOCACHE_VS_SFS,
        "MAB total",
        0.7e9,
        0.12,
        ONE_DIGIT,
    ),
    anchor(
        "ablations",
        SFS_VS_NOENC,
        "MAB total",
        0.2e9,
        0.57,
        ONE_DIGIT,
    ),
    anchor(
        "ablations",
        NOCACHE_VS_SFS,
        "LFS create",
        1e9,
        0.21,
        ONE_DIGIT,
    ),
    anchor(
        "ablations",
        SFS_VS_NOENC,
        "kernel build",
        3e9,
        0.49,
        ONE_DIGIT,
    ),
    anchor(
        "hardware_trend",
        PPRO_TO_PIII,
        "penalty ratio",
        2.0,
        0.26,
        "\"shrunk by a factor of two\" is the paper's rounding; the model scales only the \
         protocol stack's CPU costs by the generation (2.75x) and holds the application's \
         compile time fixed",
    ),
];

/// The §4 workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §4.2 unauthorized-`fchown` latency.
    Latency,
    /// §4.2 sequential-read throughput.
    Throughput,
    /// §4.3 Modified Andrew Benchmark.
    Mab,
    /// §4.3 FreeBSD kernel build.
    KernelBuild,
    /// §4.4 Sprite LFS small-file benchmark.
    LfsSmall,
    /// §4.4 Sprite LFS large-file benchmark.
    LfsLarge,
}

/// What one world measured.
#[derive(Debug)]
pub struct Run {
    /// The micro-benchmarks' µs per operation / MB/s (0 otherwise).
    pub rate: f64,
    /// The timed phases of the other workloads.
    pub phases: Vec<Phase>,
    /// Wire RPCs the whole run issued.
    pub rpcs: u64,
    /// The world's virtual clock when the run ended.
    pub final_ns: u64,
}

impl Run {
    fn ns(&self, phase: &str) -> u64 {
        let p = self.phases.iter().find(|p| p.name == phase);
        p.unwrap_or_else(|| panic!("no phase {phase:?}"))
            .time
            .as_nanos()
    }

    fn total_ns(&self) -> u64 {
        total(&self.phases).as_nanos()
    }
}

/// What a world ran. `CpuCosts` has no `Eq`; its `Debug` form names
/// every field, and stands for it.
type Key = (System, Workload, String);

/// Every world a figure run has built, by what it ran: asking twice
/// builds once.
pub struct Memo<'a> {
    cpu: CpuCosts,
    window: Option<usize>,
    trace: &'a TraceOpt,
    plan: Option<&'a FaultPlan>,
    runs: RefCell<Vec<(Key, Rc<Run>)>>,
}

impl<'a> Memo<'a> {
    /// An empty memo whose testbed CPU is `cpu`; every world traces into
    /// `trace`, follows `plan` and runs the client at `window`.
    pub fn new(
        cpu: CpuCosts,
        window: Option<usize>,
        trace: &'a TraceOpt,
        plan: Option<&'a FaultPlan>,
    ) -> Memo<'a> {
        let runs = RefCell::default();
        Memo {
            cpu,
            window,
            trace,
            plan,
            runs,
        }
    }

    /// `workload` on `system` at the testbed CPU.
    pub fn run(&self, system: System, workload: Workload) -> Rc<Run> {
        self.run_on(system, workload, self.cpu)
    }

    /// `workload` on `system` with CPU costs `cpu`, from the memo when
    /// that world already ran.
    pub fn run_on(&self, system: System, workload: Workload, cpu: CpuCosts) -> Rc<Run> {
        let key = (system, workload, format!("{cpu:?}"));
        if let Some((_, run)) = self.runs.borrow().iter().find(|(k, _)| *k == key) {
            return run.clone();
        }
        let scope = format!("{}/{workload:?}@{}", system.label(), cpu.user_crossing_ns);
        let tel = self.trace.for_system(&scope);
        let spec = WorldSpec {
            cpu: Some(cpu),
            ..WorldSpec::bench().traced(&tel).faulted(self.plan)
        };
        let Testbed {
            fs, clock, prefix, ..
        } = Testbed::build(system, &spec);
        if let Some(w) = self.window {
            fs.set_pipeline_window(w);
        }
        let fs = fs.as_ref();
        let (rate, phases) = match workload {
            Workload::Latency => (micro_latency(fs, prefix), vec![]),
            Workload::Throughput => (micro_throughput(fs, prefix), vec![]),
            Workload::Mab => (0.0, mab(fs, prefix, &MabConfig::default())),
            Workload::KernelBuild => {
                let time = kernel_build(fs, prefix, &KernelBuildConfig::default());
                let name = "time".into();
                (0.0, vec![Phase { name, time }])
            }
            Workload::LfsSmall => (0.0, lfs_small(fs, prefix, 1000)),
            Workload::LfsLarge => (0.0, lfs_large(fs, prefix)),
        };
        let run = Rc::new(Run {
            rate,
            phases,
            rpcs: fs.rpcs(),
            final_ns: clock.now().as_nanos(),
        });
        self.runs.borrow_mut().push((key, run.clone()));
        run
    }

    /// The latest virtual clock any world reached.
    fn final_ns(&self) -> u64 {
        let runs = self.runs.borrow();
        runs.iter().map(|(_, run)| run.final_ns).max().unwrap_or(0)
    }
}

fn secs(ns: u64) -> f64 {
    SimTime(ns).as_secs_f64()
}

/// How much longer `a` took than `b`, in percent.
fn pct_over(a: u64, b: u64) -> f64 {
    (secs(a) / secs(b) - 1.0) * 100.0
}

/// The cells of one figure, as its definition lists them.
struct Sheet {
    figure: &'static str,
    cells: Vec<Cell>,
}

impl Sheet {
    fn put(&mut self, row: &'static str, column: &'static str, unit: &'static str, v: f64) {
        self.cells.push(Cell {
            figure: self.figure,
            row,
            column,
            unit,
            measured: v,
            claim: false,
        });
    }

    fn ns(&mut self, row: &'static str, column: &'static str, ns: u64) {
        self.put(row, column, "ns", ns as f64);
    }

    fn claim(&mut self, row: &'static str, column: &'static str, unit: &'static str, v: f64) {
        self.put(row, column, unit, v);
        self.cells.last_mut().expect("just put").claim = true;
    }

    /// One cell per phase of `run`, under the figure's column names.
    fn phases(&mut self, system: System, columns: &[&'static str], run: &Run) {
        assert!(columns.iter().eq(run.phases.iter().map(|p| &p.name)));
        for (column, p) in columns.iter().zip(&run.phases) {
            self.ns(system.label(), column, p.time.as_nanos());
        }
    }
}

fn fig5(memo: &Memo, sheet: &mut Sheet) {
    for system in [
        System::NfsUdp,
        System::NfsTcp,
        System::Sfs,
        System::SfsNoEncrypt,
    ] {
        let latency = memo.run(system, Workload::Latency).rate;
        sheet.put(system.label(), "latency", "µs", latency);
        let throughput = memo.run(system, Workload::Throughput).rate;
        sheet.put(system.label(), "throughput", "MB/s", throughput);
    }
}

fn fig6(memo: &Memo, sheet: &mut Sheet) {
    const PHASES: [&str; 5] = ["directories", "copy", "attributes", "search", "compile"];
    for system in System::main_four() {
        let run = memo.run(system, Workload::Mab);
        sheet.phases(system, &PHASES, &run);
        sheet.ns(system.label(), "total", run.total_ns());
    }
    let total = |system| memo.run(system, Workload::Mab).total_ns();
    let gap = pct_over(total(System::Sfs), total(System::NfsUdp));
    sheet.claim(SFS_VS_UDP, "total", "%", gap);
}

fn fig7(memo: &Memo, sheet: &mut Sheet) {
    let time = |system| memo.run(system, Workload::KernelBuild).total_ns();
    for system in System::main_four() {
        sheet.ns(system.label(), "time", time(system));
    }
    let gap = pct_over(time(System::Sfs), time(System::NfsUdp));
    sheet.claim(SFS_VS_UDP, "time", "%", gap);
}

fn fig8(memo: &Memo, sheet: &mut Sheet) {
    for system in System::main_four() {
        let run = memo.run(system, Workload::LfsSmall);
        sheet.phases(system, &["create", "read", "unlink"], &run);
    }
    let read = |system| secs(memo.run(system, Workload::LfsSmall).ns("read"));
    let slowdown = read(System::Sfs) / read(System::NfsUdp);
    sheet.claim(SFS_VS_UDP, "read", "x", slowdown);
}

fn fig9(memo: &Memo, sheet: &mut Sheet) {
    const PHASES: [&str; 5] = [
        "seq write",
        "seq read",
        "rand write",
        "rand read",
        "seq read 2",
    ];
    for system in [
        System::Local,
        System::NfsUdp,
        System::NfsTcp,
        System::Sfs,
        System::SfsNoEncrypt,
    ] {
        sheet.phases(system, &PHASES, &memo.run(system, Workload::LfsLarge));
    }
    let ns = |system, phase| memo.run(system, Workload::LfsLarge).ns(phase);
    for (row, system) in [
        (SFS_VS_UDP, System::Sfs),
        (NOENC_VS_UDP, System::SfsNoEncrypt),
    ] {
        for phase in ["seq write", "seq read"] {
            let gap = pct_over(ns(system, phase), ns(System::NfsUdp, phase));
            sheet.claim(row, phase, "%", gap);
        }
    }
}

fn ablations(memo: &Memo, sheet: &mut Sheet) {
    use System::{NfsUdp, Sfs, SfsNoCache, SfsNoEncrypt};
    let ns = |system, column| match column {
        "MAB total" => memo.run(system, Workload::Mab).total_ns(),
        "LFS create" => memo.run(system, Workload::LfsSmall).ns("create"),
        _ => memo.run(system, Workload::KernelBuild).total_ns(),
    };
    for (column, systems) in [
        ("MAB total", &[NfsUdp, Sfs, SfsNoCache, SfsNoEncrypt][..]),
        ("LFS create", &[NfsUdp, Sfs, SfsNoCache]),
        ("kernel build", &[Sfs, SfsNoEncrypt]),
    ] {
        for &system in systems {
            sheet.ns(system.label(), column, ns(system, column));
        }
    }
    for (row, column, slower, faster) in [
        (NOCACHE_VS_SFS, "MAB total", SfsNoCache, Sfs),
        (SFS_VS_NOENC, "MAB total", Sfs, SfsNoEncrypt),
        (NOCACHE_VS_SFS, "LFS create", SfsNoCache, Sfs),
        (SFS_VS_NOENC, "kernel build", Sfs, SfsNoEncrypt),
    ] {
        let delta = ns(slower, column) - ns(faster, column);
        sheet.claim(row, column, "ns", delta as f64);
    }
}

/// §4.5: the protocol stack's CPU costs scale with the processor
/// generation while the application's own compile time, the network and
/// the disk are held constant — what the paper's claim is about.
fn hardware_trend(memo: &Memo, sheet: &mut Sheet) {
    let mut penalties = Vec::new();
    for (generation, cpu) in [
        ("Pentium Pro 200", CpuCosts::pentium_pro_200()),
        ("Pentium III 550", memo.cpu),
        ("hypothetical 2x PIII", memo.cpu.scaled(0.5)),
    ] {
        let total = |system| memo.run_on(system, Workload::Mab, cpu).total_ns();
        let (nfs, sfs) = (total(System::NfsUdp), total(System::Sfs));
        sheet.ns(generation, UDP, nfs);
        sheet.ns(generation, SFS, sfs);
        sheet.put(generation, "penalty", "%", pct_over(sfs, nfs));
        penalties.push(pct_over(sfs, nfs));
    }
    sheet.claim(
        PPRO_TO_PIII,
        "penalty ratio",
        "x",
        penalties[0] / penalties[1],
    );
    sheet.claim(
        PIII_TO_NEXT,
        "penalty ratio",
        "x",
        penalties[1] / penalties[2],
    );
}

/// §4.2: "SFS's enhanced caching improves performance by reducing the
/// number of RPCs that need to travel over the network."
fn rpc_counts(memo: &Memo, sheet: &mut Sheet) {
    for system in [System::NfsUdp, System::Sfs, System::SfsNoCache] {
        for (column, workload) in [("MAB", Workload::Mab), ("LFS small", Workload::LfsSmall)] {
            let rpcs = memo.run(system, workload).rpcs;
            sheet.put(system.label(), column, "rpcs", rpcs as f64);
        }
    }
}

/// How a figure's cells come out of the memo.
type Define = fn(&Memo, &mut Sheet);

/// Every figure — the id its cells carry and `sfs-bench figures <id>`
/// selects, its table title, its definition — in the order
/// `BENCH_figures.json` lists them.
const FIGURES: [(&str, &str, Define); 8] = [
    (
        "fig5",
        "Figure 5: micro-benchmarks for basic operations",
        fig5,
    ),
    ("fig6", "Figure 6: Modified Andrew Benchmark phases", fig6),
    (
        "fig7",
        "Figure 7: compiling the GENERIC FreeBSD 3.3 kernel",
        fig7,
    ),
    (
        "fig8",
        "Figure 8: Sprite LFS small-file benchmark (1,000 × 1 KB)",
        fig8,
    ),
    (
        "fig9",
        "Figure 9: Sprite LFS large-file benchmark (40,000 KB, 8 KB chunks)",
        fig9,
    ),
    ("ablations", "Ablations (§4.3, §4.4)", ablations),
    (
        "hardware_trend",
        "§4.5 hardware trend: MAB penalty of SFS vs NFS 3 (UDP)",
        hardware_trend,
    ),
    (
        "rpc_counts",
        "§4.2 wire RPC counts (lower is better)",
        rpc_counts,
    ),
];

/// The cells of figure `id` (one of the `figures` experiment's
/// selections), running what the memo lacks.
pub fn cells(id: &str, memo: &Memo) -> Vec<Cell> {
    let (figure, _, define) = FIGURES.iter().find(|f| f.0 == id).expect("a figure id");
    let mut sheet = Sheet {
        figure,
        cells: Vec::new(),
    };
    define(memo, &mut sheet);
    sheet.cells
}

/// A value and its unit as tables show them: virtual time in seconds.
fn shown(unit: &'static str, v: f64) -> (f64, &'static str) {
    match unit {
        "ns" => (v / 1e9, "s"),
        _ => (v, unit),
    }
}

fn distinct<T: PartialEq>(items: impl Iterator<Item = T>) -> Vec<T> {
    items.fold(Vec::new(), |mut seen, item| {
        if !seen.contains(&item) {
            seen.push(item);
        }
        seen
    })
}

/// A figure as text: the grid of its table cells, each beside the
/// paper's value where it publishes one, then one line per claim.
pub fn render(title: &str, cells: &[Cell]) -> String {
    let grid: Vec<&Cell> = cells.iter().filter(|c| !c.claim).collect();
    let units = distinct(grid.iter().map(|c| shown(c.unit, 0.0).1));
    let columns = distinct(grid.iter().map(|c| (c.column, shown(c.unit, 0.0).1)));
    let rows = distinct(grid.iter().map(|c| c.row));
    let label_w = rows.iter().map(|r| r.len()).max().unwrap_or(0).max(6);
    let mut out = format!(
        "== {title} (unit: {}) ==\n{:label_w$}",
        units.join(" / "),
        ""
    );
    for (column, unit) in &columns {
        // A figure mixing units says each column's in its header.
        let header = match units.len() {
            1 => column.to_string(),
            _ => format!("{column} ({unit})"),
        };
        out += &format!(" | {header:>22}");
    }
    out += &format!("\n{}\n", "-".repeat(label_w + columns.len() * 25));
    for row in rows {
        out += &format!("{row:label_w$}");
        for (column, _) in &columns {
            let cell = grid.iter().find(|c| c.row == row && c.column == *column);
            let show = |v: f64, c: &Cell| format_val(shown(c.unit, v).0);
            let measured = cell.map_or(String::new(), |c| show(c.measured, c));
            out += &match cell.and_then(|c| Some((c, c.anchor()?))) {
                Some((c, a)) => format!(" | {measured:>8} (paper {:>6})", show(a.paper, c)),
                None => format!(" | {measured:>8} {:>14}", ""),
            };
        }
        out.push('\n');
    }
    out.push('\n');
    for c in cells.iter().filter(|c| c.claim) {
        let show = |v: f64| match shown(c.unit, v) {
            (v, "%") => format!("{v:+.1}%"),
            (v, unit) => format!("{} {unit}", format_val(v)),
        };
        out += &format!("{} / {}: {}", c.row, c.column, show(c.measured));
        if let (Some(a), Some(dev)) = (c.anchor(), c.deviation()) {
            let dev = dev * 100.0;
            out += &format!(" (paper: {}, deviation {dev:+.1}%)", show(a.paper));
        }
        out.push('\n');
    }
    out
}

/// `sfs-bench figures [id]`: the selected figure, or all eight from one
/// memo. The complete, unperturbed set is the `BENCH_figures.json`
/// artifact; a selection, a fault plan or a window override prints its
/// tables only.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let window = ctx.args.number("window")?;
    let cpu = CpuCosts::pentium_iii_550();
    let memo = Memo::new(cpu, window, &ctx.trace, ctx.faults.plan());
    let mut report = Report {
        header: header(),
        rows_key: "cells",
        ..Report::default()
    };
    let mut all = Vec::new();
    for (id, title, _) in FIGURES {
        if ctx.select.is_none_or(|s| s == id) {
            let of_figure = cells(id, &memo);
            report.text += &format!("{}\n", render(title, &of_figure));
            all.extend(of_figure);
        }
    }
    report.text += &format!("worlds built: {}\n", Testbed::builds());
    report.final_ns = memo.final_ns();
    if ctx.select.is_none() && window.is_none() && !ctx.faults.enabled() {
        report.rows = all.iter().map(Cell::obj).collect();
        report.checks = checks(&all);
    }
    Ok(report)
}
