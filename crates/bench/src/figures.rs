//! The §4 evaluation as data: every Figure 5–9 / §4.2–4.5 number is a
//! [`Cell`], the paper's value for it (with the tolerance the
//! reproduction is held to, and the written cause where that tolerance
//! is wide) is a row of [`PAPER`], and `BENCH_figures.json` is the two
//! joined. The text tables, the fidelity gate (`tests/fidelity.rs`) and
//! EXPERIMENTS.md all read these cells; no paper value lives anywhere
//! else.

use crate::report::{Check, Obj};

/// What a cell measured: virtual nanoseconds and counts stay integers;
/// rates, ratios and percentages derived from them are reals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Measured {
    /// Virtual nanoseconds or a count.
    Int(u64),
    /// A derived quantity.
    Real(f64),
}

impl Measured {
    /// The value as a float, for deviations and rendering.
    pub fn as_f64(self) -> f64 {
        match self {
            Measured::Int(v) => v as f64,
            Measured::Real(v) => v,
        }
    }
}

/// One measured number of one figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Figure id — also the name `sfs-bench figures <id>` selects.
    pub figure: &'static str,
    /// Row label: a system, a CPU generation, or the pair a claim compares.
    pub row: &'static str,
    /// Column label.
    pub column: &'static str,
    /// Unit of `measured` (and of the paper's value).
    pub unit: &'static str,
    /// The measurement.
    pub measured: Measured,
    /// A shape claim or ablation delta derived from other cells: rendered
    /// as a line under the figure's table rather than inside it.
    pub claim: bool,
}

impl Cell {
    /// A table cell holding virtual nanoseconds.
    pub fn ns(figure: &'static str, row: &'static str, column: &'static str, ns: u64) -> Cell {
        Cell {
            figure,
            row,
            column,
            unit: "ns",
            measured: Measured::Int(ns),
            claim: false,
        }
    }

    /// A table cell holding any other quantity.
    pub fn of(
        figure: &'static str,
        row: &'static str,
        column: &'static str,
        unit: &'static str,
        measured: Measured,
    ) -> Cell {
        Cell {
            figure,
            row,
            column,
            unit,
            measured,
            claim: false,
        }
    }

    /// This cell as a claim line.
    pub fn claim(mut self) -> Cell {
        self.claim = true;
        self
    }

    /// The paper's value for this cell, when it publishes one.
    pub fn anchor(&self) -> Option<&'static Anchor> {
        PAPER
            .iter()
            .find(|a| (a.figure, a.row, a.column) == (self.figure, self.row, self.column))
    }

    /// `measured / paper − 1`, when the paper publishes a value.
    pub fn deviation(&self) -> Option<f64> {
        self.anchor()
            .map(|a| self.measured.as_f64() / a.paper - 1.0)
    }

    /// The `BENCH_figures.json` row.
    pub fn obj(&self) -> Obj {
        let o = Obj::new()
            .str("figure", self.figure)
            .str("row", self.row)
            .str("column", self.column)
            .str("unit", self.unit);
        let o = match self.measured {
            Measured::Int(v) => o.num("measured", v),
            Measured::Real(v) => o.float("measured", v, 6),
        };
        match self.anchor() {
            Some(a) => o
                .num("paper", a.paper)
                .float("deviation", self.measured.as_f64() / a.paper - 1.0, 4)
                .float("tolerance", a.tolerance, 2)
                .str("cause", a.cause),
            None => o
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
                    c.measured.as_f64(),
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

const fn within(
    figure: &'static str,
    row: &'static str,
    column: &'static str,
    paper: f64,
) -> Anchor {
    drifted(figure, row, column, paper, TOLERANCE, "")
}

const fn drifted(
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
    between that and the blocking protocol, which reads 4.90 MB/s (`--window 1`)";
const WINDOW_8_LFS: &str = "window-8 pipelining and write-behind (DESIGN §11) overlap SFS's \
    crypto and user-level crossings with the wire, so its large-file phases sit near NFS's \
    instead of the paper's blocking client's";
const ONE_DIGIT: &str = "a difference of two totals, which the paper quotes to one significant \
    digit: an error of a few percent in either total (see their own cells) is tens of percent \
    of the difference";

/// Every value §4 publishes, in the order the figures list them.
pub const PAPER: &[Anchor] = &[
    within("fig5", UDP, "latency", 200.0),
    within("fig5", UDP, "throughput", 9.3),
    within("fig5", TCP, "latency", 220.0),
    within("fig5", TCP, "throughput", 7.6),
    within("fig5", SFS, "latency", 790.0),
    drifted("fig5", SFS, "throughput", 4.1, 0.81, WINDOW_8),
    within("fig5", NOENC, "latency", 770.0),
    drifted("fig5", NOENC, "throughput", 7.1, 0.17, WINDOW_8_NOENC),
    within("fig6", UDP, "total", 5.4e9),
    within("fig6", SFS, "total", 6.0e9),
    drifted(
        "fig6",
        SFS_VS_UDP,
        "total",
        11.0,
        0.30,
        "a ratio of two totals each within 4 % of the paper's: SFS reads +3.6 % and NFS +0.7 %, \
         which moves an 11 % gap to 14.3 %",
    ),
    within("fig7", "Local", "time", 140e9),
    within("fig7", UDP, "time", 178e9),
    drifted(
        "fig7",
        TCP,
        "time",
        207e9,
        0.10,
        "the paper could not explain its own TCP number (\"FreeBSD's TCP implementation of NFS \
         may be suboptimal\", with a kernel panic while writing a large file); the TCP model is \
         fitted to Figure 5's TCP row and does not reproduce that pathology",
    ),
    within("fig7", SFS, "time", 197e9),
    drifted(
        "fig7",
        SFS_VS_UDP,
        "time",
        16.0,
        0.42,
        "the paper's own numbers disagree: its text says 16 % (29 s), its Figure 7 values (197 s \
         vs 178 s, the cells above) differ by 10.7 %; the measured 9.4 % follows the cells",
    ),
    within("fig8", SFS_VS_UDP, "read", 3.0),
    drifted("fig9", SFS_VS_UDP, "seq write", 44.0, 0.85, WINDOW_8_LFS),
    drifted("fig9", SFS_VS_UDP, "seq read", 145.0, 0.86, WINDOW_8_LFS),
    drifted("fig9", NOENC_VS_UDP, "seq write", 17.0, 1.39, WINDOW_8_LFS),
    drifted("fig9", NOENC_VS_UDP, "seq read", 31.0, 0.76, WINDOW_8_LFS),
    within("ablations", NOCACHE, "MAB total", 6.6e9),
    drifted(
        "ablations",
        NOCACHE_VS_SFS,
        "MAB total",
        0.7e9,
        0.12,
        ONE_DIGIT,
    ),
    drifted(
        "ablations",
        SFS_VS_NOENC,
        "MAB total",
        0.2e9,
        0.57,
        ONE_DIGIT,
    ),
    drifted(
        "ablations",
        NOCACHE_VS_SFS,
        "LFS create",
        1e9,
        0.21,
        ONE_DIGIT,
    ),
    drifted(
        "ablations",
        SFS_VS_NOENC,
        "kernel build",
        3e9,
        0.49,
        ONE_DIGIT,
    ),
    drifted(
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

// Emission on the per-binary structure: each figure binary records the
// cells it computes; `all_figures` writes what its run collected.
static COLLECTED: std::sync::Mutex<Vec<Cell>> = std::sync::Mutex::new(Vec::new());

/// Records one cell of the running figure.
pub fn record(cell: Cell) {
    COLLECTED.lock().expect("collector").push(cell);
}

/// Writes every recorded cell as `BENCH_figures.json`.
pub fn write_collected(path: &str) {
    let mut cells = COLLECTED.lock().expect("collector").clone();
    // Per figure (they were recorded figure by figure): table cells, then claims.
    let order = |c: &Cell| {
        PAPER
            .iter()
            .position(|a| a.figure == c.figure)
            .unwrap_or(usize::MAX)
    };
    cells.sort_by_key(|c| (order(c), c.claim));
    let rows: Vec<Obj> = cells.iter().map(Cell::obj).collect();
    crate::report::write_artifact(path, &header(), "cells", &rows);
}
