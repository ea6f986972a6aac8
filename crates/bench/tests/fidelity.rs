//! Paper fidelity as a gate. The committed `BENCH_figures.json` is what
//! `sfs-bench figures` produced; here every cell the paper publishes a
//! value for must sit inside its tolerance, every wide tolerance must
//! state its cause, every derived column must be what the cell table in
//! `sfs_bench::figures` derives, and the figures cheap enough for the
//! debug profile are re-measured and must equal the committed cells
//! exactly (Figures 5, 7 and 9 are re-measured by CI's release step,
//! `sfs-bench all && git diff --exit-code -- 'BENCH_*'`).

use std::collections::BTreeMap;

use sfs_bench::calib::System;
use sfs_bench::figures::{cells, checks, Cell, Memo, Workload, PAPER, TOLERANCE};
use sfs_bench::trace::TraceOpt;
use sfs_sim::CpuCosts;

const COMMITTED: &str = include_str!("../../../BENCH_figures.json");

/// The fields of one `{"k": v, …}` artifact row, values as written
/// (strings keep their quotes and escapes).
fn fields(line: &str) -> BTreeMap<String, String> {
    let body = line.trim().trim_end_matches(',');
    let body = body.strip_prefix('{').and_then(|b| b.strip_suffix('}'));
    let mut rest = body.expect("a one-line object");
    let mut out = BTreeMap::new();
    while !rest.is_empty() {
        let (key, after) = rest[1..].split_once("\": ").expect("a key");
        // A value ends at the first `, "` outside a string.
        let mut in_string = false;
        let mut escaped = false;
        let mut end = after.len();
        for (i, c) in after.char_indices() {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = !in_string,
                ',' if !in_string => {
                    end = i;
                    break;
                }
                _ => {}
            }
        }
        out.insert(key.to_string(), after[..end].to_string());
        rest = after[end..].trim_start_matches(", ");
    }
    out
}

fn unquoted(v: &str) -> &'static str {
    let inner = v.strip_prefix('"').and_then(|v| v.strip_suffix('"'));
    let inner = inner.unwrap_or_else(|| panic!("{v} is not a string"));
    assert!(!inner.contains('\\'), "labels carry no escapes: {v}");
    Box::leak(inner.to_string().into_boxed_str())
}

/// The committed cells, as written and as the [`Cell`]s they state.
fn committed() -> Vec<(BTreeMap<String, String>, Cell)> {
    let rows = COMMITTED.lines().filter(|l| l.contains("\"figure\": "));
    rows.map(|line| {
        let f = fields(line);
        let cell = Cell {
            figure: unquoted(&f["figure"]),
            row: unquoted(&f["row"]),
            column: unquoted(&f["column"]),
            unit: unquoted(&f["unit"]),
            measured: f["measured"].parse().expect("a measurement"),
            claim: false,
        };
        (f, cell)
    })
    .collect()
}

/// Whether `cell` is committed exactly as `cell.obj()` would write it.
fn assert_committed(cell: &Cell, committed: &[(BTreeMap<String, String>, Cell)]) {
    let at = |c: &Cell| (c.figure, c.row, c.column);
    let (written, _) = committed
        .iter()
        .find(|(_, c)| at(c) == at(cell))
        .unwrap_or_else(|| panic!("{:?} is not committed", at(cell)));
    let obj = cell.obj();
    for (key, value) in written {
        assert_eq!(
            obj.get(key),
            Some(value.as_str()),
            "{:?}: `{key}` differs from BENCH_figures.json — rerun `sfs-bench figures`",
            at(cell)
        );
    }
}

#[test]
fn committed_cells_are_inside_their_tolerance_and_state_their_cause() {
    let committed = committed();
    assert_eq!(committed.len(), 110, "cells in BENCH_figures.json");
    let cells: Vec<Cell> = committed.iter().map(|(_, c)| c.clone()).collect();
    // The gate itself: one check per published value, all holding.
    let gate = checks(&cells);
    assert_eq!(gate.len(), PAPER.len(), "every published value is measured");
    for check in &gate {
        assert!(check.holds, "{}: {}", check.what, check.detail);
    }
    // Paper, deviation, tolerance and cause are the cell table's, not
    // hand-edited: each committed row is what its measurement renders to.
    for cell in &cells {
        assert_committed(cell, &committed);
    }
    for a in PAPER {
        assert!(
            a.tolerance <= TOLERANCE || !a.cause.is_empty(),
            "{} {} / {} tolerates {} without a cause",
            a.figure,
            a.row,
            a.column,
            a.tolerance
        );
    }
}

#[test]
fn an_edit_past_the_tolerance_fails_the_gate() {
    let mut cells: Vec<Cell> = committed().into_iter().map(|(_, c)| c).collect();
    let sfs_total = cells
        .iter_mut()
        .find(|c| (c.figure, c.row, c.column) == ("fig6", "SFS", "total"))
        .expect("Figure 6's SFS total");
    sfs_total.measured *= 1.05;
    let failed: Vec<String> = checks(&cells)
        .into_iter()
        .filter(|c| !c.holds)
        .map(|c| c.what)
        .collect();
    assert_eq!(failed, ["fig6 SFS / total"]);
}

#[test]
fn the_cheap_figures_remeasure_to_the_committed_cells() {
    let committed = committed();
    let trace = TraceOpt::with_path(None);
    let memo = Memo::new(CpuCosts::pentium_iii_550(), None, &trace, None);
    for figure in ["fig6", "fig8", "hardware_trend", "rpc_counts"] {
        for cell in cells(figure, &memo) {
            assert_committed(&cell, &committed);
        }
    }
}

/// Figure 5's latency row on a testbed whose CPU costs are `cpu`.
fn latency_row(cpu: CpuCosts) -> Vec<Cell> {
    let trace = TraceOpt::with_path(None);
    let memo = Memo::new(cpu, None, &trace, None);
    let systems = [
        System::NfsUdp,
        System::NfsTcp,
        System::Sfs,
        System::SfsNoEncrypt,
    ];
    let cell = |system: System| Cell {
        figure: "fig5",
        row: system.label(),
        column: "latency",
        unit: "µs",
        measured: memo.run(system, Workload::Latency).rate,
        claim: false,
    };
    systems.map(cell).into()
}

#[test]
fn the_gate_detects_a_miscalibrated_cpu() {
    // Self-test: the same gate over a testbed 25 % slower must fail on
    // the latency row — or passing it proves nothing.
    let committed = committed();
    let calibrated = latency_row(CpuCosts::pentium_iii_550());
    assert!(checks(&calibrated).iter().all(|c| c.holds));
    for cell in &calibrated {
        assert_committed(cell, &committed);
    }
    let slow = checks(&latency_row(CpuCosts::pentium_iii_550().scaled(1.25)));
    let failed: Vec<&str> = slow
        .iter()
        .filter(|c| !c.holds)
        .map(|c| c.what.as_str())
        .collect();
    assert!(
        failed.contains(&"fig5 SFS / latency"),
        "a 1.25x CPU passed the latency row: {slow:#?}"
    );
}

#[test]
fn a_figure_renders_as_the_grid_of_its_cells_then_its_claims() {
    use sfs_bench::figures::{render, SFS_VS_UDP};
    let cell = |row, column, unit, measured| Cell {
        figure: "fig7",
        row,
        column,
        unit,
        measured,
        claim: false,
    };
    let cells = [
        cell("NFS 3 (UDP)", "time", "ns", 182.09e9),
        cell("SFS", "time", "ns", 199.15e9),
        cell("SFS", "idle", "ns", 1.5e9),
        Cell {
            claim: true,
            ..cell(SFS_VS_UDP, "time", "%", 9.37)
        },
    ];
    // Virtual time shows in seconds; the paper's value sits beside the
    // cells it publishes; a cell the figure does not measure is blank.
    let expected = "\
== Figure 7 (unit: s) ==
            |                   time |                   idle
-------------------------------------------------------------
NFS 3 (UDP) |      182 (paper    178) |                        
SFS         |      199 (paper    197) |     1.50               

SFS vs NFS 3 (UDP) / time: +9.4% (paper: +16.0%, deviation -41.4%)
";
    assert_eq!(render("Figure 7", &cells), expected);
}
