//! Track the scenario-matrix control-byte numbers as a checked-in
//! baseline.
//!
//! The scenario matrix is fully deterministic (seeded workloads, seeded
//! channels, deterministic routing), so its control-byte column is a
//! regression oracle: any code change that makes a protocol spend more
//! control bytes shows up as an exact diff. CI runs the check mode on
//! every push.
//!
//! ```text
//! cargo run --release -p bench --bin baseline                          # print rows
//! cargo run --release -p bench --bin baseline -- --write BENCH_baseline.json
//! cargo run --release -p bench --bin baseline -- --check BENCH_baseline.json
//! cargo run --release -p bench --bin baseline -- --check BENCH_baseline.json --tolerance 0.05
//! cargo run --release -p bench --bin baseline -- --splice BENCH_baseline.json
//! cargo run --release -p bench --bin baseline -- --threaded --write BENCH_threaded.json
//! cargo run --release -p bench --bin baseline -- --threaded --check BENCH_threaded.json --floor 0.1
//! ```
//!
//! `--check` exits non-zero when any cell's control bytes exceed the
//! baseline by more than the tolerance (default 2%), or when the matrix
//! shape changed (cells appeared or vanished) — regenerate with `--write`
//! deliberately in that case and review the diff. Cells whose control
//! bytes or messages *fell* by more than the tolerance never fail, but are
//! printed with the same hint, so a stale ledger shows in CI output.
//!
//! `--splice` is the deliberate update of such a ledger: it regenerates the
//! sweep and rewrites, in place, only the rows whose deterministic columns
//! changed, printing each spliced coordinate. Every other line stays
//! byte-identical, and a spliced row keeps its recorded host-dependent
//! column (`sweep_workers`), so the diff shows exactly the cells a change
//! moved. It never adds or drops rows: a shape change still
//! needs `--write`.
//!
//! `--threaded` switches both modes to the threaded-backend throughput
//! floor (`BENCH_threaded.json`): operation counts are deterministic and
//! compared exactly, while the wall-clock ops/s column only fails when it
//! drops below `--floor` (default 50%, CI uses 10%) of the recorded
//! number — a smoke gate against the backend silently collapsing, not a
//! tuning benchmark.

use bench::{
    compare_threaded_baseline, compare_to_baseline, scenario_matrix, scenario_matrix_large,
    threaded_baseline_sweep, BaselineDiff, ScenarioMatrixRow, ThreadedBaselineRow, BASELINE_COORDS,
    BASELINE_LARGE_TIERS,
};
use std::process::ExitCode;

/// The standard matrix plus the large-tier rows (n = 64 and 256). The
/// large rows are gated on the same deterministic control-byte counts as
/// the rest — wall-clock never enters the baseline.
fn sweep() -> Vec<ScenarioMatrixRow> {
    let (n, ops, seed) = BASELINE_COORDS;
    let mut rows = scenario_matrix(n, ops, seed);
    for (large_n, large_ops) in BASELINE_LARGE_TIERS {
        rows.extend(scenario_matrix_large(large_n, large_ops, seed));
    }
    rows
}

fn render(rows: &[ScenarioMatrixRow]) -> String {
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&row.to_json());
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

fn parse(text: &str) -> Vec<ScenarioMatrixRow> {
    text.lines()
        .filter_map(ScenarioMatrixRow::from_json)
        .collect()
}

/// `row` with its host-dependent column (`sweep_workers`) replaced by
/// `host`'s.
fn with_host_columns(row: &ScenarioMatrixRow, host: &ScenarioMatrixRow) -> ScenarioMatrixRow {
    ScenarioMatrixRow {
        sweep_workers: host.sweep_workers,
        ..row.clone()
    }
}

/// Rewrite the rows of `ledger` whose deterministic columns differ from
/// the `current` row at the same coordinate; every other line, and the
/// host-dependent column of a rewritten one, stay as recorded. Returns
/// the new ledger text and the spliced coordinates, in ledger order.
fn splice(ledger: &str, current: &[ScenarioMatrixRow]) -> (String, Vec<String>) {
    let by_coordinate: std::collections::BTreeMap<String, &ScenarioMatrixRow> =
        current.iter().map(|r| (r.coordinate(), r)).collect();
    let mut out = String::with_capacity(ledger.len());
    let mut spliced = Vec::new();
    for line in ledger.split_inclusive('\n') {
        let fresh = ScenarioMatrixRow::from_json(line).and_then(|old| {
            let cur = with_host_columns(by_coordinate.get(&old.coordinate())?, &old);
            (cur.to_json() != old.to_json()).then_some((old.coordinate(), cur.to_json()))
        });
        match (fresh, line.find('{'), line.rfind('}')) {
            (Some((coordinate, json)), Some(start), Some(end)) => {
                out.push_str(&line[..start]);
                out.push_str(&json);
                out.push_str(&line[end + 1..]);
                spliced.push(coordinate);
            }
            _ => out.push_str(line),
        }
    }
    (out, spliced)
}

fn render_threaded(rows: &[ThreadedBaselineRow]) -> String {
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&row.to_json());
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// The `--threaded` modes: same write/check/print surface, but over the
/// throughput-floor rows instead of the control-byte matrix.
fn run_threaded(flag_value: impl Fn(&str) -> Option<String>) -> ExitCode {
    let floor: f64 = flag_value("--floor")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.5);

    if let Some(path) = flag_value("--write") {
        let rows = threaded_baseline_sweep();
        std::fs::write(&path, render_threaded(&rows)).expect("write threaded baseline file");
        println!("wrote {} threaded rows to {path}", rows.len());
        return ExitCode::SUCCESS;
    }

    if let Some(path) = flag_value("--check") {
        let text = std::fs::read_to_string(&path).expect("read threaded baseline file");
        let baseline: Vec<ThreadedBaselineRow> = text
            .lines()
            .filter_map(ThreadedBaselineRow::from_json)
            .collect();
        if baseline.is_empty() {
            eprintln!("no rows parsed from {path}; regenerate with --threaded --write");
            return ExitCode::FAILURE;
        }
        let current = threaded_baseline_sweep();
        let findings = compare_threaded_baseline(&baseline, &current, floor);
        if findings.is_empty() {
            println!(
                "threaded baseline OK: {} cells at or above {:.0}% of recorded throughput",
                baseline.len(),
                floor * 100.0
            );
            return ExitCode::SUCCESS;
        }
        eprintln!(
            "threaded baseline check FAILED against {path} ({} finding(s), floor {:.0}%):",
            findings.len(),
            floor * 100.0
        );
        for finding in &findings {
            eprintln!("  {finding}");
        }
        eprintln!("if the change is intentional, regenerate with --threaded --write and commit");
        return ExitCode::FAILURE;
    }

    print!("{}", render_threaded(&threaded_baseline_sweep()));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    if args.iter().any(|a| a == "--threaded") {
        return run_threaded(flag_value);
    }
    let tolerance: f64 = flag_value("--tolerance")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.02);

    if let Some(path) = flag_value("--write") {
        let rows = sweep();
        std::fs::write(&path, render(&rows)).expect("write baseline file");
        println!("wrote {} rows to {path}", rows.len());
        return ExitCode::SUCCESS;
    }

    if let Some(path) = flag_value("--splice") {
        let text = std::fs::read_to_string(&path).expect("read baseline file");
        let (spliced, coordinates) = splice(&text, &sweep());
        for coordinate in &coordinates {
            println!("spliced {coordinate}");
        }
        std::fs::write(&path, spliced).expect("write baseline file");
        println!(
            "spliced {} of {} rows in {path}",
            coordinates.len(),
            parse(&text).len()
        );
        return ExitCode::SUCCESS;
    }

    if let Some(path) = flag_value("--check") {
        let text = std::fs::read_to_string(&path).expect("read baseline file");
        let baseline = parse(&text);
        if baseline.is_empty() {
            eprintln!("no rows parsed from {path}; regenerate with --write");
            return ExitCode::FAILURE;
        }
        let current = sweep();
        let (diffs, improved): (Vec<_>, Vec<_>) =
            compare_to_baseline(&baseline, &current, tolerance)
                .into_iter()
                .partition(BaselineDiff::fails);
        if !improved.is_empty() {
            println!(
                "{} cell(s) improved on {path} by more than {:.1}% (not a failure):",
                improved.len(),
                tolerance * 100.0
            );
            for diff in &improved {
                println!("  {diff}");
            }
            println!(
                "the ledger is stale: regenerate those cells with --write and commit the diff"
            );
        }
        if diffs.is_empty() {
            println!(
                "baseline OK: {} cells within {:.1}% control-byte tolerance",
                baseline.len(),
                tolerance * 100.0
            );
            return ExitCode::SUCCESS;
        }
        eprintln!(
            "baseline check FAILED against {path} ({} finding(s), tolerance {:.1}%):",
            diffs.len(),
            tolerance * 100.0
        );
        for diff in &diffs {
            eprintln!("  {diff}");
        }
        eprintln!("if the change is intentional, regenerate with --write and commit the diff");
        return ExitCode::FAILURE;
    }

    // No mode: print the sweep as the JSON array the baseline file stores.
    print!("{}", render(&sweep()));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(protocol: &str, messages: u64, sweep_workers: usize) -> ScenarioMatrixRow {
        ScenarioMatrixRow {
            protocol: protocol.into(),
            distribution: "full".into(),
            workload: "uniform".into(),
            latency: "constant".into(),
            topology: "grid".into(),
            delivery: "batched".into(),
            fault: "none".into(),
            processes: 8,
            messages,
            data_bytes: 64,
            control_bytes: 640,
            control_bytes_per_op: 13.333,
            forwarded: messages / 2,
            drops: 0,
            duplicates: 0,
            virtual_nanos: 80_000,
            sweep_workers,
        }
    }

    #[test]
    fn splice_rewrites_only_the_rows_whose_deterministic_columns_moved() {
        let recorded = [row("causal-full", 40, 2), row("pram-partial", 12, 2)];
        let ledger = render(&recorded);
        // A new sweep: causal-full sends fewer messages, and every row ran
        // on a host with a different worker count.
        let current = [row("causal-full", 30, 16), row("pram-partial", 12, 16)];
        let (spliced, coordinates) = splice(&ledger, &current);
        assert_eq!(coordinates, vec![recorded[0].coordinate()]);
        let lines: Vec<&str> = spliced.lines().collect();
        let old: Vec<&str> = ledger.lines().collect();
        assert_eq!(lines.len(), old.len());
        // The moved row takes the new deterministic columns and keeps the
        // recorded host column and its trailing comma…
        let expected = ScenarioMatrixRow {
            sweep_workers: 2,
            ..current[0].clone()
        };
        assert_eq!(lines[1], format!("{},", expected.to_json()));
        // …and every other line is untouched, byte for byte.
        assert_eq!(lines[0], old[0]);
        assert_eq!(lines[2], old[2]);
        assert_eq!(lines[3], old[3]);
        // Splicing again finds nothing left to move.
        assert!(splice(&spliced, &current).1.is_empty());
    }
}
