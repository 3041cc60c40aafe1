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
//! ```
//!
//! Those four flags are the whole command line. An unknown flag, a flag
//! without its value, a second mode, or a `--tolerance` that is not a
//! finite non-negative number or comes without `--check` exits with
//! status 2 and a usage line, so a mistyped CI step fails instead of
//! falling back to printing rows.
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

use bench::{
    compare_to_baseline, scenario_matrix, scenario_matrix_large, BaselineDiff, ScenarioMatrixRow,
    BASELINE_COORDS, BASELINE_LARGE_TIERS,
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

/// What the command line asks for.
#[derive(Debug, PartialEq)]
enum Mode {
    /// No mode flag: print the sweep as the JSON array the ledger stores.
    Print,
    /// `--write FILE`: regenerate the whole ledger.
    Write(String),
    /// `--splice FILE`: rewrite only the rows whose deterministic columns
    /// moved.
    Splice(String),
    /// `--check FILE`: gate control bytes against the ledger.
    Check(String),
}

/// A parsed command line: the mode and `--check`'s tolerance.
#[derive(Debug, PartialEq)]
struct Args {
    mode: Mode,
    tolerance: f64,
}

const USAGE: &str =
    "usage: baseline [--write FILE | --splice FILE | --check FILE [--tolerance FRACTION]]";

/// Parse the arguments after the program name. Rejects an unknown flag,
/// a flag without its value, a second mode, and a tolerance that is not
/// a finite non-negative number or comes without `--check`.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut mode = Mode::Print;
    let mut tolerance = None;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || match args.next() {
            Some(v) if !v.starts_with("--") => Ok(v.clone()),
            _ => Err(format!("{flag} needs a value")),
        };
        let chosen = match flag.as_str() {
            "--write" => Mode::Write(value()?),
            "--splice" => Mode::Splice(value()?),
            "--check" => Mode::Check(value()?),
            "--tolerance" => {
                let text = value()?;
                let t: f64 = text
                    .parse()
                    .ok()
                    .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                    .ok_or(format!(
                        "--tolerance takes a finite non-negative fraction (0.02 = 2%), not {text:?}"
                    ))?;
                if tolerance.replace(t).is_some() {
                    return Err("--tolerance given twice".into());
                }
                continue;
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        };
        if mode != Mode::Print {
            return Err(format!("{flag} conflicts with an earlier mode flag"));
        }
        mode = chosen;
    }
    if tolerance.is_some() && !matches!(mode, Mode::Check(_)) {
        return Err("--tolerance applies only to --check".into());
    }
    Ok(Args {
        mode,
        tolerance: tolerance.unwrap_or(0.02),
    })
}

/// The exit for a command line [`parse_args`] rejected.
fn usage_error(message: &str) -> ExitCode {
    eprintln!("baseline: {message}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { mode, tolerance } = match parse_args(&args) {
        Ok(args) => args,
        Err(message) => return usage_error(&message),
    };
    match mode {
        Mode::Print => {
            print!("{}", render(&sweep()));
            ExitCode::SUCCESS
        }
        Mode::Write(path) => {
            let rows = sweep();
            std::fs::write(&path, render(&rows)).expect("write baseline file");
            println!("wrote {} rows to {path}", rows.len());
            ExitCode::SUCCESS
        }
        Mode::Splice(path) => {
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
            ExitCode::SUCCESS
        }
        Mode::Check(path) => check(&path, tolerance),
    }
}

/// The `--check` mode: fail on any control-byte regression past
/// `tolerance` or any shape change; report improvements without failing.
fn check(path: &str, tolerance: f64) -> ExitCode {
    let text = std::fs::read_to_string(path).expect("read baseline file");
    let baseline = parse(&text);
    if baseline.is_empty() {
        eprintln!("no rows parsed from {path}; regenerate with --write");
        return ExitCode::FAILURE;
    }
    let current = sweep();
    let (diffs, improved): (Vec<_>, Vec<_>) = compare_to_baseline(&baseline, &current, tolerance)
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
        println!("the ledger is stale: regenerate those cells with --write and commit the diff");
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
    ExitCode::FAILURE
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

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_four_flags_parse() {
        let parsed = |line: &str| parse_args(&args(line)).unwrap();
        assert_eq!(
            parsed(""),
            Args {
                mode: Mode::Print,
                tolerance: 0.02
            }
        );
        assert_eq!(parsed("--write b.json").mode, Mode::Write("b.json".into()));
        assert_eq!(
            parsed("--splice b.json").mode,
            Mode::Splice("b.json".into())
        );
        assert_eq!(
            parsed("--check b.json --tolerance 0.05"),
            Args {
                mode: Mode::Check("b.json".into()),
                tolerance: 0.05
            }
        );
        assert_eq!(parsed("--tolerance 0 --check b.json").tolerance, 0.0);
    }

    #[test]
    fn a_bad_command_line_is_an_error_not_a_print() {
        for line in [
            // Unknown flags, including the typo that would switch a CI gate off.
            "--chek BENCH_baseline.json",
            "--check BENCH_baseline.json --floor 0.1",
            "BENCH_baseline.json",
            // A flag without its value.
            "--check",
            "--check --tolerance 0.05",
            "--check b.json --tolerance",
            // A tolerance that is not a finite non-negative fraction.
            "--check b.json --tolerance 5%",
            "--check b.json --tolerance -0.1",
            "--check b.json --tolerance NaN",
            "--check b.json --tolerance inf",
            // A tolerance without --check, which alone reads it.
            "--splice b.json --tolerance 0.05",
            // A second mode, or a repeated tolerance.
            "--check b.json --splice b.json",
            "--write b.json --write c.json",
            "--check b.json --tolerance 0.1 --tolerance 0.2",
        ] {
            parse_args(&args(line)).expect_err(line);
        }
        assert!(parse_args(&args("--chek b.json"))
            .unwrap_err()
            .contains("\"--chek\""));
    }

    #[test]
    fn a_rejected_command_line_exits_with_status_2() {
        assert_eq!(usage_error("unknown argument"), ExitCode::from(2));
    }
}
