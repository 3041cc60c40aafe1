//! Pin the scenario matrix as the checked-in ledger `BENCH_baseline.json`.
//!
//! The scenario matrix is fully deterministic (seeded workloads, seeded
//! channels, deterministic routing, virtual time), so the ledger is a pure
//! function of the code and is checked byte for byte: any change to a
//! protocol's messages, data or control bytes, forwarding, drops,
//! duplicates or virtual time, and any cell that appears or vanishes,
//! fails the check. CI runs it on every push.
//!
//! ```text
//! cargo run --release -p bench --bin baseline -- --write BENCH_baseline.json
//! cargo run --release -p bench --bin baseline -- --check BENCH_baseline.json
//! ```
//!
//! `--check` regenerates the ledger text, prints every line on which it
//! differs from the file (old as `-`, new as `+`, each with its line
//! number) and exits 1 if there is any. An intentional change rewrites the
//! ledger with `--write`; rows come out in sweep order, so the git diff
//! names exactly the cells that moved. Those two modes are the whole
//! command line: anything else exits 2 with a usage line, so a mistyped
//! CI step fails instead of passing.

use bench::{
    scenario_matrix, scenario_matrix_large, ScenarioMatrixRow, BASELINE_COORDS,
    BASELINE_LARGE_TIERS,
};
use std::process::ExitCode;

/// The standard matrix plus the large-tier rows (n = 64 and 256). The
/// large rows are pinned like the rest — wall-clock never enters the
/// ledger.
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

/// The lines on which `old` and `new` differ, as `-N: line` (old) and
/// `+N: line` (new) entries, N being the 1-based line number. The common
/// head and tail are skipped; a middle of equal length is compared line
/// by line, so a moved row is one `-`/`+` pair, and a middle of unequal
/// length (rows added or dropped) is reported whole. Empty exactly when
/// the two texts are byte-identical.
fn differences(old: &str, new: &str) -> Vec<String> {
    let old: Vec<&str> = old.split_inclusive('\n').collect();
    let new: Vec<&str> = new.split_inclusive('\n').collect();
    let head = old.iter().zip(&new).take_while(|(a, b)| a == b).count();
    let tail = old[head..]
        .iter()
        .rev()
        .zip(new[head..].iter().rev())
        .take_while(|(a, b)| a == b)
        .count();
    let old = &old[head..old.len() - tail];
    let new = &new[head..new.len() - tail];
    let entry = |sign: char, i: usize, line: &str| {
        format!("{sign}{}: {}", head + i + 1, line.trim_end_matches('\n'))
    };
    if old.len() == new.len() {
        old.iter()
            .zip(new)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .flat_map(|(i, (a, b))| [entry('-', i, a), entry('+', i, b)])
            .collect()
    } else {
        let dropped = old.iter().enumerate().map(|(i, line)| entry('-', i, line));
        let added = new.iter().enumerate().map(|(i, line)| entry('+', i, line));
        dropped.chain(added).collect()
    }
}

/// What the command line asks for.
#[derive(Debug, PartialEq)]
enum Mode {
    /// `--write FILE`: regenerate the ledger.
    Write(String),
    /// `--check FILE`: compare the regenerated ledger with the file.
    Check(String),
}

const USAGE: &str = "usage: baseline (--write FILE | --check FILE)";

/// Parse the arguments after the program name: exactly one mode flag and
/// its file.
fn parse_args(args: &[String]) -> Result<Mode, String> {
    match args {
        [flag, file] if !file.starts_with("--") => match flag.as_str() {
            "--write" => Ok(Mode::Write(file.clone())),
            "--check" => Ok(Mode::Check(file.clone())),
            _ => Err(format!("unknown argument {flag:?}")),
        },
        _ => Err("expected exactly one of --write FILE or --check FILE".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(mode) => mode,
        Err(message) => {
            eprintln!("baseline: {message}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let rows = sweep();
    let ledger = render(&rows);
    match mode {
        Mode::Write(path) => {
            std::fs::write(&path, ledger).expect("write baseline file");
            println!("wrote {} rows to {path}", rows.len());
            ExitCode::SUCCESS
        }
        Mode::Check(path) => {
            let text = std::fs::read_to_string(&path).expect("read baseline file");
            let diffs = differences(&text, &ledger);
            if diffs.is_empty() {
                println!("baseline OK: {} cells match {path} exactly", rows.len());
                return ExitCode::SUCCESS;
            }
            eprintln!(
                "baseline check FAILED: {path} differs from the regenerated ledger \
                 (- recorded, + now):"
            );
            for diff in &diffs {
                eprintln!("{diff}");
            }
            eprintln!(
                "if the change is intentional, rewrite the ledger with --write and commit the diff"
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(protocol: &str, messages: u64) -> ScenarioMatrixRow {
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
        }
    }

    #[test]
    fn check_reports_each_line_that_moved_and_nothing_else() {
        let recorded = [
            row("causal-full", 40),
            row("pram-partial", 12),
            row("sequential", 9),
        ];
        let ledger = render(&recorded);
        assert!(differences(&ledger, &ledger).is_empty());

        // One cell moved: one -/+ pair naming its line (line 1 is `[`).
        let mut moved = recorded.clone();
        moved[1].data_bytes += 1;
        assert_eq!(
            differences(&ledger, &render(&moved)),
            [
                format!("-3: {},", recorded[1].to_json()),
                format!("+3: {},", moved[1].to_json())
            ]
        );

        // A dropped or an added row is reported alone, lines around it not.
        let dropped = render(&[recorded[0].clone(), recorded[2].clone()]);
        assert_eq!(
            differences(&ledger, &dropped),
            [format!("-3: {},", recorded[1].to_json())]
        );
        assert_eq!(
            differences(&dropped, &ledger),
            [format!("+3: {},", recorded[1].to_json())]
        );

        // A byte that no line shows still differs.
        assert_eq!(differences(&ledger, ledger.trim_end()), ["-5: ]", "+5: ]"]);
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_four_flags_parse() {
        // --write and --check take a file; --splice and --tolerance are
        // gone and now rejected like any unknown flag.
        assert_eq!(
            parse_args(&args("--write b.json")),
            Ok(Mode::Write("b.json".into()))
        );
        assert_eq!(
            parse_args(&args("--check b.json")),
            Ok(Mode::Check("b.json".into()))
        );
        for line in ["--splice b.json", "--check b.json --tolerance 0.05"] {
            parse_args(&args(line)).expect_err(line);
        }
    }

    #[test]
    fn a_bad_command_line_is_an_error_not_a_print() {
        for line in [
            // No mode at all: there is no print mode to fall back on.
            "",
            // Unknown flags, including the typo that would switch a CI gate off.
            "--chek BENCH_baseline.json",
            "--check BENCH_baseline.json --floor 0.1",
            "BENCH_baseline.json",
            // A flag without its value.
            "--check",
            "--check --tolerance 0.05",
            "--check b.json --tolerance",
            // A second mode.
            "--check b.json --splice b.json",
            "--write b.json --write c.json",
        ] {
            parse_args(&args(line)).expect_err(line);
        }
        assert!(parse_args(&args("--chek b.json"))
            .unwrap_err()
            .contains("\"--chek\""));
    }
}
