//! Regenerate the efficiency experiments (E1–E8 and E10) as text tables.
//!
//! ```text
//! cargo run --release -p bench --bin efficiency
//! cargo run --release -p bench --bin efficiency -- --max-procs 32
//! cargo run --release -p bench --bin efficiency -- --scaling-max 256
//! ```
//!
//! `--max-procs` caps the E1 and E4 size loops; `--scaling-max` caps the
//! E8 scaling sweep (default 1024 — CI passes 64 to bound its run time).
//! Those two flags are the whole command line: an unknown flag, a flag
//! without its value, or a value that is not a number exits with status 2
//! and a usage line.
//!
//! Every number printed is exact: the tables report wire cost, never
//! wall-clock time. E1/E2, E5–E8 and E10 print executed cells
//! ([`bench::run_cells`], [`bench::map_cells`]), each ratio taken against
//! the row's reference run ([`Table::ratio`]); E4 prints Bellman-Ford runs.

use bench::{
    bellman_ford_point, distribution_families, efficiency_cells, map_cells, max_relevant_nodes,
    relevance_fraction, run_cells, scaling_cells, Table,
};
use dsm::ProtocolKind;
use histories::Distribution;
use std::process::ExitCode;

/// The flags of the command line, each setting one size cap.
const FLAGS: [&str; 2] = ["--max-procs", "--scaling-max"];

const USAGE: &str = "usage: efficiency [--max-procs N] [--scaling-max N]";

/// Parse the arguments after the program name into the caps of
/// [`FLAGS`], in order. Rejects an unknown flag, a flag without its value,
/// and a value that is not a number.
fn parse_args(args: &[String]) -> Result<[usize; 2], String> {
    let mut caps = [16, 1024];
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let cap = FLAGS
            .iter()
            .position(|f| f == flag)
            .ok_or(format!("unknown argument {flag:?}"))?;
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        caps[cap] = value
            .parse()
            .map_err(|_| format!("{flag} takes a number, not {value:?}"))?;
    }
    Ok(caps)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [max_procs, scaling_max] = match parse_args(&args) {
        Ok(caps) => caps,
        Err(message) => {
            eprintln!("efficiency: {message}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    println!("E1/E2 — control overhead vs system size (replication factor 2, 10 ops/process, 50% writes)");
    println!(
        "{:>6} {:<16} {:>10} {:>12} {:>14} {:>14} {:>12}",
        "procs",
        "protocol",
        "messages",
        "data bytes",
        "control bytes",
        "ctl bytes/op",
        "max relevant"
    );
    let mut n = 4;
    while n <= max_procs {
        let dist = Distribution::random(n, 2 * n, 2, 7);
        for (cell, report) in run_cells(efficiency_cells(&dist, 10, 11)) {
            println!(
                "{:>6} {:<16} {:>10} {:>12} {:>14} {:>14.1} {:>12}",
                cell.dist.process_count(),
                cell.kind.name(),
                report.messages(),
                report.data_bytes(),
                report.control_bytes(),
                report.control_bytes_per_op(),
                max_relevant_nodes(&cell, &report)
            );
        }
        println!();
        n *= 2;
    }

    println!("E2 — control overhead vs replication factor (12 processes)");
    println!(
        "{:>8} {:<16} {:>14} {:>14}",
        "replicas", "protocol", "control bytes", "ctl bytes/op"
    );
    for replicas in [1, 2, 4, 8, 12] {
        let dist = Distribution::random(12, 24, replicas, 5);
        for (cell, report) in run_cells(efficiency_cells(&dist, 8, 13)) {
            println!(
                "{:>8} {:<16} {:>14} {:>14.1}",
                replicas,
                cell.kind.name(),
                report.control_bytes(),
                report.control_bytes_per_op()
            );
        }
        println!();
    }

    println!(
        "E3 — fraction of x-relevant processes (Theorem 1) by distribution family (10 processes)"
    );
    println!(
        "{:<18} {:>12} {:>22}",
        "family", "repl. factor", "relevant fraction"
    );
    for (name, dist) in distribution_families(10, 3) {
        println!(
            "{:<18} {:>12.2} {:>22.2}",
            name,
            dist.mean_replication_factor(),
            relevance_fraction(&dist, 8)
        );
    }
    println!();

    println!("E4 — distributed Bellman-Ford cost vs network size");
    println!(
        "{:>6} {:<16} {:>10} {:>14} {:>8} {:>8}",
        "nodes", "protocol", "messages", "control bytes", "rounds", "correct"
    );
    let mut n = 5;
    while n <= max_procs {
        for (run, correct) in bellman_ford_point(n, 9) {
            println!(
                "{:>6} {:<16} {:>10} {:>14} {:>8} {:>8}",
                run.distances.len(),
                run.report.protocol.name(),
                run.report.messages(),
                run.report.control_bytes(),
                run.rounds,
                correct
            );
        }
        println!();
        n *= 2;
    }

    println!(
        "E5 — overlay routing cost vs topology (12 processes, same workload on every topology)"
    );
    println!(
        "{:<8} {:<16} {:>10} {:>10} {:>14} {:>14}",
        "topology", "protocol", "messages", "relayed", "control bytes", "ctl vs mesh"
    );
    let runs = run_cells(Table::Routed.cells(12, 8, 7));
    for (row, (cell, report)) in runs.iter().enumerate() {
        println!(
            "{:<8} {:<16} {:>10} {:>10} {:>14} {:>13.2}x",
            cell.topology,
            cell.kind.name(),
            report.messages(),
            report.forwarded,
            report.control_bytes(),
            Table::Routed.ratio(&runs, row, |r| r.control_bytes())
        );
    }
    println!();

    println!(
        "E6 — wire-efficiency of delivery modes (12 processes, same workload and topology per \
         block; control bytes vs the unicast/unbatched wire)"
    );
    println!(
        "{:<8} {:<18} {:<16} {:>10} {:>10} {:>14} {:>15}",
        "topology",
        "delivery",
        "protocol",
        "messages",
        "relayed",
        "control bytes",
        "ctl vs unicast"
    );
    let runs = run_cells(Table::Delivery.cells(12, 8, 7));
    for (row, (cell, report)) in runs.iter().enumerate() {
        println!(
            "{:<8} {:<18} {:<16} {:>10} {:>10} {:>14} {:>14.2}x",
            cell.topology,
            cell.delivery,
            cell.kind.name(),
            report.messages(),
            report.forwarded,
            report.control_bytes(),
            Table::Delivery.ratio(&runs, row, |r| r.control_bytes())
        );
    }
    println!();

    println!(
        "E7 — fault-tolerance overhead (12 processes, producer/consumer workload; control bytes \
         and virtual time vs the fault-free run on the same topology)"
    );
    println!(
        "{:<8} {:<14} {:<16} {:>9} {:>6} {:>5} {:>7} {:>14} {:>12} {:>12}",
        "topology",
        "fault",
        "protocol",
        "messages",
        "drops",
        "dups",
        "lost",
        "control bytes",
        "ctl vs none",
        "time vs none"
    );
    let runs = run_cells(Table::Fault.cells(12, 8, 7));
    for (row, (cell, report)) in runs.iter().enumerate() {
        println!(
            "{:<8} {:<14} {:<16} {:>9} {:>6} {:>5} {:>7} {:>14} {:>11.2}x {:>11.2}x",
            cell.topology,
            cell.fault,
            cell.kind.name(),
            report.messages(),
            report.drops(),
            report.duplicates(),
            report.crash_losses(),
            report.control_bytes(),
            Table::Fault.ratio(&runs, row, |r| r.control_bytes()),
            Table::Fault.ratio(&runs, row, |r| r.virtual_time.as_nanos())
        );
    }
    println!();

    println!(
        "E8 — scaling sweep (random(2) distribution, bulk-phase workload, 8 ops/process; \
         wire cost per operation as the system grows)"
    );
    println!(
        "{:>6} {:<24} {:<16} {:>10} {:>14} {:>10} {:>10}",
        "procs", "delivery", "protocol", "messages", "control bytes", "ctl/op", "events"
    );
    let sizes: Vec<usize> = [64usize, 256, 1024]
        .into_iter()
        .filter(|&n| n <= scaling_max)
        .collect();
    let rows = map_cells(scaling_cells(&sizes, 8, 7), |cell, report| {
        format!(
            "{:>6} {:<24} {:<16} {:>10} {:>14} {:>10.1} {:>10}",
            cell.dist.process_count(),
            cell.delivery,
            cell.kind.name(),
            report.messages(),
            report.control_bytes(),
            report.control_bytes_per_op(),
            report.events
        )
    });
    for row in rows {
        println!("{row}");
    }
    println!();

    println!(
        "E10 — op-log vs sequencer (12 processes, producer/consumer workload; both protocols \
         are sequentially consistent at settle points, so the ratios price the shard log \
         against the centralized sequencer)"
    );
    println!(
        "{:<8} {:<24} {:<14} {:>12} {:>12} {:>12} {:>12} {:>10} {:>11}",
        "topology",
        "delivery",
        "fault",
        "oplog msgs",
        "seq msgs",
        "oplog ctl",
        "seq ctl",
        "ctl vs seq",
        "time vs seq"
    );
    let runs = run_cells(Table::OpLog.cells(12, 8, 7));
    for (row, (cell, oplog)) in runs.iter().enumerate() {
        if cell.kind != ProtocolKind::OpLog {
            continue;
        }
        let seq = Table::OpLog.reference(&runs, row);
        println!(
            "{:<8} {:<24} {:<14} {:>12} {:>12} {:>12} {:>12} {:>9.2}x {:>10.2}x",
            cell.topology,
            cell.delivery,
            cell.fault,
            oplog.messages(),
            seq.messages(),
            oplog.control_bytes(),
            seq.control_bytes(),
            Table::OpLog.ratio(&runs, row, |r| r.control_bytes()),
            Table::OpLog.ratio(&runs, row, |r| r.virtual_time.as_nanos())
        );
    }
    println!();
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_three_caps_parse_and_anything_else_is_rejected() {
        let parsed = |line: &str| parse_args(&args(line));
        assert_eq!(parsed(""), Ok([16, 1024]));
        assert_eq!(parsed("--max-procs 8 --scaling-max 64"), Ok([8, 64]));
        assert_eq!(parsed("--scaling-max 256"), Ok([16, 256]));
        for line in [
            "--bogus",
            "--max-procs abc",
            "--max-procs 8 --bogus",
            "--max-procs",
            "--scaling-max -1",
            "--scaling-max 4.5",
            "--threads-max 4",
            "8",
        ] {
            parsed(line).expect_err(line);
        }
        assert!(parsed("--max-procs abc").unwrap_err().contains("\"abc\""));
    }
}
