//! Replication efficiency: measure the control-information cost of the five
//! MCS protocols on the same synthetic workload, for growing system sizes.
//!
//! Run with (any other command line exits with status 2 and a usage line):
//! ```text
//! cargo run --release --example replication_efficiency        # up to 16 processes
//! cargo run --release --example replication_efficiency -- 24   # up to 24 processes
//! ```
//!
//! This is a compact, human-readable version of the E1/E3 experiments
//! that the `bench` crate's `efficiency` binary prints: control bytes per
//! operation and the number of processes that end up handling metadata
//! about a given variable, per protocol. All five protocols run through
//! the one scenario engine; no per-protocol code path exists.

use apps::{run_all, DistributionFamily, Scenario, SettlePolicy, WorkloadFamily};
use histories::VarId;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let max_n = match args.as_slice() {
        [] => Some(16),
        [n] => n.parse().ok(),
        _ => None,
    };
    let Some(max_n) = max_n else {
        eprintln!("usage: replication_efficiency [MAX_PROCESSES]");
        return ExitCode::from(2);
    };

    println!("workload: 12 ops/process, 50% writes, replication factor 2\n");
    println!(
        "{:<6} {:<16} {:>12} {:>16} {:>14} {:>22}",
        "procs", "protocol", "messages", "control bytes", "ctl bytes/op", "nodes handling x0 meta"
    );

    let mut n = 4;
    while n <= max_n {
        let scenario = Scenario {
            name: format!("efficiency-{n}"),
            distribution: DistributionFamily::Random { replicas: 2 },
            processes: n,
            variables: 2 * n,
            workload: WorkloadFamily::Uniform { write_ratio: 0.5 },
            ops_per_process: 12,
            settle: SettlePolicy::Every(6),
            seed: 11,
            record: false,
            ..Scenario::default()
        };
        for report in run_all(&scenario) {
            println!(
                "{:<6} {:<16} {:>12} {:>16} {:>14.1} {:>22}",
                n,
                report.protocol.name(),
                report.messages(),
                report.control_bytes(),
                report.control_bytes_per_op(),
                report.control.relevant_nodes(VarId(0)).len()
            );
        }
        println!();
        n *= 2;
    }

    println!(
        "PRAM partial replication keeps both the per-operation control bytes and the\n\
         set of metadata-handling processes bounded by the replica set, while the\n\
         causal protocols pay O(n) vector clocks — and causal-partial additionally\n\
         touches every node with control-only records (Theorem 1)."
    );
    ExitCode::SUCCESS
}
