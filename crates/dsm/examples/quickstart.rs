//! Quickstart: a three-process partially replicated PRAM memory.
//!
//! Run with (any other command line exits with status 2 and a usage line):
//! ```text
//! cargo run --example quickstart                     # pram-partial
//! cargo run --example quickstart -- causal-partial   # pick the protocol
//! ```
//!
//! The example builds the smallest interesting deployment (the Figure 1
//! share graph), issues a few reads and writes, and prints what each node
//! knows — including the key efficiency property: the process that does not
//! replicate a variable never receives any metadata about it. The protocol
//! is chosen at *runtime* from its name, via [`DynDsm`].

use dsm::{DynDsm, ProtocolKind};
use histories::{check, Criterion, Distribution, ProcId, VarId};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let kind = match args.as_slice() {
        [] => Some(ProtocolKind::PramPartial),
        [name] => ProtocolKind::parse(name),
        _ => None,
    };
    let Some(kind) = kind else {
        let names: Vec<&str> = ProtocolKind::ALL.iter().map(|k| k.name()).collect();
        eprintln!("usage: quickstart [{}]", names.join(" | "));
        return ExitCode::from(2);
    };

    // Figure 1 of the paper: p0 shares x0 with p1 and x1 with p2.
    let mut dist = Distribution::new(3, 2);
    dist.assign(ProcId(0), VarId(0));
    dist.assign(ProcId(1), VarId(0));
    dist.assign(ProcId(0), VarId(1));
    dist.assign(ProcId(2), VarId(1));

    let mut dsm = DynDsm::new(kind, dist);

    println!("protocol: {}", dsm.kind());
    println!("processes: {}", dsm.process_count());

    // p0 publishes values on both of its variables.
    dsm.write(ProcId(0), VarId(0), 7).unwrap();
    dsm.write(ProcId(0), VarId(1), 99).unwrap();

    // Deliver the in-flight updates, then read from the sharers.
    dsm.settle();
    let x0_at_p1 = dsm.read(ProcId(1), VarId(0)).unwrap();
    let x1_at_p2 = dsm.read(ProcId(2), VarId(1)).unwrap();
    println!("p1 reads x0 = {x0_at_p1:?}");
    println!("p2 reads x1 = {x1_at_p2:?}");

    // Accessing a variable a process does not replicate is a hard error
    // under partial replication.
    if !kind.is_fully_replicated() {
        let err = dsm.read(ProcId(2), VarId(0)).unwrap_err();
        println!("p2 reading x0 -> error: {err}");
    }

    // Efficiency: p2 never handled any metadata about x0, and p1 never
    // handled any metadata about x1.
    let control = dsm.control_summary();
    println!(
        "x0 metadata handled by: {:?}",
        control.relevant_nodes(VarId(0))
    );
    println!(
        "x1 metadata handled by: {:?}",
        control.relevant_nodes(VarId(1))
    );

    // The recorded history satisfies the protocol's advertised criterion
    // (checked against the formal model, not against the protocol itself).
    let history = dsm.history();
    let criterion: Criterion = kind.guaranteed_criterion();
    let report = check(&history, criterion);
    println!("recorded history:\n{}", history.pretty());
    println!("{criterion} consistent: {}", report.consistent);

    let stats = dsm.network_stats();
    println!(
        "messages: {}, data bytes: {}, control bytes: {}",
        stats.total_messages(),
        stats.total_data_bytes(),
        stats.total_control_bytes()
    );
    ExitCode::SUCCESS
}
