//! The paper's case study (§6): distributed Bellman-Ford routing over a
//! PRAM-consistent, partially replicated shared memory.
//!
//! Run with (any other command line exits with status 2 and a usage line):
//! ```text
//! cargo run --example bellman_ford_routing            # the Figure 8 network
//! cargo run --example bellman_ford_routing -- 40 3    # 40 nodes (at least 2), seed 3 (default 1)
//! ```
//!
//! The example runs the Figure 7 algorithm on the Figure 8 network (or a
//! random network), verifies the distances against a sequential
//! Bellman-Ford, and compares the message/control cost of deploying the
//! same computation over the four MCS protocols — all selected at runtime
//! from their [`dsm::ProtocolKind`] values.

use apps::{bellman_ford_distribution, run_bellman_ford, shortest_paths_reference, Network};
use dsm::ProtocolKind;
use histories::ProcId;
use simnet::SimConfig;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let random = match args.as_slice() {
        [] => Some(None),
        [n] | [n, _] => {
            let seed = args.get(1).map_or(Some(1), |seed| seed.parse().ok());
            let n = n.parse().ok().filter(|&n: &usize| n >= 2);
            n.zip(seed).map(Some)
        }
        _ => None,
    };
    let Some(random) = random else {
        eprintln!("usage: bellman_ford_routing [NODES [SEED]] (NODES at least 2)");
        return ExitCode::from(2);
    };
    let net = if let Some((n, seed)) = random {
        println!("random network: {n} nodes, seed {seed}");
        Network::random_reachable(n, 2 * n, 9, seed)
    } else {
        println!("network: Figure 8 (5 nodes, 8 links)");
        Network::fig8()
    };

    let dist = bellman_ford_distribution(&net);
    println!(
        "variable distribution: {} processes, {} variables, mean replication factor {:.2}",
        dist.process_count(),
        dist.var_count(),
        dist.mean_replication_factor()
    );
    for p in 0..dist.process_count().min(5) {
        println!("  X_{} = {:?}", p + 1, dist.vars_of(ProcId(p)));
    }

    let reference = shortest_paths_reference(&net, 0);

    println!(
        "\n{:<16} {:>10} {:>12} {:>14} {:>8} {:>6}",
        "protocol", "messages", "data bytes", "control bytes", "rounds", "ok"
    );
    let runs: Vec<_> = ProtocolKind::ALL
        .iter()
        .map(|&kind| {
            let run = run_bellman_ford(kind, &net, 0, SimConfig::default());
            (kind, run.expect("node 0 exists in every network"))
        })
        .collect();
    for (kind, run) in &runs {
        let ok = run.converged && run.distances == reference;
        println!(
            "{:<16} {:>10} {:>12} {:>14} {:>8} {:>6}",
            kind.name(),
            run.report.messages(),
            run.report.data_bytes(),
            run.report.control_bytes(),
            run.rounds,
            ok
        );
    }

    let by_kind = |k: ProtocolKind| &runs.iter().find(|(kind, _)| *kind == k).unwrap().1;
    let pram = by_kind(ProtocolKind::PramPartial);
    println!("\nshortest distances from node 1: {:?}", pram.distances);
    println!("sequential reference:            {reference:?}");
    let (cfull, pram) = (&by_kind(ProtocolKind::CausalFull).report, &pram.report);
    if pram.control_bytes() > 0 {
        println!(
            "\ncontrol-byte ratio causal-full / pram-partial: {:.2}x",
            cfull.control_bytes() as f64 / pram.control_bytes() as f64
        );
    }
    ExitCode::SUCCESS
}
