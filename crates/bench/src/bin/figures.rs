//! Regenerate every figure of the paper as text output.
//!
//! ```text
//! cargo run --release -p bench --bin figures            # all figures
//! cargo run --release -p bench --bin figures -- 4       # only Figure 4
//! ```
//!
//! The one optional argument is a figure number, 1–9 (7 and 8 print
//! together); anything else exits with status 2 and a usage line.

use apps::{
    bellman_ford_distribution, counter_var, distance_var, run_bellman_ford,
    shortest_paths_reference, Network,
};
use dsm::{DynDsm, ProtocolKind};
use histories::check_all;
use histories::enumerate_hoops;
use histories::figures;
use histories::{check, Criterion, Distribution, History, ProcId, ReadFrom, ShareGraph, VarId};
use histories::{has_dependency_chain, ChainOrder};
use histories::{relevant_processes, witness_history};
use simnet::{SimConfig, Topology};
use std::process::ExitCode;

fn header(n: u32, title: &str) {
    println!("\n==================== Figure {n}: {title} ====================");
}

fn classify(h: &History) {
    for report in check_all(h) {
        println!(
            "  {:<18} {}",
            report.criterion.to_string(),
            if report.consistent {
                "consistent"
            } else {
                "violated"
            }
        );
    }
}

fn fig1() {
    header(1, "share graph");
    let d = figures::fig1_distribution();
    let sg = ShareGraph::new(&d);
    for (a, b, label) in sg.edges() {
        println!("  edge {a} -- {b}  label {label:?}");
    }
    for x in 0..2 {
        println!("  C(x{x}) = {:?}", sg.clique(VarId(x)));
    }
}

fn fig2() {
    header(2, "x-hoops");
    for k in 1..=4 {
        let d = figures::fig2_distribution(k);
        let sg = ShareGraph::new(&d);
        let hoops = enumerate_hoops(&sg, VarId(0), k + 4);
        println!(
            "  {k} intermediate(s): {} hoop(s); path {:?}",
            hoops.len(),
            hoops[0].path
        );
    }
}

fn fig3() {
    header(3, "x-dependency chain along a hoop");
    let hoop = figures::fig2_hoop(2);
    let h = witness_history(&hoop).unwrap();
    print!("{}", h.pretty());
    let rf = ReadFrom::infer(&h).unwrap();
    for order in [ChainOrder::Causal, ChainOrder::LazyCausal, ChainOrder::Pram] {
        println!(
            "  chain under {order:?}: {}",
            has_dependency_chain(&h, &rf, order, &hoop).is_some()
        );
    }
    println!(
        "  causally consistent: {}",
        check(&h, Criterion::Causal).consistent
    );
}

fn fig4() {
    header(4, "lazy causal but not causal");
    let h = figures::fig4_history();
    print!("{}", h.pretty());
    classify(&h);
}

fn fig5() {
    header(5, "not lazy causal");
    let h = figures::fig5_history();
    print!("{}", h.pretty());
    classify(&h);
    let d = figures::fig5_distribution();
    println!(
        "  x-relevant processes (Theorem 1): {:?}",
        relevant_processes(&d, VarId(0), 6)
    );
}

fn fig6() {
    header(6, "not lazy semi-causal");
    let h = figures::fig6_history();
    print!("{}", h.pretty());
    classify(&h);
}

fn fig7_8() {
    header(7, "distributed Bellman-Ford (pseudocode of Fig. 7)");
    header(8, "the example network");
    let net = Network::fig8();
    for (a, b, w) in net.edges() {
        println!("  link {} -> {}  cost {w}", a + 1, b + 1);
    }
    let dist = bellman_ford_distribution(&net);
    for p in 0..5 {
        println!("  X_{} = {:?}", p + 1, dist.vars_of(ProcId(p)));
    }
    let run = run_bellman_ford(ProtocolKind::PramPartial, &net, 0, SimConfig::default())
        .expect("the Figure 8 network runs from node 1");
    println!(
        "  distances (distributed, PRAM partial): {:?}",
        run.distances
    );
    println!(
        "  distances (sequential reference):       {:?}",
        shortest_paths_reference(&net, 0)
    );
    let mesh = &run.report;
    println!(
        "  converged: {}, rounds: {}, messages: {}, control bytes: {}",
        run.converged,
        run.rounds,
        mesh.messages(),
        mesh.control_bytes()
    );
    // The same computation on a sparse physical network: a 5-node ring
    // served by the overlay routing layer instead of the implicit mesh.
    let ring_config = SimConfig {
        topology: Some(Topology::ring(net.node_count())),
        ..SimConfig::default()
    };
    let routed = run_bellman_ford(ProtocolKind::PramPartial, &net, 0, ring_config)
        .expect("the ring hosts the Figure 8 network");
    let (mesh_bytes, ring_bytes) = (mesh.control_bytes(), routed.report.control_bytes());
    println!(
        "  control bytes, mesh (direct) vs ring (routed): {} vs {} ({:.2}x), distances match: {}",
        mesh_bytes,
        ring_bytes,
        ring_bytes as f64 / mesh_bytes.max(1) as f64,
        routed.distances == run.distances
    );
}

fn fig9() {
    header(9, "one iteration step of the protocol");
    let net = Network::fig8();
    let n = net.node_count();
    let dist: Distribution = bellman_ford_distribution(&net);
    let mut dsm = DynDsm::new(ProtocolKind::PramPartial, dist);
    for i in 0..n {
        dsm.write(ProcId(i), distance_var(i), 100 + i as i64)
            .unwrap();
        dsm.write(ProcId(i), counter_var(n, i), 1000 + i as i64)
            .unwrap();
    }
    dsm.settle();
    for i in 0..n {
        for h in net.predecessors(i) {
            let _ = dsm.read(ProcId(i), counter_var(n, h)).unwrap();
            let _ = dsm.read(ProcId(i), distance_var(h)).unwrap();
        }
        dsm.write(ProcId(i), distance_var(i), 200 + i as i64)
            .unwrap();
        dsm.write(ProcId(i), counter_var(n, i), 2000 + i as i64)
            .unwrap();
    }
    dsm.settle();
    let h = dsm.history();
    print!("{}", h.pretty());
    println!(
        "  recorded step is PRAM consistent: {}",
        check(&h, Criterion::Pram).consistent
    );
}

const USAGE: &str = "usage: figures [FIGURE]   (FIGURE = 1..9; all figures without it)";

/// Parse the arguments after the program name: none (every figure) or
/// one figure number in 1–9.
fn parse_args(args: &[String]) -> Result<Option<u32>, String> {
    match args {
        [] => Ok(None),
        [figure] => match figure.parse() {
            Ok(n @ 1..=9) => Ok(Some(n)),
            _ => Err(format!(
                "no figure {figure:?}: the paper has figures 1 to 9"
            )),
        },
        [_, extra, ..] => Err(format!("unexpected argument {extra:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let only = match parse_args(&args) {
        Ok(only) => only,
        Err(message) => {
            eprintln!("figures: {message}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let figures: Vec<(u32, fn())> = vec![
        (1, fig1 as fn()),
        (2, fig2),
        (3, fig3),
        (4, fig4),
        (5, fig5),
        (6, fig6),
        (7, fig7_8),
        (9, fig9),
    ];
    for (n, f) in figures {
        if only.is_none() || only == Some(n) || (only == Some(8) && n == 7) {
            f();
        }
    }
    println!();
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_figure_number_or_none_parses_and_anything_else_is_rejected() {
        let parsed = |line: &str| {
            parse_args(
                &line
                    .split_whitespace()
                    .map(String::from)
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(parsed(""), Ok(None));
        for n in 1..=9 {
            assert_eq!(parsed(&n.to_string()), Ok(Some(n)));
        }
        for line in ["abc", "42", "0", "-1", "4 5", "--all"] {
            parsed(line).expect_err(line);
        }
    }
}
