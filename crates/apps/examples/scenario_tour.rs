//! A tour of the scenario engine: one driver loop sweeping protocols ×
//! distribution families × workload families × latency models × network
//! topologies × delivery modes × fault families.
//!
//! Run with:
//! ```text
//! cargo run --release --example scenario_tour
//! cargo run --release --example scenario_tour -- 12   # 12 processes
//! ```
//!
//! The sweep is [`apps::standard_grid`] over every execution
//! backend: the grid's rules decide which axis combinations run. The one
//! optional argument is the process count; anything else exits with
//! status 2 and a usage line.
//!
//! Every cell of the sweep goes through the same runtime-dispatched
//! execution path ([`apps::run_scenario`]); there is no
//! per-protocol code anywhere in this file. Sparse topologies (ring, grid,
//! star) run over the overlay routing layer — every logical send is
//! relayed along BFS shortest paths — so all five protocols complete on
//! all of them; the delivery-mode axis additionally runs each topology
//! with tree multicast and control-record batching enabled, and the fault
//! axis re-runs each topology under seeded message drops (with
//! retransmission), duplication (discarded by the link layer), and a
//! scripted crash-restart with snapshot recovery. Cells are independent
//! deterministic simulations, so they execute on a scoped thread fan-out
//! ([`apps::parallel_map`]) and print in sweep order.
//!
//! Histories are recorded and checked against each protocol's *settled*
//! criterion ([`dsm::ProtocolKind::settled_criterion`]): the tour settles
//! after every operation, so no read races an in-flight write and the
//! write-ordering protocols (sequencer, op-log) are held to full
//! sequential consistency, not just their always-guaranteed PRAM. The
//! complete (worst-case exponential) checker verifies
//! histories up to 24 operations; larger causal cells go through the
//! polynomial causal spot-checker (writes-into ∪ program-order cycle and
//! overwritten-read detection) and larger PRAM cells through the PRAM
//! spot-checker, so the tour is an end-to-end correctness sweep at every
//! size. On top of the per-cell checks, lossy and duplicating cells of
//! race-free (producer/consumer) workloads are pinned **equal** to their
//! fault-free sibling cell: link faults may change what the wire pays,
//! never what the protocols deliver.
//!
//! The last column is each cell's [`apps::RunReport::digest`]
//! (its history and every replica's settled values), so a diff of two
//! commits' output shows a change in behaviour, not only in counts.
//! Free-running threaded cells print `-`: their interleaving varies.

use apps::{
    parallel_map, run_all, standard_grid, FaultFamily, RunReport, Scenario, SettlePolicy,
    WorkloadFamily,
};
use histories::{causal_spot_check, check, pram_spot_check, Criterion};
use simnet::{ExecBackend, ThreadedMode};
use std::collections::BTreeMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = match args.as_slice() {
        [] => 5,
        [n] => match n.parse() {
            Ok(n) => n,
            Err(_) => return usage(&format!("the process count must be a number, not {n:?}")),
        },
        [_, extra, ..] => return usage(&format!("unexpected argument {extra:?}")),
    };

    // Every coordinate of the standard grid, on every backend (the grid
    // keeps threaded cells fault-free and on the default latency; the
    // simnet sibling cell is their oracle).
    let base = Scenario {
        name: "tour".into(),
        processes: n,
        variables: n,
        ops_per_process: 4,
        // Settle-synchronize every cell: this is what licenses checking
        // the *settled* criterion below.
        settle: SettlePolicy::Every(1),
        seed: 7,
        record: true,
        ..Scenario::default()
    };
    let scenarios = standard_grid(&base, &ExecBackend::ALL);

    // Independent cells → scoped-thread fan-out; results come back in
    // sweep order, so the printed table is identical to a sequential run.
    let results: Vec<(Scenario, Vec<RunReport>)> = parallel_map(scenarios, |scenario| {
        let reports = run_all(&scenario);
        (scenario, reports)
    });

    println!(
        "{:<66} {:<16} {:>9} {:>7} {:>6} {:>5} {:>13} {:>12} {:>6} {:>16}",
        "scenario",
        "protocol",
        "messages",
        "relayed",
        "drops",
        "dups",
        "ctl bytes",
        "virt time",
        "ok",
        "digest"
    );

    // Fault-free sibling histories, keyed by the label of the fault-free
    // sibling, used to pin lossy/duplicating equivalence below. The
    // fault-free simnet sibling's label additionally pins threaded-replay
    // cells to their simnet sibling.
    let mut baselines: BTreeMap<String, Vec<histories::History>> = BTreeMap::new();
    let mut simnet_baselines: BTreeMap<String, Vec<histories::History>> = BTreeMap::new();
    let mut cells = 0usize;
    let mut full_checks = 0usize;
    let mut causal_spots = 0usize;
    let mut pram_spots = 0usize;
    let mut pinned_equal = 0usize;
    let mut replay_pinned = 0usize;
    for (scenario, reports) in results {
        let (label, faults, workload, backend) = (
            scenario.label(),
            scenario.faults,
            scenario.workload,
            scenario.backend,
        );
        let fault_free = Scenario {
            faults: FaultFamily::None,
            ..scenario
        };
        let coordinate = fault_free.label();
        let backend_free = Scenario {
            backend: ExecBackend::Simnet,
            ..fault_free
        }
        .label();
        if faults == FaultFamily::None {
            let histories: Vec<histories::History> =
                reports.iter().map(|r| r.history.clone()).collect();
            if backend == ExecBackend::Simnet {
                simnet_baselines.insert(backend_free.clone(), histories.clone());
            }
            baselines.insert(coordinate.clone(), histories);
        }
        for (i, report) in reports.iter().enumerate() {
            // The formal checkers run a serialization search that is
            // worst-case exponential; verify small histories completely
            // and spot-check the rest in polynomial time, with the
            // sharper causal scan wherever the protocol advertises
            // causal consistency.
            let ok = if report.history.len() <= 24 {
                full_checks += 1;
                check(&report.history, report.protocol.settled_criterion()).consistent
            } else if report.protocol.settled_criterion() == Criterion::Causal {
                causal_spots += 1;
                causal_spot_check(&report.history).is_ok()
            } else {
                pram_spots += 1;
                pram_spot_check(&report.history).is_ok()
            };
            assert!(ok, "{label}: {} violated its criterion", report.protocol);
            // Link faults must not change what race-free runs deliver:
            // lossy/duplicating producer-consumer cells are bit-identical
            // to their fault-free sibling.
            if matches!(faults, FaultFamily::Lossy | FaultFamily::Duplicating)
                && workload == WorkloadFamily::ProducerConsumer
            {
                let clean = &baselines[&coordinate][i];
                assert_eq!(
                    clean, &report.history,
                    "{label}: {} history diverged from the fault-free run",
                    report.protocol
                );
                pinned_equal += 1;
            }
            // The threaded replay backend re-executes the simnet delivery
            // schedule on real threads: its history must be bit-identical
            // to the simnet sibling cell, every protocol, every workload.
            if backend == ExecBackend::Threaded(ThreadedMode::Replay) {
                let oracle = &simnet_baselines[&backend_free][i];
                assert_eq!(
                    oracle, &report.history,
                    "{label}: {} replay history diverged from simnet",
                    report.protocol
                );
                replay_pinned += 1;
            }
            // A free-running cell's interleaving, and with it its digest,
            // varies from run to run; every other backend's is fixed.
            let digest = if backend == ExecBackend::Threaded(ThreadedMode::FreeRunning) {
                "-".to_owned()
            } else {
                format!("{:016x}", report.digest)
            };
            println!(
                "{:<66} {:<16} {:>9} {:>7} {:>6} {:>5} {:>13} {:>12?} {:>6} {:>16}",
                label,
                report.protocol.name(),
                report.messages(),
                report.forwarded,
                report.drops(),
                report.duplicates(),
                report.control_bytes(),
                report.virtual_time,
                ok,
                digest
            );
            cells += 1;
        }
    }
    println!(
        "\n{cells} scenario cells executed and checked through one runtime-dispatched engine \
         ({full_checks} complete checks, {causal_spots} causal spot-checks, {pram_spots} PRAM \
         spot-checks, {pinned_equal} fault cells pinned equal to their fault-free sibling, \
         {replay_pinned} threaded-replay cells pinned bit-identical to their simnet sibling)."
    );
    ExitCode::SUCCESS
}

fn usage(message: &str) -> ExitCode {
    eprintln!("scenario_tour: {message}");
    eprintln!("usage: scenario_tour [PROCESSES]");
    ExitCode::from(2)
}
