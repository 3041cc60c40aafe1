//! Workspace smoke test: every protocol satisfies its advertised
//! consistency criterion on a small random workload, end to end through all
//! five crates (histories → simnet → dsm → apps), with the formal checker
//! as the judge. The protocol under test is selected at runtime from its
//! [`ProtocolKind`] value, through the scenario engine.

use apps::{run_bellman_ford, run_jacobi, run_lcs, run_matrix_product};
use apps::{run_scenario, Scenario, SettlePolicy, WorkloadFamily};
use apps::{FixedPointProblem, Matrix, Network};
use dsm::{DsmError, ProtocolKind};
use histories::{check, Criterion, ProcId};
use simnet::SimConfig;

fn small_scenario(seed: u64) -> Scenario {
    Scenario {
        processes: 4,
        variables: 5,
        workload: WorkloadFamily::Uniform { write_ratio: 0.5 },
        ops_per_process: 5,
        settle: SettlePolicy::Every(3),
        seed,
        record: true,
        ..Scenario::default()
    }
}

fn assert_protocol_meets(kind: ProtocolKind, criterion: Criterion) {
    for seed in 1..=5u64 {
        let report = run_scenario(kind, &small_scenario(seed));
        let verdict = check(&report.history, criterion);
        assert!(
            verdict.consistent,
            "{criterion} violated by {kind} (seed {seed}):\n{}",
            report.history.pretty()
        );
    }
}

#[test]
fn causal_full_is_causally_consistent() {
    assert_protocol_meets(
        ProtocolKind::CausalFull,
        ProtocolKind::CausalFull.guaranteed_criterion(),
    );
}

#[test]
fn causal_partial_is_causally_consistent() {
    assert_protocol_meets(
        ProtocolKind::CausalPartial,
        ProtocolKind::CausalPartial.guaranteed_criterion(),
    );
}

#[test]
fn pram_partial_is_pram_consistent() {
    assert_protocol_meets(
        ProtocolKind::PramPartial,
        ProtocolKind::PramPartial.guaranteed_criterion(),
    );
}

#[test]
fn sequential_is_sequentially_consistent() {
    // Stronger than the protocol's *guaranteed* criterion (PRAM — reads
    // are wait-free against the local replica): on this workload, whose
    // settle points keep replicas synchronized around every crossing
    // write/read pair, the sequencer's total write order also yields
    // sequentially consistent histories, and this smoke test pins that
    // down.
    assert_protocol_meets(ProtocolKind::Sequential, Criterion::Sequential);
}

#[test]
fn op_log_is_pram_consistent_on_racy_scripts() {
    assert_protocol_meets(
        ProtocolKind::OpLog,
        ProtocolKind::OpLog.guaranteed_criterion(),
    );
}

#[test]
fn write_ordering_protocols_are_sequential_when_settle_synchronized() {
    // Regression test for the criterion-advertisement split: the old
    // single `criterion()` pinned the sequencer (and would have pinned
    // the op-log) at PRAM everywhere, hiding the stronger property its
    // write order actually buys. On settle-synchronized scripts — a
    // settle after every operation, so no read races an in-flight
    // write — both write-ordering protocols must pass the full
    // sequential checker, exactly what `settled_criterion()` advertises.
    for kind in [ProtocolKind::Sequential, ProtocolKind::OpLog] {
        assert_eq!(kind.settled_criterion(), Criterion::Sequential);
        for seed in 1..=5u64 {
            let scenario = Scenario {
                settle: SettlePolicy::Every(1),
                ..small_scenario(seed)
            };
            let report = run_scenario(kind, &scenario);
            let verdict = check(&report.history, kind.settled_criterion());
            assert!(
                verdict.consistent,
                "settled criterion violated by {kind} (seed {seed}):\n{}",
                report.history.pretty()
            );
        }
    }
}

#[test]
fn app_drivers_return_typed_errors_on_bad_input() {
    let (kind, config) = (ProtocolKind::PramPartial, SimConfig::default);
    let net = Network::fig8();
    let n = net.node_count();
    assert!(matches!(
        run_bellman_ford(kind, &net, n, config()),
        Err(DsmError::UnknownProcess { proc }) if proc == ProcId(n)
    ));
    let invalid = |r: Result<(), DsmError>| matches!(r, Err(DsmError::InvalidConfig { .. }));
    let (square, wide) = (Matrix::zeros(2, 2), Matrix::zeros(2, 3));
    let product = |a, b, workers| run_matrix_product(kind, a, b, workers, config()).map(drop);
    assert!(invalid(product(&wide, &wide, 1)));
    assert!(invalid(product(&square, &wide, 1)));
    assert!(invalid(product(&square, &square, 0)));
    assert!(invalid(run_lcs(kind, b"", b"AB", 1, config()).map(drop)));
    assert!(invalid(run_lcs(kind, b"AB", b"AB", 0, config()).map(drop)));
    let problem = FixedPointProblem::random(3, 0.5, 1);
    let jacobi = run_jacobi(kind, &problem, 1e-7, 10, 0, config());
    assert!(invalid(jacobi.map(drop)));
}
