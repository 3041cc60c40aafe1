//! Figure-by-figure reproduction: every figure of the paper is regenerated
//! programmatically and its claim is checked (these are the same artefacts
//! the `bench` crate's `figures` binary prints).

use apps::{
    bellman_ford_distribution, counter_var, distance_var, run_bellman_ford,
    shortest_paths_reference, Network,
};
use dsm::{DynDsm, ProtocolKind};
use histories::enumerate_hoops;
use histories::figures;
use histories::{check, Criterion};
use histories::{has_dependency_chain, ChainOrder};
use histories::{Distribution, ProcId, ReadFrom, ShareGraph, VarId};
use simnet::SimConfig;
use std::collections::BTreeSet;

#[test]
fn figure1_share_graph() {
    let sg = ShareGraph::new(&figures::fig1_distribution());
    assert_eq!(sg.process_count(), 3);
    assert_eq!(sg.clique(VarId(0)), BTreeSet::from([ProcId(0), ProcId(1)]));
    assert_eq!(sg.clique(VarId(1)), BTreeSet::from([ProcId(0), ProcId(2)]));
    assert!(!sg.has_edge(ProcId(1), ProcId(2)));
}

#[test]
fn figure2_hoop_enumeration() {
    for k in 1..=4 {
        let sg = ShareGraph::new(&figures::fig2_distribution(k));
        let hoops = enumerate_hoops(&sg, VarId(0), k + 4);
        assert_eq!(hoops.len(), 1);
        assert_eq!(hoops[0].intermediates().len(), k);
    }
}

#[test]
fn figure3_dependency_chain() {
    let h = figures::fig3_history(2);
    let rf = ReadFrom::infer(&h).unwrap();
    let hoop = figures::fig2_hoop(2);
    assert!(has_dependency_chain(&h, &rf, ChainOrder::Causal, &hoop).is_some());
    assert!(has_dependency_chain(&h, &rf, ChainOrder::Pram, &hoop).is_none());
    assert!(check(&h, Criterion::Causal).consistent);
}

#[test]
fn figure4_classification() {
    let h = figures::fig4_history();
    assert!(!check(&h, Criterion::Causal).consistent);
    assert!(check(&h, Criterion::LazyCausal).consistent);
    assert!(check(&h, Criterion::LazySemiCausal).consistent);
    assert!(check(&h, Criterion::Pram).consistent);
}

#[test]
fn figure5_classification() {
    let h = figures::fig5_history();
    assert!(!check(&h, Criterion::Causal).consistent);
    assert!(!check(&h, Criterion::LazyCausal).consistent);
    assert!(check(&h, Criterion::Pram).consistent);
}

#[test]
fn figure6_classification() {
    let h = figures::fig6_history();
    assert!(!check(&h, Criterion::LazySemiCausal).consistent);
    assert!(!check(&h, Criterion::LazyCausal).consistent);
    assert!(!check(&h, Criterion::Causal).consistent);
    assert!(check(&h, Criterion::Pram).consistent);
}

#[test]
fn figure7_and_8_distributed_bellman_ford() {
    let net = Network::fig8();
    let run = run_bellman_ford(ProtocolKind::PramPartial, &net, 0, SimConfig::default()).unwrap();
    assert!(run.converged);
    assert_eq!(run.distances, shortest_paths_reference(&net, 0));
    assert_eq!(run.distances, vec![0, 2, 1, 3, 4]);
}

#[test]
fn figure9_one_iteration_step_is_pram_consistent() {
    // Reproduce the Figure 9 pattern: record the operations each process
    // performs during one iteration of the protocol (after the previous
    // iteration's writes have been delivered) and check the recorded
    // history is PRAM consistent and reads predecessors' values written in
    // their program order.
    let net = Network::fig8();
    let n = net.node_count();
    let dist = bellman_ford_distribution(&net);
    let mut dsm = DynDsm::new(ProtocolKind::PramPartial, dist);

    // Iteration k-1: every process publishes x_i then k_i (unique values so
    // the read-from relation is unambiguous for the checker).
    for i in 0..n {
        dsm.write(ProcId(i), distance_var(i), 100 + i as i64)
            .unwrap();
        dsm.write(ProcId(i), counter_var(n, i), 1000 + i as i64)
            .unwrap();
    }
    dsm.settle();

    // Iteration k: every process reads each predecessor's counter and
    // distance (in that order, mirroring the barrier then the update of
    // Figure 7), then publishes its own next values.
    for i in 0..n {
        for h in net.predecessors(i) {
            let kh = dsm.read(ProcId(i), counter_var(n, h)).unwrap();
            assert_eq!(kh.as_int(), Some(1000 + h as i64), "sees k_h of step k-1");
            let xh = dsm.read(ProcId(i), distance_var(h)).unwrap();
            assert_eq!(xh.as_int(), Some(100 + h as i64), "sees x_h of step k-1");
        }
        dsm.write(ProcId(i), distance_var(i), 200 + i as i64)
            .unwrap();
        dsm.write(ProcId(i), counter_var(n, i), 2000 + i as i64)
            .unwrap();
    }
    dsm.settle();

    let h = dsm.history();
    assert!(check(&h, Criterion::Pram).consistent, "{}", h.pretty());
}

#[test]
fn figure9_protocol_correctness_needs_only_per_writer_order() {
    // The text under Figure 9: "the protocol correctly runs if each process
    // reads the values written by each of its neighbours according to their
    // program order". Verify that property on the recorded run: for each
    // reader, the sequence of values it observes from one writer's variable
    // never goes backwards with respect to the writer's write sequence.
    let net = Network::fig8();
    let n = net.node_count();
    let dist = bellman_ford_distribution(&net);
    let mut dsm = DynDsm::new(ProtocolKind::PramPartial, dist);

    // Writer 2 (paper's p3) publishes three successive distance values.
    for (step, value) in [(1, 10), (2, 20), (3, 30)] {
        dsm.write(ProcId(2), distance_var(2), value).unwrap();
        dsm.write(ProcId(2), counter_var(n, 2), step).unwrap();
        // Interleave partial delivery to create interesting schedules.
        for _ in 0..step {
            dsm.step();
        }
    }
    dsm.settle();
    // Reader 4 (paper's p5) replicates x3: its final view is the last write.
    assert_eq!(dsm.peek(ProcId(4), distance_var(2)).as_int(), Some(30));
    assert_eq!(dsm.peek(ProcId(4), counter_var(n, 2)).as_int(), Some(3));
    // And the run respected FIFO per writer (checked internally by the
    // protocol's sequence tracker; a violation would have tripped its
    // debug assertion). The recorded history is PRAM consistent:
    let h = dsm.history();
    assert!(check(&h, Criterion::Pram).consistent);
}

#[test]
fn figure8_distribution_matches_paper_listing() {
    let net = Network::fig8();
    let d = bellman_ford_distribution(&net);
    // X_1 = {x1, k1}
    assert_eq!(
        d.vars_of(ProcId(0)),
        &BTreeSet::from([distance_var(0), counter_var(5, 0)])
    );
    // X_4 = {x2, x3, x4, k2, k3, k4}
    assert_eq!(
        d.vars_of(ProcId(3)),
        &BTreeSet::from([
            distance_var(1),
            distance_var(2),
            distance_var(3),
            counter_var(5, 1),
            counter_var(5, 2),
            counter_var(5, 3)
        ])
    );
    // X_5 = {x3, x4, x5, k3, k4, k5}
    assert_eq!(
        d.vars_of(ProcId(4)),
        &BTreeSet::from([
            distance_var(2),
            distance_var(3),
            distance_var(4),
            counter_var(5, 2),
            counter_var(5, 3),
            counter_var(5, 4)
        ])
    );
}

#[test]
fn figure_distributions_induce_the_expected_relevance_sets() {
    // Figure 6's distribution: [p1, p2, p3] is an x-hoop, so p2 is
    // x-relevant although it does not replicate x; p4 is in C(x).
    let d = figures::fig6_distribution();
    let relevant = histories::relevant_processes(&d, VarId(0), 6);
    assert!(
        relevant.contains(&ProcId(1)),
        "p2 is x-relevant via the hoop"
    );
    assert_eq!(
        relevant,
        BTreeSet::from([ProcId(0), ProcId(1), ProcId(2), ProcId(3)])
    );
    // Under full replication of x the hoop disappears.
    let mut full = Distribution::full(4, 3);
    full.assign(ProcId(0), VarId(0));
    let rel_full = histories::relevant_processes(&full, VarId(0), 6);
    assert_eq!(rel_full.len(), 4);
}
