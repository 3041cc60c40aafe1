//! End-to-end validation of Theorems 1 and 2: the formal characterization
//! of x-relevant processes (histories crate) matches what the executable
//! protocols (dsm crate) actually do on the wire.

use apps::{generate_family_ops, run_script, SettlePolicy, WorkloadFamily};
use dsm::ProtocolKind;
use histories::hoop_intermediaries;
use histories::{check, enumerate_hoops, Criterion, Distribution, ProcId, ShareGraph, VarId};
use histories::{
    pram_chain_violations, relevant_processes, witness_has_causal_chain, witness_history,
};
use simnet::SimConfig;
use std::collections::BTreeSet;

/// A chain-shaped distribution with one long hoop for x0.
fn chain_distribution(intermediates: usize) -> Distribution {
    histories::figures::fig2_distribution(intermediates)
}

#[test]
fn theorem1_witness_construction_holds_for_every_hoop_length() {
    for k in 1..=5 {
        let dist = chain_distribution(k);
        let sg = ShareGraph::new(&dist);
        let hoops = enumerate_hoops(&sg, VarId(0), k + 3);
        assert_eq!(hoops.len(), 1, "k={k}");
        // The witness history is causally consistent and forces an
        // x-dependency chain through every intermediate process.
        assert!(witness_has_causal_chain(&hoops[0]).unwrap(), "k={k}");
        let h = witness_history(&hoops[0]).unwrap();
        assert!(check(&h, Criterion::Causal).consistent, "k={k}");
        // Theorem 2: the same history has no PRAM chain along any hoop.
        assert!(pram_chain_violations(&h, &dist, k + 3).is_empty(), "k={k}");
    }
}

#[test]
fn theorem1_relevant_set_contains_clique_and_hoop_interiors() {
    for seed in 0..8 {
        let dist = Distribution::random(7, 5, 2, seed);
        let sg = ShareGraph::new(&dist);
        for x in 0..5 {
            let var = VarId(x);
            let relevant = relevant_processes(&dist, var, 7);
            let clique = sg.clique(var);
            assert!(clique.is_subset(&relevant), "seed {seed} var {x}");
            let interiors = hoop_intermediaries(&sg, var, 7);
            assert!(interiors.is_subset(&relevant), "seed {seed} var {x}");
            assert_eq!(
                relevant,
                clique.union(&interiors).copied().collect::<BTreeSet<_>>(),
                "Theorem 1 characterization, seed {seed} var {x}"
            );
        }
    }
}

#[test]
fn pram_protocol_keeps_metadata_inside_the_replica_set() {
    // Runtime face of Theorem 2: under the PRAM partial-replication
    // protocol, the set of nodes that ever handle metadata about x is
    // contained in C(x), for every variable, on random workloads.
    for seed in 0..5 {
        let dist = Distribution::random(8, 10, 3, seed);
        let ops = generate_family_ops(
            &dist,
            &WorkloadFamily::Uniform { write_ratio: 0.5 },
            15,
            SettlePolicy::Every(5),
            seed,
        );
        let out = run_script(
            ProtocolKind::PramPartial,
            &dist,
            &ops,
            SimConfig::default(),
            false,
        );
        for x in 0..dist.var_count() {
            let var = VarId(x);
            let handled = out.control.relevant_nodes(var);
            let clique = dist.replicas_of(var);
            assert!(
                handled.is_subset(&clique),
                "seed {seed}: {handled:?} ⊄ C({var}) = {clique:?}"
            );
        }
    }
}

#[test]
fn causal_partial_protocol_spreads_metadata_beyond_the_replica_set() {
    // Runtime face of Theorem 1's impossibility: the causal protocol with
    // partially replicated data still makes every node handle metadata
    // about every written variable.
    let dist = chain_distribution(3);
    let n = dist.process_count();
    let ops = generate_family_ops(
        &dist,
        &WorkloadFamily::Uniform { write_ratio: 0.6 },
        8,
        SettlePolicy::Every(4),
        3,
    );
    let out = run_script(
        ProtocolKind::CausalPartial,
        &dist,
        &ops,
        SimConfig::default(),
        false,
    );
    // x0 is replicated only on the two endpoints, yet every node that the
    // workload made a writer of *any* variable caused control records about
    // its variables to reach all n nodes. Check the written variables.
    let mut some_variable_spread_everywhere = false;
    for x in 0..dist.var_count() {
        let handled = out.control.relevant_nodes(VarId(x));
        if handled.len() == n {
            some_variable_spread_everywhere = true;
            let clique = dist.replicas_of(VarId(x));
            assert!(clique.len() < n, "partial replication must be partial");
        }
    }
    assert!(
        some_variable_spread_everywhere,
        "causal-partial must propagate control info beyond C(x)"
    );
}

#[test]
fn recorded_histories_satisfy_the_advertised_criteria() {
    for seed in 0..4 {
        let dist = Distribution::ring_overlap(5);
        let ops = generate_family_ops(
            &dist,
            &WorkloadFamily::Uniform { write_ratio: 0.45 },
            8,
            SettlePolicy::Every(4),
            seed,
        );
        let pram = run_script(
            ProtocolKind::PramPartial,
            &dist,
            &ops,
            SimConfig::default(),
            true,
        );
        assert!(
            check(&pram.history, Criterion::Pram).consistent,
            "seed {seed}:\n{}",
            pram.history.pretty()
        );
        let causal = run_script(
            ProtocolKind::CausalPartial,
            &dist,
            &ops,
            SimConfig::default(),
            true,
        );
        assert!(
            check(&causal.history, Criterion::Causal).consistent,
            "seed {seed}:\n{}",
            causal.history.pretty()
        );
    }
}

#[test]
fn full_replication_makes_every_process_relevant_in_theory_and_practice() {
    let dist = Distribution::full(5, 3);
    // Theory: no hoops exist, C(x) is everyone.
    for x in 0..3 {
        assert_eq!(relevant_processes(&dist, VarId(x), 6).len(), 5);
    }
    // Practice: the causal-full protocol sends metadata about a written
    // variable to every node.
    let ops = vec![
        apps::WorkloadOp::Write {
            proc: ProcId(0),
            var: VarId(0),
            value: 1,
        },
        apps::WorkloadOp::Settle,
    ];
    let out = run_script(
        ProtocolKind::CausalFull,
        &dist,
        &ops,
        SimConfig::default(),
        false,
    );
    assert_eq!(out.control.relevant_nodes(VarId(0)).len(), 5);
}
