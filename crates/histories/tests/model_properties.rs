//! Property-based tests of the formal model (histories crate): the
//! criterion hierarchy, serialization-search soundness, share-graph / hoop
//! invariants, and the Theorem 1 / Theorem 2 statements on random inputs.

use histories::{
    check, enumerate_hoops, has_dependency_chain, hoop_intermediaries, relevant_processes,
    witness_history, ChainOrder, Criterion, Distribution, History, HistoryBuilder, ProcId,
    ReadFrom, ShareGraph, Value, VarId,
};
use proptest::prelude::*;

/// Generate a random history by simulating an atomic (single-copy) shared
/// memory with a random interleaving: such histories are sequentially
/// consistent by construction, hence consistent under every criterion.
fn atomic_history() -> impl Strategy<Value = History> {
    (
        2usize..=4,
        1usize..=3,
        proptest::collection::vec((0usize..4, 0usize..3, any::<bool>()), 1..14),
    )
        .prop_map(|(procs, vars, script)| {
            let mut hb = HistoryBuilder::new(procs);
            let mut memory = vec![Value::Bottom; vars];
            let mut next = 1i64;
            for (p, v, is_write) in script {
                let p = ProcId(p % procs);
                let v_idx = v % vars;
                let var = VarId(v_idx);
                if is_write {
                    hb.write(p, var, next);
                    memory[v_idx] = Value::Int(next);
                    next += 1;
                } else {
                    hb.read(p, var, memory[v_idx]);
                }
            }
            hb.build()
        })
}

/// Generate a history where each read returns the value of a *random*
/// earlier write to its variable (or ⊥): a mix of consistent and
/// inconsistent histories, used for the one-way hierarchy implications.
fn arbitrary_history() -> impl Strategy<Value = History> {
    (
        2usize..=4,
        1usize..=3,
        proptest::collection::vec((0usize..4, 0usize..3, any::<bool>(), any::<u16>()), 1..12),
    )
        .prop_map(|(procs, vars, script)| {
            let mut hb = HistoryBuilder::new(procs);
            let mut written: Vec<Vec<i64>> = vec![Vec::new(); vars];
            let mut next = 1i64;
            for (p, v, is_write, pick) in script {
                let p = ProcId(p % procs);
                let v_idx = v % vars;
                let var = VarId(v_idx);
                if is_write {
                    hb.write(p, var, next);
                    written[v_idx].push(next);
                    next += 1;
                } else {
                    let options = &written[v_idx];
                    let choice = (pick as usize) % (options.len() + 1);
                    if choice == options.len() {
                        hb.read_bottom(p, var);
                    } else {
                        hb.read_int(p, var, options[choice]);
                    }
                }
            }
            hb.build()
        })
}

fn random_distribution() -> impl Strategy<Value = Distribution> {
    (3usize..=7, 2usize..=5, 1usize..=3, any::<u64>())
        .prop_map(|(p, v, r, seed)| Distribution::random(p, v, r.min(p), seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn atomic_histories_satisfy_every_criterion(h in atomic_history()) {
        for criterion in Criterion::ALL {
            let report = check(&h, criterion);
            prop_assert!(report.consistent, "{criterion} failed on:\n{}", h.pretty());
        }
    }

    #[test]
    fn criterion_hierarchy_is_one_way(h in arbitrary_history()) {
        // Sequential ⇒ Causal ⇒ Lazy Causal ⇒ Lazy Semi-Causal,
        // and Causal ⇒ PRAM (each relation is a subset of the previous).
        let sequential = check(&h, Criterion::Sequential).consistent;
        let causal = check(&h, Criterion::Causal).consistent;
        let lazy = check(&h, Criterion::LazyCausal).consistent;
        let lazy_semi = check(&h, Criterion::LazySemiCausal).consistent;
        let pram = check(&h, Criterion::Pram).consistent;
        if sequential { prop_assert!(causal, "sequential but not causal:\n{}", h.pretty()); }
        if causal { prop_assert!(lazy, "causal but not lazy causal:\n{}", h.pretty()); }
        if lazy { prop_assert!(lazy_semi, "lazy causal but not lazy semi-causal:\n{}", h.pretty()); }
        if causal { prop_assert!(pram, "causal but not PRAM:\n{}", h.pretty()); }
    }

    #[test]
    fn share_graph_and_hoop_invariants(dist in random_distribution()) {
        let sg = ShareGraph::new(&dist);
        // Clique members are exactly the replicas.
        for x in 0..dist.var_count() {
            let var = VarId(x);
            prop_assert_eq!(sg.clique(var), dist.replicas_of(var));
        }
        // Hoops: endpoints in the clique, intermediates outside it, edge
        // labels never equal to the hoop variable, and the path is simple.
        for x in 0..dist.var_count() {
            let var = VarId(x);
            let clique = sg.clique(var);
            for hoop in enumerate_hoops(&sg, var, 6) {
                prop_assert!(clique.contains(&hoop.start()));
                prop_assert!(clique.contains(&hoop.end()));
                prop_assert!(hoop.start() != hoop.end());
                for p in hoop.intermediates() {
                    prop_assert!(!clique.contains(p));
                }
                for v in &hoop.edge_vars {
                    prop_assert!(*v != var);
                }
                let unique: std::collections::BTreeSet<_> = hoop.path.iter().collect();
                prop_assert_eq!(unique.len(), hoop.path.len(), "simple path");
                prop_assert_eq!(hoop.edge_vars.len() + 1, hoop.path.len());
            }
        }
    }

    #[test]
    fn theorem1_and_2_on_random_distributions(dist in random_distribution()) {
        let sg = ShareGraph::new(&dist);
        for x in 0..dist.var_count() {
            let var = VarId(x);
            let relevant = relevant_processes(&dist, var, 6);
            // Theorem 1: relevant = C(x) ∪ hoop interiors.
            let mut expected = sg.clique(var);
            expected.extend(hoop_intermediaries(&sg, var, 6));
            prop_assert_eq!(&relevant, &expected);

            // Necessity: for every hoop, the witness history creates a
            // causal chain; Theorem 2: never a PRAM chain.
            for hoop in enumerate_hoops(&sg, var, 5) {
                let h = witness_history(&hoop).unwrap();
                let rf = ReadFrom::infer(&h).unwrap();
                prop_assert!(has_dependency_chain(&h, &rf, ChainOrder::Causal, &hoop).is_some());
                prop_assert!(has_dependency_chain(&h, &rf, ChainOrder::Pram, &hoop).is_none());
            }
        }
    }

    #[test]
    fn full_replication_never_has_hoops(procs in 2usize..=6, vars in 1usize..=4) {
        let dist = Distribution::full(procs, vars);
        let sg = ShareGraph::new(&dist);
        for x in 0..vars {
            prop_assert!(enumerate_hoops(&sg, VarId(x), 8).is_empty());
            prop_assert_eq!(relevant_processes(&dist, VarId(x), 8).len(), procs);
        }
    }
}
