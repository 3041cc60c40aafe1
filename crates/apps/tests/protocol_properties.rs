//! Property-based tests of the executable protocols: for randomized
//! workloads over randomized variable distributions, the recorded histories
//! satisfy the advertised consistency criteria, the protocols converge, and
//! the control-information locality invariants hold. All runs go through
//! the scenario engine's runtime-dispatched execution path.

use apps::apply_script;
use apps::{generate_family_ops, run_script, SettlePolicy, WorkloadFamily, WorkloadOp};
use dsm::ProtocolKind;
use histories::{check, Criterion, Distribution, VarId};
use proptest::prelude::*;
use simnet::SimConfig;

/// Strategy: a random distribution plus a workload seed, kept small enough
/// that the serialization-search checkers stay fast.
fn small_setup() -> impl Strategy<Value = (Distribution, u64)> {
    (
        2usize..=5,
        2usize..=6,
        1usize..=3,
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(procs, vars, replicas, dseed, wseed)| {
            let replicas = replicas.min(procs);
            (Distribution::random(procs, vars, replicas, dseed), wseed)
        })
}

/// A uniform random script over `dist`: 4 ops per process, a settle
/// every 3.
fn script(dist: &Distribution, write_ratio: f64, seed: u64) -> Vec<WorkloadOp> {
    let family = WorkloadFamily::Uniform { write_ratio };
    generate_family_ops(dist, &family, 4, SettlePolicy::Every(3), seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn pram_partial_histories_are_pram_consistent((dist, seed) in small_setup()) {
        let ops = script(&dist, 0.5, seed);
        let out = run_script(ProtocolKind::PramPartial, &dist, &ops, SimConfig::default(), true);
        prop_assert!(check(&out.history, Criterion::Pram).consistent,
            "history:\n{}", out.history.pretty());
    }

    #[test]
    fn causal_full_histories_are_causally_consistent((dist, seed) in small_setup()) {
        let ops = script(&dist, 0.5, seed);
        let out = run_script(ProtocolKind::CausalFull, &dist, &ops, SimConfig::default(), true);
        prop_assert!(check(&out.history, Criterion::Causal).consistent,
            "history:\n{}", out.history.pretty());
        // Causal implies every weaker criterion the paper discusses.
        prop_assert!(check(&out.history, Criterion::LazyCausal).consistent);
        prop_assert!(check(&out.history, Criterion::Pram).consistent);
    }

    #[test]
    fn causal_partial_histories_are_causally_consistent((dist, seed) in small_setup()) {
        let ops = script(&dist, 0.5, seed);
        let out = run_script(ProtocolKind::CausalPartial, &dist, &ops, SimConfig::default(), true);
        prop_assert!(check(&out.history, Criterion::Causal).consistent,
            "history:\n{}", out.history.pretty());
    }

    #[test]
    fn sequential_histories_are_pram_consistent((dist, seed) in small_setup()) {
        let ops = script(&dist, 0.5, seed);
        let out = run_script(ProtocolKind::Sequential, &dist, &ops, SimConfig::default(), true);
        prop_assert!(check(&out.history, Criterion::Pram).consistent,
            "history:\n{}", out.history.pretty());
    }

    #[test]
    fn pram_metadata_never_leaves_the_replica_set((dist, seed) in small_setup()) {
        let ops = script(&dist, 0.5, seed);
        let out = run_script(ProtocolKind::PramPartial, &dist, &ops, SimConfig::default(), false);
        for x in 0..dist.var_count() {
            let var = VarId(x);
            prop_assert!(out.control.relevant_nodes(var).is_subset(&dist.replicas_of(var)));
        }
    }

    #[test]
    fn pram_partial_control_cost_never_exceeds_causal_partial((dist, seed) in small_setup()) {
        let ops = script(&dist, 0.5, seed);
        let pram = run_script(ProtocolKind::PramPartial, &dist, &ops, SimConfig::default(), false);
        let causal = run_script(ProtocolKind::CausalPartial, &dist, &ops, SimConfig::default(), false);
        prop_assert!(pram.control_bytes() <= causal.control_bytes());
        prop_assert!(pram.messages() <= causal.messages());
    }

    #[test]
    fn replica_convergence_after_settle((dist, seed) in small_setup()) {
        // After all messages are delivered, every replica of a variable
        // written by a *single* writer holds that writer's last value.
        let ops = script(&dist, 1.0, seed);
        // Restrict to one writer per variable: keep only the first writer
        // seen for each variable.
        let mut writer_of = std::collections::BTreeMap::new();
        let mut last_value = std::collections::BTreeMap::new();
        let filtered: Vec<_> = ops
            .iter()
            .filter(|op| match op {
                WorkloadOp::Write { proc, var, value } => {
                    let w = writer_of.entry(*var).or_insert(*proc);
                    if w == proc {
                        last_value.insert(*var, *value);
                        true
                    } else {
                        false
                    }
                }
                _ => true,
            })
            .cloned()
            .collect();
        let out = run_script(ProtocolKind::PramPartial, &dist, &filtered, SimConfig::default(), true);
        // Re-execute to inspect final replica state through a fresh system.
        let mut dsm = dsm::DynDsm::new(ProtocolKind::PramPartial, dist.clone());
        apply_script(&mut dsm, &filtered, None);
        for (var, value) in &last_value {
            for replica in dist.replicas_of(*var) {
                prop_assert_eq!(dsm.peek(replica, *var).as_int(), Some(*value),
                    "replica {:?} of {:?}", replica, var);
            }
        }
        let settles = filtered.iter().filter(|o| matches!(o, WorkloadOp::Settle)).count() as u64;
        prop_assert!(out.operations >= filtered.len() as u64 - settles);
    }
}
