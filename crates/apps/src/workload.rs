//! Workload scripts: the operation-level language of the scenario engine.
//!
//! A workload is a flat list of [`WorkloadOp`]s — reads, writes, and
//! settle points — that [`crate::scenario::run_script`] replays against a
//! runtime-selected protocol deployment. The generators, one per
//! workload family, live in [`crate::scenario`].

use histories::{ProcId, VarId};

/// One application-level operation of a workload script.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadOp {
    /// `w_p(var)value`
    Write {
        /// Issuing process.
        proc: ProcId,
        /// Written variable.
        var: VarId,
        /// Written value (globally unique within the workload).
        value: i64,
    },
    /// `r_p(var)`
    Read {
        /// Issuing process.
        proc: ProcId,
        /// Read variable.
        var: VarId,
    },
    /// Deliver every in-flight message before continuing.
    Settle,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{generate_family_ops, run_script, SettlePolicy, WorkloadFamily};
    use dsm::ProtocolKind;
    use histories::{check, Criterion, Distribution};
    use simnet::SimConfig;

    fn uniform(
        dist: &Distribution,
        ops_per_process: usize,
        write_ratio: f64,
        settle: SettlePolicy,
        seed: u64,
    ) -> Vec<WorkloadOp> {
        let family = WorkloadFamily::Uniform { write_ratio };
        generate_family_ops(dist, &family, ops_per_process, settle, seed)
    }

    #[test]
    fn generated_workloads_respect_the_distribution() {
        let dist = Distribution::ring_overlap(5);
        let ops = uniform(&dist, 20, 0.4, SettlePolicy::Every(5), 42);
        for op in &ops {
            if let WorkloadOp::Write { proc, var, .. } | WorkloadOp::Read { proc, var } = op {
                assert!(dist.replicates(*proc, *var));
            }
        }
        assert!(ops.iter().any(|o| matches!(o, WorkloadOp::Settle)));
    }

    #[test]
    fn write_values_are_unique() {
        let dist = Distribution::full(4, 3);
        let ops = uniform(&dist, 30, 1.0, SettlePolicy::Every(5), 42);
        let mut values = std::collections::BTreeSet::new();
        for op in &ops {
            if let WorkloadOp::Write { value, .. } = op {
                assert!(values.insert(*value), "duplicate value {value}");
            }
        }
        assert!(!values.is_empty());
    }

    #[test]
    fn workloads_are_reproducible_per_seed() {
        let dist = Distribution::random(6, 8, 3, 9);
        let a = uniform(&dist, 20, 0.4, SettlePolicy::Every(5), 42);
        assert_eq!(a, uniform(&dist, 20, 0.4, SettlePolicy::Every(5), 42));
        assert_ne!(a, uniform(&dist, 20, 0.4, SettlePolicy::Every(5), 43));
    }

    #[test]
    fn settle_every_zero_only_settles_at_the_end() {
        let dist = Distribution::full(3, 2);
        let ops = uniform(&dist, 5, 0.4, SettlePolicy::AtEnd, 42);
        let settles = ops
            .iter()
            .filter(|o| matches!(o, WorkloadOp::Settle))
            .count();
        assert_eq!(settles, 1);
        assert!(matches!(ops.last(), Some(WorkloadOp::Settle)));
    }

    #[test]
    fn executed_histories_pass_the_protocol_criteria() {
        let dist = Distribution::ring_overlap(4);
        let ops = uniform(&dist, 6, 0.5, SettlePolicy::Every(3), 7);
        let pram = run_script(
            ProtocolKind::PramPartial,
            &dist,
            &ops,
            SimConfig::default(),
            true,
        );
        assert!(check(&pram.history, Criterion::Pram).consistent);
        let causal = run_script(
            ProtocolKind::CausalPartial,
            &dist,
            &ops,
            SimConfig::default(),
            true,
        );
        assert!(check(&causal.history, Criterion::Causal).consistent);
    }
}
