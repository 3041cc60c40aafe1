//! Variable distributions: which process replicates which variable.
//!
//! In a partially replicated environment each MCS process `p_i` manages a
//! replica of variable `x` iff `x ∈ X_i`, where `X_i` is the set of
//! variables its application process accesses (paper §3). The distribution
//! is the sole input of the share graph and hoop analysis.

use crate::op::{ProcId, VarId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A variable distribution `⟨X_1 … X_n⟩` over `m` variables.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Distribution {
    n_vars: usize,
    per_proc: Vec<BTreeSet<VarId>>,
}

impl Distribution {
    /// An empty distribution over `n_procs` processes and `n_vars` variables.
    pub fn new(n_procs: usize, n_vars: usize) -> Self {
        Distribution {
            n_vars,
            per_proc: vec![BTreeSet::new(); n_procs],
        }
    }

    /// Full replication: every process replicates every variable.
    pub fn full(n_procs: usize, n_vars: usize) -> Self {
        let all: BTreeSet<VarId> = (0..n_vars).map(VarId).collect();
        Distribution {
            n_vars,
            per_proc: vec![all; n_procs],
        }
    }

    /// Disjoint blocks: variable `x_j` is replicated only on process
    /// `j mod n_procs`. No variable is shared, so the share graph has no
    /// edges at all.
    pub fn disjoint_blocks(n_procs: usize, n_vars: usize) -> Self {
        let mut d = Distribution::new(n_procs, n_vars);
        for j in 0..n_vars {
            d.assign(ProcId(j % n_procs), VarId(j));
        }
        d
    }

    /// Ring overlap: process `i` replicates variables `i` and `i+1 (mod m)`
    /// with `m = n_procs`; every adjacent pair of processes shares exactly
    /// one variable, which makes long hoops plentiful. Requires
    /// `n_vars >= n_procs`.
    pub fn ring_overlap(n_procs: usize) -> Self {
        let mut d = Distribution::new(n_procs, n_procs);
        for i in 0..n_procs {
            d.assign(ProcId(i), VarId(i));
            d.assign(ProcId(i), VarId((i + 1) % n_procs));
        }
        d
    }

    /// Random distribution: every variable is replicated on exactly
    /// `replicas` distinct processes chosen uniformly (seeded).
    pub fn random(n_procs: usize, n_vars: usize, replicas: usize, seed: u64) -> Self {
        assert!(
            replicas >= 1 && replicas <= n_procs,
            "invalid replica count"
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut d = Distribution::new(n_procs, n_vars);
        let mut procs: Vec<usize> = (0..n_procs).collect();
        for x in 0..n_vars {
            procs.shuffle(&mut rng);
            for &p in procs.iter().take(replicas) {
                d.assign(ProcId(p), VarId(x));
            }
        }
        d
    }

    /// Declare that process `p` replicates variable `x`.
    pub fn assign(&mut self, p: ProcId, x: VarId) {
        assert!(p.index() < self.per_proc.len(), "process out of range");
        if x.index() >= self.n_vars {
            self.n_vars = x.index() + 1;
        }
        self.per_proc[p.index()].insert(x);
    }

    /// Number of processes.
    pub fn process_count(&self) -> usize {
        self.per_proc.len()
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.n_vars
    }

    /// The set `X_i` of variables replicated on process `p`.
    pub fn vars_of(&self, p: ProcId) -> &BTreeSet<VarId> {
        &self.per_proc[p.index()]
    }

    /// Whether process `p` replicates variable `x`.
    pub fn replicates(&self, p: ProcId, x: VarId) -> bool {
        self.per_proc[p.index()].contains(&x)
    }

    /// The clique `C(x)`: the processes replicating `x`.
    pub fn replicas_of(&self, x: VarId) -> BTreeSet<ProcId> {
        self.per_proc
            .iter()
            .enumerate()
            .filter(|(_, vars)| vars.contains(&x))
            .map(|(i, _)| ProcId(i))
            .collect()
    }

    /// Total number of (process, variable) replica pairs.
    pub(crate) fn replica_count(&self) -> usize {
        self.per_proc.iter().map(|s| s.len()).sum()
    }

    /// Average number of replicas per variable.
    pub fn mean_replication_factor(&self) -> f64 {
        if self.n_vars == 0 {
            0.0
        } else {
            self.replica_count() as f64 / self.n_vars as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_distribution_replicates_everything() {
        let d = Distribution::full(3, 4);
        assert!((0..3).all(|p| d.vars_of(ProcId(p)).len() == 4));
        assert_eq!(d.replica_count(), 12);
        assert_eq!(d.replicas_of(VarId(2)).len(), 3);
        assert!((d.mean_replication_factor() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_blocks_share_nothing() {
        let d = Distribution::disjoint_blocks(3, 7);
        assert_eq!(d.var_count(), 7);
        for a in 0..3 {
            for b in 0..3 {
                if a != b {
                    assert!(d.vars_of(ProcId(a)).is_disjoint(d.vars_of(ProcId(b))));
                }
            }
        }
        for x in 0..7 {
            assert_eq!(d.replicas_of(VarId(x)).len(), 1);
        }
    }

    #[test]
    fn ring_overlap_shares_one_var_between_neighbours() {
        let d = Distribution::ring_overlap(5);
        assert_eq!(d.var_count(), 5);
        let shared = |a, b| {
            d.vars_of(ProcId(a))
                .intersection(d.vars_of(ProcId(b)))
                .count()
        };
        assert_eq!(shared(0, 1), 1);
        assert_eq!(shared(0, 2), 0);
        assert_eq!(d.vars_of(ProcId(3)).len(), 2);
        // Every variable has exactly two replicas.
        for x in 0..5 {
            assert_eq!(d.replicas_of(VarId(x)).len(), 2);
        }
    }

    #[test]
    fn random_distribution_has_exact_replica_counts() {
        let d = Distribution::random(6, 10, 3, 42);
        assert_eq!(d.var_count(), 10);
        for x in 0..10 {
            assert_eq!(d.replicas_of(VarId(x)).len(), 3, "variable {x}");
        }
        // Reproducible.
        assert_eq!(d, Distribution::random(6, 10, 3, 42));
        assert_ne!(d, Distribution::random(6, 10, 3, 43));
    }

    #[test]
    #[should_panic(expected = "invalid replica count")]
    fn random_rejects_zero_replicas() {
        Distribution::random(3, 3, 0, 1);
    }

    #[test]
    fn assign_grows_variable_space() {
        let mut d = Distribution::new(2, 1);
        d.assign(ProcId(0), VarId(5));
        assert_eq!(d.var_count(), 6);
        assert!(d.replicates(ProcId(0), VarId(5)));
        assert!(d.vars_of(ProcId(1)).is_empty());
    }

    #[test]
    fn empty_distribution_statistics() {
        let d = Distribution::new(3, 0);
        assert_eq!(d.mean_replication_factor(), 0.0);
        assert_eq!(d.replica_count(), 0);
    }
}
