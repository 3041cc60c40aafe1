//! The share graph `SG` (paper §3.1).
//!
//! The share graph is an undirected graph whose vertices are processes; an
//! edge `(i, j)` exists iff some variable is replicated on both `p_i` and
//! `p_j`, and is labelled with the set of such variables. Each variable `x`
//! induces the clique `C(x)` spanned by the processes replicating `x`;
//! `SG = ∪_x C(x)`.

use crate::distribution::Distribution;
use crate::op::{ProcId, VarId};
use std::collections::{BTreeMap, BTreeSet};

/// The share graph of a variable distribution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShareGraph {
    n: usize,
    /// Edge labels, keyed by (min, max) process index.
    labels: BTreeMap<(usize, usize), BTreeSet<VarId>>,
    /// Cliques C(x), indexed by variable.
    cliques: BTreeMap<VarId, BTreeSet<ProcId>>,
}

impl ShareGraph {
    /// Build the share graph of a distribution.
    pub fn new(dist: &Distribution) -> Self {
        let n = dist.process_count();
        let mut labels: BTreeMap<(usize, usize), BTreeSet<VarId>> = BTreeMap::new();
        let mut cliques: BTreeMap<VarId, BTreeSet<ProcId>> = BTreeMap::new();
        for x in 0..dist.var_count() {
            let var = VarId(x);
            let members = dist.replicas_of(var);
            if !members.is_empty() {
                cliques.insert(var, members.clone());
            }
            let members: Vec<ProcId> = members.into_iter().collect();
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    let key = (a.index().min(b.index()), a.index().max(b.index()));
                    labels.entry(key).or_default().insert(var);
                }
            }
        }
        ShareGraph { n, labels, cliques }
    }

    /// Number of processes (vertices).
    pub fn process_count(&self) -> usize {
        self.n
    }

    /// Whether an edge exists between `a` and `b`.
    pub fn has_edge(&self, a: ProcId, b: ProcId) -> bool {
        a != b
            && self
                .labels
                .contains_key(&(a.index().min(b.index()), a.index().max(b.index())))
    }

    /// The label (shared variables) of the edge between `a` and `b`.
    pub(crate) fn edge_label(&self, a: ProcId, b: ProcId) -> BTreeSet<VarId> {
        self.labels
            .get(&(a.index().min(b.index()), a.index().max(b.index())))
            .cloned()
            .unwrap_or_default()
    }

    /// The clique `C(x)`.
    pub fn clique(&self, x: VarId) -> BTreeSet<ProcId> {
        self.cliques.get(&x).cloned().unwrap_or_default()
    }

    /// Neighbours of `p` reachable through an edge whose label contains a
    /// variable different from `x` (the edges usable inside an x-hoop).
    pub(crate) fn neighbours_avoiding(&self, p: ProcId, x: VarId) -> BTreeSet<ProcId> {
        (0..self.n)
            .map(ProcId)
            .filter(|&q| self.has_edge(p, q) && self.edge_label(p, q).iter().any(|&v| v != x))
            .collect()
    }

    /// All undirected edges with their labels.
    pub fn edges(&self) -> impl Iterator<Item = (ProcId, ProcId, &BTreeSet<VarId>)> {
        self.labels
            .iter()
            .map(|(&(a, b), label)| (ProcId(a), ProcId(b), label))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Neighbours of `p` in the share graph.
    fn neighbours(sg: &ShareGraph, p: ProcId) -> BTreeSet<ProcId> {
        (0..sg.n)
            .map(ProcId)
            .filter(|&q| sg.has_edge(p, q))
            .collect()
    }

    /// The Figure 1 distribution: X_i = {x1, x2}, X_j = {x1}, X_k = {x2}
    /// with p_i = p0, p_j = p1, p_k = p2, x1 = VarId(0), x2 = VarId(1).
    fn fig1() -> Distribution {
        let mut d = Distribution::new(3, 2);
        d.assign(ProcId(0), VarId(0));
        d.assign(ProcId(0), VarId(1));
        d.assign(ProcId(1), VarId(0));
        d.assign(ProcId(2), VarId(1));
        d
    }

    #[test]
    fn figure1_share_graph_structure() {
        let sg = ShareGraph::new(&fig1());
        assert_eq!(sg.process_count(), 3);
        assert_eq!(sg.edges().count(), 2);
        assert!(sg.has_edge(ProcId(0), ProcId(1)));
        assert!(sg.has_edge(ProcId(0), ProcId(2)));
        assert!(!sg.has_edge(ProcId(1), ProcId(2)));
        assert_eq!(
            sg.edge_label(ProcId(0), ProcId(1)),
            BTreeSet::from([VarId(0)])
        );
        assert_eq!(
            sg.edge_label(ProcId(0), ProcId(2)),
            BTreeSet::from([VarId(1)])
        );
    }

    #[test]
    fn cliques_match_replica_sets() {
        let sg = ShareGraph::new(&fig1());
        assert_eq!(sg.clique(VarId(0)), BTreeSet::from([ProcId(0), ProcId(1)]));
        assert_eq!(sg.clique(VarId(1)), BTreeSet::from([ProcId(0), ProcId(2)]));
        assert_eq!(sg.clique(VarId(9)), BTreeSet::new());
        assert_eq!(sg.cliques.len(), 2, "variables with a non-empty clique");
    }

    #[test]
    fn clique_members_are_pairwise_adjacent() {
        let d = Distribution::random(7, 5, 4, 11);
        let sg = ShareGraph::new(&d);
        for x in 0..5 {
            let members: Vec<ProcId> = sg.clique(VarId(x)).into_iter().collect();
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    assert!(sg.has_edge(a, b));
                    assert!(sg.edge_label(a, b).contains(&VarId(x)));
                }
            }
        }
    }

    #[test]
    fn full_replication_yields_complete_graph() {
        let sg = ShareGraph::new(&Distribution::full(4, 2));
        assert_eq!(sg.edges().count(), 6);
        for p in 0..4 {
            assert_eq!(neighbours(&sg, ProcId(p)).len(), 3);
        }
    }

    #[test]
    fn disjoint_blocks_yield_empty_graph() {
        let sg = ShareGraph::new(&Distribution::disjoint_blocks(4, 8));
        assert_eq!(sg.edges().count(), 0);
        assert!(neighbours(&sg, ProcId(0)).is_empty());
    }

    #[test]
    fn neighbours_avoiding_excludes_single_variable_edges() {
        // p0-p1 share only x0; p0-p2 share x0 and x1.
        let mut d = Distribution::new(3, 2);
        d.assign(ProcId(0), VarId(0));
        d.assign(ProcId(1), VarId(0));
        d.assign(ProcId(2), VarId(0));
        d.assign(ProcId(0), VarId(1));
        d.assign(ProcId(2), VarId(1));
        let sg = ShareGraph::new(&d);
        let avoid = sg.neighbours_avoiding(ProcId(0), VarId(0));
        assert_eq!(avoid, BTreeSet::from([ProcId(2)]));
        assert_eq!(
            neighbours(&sg, ProcId(0)),
            BTreeSet::from([ProcId(1), ProcId(2)])
        );
    }

    #[test]
    fn edges_iterator_reports_labels() {
        let sg = ShareGraph::new(&fig1());
        let edges: Vec<_> = sg.edges().collect();
        assert_eq!(edges.len(), 2);
        for (a, b, label) in edges {
            assert!(a < b);
            assert!(!label.is_empty());
        }
    }
}
