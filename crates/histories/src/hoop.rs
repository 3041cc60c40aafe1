//! x-hoops (paper Definition 3).
//!
//! Given a variable `x` and two distinct processes `p_a`, `p_b` in `C(x)`,
//! an *x-hoop* is a path `[p_a = p_0, p_1, …, p_k = p_b]` in the share
//! graph such that
//!
//! 1. the intermediate vertices `p_1 … p_{k-1}` do not belong to `C(x)`, and
//! 2. every consecutive pair `(p_{h-1}, p_h)` shares a variable `x_h ≠ x`.
//!
//! Following the intent of the definition (Figure 2 and the proofs of
//! Theorems 1 and 2), we require at least one intermediate vertex
//! (`k ≥ 2`): a direct edge between two members of `C(x)` labelled with
//! another variable adds no process outside `C(x)` and creates no
//! propagation obligation beyond the clique, so it is not counted as a
//! hoop. This module enumerates hoops (as simple paths) and answers the
//! derived question Theorem 1 needs: which processes lie on some x-hoop?

use crate::op::{ProcId, VarId};
use crate::share_graph::ShareGraph;
use std::collections::BTreeSet;

/// An x-hoop: a simple path between two members of `C(x)` whose interior
/// avoids `C(x)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hoop {
    /// The variable the hoop is about.
    pub var: VarId,
    /// The path `[p_a, p_1, …, p_b]`; its length is at least 3.
    pub path: Vec<ProcId>,
    /// For each edge of the path, one shared variable different from `var`
    /// labelling that edge (the `x_h` of the definition).
    pub edge_vars: Vec<VarId>,
}

impl Hoop {
    /// The first endpoint `p_a ∈ C(x)`.
    pub fn start(&self) -> ProcId {
        self.path[0]
    }

    /// The last endpoint `p_b ∈ C(x)`.
    pub fn end(&self) -> ProcId {
        *self.path.last().unwrap()
    }

    /// The intermediate processes (those not in `C(x)`).
    pub fn intermediates(&self) -> &[ProcId] {
        &self.path[1..self.path.len() - 1]
    }
}

/// Enumerate all x-hoops of the share graph with at most `max_len` edges.
///
/// Endpoints are canonicalized (`start < end`) so each undirected hoop is
/// reported once. The enumeration explores simple paths only.
pub fn enumerate_hoops(sg: &ShareGraph, x: VarId, max_len: usize) -> Vec<Hoop> {
    let clique = sg.clique(x);
    let mut hoops = Vec::new();
    if clique.len() < 2 || max_len < 2 {
        return hoops;
    }
    for &start in &clique {
        // Grow simple paths from `start` whose interior avoids C(x).
        let mut path = vec![start];
        let mut edge_vars: Vec<VarId> = Vec::new();
        dfs(
            sg,
            x,
            &clique,
            start,
            max_len,
            &mut path,
            &mut edge_vars,
            &mut hoops,
        );
    }
    hoops
}

#[expect(
    clippy::too_many_arguments,
    reason = "the recursive search threads its fixed inputs and three accumulators through every call"
)]
fn dfs(
    sg: &ShareGraph,
    x: VarId,
    clique: &BTreeSet<ProcId>,
    start: ProcId,
    max_len: usize,
    path: &mut Vec<ProcId>,
    edge_vars: &mut Vec<VarId>,
    hoops: &mut Vec<Hoop>,
) {
    let current = *path.last().unwrap();
    if path.len() > max_len {
        return;
    }
    for next in sg.neighbours_avoiding(current, x) {
        if path.contains(&next) {
            continue;
        }
        let label = sg.edge_label(current, next);
        let Some(&edge_var) = label.iter().find(|&&v| v != x) else {
            continue;
        };
        if clique.contains(&next) {
            // Potential hoop endpoint: needs at least one intermediate and
            // canonical orientation.
            if path.len() >= 2 && next != start && start < next {
                let mut p = path.clone();
                p.push(next);
                let mut ev = edge_vars.clone();
                ev.push(edge_var);
                hoops.push(Hoop {
                    var: x,
                    path: p,
                    edge_vars: ev,
                });
            }
            // Do not extend through clique members (interior must avoid C(x)).
            continue;
        }
        path.push(next);
        edge_vars.push(edge_var);
        dfs(sg, x, clique, start, max_len, path, edge_vars, hoops);
        path.pop();
        edge_vars.pop();
    }
}

/// The processes lying on at least one x-hoop (of at most `max_len` edges),
/// excluding the members of `C(x)` themselves.
pub fn hoop_intermediaries(sg: &ShareGraph, x: VarId, max_len: usize) -> BTreeSet<ProcId> {
    let clique = sg.clique(x);
    enumerate_hoops(sg, x, max_len)
        .into_iter()
        .flat_map(|h| h.path)
        .filter(|p| !clique.contains(p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::Distribution;

    /// C(x) = {p0, p3}; the path p0 - p1 - p2 - p3 is an x-hoop where the
    /// edges share y0, y1, y2 respectively. Variable indices: x = 0,
    /// y0 = 1, y1 = 2, y2 = 3.
    fn chain_distribution() -> Distribution {
        let mut d = Distribution::new(4, 4);
        d.assign(ProcId(0), VarId(0));
        d.assign(ProcId(3), VarId(0));
        d.assign(ProcId(0), VarId(1));
        d.assign(ProcId(1), VarId(1));
        d.assign(ProcId(1), VarId(2));
        d.assign(ProcId(2), VarId(2));
        d.assign(ProcId(2), VarId(3));
        d.assign(ProcId(3), VarId(3));
        d
    }

    #[test]
    fn chain_topology_has_exactly_one_hoop() {
        let sg = ShareGraph::new(&chain_distribution());
        let hoops = enumerate_hoops(&sg, VarId(0), 8);
        assert_eq!(hoops.len(), 1);
        let h = &hoops[0];
        assert_eq!(h.start(), ProcId(0));
        assert_eq!(h.end(), ProcId(3));
        assert_eq!(h.path, vec![ProcId(0), ProcId(1), ProcId(2), ProcId(3)]);
        assert_eq!(h.edge_vars, vec![VarId(1), VarId(2), VarId(3)]);
        assert_eq!(h.intermediates(), &[ProcId(1), ProcId(2)]);
        assert_eq!(h.edge_vars.len(), 3);
    }

    #[test]
    fn hoop_intermediaries_excludes_clique_members() {
        let sg = ShareGraph::new(&chain_distribution());
        let inter = hoop_intermediaries(&sg, VarId(0), 8);
        assert_eq!(inter, BTreeSet::from([ProcId(1), ProcId(2)]));
        assert!(!enumerate_hoops(&sg, VarId(0), 8).is_empty());
    }

    #[test]
    fn max_len_cuts_off_long_hoops() {
        let sg = ShareGraph::new(&chain_distribution());
        assert!(enumerate_hoops(&sg, VarId(0), 2).is_empty());
        assert_eq!(enumerate_hoops(&sg, VarId(0), 3).len(), 1);
    }

    #[test]
    fn direct_edge_between_clique_members_is_not_a_hoop() {
        // p0 and p1 share both x (VarId 0) and y (VarId 1): the y-labelled
        // edge is not an x-hoop because it has no intermediate process.
        let mut d = Distribution::new(2, 2);
        d.assign(ProcId(0), VarId(0));
        d.assign(ProcId(1), VarId(0));
        d.assign(ProcId(0), VarId(1));
        d.assign(ProcId(1), VarId(1));
        let sg = ShareGraph::new(&d);
        assert!(enumerate_hoops(&sg, VarId(0), 8).is_empty());
    }

    #[test]
    fn full_replication_has_no_hoops() {
        let sg = ShareGraph::new(&Distribution::full(5, 3));
        for x in 0..3 {
            assert!(
                enumerate_hoops(&sg, VarId(x), 10).is_empty(),
                "full replication leaves no process outside C(x)"
            );
        }
    }

    #[test]
    fn figure2_style_hoop_with_branching_interior() {
        // C(x) = {p0, p4}; two disjoint interiors: p0-p1-p4 and p0-p2-p3-p4.
        let mut d = Distribution::new(5, 6);
        let x = VarId(0);
        d.assign(ProcId(0), x);
        d.assign(ProcId(4), x);
        // Path A: p0 -y1- p1 -y2- p4
        d.assign(ProcId(0), VarId(1));
        d.assign(ProcId(1), VarId(1));
        d.assign(ProcId(1), VarId(2));
        d.assign(ProcId(4), VarId(2));
        // Path B: p0 -y3- p2 -y4- p3 -y5- p4
        d.assign(ProcId(0), VarId(3));
        d.assign(ProcId(2), VarId(3));
        d.assign(ProcId(2), VarId(4));
        d.assign(ProcId(3), VarId(4));
        d.assign(ProcId(3), VarId(5));
        d.assign(ProcId(4), VarId(5));
        let sg = ShareGraph::new(&d);
        let hoops = enumerate_hoops(&sg, x, 10);
        assert_eq!(hoops.len(), 2);
        let inter = hoop_intermediaries(&sg, x, 10);
        assert_eq!(inter, BTreeSet::from([ProcId(1), ProcId(2), ProcId(3)]));
    }

    #[test]
    fn edges_sharing_only_x_cannot_be_used_inside_a_hoop() {
        // p0, p2 ∈ C(x). p1 is connected to both, but the p1-p2 edge shares
        // only x, so no hoop exists.
        let mut d = Distribution::new(3, 2);
        let x = VarId(0);
        d.assign(ProcId(0), x);
        d.assign(ProcId(2), x);
        d.assign(ProcId(1), x); // p1 in C(x) too? no — keep p1 out of C(x):
        let mut d = Distribution::new(3, 3);
        d.assign(ProcId(0), x);
        d.assign(ProcId(2), x);
        // p0-p1 share y.
        d.assign(ProcId(0), VarId(1));
        d.assign(ProcId(1), VarId(1));
        // p1-p2 share nothing but... give them a shared x only: impossible
        // since p1 would then be in C(x). Give them no edge at all.
        let sg = ShareGraph::new(&d);
        assert!(enumerate_hoops(&sg, x, 10).is_empty());
    }

    #[test]
    fn hoops_are_reported_once_per_orientation() {
        let sg = ShareGraph::new(&chain_distribution());
        let hoops = enumerate_hoops(&sg, VarId(0), 8);
        for h in &hoops {
            assert!(h.start() < h.end(), "canonical orientation");
        }
    }
}
