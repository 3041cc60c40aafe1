//! Weighted directed networks and the sequential Bellman-Ford reference.
//!
//! The paper's case study (§6) models a packet-switching network as a
//! directed graph whose nodes run the distributed shortest-path
//! computation. This module provides the graph type, the concrete Figure 8
//! network, generators for larger experiments, and a sequential
//! Bellman-Ford used as the correctness reference for the distributed runs.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Effectively-infinite distance used before a node has been reached.
pub(crate) const INFINITY: i64 = i64::MAX / 4;

/// A weighted directed graph with non-negative edge costs.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Network {
    n: usize,
    weights: BTreeMap<(usize, usize), i64>,
}

impl Network {
    /// An edgeless network over `n` nodes.
    pub(crate) fn new(n: usize) -> Self {
        Network {
            n,
            weights: BTreeMap::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Add (or overwrite) the directed edge `from → to` with cost `w`.
    ///
    /// Panics on out-of-range endpoints, self-loops, or negative costs
    /// (the paper's setting assumes non-negative link costs).
    pub(crate) fn add_edge(&mut self, from: usize, to: usize, w: i64) {
        assert!(from < self.n && to < self.n, "edge endpoint out of range");
        assert_ne!(from, to, "self loops are not allowed");
        assert!(w >= 0, "link costs are non-negative");
        self.weights.insert((from, to), w);
    }

    /// The cost of edge `from → to` (`INFINITY` when absent, 0 when
    /// `from == to`), matching the paper's `w(i, j)` convention.
    pub(crate) fn weight(&self, from: usize, to: usize) -> i64 {
        if from == to {
            0
        } else {
            self.weights.get(&(from, to)).copied().unwrap_or(INFINITY)
        }
    }

    /// The predecessor set `Γ⁻¹(i)`: nodes with an edge into `i`.
    pub fn predecessors(&self, i: usize) -> Vec<usize> {
        self.weights
            .keys()
            .filter(|&&(_, to)| to == i)
            .map(|&(from, _)| from)
            .collect()
    }

    /// All directed edges with their costs.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, i64)> + '_ {
        self.weights.iter().map(|(&(a, b), &w)| (a, b, w))
    }

    /// The Figure 8 example network: five nodes, the edge set implied by the
    /// paper's variable distribution (`Γ⁻¹(2) = {1,3}`, `Γ⁻¹(3) = {1,2}`,
    /// `Γ⁻¹(4) = {2,3}`, `Γ⁻¹(5) = {3,4}`), with the figure's link costs
    /// assigned as follows (node 1 of the paper is index 0 here):
    ///
    /// ```text
    /// 1→2: 4   1→3: 1   2→3: 2   3→2: 1
    /// 2→4: 8   3→4: 2   3→5: 3   4→5: 3
    /// ```
    pub fn fig8() -> Self {
        let mut g = Network::new(5);
        g.add_edge(0, 1, 4);
        g.add_edge(0, 2, 1);
        g.add_edge(1, 2, 2);
        g.add_edge(2, 1, 1);
        g.add_edge(1, 3, 8);
        g.add_edge(2, 3, 2);
        g.add_edge(2, 4, 3);
        g.add_edge(3, 4, 3);
        g
    }

    /// A directed ring `0 → 1 → … → n-1 → 0` with unit costs: a test
    /// input.
    #[cfg(test)]
    pub(crate) fn ring(n: usize) -> Self {
        let mut g = Network::new(n);
        for i in 0..n {
            let j = (i + 1) % n;
            if i != j {
                g.add_edge(i, j, 1);
            }
        }
        g
    }

    /// A random strongly reachable network: a random spanning arborescence
    /// from node 0 plus `extra_edges` random edges, costs in `1..=max_cost`.
    pub fn random_reachable(n: usize, extra_edges: usize, max_cost: i64, seed: u64) -> Self {
        assert!(n >= 2 && max_cost >= 1);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = Network::new(n);
        // Spanning structure: every node i >= 1 gets an incoming edge from a
        // random earlier node, so everything is reachable from node 0.
        for i in 1..n {
            let from = rng.gen_range(0..i);
            g.add_edge(from, i, rng.gen_range(1..=max_cost));
        }
        let mut added = 0;
        let mut attempts = 0;
        while added < extra_edges && attempts < extra_edges * 20 {
            attempts += 1;
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b && !g.weights.contains_key(&(a, b)) {
                g.add_edge(a, b, rng.gen_range(1..=max_cost));
                added += 1;
            }
        }
        g
    }
}

/// Sequential Bellman-Ford from `source`: the reference the distributed
/// implementation is validated against. Returns the distance vector
/// (`INFINITY` for unreachable nodes).
pub fn shortest_paths_reference(net: &Network, source: usize) -> Vec<i64> {
    let n = net.node_count();
    let mut dist = vec![INFINITY; n];
    dist[source] = 0;
    for _ in 0..n {
        let mut changed = false;
        for (from, to, w) in net.edges() {
            if dist[from] != INFINITY && dist[from] + w < dist[to] {
                dist[to] = dist[from] + w;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_structure_matches_the_papers_distribution() {
        let g = Network::fig8();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edges().count(), 8);
        let mut p1 = g.predecessors(1);
        p1.sort_unstable();
        assert_eq!(p1, vec![0, 2]);
        let mut p2 = g.predecessors(2);
        p2.sort_unstable();
        assert_eq!(p2, vec![0, 1]);
        let mut p3 = g.predecessors(3);
        p3.sort_unstable();
        assert_eq!(p3, vec![1, 2]);
        let mut p4 = g.predecessors(4);
        p4.sort_unstable();
        assert_eq!(p4, vec![2, 3]);
        assert!(g.predecessors(0).is_empty());
    }

    #[test]
    fn fig8_shortest_paths() {
        let g = Network::fig8();
        let d = shortest_paths_reference(&g, 0);
        assert_eq!(d, vec![0, 2, 1, 3, 4]);
    }

    #[test]
    fn weight_conventions() {
        let g = Network::fig8();
        assert_eq!(g.weight(0, 0), 0);
        assert_eq!(g.weight(0, 1), 4);
        assert_eq!(g.weight(1, 0), INFINITY);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_costs_are_rejected() {
        let mut g = Network::new(2);
        g.add_edge(0, 1, -1);
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn self_loops_are_rejected() {
        let mut g = Network::new(2);
        g.add_edge(1, 1, 3);
    }

    #[test]
    fn ring_distances_grow_linearly() {
        let g = Network::ring(6);
        let d = shortest_paths_reference(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(
            g.edges()
                .filter(|e| e.0 == 5)
                .map(|e| e.1)
                .collect::<Vec<_>>(),
            vec![0]
        );
    }

    #[test]
    fn random_networks_are_reachable_and_reproducible() {
        let a = Network::random_reachable(12, 10, 9, 7);
        let b = Network::random_reachable(12, 10, 9, 7);
        assert_eq!(a, b);
        let d = shortest_paths_reference(&a, 0);
        assert!(d.iter().all(|&x| x < INFINITY), "all nodes reachable");
        assert!(a.edges().count() >= 11);
    }

    #[test]
    fn unreachable_nodes_stay_at_infinity() {
        let mut g = Network::new(3);
        g.add_edge(0, 1, 5);
        let d = shortest_paths_reference(&g, 0);
        assert_eq!(d, vec![0, 5, INFINITY]);
    }
}
