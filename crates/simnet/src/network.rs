//! Network topology: which node pairs may exchange messages.
//!
//! MCS protocols in the paper assume any process can send to any other
//! (logical full mesh), but the Bellman-Ford case study is defined over an
//! arbitrary directed communication graph, so [`Topology`] supports both.

use crate::message::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The set of directed links available in the simulated cluster.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    n: usize,
    /// If `None`, the topology is a full mesh over `n` nodes. Otherwise the
    /// explicit set of directed (from, to) pairs.
    links: Option<BTreeSet<(usize, usize)>>,
}

impl Topology {
    /// A full mesh over `n` nodes (every ordered pair of distinct nodes).
    pub fn full_mesh(n: usize) -> Self {
        Topology { n, links: None }
    }

    /// An explicitly enumerated directed topology over `n` nodes.
    ///
    /// Self-links are ignored; out-of-range endpoints panic.
    pub fn explicit(n: usize, links: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut set = BTreeSet::new();
        for (a, b) in links {
            assert!(a < n && b < n, "link ({a},{b}) out of range for {n} nodes");
            if a != b {
                set.insert((a, b));
            }
        }
        Topology {
            n,
            links: Some(set),
        }
    }

    /// A bidirectional ring over `n` nodes.
    pub fn ring(n: usize) -> Self {
        let mut links = Vec::new();
        for i in 0..n {
            let j = (i + 1) % n;
            if i != j {
                links.push((i, j));
                links.push((j, i));
            }
        }
        Topology::explicit(n, links)
    }

    /// A bidirectional line (path) over `n` nodes: `0 — 1 — … — n-1`.
    pub fn line(n: usize) -> Self {
        let mut links = Vec::new();
        for i in 1..n {
            links.push((i - 1, i));
            links.push((i, i - 1));
        }
        Topology::explicit(n, links)
    }

    /// A bidirectional star over `n` nodes: node 0 is the hub, every other
    /// node is a leaf connected only to the hub.
    pub fn star(n: usize) -> Self {
        let mut links = Vec::new();
        for i in 1..n {
            links.push((0, i));
            links.push((i, 0));
        }
        Topology::explicit(n, links)
    }

    /// A bidirectional `rows × cols` grid (4-neighbour mesh). Node ids are
    /// assigned row-major: node `(r, c)` is `r * cols + c`.
    pub(crate) fn grid(rows: usize, cols: usize) -> Self {
        let n = rows.checked_mul(cols).expect("grid dimensions overflow");
        let mut links = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let id = r * cols + c;
                if c + 1 < cols {
                    links.push((id, id + 1));
                    links.push((id + 1, id));
                }
                if r + 1 < rows {
                    links.push((id, id + cols));
                    links.push((id + cols, id));
                }
            }
        }
        Topology::explicit(n, links)
    }

    /// The most-square bidirectional grid over exactly `n` nodes: `r × c`
    /// with `r·c = n` and `r` the largest divisor of `n` with `r ≤ √n`.
    /// For prime `n` this degenerates to a `1 × n` grid (a line).
    pub fn grid_of(n: usize) -> Self {
        if n == 0 {
            return Topology::grid(0, 0);
        }
        let mut rows = 1;
        let mut d = 1;
        while d * d <= n {
            if n.is_multiple_of(d) {
                rows = d;
            }
            d += 1;
        }
        Topology::grid(rows, n / rows)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Whether a directed link from `from` to `to` exists.
    pub(crate) fn connected(&self, from: NodeId, to: NodeId) -> bool {
        if from == to || from.index() >= self.n || to.index() >= self.n {
            return false;
        }
        match &self.links {
            None => true,
            Some(set) => set.contains(&(from.index(), to.index())),
        }
    }

    /// Outgoing neighbours of `from`.
    pub(crate) fn neighbours(&self, from: NodeId) -> Vec<NodeId> {
        (0..self.n)
            .map(NodeId)
            .filter(|&to| self.connected(from, to))
            .collect()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        match &self.links {
            None => self.n.saturating_mul(self.n.saturating_sub(1)),
            Some(set) => set.len(),
        }
    }

    /// Whether every ordered pair of distinct nodes is directly linked
    /// (i.e. the topology is equivalent to [`Topology::full_mesh`], however
    /// it was constructed).
    pub fn is_full_mesh(&self) -> bool {
        self.link_count() == self.n.saturating_mul(self.n.saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mesh_connects_all_distinct_pairs() {
        let t = Topology::full_mesh(4);
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.link_count(), 12);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(t.connected(NodeId(i), NodeId(j)), i != j);
            }
        }
    }

    #[test]
    fn explicit_topology_filters_self_links() {
        let t = Topology::explicit(3, [(0, 1), (1, 1), (2, 0)]);
        assert!(t.connected(NodeId(0), NodeId(1)));
        assert!(!t.connected(NodeId(1), NodeId(1)));
        assert!(!t.connected(NodeId(1), NodeId(0)));
        assert!(t.connected(NodeId(2), NodeId(0)));
        assert_eq!(t.link_count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn explicit_topology_rejects_out_of_range() {
        Topology::explicit(2, [(0, 5)]);
    }

    #[test]
    fn ring_has_two_links_per_node() {
        let t = Topology::ring(5);
        assert_eq!(t.link_count(), 10);
        for i in 0..5 {
            let ns = t.neighbours(NodeId(i));
            assert_eq!(ns.len(), 2);
        }
    }

    #[test]
    fn ring_of_one_has_no_links() {
        let t = Topology::ring(1);
        assert_eq!(t.link_count(), 0);
        assert!(t.neighbours(NodeId(0)).is_empty());
    }

    #[test]
    fn out_of_range_queries_are_disconnected() {
        let t = Topology::full_mesh(2);
        assert!(!t.connected(NodeId(0), NodeId(9)));
        assert!(!t.connected(NodeId(9), NodeId(0)));
    }

    #[test]
    fn line_links_adjacent_indices_only() {
        let t = Topology::line(4);
        assert_eq!(t.link_count(), 6);
        assert!(t.connected(NodeId(1), NodeId(2)));
        assert!(!t.connected(NodeId(0), NodeId(3)));
        assert_eq!(t.neighbours(NodeId(0)), vec![NodeId(1)]);
    }

    #[test]
    fn star_routes_everything_through_the_hub() {
        let t = Topology::star(5);
        assert_eq!(t.link_count(), 8);
        assert_eq!(t.neighbours(NodeId(0)).len(), 4);
        for leaf in 1..5 {
            assert_eq!(t.neighbours(NodeId(leaf)), vec![NodeId(0)]);
            assert!(!t.connected(NodeId(leaf), NodeId(leaf % 4 + 1)));
        }
    }

    #[test]
    fn grid_has_four_neighbour_links() {
        let t = Topology::grid(2, 3);
        assert_eq!(t.node_count(), 6);
        // 2 rows × 2 horizontal links each + 3 vertical links, ×2 directions.
        assert_eq!(t.link_count(), (2 * 2 + 3) * 2);
        // (0,1) ↔ (1,1): ids 1 and 4.
        assert!(t.connected(NodeId(1), NodeId(4)));
        assert!(!t.connected(NodeId(0), NodeId(5)));
    }

    #[test]
    fn grid_of_picks_the_most_square_shape() {
        assert_eq!(Topology::grid_of(6), Topology::grid(2, 3));
        assert_eq!(Topology::grid_of(9), Topology::grid(3, 3));
        // Prime sizes degenerate to a line-shaped 1×n grid.
        assert_eq!(Topology::grid_of(5), Topology::grid(1, 5));
        assert_eq!(Topology::grid_of(1).node_count(), 1);
    }

    #[test]
    fn full_mesh_detection_is_structural() {
        assert!(Topology::full_mesh(4).is_full_mesh());
        // An explicit enumeration of all pairs is still a full mesh.
        let mut links = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    links.push((i, j));
                }
            }
        }
        assert!(Topology::explicit(3, links).is_full_mesh());
        assert!(!Topology::ring(4).is_full_mesh());
        // Tiny systems are trivially meshes.
        assert!(Topology::ring(3).is_full_mesh());
        assert!(Topology::star(2).is_full_mesh());
    }

    #[test]
    fn nodes_iterator_enumerates_all() {
        let t = Topology::full_mesh(3);
        assert_eq!(t.node_count(), 3, "ids 0, 1 and 2");
    }
}
