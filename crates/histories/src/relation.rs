//! A small directed-relation toolkit over operation indices.
//!
//! All the order relations of the paper (causal, lazy causal, lazy
//! semi-causal, PRAM) are built by adding edges to a [`RelationGraph`] and,
//! where the definition takes a transitive closure, materializing a
//! [`Reachability`] matrix.

use crate::history::OpIdx;

/// A directed graph over `n` operations, stored as adjacency lists.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct RelationGraph {
    n: usize,
    adj: Vec<Vec<usize>>,
}

impl RelationGraph {
    /// An empty relation over `n` operations.
    pub(crate) fn new(n: usize) -> Self {
        RelationGraph {
            n,
            adj: vec![Vec::new(); n],
        }
    }

    /// Add the edge `a → b` (idempotent).
    pub(crate) fn add_edge(&mut self, a: OpIdx, b: OpIdx) {
        assert!(
            a.index() < self.n && b.index() < self.n,
            "edge out of range"
        );
        if a == b {
            return;
        }
        if !self.adj[a.index()].contains(&b.index()) {
            self.adj[a.index()].push(b.index());
        }
    }

    /// Whether the direct edge `a → b` exists.
    pub(crate) fn has_edge(&self, a: OpIdx, b: OpIdx) -> bool {
        self.adj[a.index()].contains(&b.index())
    }

    /// Direct successors of `a`.
    pub(crate) fn successors(&self, a: OpIdx) -> impl Iterator<Item = OpIdx> + '_ {
        self.adj[a.index()].iter().copied().map(OpIdx)
    }

    /// Union with another relation over the same operation set.
    pub(crate) fn union(&self, other: &RelationGraph) -> RelationGraph {
        assert_eq!(self.n, other.n, "relations cover different op sets");
        let mut out = self.clone();
        for a in 0..other.n {
            for &b in &other.adj[a] {
                out.add_edge(OpIdx(a), OpIdx(b));
            }
        }
        out
    }

    /// Compute the reachability (transitive closure) of the relation.
    ///
    /// One pass of Tarjan's strongly-connected-components algorithm
    /// (iterative, so deep chains cannot overflow the stack). Tarjan emits
    /// components in reverse topological order, so when a component is
    /// emitted every component it reaches already has its row: the
    /// component's row is the OR of its successors' rows plus the
    /// successors' own bits (Purdom/Nuutila), and a successor whose bit is
    /// already set is skipped, because its row is then contained in the
    /// row being built. Cost: `O(n + m)` for the pass plus
    /// `O(m · ⌈n/64⌉)` word ORs, and `n` rows of `⌈n/64⌉` words.
    pub(crate) fn closure(&self) -> Reachability {
        let words = self.n.div_ceil(64).max(1);
        let mut reach: Vec<Vec<u64>> = vec![Vec::new(); self.n];
        let mut row = vec![0u64; words];
        self.components(|component| {
            row.fill(0);
            // Every member of a cycle reaches every member, itself included;
            // setting their bits first also skips the edges inside it.
            if component.len() > 1 {
                for &v in component {
                    row[v / 64] |= 1 << (v % 64);
                }
            }
            for &v in component {
                for &u in &self.adj[v] {
                    let (w, bit) = (u / 64, 1u64 << (u % 64));
                    if row[w] & bit != 0 {
                        continue;
                    }
                    for (acc, &word) in row.iter_mut().zip(&reach[u]) {
                        *acc |= word;
                    }
                    row[w] |= bit;
                }
            }
            for &v in component {
                reach[v] = row.clone();
            }
        });
        Reachability { n: self.n, reach }
    }

    /// Tarjan's algorithm, iteratively: hand each strongly connected
    /// component to `emit`, in reverse topological order (a component is
    /// emitted after every component it reaches).
    fn components(&self, mut emit: impl FnMut(&[usize])) {
        const UNSEEN: usize = usize::MAX;
        let mut index = vec![UNSEEN; self.n];
        let mut low = vec![0usize; self.n];
        let mut on_stack = vec![false; self.n];
        // Tarjan's stack of visited vertices whose component is still open.
        let mut open: Vec<usize> = Vec::new();
        // The DFS call stack: a vertex and the slot of its next successor.
        let mut calls: Vec<(usize, usize)> = Vec::new();
        let mut next_index = 0;
        for root in 0..self.n {
            if index[root] != UNSEEN {
                continue;
            }
            index[root] = next_index;
            low[root] = next_index;
            next_index += 1;
            open.push(root);
            on_stack[root] = true;
            calls.push((root, 0));
            while let Some(frame) = calls.last_mut() {
                let v = frame.0;
                if let Some(&u) = self.adj[v].get(frame.1) {
                    frame.1 += 1;
                    if index[u] == UNSEEN {
                        index[u] = next_index;
                        low[u] = next_index;
                        next_index += 1;
                        open.push(u);
                        on_stack[u] = true;
                        calls.push((u, 0));
                    } else if on_stack[u] {
                        low[v] = low[v].min(index[u]);
                    }
                    continue;
                }
                calls.pop();
                if let Some(&(parent, _)) = calls.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let start = open
                        .iter()
                        .rposition(|&x| x == v)
                        .expect("a component root is on the open stack");
                    for &x in &open[start..] {
                        on_stack[x] = false;
                    }
                    emit(&open[start..]);
                    open.truncate(start);
                }
            }
        }
    }

    /// The closure by a DFS from every operation, `O(n · (n + m))`: the
    /// reference model `closure` is pinned against.
    #[cfg(test)]
    pub(crate) fn closure_by_dfs(&self) -> Reachability {
        let words = self.n.div_ceil(64).max(1);
        let mut reach = vec![vec![0u64; words]; self.n];
        for (start, row) in reach.iter_mut().enumerate() {
            let mut stack: Vec<usize> = self.adj[start].clone();
            while let Some(v) = stack.pop() {
                let (w, bit) = (v / 64, v % 64);
                if row[w] & (1 << bit) != 0 {
                    continue;
                }
                row[w] |= 1 << bit;
                stack.extend_from_slice(&self.adj[v]);
            }
        }
        Reachability { n: self.n, reach }
    }
}

/// Reachability matrix: `reaches(a, b)` means `a →+ b` (non-reflexive unless
/// the graph has a cycle through `a`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Reachability {
    n: usize,
    reach: Vec<Vec<u64>>,
}

impl Reachability {
    /// Whether `a` reaches `b` through one or more edges.
    pub(crate) fn reaches(&self, a: OpIdx, b: OpIdx) -> bool {
        let (w, bit) = (b.index() / 64, b.index() % 64);
        self.reach[a.index()][w] & (1 << bit) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of direct edges.
    fn edge_count(g: &RelationGraph) -> usize {
        g.adj.iter().map(Vec::len).sum()
    }

    #[test]
    fn add_and_query_edges() {
        let mut g = RelationGraph::new(3);
        g.add_edge(OpIdx(0), OpIdx(1));
        g.add_edge(OpIdx(0), OpIdx(1)); // idempotent
        g.add_edge(OpIdx(1), OpIdx(2));
        assert!(g.has_edge(OpIdx(0), OpIdx(1)));
        assert!(!g.has_edge(OpIdx(1), OpIdx(0)));
        assert_eq!(edge_count(&g), 2);
        assert_eq!(g.successors(OpIdx(0)).collect::<Vec<_>>(), vec![OpIdx(1)]);
    }

    #[test]
    fn self_edges_are_ignored() {
        let mut g = RelationGraph::new(2);
        g.add_edge(OpIdx(0), OpIdx(0));
        assert_eq!(edge_count(&g), 0);
        assert!(!g.closure().reaches(OpIdx(0), OpIdx(0)));
    }

    #[test]
    fn closure_computes_transitive_reachability() {
        let mut g = RelationGraph::new(4);
        g.add_edge(OpIdx(0), OpIdx(1));
        g.add_edge(OpIdx(1), OpIdx(2));
        g.add_edge(OpIdx(2), OpIdx(3));
        let c = g.closure();
        assert!(c.reaches(OpIdx(0), OpIdx(3)));
        assert!(c.reaches(OpIdx(1), OpIdx(3)));
        assert!(!c.reaches(OpIdx(3), OpIdx(0)));
        assert!(!c.reaches(OpIdx(0), OpIdx(0)));
    }

    #[test]
    fn concurrent_detects_unrelated_pairs() {
        let mut g = RelationGraph::new(4);
        g.add_edge(OpIdx(0), OpIdx(1));
        g.add_edge(OpIdx(2), OpIdx(3));
        let c = g.closure();
        assert!(!c.reaches(OpIdx(0), OpIdx(2)) && !c.reaches(OpIdx(2), OpIdx(0)));
        assert!(!c.reaches(OpIdx(1), OpIdx(3)) && !c.reaches(OpIdx(3), OpIdx(1)));
        assert!(c.reaches(OpIdx(0), OpIdx(1)));
    }

    #[test]
    fn cycle_detection() {
        let mut g = RelationGraph::new(3);
        g.add_edge(OpIdx(0), OpIdx(1));
        g.add_edge(OpIdx(1), OpIdx(2));
        assert!(!g.closure().reaches(OpIdx(0), OpIdx(0)));
        g.add_edge(OpIdx(2), OpIdx(0));
        assert!(g.closure().reaches(OpIdx(0), OpIdx(0)));
    }

    #[test]
    fn union_merges_edge_sets() {
        let mut a = RelationGraph::new(3);
        a.add_edge(OpIdx(0), OpIdx(1));
        let mut b = RelationGraph::new(3);
        b.add_edge(OpIdx(1), OpIdx(2));
        let u = a.union(&b);
        assert!(u.has_edge(OpIdx(0), OpIdx(1)));
        assert!(u.has_edge(OpIdx(1), OpIdx(2)));
        assert_eq!(edge_count(&u), 2);
    }

    #[test]
    fn closure_on_large_index_space_uses_multiple_words() {
        let n = 130;
        let mut g = RelationGraph::new(n);
        for i in 0..n - 1 {
            g.add_edge(OpIdx(i), OpIdx(i + 1));
        }
        let c = g.closure();
        assert!(c.reaches(OpIdx(0), OpIdx(n - 1)));
        assert!(!c.reaches(OpIdx(n - 1), OpIdx(0)));
        assert_eq!(c.n, n);
    }

    #[test]
    fn empty_relation() {
        let g = RelationGraph::new(0);
        assert_eq!(g.n, 0);
        let c = g.closure();
        assert_eq!(c.n, 0);
    }

    /// Sizes on either side of the 64-bit word boundaries.
    const BOUNDARY_SIZES: [usize; 9] = [1, 2, 63, 64, 65, 127, 128, 129, 200];

    /// A random relation: `n` from 1 to 200 (half the time a word-boundary
    /// size), and edges that are acyclic (`a < b`), arbitrary (cycles of
    /// every size) or a forward chain with random back edges (long paths
    /// folded into large components). Self edges and duplicate edges are
    /// added on purpose; the graph drops them.
    fn random_graph(
        (boundary, n, size_pick, shape, edges): (bool, usize, usize, usize, Vec<(u16, u16)>),
    ) -> RelationGraph {
        let n = if boundary {
            BOUNDARY_SIZES[size_pick]
        } else {
            n
        };
        let mut g = RelationGraph::new(n);
        if shape == 2 {
            for v in 1..n {
                g.add_edge(OpIdx(v - 1), OpIdx(v));
            }
        }
        for (i, &(a, b)) in edges.iter().enumerate() {
            let (a, b) = (a as usize % n, b as usize % n);
            let (a, b) = match shape {
                0 => (a.min(b), a.max(b)),
                2 if i % 4 != 0 => continue,
                _ => (a, b),
            };
            g.add_edge(OpIdx(a), OpIdx(b));
            if i % 7 == 0 {
                g.add_edge(OpIdx(a), OpIdx(b));
            }
        }
        g
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The SCC kernel computes exactly the closure the per-operation
        /// DFS computes.
        #[test]
        fn closure_matches_the_dfs_reference(
            spec in (
                proptest::arbitrary::any::<bool>(),
                1usize..=200,
                0usize..BOUNDARY_SIZES.len(),
                0usize..3,
                proptest::collection::vec(
                    (proptest::arbitrary::any::<u16>(), proptest::arbitrary::any::<u16>()),
                    0..400,
                ),
            ),
        ) {
            let g = random_graph(spec);
            let reference = g.closure_by_dfs();
            proptest::prop_assert_eq!(g.closure(), reference);
        }
    }
}
