//! x-dependency chains along hoops (paper Definition 4).
//!
//! Let `[p_a, …, p_b]` be an x-hoop. A history `H` includes an
//! *x-dependency chain* along this hoop when
//!
//! 1. `O_H` includes `w_a(x)v`,
//! 2. `O_H` includes `o_b(x)` (a read or a write on `x` by `p_b`), and
//! 3. `O_H` includes a pattern of operations, at least one for each process
//!    of the hoop, that implies `w_a(x)v 7→ o_b(x)` under the order
//!    relation of the consistency criterion being considered.
//!
//! Operationally we search for a *derivation path*: a sequence of
//! operations starting at `w_a(x)v` and ending at `o_b(x)` where each step
//! is a direct edge of the criterion's base relation (program order /
//! read-from for causal; their lazy variants for the lazy criteria), and
//! whose operations cover every process of the hoop. For a transitive
//! criterion such a path establishes `w_a(x)v 7→ o_b(x)`; for PRAM —
//! which is not transitively closed — only single-edge derivations imply
//! the relation, so no derivation can cover the hoop's intermediate
//! processes. That is exactly Theorem 2.

use crate::history::{History, OpIdx};
use crate::hoop::Hoop;
use crate::orders::{lazy_program_order_graph, lazy_writes_before_graph, ProgramOrder};
use crate::read_from::ReadFrom;
use crate::relation::RelationGraph;
use std::collections::BTreeSet;

/// The order relation under which a dependency chain is sought, identified
/// by its base (direct-edge) derivation graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChainOrder {
    /// Causal order: program order ∪ read-from, transitively closed.
    Causal,
    /// Lazy causal order: lazy program order ∪ read-from, transitively closed.
    LazyCausal,
    /// Lazy semi-causal order: lazy program order ∪ lazy writes-before,
    /// transitively closed.
    LazySemiCausal,
    /// The PRAM relation: program order ∪ read-from, *not* closed — only
    /// single-edge derivations imply the relation.
    Pram,
}

impl ChainOrder {
    /// The direct-edge derivation graph of the relation over `h`'s operations.
    pub(crate) fn base_graph(self, h: &History, rf: &ReadFrom) -> RelationGraph {
        match self {
            ChainOrder::Causal | ChainOrder::Pram => {
                let mut g = ProgramOrder::graph(h);
                for (w, r) in rf.pairs() {
                    g.add_edge(w, r);
                }
                g
            }
            ChainOrder::LazyCausal => {
                let mut g = lazy_program_order_graph(h);
                for (w, r) in rf.pairs() {
                    g.add_edge(w, r);
                }
                g
            }
            ChainOrder::LazySemiCausal => {
                lazy_program_order_graph(h).union(&lazy_writes_before_graph(h, rf))
            }
        }
    }

    /// Whether multi-edge derivations imply the relation (transitivity).
    pub(crate) fn is_transitive(self) -> bool {
        !matches!(self, ChainOrder::Pram)
    }
}

/// A witnessed dependency chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DependencyChain {
    /// The initial operation `w_a(x)v`.
    pub initial: OpIdx,
    /// The final operation `o_b(x)`.
    pub final_op: OpIdx,
    /// The derivation path from `initial` to `final_op` (inclusive).
    pub derivation: Vec<OpIdx>,
}

/// Search for an x-dependency chain along `hoop` in history `h` under the
/// given order relation. Returns a witness if one exists.
pub fn has_dependency_chain(
    h: &History,
    rf: &ReadFrom,
    order: ChainOrder,
    hoop: &Hoop,
) -> Option<DependencyChain> {
    let base = order.base_graph(h, rf);
    let x = hoop.var;
    let a = hoop.start();
    let b = hoop.end();
    let required: BTreeSet<usize> = hoop.path.iter().map(|p| p.index()).collect();

    let initials: Vec<OpIdx> = h
        .ops()
        .filter(|(_, o)| o.proc == a && o.is_write() && o.var == x)
        .map(|(i, _)| i)
        .collect();
    let finals: BTreeSet<OpIdx> = h
        .ops()
        .filter(|(_, o)| o.proc == b && o.var == x)
        .map(|(i, _)| i)
        .collect();
    if initials.is_empty() || finals.is_empty() {
        return None;
    }

    for &start in &initials {
        if !order.is_transitive() {
            // Only a direct edge can imply the relation; it involves at most
            // two processes, so it can cover the hoop only if the hoop has
            // no intermediaries — which hoops, by construction, always have.
            for &f in &finals {
                if base.has_edge(start, f) && required.len() <= 2 {
                    return Some(DependencyChain {
                        initial: start,
                        final_op: f,
                        derivation: vec![start, f],
                    });
                }
            }
            continue;
        }
        // DFS over derivation paths, tracking which hoop processes have
        // contributed an operation.
        let mut path = vec![start];
        let mut covered: BTreeSet<usize> = BTreeSet::new();
        if required.contains(&h.op(start).proc.index()) {
            covered.insert(h.op(start).proc.index());
        }
        if let Some(chain) = dfs(h, &base, &finals, &required, &mut path, &mut covered) {
            return Some(chain);
        }
    }
    None
}

fn dfs(
    h: &History,
    base: &RelationGraph,
    finals: &BTreeSet<OpIdx>,
    required: &BTreeSet<usize>,
    path: &mut Vec<OpIdx>,
    covered: &mut BTreeSet<usize>,
) -> Option<DependencyChain> {
    let current = *path.last().unwrap();
    if finals.contains(&current) && required.is_subset(covered) && path.len() > 1 {
        return Some(DependencyChain {
            initial: path[0],
            final_op: current,
            derivation: path.clone(),
        });
    }
    for next in base.successors(current) {
        if path.contains(&next) {
            continue;
        }
        let proc = h.op(next).proc.index();
        let newly_covered = required.contains(&proc) && !covered.contains(&proc);
        if newly_covered {
            covered.insert(proc);
        }
        path.push(next);
        if let Some(found) = dfs(h, base, finals, required, path, covered) {
            return Some(found);
        }
        path.pop();
        if newly_covered {
            covered.remove(&proc);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::Distribution;
    use crate::history::HistoryBuilder;
    use crate::hoop::enumerate_hoops;
    use crate::op::{ProcId, VarId};
    use crate::share_graph::ShareGraph;

    /// The Figure 3 pattern over the hoop p0 -y1- p1 -y2- p2 with
    /// C(x) = {p0, p2}:  p0: w(x)v, w(y1)v1   p1: r(y1)v1, w(y2)v2
    /// p2: r(y2)v2, r(x)v.
    fn fig3_setup() -> (Distribution, History) {
        let mut d = Distribution::new(3, 3);
        let x = VarId(0);
        d.assign(ProcId(0), x);
        d.assign(ProcId(2), x);
        d.assign(ProcId(0), VarId(1));
        d.assign(ProcId(1), VarId(1));
        d.assign(ProcId(1), VarId(2));
        d.assign(ProcId(2), VarId(2));

        let mut hb = HistoryBuilder::new(3);
        hb.write(ProcId(0), VarId(0), 100);
        hb.write(ProcId(0), VarId(1), 1);
        hb.read_int(ProcId(1), VarId(1), 1);
        hb.write(ProcId(1), VarId(2), 2);
        hb.read_int(ProcId(2), VarId(2), 2);
        hb.read_int(ProcId(2), VarId(0), 100);
        (d, hb.build())
    }

    #[test]
    fn causal_order_creates_a_chain_along_the_hoop() {
        let (d, h) = fig3_setup();
        let sg = ShareGraph::new(&d);
        let hoops = enumerate_hoops(&sg, VarId(0), 8);
        assert_eq!(hoops.len(), 1);
        let rf = ReadFrom::infer(&h).unwrap();
        let chain = has_dependency_chain(&h, &rf, ChainOrder::Causal, &hoops[0]);
        assert!(chain.is_some());
        let chain = chain.unwrap();
        assert_eq!(h.op(chain.initial).var, VarId(0));
        assert!(h.op(chain.initial).is_write());
        assert_eq!(h.op(chain.final_op).var, VarId(0));
        // The derivation passes through the intermediate process p1.
        assert!(chain.derivation.iter().any(|&o| h.op(o).proc == ProcId(1)));
    }

    #[test]
    fn pram_relation_creates_no_chain_along_the_hoop() {
        let (d, h) = fig3_setup();
        let sg = ShareGraph::new(&d);
        let hoops = enumerate_hoops(&sg, VarId(0), 8);
        let rf = ReadFrom::infer(&h).unwrap();
        assert_eq!(
            has_dependency_chain(&h, &rf, ChainOrder::Pram, &hoops[0]),
            None,
            "Theorem 2: PRAM admits no dependency chain along hoops"
        );
    }

    #[test]
    fn chain_requires_the_final_operation_on_x() {
        // Same as fig3 but p2 never touches x again: no chain.
        let (d, _) = fig3_setup();
        let mut hb = HistoryBuilder::new(3);
        hb.write(ProcId(0), VarId(0), 100);
        hb.write(ProcId(0), VarId(1), 1);
        hb.read_int(ProcId(1), VarId(1), 1);
        hb.write(ProcId(1), VarId(2), 2);
        hb.read_int(ProcId(2), VarId(2), 2);
        let h = hb.build();
        let sg = ShareGraph::new(&d);
        let hoops = enumerate_hoops(&sg, VarId(0), 8);
        let rf = ReadFrom::infer(&h).unwrap();
        assert_eq!(
            has_dependency_chain(&h, &rf, ChainOrder::Causal, &hoops[0]),
            None
        );
    }

    #[test]
    fn chain_requires_coverage_of_intermediate_processes() {
        // p2 reads x directly from p0's write but p1 never participates:
        // the relation w(x) 7→co r(x) holds, yet no pattern involves p1, so
        // there is no dependency chain *along the hoop*.
        let (d, _) = fig3_setup();
        let mut hb = HistoryBuilder::new(3);
        hb.write(ProcId(0), VarId(0), 100);
        hb.read_int(ProcId(2), VarId(0), 100);
        let h = hb.build();
        let sg = ShareGraph::new(&d);
        let hoops = enumerate_hoops(&sg, VarId(0), 8);
        let rf = ReadFrom::infer(&h).unwrap();
        assert_eq!(
            has_dependency_chain(&h, &rf, ChainOrder::Causal, &hoops[0]),
            None
        );
    }

    #[test]
    fn lazy_causal_chain_requires_li_links() {
        // Figure 4 situation on the hoop [p0, p1, p2]: the final operations
        // of p2 are r(y2) then r(x), which are *not* →li related, so the
        // final read of x is not constrained... but the chain detector only
        // asks whether w_a(x)v 7→lco o_b(x); with o_b = r(x)⊥ unrelated, no
        // chain should be found.
        let (d, _) = fig3_setup();
        let mut hb = HistoryBuilder::new(3);
        hb.write(ProcId(0), VarId(0), 100);
        hb.read_int(ProcId(0), VarId(0), 100); // makes w(x) →li w(y1)
        hb.write(ProcId(0), VarId(1), 1);
        hb.read_int(ProcId(1), VarId(1), 1);
        hb.write(ProcId(1), VarId(2), 2);
        hb.read_int(ProcId(2), VarId(2), 2);
        hb.read_bottom(ProcId(2), VarId(0)); // concurrent with the chain under →li
        let h = hb.build();
        let sg = ShareGraph::new(&d);
        let hoops = enumerate_hoops(&sg, VarId(0), 8);
        let rf = ReadFrom::infer(&h).unwrap();
        assert_eq!(
            has_dependency_chain(&h, &rf, ChainOrder::LazyCausal, &hoops[0]),
            None,
            "reads of different variables are not →li related, breaking the chain"
        );
        // Under plain causal order the chain exists (program order relates
        // the two final reads).
        assert!(has_dependency_chain(&h, &rf, ChainOrder::Causal, &hoops[0]).is_some());
    }

    #[test]
    fn lazy_causal_chain_exists_when_final_op_is_a_write() {
        // Figure 5 situation: p2 ends with w(x)d; r(y2) →li w(x) holds, so
        // the chain survives lazy causal order.
        let (d, _) = fig3_setup();
        let mut hb = HistoryBuilder::new(3);
        hb.write(ProcId(0), VarId(0), 100);
        hb.read_int(ProcId(0), VarId(0), 100);
        hb.write(ProcId(0), VarId(1), 1);
        hb.read_int(ProcId(1), VarId(1), 1);
        hb.write(ProcId(1), VarId(2), 2);
        hb.read_int(ProcId(2), VarId(2), 2);
        hb.write(ProcId(2), VarId(0), 200);
        let h = hb.build();
        let sg = ShareGraph::new(&d);
        let hoops = enumerate_hoops(&sg, VarId(0), 8);
        let rf = ReadFrom::infer(&h).unwrap();
        assert!(has_dependency_chain(&h, &rf, ChainOrder::LazyCausal, &hoops[0]).is_some());
        // Still no chain under PRAM.
        assert_eq!(
            has_dependency_chain(&h, &rf, ChainOrder::Pram, &hoops[0]),
            None
        );
    }

    #[test]
    fn chain_order_metadata() {
        assert!(ChainOrder::Causal.is_transitive());
        assert!(ChainOrder::LazyCausal.is_transitive());
        assert!(ChainOrder::LazySemiCausal.is_transitive());
        assert!(!ChainOrder::Pram.is_transitive());
    }
}
