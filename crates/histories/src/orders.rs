//! The order relations of the paper.
//!
//! * Program order `7→i` and causal order `7→co` (§2).
//! * Lazy program order `→li` (Definition 5) and lazy causal order `7→lco`
//!   (Definition 6).
//! * Lazy writes-before `→lwb` (Definition 8) and lazy semi-causal order
//!   `7→lsc` (Definition 9).
//! * The PRAM relation `7→pram` (Definition 11) — *not* transitively closed.
//!
//! Every relation implements [`OrderRelation`], whose single obligation is
//! `constrains(o1, o2)`: must `o1` precede `o2` in any serialization that
//! contains both? For the transitive orders this is reachability in the
//! closure computed over the *whole* history; for PRAM it is the direct
//! relation only. The distinction is exactly the paper's point: PRAM
//! "relaxes the transitivity due to intermediary processes", so constraints
//! routed through operations outside `H_{i+w}` simply vanish.

use crate::history::{History, OpIdx};
use crate::op::OpKind;
use crate::read_from::ReadFrom;
use crate::relation::{Reachability, RelationGraph};

/// A binary order relation over the operations of a history.
pub trait OrderRelation {
    /// Human-readable name (used in reports).
    fn name(&self) -> &'static str;

    /// Whether `a` must precede `b` in any serialization containing both.
    fn constrains(&self, a: OpIdx, b: OpIdx) -> bool;

    /// Whether `a` and `b` are unordered in both directions.
    fn concurrent(&self, a: OpIdx, b: OpIdx) -> bool {
        a != b && !self.constrains(a, b) && !self.constrains(b, a)
    }
}

/// Program order `7→i`: the total order of each process's local history.
#[derive(Clone, Debug)]
pub struct ProgramOrder {
    /// (proc index, position) per operation.
    key: Vec<(usize, usize)>,
}

impl ProgramOrder {
    /// Build from a history.
    pub fn new(h: &History) -> Self {
        let key = h.ops().map(|(_, o)| (o.proc.index(), o.pos)).collect();
        ProgramOrder { key }
    }

    /// The direct-edge graph (each op to its immediate program-order successor).
    pub(crate) fn graph(h: &History) -> RelationGraph {
        let mut g = RelationGraph::new(h.len());
        for p in 0..h.process_count() {
            let local = h.local(crate::op::ProcId(p));
            for w in local.windows(2) {
                g.add_edge(w[0], w[1]);
            }
        }
        g
    }
}

impl OrderRelation for ProgramOrder {
    fn name(&self) -> &'static str {
        "program order"
    }
    fn constrains(&self, a: OpIdx, b: OpIdx) -> bool {
        let (pa, ia) = self.key[a.index()];
        let (pb, ib) = self.key[b.index()];
        pa == pb && ia < ib
    }
}

/// Causal order `7→co`: transitive closure of program order ∪ read-from.
#[derive(Clone, Debug)]
pub struct CausalOrder {
    closure: Reachability,
}

impl CausalOrder {
    /// Build from a history and its read-from relation.
    pub fn new(h: &History, rf: &ReadFrom) -> Self {
        let mut g = ProgramOrder::graph(h);
        for (w, r) in rf.pairs() {
            g.add_edge(w, r);
        }
        CausalOrder {
            closure: g.closure(),
        }
    }
}

impl OrderRelation for CausalOrder {
    fn name(&self) -> &'static str {
        "causal order"
    }
    fn constrains(&self, a: OpIdx, b: OpIdx) -> bool {
        self.closure.reaches(a, b)
    }
}

/// The direct-edge graph of lazy program order `→li` (Definition 5), before
/// transitive closure: `o1 →li o2` when `o1` is invoked before `o2` by the
/// same process and
/// * `o1` is a read and `o2` is a read on the same variable or a write
///   (on any variable), or
/// * `o1` is a write and `o2` is an operation on the same variable.
pub(crate) fn lazy_program_order_graph(h: &History) -> RelationGraph {
    let mut g = RelationGraph::new(h.len());
    for p in 0..h.process_count() {
        let local = h.local(crate::op::ProcId(p));
        for (i, &a) in local.iter().enumerate() {
            for &b in &local[i + 1..] {
                let oa = h.op(a);
                let ob = h.op(b);
                let related = match oa.kind {
                    OpKind::Read => {
                        (ob.kind == OpKind::Read && ob.var == oa.var) || ob.kind == OpKind::Write
                    }
                    OpKind::Write => ob.var == oa.var,
                };
                if related {
                    g.add_edge(a, b);
                }
            }
        }
    }
    g
}

/// Lazy causal order `7→lco` (Definition 6): transitive closure of lazy
/// program order ∪ read-from.
#[derive(Clone, Debug)]
pub(crate) struct LazyCausalOrder {
    closure: Reachability,
}

impl LazyCausalOrder {
    /// Build from a history and its read-from relation.
    pub(crate) fn new(h: &History, rf: &ReadFrom) -> Self {
        let mut g = lazy_program_order_graph(h);
        for (w, r) in rf.pairs() {
            g.add_edge(w, r);
        }
        LazyCausalOrder {
            closure: g.closure(),
        }
    }
}

impl OrderRelation for LazyCausalOrder {
    fn name(&self) -> &'static str {
        "lazy causal order"
    }
    fn constrains(&self, a: OpIdx, b: OpIdx) -> bool {
        self.closure.reaches(a, b)
    }
}

/// The direct edges of the lazy writes-before relation `→lwb`
/// (Definition 8): `o1 →lwb o2` when `o1 = w_i(x)v`, `o2 = r_j(y)u` and
/// there exists `o' = w_i(y)u` with `o1 →li o'`.
///
/// Under the data-independence assumption, `o'` is exactly the write that
/// `o2` reads from (they write the same value to the same variable), so the
/// edges are found by walking the read-from pairs.
pub(crate) fn lazy_writes_before_graph(h: &History, rf: &ReadFrom) -> RelationGraph {
    let li = lazy_program_order_graph(h).closure();
    let mut g = RelationGraph::new(h.len());
    for (w_prime, read) in rf.pairs() {
        let writer = h.op(w_prime).proc;
        // Every earlier write o1 of the same process with o1 →li o'.
        for &o1 in h.local(writer) {
            if o1 == w_prime {
                continue;
            }
            if h.op(o1).is_write() && li.reaches(o1, w_prime) {
                g.add_edge(o1, read);
            }
        }
    }
    g
}

/// Lazy semi-causal order `7→lsc` (Definition 9): transitive closure of lazy
/// program order ∪ lazy writes-before.
#[derive(Clone, Debug)]
pub(crate) struct LazySemiCausalOrder {
    closure: Reachability,
}

impl LazySemiCausalOrder {
    /// Build from a history and its read-from relation.
    pub(crate) fn new(h: &History, rf: &ReadFrom) -> Self {
        let g = lazy_program_order_graph(h).union(&lazy_writes_before_graph(h, rf));
        LazySemiCausalOrder {
            closure: g.closure(),
        }
    }
}

impl OrderRelation for LazySemiCausalOrder {
    fn name(&self) -> &'static str {
        "lazy semi-causal order"
    }
    fn constrains(&self, a: OpIdx, b: OpIdx) -> bool {
        self.closure.reaches(a, b)
    }
}

/// The PRAM relation `7→pram` (Definition 11): program order ∪ read-from,
/// **without** transitive closure. It is acyclic but not a partial order.
#[derive(Clone, Debug)]
pub struct PramRelation {
    po: ProgramOrder,
    rf: ReadFrom,
}

impl PramRelation {
    /// Build from a history and its read-from relation.
    pub fn new(h: &History, rf: &ReadFrom) -> Self {
        PramRelation {
            po: ProgramOrder::new(h),
            rf: rf.clone(),
        }
    }
}

impl OrderRelation for PramRelation {
    fn name(&self) -> &'static str {
        "PRAM relation"
    }
    fn constrains(&self, a: OpIdx, b: OpIdx) -> bool {
        self.po.constrains(a, b) || self.rf.relates(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;
    use crate::op::{ProcId, VarId};

    /// p1: w(x)1, w(y)2   p2: r(y)2, w(z)3   p3: r(z)3, r(x)⊥
    fn chain_history() -> (History, ReadFrom, Vec<OpIdx>) {
        let mut hb = HistoryBuilder::new(3);
        let wx = hb.write(ProcId(0), VarId(0), 1);
        let wy = hb.write(ProcId(0), VarId(1), 2);
        let ry = hb.read_int(ProcId(1), VarId(1), 2);
        let wz = hb.write(ProcId(1), VarId(2), 3);
        let rz = hb.read_int(ProcId(2), VarId(2), 3);
        let rx = hb.read_bottom(ProcId(2), VarId(0));
        let h = hb.build();
        let rf = ReadFrom::infer(&h).unwrap();
        (h, rf, vec![wx, wy, ry, wz, rz, rx])
    }

    #[test]
    fn program_order_relates_only_same_process() {
        let (h, _, ops) = chain_history();
        let po = ProgramOrder::new(&h);
        assert!(po.constrains(ops[0], ops[1]));
        assert!(!po.constrains(ops[1], ops[0]));
        assert!(!po.constrains(ops[0], ops[2]));
        assert!(po.concurrent(ops[0], ops[2]));
        assert_eq!(po.name(), "program order");
    }

    #[test]
    fn causal_order_is_transitive_across_processes() {
        let (h, rf, ops) = chain_history();
        let co = CausalOrder::new(&h, &rf);
        // w1(x)1 7→co r3(x)⊥ through the chain wy → ry → wz → rz → rx.
        assert!(co.constrains(ops[0], ops[5]));
        assert!(co.constrains(ops[1], ops[4]));
        assert!(!co.constrains(ops[5], ops[0]));
        assert_eq!(co.name(), "causal order");
    }

    #[test]
    fn lazy_program_order_omits_read_then_read_different_var() {
        // p3: r(z)3 then r(x)⊥ — reads on different variables are unrelated.
        let (h, _, ops) = chain_history();
        let li = lazy_program_order_graph(&h).closure();
        assert!(!li.reaches(ops[4], ops[5]));
        // But read then write is related: p2's r(y)2 →li w(z)3.
        assert!(li.reaches(ops[2], ops[3]));
        // And write then same-variable op: not present here for p1
        // (w(x)1 then w(y)2 are different variables).
        assert!(!li.reaches(ops[0], ops[1]));
    }

    #[test]
    fn lazy_causal_breaks_the_chain_that_causal_keeps() {
        let (h, rf, ops) = chain_history();
        let co = CausalOrder::new(&h, &rf);
        let lco = LazyCausalOrder::new(&h, &rf);
        // Causally the first write precedes the last read...
        assert!(co.constrains(ops[0], ops[5]));
        // ...but lazily it does not: p1's w(x)1 is not →li-related to w(y)2,
        // and p3's r(z)3 is not →li-related to r(x)⊥.
        assert!(!lco.constrains(ops[0], ops[5]));
        assert_eq!(lco.name(), "lazy causal order");
    }

    #[test]
    fn lazy_writes_before_requires_li_between_the_writes() {
        // p1: w(x)1, r(x)1, w(y)2   p2: r(y)2
        // w(x)1 →li r(x)1 →li w(y)2, so w(x)1 →lwb r2(y)2.
        let mut hb = HistoryBuilder::new(2);
        let wx = hb.write(ProcId(0), VarId(0), 1);
        let rx = hb.read_int(ProcId(0), VarId(0), 1);
        let wy = hb.write(ProcId(0), VarId(1), 2);
        let ry = hb.read_int(ProcId(1), VarId(1), 2);
        let h = hb.build();
        let rf = ReadFrom::infer(&h).unwrap();
        let lwb = lazy_writes_before_graph(&h, &rf);
        assert!(lwb.has_edge(wx, ry));
        assert!(!lwb.has_edge(rx, ry));
        assert!(!lwb.has_edge(wy, ry), "o1 must differ from o'");

        // Without the intermediate read the li link is missing and so is lwb.
        let mut hb2 = HistoryBuilder::new(2);
        let wx2 = hb2.write(ProcId(0), VarId(0), 1);
        hb2.write(ProcId(0), VarId(1), 2);
        let ry2 = hb2.read_int(ProcId(1), VarId(1), 2);
        let h2 = hb2.build();
        let rf2 = ReadFrom::infer(&h2).unwrap();
        let lwb2 = lazy_writes_before_graph(&h2, &rf2);
        assert!(!lwb2.has_edge(wx2, ry2));
    }

    #[test]
    fn lazy_semi_causal_contains_lwb_chains() {
        let mut hb = HistoryBuilder::new(2);
        let wx = hb.write(ProcId(0), VarId(0), 1);
        hb.read_int(ProcId(0), VarId(0), 1);
        hb.write(ProcId(0), VarId(1), 2);
        let ry = hb.read_int(ProcId(1), VarId(1), 2);
        let wz = hb.write(ProcId(1), VarId(2), 3);
        let h = hb.build();
        let rf = ReadFrom::infer(&h).unwrap();
        let lsc = LazySemiCausalOrder::new(&h, &rf);
        assert!(lsc.constrains(wx, ry));
        // ry →li wz (read then write), so by transitivity wx 7→lsc wz.
        assert!(lsc.constrains(wx, wz));
        assert_eq!(lsc.name(), "lazy semi-causal order");
    }

    #[test]
    fn pram_relation_is_not_transitive() {
        let (h, rf, ops) = chain_history();
        let pram = PramRelation::new(&h, &rf);
        // Direct program order and read-from edges hold...
        assert!(pram.constrains(ops[0], ops[1]));
        assert!(pram.constrains(ops[1], ops[2]));
        assert!(pram.constrains(ops[3], ops[4]));
        // ...but the transitive consequence does not.
        assert!(!pram.constrains(ops[0], ops[2]));
        assert!(!pram.constrains(ops[0], ops[5]));
        assert!(!pram.concurrent(ops[0], ops[2]) || !pram.constrains(ops[2], ops[0]));
        assert_eq!(pram.name(), "PRAM relation");
    }
}
