//! Serializations (paper Definition 1): the checks the tests hold the
//! checkers' witness serializations to. The checkers search for
//! serializations themselves and never call these.
//!
//! A *serialization* `S` of a set of operations is a sequence containing
//! exactly those operations such that each read of a variable `x` returns
//! the value written by the most recent preceding write on `x` in `S` (or
//! `⊥` when no write precedes it). `S` *respects* an order relation when
//! related operations appear in relation order.

use crate::history::{History, OpIdx};
use crate::op::Value;
use crate::orders::OrderRelation;
use std::collections::BTreeMap;

/// Check that `seq` is a legal serialization of exactly the operations it
/// contains (Definition 1): every read returns the value of the most recent
/// preceding write to the same variable, or `⊥` if there is none.
pub(crate) fn is_legal(h: &History, seq: &[OpIdx]) -> bool {
    let mut last_write: BTreeMap<usize, Value> = BTreeMap::new();
    for &idx in seq {
        let op = h.op(idx);
        if op.is_write() {
            last_write.insert(op.var.index(), op.value);
        } else {
            let expected = last_write
                .get(&op.var.index())
                .copied()
                .unwrap_or(Value::Bottom);
            if op.value != expected {
                return false;
            }
        }
    }
    true
}

/// Check that `seq` contains each operation of `expected` exactly once and
/// nothing else.
pub(crate) fn is_permutation_of(seq: &[OpIdx], expected: &[OpIdx]) -> bool {
    if seq.len() != expected.len() {
        return false;
    }
    let mut a: Vec<OpIdx> = seq.to_vec();
    let mut b: Vec<OpIdx> = expected.to_vec();
    a.sort();
    a.dedup();
    b.sort();
    b.dedup();
    a == b && a.len() == seq.len()
}

/// Check that `seq` respects `rel`: whenever `rel.constrains(a, b)` and both
/// appear in `seq`, `a` appears before `b`.
pub(crate) fn respects(seq: &[OpIdx], rel: &dyn OrderRelation) -> bool {
    for (i, &a) in seq.iter().enumerate() {
        for &b in &seq[..i] {
            // b appears before a; a violation is a constraint a → b.
            if rel.constrains(a, b) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;
    use crate::op::{ProcId, VarId};
    use crate::orders::ProgramOrder;
    use crate::read_from::ReadFrom;

    fn wrw() -> (History, Vec<OpIdx>) {
        let mut hb = HistoryBuilder::new(2);
        let w1 = hb.write(ProcId(0), VarId(0), 1);
        let w2 = hb.write(ProcId(0), VarId(0), 2);
        let r = hb.read_int(ProcId(1), VarId(0), 1);
        let h = hb.build();
        (h, vec![w1, w2, r])
    }

    #[test]
    fn legality_requires_most_recent_write() {
        let (h, ops) = wrw();
        // read of 1 right after w(x)1 is legal...
        assert!(is_legal(&h, &[ops[0], ops[2], ops[1]]));
        // ...but after w(x)2 it is not.
        assert!(!is_legal(&h, &[ops[0], ops[1], ops[2]]));
    }

    #[test]
    fn read_of_bottom_requires_no_preceding_write() {
        let mut hb = HistoryBuilder::new(1);
        let w = hb.write(ProcId(0), VarId(0), 1);
        let rb = hb.read_bottom(ProcId(0), VarId(0));
        let h = hb.build();
        assert!(is_legal(&h, &[rb, w]));
        assert!(!is_legal(&h, &[w, rb]));
    }

    #[test]
    fn reads_of_other_variables_do_not_interfere() {
        let mut hb = HistoryBuilder::new(1);
        let wx = hb.write(ProcId(0), VarId(0), 1);
        let rb = hb.read_bottom(ProcId(0), VarId(1));
        let h = hb.build();
        assert!(is_legal(&h, &[wx, rb]));
    }

    #[test]
    fn permutation_check_rejects_duplicates_and_missing_ops() {
        let (_, ops) = wrw();
        assert!(is_permutation_of(&[ops[2], ops[0], ops[1]], &ops));
        assert!(!is_permutation_of(&[ops[0], ops[1]], &ops));
        assert!(!is_permutation_of(&[ops[0], ops[0], ops[1]], &ops));
    }

    #[test]
    fn respects_detects_order_violations() {
        let (h, ops) = wrw();
        let po = ProgramOrder::new(&h);
        assert!(respects(&[ops[0], ops[1], ops[2]], &po));
        assert!(!respects(&[ops[1], ops[0], ops[2]], &po));
    }

    #[test]
    fn full_validity_combines_all_three_checks() {
        let (h, ops) = wrw();
        let rf = ReadFrom::infer(&h).unwrap();
        let co = crate::orders::CausalOrder::new(&h, &rf);
        let valid =
            |seq: &[OpIdx]| is_permutation_of(seq, &ops) && is_legal(&h, seq) && respects(seq, &co);
        // w(x)1, r(x)1, w(x)2 is a permutation, legal, and respects co.
        assert!(valid(&[ops[0], ops[2], ops[1]]));
        // w(x)1, w(x)2, r(x)1 violates legality.
        assert!(!valid(&[ops[0], ops[1], ops[2]]));
    }
}
