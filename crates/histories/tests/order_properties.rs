//! Property tests on the order relations themselves: containments between
//! the relations the paper defines (§2, §4, §5), acyclicity, and agreement
//! between the closure-based orders and their defining base graphs.

use histories::{
    CausalOrder, History, HistoryBuilder, OrderRelation, PramRelation, ProcId, ProgramOrder,
    ReadFrom, VarId,
};
use proptest::prelude::*;

/// Random histories in which every read returns either ⊥ or the value of
/// some earlier write to the same variable (so read-from inference always
/// succeeds), without any consistency guarantee.
fn history_strategy() -> impl Strategy<Value = History> {
    (
        2usize..=4,
        1usize..=3,
        proptest::collection::vec((0usize..4, 0usize..3, any::<bool>(), any::<u16>()), 1..16),
    )
        .prop_map(|(procs, vars, script)| {
            let mut hb = HistoryBuilder::new(procs);
            let mut written: Vec<Vec<i64>> = vec![Vec::new(); vars];
            let mut next = 1i64;
            for (p, v, is_write, pick) in script {
                let p = ProcId(p % procs);
                let vi = v % vars;
                if is_write {
                    hb.write(p, VarId(vi), next);
                    written[vi].push(next);
                    next += 1;
                } else {
                    let opts = &written[vi];
                    let c = (pick as usize) % (opts.len() + 1);
                    if c == opts.len() {
                        hb.read_bottom(p, VarId(vi));
                    } else {
                        hb.read_int(p, VarId(vi), opts[c]);
                    }
                }
            }
            hb.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Program order is a per-process total order and never relates
    /// operations of different processes.
    #[test]
    fn program_order_structure(h in history_strategy()) {
        let po = ProgramOrder::new(&h);
        for (a, oa) in h.ops() {
            for (b, ob) in h.ops() {
                if a == b { continue; }
                let related = po.constrains(a, b);
                if related {
                    prop_assert_eq!(oa.proc, ob.proc);
                    prop_assert!(oa.pos < ob.pos);
                    prop_assert!(!po.constrains(b, a));
                }
                if oa.proc == ob.proc {
                    prop_assert!(po.constrains(a, b) || po.constrains(b, a));
                }
            }
        }
    }

    /// Causal order (and thus all the weaker orders) is acyclic on
    /// histories whose reads never return values from their own future —
    /// guaranteed here because reads only pick from already-issued writes.
    #[test]
    fn causal_order_is_acyclic(h in history_strategy()) {
        let rf = ReadFrom::infer(&h).unwrap();
        let co = CausalOrder::new(&h, &rf);
        for (a, _) in h.ops() {
            prop_assert!(!co.constrains(a, a), "no operation precedes itself");
        }
        for (a, _) in h.ops() {
            for (b, _) in h.ops() {
                if a != b && co.constrains(a, b) {
                    prop_assert!(!co.constrains(b, a), "antisymmetry");
                }
            }
        }
    }

    /// PRAM relation equals program order ∪ read-from exactly (no closure).
    #[test]
    fn pram_relation_is_po_union_ro(h in history_strategy()) {
        let rf = ReadFrom::infer(&h).unwrap();
        let po = ProgramOrder::new(&h);
        let pram = PramRelation::new(&h, &rf);
        for (a, _) in h.ops() {
            for (b, _) in h.ops() {
                if a == b { continue; }
                prop_assert_eq!(
                    pram.constrains(a, b),
                    po.constrains(a, b) || rf.relates(a, b)
                );
            }
        }
    }

    /// Concurrency is symmetric and excludes related pairs, for every order.
    #[test]
    fn concurrency_is_symmetric(h in history_strategy()) {
        let rf = ReadFrom::infer(&h).unwrap();
        let co = CausalOrder::new(&h, &rf);
        let pram = PramRelation::new(&h, &rf);
        for (a, _) in h.ops() {
            for (b, _) in h.ops() {
                prop_assert_eq!(co.concurrent(a, b), co.concurrent(b, a));
                prop_assert_eq!(pram.concurrent(a, b), pram.concurrent(b, a));
                if co.constrains(a, b) {
                    prop_assert!(!co.concurrent(a, b));
                }
            }
        }
    }

    /// Read-from inference: every non-⊥ read has exactly one source, which
    /// wrote the same value to the same variable; ⊥ reads have none.
    #[test]
    fn read_from_wellformedness(h in history_strategy()) {
        let rf = ReadFrom::infer(&h).unwrap();
        for (r, op) in h.reads() {
            match rf.source_of(r) {
                Some(w) => {
                    let wr = h.op(w);
                    prop_assert!(wr.is_write());
                    prop_assert_eq!(wr.var, op.var);
                    prop_assert_eq!(wr.value, op.value);
                    prop_assert!(!op.value.is_bottom());
                }
                None => prop_assert!(op.value.is_bottom()),
            }
        }
        for (w, r) in rf.pairs() {
            prop_assert!(h.op(w).is_write());
            prop_assert!(h.op(r).is_read());
        }
    }
}
