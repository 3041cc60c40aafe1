//! Property tests that reach inside the crate: the serialization search's
//! output against Definition 1, and the base graphs of lazy program order
//! and lazy writes-before against the relations built from them.

use crate::checker::{check, find_serialization, Criterion};
use crate::orders::{
    lazy_program_order_graph, lazy_writes_before_graph, CausalOrder, LazyCausalOrder,
    LazySemiCausalOrder, OrderRelation, PramRelation, ProgramOrder,
};
use crate::serialization::{is_legal, is_permutation_of, respects};
use crate::{History, HistoryBuilder, ProcId, ReadFrom, Value, VarId};
use proptest::prelude::*;

/// Generate a random history by simulating an atomic (single-copy) shared
/// memory with a random interleaving: such histories are sequentially
/// consistent by construction, hence consistent under every criterion.
fn atomic_history() -> impl Strategy<Value = History> {
    (
        2usize..=4,
        1usize..=3,
        proptest::collection::vec((0usize..4, 0usize..3, any::<bool>()), 1..14),
    )
        .prop_map(|(procs, vars, script)| {
            let mut hb = HistoryBuilder::new(procs);
            let mut memory = vec![Value::Bottom; vars];
            let mut next = 1i64;
            for (p, v, is_write) in script {
                let p = ProcId(p % procs);
                let v_idx = v % vars;
                let var = VarId(v_idx);
                if is_write {
                    hb.write(p, var, next);
                    memory[v_idx] = Value::Int(next);
                    next += 1;
                } else {
                    hb.read(p, var, memory[v_idx]);
                }
            }
            hb.build()
        })
}

/// Random histories of fewer than `max_ops` operations in which every read
/// returns either ⊥ or the value of some earlier write to the same
/// variable (so read-from inference always succeeds), without any
/// consistency guarantee.
fn arbitrary_history(max_ops: usize) -> impl Strategy<Value = History> {
    (
        2usize..=4,
        1usize..=3,
        proptest::collection::vec(
            (0usize..4, 0usize..3, any::<bool>(), any::<u16>()),
            1..max_ops,
        ),
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn witness_serializations_are_sound(h in atomic_history()) {
        let report = check(&h, Criterion::Causal);
        prop_assert!(report.consistent);
        let rf = ReadFrom::infer(&h).unwrap();
        let co = CausalOrder::new(&h, &rf);
        for (p, seq) in &report.serializations {
            let expected = h.h_i_plus_w(ProcId(*p));
            prop_assert!(is_permutation_of(seq, &expected));
            prop_assert!(is_legal(&h, seq));
            prop_assert!(respects(seq, &co));
        }
    }

    #[test]
    fn find_serialization_output_is_always_legal(h in arbitrary_history(12)) {
        if let Ok(rf) = ReadFrom::infer(&h) {
            let co = CausalOrder::new(&h, &rf);
            let all: Vec<_> = h.ops().map(|(i, _)| i).collect();
            if let Some(seq) = find_serialization(&h, &all, &co) {
                prop_assert!(is_permutation_of(&seq, &all));
                prop_assert!(is_legal(&h, &seq));
                prop_assert!(respects(&seq, &co));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Relation containments the paper's hierarchy relies on:
    /// lazy program order ⊆ program order, lazy causal ⊆ causal,
    /// lazy semi-causal ⊆ lazy causal, PRAM ⊆ causal.
    #[test]
    fn relation_containments(h in arbitrary_history(16)) {
        let rf = ReadFrom::infer(&h).unwrap();
        let po = ProgramOrder::new(&h);
        let co = CausalOrder::new(&h, &rf);
        let lco = LazyCausalOrder::new(&h, &rf);
        let lsc = LazySemiCausalOrder::new(&h, &rf);
        let pram = PramRelation::new(&h, &rf);
        let li = lazy_program_order_graph(&h);
        for (a, _) in h.ops() {
            for (b, _) in h.ops() {
                if a == b { continue; }
                if li.has_edge(a, b) {
                    prop_assert!(po.constrains(a, b), "li ⊆ po");
                }
                if lco.constrains(a, b) {
                    prop_assert!(co.constrains(a, b), "lco ⊆ co");
                }
                if lsc.constrains(a, b) {
                    prop_assert!(lco.constrains(a, b), "lsc ⊆ lco");
                }
                if pram.constrains(a, b) {
                    prop_assert!(co.constrains(a, b), "pram ⊆ co");
                }
            }
        }
    }

    /// The lazy writes-before relation only ever links a write to a read of
    /// a different operation, and every lwb edge is explained by an li-path
    /// through a write of the read's value (Definition 8).
    #[test]
    fn lazy_writes_before_shape(h in arbitrary_history(16)) {
        let rf = ReadFrom::infer(&h).unwrap();
        let lwb = lazy_writes_before_graph(&h, &rf);
        let li = lazy_program_order_graph(&h).closure();
        for (a, oa) in h.ops() {
            for (b, ob) in h.ops() {
                if !lwb.has_edge(a, b) { continue; }
                prop_assert!(oa.is_write());
                prop_assert!(ob.is_read());
                // The o' of Definition 8 is the source write of the read.
                let source = rf.source_of(b).expect("read of a written value");
                prop_assert!(source != a);
                prop_assert_eq!(h.op(source).proc, oa.proc);
                prop_assert!(li.reaches(a, source), "w_i(x)v →li o'");
            }
        }
    }
}
