//! The concrete share graphs and histories of the paper's Figures 1–6.
//!
//! Variable naming: the paper's `x`, `y`, `z` (and `x1`, `x2`) map to
//! `VarId(0)`, `VarId(1)`, `VarId(2)`, …; values `a, b, c, d, e` map to
//! `1, 2, 3, 4, 5`. Process `p_i` maps to `ProcId(i-1)`.
//!
//! One deliberate formalization note (also recorded in `DESIGN.md`): in
//! Figure 6 the paper derives `w2(y)e →lwb r3(z)c` "because of `w2(z)c`",
//! which under the *strict* reading of Definition 5 requires an operation
//! on `y` between `w2(y)e` and `w2(z)c` in `p2`'s program order (a write is
//! only lazily ordered before later operations on the same variable).
//! [`fig6_history`] therefore inserts the auxiliary read `r2(y)e` at that point,
//! which makes the implicit `→li` chain explicit without changing the
//! figure's meaning: `p2` still relays the dependency from `y` to `z`, and
//! the history is still not lazy semi-causally consistent.

use crate::distribution::Distribution;
use crate::history::{History, HistoryBuilder};
use crate::hoop::Hoop;
use crate::op::{ProcId, VarId};
use crate::relevance::witness_history;

/// Values used by the figures, named as in the paper.
pub mod values {
    /// `a`
    pub const A: i64 = 1;
    /// `b`
    pub const B: i64 = 2;
    /// `c`
    pub const C: i64 = 3;
    /// `d`
    pub const D: i64 = 4;
    /// `e`
    pub const E: i64 = 5;
}

/// Figure 1: three processes sharing two variables.
/// `X_i = {x1, x2}`, `X_j = {x1}`, `X_k = {x2}` with `p_i = p0`,
/// `p_j = p1`, `p_k = p2`, `x1 = VarId(0)`, `x2 = VarId(1)`.
pub fn fig1_distribution() -> Distribution {
    let mut d = Distribution::new(3, 2);
    d.assign(ProcId(0), VarId(0));
    d.assign(ProcId(0), VarId(1));
    d.assign(ProcId(1), VarId(0));
    d.assign(ProcId(2), VarId(1));
    d
}

/// Figure 2: a parametric x-hoop. Returns a distribution over
/// `intermediates + 2` processes in which `C(x) = {p0, p_last}` and the
/// processes in between form a single x-hoop, each consecutive pair sharing
/// a fresh variable.
///
/// `x` is `VarId(0)`; the edge variables are `VarId(1) … VarId(k)`.
pub fn fig2_distribution(intermediates: usize) -> Distribution {
    let n = intermediates + 2;
    let mut d = Distribution::new(n, intermediates + 2);
    let x = VarId(0);
    d.assign(ProcId(0), x);
    d.assign(ProcId(n - 1), x);
    for h in 0..=intermediates {
        // Edge between process h and h+1 shares variable h+1.
        d.assign(ProcId(h), VarId(h + 1));
        d.assign(ProcId(h + 1), VarId(h + 1));
    }
    d
}

/// The single x-hoop of [`fig2_distribution`], built directly.
pub fn fig2_hoop(intermediates: usize) -> Hoop {
    let n = intermediates + 2;
    Hoop {
        var: VarId(0),
        path: (0..n).map(ProcId).collect(),
        edge_vars: (1..n).map(VarId).collect(),
    }
}

/// Figure 3: the x-dependency-chain witness history along the Figure 2
/// hoop (also the construction used in Theorem 1's necessity proof).
pub fn fig3_history(intermediates: usize) -> History {
    witness_history(&fig2_hoop(intermediates)).expect("fig2 hoop is well formed")
}

/// The variable distribution shared by Figures 4 and the base of Figure 5:
/// `x` (VarId 0) is replicated on `p1` and `p3`; `y` (VarId 1) on all of
/// `p1`, `p2`, `p3`.
pub fn fig4_distribution() -> Distribution {
    let mut d = Distribution::new(3, 2);
    let (x, y) = (VarId(0), VarId(1));
    d.assign(ProcId(0), x);
    d.assign(ProcId(2), x);
    d.assign(ProcId(0), y);
    d.assign(ProcId(1), y);
    d.assign(ProcId(2), y);
    d
}

/// Figure 4: a history that is lazy causal but **not** causal.
///
/// ```text
/// p1: w1(x)a  r1(x)a  w1(y)b
/// p2: r2(y)b  w2(y)c
/// p3: r3(y)c  r3(x)⊥
/// ```
pub fn fig4_history() -> History {
    use values::*;
    let (x, y) = (VarId(0), VarId(1));
    let mut hb = HistoryBuilder::new(3);
    hb.write(ProcId(0), x, A);
    hb.read_int(ProcId(0), x, A);
    hb.write(ProcId(0), y, B);
    hb.read_int(ProcId(1), y, B);
    hb.write(ProcId(1), y, C);
    hb.read_int(ProcId(2), y, C);
    hb.read_bottom(ProcId(2), x);
    hb.build()
}

/// The variable distribution of Figures 5 and 6: `x` on `{p1, p3, p4}`,
/// `y` on `{p1, p2, p3}` (Figure 5) — Figure 6 replaces the `p2`–`p3` link
/// by `z`, see [`fig6_distribution`].
pub fn fig5_distribution() -> Distribution {
    let mut d = Distribution::new(4, 2);
    let (x, y) = (VarId(0), VarId(1));
    d.assign(ProcId(0), x);
    d.assign(ProcId(2), x);
    d.assign(ProcId(3), x);
    d.assign(ProcId(0), y);
    d.assign(ProcId(1), y);
    d.assign(ProcId(2), y);
    d
}

/// Figure 5: a history that is **not** lazy causal (but is PRAM consistent).
///
/// ```text
/// p1: w1(x)a  r1(x)a  w1(y)b
/// p2: r2(y)b  w2(y)c
/// p3: r3(y)c  w3(x)d
/// p4: r4(x)d  r4(x)a
/// ```
pub fn fig5_history() -> History {
    use values::*;
    let (x, y) = (VarId(0), VarId(1));
    let mut hb = HistoryBuilder::new(4);
    hb.write(ProcId(0), x, A);
    hb.read_int(ProcId(0), x, A);
    hb.write(ProcId(0), y, B);
    hb.read_int(ProcId(1), y, B);
    hb.write(ProcId(1), y, C);
    hb.read_int(ProcId(2), y, C);
    hb.write(ProcId(2), x, D);
    hb.read_int(ProcId(3), x, D);
    hb.read_int(ProcId(3), x, A);
    hb.build()
}

/// The variable distribution of Figure 6: `x` on `{p1, p3, p4}`, `y` on
/// `{p1, p2}`, `z` on `{p2, p3}` — so `[p1, p2, p3]` is an x-hoop whose
/// edges are labelled `y` and `z`.
pub fn fig6_distribution() -> Distribution {
    let mut d = Distribution::new(4, 3);
    let (x, y, z) = (VarId(0), VarId(1), VarId(2));
    d.assign(ProcId(0), x);
    d.assign(ProcId(2), x);
    d.assign(ProcId(3), x);
    d.assign(ProcId(0), y);
    d.assign(ProcId(1), y);
    d.assign(ProcId(1), z);
    d.assign(ProcId(2), z);
    d
}

/// Figure 6: a history that is **not** lazy semi-causally consistent
/// (and therefore not lazy causal or causal either), yet PRAM consistent.
///
/// ```text
/// p1: w1(x)a  r1(x)a  w1(y)b
/// p2: r2(y)b  w2(y)e  r2(y)e  w2(z)c
/// p3: r3(z)c  w3(x)d
/// p4: r4(x)d  r4(x)a
/// ```
///
/// (`r2(y)e` is the auxiliary read discussed in the module docs.)
pub fn fig6_history() -> History {
    use values::*;
    let (x, y, z) = (VarId(0), VarId(1), VarId(2));
    let mut hb = HistoryBuilder::new(4);
    hb.write(ProcId(0), x, A);
    hb.read_int(ProcId(0), x, A);
    hb.write(ProcId(0), y, B);
    hb.read_int(ProcId(1), y, B);
    hb.write(ProcId(1), y, E);
    hb.read_int(ProcId(1), y, E);
    hb.write(ProcId(1), z, C);
    hb.read_int(ProcId(2), z, C);
    hb.write(ProcId(2), x, D);
    hb.read_int(ProcId(3), x, D);
    hb.read_int(ProcId(3), x, A);
    hb.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{check, Criterion};
    use crate::dependency::{has_dependency_chain, ChainOrder};
    use crate::hoop::enumerate_hoops;
    use crate::read_from::ReadFrom;
    use crate::share_graph::ShareGraph;
    use std::collections::BTreeSet;

    #[test]
    fn fig1_cliques_match_the_paper() {
        let sg = ShareGraph::new(&fig1_distribution());
        assert_eq!(sg.clique(VarId(0)), BTreeSet::from([ProcId(0), ProcId(1)]));
        assert_eq!(sg.clique(VarId(1)), BTreeSet::from([ProcId(0), ProcId(2)]));
        assert_eq!(sg.edges().count(), 2);
        assert!(!sg.has_edge(ProcId(1), ProcId(2)));
    }

    #[test]
    fn fig2_distribution_has_exactly_one_hoop_matching_fig2_hoop() {
        for k in 1..=4 {
            let d = fig2_distribution(k);
            let sg = ShareGraph::new(&d);
            let hoops = enumerate_hoops(&sg, VarId(0), k + 4);
            assert_eq!(hoops.len(), 1, "k={k}");
            assert_eq!(hoops[0], fig2_hoop(k), "k={k}");
        }
    }

    #[test]
    fn fig3_history_is_causal_and_contains_the_chain() {
        for k in 1..=3 {
            let h = fig3_history(k);
            assert!(check(&h, Criterion::Causal).consistent);
            let rf = ReadFrom::infer(&h).unwrap();
            let hoop = fig2_hoop(k);
            assert!(has_dependency_chain(&h, &rf, ChainOrder::Causal, &hoop).is_some());
            assert!(has_dependency_chain(&h, &rf, ChainOrder::Pram, &hoop).is_none());
        }
    }

    #[test]
    fn fig4_is_lazy_causal_but_not_causal() {
        let h = fig4_history();
        assert!(!check(&h, Criterion::Causal).consistent, "{}", h.pretty());
        assert!(
            check(&h, Criterion::LazyCausal).consistent,
            "{}",
            h.pretty()
        );
        // Weaker criteria also hold.
        assert!(check(&h, Criterion::Pram).consistent);
    }

    #[test]
    fn fig4_has_no_x_dependency_chain_under_lazy_causal_order() {
        let h = fig4_history();
        let d = fig4_distribution();
        let sg = ShareGraph::new(&d);
        let hoops = enumerate_hoops(&sg, VarId(0), 6);
        assert_eq!(hoops.len(), 1, "the x-hoop [p1, p2, p3]");
        let rf = ReadFrom::infer(&h).unwrap();
        assert!(has_dependency_chain(&h, &rf, ChainOrder::LazyCausal, &hoops[0]).is_none());
        // Under causal order the chain exists — that is why Figure 4 is not
        // causally consistent once r3(x) is constrained.
        assert!(has_dependency_chain(&h, &rf, ChainOrder::Causal, &hoops[0]).is_some());
    }

    #[test]
    fn fig5_is_not_lazy_causal_but_is_pram() {
        let h = fig5_history();
        assert!(
            !check(&h, Criterion::LazyCausal).consistent,
            "{}",
            h.pretty()
        );
        assert!(!check(&h, Criterion::Causal).consistent);
        assert!(check(&h, Criterion::Pram).consistent, "{}", h.pretty());
    }

    #[test]
    fn fig5_chain_survives_lazy_causal_order() {
        let h = fig5_history();
        let d = fig5_distribution();
        let sg = ShareGraph::new(&d);
        let hoops = enumerate_hoops(&sg, VarId(0), 6);
        assert!(!hoops.is_empty());
        let rf = ReadFrom::infer(&h).unwrap();
        let found = hoops
            .iter()
            .any(|hp| has_dependency_chain(&h, &rf, ChainOrder::LazyCausal, hp).is_some());
        assert!(found, "the x-dependency chain along [p1, p2, p3] persists");
    }

    #[test]
    fn fig6_is_not_lazy_semi_causal_but_is_pram() {
        let h = fig6_history();
        assert!(
            !check(&h, Criterion::LazySemiCausal).consistent,
            "{}",
            h.pretty()
        );
        assert!(!check(&h, Criterion::LazyCausal).consistent);
        assert!(!check(&h, Criterion::Causal).consistent);
        assert!(check(&h, Criterion::Pram).consistent, "{}", h.pretty());
    }

    #[test]
    fn fig6_chain_survives_lazy_semi_causal_order() {
        let h = fig6_history();
        let d = fig6_distribution();
        let sg = ShareGraph::new(&d);
        let hoops = enumerate_hoops(&sg, VarId(0), 6);
        assert!(!hoops.is_empty());
        let rf = ReadFrom::infer(&h).unwrap();
        let found = hoops
            .iter()
            .any(|hp| has_dependency_chain(&h, &rf, ChainOrder::LazySemiCausal, hp).is_some());
        assert!(found);
        // And, per Theorem 2, never under PRAM.
        for hp in &hoops {
            assert!(has_dependency_chain(&h, &rf, ChainOrder::Pram, hp).is_none());
        }
    }

    #[test]
    fn figure_histories_use_the_documented_process_counts() {
        assert_eq!(fig4_history().process_count(), 3);
        assert_eq!(fig5_history().process_count(), 4);
        assert_eq!(fig6_history().process_count(), 4);
        assert_eq!(fig4_history().len(), 7);
        assert_eq!(fig5_history().len(), 9);
        assert_eq!(fig6_history().len(), 11);
    }
}
