//! Polynomial-time consistency *spot-checkers*.
//!
//! The full checkers in [`crate::checker`] search for the per-process
//! serializations the consistency definitions require; that search is
//! worst-case exponential, so large sweep cells cap it (the scenario tour
//! only runs it on histories of ≤ 24 operations). This module provides the
//! complementary tools for everything above the cap: polynomial scans that
//! are **sound for violations** — every history they reject genuinely
//! violates the criterion — but incomplete (a pass does not prove
//! consistency).
//!
//! [`pram_spot_check`] covers PRAM (every protocol's floor);
//! [`causal_spot_check`] sharpens the verdict for the causal protocols by
//! additionally rejecting histories whose writes-into ∪ program-order
//! closure is cyclic or in which a read returns a write that another
//! causally-interposed write to the same variable has already overwritten
//! — violations PRAM's per-writer view cannot see, because they arise from
//! exactly the cross-process transitivity PRAM drops.
//!
//! The scan exploits the PRAM obligation directly: process `p`'s
//! serialization of `H_{p+w}` must contain every writer's writes in that
//! writer's program order, and a read returns the last write to its
//! variable. Scanning `p`'s operations in program order while tracking,
//! per writer `q`, the prefix of `q`'s writes that is already forced to
//! precede the current point (because `p` read one of them, or issued
//! them itself), two situations are contradictions no serialization can
//! resolve:
//!
//! * **stale read** — `p` reads `q`'s `k`-th write of variable `x` after
//!   the forced prefix of `q` already contains a *later* write of `q` to
//!   `x`: that later write sits between the `k`-th write and the read in
//!   every admissible serialization, so the read can never return the
//!   `k`-th write's value;
//! * **`⊥` after a write** — `p` reads `⊥` from `x` although a write to
//!   `x` is already forced before the current point.
//!
//! Both checks use only program orders and the read-from relation, kept
//! in tables indexed by operation or by variable, so the whole scan is
//! `O(n · (|H| + m))` for `n` processes and `m` variables.

use crate::history::{History, OpIdx};
use crate::op::{ProcId, Value};
use crate::orders::ProgramOrder;
use crate::read_from::{ReadFrom, ReadFromError};
use std::fmt;

/// A contradiction found by [`pram_spot_check`]. Every variant is a
/// definite PRAM violation (soundness); the checker stops at the first
/// one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpotViolation {
    /// The read-from relation could not be inferred.
    ReadFrom(ReadFromError),
    /// `read` returns `source`, but `reader` had already observed
    /// `newer` — a later write by the same writer to the same variable.
    StaleRead {
        /// The process whose scan found the contradiction.
        reader: ProcId,
        /// The offending read.
        read: OpIdx,
        /// The write the read returns.
        source: OpIdx,
        /// The same writer's later write to the same variable that is
        /// already forced before the read.
        newer: OpIdx,
    },
    /// `read` returns `⊥` although `earlier_write` (to the same variable)
    /// is already forced before it.
    BottomAfterWrite {
        /// The process whose scan found the contradiction.
        reader: ProcId,
        /// The offending `⊥` read.
        read: OpIdx,
        /// A write to the read's variable already observed by the reader.
        earlier_write: OpIdx,
    },
}

impl fmt::Display for SpotViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpotViolation::ReadFrom(e) => write!(f, "read-from inference failed: {e}"),
            SpotViolation::StaleRead {
                reader,
                read,
                source,
                newer,
            } => write!(
                f,
                "{reader} reads {read:?} from {source:?} after observing the later write {newer:?} to the same variable"
            ),
            SpotViolation::BottomAfterWrite {
                reader,
                read,
                earlier_write,
            } => write!(
                f,
                "{reader} reads ⊥ at {read:?} after observing write {earlier_write:?} to the same variable"
            ),
        }
    }
}

impl std::error::Error for SpotViolation {}

/// Scan a history for definite PRAM violations in polynomial time.
///
/// Returns `Ok(())` when no contradiction is found — which does **not**
/// prove PRAM consistency (use [`crate::check`] for the complete, possibly
/// exponential answer) — and the first [`SpotViolation`] otherwise. Any
/// history rejected here is also rejected by the full PRAM checker.
///
/// Cost: the read-from inference (`O(|H| log |H|)`), then one scan per
/// reader over tables indexed by operation or by variable —
/// `O(n · (|H| + m))` for `n` processes and variable ids below `m`.
pub fn pram_spot_check(h: &History) -> Result<(), SpotViolation> {
    let rf = ReadFrom::infer(h).map_err(SpotViolation::ReadFrom)?;
    pram_scan(h, &rf)
}

/// One past the largest variable id of `h`: the length of the tables the
/// scans index by variable.
fn var_count(h: &History) -> usize {
    h.ops().map(|(_, op)| op.var.index() + 1).max().unwrap_or(0)
}

/// The PRAM scan of [`pram_spot_check`], given the history's read-from
/// relation.
fn pram_scan(h: &History, rf: &ReadFrom) -> Result<(), SpotViolation> {
    const NONE: usize = usize::MAX;
    let n = h.process_count();
    let vars = var_count(h);
    // Per writer q: q's writes in program order. Per write (indexed by
    // op): its position in that sequence, and the position of the same
    // writer's next write to the same variable (NONE if there is none).
    let mut writes_of: Vec<Vec<OpIdx>> = vec![Vec::new(); n];
    let mut write_index = vec![NONE; h.len()];
    let mut next_same_var = vec![NONE; h.len()];
    let mut last_write_to: Vec<Option<OpIdx>> = vec![None; vars];
    for (q, writes) in writes_of.iter_mut().enumerate() {
        last_write_to.fill(None);
        for &idx in h.local(ProcId(q)) {
            let op = h.op(idx);
            if op.is_write() {
                let k = writes.len();
                write_index[idx.index()] = k;
                if let Some(prev) = last_write_to[op.var.index()].replace(idx) {
                    next_same_var[prev.index()] = k;
                }
                writes.push(idx);
            }
        }
    }

    // forced[q]: how many of q's writes (a program-order prefix) are
    // already forced before the current point of the reader's
    // serialization. seen_var[x]: the first forced write to x, for the ⊥
    // rule. The stale rule needs the highest forced write of q to x, which
    // is the end of next_same_var's chain below forced[q].
    let mut forced: Vec<usize> = vec![0; n];
    let mut seen_var: Vec<Option<OpIdx>> = vec![None; vars];
    let advance = |q: usize, upto: usize, forced: &mut [usize], seen_var: &mut [Option<OpIdx>]| {
        while forced[q] < upto {
            let w = writes_of[q][forced[q]];
            seen_var[h.op(w).var.index()].get_or_insert(w);
            forced[q] += 1;
        }
    };

    for p in 0..n {
        let reader = ProcId(p);
        forced.fill(0);
        seen_var.fill(None);
        for &idx in h.local(reader) {
            let op = h.op(idx);
            if op.is_write() {
                // p's own writes are forced at their program positions.
                advance(p, write_index[idx.index()] + 1, &mut forced, &mut seen_var);
                continue;
            }
            match op.value {
                Value::Bottom => {
                    if let Some(w) = seen_var[op.var.index()] {
                        return Err(SpotViolation::BottomAfterWrite {
                            reader,
                            read: idx,
                            earlier_write: w,
                        });
                    }
                }
                Value::Int(_) => {
                    // Non-⊥ reads always have a source after successful
                    // read-from inference.
                    let source = rf.source_of(idx).expect("inferred read has a source");
                    let q = h.op(source).proc.index();
                    let k = write_index[source.index()];
                    let mut newest = next_same_var[source.index()];
                    if newest < forced[q] {
                        while next_same_var[writes_of[q][newest].index()] < forced[q] {
                            newest = next_same_var[writes_of[q][newest].index()];
                        }
                        return Err(SpotViolation::StaleRead {
                            reader,
                            read: idx,
                            source,
                            newer: writes_of[q][newest],
                        });
                    }
                    advance(q, k + 1, &mut forced, &mut seen_var);
                }
            }
        }
    }
    Ok(())
}

/// A contradiction found by [`causal_spot_check`]. Every variant is a
/// definite causal-consistency violation (soundness); the checker stops at
/// the first one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CausalSpotViolation {
    /// A PRAM violation — causal consistency implies PRAM consistency, so
    /// any rejection of the PRAM scan transfers.
    Pram(SpotViolation),
    /// The causal order (transitive closure of program order ∪ writes-into)
    /// contains a cycle through `witness`, so no serialization can respect
    /// it.
    CyclicCausalOrder {
        /// An operation lying on the cycle.
        witness: OpIdx,
    },
    /// `read` returns `source`, but `interposed` — a write to the same
    /// variable with `source 7→co interposed 7→co read` — sits between
    /// them in every causal serialization, overwriting the value.
    OverwrittenRead {
        /// The offending read.
        read: OpIdx,
        /// The write the read returns.
        source: OpIdx,
        /// The causally interposed write to the same variable.
        interposed: OpIdx,
    },
}

impl fmt::Display for CausalSpotViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CausalSpotViolation::Pram(v) => write!(f, "PRAM (hence causal) violation: {v}"),
            CausalSpotViolation::CyclicCausalOrder { witness } => {
                write!(f, "causal order has a cycle through {witness:?}")
            }
            CausalSpotViolation::OverwrittenRead {
                read,
                source,
                interposed,
            } => write!(
                f,
                "{read:?} reads from {source:?}, but write {interposed:?} to the same variable is causally between them"
            ),
        }
    }
}

impl std::error::Error for CausalSpotViolation {}

/// Scan a history for definite causal-consistency violations in polynomial
/// time.
///
/// Returns `Ok(())` when no contradiction is found — which does **not**
/// prove causal consistency (use [`crate::check`] for the complete,
/// possibly exponential answer) — and the first [`CausalSpotViolation`]
/// otherwise. Any history rejected here is also rejected by the full
/// causal checker. The read-from relation is inferred once and shared by
/// three scans, all polynomial:
///
/// 1. the PRAM spot scan (causal ⊆ PRAM histories, so its violations
///    transfer);
/// 2. cycle detection on the causal order — the transitive closure of
///    program order ∪ the writes-into relation, built by one SCC pass
///    (`RelationGraph::closure`: `O(|H| + e)` plus `O(e · ⌈|H|/64⌉)`
///    word ORs for `e` edges);
/// 3. overwritten reads: `r` reads from `w` although a write `w'` to the
///    same variable satisfies `w 7→co w' 7→co r`. Every causal
///    serialization of the reader's view orders `w` before `w'` before
///    `r`, so `r` can never return `w`'s value. Each read walks its
///    variable's writes in history order (`O(reads × writes per
///    variable)` lookups in the closure), so the first witness is the
///    earliest such `w'`.
pub fn causal_spot_check(h: &History) -> Result<(), CausalSpotViolation> {
    let rf =
        ReadFrom::infer(h).map_err(|e| CausalSpotViolation::Pram(SpotViolation::ReadFrom(e)))?;
    pram_scan(h, &rf).map_err(CausalSpotViolation::Pram)?;
    let mut graph = ProgramOrder::graph(h);
    for (w, r) in rf.pairs() {
        graph.add_edge(w, r);
    }
    let closure = graph.closure();
    if let Some(witness) = (0..h.len()).map(OpIdx).find(|&v| closure.reaches(v, v)) {
        return Err(CausalSpotViolation::CyclicCausalOrder { witness });
    }
    let mut writes_to: Vec<Vec<OpIdx>> = vec![Vec::new(); var_count(h)];
    for (idx, op) in h.writes() {
        writes_to[op.var.index()].push(idx);
    }
    for (read, op) in h.reads() {
        let Some(source) = rf.source_of(read) else {
            continue;
        };
        for &w in &writes_to[op.var.index()] {
            if w != source && closure.reaches(source, w) && closure.reaches(w, read) {
                return Err(CausalSpotViolation::OverwrittenRead {
                    read,
                    source,
                    interposed: w,
                });
            }
        }
    }
    Ok(())
}

/// The spot checkers over B-tree maps (read-from, write positions and the
/// per-writer forced state), with a second read-from inference inside the
/// causal scan and the DFS closure: the reference models the proptest in
/// `tests` pins the dense versions against.
#[cfg(test)]
mod reference {
    use super::{CausalSpotViolation, SpotViolation};
    use crate::history::{History, OpIdx};
    use crate::op::{ProcId, Value, VarId};
    use crate::orders::ProgramOrder;
    use crate::read_from::ReadFromError;
    use std::collections::BTreeMap;

    /// Read-from as a map from each non-`⊥` read to its write.
    pub(super) fn infer(h: &History) -> Result<BTreeMap<OpIdx, OpIdx>, ReadFromError> {
        let mut writer: BTreeMap<(VarId, Value), OpIdx> = BTreeMap::new();
        for (idx, op) in h.writes() {
            if writer.insert((op.var, op.value), idx).is_some() {
                return Err(ReadFromError::AmbiguousWrites {
                    var: op.var,
                    value: op.value,
                });
            }
        }
        let mut source = BTreeMap::new();
        for (idx, op) in h.reads() {
            if op.value.is_bottom() {
                continue;
            }
            match writer.get(&(op.var, op.value)) {
                Some(&w) => {
                    source.insert(idx, w);
                }
                None => return Err(ReadFromError::DanglingRead { read: idx }),
            }
        }
        Ok(source)
    }

    pub(super) fn pram_spot_check(h: &History) -> Result<(), SpotViolation> {
        let rf = infer(h).map_err(SpotViolation::ReadFrom)?;
        let n = h.process_count();
        let mut writes_of: Vec<Vec<OpIdx>> = vec![Vec::new(); n];
        let mut write_index: BTreeMap<OpIdx, usize> = BTreeMap::new();
        for (q, writes) in writes_of.iter_mut().enumerate() {
            for &idx in h.local(ProcId(q)) {
                if h.op(idx).is_write() {
                    write_index.insert(idx, writes.len());
                    writes.push(idx);
                }
            }
        }
        for p in 0..n {
            let reader = ProcId(p);
            let mut forced: Vec<usize> = vec![0; n];
            let mut seen_var: BTreeMap<VarId, OpIdx> = BTreeMap::new();
            let mut max_forced_to: Vec<BTreeMap<VarId, usize>> = vec![BTreeMap::new(); n];
            let advance =
                |q: usize,
                 upto: usize,
                 forced: &mut Vec<usize>,
                 seen_var: &mut BTreeMap<VarId, OpIdx>,
                 max_forced_to: &mut Vec<BTreeMap<VarId, usize>>| {
                    while forced[q] < upto {
                        let w = writes_of[q][forced[q]];
                        let var = h.op(w).var;
                        seen_var.entry(var).or_insert(w);
                        max_forced_to[q].insert(var, forced[q]);
                        forced[q] += 1;
                    }
                };
            for &idx in h.local(reader) {
                let op = h.op(idx);
                if op.is_write() {
                    let k = write_index[&idx];
                    advance(p, k + 1, &mut forced, &mut seen_var, &mut max_forced_to);
                    continue;
                }
                match op.value {
                    Value::Bottom => {
                        if let Some(&w) = seen_var.get(&op.var) {
                            return Err(SpotViolation::BottomAfterWrite {
                                reader,
                                read: idx,
                                earlier_write: w,
                            });
                        }
                    }
                    Value::Int(_) => {
                        let source = rf[&idx];
                        let q = h.op(source).proc.index();
                        let k = write_index[&source];
                        if let Some(&newest) = max_forced_to[q].get(&op.var) {
                            if newest > k {
                                return Err(SpotViolation::StaleRead {
                                    reader,
                                    read: idx,
                                    source,
                                    newer: writes_of[q][newest],
                                });
                            }
                        }
                        advance(q, k + 1, &mut forced, &mut seen_var, &mut max_forced_to);
                    }
                }
            }
        }
        Ok(())
    }

    pub(super) fn causal_spot_check(h: &History) -> Result<(), CausalSpotViolation> {
        pram_spot_check(h).map_err(CausalSpotViolation::Pram)?;
        let rf = infer(h).expect("read-from inference succeeded above");
        let mut graph = ProgramOrder::graph(h);
        for (&r, &w) in &rf {
            graph.add_edge(w, r);
        }
        let closure = graph.closure_by_dfs();
        for v in 0..h.len() {
            if closure.reaches(OpIdx(v), OpIdx(v)) {
                return Err(CausalSpotViolation::CyclicCausalOrder { witness: OpIdx(v) });
            }
        }
        let writes: Vec<(OpIdx, VarId)> = h.writes().map(|(idx, op)| (idx, op.var)).collect();
        for (read, op) in h.reads() {
            let Some(&source) = rf.get(&read) else {
                continue;
            };
            for &(w, var) in &writes {
                if var == op.var
                    && w != source
                    && closure.reaches(source, w)
                    && closure.reaches(w, read)
                {
                    return Err(CausalSpotViolation::OverwrittenRead {
                        read,
                        source,
                        interposed: w,
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{check, Criterion};
    use crate::history::HistoryBuilder;
    use crate::op::VarId;

    /// Every spot-checker rejection must be confirmed by the complete
    /// (exponential) PRAM checker — the soundness contract.
    fn assert_sound(h: &History) {
        if pram_spot_check(h).is_err() {
            assert!(
                !check(h, Criterion::Pram).consistent,
                "spot checker flagged a PRAM-consistent history:\n{}",
                h.pretty()
            );
        }
    }

    #[test]
    fn stale_read_of_the_same_writer_is_flagged() {
        // p0: w(x)1, w(x)2   p1: r(x)2, r(x)1
        let mut hb = HistoryBuilder::new(2);
        let w1 = hb.write(ProcId(0), VarId(0), 1);
        let w2 = hb.write(ProcId(0), VarId(0), 2);
        hb.read_int(ProcId(1), VarId(0), 2);
        let r1 = hb.read_int(ProcId(1), VarId(0), 1);
        let h = hb.build();
        assert_eq!(
            pram_spot_check(&h),
            Err(SpotViolation::StaleRead {
                reader: ProcId(1),
                read: r1,
                source: w1,
                newer: w2,
            })
        );
        assert_sound(&h);
    }

    #[test]
    fn bottom_after_an_observed_write_is_flagged() {
        // p0: w(x)1   p1: r(x)1, r(x)⊥
        let mut hb = HistoryBuilder::new(2);
        let w = hb.write(ProcId(0), VarId(0), 1);
        hb.read_int(ProcId(1), VarId(0), 1);
        let rb = hb.read_bottom(ProcId(1), VarId(0));
        let h = hb.build();
        assert_eq!(
            pram_spot_check(&h),
            Err(SpotViolation::BottomAfterWrite {
                reader: ProcId(1),
                read: rb,
                earlier_write: w,
            })
        );
        assert_sound(&h);
    }

    #[test]
    fn bottom_after_own_write_is_flagged() {
        let mut hb = HistoryBuilder::new(1);
        hb.write(ProcId(0), VarId(0), 1);
        hb.read_bottom(ProcId(0), VarId(0));
        let h = hb.build();
        assert!(matches!(
            pram_spot_check(&h),
            Err(SpotViolation::BottomAfterWrite { .. })
        ));
        assert_sound(&h);
    }

    #[test]
    fn observing_a_writer_indirectly_forces_its_earlier_writes() {
        // p0: w(x)1, w(y)2   p1: r(y)2, r(x)⊥
        // Reading y=2 forces w(x)1 (earlier in p0's program order) before
        // the ⊥ read of x.
        let mut hb = HistoryBuilder::new(2);
        hb.write(ProcId(0), VarId(0), 1);
        hb.write(ProcId(0), VarId(1), 2);
        hb.read_int(ProcId(1), VarId(1), 2);
        hb.read_bottom(ProcId(1), VarId(0));
        let h = hb.build();
        assert!(matches!(
            pram_spot_check(&h),
            Err(SpotViolation::BottomAfterWrite { .. })
        ));
        assert_sound(&h);
    }

    #[test]
    fn pram_consistent_disagreement_passes() {
        // The canonical causal-but-not-sequential history: different
        // processes may see different writers' writes in different orders.
        let mut hb = HistoryBuilder::new(4);
        hb.write(ProcId(0), VarId(0), 1);
        hb.write(ProcId(1), VarId(0), 2);
        hb.read_int(ProcId(2), VarId(0), 1);
        hb.read_int(ProcId(2), VarId(0), 2);
        hb.read_int(ProcId(3), VarId(0), 2);
        hb.read_int(ProcId(3), VarId(0), 1);
        let h = hb.build();
        assert_eq!(pram_spot_check(&h), Ok(()));
        assert!(check(&h, Criterion::Pram).consistent);
    }

    #[test]
    fn pram_but_not_causal_history_passes() {
        // p0: w(x)1   p1: r(x)1, w(x)2   p2: r(x)2, r(x)1
        let mut hb = HistoryBuilder::new(3);
        hb.write(ProcId(0), VarId(0), 1);
        hb.read_int(ProcId(1), VarId(0), 1);
        hb.write(ProcId(1), VarId(0), 2);
        hb.read_int(ProcId(2), VarId(0), 2);
        hb.read_int(ProcId(2), VarId(0), 1);
        let h = hb.build();
        assert_eq!(pram_spot_check(&h), Ok(()));
        assert!(check(&h, Criterion::Pram).consistent);
    }

    #[test]
    fn dangling_read_is_a_read_from_violation() {
        let mut hb = HistoryBuilder::new(1);
        hb.read_int(ProcId(0), VarId(0), 42);
        let h = hb.build();
        assert!(matches!(
            pram_spot_check(&h),
            Err(SpotViolation::ReadFrom(_))
        ));
    }

    #[test]
    fn empty_and_write_only_histories_pass() {
        assert_eq!(pram_spot_check(&HistoryBuilder::new(3).build()), Ok(()));
        let mut hb = HistoryBuilder::new(2);
        hb.write(ProcId(0), VarId(0), 1);
        hb.write(ProcId(1), VarId(1), 2);
        assert_eq!(pram_spot_check(&hb.build()), Ok(()));
    }

    #[test]
    fn agreement_with_the_complete_checker_on_exhaustive_small_histories() {
        // Enumerate all 2-process histories of the shape
        //   p0: w(x)1, w(x)2   p1: four reads of x drawn from {⊥, 1, 2}
        // and check soundness (spot reject ⇒ full reject) on each.
        let values = [Value::Bottom, Value::Int(1), Value::Int(2)];
        let mut spot_rejections = 0;
        for a in values {
            for b in values {
                for c in values {
                    let mut hb = HistoryBuilder::new(2);
                    hb.write(ProcId(0), VarId(0), 1);
                    hb.write(ProcId(0), VarId(0), 2);
                    for v in [a, b, c] {
                        hb.read(ProcId(1), VarId(0), v);
                    }
                    let h = hb.build();
                    assert_sound(&h);
                    if pram_spot_check(&h).is_err() {
                        spot_rejections += 1;
                    }
                }
            }
        }
        // Sanity: the family does contain violations the scan catches
        // (e.g. 2 then 1, or 1 then ⊥).
        assert!(spot_rejections >= 10, "caught {spot_rejections}");
    }

    /// Every causal spot rejection must be confirmed by the complete
    /// (exponential) causal checker — the soundness contract.
    fn assert_causal_sound(h: &History) {
        if causal_spot_check(h).is_err() {
            assert!(
                !check(h, Criterion::Causal).consistent,
                "causal spot checker flagged a causally consistent history:\n{}",
                h.pretty()
            );
        }
    }

    #[test]
    fn causal_spot_check_subsumes_the_pram_scan() {
        // p0: w(x)1, w(x)2   p1: r(x)2, r(x)1 — a PRAM violation.
        let mut hb = HistoryBuilder::new(2);
        hb.write(ProcId(0), VarId(0), 1);
        hb.write(ProcId(0), VarId(0), 2);
        hb.read_int(ProcId(1), VarId(0), 2);
        hb.read_int(ProcId(1), VarId(0), 1);
        let h = hb.build();
        assert!(matches!(
            causal_spot_check(&h),
            Err(CausalSpotViolation::Pram(SpotViolation::StaleRead { .. }))
        ));
        assert_causal_sound(&h);
    }

    #[test]
    fn overwritten_read_across_processes_is_flagged() {
        // p0: w(x)1   p1: r(x)1, w(x)2   p2: r(x)2, r(x)1
        // PRAM-consistent (each writer's own order is respected at p2) but
        // not causal: w(x)1 7→co w(x)2 through p1's read, so p2 may not
        // read 1 after 2.
        let mut hb = HistoryBuilder::new(3);
        let w1 = hb.write(ProcId(0), VarId(0), 1);
        hb.read_int(ProcId(1), VarId(0), 1);
        let w2 = hb.write(ProcId(1), VarId(0), 2);
        hb.read_int(ProcId(2), VarId(0), 2);
        let r1 = hb.read_int(ProcId(2), VarId(0), 1);
        let h = hb.build();
        assert_eq!(pram_spot_check(&h), Ok(()), "PRAM cannot see this");
        assert_eq!(
            causal_spot_check(&h),
            Err(CausalSpotViolation::OverwrittenRead {
                read: r1,
                source: w1,
                interposed: w2,
            })
        );
        assert!(!check(&h, Criterion::Causal).consistent);
        assert!(check(&h, Criterion::Pram).consistent);
    }

    #[test]
    fn cyclic_causal_order_is_flagged() {
        // p0: r(x)1, w(x)1 — the read returns a write that is
        // program-order after it: writes-into ∪ program order is cyclic.
        let mut hb = HistoryBuilder::new(1);
        hb.read_int(ProcId(0), VarId(0), 1);
        hb.write(ProcId(0), VarId(0), 1);
        let h = hb.build();
        assert!(matches!(
            causal_spot_check(&h),
            Err(CausalSpotViolation::CyclicCausalOrder { .. })
        ));
        assert_causal_sound(&h);
    }

    #[test]
    fn causally_consistent_histories_pass_the_causal_scan() {
        // Concurrent writes read in different orders by different
        // processes: causal (no causal edge between the writes).
        let mut hb = HistoryBuilder::new(4);
        hb.write(ProcId(0), VarId(0), 1);
        hb.write(ProcId(1), VarId(0), 2);
        hb.read_int(ProcId(2), VarId(0), 1);
        hb.read_int(ProcId(2), VarId(0), 2);
        hb.read_int(ProcId(3), VarId(0), 2);
        hb.read_int(ProcId(3), VarId(0), 1);
        let h = hb.build();
        assert_eq!(causal_spot_check(&h), Ok(()));
        assert!(check(&h, Criterion::Causal).consistent);
        // Empty histories trivially pass.
        assert_eq!(causal_spot_check(&HistoryBuilder::new(2).build()), Ok(()));
    }

    #[test]
    fn causal_scan_is_sound_on_exhaustive_small_histories() {
        // p0: w(x)1   p1: r(x)?, w(x)2   p2: two reads of x from {⊥,1,2}.
        // Check both soundness contracts on every member, and that the
        // causal scan is strictly sharper than the PRAM scan somewhere.
        let values = [Value::Bottom, Value::Int(1), Value::Int(2)];
        let mut sharper = 0;
        for a in values {
            for b in values {
                for c in values {
                    let mut hb = HistoryBuilder::new(3);
                    hb.write(ProcId(0), VarId(0), 1);
                    hb.read(ProcId(1), VarId(0), a);
                    hb.write(ProcId(1), VarId(0), 2);
                    hb.read(ProcId(2), VarId(0), b);
                    hb.read(ProcId(2), VarId(0), c);
                    let h = hb.build();
                    assert_sound(&h);
                    assert_causal_sound(&h);
                    if pram_spot_check(&h).is_ok() && causal_spot_check(&h).is_err() {
                        sharper += 1;
                    }
                }
            }
        }
        assert!(sharper >= 1, "the causal scan never out-resolved PRAM");
    }

    #[test]
    fn violations_render_readably() {
        let v = SpotViolation::StaleRead {
            reader: ProcId(1),
            read: OpIdx(3),
            source: OpIdx(0),
            newer: OpIdx(1),
        };
        assert!(v.to_string().contains("p1"));
        assert!(v.to_string().contains("later write"));
        let b = SpotViolation::BottomAfterWrite {
            reader: ProcId(0),
            read: OpIdx(2),
            earlier_write: OpIdx(1),
        };
        assert!(b.to_string().contains("⊥"));
        let c = CausalSpotViolation::OverwrittenRead {
            read: OpIdx(3),
            source: OpIdx(0),
            interposed: OpIdx(1),
        };
        assert!(c.to_string().contains("causally between"));
        let cy = CausalSpotViolation::CyclicCausalOrder { witness: OpIdx(2) };
        assert!(cy.to_string().contains("cycle"));
        let p = CausalSpotViolation::Pram(v);
        assert!(p.to_string().contains("PRAM"));
    }

    /// Process count, variable count, whether reads may return later
    /// writes, and per script step: process, variable, kind and pick.
    type HistorySpec = (usize, usize, bool, Vec<(usize, usize, u8, u16)>);

    /// Random small histories: one to four processes over one to three
    /// variables. Writes store unique values, except that about one write
    /// in sixteen repeats the first value written to its variable. A read
    /// returns `⊥` or the value of a write to its variable: with `anywhere`
    /// any such write, earlier or later in the script (so stale reads and
    /// causal cycles are common), otherwise one issued earlier in the
    /// script (so overwritten reads show up behind a clean PRAM scan).
    /// About one read in forty returns a value never written.
    fn small_history((procs, vars, anywhere, script): HistorySpec) -> History {
        let is_write = |kind: u8| kind < 6;
        let mut written: Vec<Vec<i64>> = vec![Vec::new(); vars];
        let mut value_of = vec![0i64; script.len()];
        // How many writes each variable has before each script step.
        let mut earlier = vec![0usize; script.len()];
        for (i, &(_, v, kind, pick)) in script.iter().enumerate() {
            let seen = &mut written[v % vars];
            earlier[i] = seen.len();
            if is_write(kind) {
                value_of[i] = match seen.first() {
                    Some(&first) if pick % 16 == 0 => first,
                    _ => i as i64 + 1,
                };
                seen.push(value_of[i]);
            }
        }
        let mut hb = HistoryBuilder::new(procs);
        for (i, &(p, v, kind, pick)) in script.iter().enumerate() {
            let (p, var) = (ProcId(p % procs), VarId(v % vars));
            let values = &written[var.index()];
            let values = if anywhere {
                &values[..]
            } else {
                &values[..earlier[i]]
            };
            if is_write(kind) {
                hb.write(p, var, value_of[i]);
            } else if kind == 6 && pick % 4 == 0 {
                hb.read_int(p, var, -1);
            } else {
                match values.get(pick as usize % values.len().max(1)) {
                    Some(&value) if pick % 8 != 1 => hb.read_int(p, var, value),
                    _ => hb.read_bottom(p, var),
                };
            }
        }
        hb.build()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]

        /// The dense read-from table and spot checkers return exactly what
        /// the B-tree reference models return: the same relation, the same
        /// error variant and the same witness operations.
        #[test]
        fn spot_checkers_match_the_btree_reference(
            spec in (
                1usize..=4,
                1usize..=3,
                proptest::arbitrary::any::<bool>(),
                proptest::collection::vec(
                    (0usize..4, 0usize..3, 0u8..16, proptest::arbitrary::any::<u16>()),
                    0..24,
                ),
            ),
        ) {
            let h = small_history(spec);
            let pairs = ReadFrom::infer(&h).map(|rf| rf.pairs().collect::<Vec<_>>());
            let reference_pairs =
                reference::infer(&h).map(|rf| rf.into_iter().map(|(r, w)| (w, r)).collect());
            proptest::prop_assert_eq!(pairs, reference_pairs, "{}", h.pretty());
            proptest::prop_assert_eq!(
                pram_spot_check(&h),
                reference::pram_spot_check(&h),
                "{}",
                h.pretty()
            );
            proptest::prop_assert_eq!(
                causal_spot_check(&h),
                reference::causal_spot_check(&h),
                "{}",
                h.pretty()
            );
        }
    }
}
