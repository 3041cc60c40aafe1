//! Consistency checkers.
//!
//! Each criterion is checked exactly as its definition states: for every
//! application process `ap_i` we search for a serialization of `H_{i+w}`
//! that is legal (Definition 1) and respects the criterion's order relation
//! (Definitions 2, 7, 10, 12). Sequential consistency instead asks for a
//! single serialization of all operations respecting program order.
//!
//! The search is an explicit backtracking enumeration of linear extensions;
//! checking these criteria is NP-hard in general, but the histories
//! handled here (paper figures, protocol runs of bounded length, property
//! test cases) are small. The checker is deliberately *trustworthy rather
//! than clever*: it is the oracle the protocol implementations in the `dsm`
//! crate are validated against.

use crate::history::{History, OpIdx};
use crate::op::{ProcId, Value};
use crate::orders::{
    CausalOrder, LazyCausalOrder, LazySemiCausalOrder, OrderRelation, PramRelation, ProgramOrder,
};
use crate::read_from::{ReadFrom, ReadFromError};
use std::collections::BTreeMap;
use std::fmt;

/// The consistency criteria studied in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Criterion {
    /// Sequential consistency (Lamport): one legal serialization of all
    /// operations respecting program order.
    Sequential,
    /// Causal consistency (Ahamad et al., Definition 2).
    Causal,
    /// Lazy causal consistency (Definition 7, introduced by the paper).
    LazyCausal,
    /// Lazy semi-causal consistency (Definition 10, introduced by the paper).
    LazySemiCausal,
    /// PRAM / pipelined RAM consistency (Lipton & Sandberg, Definition 12).
    Pram,
}

impl Criterion {
    /// All criteria, ordered from strongest to weakest as established by the
    /// paper (§4–5).
    pub const ALL: [Criterion; 5] = [
        Criterion::Sequential,
        Criterion::Causal,
        Criterion::LazyCausal,
        Criterion::LazySemiCausal,
        Criterion::Pram,
    ];

    /// Short display name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Criterion::Sequential => "sequential",
            Criterion::Causal => "causal",
            Criterion::LazyCausal => "lazy causal",
            Criterion::LazySemiCausal => "lazy semi-causal",
            Criterion::Pram => "PRAM",
        }
    }
}

impl fmt::Display for Criterion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a history failed a consistency check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// The read-from relation could not be inferred.
    ReadFrom(ReadFromError),
    /// No legal, order-respecting serialization of `H_{i+w}` exists for
    /// this process (or of the whole history, for sequential consistency,
    /// in which case the process is `None`).
    NoSerialization {
        /// The process whose serialization obligation failed.
        process: Option<ProcId>,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::ReadFrom(e) => write!(f, "read-from inference failed: {e}"),
            Violation::NoSerialization { process: Some(p) } => {
                write!(f, "no valid serialization of H_{{{p}+w}} exists")
            }
            Violation::NoSerialization { process: None } => {
                write!(f, "no valid global serialization exists")
            }
        }
    }
}

/// Result of checking one criterion against one history.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConsistencyReport {
    /// The criterion that was checked.
    pub criterion: Criterion,
    /// Whether the history satisfies it.
    pub consistent: bool,
    /// On success, one witnessing serialization per process (for sequential
    /// consistency, the single global serialization is stored under every
    /// process id).
    pub serializations: BTreeMap<usize, Vec<OpIdx>>,
    /// On failure, the reason.
    pub violation: Option<Violation>,
}

impl ConsistencyReport {
    fn ok(criterion: Criterion, serializations: BTreeMap<usize, Vec<OpIdx>>) -> Self {
        ConsistencyReport {
            criterion,
            consistent: true,
            serializations,
            violation: None,
        }
    }

    fn fail(criterion: Criterion, violation: Violation) -> Self {
        ConsistencyReport {
            criterion,
            consistent: false,
            serializations: BTreeMap::new(),
            violation: Some(violation),
        }
    }
}

/// Search for a legal serialization of `op_set` respecting `rel`.
///
/// Returns one such serialization, or `None` if none exists. `op_set` must
/// not contain duplicates.
pub(crate) fn find_serialization(
    h: &History,
    op_set: &[OpIdx],
    rel: &dyn OrderRelation,
) -> Option<Vec<OpIdx>> {
    // Precompute, for each op in the set, the set members that must precede it.
    let n = op_set.len();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, &a) in op_set.iter().enumerate() {
        for (j, &b) in op_set.iter().enumerate() {
            if i != j && rel.constrains(b, a) {
                preds[i].push(j);
            }
        }
    }

    struct Search<'a> {
        h: &'a History,
        ops: &'a [OpIdx],
        preds: &'a [Vec<usize>],
        placed: Vec<bool>,
        seq: Vec<usize>,
        last_write: BTreeMap<usize, Value>,
    }

    impl Search<'_> {
        /// Whether op `i`'s relation predecessors are all placed.
        fn ready(&self, i: usize) -> bool {
            self.preds[i].iter().all(|&p| self.placed[p])
        }

        /// Index of a ready read whose expected value is currently the last
        /// write to its variable. Placing such a read immediately is always
        /// safe: it does not change the write state, all its predecessors
        /// are already placed, and its own ordering constraints towards
        /// later operations are preserved — so it is a forced move that
        /// needs no backtracking.
        fn forced_read(&self) -> Option<usize> {
            (0..self.ops.len()).find(|&i| {
                if self.placed[i] || !self.ready(i) {
                    return false;
                }
                let op = self.h.op(self.ops[i]);
                op.is_read()
                    && self
                        .last_write
                        .get(&op.var.index())
                        .copied()
                        .unwrap_or(Value::Bottom)
                        == op.value
            })
        }

        /// Dead-end detection: an unplaced read can never become legal if
        /// it expects `⊥` but some write to its variable is already placed,
        /// or if it expects a value whose (unique) writing operation is
        /// placed but no longer the last write to the variable. (Writes
        /// store pairwise distinct values per variable — enforced by the
        /// read-from inference — so an overwritten value never reappears.)
        fn doomed(&self) -> bool {
            (0..self.ops.len()).any(|i| {
                if self.placed[i] {
                    return false;
                }
                let op = self.h.op(self.ops[i]);
                if !op.is_read() {
                    return false;
                }
                let current = self.last_write.get(&op.var.index()).copied();
                match (op.value, current) {
                    // Expecting ⊥ but the variable has been written.
                    (Value::Bottom, Some(_)) => true,
                    // Expecting v: doomed if v's writer is placed yet v is
                    // no longer the current value of the variable.
                    (v, current) => {
                        current != Some(v)
                            && self.ops.iter().enumerate().any(|(j, &idx)| {
                                self.placed[j] && {
                                    let w = self.h.op(idx);
                                    w.is_write() && w.var == op.var && w.value == v
                                }
                            })
                    }
                }
            })
        }

        fn solve(&mut self) -> bool {
            if self.seq.len() == self.ops.len() {
                return true;
            }
            if self.doomed() {
                return false;
            }
            // Forced move: place any currently-legal ready read.
            if let Some(i) = self.forced_read() {
                self.placed[i] = true;
                self.seq.push(i);
                if self.solve() {
                    return true;
                }
                self.seq.pop();
                self.placed[i] = false;
                return false;
            }
            for i in 0..self.ops.len() {
                if self.placed[i] || !self.ready(i) {
                    continue;
                }
                let op = self.h.op(self.ops[i]);
                let prev = if op.is_read() {
                    let current = self
                        .last_write
                        .get(&op.var.index())
                        .copied()
                        .unwrap_or(Value::Bottom);
                    if current != op.value {
                        continue;
                    }
                    None
                } else {
                    let prev = self.last_write.insert(op.var.index(), op.value);
                    Some(prev)
                };
                self.placed[i] = true;
                self.seq.push(i);
                if self.solve() {
                    return true;
                }
                self.seq.pop();
                self.placed[i] = false;
                if op.is_write() {
                    match prev {
                        Some(Some(v)) => {
                            self.last_write.insert(op.var.index(), v);
                        }
                        _ => {
                            self.last_write.remove(&op.var.index());
                        }
                    }
                }
            }
            false
        }
    }

    let mut s = Search {
        h,
        ops: op_set,
        preds: &preds,
        placed: vec![false; n],
        seq: Vec::with_capacity(n),
        last_write: BTreeMap::new(),
    };
    if s.solve() {
        Some(s.seq.iter().map(|&i| op_set[i]).collect())
    } else {
        None
    }
}

fn check_per_process(
    h: &History,
    criterion: Criterion,
    rel: &dyn OrderRelation,
) -> ConsistencyReport {
    let mut serializations = BTreeMap::new();
    for p in 0..h.process_count() {
        let set = h.h_i_plus_w(ProcId(p));
        match find_serialization(h, &set, rel) {
            Some(seq) => {
                serializations.insert(p, seq);
            }
            None => {
                return ConsistencyReport::fail(
                    criterion,
                    Violation::NoSerialization {
                        process: Some(ProcId(p)),
                    },
                )
            }
        }
    }
    ConsistencyReport::ok(criterion, serializations)
}

/// Check a history against a criterion.
pub fn check(h: &History, criterion: Criterion) -> ConsistencyReport {
    let rf = match ReadFrom::infer(h) {
        Ok(rf) => rf,
        Err(e) => return ConsistencyReport::fail(criterion, Violation::ReadFrom(e)),
    };
    match criterion {
        Criterion::Sequential => {
            let po = ProgramOrder::new(h);
            let all: Vec<OpIdx> = h.ops().map(|(i, _)| i).collect();
            match find_serialization(h, &all, &po) {
                Some(seq) => {
                    let mut map = BTreeMap::new();
                    for p in 0..h.process_count() {
                        map.insert(p, seq.clone());
                    }
                    ConsistencyReport::ok(criterion, map)
                }
                None => {
                    ConsistencyReport::fail(criterion, Violation::NoSerialization { process: None })
                }
            }
        }
        Criterion::Causal => check_per_process(h, criterion, &CausalOrder::new(h, &rf)),
        Criterion::LazyCausal => check_per_process(h, criterion, &LazyCausalOrder::new(h, &rf)),
        Criterion::LazySemiCausal => {
            check_per_process(h, criterion, &LazySemiCausalOrder::new(h, &rf))
        }
        Criterion::Pram => check_per_process(h, criterion, &PramRelation::new(h, &rf)),
    }
}

/// Check a history against every criterion, strongest first.
pub fn check_all(h: &History) -> Vec<ConsistencyReport> {
    Criterion::ALL.iter().map(|&c| check(h, c)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;
    use crate::op::VarId;

    /// The canonical causal-but-not-sequential history:
    /// p1: w(x)1        p2: w(x)2
    /// p3: r(x)1 r(x)2  p4: r(x)2 r(x)1
    fn causal_not_sequential() -> History {
        let mut hb = HistoryBuilder::new(4);
        hb.write(ProcId(0), VarId(0), 1);
        hb.write(ProcId(1), VarId(0), 2);
        hb.read_int(ProcId(2), VarId(0), 1);
        hb.read_int(ProcId(2), VarId(0), 2);
        hb.read_int(ProcId(3), VarId(0), 2);
        hb.read_int(ProcId(3), VarId(0), 1);
        hb.build()
    }

    /// A trivially sequentially consistent history.
    fn simple_sequential() -> History {
        let mut hb = HistoryBuilder::new(2);
        hb.write(ProcId(0), VarId(0), 1);
        hb.read_int(ProcId(1), VarId(0), 1);
        hb.build()
    }

    #[test]
    fn sequential_history_satisfies_all_criteria() {
        let h = simple_sequential();
        for report in check_all(&h) {
            assert!(report.consistent, "{} failed", report.criterion);
            assert!(report.violation.is_none());
        }
    }

    #[test]
    fn concurrent_writes_read_in_different_orders_are_causal_not_sequential() {
        let h = causal_not_sequential();
        let seq = check(&h, Criterion::Sequential);
        assert!(!seq.consistent);
        assert_eq!(
            seq.violation,
            Some(Violation::NoSerialization { process: None })
        );
        let causal = check(&h, Criterion::Causal);
        assert!(causal.consistent, "{}", h.pretty());
        assert!(check(&h, Criterion::Pram).consistent);
    }

    #[test]
    fn causal_violation_is_detected() {
        // p1: w(x)1, w(x)2   p2: r(x)2, r(x)1
        // Reading 2 then 1 contradicts p1's program order under causal
        // consistency (and even PRAM).
        let mut hb = HistoryBuilder::new(2);
        hb.write(ProcId(0), VarId(0), 1);
        hb.write(ProcId(0), VarId(0), 2);
        hb.read_int(ProcId(1), VarId(0), 2);
        hb.read_int(ProcId(1), VarId(0), 1);
        let h = hb.build();
        let causal = check(&h, Criterion::Causal);
        assert!(!causal.consistent);
        assert_eq!(
            causal.violation,
            Some(Violation::NoSerialization {
                process: Some(ProcId(1))
            })
        );
        assert!(!check(&h, Criterion::Pram).consistent);
    }

    #[test]
    fn pram_allows_disagreement_on_writes_by_different_processes() {
        // The classic PRAM-but-not-causal history:
        // p1: w(x)1            p2: r(x)1, w(x)2
        // p3: r(x)2, r(x)1
        // Causality orders w(x)1 before w(x)2 (p2 read 1 before writing 2),
        // so p3 reading 2 then 1 is not causal; but PRAM drops the
        // transitivity through p2, so it is PRAM consistent.
        let mut hb = HistoryBuilder::new(3);
        hb.write(ProcId(0), VarId(0), 1);
        hb.read_int(ProcId(1), VarId(0), 1);
        hb.write(ProcId(1), VarId(0), 2);
        hb.read_int(ProcId(2), VarId(0), 2);
        hb.read_int(ProcId(2), VarId(0), 1);
        let h = hb.build();
        assert!(!check(&h, Criterion::Causal).consistent);
        assert!(check(&h, Criterion::Pram).consistent);
    }

    #[test]
    fn reports_contain_witness_serializations() {
        let h = simple_sequential();
        let report = check(&h, Criterion::Causal);
        assert!(report.consistent);
        assert_eq!(report.serializations.len(), 2);
        for (p, seq) in &report.serializations {
            let expected = h.h_i_plus_w(ProcId(*p));
            assert!(crate::serialization::is_permutation_of(seq, &expected));
            assert!(crate::serialization::is_legal(&h, seq));
        }
    }

    #[test]
    fn dangling_read_is_reported_as_read_from_violation() {
        let mut hb = HistoryBuilder::new(1);
        hb.read_int(ProcId(0), VarId(0), 42);
        let h = hb.build();
        let report = check(&h, Criterion::Causal);
        assert!(!report.consistent);
        assert!(matches!(report.violation, Some(Violation::ReadFrom(_))));
    }

    #[test]
    fn empty_history_is_consistent_under_everything() {
        let h = HistoryBuilder::new(3).build();
        for report in check_all(&h) {
            assert!(report.consistent);
        }
    }

    #[test]
    fn criterion_names_and_display() {
        assert_eq!(Criterion::Pram.to_string(), "PRAM");
        assert_eq!(Criterion::LazySemiCausal.name(), "lazy semi-causal");
        assert_eq!(Criterion::ALL.len(), 5);
    }

    #[test]
    fn violation_display() {
        let v = Violation::NoSerialization {
            process: Some(ProcId(2)),
        };
        assert!(v.to_string().contains("p2"));
        let g = Violation::NoSerialization { process: None };
        assert!(g.to_string().contains("global"));
    }

    #[test]
    fn find_serialization_returns_none_when_impossible() {
        let mut hb = HistoryBuilder::new(1);
        let w = hb.write(ProcId(0), VarId(0), 1);
        let r = hb.read_bottom(ProcId(0), VarId(0));
        let h = hb.build();
        let po = ProgramOrder::new(&h);
        // Program order forces w before r, but then r cannot return ⊥.
        assert_eq!(find_serialization(&h, &[w, r], &po), None);
    }
}
