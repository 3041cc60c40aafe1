//! The read-from order relation `7→ro` (paper §2, identical to the
//! "writes-into" relation of Ahamad et al.).
//!
//! Given operations `o1`, `o2`, the relation satisfies:
//!
//! 1. if `o1 7→ro o2` then there are `x`, `v` with `o1 = w(x)v`, `o2 = r(x)v`;
//! 2. for any `o2` there is at most one `o1` with `o1 7→ro o2`;
//! 3. if `o2 = r(x)v` has no `o1` with `o1 7→ro o2` then `v = ⊥`.
//!
//! The relation is not unique in general (two writes may store the same
//! value in the same variable). [`ReadFrom::infer`] reconstructs it from a
//! history under the standard *data-independence* assumption that any two
//! writes to the same variable store distinct values; this holds for every
//! history in the paper and for every workload our generators produce, and
//! makes the relation unique. When the assumption is violated the inference
//! reports the ambiguity instead of guessing.

use crate::history::{History, OpIdx};
use crate::op::{Value, VarId};
use std::fmt;

/// Why the read-from relation could not be inferred.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadFromError {
    /// A read returned a non-`⊥` value that no write stored in that variable.
    DanglingRead {
        /// The offending read.
        read: OpIdx,
    },
    /// Two writes to the same variable store the same value, so the relation
    /// is ambiguous for reads of that value.
    AmbiguousWrites {
        /// The variable written twice with the same value.
        var: VarId,
        /// The duplicated value.
        value: Value,
    },
}

impl fmt::Display for ReadFromError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadFromError::DanglingRead { read } => {
                write!(f, "read {read:?} returns a value never written")
            }
            ReadFromError::AmbiguousWrites { var, value } => write!(
                f,
                "variable {var} is written twice with value {value}; read-from is ambiguous"
            ),
        }
    }
}

impl std::error::Error for ReadFromError {}

/// The inferred read-from relation of a history.
///
/// A dense table indexed by operation: [`ReadFrom::source_of`] is one
/// vector lookup, and [`ReadFrom::pairs`] walks the table in read order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReadFrom {
    /// For each operation (by global index), the write it reads from, if
    /// any. Writes and reads of `⊥` hold `None`.
    source: Vec<Option<OpIdx>>,
}

impl ReadFrom {
    /// Infer the relation from a history (see module docs for assumptions).
    ///
    /// Sorts the writes by `(variable, value)` once and finds each read's
    /// writer by binary search: `O(|H| log |H|)`. On a history with
    /// several faults it reports the same one the history-order scan
    /// would: the first repeated write, else the first dangling read.
    pub fn infer(h: &History) -> Result<ReadFrom, ReadFromError> {
        let mut writers: Vec<(VarId, Value, OpIdx)> = h
            .writes()
            .map(|(idx, op)| (op.var, op.value, idx))
            .collect();
        writers.sort_unstable();
        // In each run of equal keys, the second write is the first one
        // that repeats an earlier write; report the earliest such write.
        let repeated = writers
            .windows(2)
            .filter(|pair| (pair[0].0, pair[0].1) == (pair[1].0, pair[1].1))
            .map(|pair| pair[1])
            .min_by_key(|&(_, _, idx)| idx);
        if let Some((var, value, _)) = repeated {
            return Err(ReadFromError::AmbiguousWrites { var, value });
        }
        let mut source = vec![None; h.len()];
        for (idx, op) in h.reads() {
            if op.value.is_bottom() {
                continue;
            }
            let key = (op.var, op.value);
            let at = writers
                .binary_search_by(|&(var, value, _)| (var, value).cmp(&key))
                .map_err(|_| ReadFromError::DanglingRead { read: idx })?;
            source[idx.index()] = Some(writers[at].2);
        }
        Ok(ReadFrom { source })
    }

    /// The write `o1` such that `o1 7→ro read`, if any.
    pub fn source_of(&self, read: OpIdx) -> Option<OpIdx> {
        self.source.get(read.index()).copied().flatten()
    }

    /// Whether `w 7→ro r`.
    pub fn relates(&self, w: OpIdx, r: OpIdx) -> bool {
        self.source_of(r) == Some(w)
    }

    /// All `(write, read)` pairs of the relation, in read order.
    pub fn pairs(&self) -> impl Iterator<Item = (OpIdx, OpIdx)> + '_ {
        self.source
            .iter()
            .enumerate()
            .filter_map(|(r, w)| w.map(|w| (w, OpIdx(r))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;
    use crate::op::ProcId;

    #[test]
    fn infers_unique_sources() {
        let mut hb = HistoryBuilder::new(2);
        let w1 = hb.write(ProcId(0), VarId(0), 1);
        let w2 = hb.write(ProcId(0), VarId(0), 2);
        let r1 = hb.read_int(ProcId(1), VarId(0), 1);
        let r2 = hb.read_int(ProcId(1), VarId(0), 2);
        let rb = hb.read_bottom(ProcId(1), VarId(1));
        let h = hb.build();
        let rf = ReadFrom::infer(&h).unwrap();
        assert_eq!(rf.source_of(r1), Some(w1));
        assert_eq!(rf.source_of(r2), Some(w2));
        assert_eq!(rf.source_of(rb), None);
        assert!(rf.relates(w1, r1));
        assert!(!rf.relates(w2, r1));
        assert_eq!(rf.pairs().count(), 2);
    }

    #[test]
    fn bottom_reads_have_no_source() {
        let mut hb = HistoryBuilder::new(1);
        hb.read_bottom(ProcId(0), VarId(0));
        let h = hb.build();
        let rf = ReadFrom::infer(&h).unwrap();
        assert_eq!(rf.pairs().count(), 0);
    }

    #[test]
    fn dangling_read_is_rejected() {
        let mut hb = HistoryBuilder::new(2);
        hb.write(ProcId(0), VarId(0), 1);
        let r = hb.read_int(ProcId(1), VarId(0), 99);
        let h = hb.build();
        assert_eq!(
            ReadFrom::infer(&h),
            Err(ReadFromError::DanglingRead { read: r })
        );
    }

    #[test]
    fn same_value_in_different_variables_is_fine() {
        let mut hb = HistoryBuilder::new(1);
        hb.write(ProcId(0), VarId(0), 7);
        hb.write(ProcId(0), VarId(1), 7);
        let h = hb.build();
        assert!(ReadFrom::infer(&h).is_ok());
    }

    #[test]
    fn duplicate_writes_are_ambiguous() {
        let mut hb = HistoryBuilder::new(2);
        hb.write(ProcId(0), VarId(0), 7);
        hb.write(ProcId(1), VarId(0), 7);
        let h = hb.build();
        assert_eq!(
            ReadFrom::infer(&h),
            Err(ReadFromError::AmbiguousWrites {
                var: VarId(0),
                value: Value::Int(7)
            })
        );
    }

    #[test]
    fn pairs_enumerates_relation() {
        let mut hb = HistoryBuilder::new(2);
        let w = hb.write(ProcId(0), VarId(0), 1);
        let r = hb.read_int(ProcId(1), VarId(0), 1);
        let h = hb.build();
        let rf = ReadFrom::infer(&h).unwrap();
        assert_eq!(rf.pairs().collect::<Vec<_>>(), vec![(w, r)]);
    }

    #[test]
    fn error_display_is_informative() {
        let e = ReadFromError::AmbiguousWrites {
            var: VarId(0),
            value: Value::Int(7),
        };
        assert!(e.to_string().contains("ambiguous"));
        let d = ReadFromError::DanglingRead { read: OpIdx(3) };
        assert!(d.to_string().contains("never written"));
    }
}
