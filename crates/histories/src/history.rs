//! Local and global histories (paper §2).
//!
//! A *local history* `h_i` is the sequence of operations performed by
//! application process `ap_i`; a *history* `H = ⟨h_1 … h_n⟩` is the
//! collection of local histories. `H_{i+w}` is the sub-history containing
//! all operations of `h_i` plus every write of `H` — it is the set the
//! per-process serializations of the consistency definitions range over.

use crate::op::{OpKind, Operation, ProcId, Value, VarId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense global index of an operation within a [`History`].
///
/// Indices are assigned in construction order (process by process, then
/// program order within a process) and are stable for the lifetime of the
/// history. All order relations in this crate are expressed over `OpIdx`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OpIdx(pub usize);

impl OpIdx {
    /// The underlying index.
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for OpIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A complete history: one operation sequence per application process.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct History {
    ops: Vec<Operation>,
    /// For each process, the global indices of its operations in program order.
    per_proc: Vec<Vec<OpIdx>>,
}

impl History {
    /// Number of application processes (including processes with empty
    /// local histories, if declared through the builder).
    pub fn process_count(&self) -> usize {
        self.per_proc.len()
    }

    /// Total number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the history contains no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operation at a global index.
    pub fn op(&self, idx: OpIdx) -> &Operation {
        &self.ops[idx.index()]
    }

    /// All operations with their global indices.
    pub fn ops(&self) -> impl Iterator<Item = (OpIdx, &Operation)> {
        self.ops.iter().enumerate().map(|(i, o)| (OpIdx(i), o))
    }

    /// The local history `h_i` of a process, as global indices in program order.
    pub fn local(&self, p: ProcId) -> &[OpIdx] {
        &self.per_proc[p.index()]
    }

    /// All write operations of the history.
    pub(crate) fn writes(&self) -> impl Iterator<Item = (OpIdx, &Operation)> {
        self.ops().filter(|(_, o)| o.is_write())
    }

    /// All read operations of the history.
    pub fn reads(&self) -> impl Iterator<Item = (OpIdx, &Operation)> {
        self.ops().filter(|(_, o)| o.is_read())
    }

    /// The operation set `H_{i+w}`: all operations of `h_i` plus all writes
    /// of the whole history, as a sorted, de-duplicated list of indices.
    pub(crate) fn h_i_plus_w(&self, p: ProcId) -> Vec<OpIdx> {
        let mut set: Vec<OpIdx> = self
            .ops()
            .filter(|(idx, o)| o.proc == p || o.is_write() || self.local(p).contains(idx))
            .map(|(idx, _)| idx)
            .collect();
        set.sort();
        set.dedup();
        set
    }

    /// Render the history in the paper's per-process notation, one line per
    /// process (useful in test failure messages).
    pub fn pretty(&self) -> String {
        let mut s = String::new();
        for (i, local) in self.per_proc.iter().enumerate() {
            s.push_str(&format!("p{}: ", i + 1));
            let line: Vec<String> = local.iter().map(|&idx| self.op(idx).notation()).collect();
            s.push_str(&line.join("  "));
            s.push('\n');
        }
        s
    }
}

/// Incremental construction of a [`History`].
///
/// ```
/// use histories::{HistoryBuilder, ProcId, VarId, Value};
/// let mut hb = HistoryBuilder::new(2);
/// hb.write(ProcId(0), VarId(0), 1);
/// hb.read(ProcId(1), VarId(0), Value::Int(1));
/// let h = hb.build();
/// assert_eq!(h.len(), 2);
/// assert_eq!(h.process_count(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct HistoryBuilder {
    ops: Vec<Operation>,
    per_proc: Vec<Vec<OpIdx>>,
}

impl HistoryBuilder {
    /// A builder for a history over `n_procs` processes (more processes are
    /// added on demand if operations reference them).
    pub fn new(n_procs: usize) -> Self {
        HistoryBuilder {
            ops: Vec::new(),
            per_proc: vec![Vec::new(); n_procs],
        }
    }

    fn ensure_proc(&mut self, p: ProcId) {
        if self.per_proc.len() <= p.index() {
            self.per_proc.resize(p.index() + 1, Vec::new());
        }
    }

    fn push(&mut self, p: ProcId, kind: OpKind, var: VarId, value: Value) -> OpIdx {
        self.ensure_proc(p);
        let pos = self.per_proc[p.index()].len();
        let idx = OpIdx(self.ops.len());
        self.ops.push(Operation {
            proc: p,
            pos,
            kind,
            var,
            value,
        });
        self.per_proc[p.index()].push(idx);
        idx
    }

    /// Append `w_p(var)value` to `p`'s local history.
    ///
    /// Panics if asked to write `⊥` — the initial value cannot be written.
    pub fn write(&mut self, p: ProcId, var: VarId, value: i64) -> OpIdx {
        self.push(p, OpKind::Write, var, Value::Int(value))
    }

    /// Append `r_p(var)value` to `p`'s local history.
    pub fn read(&mut self, p: ProcId, var: VarId, value: Value) -> OpIdx {
        self.push(p, OpKind::Read, var, value)
    }

    /// Append a read returning an integer value.
    pub fn read_int(&mut self, p: ProcId, var: VarId, value: i64) -> OpIdx {
        self.read(p, var, Value::Int(value))
    }

    /// Append a read returning the initial value `⊥`.
    pub fn read_bottom(&mut self, p: ProcId, var: VarId) -> OpIdx {
        self.read(p, var, Value::Bottom)
    }

    /// Finish construction.
    pub fn build(self) -> History {
        History {
            ops: self.ops,
            per_proc: self.per_proc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn sample() -> History {
        // p1: w(x)1, w(y)2   p2: r(y)2, w(y)3   p3: r(x)⊥, r(y)3
        let mut hb = HistoryBuilder::new(3);
        hb.write(ProcId(0), VarId(0), 1);
        hb.write(ProcId(0), VarId(1), 2);
        hb.read_int(ProcId(1), VarId(1), 2);
        hb.write(ProcId(1), VarId(1), 3);
        hb.read_bottom(ProcId(2), VarId(0));
        hb.read_int(ProcId(2), VarId(1), 3);
        hb.build()
    }

    #[test]
    fn builder_assigns_program_order_positions() {
        let h = sample();
        assert_eq!(h.len(), 6);
        assert_eq!(h.process_count(), 3);
        let p0 = h.local(ProcId(0));
        assert_eq!(p0.len(), 2);
        assert_eq!(h.op(p0[0]).pos, 0);
        assert_eq!(h.op(p0[1]).pos, 1);
        assert_eq!(h.op(p0[1]).var, VarId(1));
    }

    #[test]
    fn writes_and_reads_are_partitioned() {
        let h = sample();
        assert_eq!(h.writes().count(), 3);
        assert_eq!(h.reads().count(), 3);
        assert_eq!(h.writes().count() + h.reads().count(), h.len());
    }

    #[test]
    fn h_i_plus_w_contains_local_ops_and_all_writes() {
        let h = sample();
        let set = h.h_i_plus_w(ProcId(2));
        // p3's two reads plus the three writes.
        assert_eq!(set.len(), 5);
        for idx in &set {
            let o = h.op(*idx);
            assert!(o.proc == ProcId(2) || o.is_write());
        }
        // Every write is present.
        for (idx, _) in h.writes() {
            assert!(set.contains(&idx));
        }
    }

    #[test]
    fn h_i_plus_w_of_writer_equals_its_ops_plus_other_writes() {
        let h = sample();
        let set = h.h_i_plus_w(ProcId(0));
        // p1's 2 writes + p2's write = 3 (its own ops are all writes).
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn vars_accessed_by_process() {
        let h = sample();
        let vars_of = |p| {
            let vars: BTreeSet<VarId> = h.local(ProcId(p)).iter().map(|&i| h.op(i).var).collect();
            Vec::from_iter(vars)
        };
        assert_eq!(vars_of(0), vec![VarId(0), VarId(1)]);
        assert_eq!(vars_of(1), vec![VarId(1)]);
    }

    #[test]
    fn builder_grows_for_unseen_processes() {
        let mut hb = HistoryBuilder::new(1);
        hb.write(ProcId(4), VarId(0), 9);
        let h = hb.build();
        assert_eq!(h.process_count(), 5);
        assert!(h.local(ProcId(2)).is_empty());
        assert_eq!(h.local(ProcId(4)).len(), 1);
    }

    #[test]
    fn pretty_uses_paper_notation() {
        let h = sample();
        let p = h.pretty();
        assert!(p.contains("p1: w1(x0)1  w1(x1)2"));
        assert!(p.contains("r3(x0)⊥"));
    }

    #[test]
    fn empty_history() {
        let h = HistoryBuilder::new(0).build();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
    }
}
