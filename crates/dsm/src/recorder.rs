//! Recording of application-level operations.
//!
//! Every read and write issued through the [`crate::DynDsm`]
//! façade is recorded here, so a finished run can be exported as a
//! [`histories::History`] and checked against any consistency criterion by
//! the `histories` crate — the protocols are validated against the formal
//! model rather than against themselves.

use histories::{History, HistoryBuilder, ProcId, Value, VarId};

/// Records operations as they are issued, preserving per-process program
/// order.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    builder: HistoryBuilder,
    reads: u64,
    writes: u64,
    enabled: bool,
}

impl Recorder {
    /// An enabled recorder for `n` processes.
    pub fn new(n: usize) -> Self {
        Recorder {
            builder: HistoryBuilder::new(n),
            reads: 0,
            writes: 0,
            enabled: true,
        }
    }

    /// A recorder that drops everything (for long benchmark runs where the
    /// history is not needed).
    pub(crate) fn disabled(n: usize) -> Self {
        Recorder {
            builder: HistoryBuilder::new(n),
            reads: 0,
            writes: 0,
            enabled: false,
        }
    }

    /// Record a write.
    pub fn record_write(&mut self, p: ProcId, var: VarId, value: i64) {
        self.writes += 1;
        if self.enabled {
            self.builder.write(p, var, value);
        }
    }

    /// Record a read and the value it returned.
    pub(crate) fn record_read(&mut self, p: ProcId, var: VarId, value: Value) {
        self.reads += 1;
        if self.enabled {
            self.builder.read(p, var, value);
        }
    }

    /// Number of reads issued (recorded or not).
    pub(crate) fn read_count(&self) -> u64 {
        self.reads
    }

    /// Number of writes issued (recorded or not).
    pub fn write_count(&self) -> u64 {
        self.writes
    }

    /// Export the recorded operations as a history.
    pub(crate) fn history(&self) -> History {
        self.builder.clone().build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_program_order() {
        let mut r = Recorder::new(2);
        r.record_write(ProcId(0), VarId(0), 1);
        r.record_read(ProcId(1), VarId(0), Value::Int(1));
        r.record_read(ProcId(1), VarId(1), Value::Bottom);
        let h = r.history();
        assert_eq!(h.len(), 3);
        assert_eq!(h.local(ProcId(1)).len(), 2);
        assert_eq!(r.read_count(), 2);
        assert_eq!(r.write_count(), 1);
        assert!(r.enabled);
    }

    #[test]
    fn disabled_recorder_counts_but_does_not_store() {
        let mut r = Recorder::disabled(2);
        r.record_write(ProcId(0), VarId(0), 1);
        r.record_read(ProcId(0), VarId(0), Value::Int(1));
        assert_eq!(r.history().len(), 0);
        assert_eq!(r.write_count(), 1);
        assert_eq!(r.read_count(), 1);
        assert!(!r.enabled);
    }
}
