//! The control records a batching writer still owes: one log of the open
//! window's records and one cursor per destination, where per-destination
//! buffers used to hold a copy of every record for every destination.
//!
//! A control record is a broadcast (Theorem 1): each write's record is
//! owed to every process that does not replicate the written variable, so
//! `n - 1` buffers cloned each record up to `n - 2` times, and every flush
//! charged, compared and dropped those copies one destination at a time.
//! The log holds each record once; a destination's cursor is the first
//! entry it is still owed.
//!
//! **Why one index is enough.** A destination that replicates a write's
//! variable hears of the write by its update, and that update carries
//! (piggybacks) everything the destination was owed before it: serving
//! the piggyback moves the cursor past the write. A flush moves the
//! cursors it drains to the end. So whatever a destination is owed is a
//! suffix of the log, and destinations with equal cursors are owed the
//! same records in the same order — which is exactly how the grouped flush
//! forms its groups. The log empties once nobody is owed anything, so it
//! holds `O(w)` records for a window of `w` writes plus `O(n)` cursors.

use simnet::NodeId;
use std::sync::Arc;

/// The records one writer owes its peers, one entry per write.
#[derive(Clone, Debug)]
pub(crate) struct OwedLog<T> {
    /// The writer itself, never owed anything.
    me: usize,
    /// The open window's records, oldest first.
    entries: Vec<T>,
    /// `next[d]`: the first entry destination `d` is owed
    /// (`entries.len()` when it is owed nothing).
    next: Vec<usize>,
}

impl<T> OwedLog<T> {
    /// The empty log of process `me` among `n`.
    pub(crate) fn new(n: usize, me: usize) -> Self {
        OwedLog {
            me,
            entries: Vec::new(),
            next: vec![0; n],
        }
    }

    /// What destination `d` is owed, oldest first.
    pub(crate) fn owed(&self, d: usize) -> &[T] {
        let from = self.next.get(d).copied().unwrap_or(self.entries.len());
        self.entries.get(from..).unwrap_or_default()
    }

    /// Log a write's record, owed to every destination but the writer
    /// until [`OwedLog::serve`] or [`OwedLog::flush`] says otherwise.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    pub(crate) fn push(&mut self, entry: T) {
        self.entries.push(entry);
        if let Some(mine) = self.next.get_mut(self.me) {
            *mine = self.entries.len();
        }
    }

    /// Destination `d` replicates the variable of the newest entry and
    /// hears of it by update: what it was owed before that entry (to ride
    /// on the update), after which it is owed nothing.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    pub(crate) fn serve(&mut self, d: usize) -> &[T] {
        let len = self.entries.len();
        let Some(next) = self.next.get_mut(d) else {
            return &[];
        };
        let from = std::mem::replace(next, len);
        self.entries
            .get(from..len.saturating_sub(1))
            .unwrap_or_default()
    }

    /// The most records any destination is owed — emptying the log when
    /// that is none.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    pub(crate) fn most_owed(&mut self) -> usize {
        let len = self.entries.len();
        let most = len - self.next.iter().copied().min().unwrap_or(len);
        if most == 0 {
            self.entries.clear();
            self.next.fill(0);
        }
        most
    }
}

#[deny(
    clippy::disallowed_macros,
    clippy::disallowed_methods,
    clippy::indexing_slicing
)]
impl<T: Clone> OwedLog<T> {
    /// Drain every destination owed at least `at_least ≥ 1` records:
    /// `send(records, destinations)` once per distinct list, in the order
    /// of each list's lowest destination id. Destinations with equal
    /// cursors share one `Arc<[T]>`.
    pub(crate) fn flush(&mut self, at_least: usize, mut send: impl FnMut(Arc<[T]>, Vec<NodeId>)) {
        let len = self.entries.len();
        let mut groups: Vec<(usize, Vec<NodeId>)> = Vec::new();
        for (d, next) in self.next.iter_mut().enumerate() {
            if len - *next < at_least.max(1) {
                continue;
            }
            match groups.iter_mut().find(|(from, _)| from == next) {
                Some((_, dests)) => dests.push(NodeId(d)),
                #[expect(
                    clippy::disallowed_macros,
                    reason = "the batching flush runs once per window, not once per event, and builds its group list as it goes"
                )]
                None => groups.push((*next, vec![NodeId(d)])),
            }
            *next = len;
        }
        for (from, dests) in groups {
            send(self.entries.get(from..).unwrap_or_default().into(), dests);
        }
        self.most_owed();
    }
}

/// Equal when every destination is owed the same records, however much
/// of the log before the cursors each side still keeps.
impl<T: PartialEq> PartialEq for OwedLog<T> {
    fn eq(&self, other: &Self) -> bool {
        self.me == other.me
            && self.next.len() == other.next.len()
            && (0..self.next.len()).all(|d| self.owed(d) == other.owed(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records owed, summed over destinations.
    fn owed_total<T>(log: &OwedLog<T>) -> usize {
        (0..log.next.len()).map(|d| log.owed(d).len()).sum()
    }

    /// The flushed groups as (records, destination ids).
    fn flushed(log: &mut OwedLog<char>, at_least: usize) -> Vec<(Vec<char>, Vec<usize>)> {
        let mut out = Vec::new();
        log.flush(at_least, |records, dests| {
            out.push((records.to_vec(), dests.iter().map(|d| d.index()).collect()));
        });
        out
    }

    #[test]
    fn a_record_is_owed_to_everyone_but_the_writer_until_served() {
        let mut log = OwedLog::new(4, 1);
        log.push('a');
        assert_eq!(owed_total(&log), 3);
        assert_eq!(log.owed(1), &[] as &[char]);
        // p2 replicates the variable of 'b': it takes 'a' along with b's
        // update and is owed nothing more.
        log.push('b');
        assert_eq!(log.serve(2), &['a']);
        assert_eq!(log.owed(2), &[] as &[char]);
        assert_eq!(
            (log.owed(0), log.owed(3)),
            (&['a', 'b'][..], &['a', 'b'][..])
        );
        assert_eq!(log.most_owed(), 2);
        log.push('c');
        assert_eq!(log.owed(2), &['c']);
        assert_eq!(owed_total(&log), 3 + 3 + 1);
    }

    #[test]
    fn a_flush_groups_equal_cursors_in_lowest_id_order() {
        let mut log = OwedLog::new(5, 0);
        log.push('a');
        log.serve(3);
        log.push('b');
        // p1, p2, p4 are owed [a, b]; p3 only [b].
        assert_eq!(
            flushed(&mut log, 1),
            vec![(vec!['a', 'b'], vec![1, 2, 4]), (vec!['b'], vec![3])]
        );
        assert_eq!(owed_total(&log), 0);
        assert!(
            log.entries.is_empty(),
            "nobody owed anything: the log empties"
        );
        assert_eq!(log.next, vec![0; 5]);
    }

    #[test]
    fn a_capped_flush_leaves_the_shorter_lists_owed() {
        let mut log = OwedLog::new(3, 0);
        log.push('a');
        log.serve(1);
        log.push('b');
        assert_eq!(flushed(&mut log, 2), vec![(vec!['a', 'b'], vec![2])]);
        assert_eq!(log.owed(1), &['b']);
        assert_eq!(log.owed(2), &[] as &[char]);
        assert_eq!(log.most_owed(), 1);
        assert_eq!(flushed(&mut log, 2), vec![]);
        assert_eq!(flushed(&mut log, 1), vec![(vec!['b'], vec![1])]);
        assert_eq!(log.most_owed(), 0);
    }

    #[test]
    fn records_nobody_is_owed_do_not_pile_up() {
        // Every peer replicates every variable: each write serves them all.
        let mut log = OwedLog::new(3, 2);
        for c in ['a', 'b', 'c'] {
            log.push(c);
            assert!(log.serve(0).is_empty() && log.serve(1).is_empty());
            assert_eq!(log.most_owed(), 0);
            assert!(log.entries.is_empty());
        }
    }

    #[test]
    fn equality_compares_what_is_owed() {
        let mut kept = OwedLog::new(3, 0);
        kept.push('a');
        kept.serve(1);
        kept.serve(2);
        kept.push('b');
        // `kept` still holds 'a', which nobody is owed; `fresh` never did.
        let mut fresh = OwedLog::new(3, 0);
        fresh.push('b');
        assert_eq!(kept, fresh);
        fresh.serve(1);
        assert_ne!(kept, fresh);
        assert_ne!(OwedLog::<char>::new(3, 0), OwedLog::new(3, 1));
    }
}
