//! Vector clocks and per-writer sequence numbers.
//!
//! The causal protocols timestamp every update with a vector clock (one
//! entry per MCS process); the PRAM protocol only needs a per-writer
//! sequence number. Both types report their wire size so that the paper's
//! "control information" costs can be measured precisely.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

/// A vector clock over `n` processes.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VectorClock {
    entries: Vec<u64>,
}

impl VectorClock {
    /// The zero clock over `n` processes.
    pub fn new(n: usize) -> Self {
        VectorClock {
            entries: vec![0; n],
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the clock has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The component for process `i`.
    pub fn get(&self, i: usize) -> u64 {
        self.entries[i]
    }

    /// Increment the component for process `i` and return its new value.
    pub fn increment(&mut self, i: usize) -> u64 {
        self.entries[i] += 1;
        self.entries[i]
    }

    /// Component-wise maximum with another clock.
    pub fn merge(&mut self, other: &VectorClock) {
        assert_eq!(self.entries.len(), other.entries.len());
        for (a, b) in self.entries.iter_mut().zip(&other.entries) {
            *a = (*a).max(*b);
        }
    }

    /// Whether `self ≤ other` component-wise.
    pub fn dominated_by(&self, other: &VectorClock) -> bool {
        self.entries.iter().zip(&other.entries).all(|(a, b)| a <= b)
    }

    /// Causal comparison: `Less` if `self` strictly precedes `other`,
    /// `Greater` for the converse, `Equal` if identical, `None` if
    /// concurrent.
    pub fn causal_cmp(&self, other: &VectorClock) -> Option<Ordering> {
        let le = self.dominated_by(other);
        let ge = other.dominated_by(self);
        match (le, ge) {
            (true, true) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Less),
            (false, true) => Some(Ordering::Greater),
            (false, false) => None,
        }
    }

    /// Standard causal-broadcast delivery condition: a message carrying
    /// clock `msg` from `sender` is deliverable at a node with local clock
    /// `self` when `msg[sender] == self[sender] + 1` and
    /// `msg[k] <= self[k]` for every `k != sender`. Clocks over different
    /// process sets (or a `sender` outside them) are never deliverable.
    pub fn deliverable_from(&self, msg: &VectorClock, sender: usize) -> bool {
        let (mine, theirs) = (self.entries.as_slice(), msg.entries.as_slice());
        let next = (mine.get(sender).zip(theirs.get(sender))).is_some_and(|(m, t)| *t == m + 1);
        // The sender's entry is ahead, so it must be the only one: one pass
        // over the two slices, no per-index bounds checks, so it vectorises.
        let ahead = || mine.iter().zip(theirs).filter(|(m, t)| t > m).count();
        next && mine.len() == theirs.len() && ahead() == 1
    }

    /// Apply a message [`VectorClock::deliverable_from`] just accepted: the
    /// merge is then exactly an increment of the sender's entry.
    pub fn deliver(&mut self, msg: &VectorClock, sender: usize) {
        self.increment(sender);
        debug_assert!(
            msg.get(sender) == self.get(sender) && msg.dominated_by(self),
            "deliverable ⇒ merge ≡ increment(sender)"
        );
    }

    /// Wire size in bytes (8 bytes per entry).
    pub fn wire_bytes(&self) -> usize {
        self.entries.len() * 8
    }

    /// Sum of all entries (total writes observed).
    pub fn total(&self) -> u64 {
        self.entries.iter().sum()
    }
}

impl fmt::Debug for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VC{:?}", self.entries)
    }
}

/// A delta-encoded vector clock: the wire representation of a clock
/// relative to a reference clock the receiver already holds.
///
/// A writer's consecutive broadcasts differ in few entries (its own
/// component plus whatever it merged since), so instead of paying the
/// dense `8n` bytes per clock, the delta form carries only the changed
/// `(index, value)` pairs — 12 bytes each (4-byte index, 8-byte value)
/// plus a 4-byte pair count. When more than a third of the entries
/// changed the sparse form would exceed the dense one, so
/// [`DeltaVc::encode`] falls back to carrying the full clock; the
/// encoded size is therefore never larger than dense.
///
/// The simulator never serializes payloads — messages keep carrying
/// dense [`VectorClock`]s and `DeltaVc` exists to *charge* the wire
/// accurately under delta delivery modes. Decodability is what makes the
/// charge honest: every destination of a writer receives that writer's
/// full write stream in FIFO order, so it can reconstruct each clock
/// from the previous one via [`DeltaVc::decode`], which the round-trip
/// proptests pin down.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeltaVc {
    /// Only the entries that differ from the reference clock.
    Sparse {
        /// Total entry count of the encoded clock (so a decoder can
        /// validate the reference length).
        len: usize,
        /// Changed entries as `(index, new_value)` pairs, in index order.
        changes: Vec<(u32, u64)>,
    },
    /// Dense fallback: the full clock, at the classical wire size.
    Dense(VectorClock),
}

impl DeltaVc {
    /// Encode `next` relative to `prev` (two clocks over the same process
    /// set), picking whichever of the sparse and dense forms is smaller
    /// on the wire.
    ///
    /// # Panics
    /// If the clocks have different lengths.
    pub fn encode(prev: &VectorClock, next: &VectorClock) -> DeltaVc {
        // `encoded_bytes` holds the size rule; dense is the fallback when
        // the sparse form would not be smaller.
        if Self::encoded_bytes(prev, next) == next.wire_bytes() {
            return DeltaVc::Dense(next.clone());
        }
        let changes = (prev.entries.iter().zip(&next.entries))
            .enumerate()
            .filter(|(_, (p, n))| p != n)
            .map(|(i, (_, n))| (i as u32, *n))
            .collect();
        DeltaVc::Sparse {
            len: next.len(),
            changes,
        }
    }

    /// The wire size [`DeltaVc::encode`]`(prev, next)` has — the smaller of
    /// the sparse form (`4 + 12·changes`) and the dense one (`8n`) —
    /// without building the encoding: what a protocol that only *charges*
    /// the delta form needs per write.
    ///
    /// # Panics
    /// If the clocks have different lengths.
    pub fn encoded_bytes(prev: &VectorClock, next: &VectorClock) -> usize {
        assert_eq!(prev.len(), next.len(), "clocks over different process sets");
        let changes = (prev.entries.iter().zip(&next.entries))
            .filter(|(p, n)| p != n)
            .count();
        (4 + 12 * changes).min(next.wire_bytes())
    }

    /// What a protocol charges for shipping `next` to a peer that holds
    /// `prev`: [`DeltaVc::encoded_bytes`] under a delta delivery mode, the
    /// dense clock otherwise.
    pub fn charged_bytes(delta: bool, prev: &VectorClock, next: &VectorClock) -> usize {
        if delta {
            Self::encoded_bytes(prev, next)
        } else {
            next.wire_bytes()
        }
    }

    /// Reconstruct the encoded clock from the reference it was encoded
    /// against. `decode(prev)` of `encode(prev, next)` is exactly `next`.
    ///
    /// # Panics
    /// If `prev` does not match the encoded length.
    pub fn decode(&self, prev: &VectorClock) -> VectorClock {
        match self {
            DeltaVc::Dense(vc) => vc.clone(),
            DeltaVc::Sparse { len, changes } => {
                assert_eq!(prev.len(), *len, "reference clock length mismatch");
                let mut out = prev.clone();
                for &(i, v) in changes {
                    out.entries[i as usize] = v;
                }
                out
            }
        }
    }

    /// Bytes this encoding pays on the wire: `4 + 12·changes` sparse,
    /// `8n` dense.
    pub fn wire_bytes(&self) -> usize {
        match self {
            DeltaVc::Sparse { changes, .. } => 4 + 12 * changes.len(),
            DeltaVc::Dense(vc) => vc.wire_bytes(),
        }
    }
}

/// Per-writer FIFO sequence numbers: the only ordering metadata the PRAM
/// protocol needs.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SequenceTracker {
    next_expected: Vec<u64>,
}

impl SequenceTracker {
    /// Tracker over `n` writers, all starting at sequence 1.
    pub fn new(n: usize) -> Self {
        SequenceTracker {
            next_expected: vec![1; n],
        }
    }

    /// The next sequence number expected from `writer`.
    pub fn expected(&self, writer: usize) -> u64 {
        self.next_expected[writer]
    }

    /// Record that `seq` from `writer` has been observed. Returns `true` if
    /// the sequence was monotonically non-decreasing (gaps are allowed —
    /// under partial replication a node only sees the subsequence of a
    /// writer's updates that concern variables it replicates).
    pub fn observe(&mut self, writer: usize, seq: u64) -> bool {
        let ok = seq >= self.next_expected[writer];
        if ok {
            self.next_expected[writer] = seq + 1;
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn increment_and_get() {
        let mut vc = VectorClock::new(3);
        assert_eq!(vc.get(1), 0);
        assert_eq!(vc.increment(1), 1);
        assert_eq!(vc.increment(1), 2);
        assert_eq!(vc.get(1), 2);
        assert_eq!(vc.total(), 2);
        assert_eq!(vc.len(), 3);
        assert!(!vc.is_empty());
    }

    #[test]
    fn merge_takes_componentwise_max() {
        let mut a = VectorClock::new(3);
        a.increment(0);
        a.increment(0);
        let mut b = VectorClock::new(3);
        b.increment(1);
        a.merge(&b);
        assert_eq!(a.get(0), 2);
        assert_eq!(a.get(1), 1);
        assert_eq!(a.get(2), 0);
    }

    #[test]
    fn causal_comparison() {
        let mut a = VectorClock::new(2);
        let mut b = VectorClock::new(2);
        assert_eq!(a.causal_cmp(&b), Some(Ordering::Equal));
        a.increment(0);
        assert_eq!(a.causal_cmp(&b), Some(Ordering::Greater));
        assert_eq!(b.causal_cmp(&a), Some(Ordering::Less));
        b.increment(1);
        assert_eq!(a.causal_cmp(&b), None);
        assert!(!a.dominated_by(&b));
    }

    #[test]
    fn delivery_condition_requires_exact_next_and_no_missing_deps() {
        let local = VectorClock::new(3);
        // Message is the first write of process 1 with no dependencies.
        let mut msg = VectorClock::new(3);
        msg.increment(1);
        assert!(local.deliverable_from(&msg, 1));
        // A message that depends on an unseen write of process 2 must wait.
        let mut msg2 = msg.clone();
        msg2.increment(2);
        assert!(!local.deliverable_from(&msg2, 1));
        // A duplicate / old message is not deliverable either.
        let mut advanced = local.clone();
        advanced.increment(1);
        assert!(!advanced.deliverable_from(&msg, 1));
    }

    #[test]
    fn wire_bytes_scales_with_process_count() {
        assert_eq!(VectorClock::new(4).wire_bytes(), 32);
        assert_eq!(VectorClock::new(100).wire_bytes(), 800);
    }

    #[test]
    fn delta_encoding_round_trips_and_never_exceeds_dense() {
        let n = 64;
        let mut prev = VectorClock::new(n);
        for i in 0..n {
            prev.entries[i] = (i as u64) * 3;
        }
        // A typical step: the writer bumps itself and merges one peer.
        let mut next = prev.clone();
        next.increment(5);
        next.entries[40] = 1000;
        let delta = DeltaVc::encode(&prev, &next);
        assert_eq!(delta.decode(&prev), next);
        // Two changed entries: 4 + 12·2 = 28 bytes, versus dense 512.
        assert_eq!(delta.wire_bytes(), 28);
        assert!(delta.wire_bytes() <= next.wire_bytes());
    }

    #[test]
    fn delta_encoding_falls_back_to_dense_for_wide_deltas() {
        let n = 8;
        let prev = VectorClock::new(n);
        let mut next = VectorClock::new(n);
        for i in 0..n {
            next.entries[i] = 7;
        }
        // All 8 entries changed: sparse would be 4 + 96 = 100 > 64 dense.
        let delta = DeltaVc::encode(&prev, &next);
        assert!(matches!(delta, DeltaVc::Dense(_)));
        assert_eq!(delta.wire_bytes(), next.wire_bytes());
        assert_eq!(delta.decode(&prev), next);
    }

    #[test]
    fn identical_clocks_encode_to_the_empty_delta() {
        let mut vc = VectorClock::new(16);
        vc.increment(3);
        let delta = DeltaVc::encode(&vc, &vc);
        assert_eq!(delta.wire_bytes(), 4);
        assert_eq!(delta.decode(&vc), vc);
    }

    #[test]
    #[should_panic(expected = "different process sets")]
    fn delta_encoding_rejects_mismatched_lengths() {
        let _ = DeltaVc::encode(&VectorClock::new(3), &VectorClock::new(4));
    }

    #[test]
    fn sequence_tracker_allows_gaps_but_not_reordering() {
        let mut t = SequenceTracker::new(2);
        assert_eq!(t.expected(0), 1);
        assert!(t.observe(0, 1));
        assert!(t.observe(0, 5)); // gap: updates for variables we don't hold
        assert_eq!(t.expected(0), 6);
        assert!(!t.observe(0, 3)); // reordering would violate FIFO
        assert!(t.observe(1, 2));
    }
}
