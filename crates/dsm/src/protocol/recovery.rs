//! The recovery log: what a node retains so that a restarted peer can
//! catch up on the writes it missed.
//!
//! Entries are numbered consecutively from 1 for the life of the node —
//! the writer's own sequence number, its own vector-clock entry, or the
//! sequencer's global number, which all count the same thing — so a
//! catch-up request naming the last number the requester holds is served
//! by index, in time proportional to what is missing.
//!
//! The log is cut whenever the runtime reaches an all-up quiescent settle
//! ([`McsNode::checkpoint`](super::McsNode::checkpoint)): every retained
//! write is then persisted at every live peer, so none can be requested
//! again and all of them are dropped. The numbering carries on across the
//! cut, and the cut is counted, so a replica image taken before it can be
//! told from one taken after.

/// What a node holds for its peers' recovery right now, and how many
/// times that has been cut (see [`McsNode::recovery`](super::McsNode)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryState {
    /// Entries currently retained.
    pub retained: usize,
    /// Cuts taken so far; a replica image carries the count it was taken
    /// at.
    pub cuts: u64,
}

/// Consecutively numbered entries retained since the last cut.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryLog<E> {
    entries: Vec<E>,
    /// The number of the last entry dropped by a cut: `entries[i]` is
    /// entry `base + 1 + i`.
    base: u64,
    cuts: u64,
}

impl<E> Default for RecoveryLog<E> {
    fn default() -> Self {
        RecoveryLog {
            entries: Vec::new(),
            base: 0,
            cuts: 0,
        }
    }
}

impl<E> RecoveryLog<E> {
    /// An empty log whose first entry will be number 1.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append the next entry.
    pub fn push(&mut self, entry: E) {
        self.entries.push(entry);
    }

    /// The retained entries numbered above `seq`, oldest first, each with
    /// its number. A `seq` below the last cut yields everything retained:
    /// whatever lies between was cut because the requester already held
    /// it, or — under gap-tolerant numbering — was never addressed to it.
    pub fn after(&self, seq: u64) -> impl Iterator<Item = (u64, &E)> + '_ {
        let skip = usize::try_from(seq.saturating_sub(self.base))
            .map_or(self.entries.len(), |s| s.min(self.entries.len()));
        let first = self.base + skip as u64 + 1;
        (first..).zip(self.entries.iter().skip(skip))
    }

    /// Drop every retained entry. The numbering carries on; the allocation
    /// is kept for the next round.
    pub fn cut(&mut self) {
        self.base += self.entries.len() as u64;
        self.entries.clear();
        self.cuts += 1;
    }

    /// Retained length and cut count.
    pub fn state(&self) -> RecoveryState {
        RecoveryState {
            retained: self.entries.len(),
            cuts: self.cuts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn numbering_carries_on_across_a_cut() {
        let mut log = RecoveryLog::new();
        for v in [10, 20, 30] {
            log.push(v);
        }
        assert_eq!(
            log.after(1).collect::<Vec<_>>(),
            vec![(2, &20), (3, &30)],
            "served by index"
        );
        log.cut();
        assert_eq!(
            log.state(),
            RecoveryState {
                retained: 0,
                cuts: 1
            }
        );
        log.push(40);
        // A request from below the cut gets what is retained, numbered on.
        assert_eq!(log.after(0).collect::<Vec<_>>(), vec![(4, &40)]);
        assert_eq!(log.after(4).count(), 0);
        assert_eq!(log.after(u64::MAX).count(), 0);
    }

    /// One step of the model run: push the next entry, cut, or query.
    #[derive(Clone, Debug)]
    enum Step {
        Push,
        Cut,
        After(u64),
    }

    fn step() -> impl Strategy<Value = Step> {
        (0u8..4, 0u64..40).prop_map(|(kind, seq)| match kind {
            0 | 1 => Step::Push,
            2 => Step::Cut,
            _ => Step::After(seq),
        })
    }

    proptest! {
        /// `after` agrees with a plain filter over a `Vec` of numbered
        /// entries from which a cut removes everything.
        #[test]
        fn after_matches_a_vec_filter_across_cuts(steps in proptest::collection::vec(step(), 0..80)) {
            let mut log = RecoveryLog::new();
            let mut model: Vec<(u64, u64)> = Vec::new();
            let (mut next, mut cuts) = (0u64, 0u64);
            for s in steps {
                match s {
                    Step::Push => {
                        next += 1;
                        log.push(next * 7);
                        model.push((next, next * 7));
                    }
                    Step::Cut => {
                        log.cut();
                        model.clear();
                        cuts += 1;
                    }
                    Step::After(seq) => {
                        let got: Vec<(u64, u64)> = log.after(seq).map(|(n, &e)| (n, e)).collect();
                        let want: Vec<(u64, u64)> =
                            model.iter().copied().filter(|&(n, _)| n > seq).collect();
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(log.state(), RecoveryState { retained: model.len(), cuts });
            }
        }
    }
}
