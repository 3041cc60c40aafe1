//! The causal replica kernel shared by [`causal_full`](super::causal_full)
//! and [`causal_partial`](super::causal_partial): the local vector clock,
//! the dense value store, the writes parked until causally deliverable,
//! and the stamping of this node's own writes.
//!
//! Both protocols receive a write the same way — drop it uncharged if the
//! local clock already covers it, otherwise apply it at once when it is in
//! order and nothing waits, else park it and apply whatever became
//! deliverable, earliest parked first — and differ only in what a write
//! is on the wire (an update, or causal-partial's control record, which
//! advances the clock without a value) and in what the caller charges.
//!
//! ## The O(1) in-order check
//!
//! The classical delivery condition ([`VectorClock::deliverable_from`])
//! scans all `n` entries. Every [`Stamp`] records whether its writer
//! applied nothing since its previous write (an *own step*): the stamp is
//! then the previous one plus the writer's own increment. Every node
//! receives every write's stamp — as an update, or under partial
//! replication as a control record — and delivers a writer's writes in
//! order, so a local entry `local[w] == k - 1` means write `k - 1` of `w`
//! was delivered here, and `local` has dominated its stamp ever since. For
//! an own-step stamp of write `k` the remaining entries equal that stamp's,
//! so `local[w] + 1 == stamp[w]` *is* the delivery condition: one
//! comparison ([`Stamp::deliverable_at`]). It is the receiving-side mirror
//! of the [`DeltaVc`] charge: the wire already pays only for what changed.
//!
//! What still scans: the first write after the writer merged a delivery
//! (its stamp is no own step), and the drain of parked writes, which
//! checks each parked write (in O(1) when its stamp is an own step) until
//! none is deliverable.

use crate::clock::{DeltaVc, VectorClock};
use crate::protocol::store::Store;
use histories::{Value, VarId};
use std::sync::Arc;

/// A causal write's timestamp: the writer's vector clock after the write,
/// stamped once and shared by every copy of the write (each update, control
/// record, relay fork and recovery-log entry).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Stamp {
    vc: VectorClock,
    /// The writer applied nothing since its previous write: `vc` is the
    /// previous stamp with the writer's own entry incremented.
    own_step: bool,
}

impl Stamp {
    /// A stamp claiming nothing about the writer's previous write, so
    /// receivers check it by the full scan.
    pub(crate) fn new(vc: VectorClock) -> Self {
        Stamp {
            vc,
            own_step: false,
        }
    }

    /// The writer's vector clock after the write.
    pub(crate) fn clock(&self) -> &VectorClock {
        &self.vc
    }

    /// Whether this stamp of `writer`'s write is deliverable at a node whose
    /// clock is `local`: exactly [`VectorClock::deliverable_from`], in O(1)
    /// for an own-step stamp (see the module docs). `local` must be the
    /// clock of a causal node that delivers `writer`'s writes in order, as
    /// every node of both causal protocols does.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    pub(crate) fn deliverable_at(&self, local: &VectorClock, writer: usize) -> bool {
        if !self.own_step {
            return local.deliverable_from(&self.vc, writer);
        }
        let next = writer < local.len()
            && self.vc.len() == local.len()
            && local.get(writer) + 1 == self.vc.get(writer);
        #[expect(
            clippy::disallowed_macros,
            reason = "debug_assert! documents an invariant and compiles out of release builds"
        )]
        {
            debug_assert_eq!(
                next,
                local.deliverable_from(&self.vc, writer),
                "own step: the O(1) check is the delivery condition"
            );
        }
        next
    }
}

/// A received write waiting for its causal predecessors (`value`: `None`
/// for a control record).
#[derive(Clone, Debug, PartialEq)]
struct Parked {
    writer: usize,
    var: VarId,
    value: Option<i64>,
    stamp: Arc<Stamp>,
}

/// The causal half of a node: clock, store, parked writes, own stamps.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct CausalReplica {
    store: Store<Value>,
    vc: VectorClock,
    pending: Vec<Parked>,
    /// The stamp of this node's previous write — the delta reference every
    /// destination already holds, and the base of the next own step.
    prev: Arc<Stamp>,
    /// Whether a delivery was applied since this node's last write.
    merged: bool,
}

impl CausalReplica {
    /// An empty replica in a system of `n` processes.
    pub(crate) fn new(n: usize) -> Self {
        CausalReplica {
            store: Store::default(),
            vc: VectorClock::new(n),
            pending: Vec::new(),
            prev: Arc::new(Stamp::new(VectorClock::new(n))),
            merged: false,
        }
    }

    /// The local value of `var` (`⊥` if never written).
    pub(crate) fn read(&self, var: VarId) -> Value {
        self.store.get(var).copied().unwrap_or(Value::Bottom)
    }

    /// The local vector clock.
    pub(crate) fn clock(&self) -> &VectorClock {
        &self.vc
    }

    /// Received writes parked until deliverable: what the tests of both
    /// causal protocols watch drain.
    #[cfg(test)]
    pub(crate) fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Apply this node's own write and stamp it: the stamp, shared by every
    /// copy of the write, and the bytes its clock is charged on the wire —
    /// dense, or under `delta` its [`DeltaVc`] size against the previous
    /// stamp.
    pub(crate) fn write(
        &mut self,
        me: usize,
        var: VarId,
        value: i64,
        delta: bool,
    ) -> (Arc<Stamp>, usize) {
        self.vc.increment(me);
        self.store.insert(var, Value::Int(value));
        let stamp = Arc::new(Stamp {
            vc: self.vc.clone(),
            own_step: !self.merged,
        });
        debug_assert!(
            !stamp.own_step || {
                let mut step = self.prev.vc.clone();
                step.increment(me);
                step == stamp.vc
            },
            "an own step is the previous stamp plus the writer's increment"
        );
        self.merged = false;
        let encoded = DeltaVc::charged_bytes(delta, &self.prev.vc, &stamp.vc);
        self.prev = Arc::clone(&stamp);
        (stamp, encoded)
    }

    /// Whether `writer`'s write stamped `stamp` is already applied here: a
    /// duplicate (a replay, a parked late copy, a catch-up overlap), which
    /// is dropped uncharged.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    pub(crate) fn already_seen(&self, writer: usize, stamp: &Stamp) -> bool {
        stamp.vc.get(writer) <= self.vc.get(writer)
    }

    /// Receive `writer`'s write of `value` (`None`: a control record) to
    /// `var`. `false` for a duplicate, which changes nothing; otherwise the
    /// write is applied now if it is in order and nothing waits, else parked
    /// until its causal predecessors are applied — and the caller charges it.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    pub(crate) fn receive(
        &mut self,
        writer: usize,
        var: VarId,
        value: Option<i64>,
        stamp: &Arc<Stamp>,
    ) -> bool {
        if self.already_seen(writer, stamp) {
            return false;
        }
        if self.pending.is_empty() && stamp.deliverable_at(&self.vc, writer) {
            self.apply(writer, var, value, stamp);
        } else {
            self.pending.push(Parked {
                writer,
                var,
                value,
                stamp: Arc::clone(stamp),
            });
            self.drain();
        }
        true
    }

    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn apply(&mut self, writer: usize, var: VarId, value: Option<i64>, stamp: &Stamp) {
        self.vc.deliver(&stamp.vc, writer);
        self.merged = true;
        if let Some(v) = value {
            self.store.insert(var, Value::Int(v));
        }
    }

    /// Apply parked writes while any is deliverable, earliest parked first.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn drain(&mut self) {
        while let Some(i) =
            (self.pending.iter()).position(|p| p.stamp.deliverable_at(&self.vc, p.writer))
        {
            let p = self.pending.remove(i);
            self.apply(p.writer, p.var, p.value, &p.stamp);
            // Applying a write turns any other parked copy of it stale:
            // purge them so duplicates cannot pile up.
            let vc = &self.vc;
            self.pending
                .retain(|p| p.stamp.vc.get(p.writer) > vc.get(p.writer));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deliver `from`'s writes, stamped `stamps`, to `to` in order.
    fn deliver_all(to: &mut CausalReplica, from: usize, stamps: &[Arc<Stamp>]) {
        for s in stamps {
            assert!(to.receive(from, VarId(0), Some(0), s));
        }
    }

    #[test]
    fn a_write_right_after_a_delivery_is_not_an_own_step() {
        let (mut p0, mut p1) = (CausalReplica::new(2), CausalReplica::new(2));
        let (first, _) = p0.write(0, VarId(0), 1, false);
        let (second, _) = p0.write(0, VarId(0), 2, false);
        assert!(first.own_step && second.own_step, "nothing applied");
        deliver_all(&mut p1, 0, &[first, second]);
        let (merged, _) = p1.write(1, VarId(0), 3, false);
        assert!(!merged.own_step, "p1 applied p0's writes first");
        let (next, _) = p1.write(1, VarId(0), 4, false);
        assert!(next.own_step, "nothing applied since the previous write");
        // The merged stamp is checked by the scan, and agrees with it.
        assert!(merged.deliverable_at(p0.clock(), 1));
        assert!(!next.deliverable_at(p0.clock(), 1), "a gap in p1's writes");
    }

    #[test]
    fn an_own_step_waits_for_the_previous_write_only() {
        let (mut p0, mut p2) = (CausalReplica::new(3), CausalReplica::new(3));
        let (w1, _) = p0.write(0, VarId(0), 1, false);
        let (w2, _) = p0.write(0, VarId(1), 2, false);
        // The second write overtakes the first: parked, then both apply.
        assert!(p2.receive(0, VarId(1), Some(2), &w2));
        assert_eq!(p2.pending.len(), 1);
        assert_eq!(p2.read(VarId(1)), Value::Bottom);
        assert!(p2.receive(0, VarId(0), None, &w1));
        assert_eq!(p2.pending.len(), 0);
        // Both applied (one stored, one a record), each an own step.
        assert_eq!(p2.clock().get(0), 2);
        assert!(w1.own_step && w2.own_step);
        assert_eq!(p2.read(VarId(1)), Value::Int(2));
        assert_eq!(p2.read(VarId(0)), Value::Bottom, "a record stores nothing");
        // Both are now duplicates.
        assert!(!p2.receive(0, VarId(0), None, &w1));
        assert!(!p2.receive(0, VarId(1), Some(2), &w2));
    }

    #[test]
    fn own_steps_are_charged_one_changed_entry_under_delta() {
        let mut p = CausalReplica::new(16);
        for _ in 0..3 {
            let (stamp, encoded) = p.write(3, VarId(0), 7, true);
            assert!(stamp.own_step);
            assert_eq!(encoded, 4 + 12);
        }
        assert_eq!(p.write(3, VarId(0), 7, false).1, 16 * 8);
    }
}
