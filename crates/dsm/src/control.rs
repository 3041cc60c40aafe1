//! Control-information accounting.
//!
//! The paper's efficiency notion is about *which processes must manage
//! information concerning which variables*. Every protocol node owns a
//! [`ControlStats`] and charges to it:
//!
//! * `track(x)` — the node stored or processed metadata about variable `x`
//!   (applied an update, buffered a dependency record, advanced a clock
//!   entry tied to a write of `x`, …). A node that tracks a variable it
//!   does not replicate is the runtime witness of x-relevance beyond
//!   `C(x)`.
//! * `charge_sent(x, bytes)` / `charge_received(x, bytes)` — control bytes
//!   attributable to `x` that crossed the wire at this node
//!   (`charge_sent_n` charges one payload sent to several destinations).
//!
//! [`ControlSummary`] aggregates the per-node stats for a whole run and
//! answers the questions the benchmarks ask: how many processes handled
//! metadata about `x`, and how many control bytes were spent per protocol.

use histories::{ProcId, VarId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// One variable's counters at one node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
struct Slot {
    tracked: bool,
    sent_bytes: u64,
    received_bytes: u64,
    sent_entries: u64,
    received_entries: u64,
}

/// Per-node control-information counters.
///
/// A dense ledger: one `Slot` per variable, indexed by `VarId` and grown
/// on first touch, so a charge on the delivery path is one bounds check
/// and three adds. Variable ids are dense and small (`0..m` for the `m`
/// variables of a distribution). The ledger ends at the highest variable
/// the node ever touched — growing always marks the new last slot tracked
/// — so two ledgers holding the same charges have the same slots, and
/// derived equality is equality of what was charged.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControlStats {
    slots: Vec<Slot>,
}

impl ControlStats {
    /// Fresh, empty counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot of `x`, grown into existence if `x` was never touched.
    /// Always `Some`: the ledger is grown to cover `x` first; the `Option`
    /// only spares the delivery path an indexing panic.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn slot_mut(&mut self, x: VarId) -> Option<&mut Slot> {
        let i = x.index();
        if i >= self.slots.len() {
            self.slots.resize(i + 1, Slot::default());
        }
        self.slots.get_mut(i)
    }

    fn slot(&self, x: VarId) -> Slot {
        self.slots.get(x.index()).copied().unwrap_or_default()
    }

    /// Record that this node manages metadata about `x`.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    pub fn track(&mut self, x: VarId) {
        if let Some(slot) = self.slot_mut(x) {
            slot.tracked = true;
        }
    }

    /// Record `bytes` of control information about `x` sent by this node.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    pub fn charge_sent(&mut self, x: VarId, bytes: usize) {
        let Some(slot) = self.slot_mut(x) else {
            return;
        };
        slot.tracked = true;
        slot.sent_bytes += bytes as u64;
        slot.sent_entries += 1;
    }

    /// Record `count` sends of `bytes` of control information about `x`:
    /// the same totals as `count` calls of [`ControlStats::charge_sent`],
    /// for one payload that goes to `count` destinations.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    pub(crate) fn charge_sent_n(&mut self, x: VarId, bytes: usize, count: usize) {
        let Some(slot) = self.slot_mut(x) else {
            return;
        };
        slot.tracked = true;
        slot.sent_bytes += (bytes * count) as u64;
        slot.sent_entries += count as u64;
    }

    /// Record `bytes` of control information about `x` received by this node.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    pub fn charge_received(&mut self, x: VarId, bytes: usize) {
        let Some(slot) = self.slot_mut(x) else {
            return;
        };
        slot.tracked = true;
        slot.received_bytes += bytes as u64;
        slot.received_entries += 1;
    }

    /// The variables this node manages metadata about.
    pub fn tracked_vars(&self) -> BTreeSet<VarId> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.tracked)
            .map(|(i, _)| VarId(i))
            .collect()
    }

    /// How many variables this node manages metadata about.
    pub fn tracked_count(&self) -> usize {
        self.slots.iter().filter(|s| s.tracked).count()
    }

    /// Whether this node handled any metadata about `x`.
    pub fn tracks(&self, x: VarId) -> bool {
        self.slot(x).tracked
    }

    /// Control bytes sent about `x`.
    pub fn sent_bytes(&self, x: VarId) -> u64 {
        self.slot(x).sent_bytes
    }

    /// Control bytes received about `x`.
    pub fn received_bytes(&self, x: VarId) -> u64 {
        self.slot(x).received_bytes
    }

    /// Control entries (records) sent about `x`. Batching and multicast
    /// change *bytes*, never entry counts: one entry per destination per
    /// record, however the wire encodes it.
    pub fn sent_entries(&self, x: VarId) -> u64 {
        self.slot(x).sent_entries
    }

    /// Control entries (records) received about `x`.
    pub fn received_entries(&self, x: VarId) -> u64 {
        self.slot(x).received_entries
    }

    /// Total control bytes sent by this node (all variables).
    pub fn total_sent_bytes(&self) -> u64 {
        self.slots.iter().map(|s| s.sent_bytes).sum()
    }

    /// Total control bytes received by this node (all variables).
    pub fn total_received_bytes(&self) -> u64 {
        self.slots.iter().map(|s| s.received_bytes).sum()
    }

    /// Total control entries (messages or piggybacked records) sent.
    pub fn total_sent_entries(&self) -> u64 {
        self.slots.iter().map(|s| s.sent_entries).sum()
    }

    /// Total control entries (messages or piggybacked records) received.
    pub fn total_received_entries(&self) -> u64 {
        self.slots.iter().map(|s| s.received_entries).sum()
    }
}

/// Aggregated control statistics for a whole run (one entry per node).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControlSummary {
    per_node: Vec<ControlStats>,
}

impl ControlSummary {
    /// Build from per-node stats (index = node id).
    pub fn new(per_node: Vec<ControlStats>) -> Self {
        ControlSummary { per_node }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.per_node.len()
    }

    /// The stats of one node.
    pub fn node(&self, p: ProcId) -> &ControlStats {
        &self.per_node[p.index()]
    }

    /// The set of nodes that manage metadata about `x` — the runtime
    /// x-relevant set.
    pub fn relevant_nodes(&self, x: VarId) -> BTreeSet<ProcId> {
        self.per_node
            .iter()
            .enumerate()
            .filter(|(_, s)| s.tracks(x))
            .map(|(i, _)| ProcId(i))
            .collect()
    }

    /// Total control bytes sent across all nodes.
    pub fn total_control_bytes(&self) -> u64 {
        self.per_node.iter().map(|s| s.total_sent_bytes()).sum()
    }

    /// Total control entries sent across all nodes.
    pub fn total_control_entries(&self) -> u64 {
        self.per_node.iter().map(|s| s.total_sent_entries()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_and_imply_tracking() {
        let mut s = ControlStats::new();
        assert!(!s.tracks(VarId(0)));
        s.charge_sent(VarId(0), 16);
        s.charge_sent(VarId(0), 16);
        s.charge_received(VarId(1), 8);
        assert!(s.tracks(VarId(0)));
        assert!(s.tracks(VarId(1)));
        assert_eq!(s.sent_bytes(VarId(0)), 32);
        assert_eq!(s.received_bytes(VarId(1)), 8);
        assert_eq!(s.sent_bytes(VarId(1)), 0);
        assert_eq!(s.total_sent_bytes(), 32);
        assert_eq!(s.total_received_bytes(), 8);
        assert_eq!(s.total_sent_entries(), 2);
        assert_eq!(s.tracked_vars().len(), 2);
    }

    #[test]
    fn a_charge_for_n_destinations_equals_n_charges() {
        let mut one_by_one = ControlStats::new();
        for _ in 0..5 {
            one_by_one.charge_sent(VarId(2), 72);
        }
        let mut at_once = ControlStats::new();
        at_once.charge_sent_n(VarId(2), 72, 5);
        assert_eq!(at_once, one_by_one);
        assert_eq!(at_once.sent_entries(VarId(2)), 5);
        assert_eq!(at_once.sent_bytes(VarId(2)), 360);
    }

    #[test]
    fn track_alone_does_not_charge_bytes() {
        let mut s = ControlStats::new();
        s.track(VarId(3));
        assert!(s.tracks(VarId(3)));
        assert_eq!(s.total_sent_bytes(), 0);
    }

    #[test]
    fn summary_identifies_relevant_nodes() {
        let mut a = ControlStats::new();
        a.charge_sent(VarId(0), 10);
        let mut b = ControlStats::new();
        b.track(VarId(0));
        b.charge_received(VarId(1), 4);
        let c = ControlStats::new();
        let summary = ControlSummary::new(vec![a, b, c]);
        assert_eq!(summary.node_count(), 3);
        assert_eq!(
            summary.relevant_nodes(VarId(0)),
            BTreeSet::from([ProcId(0), ProcId(1)])
        );
        assert_eq!(
            summary.relevant_nodes(VarId(1)),
            BTreeSet::from([ProcId(1)])
        );
        assert!(summary.relevant_nodes(VarId(9)).is_empty());
        assert_eq!(summary.total_control_bytes(), 10);
        assert_eq!(summary.total_control_entries(), 1);
        // One variable tracked per node on average.
        let tracked: usize = summary.per_node.iter().map(|s| s.tracked_count()).sum();
        assert_eq!(tracked, summary.node_count());
        assert_eq!(summary.node(ProcId(0)).sent_bytes(VarId(0)), 10);
    }

    #[test]
    fn empty_summary_statistics() {
        let s = ControlSummary::default();
        assert!(s.per_node.is_empty());
        assert_eq!(s.total_control_bytes(), 0);
    }
}
