//! Message and byte statistics, the raw material for the paper's
//! "control information" efficiency comparisons.

use crate::message::NodeId;
use serde::{Deserialize, Serialize};

/// Counters for a single directed link.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkStats {
    /// Messages sent on this link.
    pub messages: u64,
    /// Application-data bytes sent.
    pub data_bytes: u64,
    /// Protocol control bytes sent.
    pub control_bytes: u64,
    /// Transmissions dropped by the fault schedule and retransmitted
    /// (each one re-pays the payload bytes, charged above).
    pub drops: u64,
    /// Duplicate copies delivered by the fault schedule and discarded by
    /// the receiver's link layer (each pays the payload bytes once more).
    pub duplicates: u64,
}

impl LinkStats {
    /// Total bytes (data + control).
    pub fn total_bytes(&self) -> u64 {
        self.data_bytes + self.control_bytes
    }
}

/// Counters for a single node (aggregated over all its links).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeStats {
    /// Messages sent by this node.
    pub sent_messages: u64,
    /// Messages delivered to this node.
    pub received_messages: u64,
    /// Data bytes sent by this node.
    pub sent_data_bytes: u64,
    /// Control bytes sent by this node.
    pub sent_control_bytes: u64,
    /// Data bytes received by this node.
    pub received_data_bytes: u64,
    /// Control bytes received by this node.
    pub received_control_bytes: u64,
    /// Deliveries lost because this node was crashed when they arrived.
    pub lost_to_crash: u64,
}

/// Aggregated statistics for a whole simulation run.
///
/// Storage is dense: one [`LinkStats`] slot per ordered node pair and one
/// [`NodeStats`] slot per node, indexed directly by node id. Recording a
/// send or a delivery is therefore a couple of array writes on the
/// simulator's hot path (no map lookups). The capacity grows on demand, so
/// a default-constructed value still accepts any node id.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct NetworkStats {
    n: usize,
    links: Vec<LinkStats>,
    nodes: Vec<NodeStats>,
}

impl NetworkStats {
    /// Empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty statistics pre-sized for `n` nodes, so no reallocation happens
    /// while recording.
    pub fn with_nodes(n: usize) -> Self {
        NetworkStats {
            n,
            links: vec![LinkStats::default(); n * n],
            nodes: vec![NodeStats::default(); n],
        }
    }

    /// Grow the dense storage so node id `idx` is addressable.
    fn ensure(&mut self, idx: usize) {
        if idx < self.n {
            return;
        }
        let new_n = idx + 1;
        let mut links = vec![LinkStats::default(); new_n * new_n];
        for f in 0..self.n {
            for t in 0..self.n {
                links[f * new_n + t] = self.links[f * self.n + t];
            }
        }
        self.links = links;
        self.nodes.resize(new_n, NodeStats::default());
        self.n = new_n;
    }

    #[inline]
    fn link_slot(&self, from: usize, to: usize) -> usize {
        from * self.n + to
    }

    /// Record a message of `data`/`control` bytes sent from `from` to `to`.
    pub fn record_send(&mut self, from: NodeId, to: NodeId, data: usize, control: usize) {
        self.ensure(from.index().max(to.index()));
        let slot = self.link_slot(from.index(), to.index());
        let link = &mut self.links[slot];
        link.messages += 1;
        link.data_bytes += data as u64;
        link.control_bytes += control as u64;

        let sender = &mut self.nodes[from.index()];
        sender.sent_messages += 1;
        sender.sent_data_bytes += data as u64;
        sender.sent_control_bytes += control as u64;
    }

    /// Record delivery of a message of `data`/`control` bytes at `to`.
    pub fn record_delivery(&mut self, to: NodeId, data: usize, control: usize) {
        self.ensure(to.index());
        let recv = &mut self.nodes[to.index()];
        recv.received_messages += 1;
        recv.received_data_bytes += data as u64;
        recv.received_control_bytes += control as u64;
    }

    /// Record `count` dropped-and-retransmitted attempts of a message of
    /// `data`/`control` bytes on `from → to`. Each retransmission pays the
    /// payload bytes again; the logical message count is unchanged.
    pub fn record_retransmits(
        &mut self,
        from: NodeId,
        to: NodeId,
        count: u32,
        data: usize,
        control: usize,
    ) {
        if count == 0 {
            return;
        }
        self.ensure(from.index().max(to.index()));
        let slot = self.link_slot(from.index(), to.index());
        let link = &mut self.links[slot];
        link.drops += count as u64;
        link.data_bytes += count as u64 * data as u64;
        link.control_bytes += count as u64 * control as u64;
        let sender = &mut self.nodes[from.index()];
        sender.sent_data_bytes += count as u64 * data as u64;
        sender.sent_control_bytes += count as u64 * control as u64;
    }

    /// Record a duplicate copy of a message of `data`/`control` bytes on
    /// `from → to` (delivered and discarded by the receiver's link layer).
    pub fn record_duplicate(&mut self, from: NodeId, to: NodeId, data: usize, control: usize) {
        self.ensure(from.index().max(to.index()));
        let slot = self.link_slot(from.index(), to.index());
        let link = &mut self.links[slot];
        link.duplicates += 1;
        link.data_bytes += data as u64;
        link.control_bytes += control as u64;
        let sender = &mut self.nodes[from.index()];
        sender.sent_data_bytes += data as u64;
        sender.sent_control_bytes += control as u64;
    }

    /// Record a delivery lost because `to` was crashed when it arrived.
    pub fn record_crash_loss(&mut self, to: NodeId) {
        self.ensure(to.index());
        self.nodes[to.index()].lost_to_crash += 1;
    }

    /// Stats for one directed link (zeroes if it never carried traffic).
    pub fn link(&self, from: NodeId, to: NodeId) -> LinkStats {
        if from.index() >= self.n || to.index() >= self.n {
            return LinkStats::default();
        }
        self.links[self.link_slot(from.index(), to.index())]
    }

    /// Stats for one node (zeroes if it never sent or received).
    pub fn node(&self, node: NodeId) -> NodeStats {
        self.nodes.get(node.index()).copied().unwrap_or_default()
    }

    /// Total messages sent in the run.
    pub fn total_messages(&self) -> u64 {
        self.links.iter().map(|l| l.messages).sum()
    }

    /// Total data bytes sent in the run.
    pub fn total_data_bytes(&self) -> u64 {
        self.links.iter().map(|l| l.data_bytes).sum()
    }

    /// Total control bytes sent in the run.
    pub fn total_control_bytes(&self) -> u64 {
        self.links.iter().map(|l| l.control_bytes).sum()
    }

    /// Total bytes (data + control) sent in the run.
    pub fn total_bytes(&self) -> u64 {
        self.total_data_bytes() + self.total_control_bytes()
    }

    /// Total transmissions dropped by the fault schedule (each one was
    /// retransmitted, so this is also the retransmission count).
    pub fn total_drops(&self) -> u64 {
        self.links.iter().map(|l| l.drops).sum()
    }

    /// Total duplicate copies delivered and discarded by link layers.
    pub fn total_duplicates(&self) -> u64 {
        self.links.iter().map(|l| l.duplicates).sum()
    }

    /// Total deliveries lost because their destination was crashed.
    pub fn total_crash_losses(&self) -> u64 {
        self.nodes.iter().map(|n| n.lost_to_crash).sum()
    }

    /// Fraction of all sent bytes that are control bytes, in `[0, 1]`.
    /// Returns 0 when nothing was sent.
    pub fn control_overhead_ratio(&self) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            0.0
        } else {
            self.total_control_bytes() as f64 / total as f64
        }
    }

    /// Iterate over all links that carried traffic.
    pub fn links(&self) -> impl Iterator<Item = (NodeId, NodeId, LinkStats)> + '_ {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, s)| s.messages > 0)
            .map(|(i, &s)| (NodeId(i / self.n), NodeId(i % self.n), s))
    }

    /// Iterate over all nodes that sent or received traffic.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, NodeStats)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, s)| **s != NodeStats::default())
            .map(|(i, &s)| (NodeId(i), s))
    }

    /// Merge another stats object into this one (summing counters).
    pub fn merge(&mut self, other: &NetworkStats) {
        if other.n > 0 {
            self.ensure(other.n - 1);
        }
        for (from, to, v) in other.links() {
            let slot = self.link_slot(from.index(), to.index());
            let e = &mut self.links[slot];
            e.messages += v.messages;
            e.data_bytes += v.data_bytes;
            e.control_bytes += v.control_bytes;
            e.drops += v.drops;
            e.duplicates += v.duplicates;
        }
        for (node, v) in other.nodes() {
            let e = &mut self.nodes[node.index()];
            e.sent_messages += v.sent_messages;
            e.received_messages += v.received_messages;
            e.sent_data_bytes += v.sent_data_bytes;
            e.sent_control_bytes += v.sent_control_bytes;
            e.received_data_bytes += v.received_data_bytes;
            e.received_control_bytes += v.received_control_bytes;
            e.lost_to_crash += v.lost_to_crash;
        }
    }
}

/// Equality is semantic (the recorded counters), not representational: two
/// stats objects with different pre-sized capacities but the same traffic
/// compare equal.
impl PartialEq for NetworkStats {
    fn eq(&self, other: &Self) -> bool {
        self.links().eq(other.links())
            && self
                .nodes
                .iter()
                .chain(std::iter::repeat(&NodeStats::default()))
                .take(self.n.max(other.n))
                .eq(other
                    .nodes
                    .iter()
                    .chain(std::iter::repeat(&NodeStats::default()))
                    .take(self.n.max(other.n)))
    }
}

impl Eq for NetworkStats {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_and_delivery_counters() {
        let mut s = NetworkStats::new();
        s.record_send(NodeId(0), NodeId(1), 8, 24);
        s.record_send(NodeId(0), NodeId(1), 8, 24);
        s.record_send(NodeId(1), NodeId(0), 4, 0);
        s.record_delivery(NodeId(1), 8, 24);

        let l01 = s.link(NodeId(0), NodeId(1));
        assert_eq!(l01.messages, 2);
        assert_eq!(l01.data_bytes, 16);
        assert_eq!(l01.control_bytes, 48);
        assert_eq!(l01.total_bytes(), 64);

        let n0 = s.node(NodeId(0));
        assert_eq!(n0.sent_messages, 2);
        assert_eq!(n0.received_messages, 0);
        let n1 = s.node(NodeId(1));
        assert_eq!(n1.sent_messages, 1);
        assert_eq!(n1.received_messages, 1);
        assert_eq!(n1.received_control_bytes, 24);

        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.total_data_bytes(), 20);
        assert_eq!(s.total_control_bytes(), 48);
        assert_eq!(s.total_bytes(), 68);
    }

    #[test]
    fn control_overhead_ratio_bounds() {
        let mut s = NetworkStats::new();
        assert_eq!(s.control_overhead_ratio(), 0.0);
        s.record_send(NodeId(0), NodeId(1), 0, 10);
        assert!((s.control_overhead_ratio() - 1.0).abs() < 1e-12);
        s.record_send(NodeId(0), NodeId(1), 10, 0);
        assert!((s.control_overhead_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unknown_links_and_nodes_are_zero() {
        let s = NetworkStats::new();
        assert_eq!(s.link(NodeId(5), NodeId(6)), LinkStats::default());
        assert_eq!(s.node(NodeId(5)), NodeStats::default());
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = NetworkStats::new();
        a.record_send(NodeId(0), NodeId(1), 1, 2);
        a.record_delivery(NodeId(1), 1, 2);
        let mut b = NetworkStats::new();
        b.record_send(NodeId(0), NodeId(1), 3, 4);
        b.record_send(NodeId(2), NodeId(1), 5, 6);
        a.merge(&b);
        assert_eq!(a.total_messages(), 3);
        assert_eq!(a.link(NodeId(0), NodeId(1)).data_bytes, 4);
        assert_eq!(a.link(NodeId(2), NodeId(1)).control_bytes, 6);
        assert_eq!(a.node(NodeId(1)).received_messages, 1);
    }

    #[test]
    fn equality_ignores_reserved_capacity() {
        let mut a = NetworkStats::with_nodes(8);
        let mut b = NetworkStats::new();
        a.record_send(NodeId(0), NodeId(1), 3, 4);
        b.record_send(NodeId(0), NodeId(1), 3, 4);
        assert_eq!(a, b);
        b.record_delivery(NodeId(1), 3, 4);
        assert_ne!(a, b);
    }

    #[test]
    fn presized_stats_accept_out_of_range_ids() {
        let mut s = NetworkStats::with_nodes(2);
        s.record_send(NodeId(0), NodeId(5), 1, 1);
        s.record_delivery(NodeId(7), 1, 1);
        assert_eq!(s.link(NodeId(0), NodeId(5)).messages, 1);
        assert_eq!(s.node(NodeId(7)).received_messages, 1);
        assert_eq!(s.total_messages(), 1);
    }

    #[test]
    fn iterators_cover_recorded_entries() {
        let mut s = NetworkStats::new();
        s.record_send(NodeId(0), NodeId(1), 1, 1);
        s.record_send(NodeId(1), NodeId(2), 1, 1);
        assert_eq!(s.links().count(), 2);
        assert_eq!(s.nodes().count(), 2);
    }
}
