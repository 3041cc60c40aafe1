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
/// receive-side slot per node, indexed directly by node id. A send, a
/// retransmission or a duplicate touches its link slot only; a node's
/// `sent_*` totals are its link row's sums, computed when a per-node
/// total, a merge or `==` asks. Recording is therefore one slot update on the
/// simulator's hot path (no map lookups). The capacity grows on demand,
/// so a default-constructed value still accepts any node id.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct NetworkStats {
    n: usize,
    links: Vec<LinkStats>,
    /// The receive side of each node: only `received_*` and
    /// `lost_to_crash` are recorded here, the `sent_*` fields stay zero.
    received: Vec<NodeStats>,
}

impl NetworkStats {
    /// Empty statistics pre-sized for `n` nodes, so no reallocation happens
    /// while recording.
    pub(crate) fn with_nodes(n: usize) -> Self {
        NetworkStats {
            n,
            links: vec![LinkStats::default(); n * n],
            received: vec![NodeStats::default(); n],
        }
    }

    /// Grow the dense storage so node id `idx` is addressable.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, idx: usize) {
        let new_n = idx + 1;
        let mut links = vec![LinkStats::default(); new_n * new_n];
        for from in 0..self.n {
            links[from * new_n..][..self.n].copy_from_slice(&self.links[from * self.n..][..self.n]);
        }
        self.links = links;
        self.received.resize(new_n, NodeStats::default());
        self.n = new_n;
    }

    /// The slot of link `from → to`, growing the storage first if either
    /// id is past it.
    #[inline]
    fn link_mut(&mut self, from: NodeId, to: NodeId) -> &mut LinkStats {
        let (from, to) = (from.index(), to.index());
        if from.max(to) >= self.n {
            self.grow(from.max(to));
        }
        &mut self.links[from * self.n + to]
    }

    /// The receive-side slot of `node`, growing the storage first if the
    /// id is past it.
    #[inline]
    fn received_mut(&mut self, node: NodeId) -> &mut NodeStats {
        if node.index() >= self.n {
            self.grow(node.index());
        }
        &mut self.received[node.index()]
    }

    /// Record a message of `data`/`control` bytes sent from `from` to `to`.
    #[inline]
    pub(crate) fn record_send(&mut self, from: NodeId, to: NodeId, data: usize, control: usize) {
        let link = self.link_mut(from, to);
        link.messages += 1;
        link.data_bytes += data as u64;
        link.control_bytes += control as u64;
    }

    /// Record delivery of a message of `data`/`control` bytes at `to`.
    #[inline]
    pub(crate) fn record_delivery(&mut self, to: NodeId, data: usize, control: usize) {
        let recv = self.received_mut(to);
        recv.received_messages += 1;
        recv.received_data_bytes += data as u64;
        recv.received_control_bytes += control as u64;
    }

    /// Record `count` dropped-and-retransmitted attempts of a message of
    /// `data`/`control` bytes on `from → to`. Each retransmission pays the
    /// payload bytes again; the logical message count is unchanged.
    #[inline]
    pub(crate) fn record_retransmits(
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
        let link = self.link_mut(from, to);
        link.drops += count as u64;
        link.data_bytes += count as u64 * data as u64;
        link.control_bytes += count as u64 * control as u64;
    }

    /// Record a duplicate copy of a message of `data`/`control` bytes on
    /// `from → to` (delivered and discarded by the receiver's link layer).
    #[inline]
    pub(crate) fn record_duplicate(
        &mut self,
        from: NodeId,
        to: NodeId,
        data: usize,
        control: usize,
    ) {
        let link = self.link_mut(from, to);
        link.duplicates += 1;
        link.data_bytes += data as u64;
        link.control_bytes += control as u64;
    }

    /// Record a delivery lost because `to` was crashed when it arrived.
    pub(crate) fn record_crash_loss(&mut self, to: NodeId) {
        self.received_mut(to).lost_to_crash += 1;
    }

    /// Stats for one node (zeroes if it never sent or received): its
    /// receive side as recorded, its send side summed over its link row.
    pub(crate) fn node(&self, node: NodeId) -> NodeStats {
        let Some(&received) = self.received.get(node.index()) else {
            return NodeStats::default();
        };
        let row = &self.links[node.index() * self.n..][..self.n];
        row.iter().fold(received, |mut sum, link| {
            sum.sent_messages += link.messages;
            sum.sent_data_bytes += link.data_bytes;
            sum.sent_control_bytes += link.control_bytes;
            sum
        })
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
        self.received.iter().map(|n| n.lost_to_crash).sum()
    }

    /// Iterate over all links that carried traffic.
    pub(crate) fn links(&self) -> impl Iterator<Item = (NodeId, NodeId, LinkStats)> + '_ {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, s)| s.messages > 0)
            .map(|(i, &s)| (NodeId(i / self.n), NodeId(i % self.n), s))
    }

    /// Iterate over all nodes that sent or received traffic.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = (NodeId, NodeStats)> + '_ {
        (0..self.n)
            .map(|i| (NodeId(i), self.node(NodeId(i))))
            .filter(|(_, s)| *s != NodeStats::default())
    }

    /// Merge another stats object into this one (summing counters).
    pub(crate) fn merge(&mut self, other: &NetworkStats) {
        if other.n > self.n {
            self.grow(other.n - 1);
        }
        for from in 0..other.n {
            let theirs = &other.links[from * other.n..][..other.n];
            let mine = &mut self.links[from * self.n..][..other.n];
            for (e, v) in mine.iter_mut().zip(theirs) {
                e.messages += v.messages;
                e.data_bytes += v.data_bytes;
                e.control_bytes += v.control_bytes;
                e.drops += v.drops;
                e.duplicates += v.duplicates;
            }
        }
        for (e, v) in self.received.iter_mut().zip(&other.received) {
            e.received_messages += v.received_messages;
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
        self.links().eq(other.links()) && self.nodes().eq(other.nodes())
    }
}

impl Eq for NetworkStats {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Stats for one directed link (zeroes if it never carried traffic).
    fn link(s: &NetworkStats, from: NodeId, to: NodeId) -> LinkStats {
        if from.index() >= s.n || to.index() >= s.n {
            return LinkStats::default();
        }
        s.links[from.index() * s.n + to.index()]
    }

    /// The reference model: eager per-node counters, as `NetworkStats`
    /// kept them before the send side was derived from the link rows.
    /// Every send, retransmission and duplicate bumps the sender's node
    /// slot as well as the link's; maps make every id addressable.
    #[derive(Clone, Debug, Default)]
    struct Eager {
        links: BTreeMap<(usize, usize), LinkStats>,
        nodes: BTreeMap<usize, NodeStats>,
    }

    impl Eager {
        /// What the simulator records for one transmission: the send,
        /// its retransmitted attempts, and a duplicate copy if one was
        /// drawn.
        fn transmit(&mut self, from: usize, to: usize, bytes: (u64, u64), drops: u64, dup: bool) {
            let (data, control) = bytes;
            let copies = 1 + drops + u64::from(dup);
            let link = self.links.entry((from, to)).or_default();
            link.messages += 1;
            link.drops += drops;
            link.duplicates += u64::from(dup);
            link.data_bytes += copies * data;
            link.control_bytes += copies * control;
            let sender = self.nodes.entry(from).or_default();
            sender.sent_messages += 1;
            sender.sent_data_bytes += copies * data;
            sender.sent_control_bytes += copies * control;
        }

        fn deliver(&mut self, to: usize, data: u64, control: u64) {
            let recv = self.nodes.entry(to).or_default();
            recv.received_messages += 1;
            recv.received_data_bytes += data;
            recv.received_control_bytes += control;
        }

        fn lose(&mut self, to: usize) {
            self.nodes.entry(to).or_default().lost_to_crash += 1;
        }

        fn merge(&mut self, other: &Eager) {
            for (&k, v) in &other.links {
                let e = self.links.entry(k).or_default();
                e.messages += v.messages;
                e.data_bytes += v.data_bytes;
                e.control_bytes += v.control_bytes;
                e.drops += v.drops;
                e.duplicates += v.duplicates;
            }
            for (&k, v) in &other.nodes {
                let e = self.nodes.entry(k).or_default();
                e.sent_messages += v.sent_messages;
                e.received_messages += v.received_messages;
                e.sent_data_bytes += v.sent_data_bytes;
                e.sent_control_bytes += v.sent_control_bytes;
                e.received_data_bytes += v.received_data_bytes;
                e.received_control_bytes += v.received_control_bytes;
                e.lost_to_crash += v.lost_to_crash;
            }
        }

        fn node(&self, id: usize) -> NodeStats {
            self.nodes.get(&id).copied().unwrap_or_default()
        }

        fn links(&self) -> Vec<(NodeId, NodeId, LinkStats)> {
            let carried = self.links.iter().filter(|(_, l)| l.messages > 0);
            carried
                .map(|(&(f, t), &l)| (NodeId(f), NodeId(t), l))
                .collect()
        }

        fn nodes(&self) -> Vec<(NodeId, NodeStats)> {
            let active = self
                .nodes
                .iter()
                .filter(|(_, s)| **s != NodeStats::default());
            active.map(|(&i, &s)| (NodeId(i), s)).collect()
        }

        /// Link totals, in `NetworkStats::total_*` order, then the crash
        /// losses.
        fn totals(&self) -> [u64; 6] {
            let sum = |f: fn(&LinkStats) -> u64| self.links.values().map(f).sum::<u64>();
            let losses = self.nodes.values().map(|n| n.lost_to_crash).sum();
            [
                sum(|l| l.messages),
                sum(|l| l.data_bytes),
                sum(|l| l.control_bytes),
                sum(|l| l.drops),
                sum(|l| l.duplicates),
                losses,
            ]
        }
    }

    /// One recorded event, `((kind, from, to), (data, control, drops,
    /// dup))`: kind 0–2 is a transmission, 3 a delivery at `to` and 4 a
    /// crash loss at `to`. Ids run past every capacity the test presizes.
    type Op = ((u8, usize, usize), (u64, u64, u32, bool));

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let event = (0u8..5, 0usize..9, 0usize..9);
        let load = (0u64..40, 0u64..40, 0u32..3, any::<bool>());
        proptest::collection::vec((event, load), 0..40)
    }

    fn record(capacity: usize, ops: &[Op]) -> (NetworkStats, Eager) {
        let (mut stats, mut model) = (NetworkStats::with_nodes(capacity), Eager::default());
        for &((kind, from, to), (data, control, drops, dup)) in ops {
            let (f, t, d, c) = (NodeId(from), NodeId(to), data as usize, control as usize);
            match kind {
                0..=2 => {
                    stats.record_send(f, t, d, c);
                    stats.record_retransmits(f, t, drops, d, c);
                    if dup {
                        stats.record_duplicate(f, t, d, c);
                    }
                    model.transmit(from, to, (data, control), u64::from(drops), dup);
                }
                3 => {
                    stats.record_delivery(t, d, c);
                    model.deliver(to, data, control);
                }
                _ => {
                    stats.record_crash_loss(t);
                    model.lose(to);
                }
            }
        }
        (stats, model)
    }

    fn agree(stats: &NetworkStats, model: &Eager) -> Result<(), String> {
        let check = |what: &str, ok: bool| if ok { Ok(()) } else { Err(what.to_owned()) };
        for id in 0..12 {
            check("node", stats.node(NodeId(id)) == model.node(id))?;
        }
        check("nodes", stats.nodes().eq(model.nodes()))?;
        check("links", stats.links().eq(model.links()))?;
        let totals = [
            stats.total_messages(),
            stats.total_data_bytes(),
            stats.total_control_bytes(),
            stats.total_drops(),
            stats.total_duplicates(),
            stats.total_crash_losses(),
        ];
        check("totals", totals == model.totals())?;
        check(
            "total_bytes",
            stats.total_bytes() == model.totals()[1] + model.totals()[2],
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Deriving each node's sent totals from its link row reads the
        /// same as the eager per-node counters, before and after a
        /// merge, at any presized capacity; and `==` holds exactly when
        /// the models' links and nodes agree.
        #[test]
        fn derived_node_counters_equal_the_eager_model(
            a in ops(),
            b in ops(),
            caps in (0usize..6, 0usize..6),
            tail in 0usize..3,
        ) {
            let (mut x, mut mx) = record(caps.0, &a);
            let (y, my) = record(caps.1, &b);
            prop_assert_eq!(agree(&x, &mx), Ok(()));
            prop_assert_eq!(agree(&y, &my), Ok(()));
            // The same events at another capacity, less up to `tail` of
            // the last ones: equal exactly when the models are.
            let (z, mz) = record(caps.1, &a[..a.len().saturating_sub(tail)]);
            let models_equal = mx.links() == mz.links() && mx.nodes() == mz.nodes();
            prop_assert_eq!(x == z, models_equal);
            prop_assert_eq!(z == x, models_equal);
            x.merge(&y);
            mx.merge(&my);
            prop_assert_eq!(agree(&x, &mx), Ok(()));
        }
    }

    #[test]
    fn send_and_delivery_counters() {
        let mut s = NetworkStats::default();
        s.record_send(NodeId(0), NodeId(1), 8, 24);
        s.record_send(NodeId(0), NodeId(1), 8, 24);
        s.record_send(NodeId(1), NodeId(0), 4, 0);
        s.record_delivery(NodeId(1), 8, 24);

        let l01 = link(&s, NodeId(0), NodeId(1));
        assert_eq!(l01.messages, 2);
        assert_eq!(l01.data_bytes, 16);
        assert_eq!(l01.control_bytes, 48);
        assert_eq!(l01.data_bytes + l01.control_bytes, 64);

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
        // The control share of all bytes sent: 0 of 0, 10 of 10, 10 of 20.
        let mut s = NetworkStats::default();
        assert_eq!((s.total_control_bytes(), s.total_bytes()), (0, 0));
        s.record_send(NodeId(0), NodeId(1), 0, 10);
        assert_eq!((s.total_control_bytes(), s.total_bytes()), (10, 10));
        s.record_send(NodeId(0), NodeId(1), 10, 0);
        assert_eq!((s.total_control_bytes(), s.total_bytes()), (10, 20));
    }

    #[test]
    fn unknown_links_and_nodes_are_zero() {
        let s = NetworkStats::default();
        assert_eq!(link(&s, NodeId(5), NodeId(6)), LinkStats::default());
        assert_eq!(s.node(NodeId(5)), NodeStats::default());
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = NetworkStats::default();
        a.record_send(NodeId(0), NodeId(1), 1, 2);
        a.record_delivery(NodeId(1), 1, 2);
        let mut b = NetworkStats::default();
        b.record_send(NodeId(0), NodeId(1), 3, 4);
        b.record_send(NodeId(2), NodeId(1), 5, 6);
        a.merge(&b);
        assert_eq!(a.total_messages(), 3);
        assert_eq!(link(&a, NodeId(0), NodeId(1)).data_bytes, 4);
        assert_eq!(link(&a, NodeId(2), NodeId(1)).control_bytes, 6);
        assert_eq!(a.node(NodeId(1)).received_messages, 1);
    }

    #[test]
    fn equality_ignores_reserved_capacity() {
        let mut a = NetworkStats::with_nodes(8);
        let mut b = NetworkStats::default();
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
        assert_eq!(link(&s, NodeId(0), NodeId(5)).messages, 1);
        assert_eq!(s.node(NodeId(7)).received_messages, 1);
        assert_eq!(s.total_messages(), 1);
    }

    #[test]
    fn iterators_cover_recorded_entries() {
        let mut s = NetworkStats::default();
        s.record_send(NodeId(0), NodeId(1), 1, 1);
        s.record_send(NodeId(1), NodeId(2), 1, 1);
        assert_eq!(s.links().count(), 2);
        assert_eq!(s.nodes().count(), 2);
    }
}
