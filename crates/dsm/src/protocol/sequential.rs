//! Sequencer-based sequential-consistency baseline.
//!
//! The strongest criterion the paper lists below atomicity. This protocol
//! is included purely as a *cost baseline* for the efficiency benchmarks:
//! every write is routed through a sequencer node (node 0), which assigns a
//! global sequence number and broadcasts the ordered write to every node;
//! replicas apply ordered writes strictly in sequence-number order.
//!
//! The writer applies its own write locally right away (read-your-writes)
//! and re-applies it when its ordered echo returns, so all replicas
//! converge to the sequencer's order; until the echo of its last write to
//! `x` is back, ordered writes to `x` leave its newer optimistic value
//! alone. Reads stay local and wait-free, as in the other protocols, so
//! the recorded histories are PRAM-consistent by construction and
//! converge to the total write order; the *message* cost (a sequencer
//! round trip plus an `n-1`-way broadcast per write) is what the
//! benchmarks compare against.
//!
//! The `delta` wire mode is a deliberate no-op here: ordered writes carry
//! one global sequence number — O(1) metadata — so there is no vector
//! clock for a delta encoding to shrink.
//!
//! ## Batching (`DeliveryMode::batching`)
//!
//! A flush window's requests leave as one [`SeqMsg::Batch`] to the
//! sequencer, its ordered writes as one shared batch to every replica.
//! Each member is charged per destination when produced, a batch's
//! [`WireSize`] is its members' sum, and each member is received like a
//! lone message. A restart flushes the batch its crash snapshot held.

use crate::control::ControlStats;
use crate::protocol::{FlushWindow, McsNode, RecoveryLog, RecoveryState, Slot, Store};
use histories::{Distribution, ProcId, Value, VarId};
use simnet::{DeliveryMode, Node, NodeContext, NodeId, WireSize};
use std::collections::BTreeMap;

/// Messages of the sequencer protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum SeqMsg {
    /// A write forwarded to the sequencer for ordering.
    Request {
        /// The originating writer.
        writer: usize,
        /// The written variable.
        var: VarId,
        /// The written value.
        value: i64,
    },
    /// A write that has been assigned its global position.
    Ordered {
        /// Global sequence number.
        seq: u64,
        /// The originating writer.
        writer: usize,
        /// The written variable.
        var: VarId,
        /// The written value.
        value: i64,
    },
    /// A restarted replica's catch-up request: "resend me the ordered
    /// stream from this sequence number on". The sequencer answers from
    /// its persisted log, so the replica converges to the total order it
    /// missed while down.
    CatchupReq {
        /// The restarted process.
        from: usize,
        /// The next sequence number it has not applied.
        next_apply: u64,
    },
    /// A flush window's requests or ordered writes, in order (batching).
    Batch(std::sync::Arc<[SeqMsg]>),
}

impl WireSize for SeqMsg {
    fn data_bytes(&self) -> usize {
        match self {
            SeqMsg::Request { .. } | SeqMsg::Ordered { .. } => 8,
            SeqMsg::CatchupReq { .. } => 0,
            // Summed without recursing, which would keep sizing out of line.
            SeqMsg::Batch(ms) => 8 * ms.len(),
        }
    }
    fn control_bytes(&self) -> usize {
        match self {
            // writer id + variable id
            SeqMsg::Request { .. } => 8,
            // sequence number + writer id + variable id
            SeqMsg::Ordered { .. } => 16,
            // requester id + sequence number
            SeqMsg::CatchupReq { .. } => 16,
            SeqMsg::Batch(ms) => (ms.iter())
                .map(|m| {
                    if matches!(m, SeqMsg::Request { .. }) {
                        8
                    } else {
                        16
                    }
                })
                .sum(),
        }
    }
}

/// A node of the sequencer protocol. Node 0 doubles as the sequencer.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct SequentialNode {
    me: ProcId,
    /// Every other process: the destinations of each ordered broadcast.
    peers: Vec<NodeId>,
    store: Store<Slot>,
    /// Sequencer state: next sequence number to assign.
    next_seq: u64,
    /// Replica state: next sequence number to apply.
    next_apply: u64,
    /// Ordered (writer, variable, value) received out of order, by seq.
    pending: BTreeMap<u64, (usize, VarId, i64)>,
    control: ControlStats,
    /// Sequencer state: the ordered writes since the last cut (entry `k`
    /// is the write with global sequence number `k`) — the material
    /// catch-up responses are served from.
    log: RecoveryLog<(usize, VarId, i64)>,
    /// The flush window and its batch (`None`: messages leave at once).
    window: FlushWindow,
    unsent: Option<Vec<SeqMsg>>,
}

impl SequentialNode {
    /// Build the node for process `me` in a system of `n` processes.
    pub(crate) fn new(me: ProcId, n: usize) -> Self {
        SequentialNode {
            me,
            peers: (0..n).filter(|&i| i != me.index()).map(NodeId).collect(),
            store: Store::default(),
            next_seq: 1,
            next_apply: 1,
            pending: BTreeMap::new(),
            control: ControlStats::new(),
            log: RecoveryLog::new(),
            window: FlushWindow::default(),
            unsent: None,
        }
    }

    /// Whether this node is the sequencer.
    pub(crate) fn is_sequencer(&self) -> bool {
        self.me.index() == 0
    }

    fn sequence_and_broadcast(
        &mut self,
        ctx: &mut NodeContext<SeqMsg>,
        writer: usize,
        var: VarId,
        value: i64,
    ) {
        debug_assert!(self.is_sequencer());
        let seq = self.next_seq;
        self.next_seq += 1;
        self.log.push((writer, var, value));
        let ordered = SeqMsg::Ordered {
            seq,
            writer,
            var,
            value,
        };
        // The ordered write is one identical payload to everyone else —
        // one multi-destination send, so the wire can multicast it along
        // the sequencer's broadcast tree.
        for _ in &self.peers {
            self.control.charge_sent(var, ordered.control_bytes());
        }
        self.emit(ctx, ordered);
        // The sequencer applies locally in order as well.
        self.enqueue_ordered(seq, writer, var, value);
    }

    /// Send `msg` on (sequencer: to all peers; writer: to it), or batch it.
    fn emit(&mut self, ctx: &mut NodeContext<SeqMsg>, msg: SeqMsg) {
        match &mut self.unsent {
            Some(unsent) if !matches!(msg, SeqMsg::Batch(_)) => {
                unsent.push(msg);
                self.window.arm(ctx);
            }
            _ if self.me.index() == 0 => ctx.send_multi(self.peers.iter().copied(), msg),
            _ => ctx.send(NodeId(0), msg),
        }
    }

    /// Sequence a request, or apply a fresh ordered write (charged).
    fn receive(&mut self, ctx: &mut NodeContext<SeqMsg>, msg: &SeqMsg) {
        match *msg {
            SeqMsg::Request { writer, var, value } => {
                self.control.charge_received(var, 8);
                self.sequence_and_broadcast(ctx, writer, var, value);
            }
            SeqMsg::Ordered {
                seq,
                writer,
                var,
                value,
            } if seq >= self.next_apply => {
                self.control.charge_received(var, 16);
                self.enqueue_ordered(seq, writer, var, value);
            }
            _ => {}
        }
    }

    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn flush(&mut self, ctx: &mut NodeContext<SeqMsg>) {
        if let Some(unsent) = self.unsent.as_mut().filter(|u| !u.is_empty()) {
            #[expect(
                clippy::disallowed_methods,
                reason = "the batching flush runs once per window, not once per event, and builds the batch it sends"
            )]
            let batch = SeqMsg::Batch(unsent.drain(..).collect());
            self.emit(ctx, batch);
        }
    }

    /// Callers guarantee `seq >= next_apply`: the sequencer only passes
    /// fresh sequence numbers, and `receive` discards stale `Ordered`
    /// duplicates (the idempotence guard) before calling here.
    fn enqueue_ordered(&mut self, seq: u64, writer: usize, var: VarId, value: i64) {
        // In order (the common case on FIFO links): never enters the map.
        let mut next = (seq == self.next_apply).then_some((writer, var, value));
        if next.is_none() {
            self.pending.insert(seq, (writer, var, value));
        }
        let me = self.me.index();
        while let Some((writer, var, value)) = next {
            let own = writer == me;
            self.store.update(var, |slot| slot.order(value, own));
            self.next_apply += 1;
            next = self.pending.remove(&self.next_apply);
        }
    }
}

#[deny(
    clippy::disallowed_macros,
    clippy::disallowed_methods,
    clippy::indexing_slicing
)]
impl Node<SeqMsg> for SequentialNode {
    fn on_message(&mut self, ctx: &mut NodeContext<SeqMsg>, _from: NodeId, msg: SeqMsg) {
        match msg {
            SeqMsg::Batch(batch) => batch.iter().for_each(|msg| self.receive(ctx, msg)),
            SeqMsg::CatchupReq { from, next_apply } => {
                #[expect(
                    clippy::disallowed_macros,
                    reason = "debug_assert! documents an invariant and compiles out of release builds"
                )]
                {
                    debug_assert!(self.is_sequencer(), "catch-up requests go to the sequencer");
                }
                // Replay the ordered stream the replica missed, from its
                // persisted position on, in order.
                for (seq, &(writer, var, value)) in self.log.after(next_apply.saturating_sub(1)) {
                    let ordered = SeqMsg::Ordered {
                        seq,
                        writer,
                        var,
                        value,
                    };
                    self.control.charge_sent(var, ordered.control_bytes());
                    ctx.send(NodeId(from), ordered);
                }
            }
            msg => self.receive(ctx, &msg),
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeContext<SeqMsg>, tag: u64) {
        if self.window.closes(tag) {
            self.flush(ctx);
        }
    }
}

impl McsNode for SequentialNode {
    type Msg = SeqMsg;

    fn local_read(&self, var: VarId) -> Value {
        Slot::read(self.store.get(var))
    }

    fn local_write(&mut self, ctx: &mut NodeContext<SeqMsg>, var: VarId, value: i64) {
        // Optimistic local apply for read-your-writes; the authoritative
        // state follows the sequencer order (a writer awaits its echo).
        let unordered = self.me.index() != 0;
        self.store.update(var, |slot| slot.write(value, unordered));
        self.control.track(var);
        if self.is_sequencer() {
            self.sequence_and_broadcast(ctx, self.me.index(), var, value);
        } else {
            let req = SeqMsg::Request {
                writer: self.me.index(),
                var,
                value,
            };
            self.control.charge_sent(var, req.control_bytes());
            self.emit(ctx, req);
        }
    }

    fn replicates(&self, _var: VarId) -> bool {
        true
    }

    fn control(&self) -> &ControlStats {
        &self.control
    }

    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn on_restart(&mut self, ctx: &mut NodeContext<SeqMsg>) {
        // The crash killed the flush timer, not the unsent batch.
        self.window = FlushWindow::default();
        self.flush(ctx);
        // A replica asks the sequencer to replay the ordered stream from
        // its persisted position. The sequencer itself restarts silently:
        // its log *is* the authoritative state, and requests lost while it
        // was down are lost writes (the schedules this repo sweeps never
        // crash the sequencer).
        if !self.is_sequencer() {
            // The request is not charged to any variable's control stats
            // (it concerns the stream, not one variable); the network
            // accounting still pays its wire bytes.
            ctx.send(
                NodeId(0),
                SeqMsg::CatchupReq {
                    from: self.me.index(),
                    next_apply: self.next_apply,
                },
            );
        }
    }

    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn checkpoint(&mut self) {
        self.log.cut();
    }

    fn recovery(&self) -> RecoveryState {
        self.log.state()
    }
}

impl SequentialNode {
    /// One node per process of `dist`, in process-id order. Honours
    /// `delivery.batching`: each flush window's requests and ordered
    /// writes go as one envelope.
    pub(crate) fn build_nodes(dist: &Distribution, delivery: DeliveryMode) -> Vec<Self> {
        let n = dist.process_count();
        (0..n)
            .map(|i| SequentialNode {
                unsent: delivery.batching.then(Vec::new),
                ..SequentialNode::new(ProcId(i), n)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::window::FLUSH_TAG;
    use simnet::SimTime;

    #[test]
    fn wire_sizes_differ_by_message_kind() {
        let req = SeqMsg::Request {
            writer: 1,
            var: VarId(0),
            value: 9,
        };
        let ord = SeqMsg::Ordered {
            seq: 4,
            writer: 1,
            var: VarId(0),
            value: 9,
        };
        assert_eq!(req.control_bytes(), 8);
        assert_eq!(ord.control_bytes(), 16);
        assert_eq!(req.data_bytes(), 8);
    }

    #[test]
    fn sequencer_orders_and_broadcasts() {
        let dist = Distribution::full(3, 1);
        let mut nodes = SequentialNode::build_nodes(&dist, simnet::DeliveryMode::UNICAST);
        assert!(nodes[0].is_sequencer());
        assert!(!nodes[1].is_sequencer());
        let mut ctx = NodeContext::new(NodeId(0), SimTime::ZERO);
        nodes[0].local_write(&mut ctx, VarId(0), 7);
        // Broadcast to the two other nodes.
        assert_eq!(ctx.queued_messages(), 2);
        assert_eq!((nodes[0].next_apply - 1), 1);
        assert_eq!(nodes[0].local_read(VarId(0)), Value::Int(7));
    }

    #[test]
    fn non_sequencer_forwards_requests() {
        let dist = Distribution::full(3, 1);
        let mut nodes = SequentialNode::build_nodes(&dist, simnet::DeliveryMode::UNICAST);
        let mut ctx = NodeContext::new(NodeId(2), SimTime::ZERO);
        nodes[2].local_write(&mut ctx, VarId(0), 5);
        assert_eq!(ctx.queued_messages(), 1);
        // Optimistic local apply.
        assert_eq!(nodes[2].local_read(VarId(0)), Value::Int(5));
        assert_eq!((nodes[2].next_apply - 1), 0);
    }

    #[test]
    fn ordered_writes_apply_in_sequence_number_order() {
        let mut node = SequentialNode::new(ProcId(1), 3);
        let mut ctx = NodeContext::new(NodeId(1), SimTime::ZERO);
        node.on_message(
            &mut ctx,
            NodeId(0),
            SeqMsg::Ordered {
                seq: 2,
                writer: 0,
                var: VarId(0),
                value: 20,
            },
        );
        // seq 1 not yet seen: nothing applied.
        assert_eq!((node.next_apply - 1), 0);
        assert_eq!(node.local_read(VarId(0)), Value::Bottom);
        node.on_message(
            &mut ctx,
            NodeId(0),
            SeqMsg::Ordered {
                seq: 1,
                writer: 2,
                var: VarId(0),
                value: 10,
            },
        );
        assert_eq!((node.next_apply - 1), 2);
        // Applied in order 10 then 20, so the final value is 20.
        assert_eq!(node.local_read(VarId(0)), Value::Int(20));
    }

    fn ordered(seq: u64, writer: usize, value: i64) -> SeqMsg {
        SeqMsg::Ordered {
            seq,
            writer,
            var: VarId(0),
            value,
        }
    }

    #[test]
    fn an_older_echo_does_not_hide_a_newer_own_write() {
        let mut node = SequentialNode::new(ProcId(1), 3);
        let mut ctx = NodeContext::new(NodeId(1), SimTime::ZERO);
        node.local_write(&mut ctx, VarId(0), 1);
        node.local_write(&mut ctx, VarId(0), 2);
        // The echo of the first write comes back, then another writer's
        // write ordered between our two: both are older than our second.
        node.on_message(&mut ctx, NodeId(0), ordered(1, 1, 1));
        assert_eq!(node.local_read(VarId(0)), Value::Int(2));
        node.on_message(&mut ctx, NodeId(0), ordered(2, 2, 9));
        assert_eq!(node.local_read(VarId(0)), Value::Int(2));
        // The last own echo is the newest write in the order so far…
        node.on_message(&mut ctx, NodeId(0), ordered(3, 1, 2));
        assert_eq!(node.local_read(VarId(0)), Value::Int(2));
        // …and from then on the order shows through again.
        node.on_message(&mut ctx, NodeId(0), ordered(4, 2, 5));
        assert_eq!(node.local_read(VarId(0)), Value::Int(5));
        assert_eq!((node.next_apply - 1), 4);
    }

    /// The batches among `out`, as (destinations, messages), in send order.
    fn batches(out: &[simnet::Outgoing<SeqMsg>]) -> Vec<(Vec<usize>, Vec<SeqMsg>)> {
        out.iter()
            .filter_map(|o| match o {
                simnet::Outgoing::One(d, SeqMsg::Batch(ms)) => Some((vec![d.index()], ms.to_vec())),
                simnet::Outgoing::Many(ds, SeqMsg::Batch(ms)) => {
                    Some((ds.iter().map(|d| d.index()).collect(), ms.to_vec()))
                }
                _ => None,
            })
            .collect()
    }

    fn request(writer: usize, value: i64) -> SeqMsg {
        SeqMsg::Request {
            writer,
            var: VarId(0),
            value,
        }
    }

    #[test]
    fn a_window_of_writes_leaves_as_one_batch_charged_like_single_messages() {
        let dist = Distribution::full(4, 1);
        for writer in [0, 2] {
            let mut nodes = SequentialNode::build_nodes(&dist, simnet::DeliveryMode::BATCHED);
            let mut unbatched = SequentialNode::build_nodes(&dist, simnet::DeliveryMode::UNICAST);
            let mut ctx = NodeContext::new(NodeId(writer), SimTime::ZERO);
            let mut unbatched_ctx = NodeContext::new(NodeId(writer), SimTime::ZERO);
            for v in 1..=3 {
                nodes[writer].local_write(&mut ctx, VarId(0), v);
                unbatched[writer].local_write(&mut unbatched_ctx, VarId(0), v);
            }
            assert_eq!(ctx.queued_messages(), 0);
            assert_eq!(unbatched_ctx.outgoing().len(), 3);
            let mut flush_ctx = NodeContext::new(NodeId(writer), SimTime::ZERO);
            nodes[writer].on_timer(&mut flush_ctx, FLUSH_TAG);
            // The sequencer multicasts its ordered writes to every replica,
            // a writer sends its requests to the sequencer.
            let expected = if writer == 0 {
                (
                    vec![1, 2, 3],
                    (1..=3).map(|v| ordered(v as u64, 0, v)).collect(),
                )
            } else {
                (vec![0], (1..=3).map(|v| request(2, v)).collect())
            };
            assert_eq!(batches(flush_ctx.outgoing()), vec![expected]);
            assert_eq!(flush_ctx.outgoing().len(), 1);
            assert_eq!(nodes[writer].control(), unbatched[writer].control());
            let wire = |out: &[simnet::Outgoing<SeqMsg>]| -> usize {
                out.iter()
                    .map(|o| match o {
                        simnet::Outgoing::One(_, m) => m.total_bytes(),
                        simnet::Outgoing::Many(ds, m) => ds.len() * m.total_bytes(),
                    })
                    .sum()
            };
            assert_eq!(wire(flush_ctx.outgoing()), wire(unbatched_ctx.outgoing()));
        }
    }

    #[test]
    fn a_request_batch_is_sequenced_consecutively_into_one_ordered_batch() {
        let dist = Distribution::full(3, 1);
        let mut nodes = SequentialNode::build_nodes(&dist, simnet::DeliveryMode::MULTICAST_BATCHED);
        let mut ctx = NodeContext::new(NodeId(0), SimTime::ZERO);
        // One request of p1 is already sequenced when p2's batch arrives.
        nodes[0].on_message(&mut ctx, NodeId(1), request(1, 10));
        let batch = SeqMsg::Batch((1..=3).map(|v| request(2, v)).collect());
        nodes[0].on_message(&mut ctx, NodeId(2), batch);
        assert_eq!(ctx.queued_messages(), 0);
        assert_eq!((nodes[0].next_apply - 1), 4);
        assert_eq!(nodes[0].local_read(VarId(0)), Value::Int(3));
        let mut flush_ctx = NodeContext::new(NodeId(0), SimTime::ZERO);
        nodes[0].on_timer(&mut flush_ctx, FLUSH_TAG);
        let mut sequenced = vec![ordered(1, 1, 10)];
        sequenced.extend((1..=3).map(|v| ordered(v as u64 + 1, 2, v)));
        assert_eq!(batches(flush_ctx.outgoing()), vec![(vec![1, 2], sequenced)]);
        // Each request was charged as received, each ordered write as sent
        // to both peers.
        let control = nodes[0].control();
        assert_eq!(control.received_entries(VarId(0)), 4);
        assert_eq!(control.sent_entries(VarId(0)), 2 * 4);
    }

    #[test]
    fn a_duplicated_ordered_batch_is_idempotent() {
        let mut node =
            SequentialNode::build_nodes(&Distribution::full(3, 1), DeliveryMode::BATCHED).remove(2);
        let mut ctx = NodeContext::new(NodeId(2), SimTime::ZERO);
        let batch = SeqMsg::Batch((1..=3).map(|v| ordered(v, 1, v as i64)).collect());
        node.on_message(&mut ctx, NodeId(0), batch.clone());
        assert_eq!((node.next_apply - 1), 3);
        assert_eq!(node.local_read(VarId(0)), Value::Int(3));
        let settled = node.clone();
        node.on_message(&mut ctx, NodeId(0), batch);
        assert_eq!(node, settled);
        assert_eq!(ctx.queued_messages(), 0);
    }

    #[test]
    fn a_restart_flushes_the_window_its_snapshot_held() {
        let dist = Distribution::full(3, 1);
        let mut nodes = SequentialNode::build_nodes(&dist, simnet::DeliveryMode::BATCHED);
        let mut ctx = NodeContext::new(NodeId(2), SimTime::ZERO);
        nodes[2].local_write(&mut ctx, VarId(0), 7);
        nodes[2].local_write(&mut ctx, VarId(0), 8);
        // The crash snapshot holds the open window; its timer died.
        let mut restored = nodes[2].clone();
        let mut restart_ctx = NodeContext::new(NodeId(2), SimTime::ZERO);
        restored.on_restart(&mut restart_ctx);
        assert_eq!(
            batches(restart_ctx.outgoing()),
            vec![(vec![0], vec![request(2, 7), request(2, 8)])]
        );
        assert!(matches!(
            restart_ctx.outgoing(),
            [
                simnet::Outgoing::One(NodeId(0), SeqMsg::Batch(_)),
                simnet::Outgoing::One(NodeId(0), SeqMsg::CatchupReq { from: 2, .. })
            ]
        ));
    }
}
