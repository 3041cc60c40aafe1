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
//! converge to the sequencer's order. Reads stay local and wait-free, as in
//! the other protocols, so the recorded histories are PRAM-consistent by
//! construction and converge to the total write order; the *message* cost
//! (a sequencer round trip plus an `n-1`-way broadcast per write) is what
//! the benchmarks compare against.
//!
//! The `delta` wire mode is a deliberate no-op here: ordered writes carry
//! one global sequence number — O(1) metadata — so there is no vector
//! clock for a delta encoding to shrink.

use crate::api::ProtocolKind;
use crate::control::ControlStats;
use crate::protocol::{McsNode, ProtocolSpec, RecoveryLog, RecoveryState};
use histories::{Distribution, ProcId, Value, VarId};
use simnet::{Node, NodeContext, NodeId, WireSize};
use std::collections::BTreeMap;

/// Messages of the sequencer protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SeqMsg {
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
}

impl WireSize for SeqMsg {
    fn data_bytes(&self) -> usize {
        match self {
            SeqMsg::Request { .. } | SeqMsg::Ordered { .. } => 8,
            SeqMsg::CatchupReq { .. } => 0,
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
        }
    }
}

/// A node of the sequencer protocol. Node 0 doubles as the sequencer.
#[derive(Clone, Debug, PartialEq)]
pub struct SequentialNode {
    me: ProcId,
    /// Every other process: the destinations of each ordered broadcast.
    peers: Vec<NodeId>,
    store: BTreeMap<VarId, Value>,
    /// Sequencer state: next sequence number to assign.
    next_seq: u64,
    /// Replica state: next sequence number to apply.
    next_apply: u64,
    /// Ordered writes received out of order, keyed by sequence number.
    pending: BTreeMap<u64, (VarId, i64)>,
    control: ControlStats,
    applied: u64,
    /// Sequencer state: the ordered writes since the last cut (entry `k`
    /// is the write with global sequence number `k`) — the material
    /// catch-up responses are served from.
    log: RecoveryLog<(usize, VarId, i64)>,
}

impl SequentialNode {
    /// Build the node for process `me` in a system of `n` processes.
    pub fn new(me: ProcId, n: usize) -> Self {
        SequentialNode {
            me,
            peers: (0..n).filter(|&i| i != me.index()).map(NodeId).collect(),
            store: BTreeMap::new(),
            next_seq: 1,
            next_apply: 1,
            pending: BTreeMap::new(),
            control: ControlStats::new(),
            applied: 0,
            log: RecoveryLog::new(),
        }
    }

    /// Whether this node is the sequencer.
    pub fn is_sequencer(&self) -> bool {
        self.me.index() == 0
    }

    /// Ordered writes applied so far.
    pub fn applied_count(&self) -> u64 {
        self.applied
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
        ctx.send_multi(self.peers.iter().copied(), ordered);
        // The sequencer applies locally in order as well.
        self.enqueue_ordered(seq, var, value);
    }

    /// Callers guarantee `seq >= next_apply`: the sequencer only passes
    /// fresh sequence numbers, and `on_message` discards stale `Ordered`
    /// duplicates (the idempotence guard) before calling here.
    fn enqueue_ordered(&mut self, seq: u64, var: VarId, value: i64) {
        // In order (the common case on FIFO links): never enters the map.
        let mut next = (seq == self.next_apply).then_some((var, value));
        if next.is_none() {
            self.pending.insert(seq, (var, value));
        }
        while let Some((var, value)) = next {
            self.store.insert(var, Value::Int(value));
            self.applied += 1;
            self.next_apply += 1;
            next = self.pending.remove(&self.next_apply);
        }
    }
}

impl Node<SeqMsg> for SequentialNode {
    fn on_message(&mut self, ctx: &mut NodeContext<SeqMsg>, _from: NodeId, msg: SeqMsg) {
        match msg {
            SeqMsg::Request { writer, var, value } => {
                self.control.charge_received(var, 8);
                self.sequence_and_broadcast(ctx, writer, var, value);
            }
            SeqMsg::Ordered {
                seq, var, value, ..
            } => {
                if seq < self.next_apply {
                    // Duplicate of an applied write: discard uncharged.
                    return;
                }
                self.control.charge_received(var, 16);
                self.enqueue_ordered(seq, var, value);
            }
            SeqMsg::CatchupReq { from, next_apply } => {
                debug_assert!(self.is_sequencer(), "catch-up requests go to the sequencer");
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
        }
    }
}

impl McsNode for SequentialNode {
    type Msg = SeqMsg;

    fn local_read(&self, var: VarId) -> Value {
        self.store.get(&var).copied().unwrap_or(Value::Bottom)
    }

    fn local_write(&mut self, ctx: &mut NodeContext<SeqMsg>, var: VarId, value: i64) {
        // Optimistic local apply for read-your-writes; the authoritative
        // state follows the sequencer order.
        self.store.insert(var, Value::Int(value));
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
            ctx.send(NodeId(0), req);
        }
    }

    fn replicates(&self, _var: VarId) -> bool {
        true
    }

    fn control(&self) -> &ControlStats {
        &self.control
    }

    fn on_restart(&mut self, ctx: &mut NodeContext<SeqMsg>) {
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

    fn checkpoint(&mut self) {
        self.log.cut();
    }

    fn recovery(&self) -> RecoveryState {
        self.log.state()
    }
}

/// Marker type selecting the sequencer baseline protocol.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sequential;

impl ProtocolSpec for Sequential {
    type Msg = SeqMsg;
    type Node = SequentialNode;
    const KIND: ProtocolKind = ProtocolKind::Sequential;

    fn build_nodes(dist: &Distribution, _delivery: simnet::DeliveryMode) -> Vec<SequentialNode> {
        let n = dist.process_count();
        (0..n).map(|i| SequentialNode::new(ProcId(i), n)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut nodes = Sequential::build_nodes(&dist, simnet::DeliveryMode::UNICAST);
        assert!(nodes[0].is_sequencer());
        assert!(!nodes[1].is_sequencer());
        let mut ctx = NodeContext::new(NodeId(0), SimTime::ZERO);
        nodes[0].local_write(&mut ctx, VarId(0), 7);
        // Broadcast to the two other nodes.
        assert_eq!(ctx.queued_messages(), 2);
        assert_eq!(nodes[0].applied_count(), 1);
        assert_eq!(nodes[0].local_read(VarId(0)), Value::Int(7));
    }

    #[test]
    fn non_sequencer_forwards_requests() {
        let dist = Distribution::full(3, 1);
        let mut nodes = Sequential::build_nodes(&dist, simnet::DeliveryMode::UNICAST);
        let mut ctx = NodeContext::new(NodeId(2), SimTime::ZERO);
        nodes[2].local_write(&mut ctx, VarId(0), 5);
        assert_eq!(ctx.queued_messages(), 1);
        // Optimistic local apply.
        assert_eq!(nodes[2].local_read(VarId(0)), Value::Int(5));
        assert_eq!(nodes[2].applied_count(), 0);
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
        assert_eq!(node.applied_count(), 0);
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
        assert_eq!(node.applied_count(), 2);
        // Applied in order 10 then 20, so the final value is 20.
        assert_eq!(node.local_read(VarId(0)), Value::Int(20));
        assert_eq!(Sequential::KIND, ProtocolKind::Sequential);
    }
}
