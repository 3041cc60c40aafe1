//! Shared-operation-log protocol with per-shard flat combining.
//!
//! The modern production answer to the paper's partial-replication
//! question, in the node-replication style: every variable belongs to a
//! *shard* whose sequencer is the smallest-id replica of the variable
//! (the shard **owner**), writers *append* batched operations to the
//! owner's shared log, and replicas *replay* the log — but a partial
//! replica only ever subscribes to the log prefix touching the variables
//! it holds, so (as in the PRAM protocol Theorem 2 licenses) no metadata
//! about `x` leaves the replicas of `x`.
//!
//! The append side is a **flat-combining** sequencer: a writer keeps at
//! most one [`OpLogMsg::Append`] in flight per owner, and writes issued
//! while one is outstanding are buffered and flushed as one combined
//! append when the owner's [`OpLogMsg::Committed`] echo returns. The
//! owner assigns the batch consecutive shard sequence numbers in a single
//! delivery — the message-passing image of a combiner thread draining a
//! publication list in one lock acquisition.
//!
//! Propagation is writer-ordered: the *writer* (not the owner) fans each
//! sequenced write out to the other replicas as an [`OpLogMsg::Entry`],
//! strictly in its own program order (an echo for write `k` releases the
//! broadcast of `k` only once writes `1..k` are sequenced too). Every
//! observer therefore sees each writer's updates through one FIFO link in
//! program order — PRAM holds under *any* latency model — and replicas
//! resolve per-variable races by shard sequence number (highest wins), so
//! all replicas of `x` converge to the same log-ordered value and
//! settle-synchronized histories are sequentially consistent.
//!
//! Crash recovery: a restarted writer re-appends every write whose echo
//! it never saw (a re-sequenced duplicate converges — same value, higher
//! sequence number), and asks each shard owner for the per-variable
//! winners it missed via [`OpLogMsg::CatchupReq`] watermarks.
//!
//! The `delta` and `batching` wire modes are deliberate no-ops here:
//! every message carries O(1) sequence-number metadata (nothing for a
//! delta encoding to shrink), and the flat-combining lane *is* the
//! protocol's structural batching.

use crate::api::ProtocolKind;
use crate::control::ControlStats;
use crate::protocol::{replica_table, McsNode, ProtocolSpec, RecoveryState};
use histories::{Distribution, ProcId, Value, VarId};
use simnet::{Node, NodeContext, NodeId, WireSize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Control bytes of an append's first operation (shard id + batch length
/// + variable id).
const APPEND_HEAD_BYTES: usize = 8;
/// Control bytes of each combined operation after the first (variable id
/// only — its sequence number is implied by its batch position).
const APPEND_OP_BYTES: usize = 4;
/// Control bytes of a [`OpLogMsg::Committed`] echo (base sequence number
/// + batch length).
const COMMITTED_BYTES: usize = 16;
/// Control bytes of an [`OpLogMsg::Entry`] (sequence number + writer id
/// + variable id), matching the sequencer baseline's `Ordered` record.
const ENTRY_BYTES: usize = 16;
/// Control bytes of a catch-up request (requester id) plus per-variable
/// watermark cost (variable id + sequence number).
const CATCHUP_BASE_BYTES: usize = 8;
const CATCHUP_PER_VAR_BYTES: usize = 12;

/// Messages of the shared-operation-log protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpLogMsg {
    /// A writer's batched append to a shard owner: one or more writes,
    /// in the writer's program order, to variables of the owner's shard.
    Append {
        /// The appended operations, in program order.
        ops: Vec<(VarId, i64)>,
    },
    /// The owner's echo: the batch of the writer's (single) in-flight
    /// append was assigned `count` consecutive shard sequence numbers
    /// starting at `base_seq`.
    Committed {
        /// First shard sequence number of the batch.
        base_seq: u64,
        /// How many operations the batch sequenced.
        count: u64,
    },
    /// One sequenced write, fanned out by its writer (in program order)
    /// to the other replicas of the variable; also the owner's resend
    /// unit for catch-up responses.
    Entry {
        /// Shard sequence number assigned by the owner.
        seq: u64,
        /// The originating writer.
        writer: usize,
        /// The written variable.
        var: VarId,
        /// The written value.
        value: i64,
    },
    /// A restarted replica's catch-up request to one shard owner: "for
    /// each of these variables, resend the winning entry if its sequence
    /// number is beyond my watermark".
    CatchupReq {
        /// The restarted process.
        from: usize,
        /// Per-variable: the highest shard sequence number already applied.
        watermarks: Vec<(VarId, u64)>,
    },
}

impl WireSize for OpLogMsg {
    fn data_bytes(&self) -> usize {
        match self {
            OpLogMsg::Append { ops } => 8 * ops.len(),
            OpLogMsg::Entry { .. } => 8,
            OpLogMsg::Committed { .. } | OpLogMsg::CatchupReq { .. } => 0,
        }
    }
    fn control_bytes(&self) -> usize {
        match self {
            // Head operation pays the full header; combined tails pay the
            // variable id only — their seqs are implied by batch position.
            OpLogMsg::Append { ops } => {
                APPEND_HEAD_BYTES + APPEND_OP_BYTES * ops.len().saturating_sub(1)
            }
            OpLogMsg::Committed { .. } => COMMITTED_BYTES,
            OpLogMsg::Entry { .. } => ENTRY_BYTES,
            OpLogMsg::CatchupReq { watermarks, .. } => {
                CATCHUP_BASE_BYTES + CATCHUP_PER_VAR_BYTES * watermarks.len()
            }
        }
    }
}

/// One write awaiting its shard sequence number and program-order
/// broadcast slot.
#[derive(Clone, Debug, PartialEq)]
struct PendingWrite {
    /// The writer's own program-order counter value for this write.
    wseq: u64,
    var: VarId,
    value: i64,
    /// The shard sequence number, once the owner's echo assigned it.
    seq: Option<u64>,
}

/// The flat-combining lane towards one shard owner: at most one append
/// in flight; writes issued meanwhile wait in `buffered` and flush as a
/// single combined append when the echo returns.
#[derive(Clone, Debug, Default, PartialEq)]
struct Lane {
    /// Program-order counters of the ops in the in-flight append.
    in_flight: Vec<u64>,
    /// Program-order counters of ops waiting for the lane to free up.
    buffered: Vec<u64>,
}

/// A node of the shared-operation-log protocol. Every node is a writer
/// and replica for the variables it holds, and doubles as the shard
/// owner (log sequencer) for the variables whose smallest-id replica it
/// is.
#[derive(Clone, Debug, PartialEq)]
pub struct OpLogNode {
    me: ProcId,
    dist: Distribution,
    /// `replicas[x]`: the processes replicating `x`, in id order — the
    /// first owns `x`'s shard (shared).
    replicas: Arc<[Vec<NodeId>]>,
    /// The visible replica (wait-free reads; own writes apply
    /// optimistically and are reconciled against the log order).
    store: BTreeMap<VarId, Value>,
    /// Per-variable log winner applied so far: (shard seq, value).
    committed: BTreeMap<VarId, (u64, i64)>,
    control: ControlStats,
    /// Writer state: own program-order write counter.
    wseq: u64,
    /// Writer state: writes awaiting sequencing/broadcast, program order.
    outstanding: VecDeque<PendingWrite>,
    /// Writer state: one flat-combining lane per shard owner.
    lanes: BTreeMap<usize, Lane>,
    /// Owner state: last shard sequence number assigned.
    next_seq: u64,
    /// Owner state: per owned variable, the last entry sequenced since the
    /// last cut, as (shard seq, writer, value). Catch-up is served from it:
    /// replicas apply highest-seq-wins, so no older entry is ever resent.
    winners: BTreeMap<VarId, (u64, usize, i64)>,
    /// Cuts of `winners` taken so far.
    cuts: u64,
    /// Log entries applied to the visible store so far.
    applied: u64,
}

impl OpLogNode {
    /// Build the node for process `me` under `dist`.
    pub fn new(me: ProcId, dist: Distribution) -> Self {
        let replicas = replica_table(&dist);
        Self::with_replicas(me, dist, replicas)
    }

    fn with_replicas(me: ProcId, dist: Distribution, replicas: Arc<[Vec<NodeId>]>) -> Self {
        OpLogNode {
            me,
            dist,
            replicas,
            store: BTreeMap::new(),
            committed: BTreeMap::new(),
            control: ControlStats::new(),
            wseq: 0,
            outstanding: VecDeque::new(),
            lanes: BTreeMap::new(),
            next_seq: 0,
            winners: BTreeMap::new(),
            cuts: 0,
            applied: 0,
        }
    }

    /// The shard owner (log sequencer) of `var`: its smallest-id replica.
    pub fn owner_of(&self, var: VarId) -> usize {
        (self.replicas.get(var.index()))
            .and_then(|r| r.first())
            .map_or(self.me.index(), |p| p.index())
    }

    /// Whether this node sequences the shard `var` belongs to.
    pub fn is_owner_of(&self, var: VarId) -> bool {
        self.owner_of(var) == self.me.index()
    }

    /// Log entries applied to the visible store so far.
    pub fn applied_count(&self) -> u64 {
        self.applied
    }

    /// Writes still awaiting their sequencing echo or broadcast slot.
    pub fn pending_writes(&self) -> usize {
        self.outstanding.len()
    }

    /// Owner role: assign `ops` consecutive shard sequence numbers and
    /// record each as its variable's winner. Returns the batch's base
    /// sequence number.
    fn sequence_batch(&mut self, writer: usize, ops: &[(VarId, i64)]) -> u64 {
        let base = self.next_seq + 1;
        for &(var, value) in ops {
            self.next_seq += 1;
            self.winners.insert(var, (self.next_seq, writer, value));
        }
        base
    }

    /// Apply a sequenced write to the visible store, per-variable highest
    /// sequence number wins. A write that lost its race restores the
    /// winner (this reconciles the writer's optimistic local apply).
    fn commit(&mut self, seq: u64, var: VarId, value: i64) {
        let cur = self.committed.get(&var).map(|&(s, _)| s).unwrap_or(0);
        if seq > cur {
            self.committed.insert(var, (seq, value));
            self.store.insert(var, Value::Int(value));
            self.applied += 1;
        } else if let Some(&(_, winner)) = self.committed.get(&var) {
            self.store.insert(var, Value::Int(winner));
        }
    }

    /// If `owner`'s lane is idle and has buffered writes, flush them as
    /// one combined append.
    fn flush_lane(&mut self, ctx: &mut NodeContext<OpLogMsg>, owner: usize) {
        let wseqs = match self.lanes.get_mut(&owner) {
            Some(lane) if lane.in_flight.is_empty() && !lane.buffered.is_empty() => {
                std::mem::take(&mut lane.buffered)
            }
            _ => return,
        };
        let mut ops: Vec<(VarId, i64)> = Vec::with_capacity(wseqs.len());
        for ws in &wseqs {
            if let Some(p) = self.outstanding.iter().find(|p| p.wseq == *ws) {
                ops.push((p.var, p.value));
            }
        }
        if ops.is_empty() {
            return;
        }
        for (i, &(var, _)) in ops.iter().enumerate() {
            let bytes = if i == 0 {
                APPEND_HEAD_BYTES
            } else {
                APPEND_OP_BYTES
            };
            self.control.charge_sent(var, bytes);
        }
        if let Some(lane) = self.lanes.get_mut(&owner) {
            lane.in_flight = wseqs;
        }
        ctx.send(NodeId(owner), OpLogMsg::Append { ops });
    }

    /// Broadcast the sequenced prefix of the outstanding queue, strictly
    /// in program order: an entry is released only once every earlier
    /// write holds its shard sequence number too. This writer-side
    /// fan-out is what keeps every observer's view of this writer FIFO
    /// under any latency model.
    fn broadcast_ready(&mut self, ctx: &mut NodeContext<OpLogMsg>) {
        loop {
            let ready = matches!(self.outstanding.front(), Some(p) if p.seq.is_some());
            if !ready {
                return;
            }
            let Some(p) = self.outstanding.pop_front() else {
                return;
            };
            let Some(seq) = p.seq else {
                continue;
            };
            self.commit(seq, p.var, p.value);
            let me = NodeId(self.me.index());
            let replicas: &[NodeId] = (self.replicas.get(p.var.index())).map_or(&[], Vec::as_slice);
            let targets = replicas.iter().copied().filter(|&t| t != me);
            for _ in targets.clone() {
                self.control.charge_sent(p.var, ENTRY_BYTES);
            }
            // One identical payload to every other replica — one
            // multi-destination send, multicast-friendly.
            ctx.send_multi(
                targets,
                OpLogMsg::Entry {
                    seq,
                    writer: self.me.index(),
                    var: p.var,
                    value: p.value,
                },
            );
        }
    }
}

impl Node<OpLogMsg> for OpLogNode {
    fn on_message(&mut self, ctx: &mut NodeContext<OpLogMsg>, from: NodeId, msg: OpLogMsg) {
        match msg {
            OpLogMsg::Append { ops } => {
                debug_assert!(
                    ops.iter().all(|&(var, _)| self.is_owner_of(var)),
                    "appends target the shard owner"
                );
                for (i, &(var, _)) in ops.iter().enumerate() {
                    let bytes = if i == 0 {
                        APPEND_HEAD_BYTES
                    } else {
                        APPEND_OP_BYTES
                    };
                    self.control.charge_received(var, bytes);
                }
                let base = self.sequence_batch(from.index(), &ops);
                // The echo's accounting rides on the batch's head
                // variable (an echo concerns the whole batch).
                if let Some(&(var, _)) = ops.first() {
                    self.control.charge_sent(var, COMMITTED_BYTES);
                }
                ctx.send(
                    from,
                    OpLogMsg::Committed {
                        base_seq: base,
                        count: ops.len() as u64,
                    },
                );
            }
            OpLogMsg::Committed { base_seq, count } => {
                let owner = from.index();
                let wseqs = match self.lanes.get_mut(&owner) {
                    Some(lane) => std::mem::take(&mut lane.in_flight),
                    None => Vec::new(),
                };
                debug_assert_eq!(wseqs.len() as u64, count, "echo covers the in-flight batch");
                let mut head_var = None;
                for (i, ws) in wseqs.iter().enumerate() {
                    if let Some(p) = self.outstanding.iter_mut().find(|p| p.wseq == *ws) {
                        p.seq = Some(base_seq + i as u64);
                        if head_var.is_none() {
                            head_var = Some(p.var);
                        }
                    }
                }
                if let Some(var) = head_var {
                    self.control.charge_received(var, COMMITTED_BYTES);
                }
                self.flush_lane(ctx, owner);
                self.broadcast_ready(ctx);
            }
            OpLogMsg::Entry {
                seq,
                writer: _,
                var,
                value,
            } => {
                // The bytes crossed the wire whether or not the entry
                // still wins, and which entries arrive overtaken depends
                // on relay timing — charging unconditionally keeps the
                // receive-side accounting a pure function of the message
                // count, identical on every topology.
                self.control.charge_received(var, ENTRY_BYTES);
                let cur = self.committed.get(&var).map(|&(s, _)| s).unwrap_or(0);
                if seq <= cur {
                    // Stale resend of an overtaken entry: value discarded.
                    return;
                }
                self.commit(seq, var, value);
            }
            OpLogMsg::CatchupReq { from, watermarks } => {
                // Resend, per requested variable, the winning log entry
                // beyond the requester's watermark. The winners suffice:
                // replicas apply per-variable highest-seq-wins, so
                // overtaken entries would be discarded on arrival anyway.
                for (var, mark) in watermarks {
                    let winner = self.winners.get(&var).filter(|w| w.0 > mark);
                    let Some(&(seq, writer, value)) = winner else {
                        continue;
                    };
                    self.control.charge_sent(var, ENTRY_BYTES);
                    ctx.send(
                        NodeId(from),
                        OpLogMsg::Entry {
                            seq,
                            writer,
                            var,
                            value,
                        },
                    );
                }
            }
        }
    }
}

impl McsNode for OpLogNode {
    type Msg = OpLogMsg;

    fn local_read(&self, var: VarId) -> Value {
        self.store.get(&var).copied().unwrap_or(Value::Bottom)
    }

    fn local_write(&mut self, ctx: &mut NodeContext<OpLogMsg>, var: VarId, value: i64) {
        // Optimistic local apply for read-your-writes; the log order is
        // authoritative and reconciles on commit.
        self.store.insert(var, Value::Int(value));
        self.control.track(var);
        self.wseq += 1;
        let owner = self.owner_of(var);
        let mut pending = PendingWrite {
            wseq: self.wseq,
            var,
            value,
            seq: None,
        };
        if owner == self.me.index() {
            // We sequence this shard ourselves: assign the number now;
            // the broadcast still waits for its program-order slot.
            pending.seq = Some(self.sequence_batch(self.me.index(), &[(var, value)]));
            self.outstanding.push_back(pending);
        } else {
            self.outstanding.push_back(pending);
            let lane = self.lanes.entry(owner).or_default();
            lane.buffered.push(self.wseq);
            self.flush_lane(ctx, owner);
        }
        self.broadcast_ready(ctx);
    }

    fn replicates(&self, var: VarId) -> bool {
        self.dist.replicates(self.me, var)
    }

    fn control(&self) -> &ControlStats {
        &self.control
    }

    fn on_restart(&mut self, ctx: &mut NodeContext<OpLogMsg>) {
        // Re-append every write whose echo we never saw: the append or
        // its echo may have died with us. A re-sequenced duplicate
        // converges (same value, higher shard sequence number), and
        // becomes the variable's winner at the owner.
        self.lanes.clear();
        let mut unechoed: Vec<(usize, u64)> = Vec::new();
        for p in &self.outstanding {
            if p.seq.is_none() {
                unechoed.push((self.owner_of(p.var), p.wseq));
            }
        }
        for (owner, ws) in unechoed {
            debug_assert!(
                owner != self.me.index(),
                "self-owned writes are sequenced at write time"
            );
            let lane = self.lanes.entry(owner).or_default();
            lane.buffered.push(ws);
        }
        let owners: Vec<usize> = self.lanes.keys().copied().collect();
        for owner in owners {
            self.flush_lane(ctx, owner);
        }
        // Ask each shard owner for the per-variable winners we missed
        // while down. Like the sequencer baseline, the request is not
        // charged to any one variable's control stats (it concerns the
        // shard stream); the network still pays its wire bytes.
        let mut marks: Vec<(usize, VarId, u64)> = Vec::new();
        for &var in self.dist.vars_of(self.me) {
            let owner = self.owner_of(var);
            if owner == self.me.index() {
                continue;
            }
            let mark = self.committed.get(&var).map(|&(s, _)| s).unwrap_or(0);
            marks.push((owner, var, mark));
        }
        // One request per owner, owners in id order; the sort is stable,
        // so each owner's variables stay in id order.
        marks.sort_by_key(|&(owner, ..)| owner);
        for shard in marks.chunk_by(|a, b| a.0 == b.0) {
            let Some(&(owner, ..)) = shard.first() else {
                continue;
            };
            ctx.send(
                NodeId(owner),
                OpLogMsg::CatchupReq {
                    from: self.me.index(),
                    watermarks: shard.iter().map(|&(_, var, mark)| (var, mark)).collect(),
                },
            );
        }
        self.broadcast_ready(ctx);
    }

    fn checkpoint(&mut self) {
        self.winners.clear();
        self.cuts += 1;
    }

    fn recovery(&self) -> RecoveryState {
        RecoveryState {
            retained: self.winners.len(),
            cuts: self.cuts,
        }
    }
}

/// Marker type selecting the shared-operation-log protocol.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpLog;

impl ProtocolSpec for OpLog {
    type Msg = OpLogMsg;
    type Node = OpLogNode;
    const KIND: ProtocolKind = ProtocolKind::OpLog;

    fn build_nodes(dist: &Distribution, _delivery: simnet::DeliveryMode) -> Vec<OpLogNode> {
        let replicas = replica_table(dist);
        (0..dist.process_count())
            .map(|i| OpLogNode::with_replicas(ProcId(i), dist.clone(), Arc::clone(&replicas)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimTime;

    fn two_shard_dist() -> Distribution {
        // x0: replicas {0, 1} (owner 0); x1: replicas {1, 2} (owner 1).
        let mut d = Distribution::new(3, 2);
        d.assign(ProcId(0), VarId(0));
        d.assign(ProcId(1), VarId(0));
        d.assign(ProcId(1), VarId(1));
        d.assign(ProcId(2), VarId(1));
        d
    }

    #[test]
    fn wire_sizes_by_message_kind() {
        let one = OpLogMsg::Append {
            ops: vec![(VarId(0), 1)],
        };
        let three = OpLogMsg::Append {
            ops: vec![(VarId(0), 1), (VarId(0), 2), (VarId(1), 3)],
        };
        assert_eq!(one.control_bytes(), 8);
        assert_eq!(one.data_bytes(), 8);
        // Combined tail ops pay 4 control bytes each, not another header.
        assert_eq!(three.control_bytes(), 8 + 4 + 4);
        assert_eq!(three.data_bytes(), 24);
        assert_eq!(
            OpLogMsg::Committed {
                base_seq: 4,
                count: 3
            }
            .control_bytes(),
            16
        );
        let entry = OpLogMsg::Entry {
            seq: 9,
            writer: 1,
            var: VarId(0),
            value: 7,
        };
        assert_eq!(entry.control_bytes(), 16);
        assert_eq!(entry.data_bytes(), 8);
        let req = OpLogMsg::CatchupReq {
            from: 2,
            watermarks: vec![(VarId(0), 3), (VarId(1), 0)],
        };
        assert_eq!(req.control_bytes(), 8 + 12 * 2);
        assert_eq!(req.data_bytes(), 0);
    }

    #[test]
    fn owner_is_smallest_id_replica() {
        let nodes = OpLog::build_nodes(&two_shard_dist(), simnet::DeliveryMode::UNICAST);
        assert_eq!(nodes[0].owner_of(VarId(0)), 0);
        assert_eq!(nodes[0].owner_of(VarId(1)), 1);
        assert!(nodes[0].is_owner_of(VarId(0)));
        assert!(nodes[1].is_owner_of(VarId(1)));
        assert!(!nodes[1].is_owner_of(VarId(0)));
        assert_eq!(OpLog::KIND, ProtocolKind::OpLog);
    }

    #[test]
    fn owner_write_self_sequences_and_broadcasts() {
        let mut nodes = OpLog::build_nodes(&two_shard_dist(), simnet::DeliveryMode::UNICAST);
        let mut ctx = NodeContext::new(NodeId(0), SimTime::ZERO);
        nodes[0].local_write(&mut ctx, VarId(0), 7);
        // Owner of x0: no append round trip, one Entry to replica 1.
        assert_eq!(ctx.queued_messages(), 1);
        assert_eq!(nodes[0].local_read(VarId(0)), Value::Int(7));
        assert_eq!(nodes[0].recovery().retained, 1);
        assert_eq!(nodes[0].pending_writes(), 0);
        assert_eq!(nodes[0].applied_count(), 1);
    }

    #[test]
    fn non_owner_write_appends_and_combines_while_in_flight() {
        let mut nodes = OpLog::build_nodes(&two_shard_dist(), simnet::DeliveryMode::UNICAST);
        let mut ctx = NodeContext::new(NodeId(2), SimTime::ZERO);
        // First write to x1 opens the lane to owner 1.
        nodes[2].local_write(&mut ctx, VarId(1), 5);
        assert_eq!(ctx.queued_messages(), 1);
        // Two more writes while the append is in flight: buffered, no
        // further wire traffic (flat combining).
        nodes[2].local_write(&mut ctx, VarId(1), 6);
        nodes[2].local_write(&mut ctx, VarId(1), 7);
        assert_eq!(ctx.queued_messages(), 1);
        assert_eq!(nodes[2].pending_writes(), 3);
        // Read-your-writes.
        assert_eq!(nodes[2].local_read(VarId(1)), Value::Int(7));
        // The echo releases the head write's broadcast and flushes the
        // two buffered ops as ONE combined append.
        let mut ctx2 = NodeContext::new(NodeId(2), SimTime::ZERO);
        nodes[2].on_message(
            &mut ctx2,
            NodeId(1),
            OpLogMsg::Committed {
                base_seq: 1,
                count: 1,
            },
        );
        // x1's replicas are {1, 2}; writer 2 broadcasts to {1} only, and
        // the combined append also goes to 1: two sends, one of which is
        // the combined Append{len 2}.
        assert_eq!(ctx2.queued_messages(), 2);
        assert_eq!(nodes[2].pending_writes(), 2);
    }

    #[test]
    fn entries_apply_highest_sequence_wins() {
        let mut nodes = OpLog::build_nodes(&two_shard_dist(), simnet::DeliveryMode::UNICAST);
        let mut ctx = NodeContext::new(NodeId(1), SimTime::ZERO);
        nodes[1].on_message(
            &mut ctx,
            NodeId(0),
            OpLogMsg::Entry {
                seq: 3,
                writer: 0,
                var: VarId(0),
                value: 30,
            },
        );
        assert_eq!(nodes[1].local_read(VarId(0)), Value::Int(30));
        // An overtaken entry arrives late: discarded, store unchanged.
        nodes[1].on_message(
            &mut ctx,
            NodeId(0),
            OpLogMsg::Entry {
                seq: 2,
                writer: 0,
                var: VarId(0),
                value: 20,
            },
        );
        assert_eq!(nodes[1].local_read(VarId(0)), Value::Int(30));
        assert_eq!(nodes[1].applied_count(), 1);
    }

    #[test]
    fn losing_optimistic_write_restores_the_log_winner() {
        let mut nodes = OpLog::build_nodes(&two_shard_dist(), simnet::DeliveryMode::UNICAST);
        let mut ctx = NodeContext::new(NodeId(2), SimTime::ZERO);
        // Writer 2's optimistic write to x1 is visible locally…
        nodes[2].local_write(&mut ctx, VarId(1), 5);
        assert_eq!(nodes[2].local_read(VarId(1)), Value::Int(5));
        // …but a competing write wins the shard race with seq 2…
        nodes[2].on_message(
            &mut ctx,
            NodeId(1),
            OpLogMsg::Entry {
                seq: 2,
                writer: 1,
                var: VarId(1),
                value: 9,
            },
        );
        // …so when our own write comes back sequenced EARLIER (seq 1),
        // the store restores the log winner instead of our loser.
        nodes[2].on_message(
            &mut ctx,
            NodeId(1),
            OpLogMsg::Committed {
                base_seq: 1,
                count: 1,
            },
        );
        assert_eq!(nodes[2].local_read(VarId(1)), Value::Int(9));
        assert_eq!(nodes[2].pending_writes(), 0);
    }

    #[test]
    fn owner_sequences_appends_and_echoes() {
        let mut nodes = OpLog::build_nodes(&two_shard_dist(), simnet::DeliveryMode::UNICAST);
        let mut ctx = NodeContext::new(NodeId(1), SimTime::ZERO);
        nodes[1].on_message(
            &mut ctx,
            NodeId(2),
            OpLogMsg::Append {
                ops: vec![(VarId(1), 5), (VarId(1), 6)],
            },
        );
        // Two entries sequenced for x1: the winners table keeps the last.
        assert_eq!(nodes[1].recovery().retained, 1);
        assert_eq!(nodes[1].winners.get(&VarId(1)), Some(&(2, 2, 6)));
        // The owner echoes but does NOT apply at sequencing time: it
        // applies via the writer's program-ordered Entry like everyone
        // else, so its view of the writer stays FIFO.
        assert_eq!(nodes[1].local_read(VarId(1)), Value::Bottom);
        assert_eq!(ctx.queued_messages(), 1);
    }

    #[test]
    fn catchup_resends_only_winners_beyond_watermark() {
        let mut nodes = OpLog::build_nodes(&two_shard_dist(), simnet::DeliveryMode::UNICAST);
        let mut ctx = NodeContext::new(NodeId(1), SimTime::ZERO);
        // Owner 1 sequences three writes to x1.
        nodes[1].on_message(
            &mut ctx,
            NodeId(2),
            OpLogMsg::Append {
                ops: vec![(VarId(1), 5), (VarId(1), 6), (VarId(1), 7)],
            },
        );
        // A restarted replica at watermark 3 needs nothing…
        let mut ctx2 = NodeContext::new(NodeId(1), SimTime::ZERO);
        nodes[1].on_message(
            &mut ctx2,
            NodeId(2),
            OpLogMsg::CatchupReq {
                from: 2,
                watermarks: vec![(VarId(1), 3)],
            },
        );
        assert_eq!(ctx2.queued_messages(), 0);
        // …and one at watermark 0 gets exactly the winning entry.
        nodes[1].on_message(
            &mut ctx2,
            NodeId(2),
            OpLogMsg::CatchupReq {
                from: 2,
                watermarks: vec![(VarId(1), 0)],
            },
        );
        assert_eq!(ctx2.queued_messages(), 1);
    }

    #[test]
    fn restart_reappends_unechoed_writes_and_requests_catchup() {
        let mut nodes = OpLog::build_nodes(&two_shard_dist(), simnet::DeliveryMode::UNICAST);
        let mut ctx = NodeContext::new(NodeId(2), SimTime::ZERO);
        nodes[2].local_write(&mut ctx, VarId(1), 5);
        assert_eq!(nodes[2].pending_writes(), 1);
        // Crash loses the append; restart re-sends it and asks owner 1
        // for x1's winner: one combined Append + one CatchupReq.
        let mut ctx2 = NodeContext::new(NodeId(2), SimTime::ZERO);
        nodes[2].on_restart(&mut ctx2);
        assert_eq!(ctx2.queued_messages(), 2);
        assert_eq!(nodes[2].pending_writes(), 1);
    }
}
