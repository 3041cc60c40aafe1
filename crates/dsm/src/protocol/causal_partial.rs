//! Causal consistency with partial replication.
//!
//! Data updates are sent only to the replicas of the written variable, but
//! — as Theorem 1 makes unavoidable when the variable distribution is not
//! known to be hoop-free — *dependency control information about every
//! write is still propagated to every other node*: a node that does not
//! replicate `x` receives a control record for each write of `x` so that
//! it can (a) order later updates it *does* replicate after that write
//! and (b) relay the dependency when its own writes are causally after it.
//!
//! This is the style of implementation the paper attributes to \[7\] and
//! \[14\] and criticizes: partial replication of the *data* without partial
//! replication of the *metadata*. Its measured control overhead is what the
//! efficiency benchmarks compare against the PRAM protocol.
//!
//! ## Batching (`DeliveryMode::batching`)
//!
//! The naive wire format pays a full control message (an `O(n)` vector
//! clock plus ids) per write per non-replica. Under a batching
//! [`DeliveryMode`] each write's record is **logged once**, in an owed
//! log with one cursor per destination (`OwedLog`, `protocol/owed.rs`),
//! and what a destination is owed is drained two ways:
//!
//! * **piggybacked** on the next data update sent to that destination —
//!   the update already carries the writer's current clock, so each
//!   piggybacked record costs only its [`RECORD_DELTA_BYTES`] delta;
//! * **flushed** as a [`CausalPartialMsg::ControlBatch`] — triggered by a
//!   zero-delay timer armed on the first owed record (so running the
//!   network to quiescence always drains the log), by the [`MAX_BATCH`]
//!   size cap on what one destination is owed, or by a restart. A batch
//!   pays one full record plus the delta for each additional one, the
//!   delta-encoding a real wire format would use for consecutive clocks
//!   from one sender.
//!
//! Flushes are **grouped**: a control record is a broadcast by nature, so
//! the processes that replicate none of the variables written in a window
//! are owed the same records in the same order, and one flush sends each
//! *distinct* list once — one shared payload handed to
//! [`NodeContext::send_multi`] for all the destinations owed it, which a
//! multicast wire carries once per edge of the writer's tree (and a
//! unicast wire expands back into one message per destination). A
//! destination that replicates a variable of the window had the records
//! before that write piggybacked on its update, so every owed list is a
//! suffix of the log: destinations with equal cursors share a batch, and
//! one with a cursor of its own gets a private one. What is shared is the
//! envelope, never the accounting: [`ControlStats`] is charged per
//! destination per record (one [`ControlStats::charge_sent_n`] per record
//! of a group), first record in full and the rest at the delta *in that
//! destination's own list*, because the paper's metric counts what each
//! process is told, not how the wire packs it.
//!
//! Batching changes *bytes on the wire*, never *what is delivered*: every
//! write still produces exactly one control record per non-replica, and
//! the causal delivery condition is evaluated record by record exactly as
//! in the unbatched mode. The differential proptests pin this down.
//!
//! ## Receipt
//!
//! Updates and records go through the shared `CausalReplica` kernel, the
//! same receive path as causal-full's: a record is a write without a
//! value, which advances the clock and stores nothing. A batch's records
//! are received by reference — the shared stamp is cloned only for a
//! record that has to be parked — and a record or update whose writer
//! applied nothing since its previous write is found in order by one
//! comparison instead of an `n`-entry clock scan.

use crate::clock::{DeltaVc, VectorClock};
use crate::control::ControlStats;
use crate::protocol::causal::{CausalReplica, Stamp};
use crate::protocol::{
    replica_table, replicates, FlushWindow, McsNode, OwedLog, RecoveryLog, RecoveryState,
};
use histories::{Distribution, ProcId, Value, VarId};
use simnet::{DeliveryMode, Node, NodeContext, NodeId, WireSize};
use std::sync::Arc;

/// Incremental wire cost of a control record that rides with a carrier
/// already bearing a full vector clock (writer id + variable id + clock
/// delta).
pub(crate) const RECORD_DELTA_BYTES: usize = 16;

/// Records owed to one destination at which they are flushed immediately,
/// without waiting for a piggyback opportunity or the timer.
pub(crate) const MAX_BATCH: usize = 16;

/// A dependency control record: everything about a write except its data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct ControlRecord {
    /// The writing process.
    pub writer: usize,
    /// The written variable.
    pub var: VarId,
    /// The write's [`Stamp`] (the writer's vector clock after the write) —
    /// stamped once per write and shared by every record and update that
    /// carries it.
    pub stamp: Arc<Stamp>,
    /// The wire size charged for the stamp's clock: dense classically, the
    /// [`DeltaVc`] size against the writer's previous broadcast under a
    /// delta delivery mode. Accounting only — delivery logic reads the
    /// dense clock, so what is delivered is mode-independent.
    pub encoded: usize,
}

impl ControlRecord {
    /// Wire cost of this record as a standalone control message (or as the
    /// first record of a batch): the (possibly delta-encoded) vector
    /// clock plus ids.
    pub(crate) fn full_bytes(&self) -> usize {
        self.encoded + 8
    }

    /// Wire cost as the `i`-th record of a batch: the first pays in full,
    /// each later one its delta.
    fn batch_bytes(&self, i: usize) -> usize {
        if i == 0 {
            self.full_bytes()
        } else {
            RECORD_DELTA_BYTES
        }
    }
}

/// Messages of the partially replicated causal protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum CausalPartialMsg {
    /// A full update: data value plus causal timestamp. Sent to the
    /// replicas of the written variable. Under a batching delivery mode it
    /// may carry piggybacked control records buffered for the same
    /// destination (always empty otherwise).
    Update {
        /// The writing process.
        writer: usize,
        /// The written variable.
        var: VarId,
        /// The written value.
        value: i64,
        /// The write's stamp (shared, see [`ControlRecord::stamp`]).
        stamp: Arc<Stamp>,
        /// The wire size charged for the stamp's clock (dense, or its
        /// [`DeltaVc`] size under a delta delivery mode).
        encoded: usize,
        /// Control records buffered for this destination, riding along at
        /// [`RECORD_DELTA_BYTES`] each.
        piggyback: Vec<ControlRecord>,
    },
    /// A control-only dependency record: everything but the data. Sent to
    /// every node that does not replicate the written variable (unbatched
    /// mode).
    Control {
        /// The writing process.
        writer: usize,
        /// The written variable.
        var: VarId,
        /// The write's stamp (shared, see [`ControlRecord::stamp`]).
        stamp: Arc<Stamp>,
        /// The wire size charged for the stamp's clock (dense, or its
        /// [`DeltaVc`] size under a delta delivery mode).
        encoded: usize,
    },
    /// A flushed batch of control records (batching mode; never empty),
    /// one shared payload for every destination owed exactly these
    /// records. Costs each of them one full record plus a delta per
    /// additional record.
    ControlBatch {
        /// The buffered records, in the order they were produced.
        records: Arc<[ControlRecord]>,
    },
    /// A restarted node's catch-up request: "resend me everything of
    /// yours I have not seen". Each peer answers from its persisted log
    /// of own writes with the original timestamps — an [`Self::Update`]
    /// when the requester replicates the variable, a [`Self::Control`]
    /// record otherwise, exactly mirroring the fault-free wire.
    CatchupReq {
        /// The restarted process.
        from: usize,
        /// Its restored vector clock.
        vc: VectorClock,
    },
}

impl WireSize for CausalPartialMsg {
    fn data_bytes(&self) -> usize {
        match self {
            CausalPartialMsg::Update { .. } => 8,
            CausalPartialMsg::Control { .. }
            | CausalPartialMsg::ControlBatch { .. }
            | CausalPartialMsg::CatchupReq { .. } => 0,
        }
    }
    fn control_bytes(&self) -> usize {
        match self {
            CausalPartialMsg::Update {
                encoded, piggyback, ..
            } => encoded + 8 + RECORD_DELTA_BYTES * piggyback.len(),
            CausalPartialMsg::Control { encoded, .. } => encoded + 8,
            CausalPartialMsg::ControlBatch { records } => records.first().map_or(0, |first| {
                first.full_bytes() + RECORD_DELTA_BYTES * (records.len() - 1)
            }),
            CausalPartialMsg::CatchupReq { vc, .. } => vc.wire_bytes() + 8,
        }
    }
}

/// The partially replicated causal MCS process.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct CausalPartialNode {
    me: ProcId,
    /// `replicas[x]`: the processes replicating variable `x`, in id order
    /// — one table shared by all nodes of a deployment.
    replicas: Arc<[Vec<NodeId>]>,
    /// Clock, store and parked writes (the shared causal kernel).
    replica: CausalReplica,
    control: ControlStats,
    /// Whether control records are batched per destination.
    batching: bool,
    /// Whether broadcast clocks are charged at their delta-encoded size
    /// (against the previous write's stamp, which every destination
    /// already holds: each sees this writer's full write stream, as
    /// updates or control records).
    delta: bool,
    /// The control records not yet sent, each logged once with a cursor
    /// per destination (batching mode only).
    owed: OwedLog<ControlRecord>,
    /// The batching flush window (shared with the other broadcasters).
    window: FlushWindow,
    /// This node's own writes since the last cut (variable, value, the
    /// write's clock stamp), in program order — the material catch-up
    /// responses are served from. Entry `k` is the write that set this
    /// node's own clock entry to `k`; its stamp is the one the write's
    /// updates and records carry, and dies with the entry at the next cut.
    log: RecoveryLog<(VarId, i64, Arc<Stamp>)>,
}

impl CausalPartialNode {
    fn with_replicas(
        me: ProcId,
        n: usize,
        replicas: Arc<[Vec<NodeId>]>,
        delivery: DeliveryMode,
    ) -> Self {
        CausalPartialNode {
            me,
            replica: CausalReplica::new(n),
            replicas,
            control: ControlStats::new(),
            batching: delivery.batching,
            delta: delivery.delta,
            owed: OwedLog::new(n, me.index()),
            window: FlushWindow::default(),
            log: RecoveryLog::new(),
        }
    }

    /// The node's current vector clock.
    pub(crate) fn clock(&self) -> &VectorClock {
        self.replica.clock()
    }

    /// Receive one control record, charging `bytes` of received control
    /// information to its variable. Stale records (duplicates of
    /// already-applied writes) are discarded uncharged.
    fn receive_record(&mut self, record: &ControlRecord, bytes: usize) {
        let fresh = (self.replica).receive(record.writer, record.var, None, &record.stamp);
        if fresh {
            self.control.charge_received(record.var, bytes);
        }
    }

    /// Flush every destination owed at least `at_least ≥ 1` records — 1
    /// at the timer and on restart (every obligation), [`MAX_BATCH`] for
    /// the ones a write just filled. Destinations owed the same suffix of
    /// the log share one [`CausalPartialMsg::ControlBatch`], handed over
    /// as one multi-destination send; a destination with a cursor of its
    /// own gets a private batch. Charges stay per destination per record.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn flush(&mut self, ctx: &mut NodeContext<CausalPartialMsg>, at_least: usize) {
        let control = &mut self.control;
        self.owed.flush(at_least, |records, dests| {
            for (i, r) in records.iter().enumerate() {
                control.charge_sent_n(r.var, r.batch_bytes(i), dests.len());
            }
            ctx.send_multi(dests, CausalPartialMsg::ControlBatch { records });
        });
    }
}

#[deny(
    clippy::disallowed_macros,
    clippy::disallowed_methods,
    clippy::indexing_slicing
)]
impl Node<CausalPartialMsg> for CausalPartialNode {
    fn on_message(
        &mut self,
        ctx: &mut NodeContext<CausalPartialMsg>,
        _from: NodeId,
        msg: CausalPartialMsg,
    ) {
        match msg {
            CausalPartialMsg::Update {
                writer,
                var,
                value,
                stamp,
                encoded,
                piggyback,
            } => {
                if self.replica.already_seen(writer, &stamp) {
                    // Idempotence guard: a duplicate of an applied write.
                    // Its piggybacked records (the writer's own, buffered
                    // strictly earlier in its stream) are stale too.
                    return;
                }
                self.control.charge_received(var, encoded + 8);
                // Piggybacked records precede their carrier in the
                // writer's stream; receive them first so per-writer order
                // is preserved even before the causal check runs.
                for record in &piggyback {
                    self.receive_record(record, RECORD_DELTA_BYTES);
                }
                self.replica.receive(writer, var, Some(value), &stamp);
            }
            CausalPartialMsg::Control {
                writer,
                var,
                stamp,
                encoded,
            } => {
                let record = ControlRecord {
                    writer,
                    var,
                    stamp,
                    encoded,
                };
                self.receive_record(&record, record.full_bytes());
            }
            CausalPartialMsg::ControlBatch { records } => {
                for (i, record) in records.iter().enumerate() {
                    self.receive_record(record, record.batch_bytes(i));
                }
            }
            CausalPartialMsg::CatchupReq { from, vc } => {
                // Resend every own write the requester's clock is missing,
                // with the original timestamp: a full update if the
                // requester replicates the variable, a control record
                // otherwise — mirroring the fault-free wire exactly.
                let me = self.me.index();
                // Under delta delivery the resends are chained through the
                // cheaper-of-two encoder like live traffic: the first
                // clock is encoded against the requester's restored clock
                // (carried by the request — exactly the base the decoder
                // holds), each later one against the previous resend,
                // whether that travelled as an update or a control
                // record — both carry the clock, and the link delivers
                // them FIFO.
                let mut base: &VectorClock = &vc;
                for (_, &(var, value, ref stamp)) in self.log.after(vc.get(me)) {
                    let encoded = DeltaVc::charged_bytes(self.delta, base, stamp.clock());
                    base = stamp.clock();
                    let stamp = Arc::clone(stamp);
                    let resend = if replicates(&self.replicas, NodeId(from), var) {
                        CausalPartialMsg::Update {
                            writer: me,
                            var,
                            value,
                            stamp,
                            encoded,
                            piggyback: Vec::new(),
                        }
                    } else {
                        CausalPartialMsg::Control {
                            writer: me,
                            var,
                            stamp,
                            encoded,
                        }
                    };
                    self.control.charge_sent(var, encoded + 8);
                    ctx.send(NodeId(from), resend);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeContext<CausalPartialMsg>, tag: u64) {
        if self.window.closes(tag) {
            self.flush(ctx, 1);
        }
    }
}

impl McsNode for CausalPartialNode {
    type Msg = CausalPartialMsg;

    fn local_read(&self, var: VarId) -> Value {
        self.replica.read(var)
    }

    fn local_write(&mut self, ctx: &mut NodeContext<CausalPartialMsg>, var: VarId, value: i64) {
        // The write's clock, copied once: every update and record sent
        // below, the recovery log and the next write's delta reference
        // share this stamp.
        let (stamp, encoded) = self.replica.write(self.me.index(), var, value, self.delta);
        self.control.track(var);
        self.log.push((var, value, Arc::clone(&stamp)));
        let update_bytes = encoded + 8;
        let record = ControlRecord {
            writer: self.me.index(),
            var,
            stamp: Arc::clone(&stamp),
            encoded,
        };
        let me = NodeId(self.me.index());
        let table = Arc::clone(&self.replicas);
        let replicas: &[NodeId] = table.get(var.index()).map_or(&[], Vec::as_slice);
        let replica_targets = replicas.iter().copied().filter(|&t| t != me);

        if !self.batching {
            // Classical wire format: one full message per destination.
            let other_targets = (0..self.clock().len())
                .map(NodeId)
                .filter(|&t| t != me && replicas.binary_search(&t).is_err());
            let update = CausalPartialMsg::Update {
                writer: self.me.index(),
                var,
                value,
                stamp: Arc::clone(&stamp),
                encoded,
                piggyback: Vec::new(),
            };
            for _ in replica_targets.clone() {
                self.control.charge_sent(var, update_bytes);
            }
            ctx.send_multi(replica_targets, update);
            let control = CausalPartialMsg::Control {
                writer: self.me.index(),
                var,
                stamp,
                encoded,
            };
            for _ in other_targets.clone() {
                self.control.charge_sent(var, record.full_bytes());
            }
            ctx.send_multi(other_targets, control);
            return;
        }

        // Batching: log the record once, owed to every non-replica. Each
        // replica is served what it was owed before this write, to ride on
        // its update…
        self.owed.push(record);
        let mut clean = Vec::new();
        let mut served = Vec::new();
        for t in replica_targets {
            self.control.charge_sent(var, update_bytes);
            let piggyback = self.owed.serve(t.index());
            if piggyback.is_empty() {
                clean.push(t);
            } else {
                for r in piggyback {
                    self.control.charge_sent(r.var, RECORD_DELTA_BYTES);
                }
                served.push((t, piggyback.to_vec()));
            }
        }
        // …the destinations the record brought to the size cap are
        // flushed…
        let mut owed = self.owed.most_owed();
        if owed >= MAX_BATCH {
            self.flush(ctx, MAX_BATCH);
            owed = self.owed.most_owed();
        }
        // …and the update leaves: a personalized copy for each replica
        // with a piggyback, one multi-destination send for the rest (so a
        // multicast wire can deduplicate the identical payload).
        for (t, piggyback) in served {
            ctx.send(
                t,
                CausalPartialMsg::Update {
                    writer: self.me.index(),
                    var,
                    value,
                    stamp: Arc::clone(&stamp),
                    encoded,
                    piggyback,
                },
            );
        }
        ctx.send_multi(
            clean,
            CausalPartialMsg::Update {
                writer: self.me.index(),
                var,
                value,
                stamp,
                encoded,
                piggyback: Vec::new(),
            },
        );
        // A zero-delay timer drains whatever the piggybacks did not:
        // running the network to quiescence therefore always delivers
        // every record, so settle points see the same state as the
        // unbatched wire.
        if owed > 0 {
            self.window.arm(ctx);
        }
    }

    fn replicates(&self, var: VarId) -> bool {
        replicates(&self.replicas, NodeId(self.me.index()), var)
    }

    fn control(&self) -> &ControlStats {
        &self.control
    }

    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn on_restart(&mut self, ctx: &mut NodeContext<CausalPartialMsg>) {
        // The crash killed any armed flush timer, but the owed records
        // are persisted state: flush every obligation now so no
        // destination waits forever for records only this node holds.
        self.window = FlushWindow::default();
        self.flush(ctx, 1);
        // Then re-request everything missed while down — peers answer
        // with updates or control records carrying original timestamps.
        let req = CausalPartialMsg::CatchupReq {
            from: self.me.index(),
            vc: self.clock().clone(),
        };
        let targets = (0..self.clock().len())
            .filter(|&p| p != self.me.index())
            .map(NodeId);
        ctx.send_multi(targets, req);
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

impl CausalPartialNode {
    /// One node per process of `dist`, in process-id order. Honours
    /// `delivery.batching` (control records buffered per destination,
    /// piggybacked and flushed in batches) and `delivery.delta` (clocks
    /// charged at their [`DeltaVc`] size).
    pub(crate) fn build_nodes(dist: &Distribution, delivery: DeliveryMode) -> Vec<Self> {
        let n = dist.process_count();
        let replicas = replica_table(dist);
        (0..n)
            .map(|i| {
                CausalPartialNode::with_replicas(ProcId(i), n, Arc::clone(&replicas), delivery)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::window::FLUSH_TAG;
    use proptest::prelude::*;
    use simnet::SimTime;

    /// The node of process `me` under `dist`, with control-record batching
    /// per `delivery`.
    fn new_node(me: ProcId, dist: &Distribution, delivery: DeliveryMode) -> CausalPartialNode {
        CausalPartialNode::with_replicas(me, dist.process_count(), replica_table(dist), delivery)
    }

    /// A record charged at the classical dense clock size, its stamp
    /// checked by the full scan.
    fn dense_record(writer: usize, var: VarId, vc: VectorClock) -> ControlRecord {
        let encoded = vc.wire_bytes();
        ControlRecord {
            writer,
            var,
            stamp: Arc::new(Stamp::new(vc)),
            encoded,
        }
    }

    /// Control records `node` owes, counted once per destination owed
    /// each: what per-destination buffers would hold.
    fn buffered_records(node: &CausalPartialNode) -> usize {
        (0..node.clock().len())
            .map(|d| node.owed.owed(d).len())
            .sum()
    }

    fn control_msg(writer: usize, var: VarId, vc: VectorClock) -> CausalPartialMsg {
        let encoded = vc.wire_bytes();
        CausalPartialMsg::Control {
            writer,
            var,
            stamp: Stamp::new(vc).into(),
            encoded,
        }
    }

    #[test]
    fn control_only_messages_carry_no_data() {
        let upd = CausalPartialMsg::Update {
            writer: 0,
            var: VarId(0),
            value: 1,
            stamp: Stamp::new(VectorClock::new(4)).into(),
            encoded: 4 * 8,
            piggyback: Vec::new(),
        };
        let ctl = control_msg(0, VarId(0), VectorClock::new(4));
        assert_eq!(upd.data_bytes(), 8);
        assert_eq!(ctl.data_bytes(), 0);
        assert_eq!(upd.control_bytes(), ctl.control_bytes());
        assert_eq!(ctl.control_bytes(), 4 * 8 + 8);
        assert!(matches!(
            upd,
            CausalPartialMsg::Update { var: VarId(0), .. }
        ));
        assert!(matches!(ctl, CausalPartialMsg::Control { writer: 0, .. }));
    }

    #[test]
    fn batches_and_piggybacks_delta_encode_their_records() {
        let record = |w: usize| dense_record(w, VarId(1), VectorClock::new(4));
        let single = CausalPartialMsg::ControlBatch {
            records: [record(0)].into(),
        };
        // A batch of one costs the same as a standalone control message.
        assert_eq!(
            single.control_bytes(),
            control_msg(0, VarId(1), VectorClock::new(4)).control_bytes()
        );
        let triple = CausalPartialMsg::ControlBatch {
            records: [record(0), record(1), record(2)].into(),
        };
        assert_eq!(triple.control_bytes(), (4 * 8 + 8) + 2 * RECORD_DELTA_BYTES);
        assert_eq!(triple.data_bytes(), 0);
        assert!(matches!(
            &triple,
            CausalPartialMsg::ControlBatch { records } if (records[0].writer, records[0].var) == (0, VarId(1))
        ));
        // A piggybacked record costs its delta on top of the update.
        let upd = CausalPartialMsg::Update {
            writer: 0,
            var: VarId(0),
            value: 1,
            stamp: Stamp::new(VectorClock::new(4)).into(),
            encoded: 4 * 8,
            piggyback: vec![record(0)],
        };
        assert_eq!(upd.control_bytes(), (4 * 8 + 8) + RECORD_DELTA_BYTES);
    }

    #[test]
    fn writes_send_updates_to_replicas_and_control_to_everyone_else() {
        // 4 processes; x0 replicated on p0 and p1 only.
        let mut dist = Distribution::new(4, 1);
        dist.assign(ProcId(0), VarId(0));
        dist.assign(ProcId(1), VarId(0));
        let mut nodes = CausalPartialNode::build_nodes(&dist, DeliveryMode::UNICAST);
        let mut ctx = NodeContext::new(NodeId(0), SimTime::ZERO);
        nodes[0].local_write(&mut ctx, VarId(0), 5);
        // 1 update (to p1) + 2 control records (to p2, p3).
        assert_eq!(ctx.queued_messages(), 3);
        assert_eq!(nodes[0].local_read(VarId(0)), Value::Int(5));
        // Every other node will therefore track x0 — the runtime witness of
        // the paper's impossibility result.
        assert!(nodes[0].control().tracks(VarId(0)));
    }

    #[test]
    fn batching_buffers_records_until_the_flush_timer() {
        let mut dist = Distribution::new(4, 1);
        dist.assign(ProcId(0), VarId(0));
        dist.assign(ProcId(1), VarId(0));
        let mut nodes = CausalPartialNode::build_nodes(&dist, DeliveryMode::BATCHED);
        let mut ctx = NodeContext::new(NodeId(0), SimTime::ZERO);
        nodes[0].local_write(&mut ctx, VarId(0), 5);
        // Only the update leaves immediately; the two records wait.
        assert_eq!(ctx.queued_messages(), 1);
        assert_eq!(buffered_records(&nodes[0]), 2);
        // The flush timer drains both buffers as one batch each.
        let mut flush_ctx = NodeContext::new(NodeId(0), SimTime::ZERO);
        nodes[0].on_timer(&mut flush_ctx, FLUSH_TAG);
        assert_eq!(flush_ctx.queued_messages(), 2);
        assert_eq!(buffered_records(&nodes[0]), 0);
        // Unknown timer tags are ignored.
        let mut other = NodeContext::new(NodeId(0), SimTime::ZERO);
        nodes[0].on_timer(&mut other, 99);
        assert_eq!(other.queued_messages(), 0);
    }

    #[test]
    fn batching_piggybacks_buffered_records_on_the_next_update() {
        // p0 replicates x0 (with p1) and x1 (with p2); p3 replicates
        // nothing p0 writes.
        let mut dist = Distribution::new(4, 2);
        dist.assign(ProcId(0), VarId(0));
        dist.assign(ProcId(1), VarId(0));
        dist.assign(ProcId(0), VarId(1));
        dist.assign(ProcId(2), VarId(1));
        let mut nodes = CausalPartialNode::build_nodes(&dist, DeliveryMode::BATCHED);
        let mut ctx = NodeContext::new(NodeId(0), SimTime::ZERO);
        // Writing x0 buffers records for p2 and p3.
        nodes[0].local_write(&mut ctx, VarId(0), 5);
        assert_eq!(buffered_records(&nodes[0]), 2);
        // Writing x1 piggybacks p2's record on its update; p1 (not a
        // replica of x1) and p3 keep waiting.
        nodes[0].local_write(&mut ctx, VarId(1), 6);
        assert_eq!(buffered_records(&nodes[0]), 3); // p1(x1) + p3(x0, x1)
        let piggybacked = ctx.outgoing().iter().any(|out| {
            matches!(
                out,
                simnet::Outgoing::One(
                    NodeId(2),
                    CausalPartialMsg::Update { piggyback, .. }
                ) if piggyback.len() == 1
            )
        });
        assert!(piggybacked, "p2's update must carry the buffered record");
    }

    #[test]
    fn a_full_buffer_flushes_without_waiting() {
        let mut dist = Distribution::new(2, 1);
        dist.assign(ProcId(0), VarId(0));
        let mut node = new_node(ProcId(0), &dist, DeliveryMode::BATCHED);
        let mut ctx = NodeContext::new(NodeId(0), SimTime::ZERO);
        for i in 0..MAX_BATCH as i64 {
            node.local_write(&mut ctx, VarId(0), i);
        }
        // The cap flushed p1's buffer exactly once.
        assert_eq!(buffered_records(&node), 0);
        let batches = ctx
            .outgoing()
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    simnet::Outgoing::One(_, CausalPartialMsg::ControlBatch { records })
                        if records.len() == MAX_BATCH
                )
            })
            .count();
        assert_eq!(batches, 1);
    }

    /// 8 processes; p0 shares x0 with p1 and x1 with p2, so p3..p7
    /// replicate nothing p0 writes.
    fn two_variable_nodes() -> Vec<CausalPartialNode> {
        let mut dist = Distribution::new(8, 2);
        dist.assign(ProcId(0), VarId(0));
        dist.assign(ProcId(1), VarId(0));
        dist.assign(ProcId(0), VarId(1));
        dist.assign(ProcId(2), VarId(1));
        CausalPartialNode::build_nodes(&dist, DeliveryMode::BATCHED)
    }

    /// The batches among `out` as (destinations, variables of the
    /// records), in emission order.
    fn batches(out: &[simnet::Outgoing<CausalPartialMsg>]) -> Vec<(Vec<usize>, Vec<usize>)> {
        let vars = |records: &[ControlRecord]| records.iter().map(|r| r.var.index()).collect();
        out.iter()
            .filter_map(|o| match o {
                simnet::Outgoing::One(d, CausalPartialMsg::ControlBatch { records }) => {
                    Some((vec![d.index()], vars(records)))
                }
                simnet::Outgoing::Many(ds, CausalPartialMsg::ControlBatch { records }) => {
                    Some((ds.iter().map(|d| d.index()).collect(), vars(records)))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn the_timer_flush_shares_one_batch_among_destinations_owed_the_same_records() {
        let mut nodes = two_variable_nodes();
        let mut ctx = NodeContext::new(NodeId(0), SimTime::ZERO);
        nodes[0].local_write(&mut ctx, VarId(0), 5);
        nodes[0].local_write(&mut ctx, VarId(1), 6);
        assert!(batches(ctx.outgoing()).is_empty());
        let mut flush_ctx = NodeContext::new(NodeId(0), SimTime::ZERO);
        nodes[0].on_timer(&mut flush_ctx, FLUSH_TAG);
        // p1 is owed x1's record alone (a private batch); p2 had x0's
        // piggybacked on its update of x1; the five that replicate neither
        // variable are owed the same two records and share one envelope.
        assert_eq!(
            batches(flush_ctx.outgoing()),
            vec![(vec![1], vec![1]), (vec![3, 4, 5, 6, 7], vec![0, 1])]
        );
        assert_eq!(flush_ctx.outgoing().len(), 2);
        assert_eq!(buffered_records(&nodes[0]), 0);
        // The logical charges are the per-destination ones: a full record
        // (8·8 + 8 bytes) first in each destination's own list, a delta after.
        let (full, delta) = (72, RECORD_DELTA_BYTES as u64);
        let control = nodes[0].control();
        assert_eq!(control.sent_entries(VarId(0)), 1 + 1 + 5);
        assert_eq!(control.sent_bytes(VarId(0)), full + delta + 5 * full);
        assert_eq!(control.sent_entries(VarId(1)), 1 + 1 + 5);
        assert_eq!(control.sent_bytes(VarId(1)), full + full + 5 * delta);
    }

    #[test]
    fn a_destination_served_by_a_piggyback_gets_only_the_later_records() {
        let mut nodes = two_variable_nodes();
        let mut ctx = NodeContext::new(NodeId(0), SimTime::ZERO);
        for (var, value) in [(0, 5), (1, 6), (0, 7)] {
            nodes[0].local_write(&mut ctx, VarId(var), value);
        }
        let mut flush_ctx = NodeContext::new(NodeId(0), SimTime::ZERO);
        nodes[0].on_timer(&mut flush_ctx, FLUSH_TAG);
        // The update of x1 carried p2 the first record, so its batch holds
        // the third write only; p1's record rode on the third write's update.
        assert_eq!(
            batches(flush_ctx.outgoing()),
            vec![(vec![2], vec![0]), (vec![3, 4, 5, 6, 7], vec![0, 1, 0])]
        );
    }

    #[test]
    fn the_cap_and_the_restart_flush_group_like_the_timer() {
        let mut nodes = two_variable_nodes();
        let mut ctx = NodeContext::new(NodeId(0), SimTime::ZERO);
        // x0 once, then x1 sixteen times: p3..p7 are owed all of them and
        // fill together at the fifteenth; p1 (a replica of x0, so one
        // record behind) fills alone one write later.
        nodes[0].local_write(&mut ctx, VarId(0), 0);
        for i in 1..=MAX_BATCH as i64 {
            nodes[0].local_write(&mut ctx, VarId(1), i);
        }
        let mut x0_then_x1s = vec![1; MAX_BATCH];
        x0_then_x1s[0] = 0;
        assert_eq!(
            batches(ctx.outgoing()),
            vec![
                (vec![3, 4, 5, 6, 7], x0_then_x1s),
                (vec![1], vec![1; MAX_BATCH])
            ]
        );
        assert_eq!(buffered_records(&nodes[0]), 5);
        // A crash kills the timer; the restart flushes what is still owed,
        // grouped, before it asks for catch-up.
        let mut restart_ctx = NodeContext::new(NodeId(0), SimTime::ZERO);
        nodes[0].on_restart(&mut restart_ctx);
        assert_eq!(
            batches(restart_ctx.outgoing()),
            vec![(vec![3, 4, 5, 6, 7], vec![1])]
        );
        assert!(matches!(
            restart_ctx.outgoing(),
            [
                simnet::Outgoing::Many(_, CausalPartialMsg::ControlBatch { .. }),
                simnet::Outgoing::Many(_, CausalPartialMsg::CatchupReq { .. })
            ]
        ));
        assert_eq!(buffered_records(&nodes[0]), 0);
    }

    #[test]
    fn received_batches_deliver_record_by_record() {
        let mut dist = Distribution::new(3, 1);
        dist.assign(ProcId(0), VarId(0));
        dist.assign(ProcId(1), VarId(0));
        let mut node = new_node(ProcId(2), &dist, DeliveryMode::BATCHED);
        let mut vc1 = VectorClock::new(3);
        vc1.increment(0);
        let mut vc2 = vc1.clone();
        vc2.increment(0);
        let mut ctx = NodeContext::new(NodeId(2), SimTime::ZERO);
        node.on_message(
            &mut ctx,
            NodeId(0),
            CausalPartialMsg::ControlBatch {
                records: [
                    dense_record(0, VarId(0), vc1),
                    dense_record(0, VarId(0), vc2),
                ]
                .into(),
            },
        );
        assert_eq!(node.clock().get(0), 2);
        // Same record count as two standalone messages, fewer bytes.
        assert_eq!(
            node.control().received_bytes(VarId(0)),
            (3 * 8 + 8 + RECORD_DELTA_BYTES) as u64
        );
    }

    #[test]
    fn control_records_advance_the_clock_without_storing_data() {
        let mut dist = Distribution::new(3, 1);
        dist.assign(ProcId(0), VarId(0));
        dist.assign(ProcId(1), VarId(0));
        let mut node = new_node(ProcId(2), &dist, DeliveryMode::UNICAST);
        let mut vc = VectorClock::new(3);
        vc.increment(0);
        let mut ctx = NodeContext::new(NodeId(2), SimTime::ZERO);
        node.on_message(&mut ctx, NodeId(0), control_msg(0, VarId(0), vc));
        assert_eq!(node.clock().total(), 1);
        assert_eq!(node.local_read(VarId(0)), Value::Bottom);
        assert_eq!(node.clock().get(0), 1);
        // p2 does not replicate x0 yet had to process metadata about it.
        assert!(node.control().tracks(VarId(0)));
        assert!(!node.replicates(VarId(0)));
    }

    #[test]
    fn out_of_order_control_waits_for_dependencies() {
        let dist = Distribution::new(2, 1);
        let mut node = new_node(ProcId(1), &dist, DeliveryMode::UNICAST);
        let mut vc2 = VectorClock::new(2);
        vc2.increment(0);
        vc2.increment(0);
        let mut ctx = NodeContext::new(NodeId(1), SimTime::ZERO);
        node.on_message(&mut ctx, NodeId(0), control_msg(0, VarId(0), vc2));
        assert_eq!(node.replica.pending_count(), 1);
        let mut vc1 = VectorClock::new(2);
        vc1.increment(0);
        node.on_message(&mut ctx, NodeId(0), control_msg(0, VarId(0), vc1));
        assert_eq!(node.replica.pending_count(), 0);
        assert_eq!(node.clock().get(0), 2);
    }

    #[test]
    fn delta_mode_charges_sparse_clocks_without_changing_what_is_sent() {
        // 16 processes; x0 replicated on p0 and p1 only, so every write
        // fans out one update and 14 control records.
        let mut dist = Distribution::new(16, 1);
        dist.assign(ProcId(0), VarId(0));
        dist.assign(ProcId(1), VarId(0));
        let run = |delta: bool| {
            let mode = if delta {
                DeliveryMode::DELTA
            } else {
                DeliveryMode::UNICAST
            };
            let mut nodes = CausalPartialNode::build_nodes(&dist, mode);
            let mut ctx = NodeContext::new(NodeId(0), SimTime::ZERO);
            for v in 1..=4 {
                nodes[0].local_write(&mut ctx, VarId(0), v);
            }
            let clocks: Vec<VectorClock> = ctx
                .outgoing()
                .iter()
                .map(|o| match o {
                    simnet::Outgoing::One(_, m) | simnet::Outgoing::Many(_, m) => match m {
                        CausalPartialMsg::Update { stamp, .. }
                        | CausalPartialMsg::Control { stamp, .. } => stamp.clock().clone(),
                        other => panic!("unbatched writes send updates and records, not {other:?}"),
                    },
                })
                .collect();
            (clocks, nodes[0].control().sent_bytes(VarId(0)))
        };
        let (dense_clocks, dense_bytes) = run(false);
        let (delta_clocks, delta_bytes) = run(true);
        // Identical clocks travel either way — only the charge differs.
        assert_eq!(dense_clocks, delta_clocks);
        // Dense: 15 destinations × 4 writes × (16·8 + 8) bytes.
        assert_eq!(dense_bytes, 15 * 4 * (16 * 8 + 8));
        // Delta: each consecutive write changes one entry → 4 + 12 + 8.
        assert_eq!(delta_bytes, 15 * 4 * (4 + 12 + 8));
    }

    #[test]
    fn catchup_resends_are_delta_chained_under_delta_mode() {
        // Regression test: recovery resends used to be charged dense even
        // under delta delivery. The chain must span *both* resend kinds —
        // updates for replicated variables and control records for the
        // rest travel the same FIFO link, and both carry the clock.
        let mut dist = Distribution::new(3, 2);
        dist.assign(ProcId(0), VarId(0));
        dist.assign(ProcId(1), VarId(0));
        dist.assign(ProcId(0), VarId(1));
        dist.assign(ProcId(2), VarId(1));
        let run = |mode: DeliveryMode| {
            let mut nodes = CausalPartialNode::build_nodes(&dist, mode);
            let mut ctx = NodeContext::new(NodeId(0), SimTime::ZERO);
            // p2 does not replicate x0 (control record) but does x1
            // (full update): the catch-up answer mixes both kinds.
            nodes[0].local_write(&mut ctx, VarId(0), 1);
            nodes[0].local_write(&mut ctx, VarId(1), 2);
            let mut resp_ctx = NodeContext::new(NodeId(0), SimTime::ZERO);
            nodes[0].on_message(
                &mut resp_ctx,
                NodeId(2),
                CausalPartialMsg::CatchupReq {
                    from: 2,
                    vc: VectorClock::new(3),
                },
            );
            let resent: Vec<(VectorClock, usize)> = resp_ctx
                .outgoing()
                .iter()
                .map(|o| match o {
                    simnet::Outgoing::One(
                        NodeId(2),
                        CausalPartialMsg::Control { stamp, encoded, .. }
                        | CausalPartialMsg::Update { stamp, encoded, .. },
                    ) => (stamp.clock().clone(), *encoded),
                    other => panic!("unexpected response {other:?}"),
                })
                .collect();
            assert_eq!(resent.len(), 2);
            resent
        };
        // Dense mode: both resends pay the full clock.
        for (vc, encoded) in run(DeliveryMode::UNICAST) {
            assert_eq!(encoded, vc.wire_bytes());
        }
        // Delta mode: the chain starts at the requester's (empty)
        // restored clock and threads through the control record into the
        // update — each resend pays one changed entry, never more than
        // the dense fallback.
        let mut base = VectorClock::new(3);
        for (vc, encoded) in run(DeliveryMode::DELTA) {
            assert_eq!(encoded, DeltaVc::encode(&base, &vc).wire_bytes());
            assert!(encoded <= vc.wire_bytes());
            assert_eq!(encoded, 4 + 12);
            base.clone_from(&vc);
        }
    }

    /// The per-destination buffers the owed-record log replaced, kept as its
    /// reference model: the batching write, the grouped flush and the
    /// restart flush as they were, on a ledger of their own. It is handed
    /// each write's record, so both sides send the same stamps.
    struct PerDestination {
        me: NodeId,
        replicas: Arc<[Vec<NodeId>]>,
        buffers: Vec<Vec<ControlRecord>>,
        control: ControlStats,
        window: FlushWindow,
    }

    /// Whether two record lists are the same writes in the same order.
    fn same_writes(a: &[ControlRecord], b: &[ControlRecord]) -> bool {
        let same = |(a, b): (&ControlRecord, &ControlRecord)| Arc::ptr_eq(&a.stamp, &b.stamp);
        a.len() == b.len() && a.iter().zip(b).all(same)
    }

    impl PerDestination {
        fn write(
            &mut self,
            ctx: &mut NodeContext<CausalPartialMsg>,
            record: ControlRecord,
            value: i64,
        ) {
            let (var, encoded, me) = (record.var, record.encoded, self.me);
            let stamp = Arc::clone(&record.stamp);
            self.control.track(var);
            let table = Arc::clone(&self.replicas);
            let replicas: &[NodeId] = table.get(var.index()).map_or(&[], Vec::as_slice);
            let mut full = false;
            for t in (0..self.buffers.len()).map(NodeId) {
                if t != me && replicas.binary_search(&t).is_err() {
                    self.buffers[t.index()].push(record.clone());
                    full |= self.buffers[t.index()].len() >= MAX_BATCH;
                }
            }
            if full {
                self.flush(ctx, MAX_BATCH);
            }
            let update = |piggyback| CausalPartialMsg::Update {
                writer: me.index(),
                var,
                value,
                stamp: Arc::clone(&stamp),
                encoded,
                piggyback,
            };
            let mut clean = Vec::new();
            for t in replicas.iter().copied().filter(|&t| t != me) {
                self.control.charge_sent(var, encoded + 8);
                let piggyback = std::mem::take(&mut self.buffers[t.index()]);
                if piggyback.is_empty() {
                    clean.push(t);
                    continue;
                }
                for r in &piggyback {
                    self.control.charge_sent(r.var, RECORD_DELTA_BYTES);
                }
                ctx.send(t, update(piggyback));
            }
            ctx.send_multi(clean, update(Vec::new()));
            if self.buffers.iter().any(|b| !b.is_empty()) {
                self.window.arm(ctx);
            }
        }

        fn flush(&mut self, ctx: &mut NodeContext<CausalPartialMsg>, at_least: usize) {
            let mut groups: Vec<(Arc<[ControlRecord]>, Vec<NodeId>)> = Vec::new();
            for (d, buffer) in self.buffers.iter_mut().enumerate() {
                if buffer.len() < at_least {
                    continue;
                }
                for (i, r) in buffer.iter().enumerate() {
                    self.control.charge_sent(r.var, r.batch_bytes(i));
                }
                match (groups.iter_mut()).find(|(records, _)| same_writes(records, buffer)) {
                    Some((_, dests)) => dests.push(NodeId(d)),
                    None => groups.push((buffer.as_slice().into(), vec![NodeId(d)])),
                }
                buffer.clear();
            }
            for (records, dests) in groups {
                ctx.send_multi(dests, CausalPartialMsg::ControlBatch { records });
            }
        }

        fn on_restart(&mut self, ctx: &mut NodeContext<CausalPartialMsg>, vc: VectorClock) {
            self.window = FlushWindow::default();
            self.flush(ctx, 1);
            let me = self.me;
            let targets = (0..self.buffers.len()).map(NodeId).filter(|&p| p != me);
            let from = me.index();
            ctx.send_multi(targets, CausalPartialMsg::CatchupReq { from, vc });
        }
    }

    /// A record as the model test compares it: writer, variable, the
    /// stamp's address and the charged clock size.
    type Sent = (usize, VarId, *const Stamp, usize);

    /// An envelope as the model test compares it: its destinations, then
    /// the message with every stamp replaced by its address.
    #[derive(Debug, PartialEq)]
    enum Wire {
        Update(i64, Sent, Vec<Sent>),
        Control(Sent),
        Batch(Vec<Sent>),
        Catchup(usize, VectorClock),
    }

    fn wire(out: &[simnet::Outgoing<CausalPartialMsg>]) -> Vec<(Vec<NodeId>, Wire)> {
        let sent = |r: &ControlRecord| (r.writer, r.var, Arc::as_ptr(&r.stamp), r.encoded);
        let envelope = |msg: &CausalPartialMsg| match msg {
            CausalPartialMsg::Update {
                writer,
                var,
                value,
                stamp,
                encoded,
                piggyback,
            } => Wire::Update(
                *value,
                (*writer, *var, Arc::as_ptr(stamp), *encoded),
                piggyback.iter().map(sent).collect(),
            ),
            CausalPartialMsg::Control {
                writer,
                var,
                stamp,
                encoded,
            } => Wire::Control((*writer, *var, Arc::as_ptr(stamp), *encoded)),
            CausalPartialMsg::ControlBatch { records } => {
                Wire::Batch(records.iter().map(sent).collect())
            }
            CausalPartialMsg::CatchupReq { from, vc } => Wire::Catchup(*from, vc.clone()),
        };
        out.iter()
            .map(|o| match o {
                simnet::Outgoing::One(d, msg) => (vec![*d], envelope(msg)),
                simnet::Outgoing::Many(ds, msg) => (ds.clone(), envelope(msg)),
            })
            .collect()
    }

    /// `C(x)` for one variable among `n` processes, never empty: everyone,
    /// one process, or the set bits of `mask`.
    fn holders(n: usize, (kind, mask): (u8, u16)) -> Vec<usize> {
        let bits: Vec<usize> = (0..n).filter(|&p| mask >> p & 1 == 1).collect();
        match kind {
            0 => (0..n).collect(),
            1 => vec![usize::from(mask) % n],
            _ if bits.is_empty() => vec![usize::from(mask) % n],
            _ => bits,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// The owed-record log sends what per-destination buffers sent:
        /// under random distributions, random interleavings of writes,
        /// flush-timer firings and restarts, and windows long enough to
        /// hit `MAX_BATCH`, every step emits the same envelopes (the same
        /// destinations, the same stamps by address, the same piggybacks),
        /// leaves an equal ledger, the same flush window and the same
        /// records owed to each destination.
        #[test]
        fn the_owed_log_sends_what_per_destination_buffers_sent(
            n in 2usize..10,
            me in 0usize..9,
            vars in proptest::collection::vec((0u8..4, 0u16..512), 1..5),
            timer_rate in 1u8..12,
            delta in 0u8..2,
            steps in proptest::collection::vec((0u8..64, 0usize..5), 0..150),
        ) {
            let me = me % n;
            let mut dist = Distribution::new(n, vars.len());
            for (x, &v) in vars.iter().enumerate() {
                for p in holders(n, v) {
                    dist.assign(ProcId(p), VarId(x));
                }
            }
            let delta = delta == 1;
            let mode = DeliveryMode { delta, ..DeliveryMode::BATCHED };
            let mut node = new_node(ProcId(me), &dist, mode);
            let mut model = PerDestination {
                me: NodeId(me),
                replicas: replica_table(&dist),
                buffers: vec![Vec::new(); n],
                control: ControlStats::new(),
                window: FlushWindow::default(),
            };
            let mut prev = VectorClock::new(n);
            for (i, &(kind, x)) in steps.iter().enumerate() {
                let mut ctx = NodeContext::new(NodeId(me), SimTime::ZERO);
                let mut model_ctx = NodeContext::new(NodeId(me), SimTime::ZERO);
                if kind == 63 {
                    node.on_restart(&mut ctx);
                    model.on_restart(&mut model_ctx, node.clock().clone());
                } else if kind < timer_rate {
                    node.on_timer(&mut ctx, FLUSH_TAG);
                    if model.window.closes(FLUSH_TAG) {
                        model.flush(&mut model_ctx, 1);
                    }
                } else {
                    let (var, value) = (VarId(x % vars.len()), i as i64);
                    node.local_write(&mut ctx, var, value);
                    let (_, (_, _, stamp)) = node.log.after(0).last().unwrap();
                    let encoded = DeltaVc::charged_bytes(delta, &prev, stamp.clock());
                    prev.clone_from(stamp.clock());
                    let record = ControlRecord {
                        writer: me,
                        var,
                        stamp: Arc::clone(stamp),
                        encoded,
                    };
                    model.write(&mut model_ctx, record, value);
                }
                prop_assert_eq!(wire(ctx.outgoing()), wire(model_ctx.outgoing()), "step {}", i);
                prop_assert_eq!(node.control(), &model.control);
                prop_assert_eq!(node.window, model.window);
                for (d, buffer) in model.buffers.iter().enumerate() {
                    prop_assert!(same_writes(node.owed.owed(d), buffer), "owed to p{}", d);
                }
                let buffered: usize = model.buffers.iter().map(Vec::len).sum();
                prop_assert_eq!(buffered_records(&node), buffered);
            }
        }
    }
}
