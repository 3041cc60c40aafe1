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
//! This is the style of implementation the paper attributes to [7] and
//! [14] and criticizes: partial replication of the *data* without partial
//! replication of the *metadata*. Its measured control overhead is what the
//! efficiency benchmarks compare against the PRAM protocol.
//!
//! ## Batching (`DeliveryMode::batching`)
//!
//! The naive wire format pays a full control message (an `O(n)` vector
//! clock plus ids) per write per non-replica. Under a batching
//! [`DeliveryMode`] the records are **buffered per destination** and
//! drained two ways:
//!
//! * **piggybacked** on the next data update sent to that destination —
//!   the update already carries the writer's current clock, so each
//!   piggybacked record costs only its [`RECORD_DELTA_BYTES`] delta;
//! * **flushed** as a [`CausalPartialMsg::ControlBatch`] — triggered by a
//!   zero-delay timer armed on the first buffered record (so running the
//!   network to quiescence always drains every buffer), by the
//!   [`MAX_BATCH`] size cap, or by a restart. A batch pays one full record
//!   plus the delta for each additional one, the delta-encoding a real
//!   wire format would use for consecutive clocks from one sender.
//!
//! Flushes are **grouped**: a control record is a broadcast by nature, so
//! the processes that replicate none of the variables written in a window
//! are owed the same records in the same order, and one flush sends each
//! *distinct* list once — one shared payload handed to
//! [`NodeContext::send_multi`] for all the destinations owed it, which a
//! multicast wire carries once per edge of the writer's tree (and a
//! unicast wire expands back into one message per destination). A
//! destination whose list differs — it replicates a variable of the
//! window, or a piggyback already served it the earlier records — gets a
//! private batch. What is shared is the envelope, never the accounting:
//! [`ControlStats`] is charged per destination per record, first record in
//! full and the rest at the delta *in that destination's own list*,
//! because the paper's metric counts what each process is told, not how
//! the wire packs it.
//!
//! Batching changes *bytes on the wire*, never *what is delivered*: every
//! write still produces exactly one control record per non-replica, and
//! the causal delivery condition is evaluated record by record exactly as
//! in the unbatched mode. The differential proptests pin this down.

use crate::api::ProtocolKind;
use crate::clock::{DeltaVc, VectorClock};
use crate::control::ControlStats;
use crate::protocol::{replica_table, McsNode, ProtocolSpec, RecoveryLog, RecoveryState};
use histories::{Distribution, ProcId, Value, VarId};
use simnet::{DeliveryMode, Node, NodeContext, NodeId, SimDuration, WireSize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Incremental wire cost of a control record that rides with a carrier
/// already bearing a full vector clock (writer id + variable id + clock
/// delta).
pub const RECORD_DELTA_BYTES: usize = 16;

/// Buffered records per destination beyond which the buffer is flushed
/// immediately, without waiting for a piggyback opportunity or the timer.
pub const MAX_BATCH: usize = 16;

/// Timer tag used by the batching flush.
const FLUSH_TAG: u64 = 0xBA7C;

/// A dependency control record: everything about a write except its data.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ControlRecord {
    /// The writing process.
    pub writer: usize,
    /// The written variable.
    pub var: VarId,
    /// The writer's vector clock after the write — stamped once per
    /// write and shared by every record and update that carries it.
    pub vc: Arc<VectorClock>,
    /// The wire size charged for `vc`: dense classically, the
    /// [`DeltaVc`] size against the writer's previous broadcast under a
    /// delta delivery mode. Accounting only — delivery logic reads the
    /// dense clock above, so what is delivered is mode-independent.
    pub encoded: usize,
}

impl ControlRecord {
    /// A record charged at the classical dense clock size.
    pub fn dense(writer: usize, var: VarId, vc: VectorClock) -> Self {
        let encoded = vc.wire_bytes();
        ControlRecord {
            writer,
            var,
            vc: Arc::new(vc),
            encoded,
        }
    }

    /// Wire cost of this record as a standalone control message (or as the
    /// first record of a batch): the (possibly delta-encoded) vector
    /// clock plus ids.
    pub fn full_bytes(&self) -> usize {
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

/// Whether two record lists are the same writes in the same order: every
/// copy of a write's record shares the write's stamp, so pointers decide.
fn same_writes(a: &[ControlRecord], b: &[ControlRecord]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(a, b)| Arc::ptr_eq(&a.vc, &b.vc))
}

/// Messages of the partially replicated causal protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CausalPartialMsg {
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
        /// The writer's vector clock after the write (shared, see
        /// [`ControlRecord::vc`]).
        vc: Arc<VectorClock>,
        /// The wire size charged for `vc` (dense, or its [`DeltaVc`] size
        /// under a delta delivery mode).
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
        /// The writer's vector clock after the write (shared, see
        /// [`ControlRecord::vc`]).
        vc: Arc<VectorClock>,
        /// The wire size charged for `vc` (dense, or its [`DeltaVc`] size
        /// under a delta delivery mode).
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

impl CausalPartialMsg {
    const EMPTY_BATCH: &'static str =
        "ControlBatch is never empty (the protocol only flushes non-empty buffers)";

    /// The variable the message concerns (for a batch: its first record's).
    ///
    /// # Panics
    /// Panics on a hand-built empty `ControlBatch`; the protocol never
    /// produces one.
    pub fn var(&self) -> VarId {
        match self {
            CausalPartialMsg::Update { var, .. } | CausalPartialMsg::Control { var, .. } => *var,
            CausalPartialMsg::ControlBatch { records } => {
                records.first().expect(Self::EMPTY_BATCH).var
            }
            CausalPartialMsg::CatchupReq { .. } => {
                unreachable!("catch-up requests concern the stream, not one variable")
            }
        }
    }

    /// The writing process (for a batch: its first record's writer).
    ///
    /// # Panics
    /// Panics on a hand-built empty `ControlBatch`; the protocol never
    /// produces one.
    pub fn writer(&self) -> usize {
        match self {
            CausalPartialMsg::Update { writer, .. } | CausalPartialMsg::Control { writer, .. } => {
                *writer
            }
            CausalPartialMsg::ControlBatch { records } => {
                records.first().expect(Self::EMPTY_BATCH).writer
            }
            CausalPartialMsg::CatchupReq { from, .. } => *from,
        }
    }

    /// The attached vector clock (for a batch: its first record's).
    ///
    /// # Panics
    /// Panics on a hand-built empty `ControlBatch`; the protocol never
    /// produces one.
    pub fn vc(&self) -> &VectorClock {
        match self {
            CausalPartialMsg::Update { vc, .. } | CausalPartialMsg::Control { vc, .. } => vc,
            CausalPartialMsg::ControlBatch { records } => {
                &records.first().expect(Self::EMPTY_BATCH).vc
            }
            CausalPartialMsg::CatchupReq { vc, .. } => vc,
        }
    }
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
pub struct CausalPartialNode {
    me: ProcId,
    /// `replicas[x]`: the processes replicating variable `x`, in id order
    /// — one table shared by all nodes of a deployment.
    replicas: Arc<[Vec<NodeId>]>,
    store: BTreeMap<VarId, Value>,
    vc: VectorClock,
    pending: Vec<CausalPartialMsg>,
    control: ControlStats,
    delivered_updates: u64,
    delivered_control: u64,
    /// Whether control records are batched per destination.
    batching: bool,
    /// Whether broadcast clocks are charged at their delta-encoded size.
    delta: bool,
    /// The stamp of this node's previous write — the reference every
    /// destination already holds (each destination sees this writer's
    /// full write stream, as updates or control records), so the next
    /// write's clock can be charged as a delta against it.
    prev_stamp: Arc<VectorClock>,
    /// Per-destination buffers of not-yet-sent control records (batching
    /// mode only; indexed by destination process id, own slot unused).
    buffers: Vec<Vec<ControlRecord>>,
    /// Whether a flush timer is currently pending.
    flush_armed: bool,
    /// This node's own writes since the last cut (variable, value, the
    /// write's clock stamp), in program order — the material catch-up
    /// responses are served from. Entry `k` is the write that set this
    /// node's own clock entry to `k`; its stamp is the one the write's
    /// updates and records carry, and dies with the entry at the next cut.
    log: RecoveryLog<(VarId, i64, Arc<VectorClock>)>,
}

impl CausalPartialNode {
    /// Build the node for process `me` under the given distribution, with
    /// control-record batching per `delivery`.
    pub fn new(me: ProcId, dist: &Distribution, delivery: DeliveryMode) -> Self {
        Self::with_replicas(me, dist.process_count(), replica_table(dist), delivery)
    }

    fn with_replicas(
        me: ProcId,
        n: usize,
        replicas: Arc<[Vec<NodeId>]>,
        delivery: DeliveryMode,
    ) -> Self {
        CausalPartialNode {
            me,
            replicas,
            store: BTreeMap::new(),
            vc: VectorClock::new(n),
            pending: Vec::new(),
            control: ControlStats::new(),
            delivered_updates: 0,
            delivered_control: 0,
            batching: delivery.batching,
            delta: delivery.delta,
            prev_stamp: Arc::new(VectorClock::new(n)),
            buffers: vec![Vec::new(); n],
            flush_armed: false,
            log: RecoveryLog::new(),
        }
    }

    /// Whether process `p` replicates `var`.
    fn is_replica(&self, p: usize, var: VarId) -> bool {
        (self.replicas.get(var.index())).is_some_and(|r| r.binary_search(&NodeId(p)).is_ok())
    }

    /// The node's current vector clock.
    pub fn clock(&self) -> &VectorClock {
        &self.vc
    }

    /// Data updates applied so far.
    pub fn delivered_updates(&self) -> u64 {
        self.delivered_updates
    }

    /// Control records processed so far — each one is metadata about a
    /// variable this node does not replicate.
    pub fn delivered_control(&self) -> u64 {
        self.delivered_control
    }

    /// Messages buffered awaiting causal delivery.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Control records buffered for later sending (0 unless batching).
    pub fn buffered_records(&self) -> usize {
        self.buffers.iter().map(Vec::len).sum()
    }

    fn apply(&mut self, msg: &CausalPartialMsg) {
        match msg {
            CausalPartialMsg::Update { var, value, vc, .. } => {
                self.store.insert(*var, Value::Int(*value));
                self.vc.deliver(vc, msg.writer());
                self.delivered_updates += 1;
            }
            CausalPartialMsg::Control { vc, .. } => {
                self.vc.deliver(vc, msg.writer());
                self.delivered_control += 1;
            }
            CausalPartialMsg::ControlBatch { .. } | CausalPartialMsg::CatchupReq { .. } => {
                unreachable!("batches are decomposed on receipt and requests answered on receipt")
            }
        }
    }

    /// Whether the writer's `vc[writer]`-th write is already reflected in
    /// the local clock — i.e. this message or record is a duplicate (a
    /// replay, a parked late delivery, or a catch-up overlap). Applying it
    /// again would be wrong; discarding it is always safe.
    fn already_seen(&self, writer: usize, vc: &VectorClock) -> bool {
        vc.get(writer) <= self.vc.get(writer)
    }

    fn deliver_ready(&mut self) {
        loop {
            let ready = self
                .pending
                .iter()
                .position(|m| self.vc.deliverable_from(m.vc(), m.writer()));
            match ready {
                Some(i) => {
                    let msg = self.pending.remove(i);
                    self.apply(&msg);
                    // Applying a message may turn other pending copies of
                    // the same write permanently stale — purge them so
                    // duplicates cannot pile up.
                    let vc = &self.vc;
                    self.pending
                        .retain(|m| m.vc().get(m.writer()) > vc.get(m.writer()));
                }
                None => break,
            }
        }
    }

    /// Hand a received (charged, not stale) message to causal delivery:
    /// applied at once when it is in order and nothing is waiting — the
    /// common case — and parked in `pending` otherwise.
    fn enqueue(&mut self, msg: CausalPartialMsg) {
        if self.pending.is_empty() && self.vc.deliverable_from(msg.vc(), msg.writer()) {
            self.apply(&msg);
        } else {
            self.pending.push(msg);
        }
    }

    /// Enqueue one control record for causal delivery, charging `bytes` of
    /// received control information to its variable. Stale records
    /// (duplicates of already-applied writes) are discarded uncharged.
    fn receive_record(&mut self, record: ControlRecord, bytes: usize) {
        if self.already_seen(record.writer, &record.vc) {
            return;
        }
        self.control.charge_received(record.var, bytes);
        self.enqueue(CausalPartialMsg::Control {
            writer: record.writer,
            var: record.var,
            vc: record.vc,
            encoded: record.encoded,
        });
    }

    /// Flush every buffer holding at least `at_least ≥ 1` records — 1 at
    /// the timer and on restart (every obligation), [`MAX_BATCH`] for the
    /// ones a write just filled. Destinations owed the same writes in the
    /// same order (the same shared stamps, compared by pointer) share one
    /// [`CausalPartialMsg::ControlBatch`], handed over as one
    /// multi-destination send; a destination with a list of its own gets
    /// a private batch. Charges stay per destination per record.
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
}

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
                vc,
                encoded,
                piggyback,
            } => {
                if self.already_seen(writer, &vc) {
                    // Idempotence guard: a duplicate of an applied write.
                    // Its piggybacked records (the writer's own, buffered
                    // strictly earlier in its stream) are stale too.
                    return;
                }
                self.control.charge_received(var, encoded + 8);
                // Piggybacked records precede their carrier in the
                // writer's stream; enqueue them first so per-writer order
                // is preserved even before the causal check runs.
                for record in piggyback {
                    self.receive_record(record, RECORD_DELTA_BYTES);
                }
                self.enqueue(CausalPartialMsg::Update {
                    writer,
                    var,
                    value,
                    vc,
                    encoded,
                    piggyback: Vec::new(),
                });
            }
            CausalPartialMsg::Control {
                writer,
                var,
                vc,
                encoded,
            } => {
                let record = ControlRecord {
                    writer,
                    var,
                    vc,
                    encoded,
                };
                let bytes = record.full_bytes();
                self.receive_record(record, bytes);
            }
            CausalPartialMsg::ControlBatch { records } => {
                for (i, record) in records.iter().enumerate() {
                    self.receive_record(record.clone(), record.batch_bytes(i));
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
                    let encoded = DeltaVc::charged_bytes(self.delta, base, stamp);
                    base = stamp.as_ref();
                    let vc = Arc::clone(stamp);
                    let resend = if self.is_replica(from, var) {
                        CausalPartialMsg::Update {
                            writer: me,
                            var,
                            value,
                            vc,
                            encoded,
                            piggyback: Vec::new(),
                        }
                    } else {
                        CausalPartialMsg::Control {
                            writer: me,
                            var,
                            vc,
                            encoded,
                        }
                    };
                    self.control.charge_sent(var, encoded + 8);
                    ctx.send(NodeId(from), resend);
                }
            }
        }
        self.deliver_ready();
    }

    fn on_timer(&mut self, ctx: &mut NodeContext<CausalPartialMsg>, tag: u64) {
        if tag == FLUSH_TAG {
            self.flush_armed = false;
            self.flush(ctx, 1);
        }
    }
}

impl McsNode for CausalPartialNode {
    type Msg = CausalPartialMsg;

    fn local_read(&self, var: VarId) -> Value {
        self.store.get(&var).copied().unwrap_or(Value::Bottom)
    }

    fn local_write(&mut self, ctx: &mut NodeContext<CausalPartialMsg>, var: VarId, value: i64) {
        self.vc.increment(self.me.index());
        self.store.insert(var, Value::Int(value));
        self.control.track(var);
        // The write's clock, copied once: every update and record sent
        // below, the recovery log and the next write's delta reference
        // share this stamp.
        let stamp = Arc::new(self.vc.clone());
        let encoded = DeltaVc::charged_bytes(self.delta, &self.prev_stamp, &stamp);
        self.prev_stamp = Arc::clone(&stamp);
        self.log.push((var, value, Arc::clone(&stamp)));
        let update_bytes = encoded + 8;
        let record = ControlRecord {
            writer: self.me.index(),
            var,
            vc: Arc::clone(&stamp),
            encoded,
        };
        let me = NodeId(self.me.index());
        let table = Arc::clone(&self.replicas);
        let replicas: &[NodeId] = table.get(var.index()).map_or(&[], Vec::as_slice);
        let replica_targets = replicas.iter().copied().filter(|&t| t != me);
        let other_targets = (0..self.buffers.len())
            .map(NodeId)
            .filter(|&t| t != me && replicas.binary_search(&t).is_err());

        if !self.batching {
            // Classical wire format: one full message per destination.
            let update = CausalPartialMsg::Update {
                writer: self.me.index(),
                var,
                value,
                vc: Arc::clone(&stamp),
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
                vc: stamp,
                encoded,
            };
            for _ in other_targets.clone() {
                self.control.charge_sent(var, record.full_bytes());
            }
            ctx.send_multi(other_targets, control);
            return;
        }

        // Batching: buffer the record per non-replica (flushing the
        // destinations that hit the size cap)…
        let mut full = false;
        for t in other_targets {
            let buffer = &mut self.buffers[t.index()];
            buffer.push(record.clone());
            full |= buffer.len() >= MAX_BATCH;
        }
        if full {
            self.flush(ctx, MAX_BATCH);
        }
        // …and send the update, piggybacking each destination's buffered
        // records on its copy. Destinations with empty buffers share one
        // multi-destination send (so a multicast wire can deduplicate the
        // identical payload); the rest get a personalized copy.
        let mut clean = Vec::new();
        for t in replica_targets {
            if self.buffers[t.index()].is_empty() {
                self.control.charge_sent(var, update_bytes);
                clean.push(t);
            } else {
                let piggyback = std::mem::take(&mut self.buffers[t.index()]);
                self.control.charge_sent(var, update_bytes);
                for r in &piggyback {
                    self.control.charge_sent(r.var, RECORD_DELTA_BYTES);
                }
                ctx.send(
                    t,
                    CausalPartialMsg::Update {
                        writer: self.me.index(),
                        var,
                        value,
                        vc: Arc::clone(&stamp),
                        encoded,
                        piggyback,
                    },
                );
            }
        }
        ctx.send_multi(
            clean,
            CausalPartialMsg::Update {
                writer: self.me.index(),
                var,
                value,
                vc: stamp,
                encoded,
                piggyback: Vec::new(),
            },
        );
        // A zero-delay timer drains whatever the piggybacks did not:
        // running the network to quiescence therefore always delivers
        // every record, so settle points see the same state as the
        // unbatched wire.
        if !self.flush_armed && self.buffers.iter().any(|b| !b.is_empty()) {
            self.flush_armed = true;
            ctx.set_timer(SimDuration::from_nanos(0), FLUSH_TAG);
        }
    }

    fn replicates(&self, var: VarId) -> bool {
        self.is_replica(self.me.index(), var)
    }

    fn control(&self) -> &ControlStats {
        &self.control
    }

    fn on_restart(&mut self, ctx: &mut NodeContext<CausalPartialMsg>) {
        // The crash killed any armed flush timer, but the buffered
        // records are persisted state: flush every obligation now so no
        // destination waits forever for records only this node holds.
        self.flush_armed = false;
        self.flush(ctx, 1);
        // Then re-request everything missed while down — peers answer
        // with updates or control records carrying original timestamps.
        let req = CausalPartialMsg::CatchupReq {
            from: self.me.index(),
            vc: self.vc.clone(),
        };
        let targets = (0..self.buffers.len())
            .filter(|&p| p != self.me.index())
            .map(NodeId);
        ctx.send_multi(targets, req);
    }

    fn checkpoint(&mut self) {
        self.log.cut();
    }

    fn recovery(&self) -> RecoveryState {
        self.log.state()
    }
}

/// Marker type selecting the partially replicated causal protocol.
#[derive(Clone, Copy, Debug, Default)]
pub struct CausalPartial;

impl ProtocolSpec for CausalPartial {
    type Msg = CausalPartialMsg;
    type Node = CausalPartialNode;
    const KIND: ProtocolKind = ProtocolKind::CausalPartial;

    fn build_nodes(dist: &Distribution, delivery: DeliveryMode) -> Vec<CausalPartialNode> {
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
    use simnet::SimTime;

    fn control_msg(writer: usize, var: VarId, vc: VectorClock) -> CausalPartialMsg {
        let encoded = vc.wire_bytes();
        CausalPartialMsg::Control {
            writer,
            var,
            vc: vc.into(),
            encoded,
        }
    }

    #[test]
    fn control_only_messages_carry_no_data() {
        let upd = CausalPartialMsg::Update {
            writer: 0,
            var: VarId(0),
            value: 1,
            vc: VectorClock::new(4).into(),
            encoded: 4 * 8,
            piggyback: Vec::new(),
        };
        let ctl = control_msg(0, VarId(0), VectorClock::new(4));
        assert_eq!(upd.data_bytes(), 8);
        assert_eq!(ctl.data_bytes(), 0);
        assert_eq!(upd.control_bytes(), ctl.control_bytes());
        assert_eq!(ctl.control_bytes(), 4 * 8 + 8);
        assert_eq!(upd.var(), VarId(0));
        assert_eq!(ctl.writer(), 0);
    }

    #[test]
    fn batches_and_piggybacks_delta_encode_their_records() {
        let record = |w: usize| ControlRecord::dense(w, VarId(1), VectorClock::new(4));
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
        assert_eq!(triple.writer(), 0);
        assert_eq!(triple.var(), VarId(1));
        // A piggybacked record costs its delta on top of the update.
        let upd = CausalPartialMsg::Update {
            writer: 0,
            var: VarId(0),
            value: 1,
            vc: VectorClock::new(4).into(),
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
        let mut nodes = CausalPartial::build_nodes(&dist, DeliveryMode::UNICAST);
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
        let mut nodes = CausalPartial::build_nodes(&dist, DeliveryMode::BATCHED);
        let mut ctx = NodeContext::new(NodeId(0), SimTime::ZERO);
        nodes[0].local_write(&mut ctx, VarId(0), 5);
        // Only the update leaves immediately; the two records wait.
        assert_eq!(ctx.queued_messages(), 1);
        assert_eq!(nodes[0].buffered_records(), 2);
        // The flush timer drains both buffers as one batch each.
        let mut flush_ctx = NodeContext::new(NodeId(0), SimTime::ZERO);
        nodes[0].on_timer(&mut flush_ctx, FLUSH_TAG);
        assert_eq!(flush_ctx.queued_messages(), 2);
        assert_eq!(nodes[0].buffered_records(), 0);
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
        let mut nodes = CausalPartial::build_nodes(&dist, DeliveryMode::BATCHED);
        let mut ctx = NodeContext::new(NodeId(0), SimTime::ZERO);
        // Writing x0 buffers records for p2 and p3.
        nodes[0].local_write(&mut ctx, VarId(0), 5);
        assert_eq!(nodes[0].buffered_records(), 2);
        // Writing x1 piggybacks p2's record on its update; p1 (not a
        // replica of x1) and p3 keep waiting.
        nodes[0].local_write(&mut ctx, VarId(1), 6);
        assert_eq!(nodes[0].buffered_records(), 3); // p1(x1) + p3(x0, x1)
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
        let mut node = CausalPartialNode::new(ProcId(0), &dist, DeliveryMode::BATCHED);
        let mut ctx = NodeContext::new(NodeId(0), SimTime::ZERO);
        for i in 0..MAX_BATCH as i64 {
            node.local_write(&mut ctx, VarId(0), i);
        }
        // The cap flushed p1's buffer exactly once.
        assert_eq!(node.buffered_records(), 0);
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
        CausalPartial::build_nodes(&dist, DeliveryMode::BATCHED)
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
        assert_eq!(nodes[0].buffered_records(), 0);
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
        assert_eq!(nodes[0].buffered_records(), 5);
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
        assert_eq!(nodes[0].buffered_records(), 0);
    }

    #[test]
    fn received_batches_deliver_record_by_record() {
        let mut dist = Distribution::new(3, 1);
        dist.assign(ProcId(0), VarId(0));
        dist.assign(ProcId(1), VarId(0));
        let mut node = CausalPartialNode::new(ProcId(2), &dist, DeliveryMode::BATCHED);
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
                    ControlRecord::dense(0, VarId(0), vc1),
                    ControlRecord::dense(0, VarId(0), vc2),
                ]
                .into(),
            },
        );
        assert_eq!(node.delivered_control(), 2);
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
        let mut node = CausalPartialNode::new(ProcId(2), &dist, DeliveryMode::UNICAST);
        let mut vc = VectorClock::new(3);
        vc.increment(0);
        let mut ctx = NodeContext::new(NodeId(2), SimTime::ZERO);
        node.on_message(&mut ctx, NodeId(0), control_msg(0, VarId(0), vc));
        assert_eq!(node.delivered_control(), 1);
        assert_eq!(node.delivered_updates(), 0);
        assert_eq!(node.local_read(VarId(0)), Value::Bottom);
        assert_eq!(node.clock().get(0), 1);
        // p2 does not replicate x0 yet had to process metadata about it.
        assert!(node.control().tracks(VarId(0)));
        assert!(!node.replicates(VarId(0)));
    }

    #[test]
    fn out_of_order_control_waits_for_dependencies() {
        let dist = Distribution::new(2, 1);
        let mut node = CausalPartialNode::new(ProcId(1), &dist, DeliveryMode::UNICAST);
        let mut vc2 = VectorClock::new(2);
        vc2.increment(0);
        vc2.increment(0);
        let mut ctx = NodeContext::new(NodeId(1), SimTime::ZERO);
        node.on_message(&mut ctx, NodeId(0), control_msg(0, VarId(0), vc2));
        assert_eq!(node.pending_count(), 1);
        let mut vc1 = VectorClock::new(2);
        vc1.increment(0);
        node.on_message(&mut ctx, NodeId(0), control_msg(0, VarId(0), vc1));
        assert_eq!(node.pending_count(), 0);
        assert_eq!(node.delivered_control(), 2);
        assert_eq!(CausalPartial::KIND, ProtocolKind::CausalPartial);
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
            let mut nodes = CausalPartial::build_nodes(&dist, mode);
            let mut ctx = NodeContext::new(NodeId(0), SimTime::ZERO);
            for v in 1..=4 {
                nodes[0].local_write(&mut ctx, VarId(0), v);
            }
            let clocks: Vec<VectorClock> = ctx
                .outgoing()
                .iter()
                .map(|o| match o {
                    simnet::Outgoing::One(_, m) | simnet::Outgoing::Many(_, m) => m.vc().clone(),
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
            let mut nodes = CausalPartial::build_nodes(&dist, mode);
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
            let resent: Vec<(Arc<VectorClock>, usize)> = resp_ctx
                .outgoing()
                .iter()
                .map(|o| match o {
                    simnet::Outgoing::One(
                        NodeId(2),
                        CausalPartialMsg::Control { vc, encoded, .. }
                        | CausalPartialMsg::Update { vc, encoded, .. },
                    ) => (vc.clone(), *encoded),
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
}
