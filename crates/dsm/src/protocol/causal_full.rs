//! Causal consistency with full replication.
//!
//! The classical implementation the paper cites as the norm (\[3\], \[4\],
//! \[8\]): every node replicates every variable; each update carries the
//! writer's vector clock and is broadcast to all other nodes; delivery is
//! delayed until the causal-broadcast condition holds, so applying updates
//! in delivery order yields a causally consistent memory.
//!
//! The cost profile is the baseline the paper argues against for large
//! systems: every node receives every update (data **and** an `O(n)`
//! vector clock of control information), regardless of whether its
//! application process ever touches the variable.
//!
//! ## Batching (`DeliveryMode::batching`)
//!
//! A flush window's updates leave as one shared [`CausalFullMsg::Batch`]
//! to all peers (once per tree edge on a multicast wire). Each write is
//! still charged per destination when written, a batch's [`WireSize`] is
//! its members' sum, and each member is received like an `Update`. A
//! restart flushes the unsent updates its crash snapshot held.
//!
//! Receipt, causal delivery and the replica itself are the shared
//! `CausalReplica` kernel: updates are applied into a dense store, and
//! an update whose writer applied nothing since its previous write is
//! found in order by one comparison instead of an `n`-entry clock scan.

use crate::clock::{DeltaVc, VectorClock};
use crate::control::ControlStats;
use crate::protocol::causal::{CausalReplica, Stamp};
use crate::protocol::{FlushWindow, McsNode, RecoveryLog, RecoveryState};
use histories::{Distribution, ProcId, Value, VarId};
use simnet::{DeliveryMode, Node, NodeContext, NodeId, WireSize};
use std::sync::Arc;

/// A causally timestamped update.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct CausalMsg {
    /// The writing process.
    pub writer: usize,
    /// The written variable.
    pub var: VarId,
    /// The written value.
    pub value: i64,
    /// The write's [`Stamp`]: the writer's vector clock *after*
    /// incrementing its own entry — stamped once per write and shared by
    /// every copy of the update (one per destination and per relay fork).
    pub stamp: Arc<Stamp>,
    /// The wire size charged for the stamp's clock: its dense size
    /// classically, or its [`DeltaVc`] size against the writer's previous
    /// broadcast under a delta delivery mode. Accounting only — the dense
    /// clock is what delivery logic reads, so histories are
    /// mode-independent.
    pub encoded: usize,
}

impl CausalMsg {
    /// Control bytes: the (possibly delta-encoded) vector clock plus
    /// writer and variable ids.
    pub(crate) fn control_size(&self) -> usize {
        self.encoded + 8
    }
}

impl WireSize for CausalMsg {
    fn data_bytes(&self) -> usize {
        8
    }
    fn control_bytes(&self) -> usize {
        self.control_size()
    }
}

/// Wire messages of the fully replicated causal protocol: the classical
/// broadcast update, plus the catch-up handshake a node runs after a
/// crash-restart (re-requesting every update it missed while down; each
/// peer answers from its persisted log of *own* writes, with the original
/// timestamps, so causal delivery at the requester is untouched).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum CausalFullMsg {
    /// A broadcast update (the only message of the fault-free protocol).
    Update(CausalMsg),
    /// One flush window's updates, in write order (batching only).
    Batch(Arc<[CausalMsg]>),
    /// "Resend me everything of yours I have not seen": the restarted
    /// node's vector clock tells each peer exactly which of its own
    /// writes are missing.
    CatchupReq {
        /// The restarted process.
        from: usize,
        /// Its restored vector clock.
        vc: VectorClock,
    },
}

impl WireSize for CausalFullMsg {
    fn data_bytes(&self) -> usize {
        match self {
            CausalFullMsg::Update(m) => m.data_bytes(),
            CausalFullMsg::Batch(ms) => ms.iter().map(WireSize::data_bytes).sum(),
            CausalFullMsg::CatchupReq { .. } => 0,
        }
    }
    fn control_bytes(&self) -> usize {
        match self {
            CausalFullMsg::Update(m) => m.control_bytes(),
            CausalFullMsg::Batch(ms) => ms.iter().map(WireSize::control_bytes).sum(),
            CausalFullMsg::CatchupReq { vc, .. } => vc.wire_bytes() + 8,
        }
    }
}

/// The fully replicated causal MCS process.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct CausalFullNode {
    me: ProcId,
    /// Clock, store and parked updates (the shared causal kernel).
    replica: CausalReplica,
    control: ControlStats,
    /// This node's own writes since the last cut, in program order — the
    /// material catch-up responses are served from. Entry `k` is the write
    /// that set this node's own clock entry to `k`; it shares the clock
    /// stamp of the write's messages, and dies at the next cut.
    log: RecoveryLog<CausalMsg>,
    /// Whether broadcast clocks are charged at their delta-encoded size
    /// (against the previous broadcast's stamp, which every destination
    /// already holds: writer streams are FIFO).
    delta: bool,
    /// Every other process: the destinations of each broadcast.
    peers: Vec<NodeId>,
    /// The flush window and its updates (`None`: broadcasts leave at once).
    window: FlushWindow,
    unsent: Option<Vec<CausalMsg>>,
}

impl CausalFullNode {
    /// Build the node for process `me` in a system of `n` processes,
    /// charging broadcast clocks at their classical dense size, or at their
    /// [`DeltaVc`] size when `delta` is set.
    pub(crate) fn with_delta(me: ProcId, n: usize, delta: bool) -> Self {
        CausalFullNode {
            me,
            replica: CausalReplica::new(n),
            control: ControlStats::new(),
            log: RecoveryLog::new(),
            delta,
            peers: (0..n).filter(|&i| i != me.index()).map(NodeId).collect(),
            window: FlushWindow::default(),
            unsent: None,
        }
    }

    /// The node's current vector clock.
    pub(crate) fn clock(&self) -> &VectorClock {
        self.replica.clock()
    }

    /// Discard a duplicate uncharged; apply in order, else park.
    fn receive(&mut self, msg: &CausalMsg) {
        let fresh = (self.replica).receive(msg.writer, msg.var, Some(msg.value), &msg.stamp);
        if fresh {
            self.control.charge_received(msg.var, msg.control_size());
        }
    }

    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn flush(&mut self, ctx: &mut NodeContext<CausalFullMsg>) {
        if let Some(unsent) = self.unsent.as_mut().filter(|u| !u.is_empty()) {
            #[expect(
                clippy::disallowed_methods,
                reason = "the batching flush runs once per window, not once per event, and builds the batch it sends"
            )]
            let batch = CausalFullMsg::Batch(unsent.drain(..).collect());
            ctx.send_multi(self.peers.iter().copied(), batch);
        }
    }
}

#[deny(
    clippy::disallowed_macros,
    clippy::disallowed_methods,
    clippy::indexing_slicing
)]
impl Node<CausalFullMsg> for CausalFullNode {
    fn on_message(
        &mut self,
        ctx: &mut NodeContext<CausalFullMsg>,
        _from: NodeId,
        msg: CausalFullMsg,
    ) {
        match msg {
            CausalFullMsg::Update(msg) => self.receive(&msg),
            CausalFullMsg::Batch(batch) => {
                for msg in batch.iter() {
                    self.receive(msg);
                }
            }
            CausalFullMsg::CatchupReq { from, vc } => {
                // Resend every own write the requester's clock is missing,
                // with its original timestamp. Under delta delivery the
                // resends are chained through the cheaper-of-two encoder
                // like live traffic: the first clock is encoded against
                // the requester's restored clock — carried by the request,
                // so it is exactly the base the decoder holds — and each
                // later one against the previous resend, sound because
                // the link delivers them FIFO.
                let mut base: &VectorClock = &vc;
                for (_, m) in self.log.after(vc.get(self.me.index())) {
                    let encoded = DeltaVc::charged_bytes(self.delta, base, m.stamp.clock());
                    base = m.stamp.clock();
                    let m = CausalMsg {
                        encoded,
                        ..m.clone()
                    };
                    self.control.charge_sent(m.var, m.control_size());
                    ctx.send(NodeId(from), CausalFullMsg::Update(m));
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeContext<CausalFullMsg>, tag: u64) {
        if self.window.closes(tag) {
            self.flush(ctx);
        }
    }
}

impl McsNode for CausalFullNode {
    type Msg = CausalFullMsg;

    fn local_read(&self, var: VarId) -> Value {
        self.replica.read(var)
    }

    fn local_write(&mut self, ctx: &mut NodeContext<CausalFullMsg>, var: VarId, value: i64) {
        // The write's clock, copied once: the messages, the recovery log
        // and the next write's delta reference all share this stamp.
        let (stamp, encoded) = self.replica.write(self.me.index(), var, value, self.delta);
        self.control.track(var);
        let msg = CausalMsg {
            writer: self.me.index(),
            var,
            value,
            stamp,
            encoded,
        };
        self.log.push(msg.clone());
        let bytes = msg.control_size();
        // One logical record per destination (the control accounting the
        // paper reasons about), handed to the transport as one
        // multi-destination send so a multicast wire can deduplicate the
        // identical payload along its broadcast tree.
        for _ in &self.peers {
            self.control.charge_sent(var, bytes);
        }
        if let Some(unsent) = &mut self.unsent {
            unsent.push(msg);
            self.window.arm(ctx);
        } else {
            ctx.send_multi(self.peers.iter().copied(), CausalFullMsg::Update(msg));
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
    fn on_restart(&mut self, ctx: &mut NodeContext<CausalFullMsg>) {
        // The crash killed the flush timer, not the unsent updates.
        self.window = FlushWindow::default();
        self.flush(ctx);
        // Everything delivered while down was lost; the restored clock
        // tells each peer exactly which of its writes to resend.
        let req = CausalFullMsg::CatchupReq {
            from: self.me.index(),
            vc: self.clock().clone(),
        };
        ctx.send_multi(self.peers.iter().copied(), req);
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

impl CausalFullNode {
    /// One node per process of `dist`, in process-id order. Honours
    /// `delivery.batching` (a flush window's updates go as one batch) and
    /// `delivery.delta` (each clock charged at its [`DeltaVc`] size).
    pub(crate) fn build_nodes(dist: &Distribution, delivery: DeliveryMode) -> Vec<Self> {
        let n = dist.process_count();
        (0..n)
            .map(|i| CausalFullNode {
                unsent: delivery.batching.then(Vec::new),
                ..CausalFullNode::with_delta(ProcId(i), n, delivery.delta)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::window::FLUSH_TAG;
    use proptest::prelude::*;
    use simnet::{Outgoing, SimTime};

    /// An update charged at the classical dense clock size, its stamp
    /// checked by the full scan.
    fn dense(writer: usize, var: VarId, value: i64, vc: VectorClock) -> CausalMsg {
        let encoded = vc.wire_bytes();
        CausalMsg {
            writer,
            var,
            value,
            stamp: Arc::new(Stamp::new(vc)),
            encoded,
        }
    }

    #[test]
    fn control_bytes_scale_with_system_size() {
        let small = dense(0, VarId(0), 1, VectorClock::new(3));
        let big = dense(0, VarId(0), 1, VectorClock::new(30));
        assert_eq!(small.data_bytes(), 8);
        assert_eq!(small.control_bytes(), 3 * 8 + 8);
        assert_eq!(big.control_bytes(), 30 * 8 + 8);
        assert!(big.total_bytes() > small.total_bytes());
    }

    #[test]
    fn node_replicates_everything_and_starts_empty() {
        let node = CausalFullNode::with_delta(ProcId(1), 4, false);
        assert!(node.replicates(VarId(99)));
        assert_eq!(node.local_read(VarId(0)), Value::Bottom);
        assert_eq!(node.clock().total(), 0);
        assert_eq!(node.replica.pending_count(), 0);
        assert_eq!(node.clock().total(), 0);
    }

    fn write_msg(writer: usize, n: usize, writes: u64, var: VarId, value: i64) -> CausalMsg {
        let mut vc = VectorClock::new(n);
        for _ in 0..writes {
            vc.increment(writer);
        }
        dense(writer, var, value, vc)
    }

    #[test]
    fn out_of_order_messages_wait_for_dependencies() {
        let mut node = CausalFullNode::with_delta(ProcId(2), 3, false);
        // Writer 0's second write (depends on its first, unseen here).
        let m2 = write_msg(0, 3, 2, VarId(0), 2);
        // Deliver the dependent message first: it must be buffered.
        let mut ctx_unused = NodeContext::new(NodeId(2), simnet::SimTime::ZERO);
        node.on_message(&mut ctx_unused, NodeId(0), CausalFullMsg::Update(m2));
        assert_eq!(node.replica.pending_count(), 1);
        assert_eq!(node.local_read(VarId(0)), Value::Bottom);
        // Now the first write arrives; both become deliverable in order.
        let m1 = write_msg(0, 3, 1, VarId(0), 1);
        node.on_message(&mut ctx_unused, NodeId(0), CausalFullMsg::Update(m1));
        assert_eq!(node.replica.pending_count(), 0);
        assert_eq!(node.clock().total(), 2);
        assert_eq!(node.local_read(VarId(0)), Value::Int(2));
    }

    #[test]
    fn duplicate_deliveries_are_idempotent() {
        let mut node = CausalFullNode::with_delta(ProcId(1), 2, false);
        let mut ctx = NodeContext::new(NodeId(1), simnet::SimTime::ZERO);
        let m1 = write_msg(0, 2, 1, VarId(0), 1);
        let m2 = write_msg(0, 2, 2, VarId(0), 2);
        node.on_message(&mut ctx, NodeId(0), CausalFullMsg::Update(m1.clone()));
        node.on_message(&mut ctx, NodeId(0), CausalFullMsg::Update(m2.clone()));
        let settled = node.clone();
        // Redeliver both, in both orders: nothing changes.
        node.on_message(&mut ctx, NodeId(0), CausalFullMsg::Update(m2));
        node.on_message(&mut ctx, NodeId(0), CausalFullMsg::Update(m1));
        assert_eq!(node, settled);
        assert_eq!(node.clock().total(), 2);
        assert_eq!(node.local_read(VarId(0)), Value::Int(2));
    }

    #[test]
    fn stale_pending_duplicates_are_purged_on_apply() {
        let mut node = CausalFullNode::with_delta(ProcId(1), 2, false);
        let mut ctx = NodeContext::new(NodeId(1), simnet::SimTime::ZERO);
        let m2 = write_msg(0, 2, 2, VarId(0), 2);
        // Two copies of write 2 arrive before write 1: both go pending.
        node.on_message(&mut ctx, NodeId(0), CausalFullMsg::Update(m2.clone()));
        node.on_message(&mut ctx, NodeId(0), CausalFullMsg::Update(m2));
        assert_eq!(node.replica.pending_count(), 2);
        // Write 1 arrives: one copy of write 2 applies, the other is
        // purged rather than lingering forever.
        let m1 = write_msg(0, 2, 1, VarId(0), 1);
        node.on_message(&mut ctx, NodeId(0), CausalFullMsg::Update(m1));
        assert_eq!(node.replica.pending_count(), 0);
        assert_eq!(node.clock().total(), 2);
    }

    #[test]
    fn catchup_resends_exactly_the_missing_own_writes() {
        // Writer p0 logs three writes.
        let dist = Distribution::full(3, 2);
        let mut nodes = CausalFullNode::build_nodes(&dist, simnet::DeliveryMode::UNICAST);
        let mut ctx = NodeContext::new(NodeId(0), simnet::SimTime::ZERO);
        for v in 1..=3 {
            nodes[0].local_write(&mut ctx, VarId(0), v);
        }
        // p2 restarts knowing only p0's first write.
        let mut restored = VectorClock::new(3);
        restored.increment(0);
        let mut resp_ctx = NodeContext::new(NodeId(0), simnet::SimTime::ZERO);
        nodes[0].on_message(
            &mut resp_ctx,
            NodeId(2),
            CausalFullMsg::CatchupReq {
                from: 2,
                vc: restored,
            },
        );
        // Writes 2 and 3 are resent to p2, in order, with original clocks.
        let resent: Vec<i64> = resp_ctx
            .outgoing()
            .iter()
            .map(|o| match o {
                simnet::Outgoing::One(NodeId(2), CausalFullMsg::Update(m)) => m.value,
                other => panic!("unexpected response {other:?}"),
            })
            .collect();
        assert_eq!(resent, vec![2, 3]);
    }

    #[test]
    fn on_restart_broadcasts_a_catchup_request() {
        let mut node = CausalFullNode::with_delta(ProcId(1), 4, false);
        let mut ctx = NodeContext::new(NodeId(1), simnet::SimTime::ZERO);
        node.on_restart(&mut ctx);
        assert_eq!(ctx.queued_messages(), 3);
        assert!(ctx.outgoing().iter().all(|o| matches!(
            o,
            simnet::Outgoing::Many(_, CausalFullMsg::CatchupReq { from: 1, .. })
        )));
    }

    #[test]
    fn local_write_broadcasts_to_all_other_nodes() {
        let dist = Distribution::full(4, 2);
        let mut nodes = CausalFullNode::build_nodes(&dist, simnet::DeliveryMode::UNICAST);
        let mut ctx = NodeContext::new(NodeId(0), simnet::SimTime::ZERO);
        nodes[0].local_write(&mut ctx, VarId(1), 7);
        assert_eq!(ctx.queued_messages(), 3);
        assert!(matches!(
            ctx.outgoing()[0],
            simnet::Outgoing::Many(_, CausalFullMsg::Update(_))
        ));
        assert_eq!(nodes[0].local_read(VarId(1)), Value::Int(7));
        assert_eq!(nodes[0].clock().get(0), 1);
        assert_eq!(
            nodes[0].control().sent_bytes(VarId(1)),
            3 * (4 * 8 + 8) as u64
        );
    }

    #[test]
    fn delta_mode_charges_sparse_clocks_without_changing_what_is_sent() {
        let dist = Distribution::full(16, 2);
        let run = |delta: bool| {
            let mode = if delta {
                simnet::DeliveryMode::DELTA
            } else {
                simnet::DeliveryMode::UNICAST
            };
            let mut nodes = CausalFullNode::build_nodes(&dist, mode);
            let mut ctx = NodeContext::new(NodeId(0), simnet::SimTime::ZERO);
            for v in 1..=4 {
                nodes[0].local_write(&mut ctx, VarId(0), v);
            }
            let clocks: Vec<Arc<Stamp>> = ctx
                .outgoing()
                .iter()
                .map(|o| match o {
                    simnet::Outgoing::Many(_, CausalFullMsg::Update(m)) => m.stamp.clone(),
                    other => panic!("unexpected send {other:?}"),
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
        // Delta: each consecutive broadcast changes one entry → 4+12+8.
        assert_eq!(delta_bytes, 15 * 4 * (4 + 12 + 8));
    }

    #[test]
    fn catchup_resends_are_delta_chained_under_delta_mode() {
        // Regression test: recovery resends used to be charged at the
        // dense clock size even under delta delivery, although the
        // requester's restored clock (carried by the request) is a sound
        // decoder base and the FIFO link keeps the chain aligned.
        let dist = Distribution::full(3, 2);
        let run = |mode: simnet::DeliveryMode| {
            let mut nodes = CausalFullNode::build_nodes(&dist, mode);
            let mut ctx = NodeContext::new(NodeId(0), simnet::SimTime::ZERO);
            for v in 1..=2 {
                nodes[0].local_write(&mut ctx, VarId(0), v);
            }
            let mut resp_ctx = NodeContext::new(NodeId(0), simnet::SimTime::ZERO);
            nodes[0].on_message(
                &mut resp_ctx,
                NodeId(2),
                CausalFullMsg::CatchupReq {
                    from: 2,
                    vc: VectorClock::new(3),
                },
            );
            let resent: Vec<CausalMsg> = resp_ctx
                .outgoing()
                .iter()
                .map(|o| match o {
                    simnet::Outgoing::One(NodeId(2), CausalFullMsg::Update(m)) => m.clone(),
                    other => panic!("unexpected response {other:?}"),
                })
                .collect();
            assert_eq!(resent.len(), 2);
            resent
        };
        // Dense mode: both resends pay the full clock.
        for m in run(simnet::DeliveryMode::UNICAST) {
            assert_eq!(m.encoded, m.stamp.clock().wire_bytes());
        }
        // Delta mode: the chain starts at the requester's (empty) restored
        // clock, so each resend pays one changed entry — and never more
        // than the dense fallback.
        let mut base = VectorClock::new(3);
        for m in run(simnet::DeliveryMode::DELTA) {
            let vc = m.stamp.clock();
            assert_eq!(m.encoded, DeltaVc::encode(&base, vc).wire_bytes());
            assert!(m.encoded <= vc.wire_bytes());
            assert_eq!(m.encoded, 4 + 12);
            base.clone_from(vc);
        }
    }

    /// The batches among `out`, as (destinations, values), in send order.
    fn batches(out: &[simnet::Outgoing<CausalFullMsg>]) -> Vec<(Vec<usize>, Vec<i64>)> {
        out.iter()
            .filter_map(|o| match o {
                simnet::Outgoing::Many(ds, CausalFullMsg::Batch(ms)) => Some((
                    ds.iter().map(|d| d.index()).collect(),
                    ms.iter().map(|m| m.value).collect(),
                )),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_window_of_writes_leaves_as_one_batch_charged_like_single_updates() {
        let dist = Distribution::full(4, 2);
        let mut nodes = CausalFullNode::build_nodes(&dist, simnet::DeliveryMode::BATCHED);
        let mut unbatched = CausalFullNode::build_nodes(&dist, simnet::DeliveryMode::UNICAST);
        let mut ctx = NodeContext::new(NodeId(0), simnet::SimTime::ZERO);
        let mut unbatched_ctx = NodeContext::new(NodeId(0), simnet::SimTime::ZERO);
        for v in 1..=3 {
            nodes[0].local_write(&mut ctx, VarId(0), v);
            unbatched[0].local_write(&mut unbatched_ctx, VarId(0), v);
        }
        // Nothing leaves until the window closes; then one envelope.
        assert_eq!(ctx.queued_messages(), 0);
        assert_eq!(unbatched_ctx.outgoing().len(), 3);
        let mut flush_ctx = NodeContext::new(NodeId(0), simnet::SimTime::ZERO);
        nodes[0].on_timer(&mut flush_ctx, FLUSH_TAG);
        assert_eq!(
            batches(flush_ctx.outgoing()),
            vec![(vec![1, 2, 3], vec![1, 2, 3])]
        );
        assert_eq!(flush_ctx.outgoing().len(), 1);
        // Every destination is charged every write, exactly as unbatched…
        assert_eq!(nodes[0].control(), unbatched[0].control());
        assert_eq!(nodes[0].control().sent_entries(VarId(0)), 3 * 3);
        // …and the wire pays the same bytes for the batch as for the three.
        let wire = |out: &[simnet::Outgoing<CausalFullMsg>]| -> usize {
            out.iter()
                .map(|o| match o {
                    simnet::Outgoing::One(_, m) | simnet::Outgoing::Many(_, m) => m.total_bytes(),
                })
                .sum()
        };
        assert_eq!(wire(flush_ctx.outgoing()), wire(unbatched_ctx.outgoing()));
        // A closed window stays closed until the next write.
        let mut idle = NodeContext::new(NodeId(0), simnet::SimTime::ZERO);
        nodes[0].on_timer(&mut idle, FLUSH_TAG);
        assert_eq!(idle.queued_messages(), 0);
    }

    #[test]
    fn a_received_batch_delivers_in_order_and_a_duplicate_changes_nothing() {
        let dist = Distribution::full(3, 1);
        let mut nodes = CausalFullNode::build_nodes(&dist, simnet::DeliveryMode::BATCHED);
        let mut ctx = NodeContext::new(NodeId(0), simnet::SimTime::ZERO);
        for v in 1..=3 {
            nodes[0].local_write(&mut ctx, VarId(0), v);
        }
        let mut flush_ctx = NodeContext::new(NodeId(0), simnet::SimTime::ZERO);
        nodes[0].on_timer(&mut flush_ctx, FLUSH_TAG);
        let batch = match &flush_ctx.outgoing()[0] {
            simnet::Outgoing::Many(_, m) => m.clone(),
            other => panic!("unexpected send {other:?}"),
        };
        let mut rx_ctx = NodeContext::new(NodeId(1), simnet::SimTime::ZERO);
        nodes[1].on_message(&mut rx_ctx, NodeId(0), batch.clone());
        assert_eq!(nodes[1].clock().total(), 3);
        assert_eq!(nodes[1].local_read(VarId(0)), Value::Int(3));
        assert_eq!(nodes[1].control().received_entries(VarId(0)), 3);
        let settled = nodes[1].clone();
        nodes[1].on_message(&mut rx_ctx, NodeId(0), batch);
        assert_eq!(nodes[1], settled);
        assert_eq!(rx_ctx.queued_messages(), 0);
    }

    #[test]
    fn a_restart_flushes_the_window_its_snapshot_held() {
        let dist = Distribution::full(3, 1);
        let mut nodes = CausalFullNode::build_nodes(&dist, simnet::DeliveryMode::MULTICAST_BATCHED);
        let mut ctx = NodeContext::new(NodeId(2), simnet::SimTime::ZERO);
        nodes[2].local_write(&mut ctx, VarId(0), 7);
        nodes[2].local_write(&mut ctx, VarId(0), 8);
        // The crash snapshot holds the open window; its timer died.
        let mut restored = nodes[2].clone();
        let mut restart_ctx = NodeContext::new(NodeId(2), simnet::SimTime::ZERO);
        restored.on_restart(&mut restart_ctx);
        assert_eq!(
            batches(restart_ctx.outgoing()),
            vec![(vec![0, 1], vec![7, 8])]
        );
        assert!(matches!(
            restart_ctx.outgoing(),
            [
                simnet::Outgoing::Many(_, CausalFullMsg::Batch(_)),
                simnet::Outgoing::Many(_, CausalFullMsg::CatchupReq { from: 2, .. })
            ]
        ));
        // Later writes batch as before.
        let mut next = NodeContext::new(NodeId(2), simnet::SimTime::ZERO);
        restored.local_write(&mut next, VarId(0), 9);
        let mut flush_ctx = NodeContext::new(NodeId(2), simnet::SimTime::ZERO);
        restored.on_timer(&mut flush_ctx, FLUSH_TAG);
        assert_eq!(batches(flush_ctx.outgoing()), vec![(vec![0, 1], vec![9])]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The O(1) in-order check on own-step stamps agrees with the full
        /// delivery condition on every stamp a causal node receives: random
        /// interleavings of writes and out-of-order deliveries, so writers
        /// merge between writes, and crashes whose restart restores a snapshot
        /// and catches up. Afterwards every replica converges.
        #[test]
        fn the_own_step_check_agrees_with_the_full_scan(
            n in 2usize..5,
            steps in proptest::collection::vec((0u8..10, 0usize..8, 0usize..64), 0..80),
        ) {
            let mut run = CausalRun::new(n);
            for (kind, p, k) in steps {
                match kind {
                    0..=3 => run.write(p % n, k),
                    4..=8 => run.deliver(k),
                    _ => run.crash_or_restart(p % n),
                }
            }
            run.quiesce();
            for node in &run.nodes {
                prop_assert_eq!(node.replica.pending_count(), 0);
                prop_assert_eq!(node.clock(), run.nodes[0].clock(), "replicas converge");
            }
        }
    }

    /// A hand-driven system of fully replicated causal nodes: the network is
    /// a bag of in-flight messages delivered in any order, and at most one
    /// node is down at a time (its snapshot waits for the restart).
    struct CausalRun {
        nodes: Vec<CausalFullNode>,
        down: Option<(usize, CausalFullNode)>,
        in_flight: Vec<(usize, CausalFullMsg)>,
    }

    impl CausalRun {
        fn new(n: usize) -> Self {
            let dist = Distribution::full(n, 3);
            CausalRun {
                nodes: CausalFullNode::build_nodes(&dist, DeliveryMode::DELTA),
                down: None,
                in_flight: Vec::new(),
            }
        }

        fn is_down(&self, p: usize) -> bool {
            self.down.as_ref().is_some_and(|(d, _)| *d == p)
        }

        /// Queue what `p` sent in `ctx`, one copy per destination.
        fn post(&mut self, ctx: NodeContext<CausalFullMsg>) {
            for out in ctx.outgoing() {
                match out {
                    Outgoing::One(to, m) => self.in_flight.push((to.index(), m.clone())),
                    Outgoing::Many(tos, m) => {
                        (self.in_flight).extend(tos.iter().map(|to| (to.index(), m.clone())))
                    }
                }
            }
        }

        fn write(&mut self, p: usize, value: usize) {
            if self.is_down(p) {
                return;
            }
            let mut ctx = NodeContext::new(NodeId(p), SimTime::ZERO);
            self.nodes[p].local_write(&mut ctx, VarId(value % 3), value as i64);
            self.post(ctx);
        }

        /// Deliver the `k`-th in-flight message (lost if its destination is
        /// down), checking both delivery conditions on the stamp it carries.
        fn deliver(&mut self, k: usize) {
            if self.in_flight.is_empty() {
                return;
            }
            let (to, msg) = self.in_flight.swap_remove(k % self.in_flight.len());
            if self.is_down(to) {
                return;
            }
            if let CausalFullMsg::Update(m) = &msg {
                let local = self.nodes[to].clock();
                let scan = local.deliverable_from(m.stamp.clock(), m.writer);
                assert_eq!(m.stamp.deliverable_at(local, m.writer), scan, "{m:?}");
            }
            let mut ctx = NodeContext::new(NodeId(to), SimTime::ZERO);
            self.nodes[to].on_message(&mut ctx, NodeId(0), msg);
            self.post(ctx);
        }

        /// Crash `p` if nobody is down; otherwise restore the crashed node's
        /// snapshot and run its catch-up to quiescence, as the runtime does
        /// (a catch-up request lost to a second crash would be lost for good).
        fn crash_or_restart(&mut self, p: usize) {
            match self.down.take() {
                None => self.down = Some((p, self.nodes[p].clone())),
                Some((d, snapshot)) => {
                    self.nodes[d] = snapshot;
                    let mut ctx = NodeContext::new(NodeId(d), SimTime::ZERO);
                    self.nodes[d].on_restart(&mut ctx);
                    self.post(ctx);
                    self.quiesce();
                }
            }
        }

        /// Restart whoever is down, then deliver everything, in a scrambled
        /// order.
        fn quiesce(&mut self) {
            if self.down.is_some() {
                return self.crash_or_restart(0);
            }
            while !self.in_flight.is_empty() {
                self.deliver(self.in_flight.len() / 2 + 1);
            }
        }
    }
}
