//! Causal consistency with full replication.
//!
//! The classical implementation the paper cites as the norm ([3], [4],
//! [8]): every node replicates every variable; each update carries the
//! writer's vector clock and is broadcast to all other nodes; delivery is
//! delayed until the causal-broadcast condition holds, so applying updates
//! in delivery order yields a causally consistent memory.
//!
//! The cost profile is the baseline the paper argues against for large
//! systems: every node receives every update (data **and** an `O(n)`
//! vector clock of control information), regardless of whether its
//! application process ever touches the variable.

use crate::api::ProtocolKind;
use crate::clock::{DeltaVc, VectorClock};
use crate::control::ControlStats;
use crate::protocol::{McsNode, ProtocolSpec, RecoveryLog, RecoveryState};
use histories::{Distribution, ProcId, Value, VarId};
use simnet::{Node, NodeContext, NodeId, WireSize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A causally timestamped update.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CausalMsg {
    /// The writing process.
    pub writer: usize,
    /// The written variable.
    pub var: VarId,
    /// The written value.
    pub value: i64,
    /// The writer's vector clock *after* incrementing its own entry —
    /// stamped once per write and shared by every copy of the update (one
    /// per destination and per relay fork).
    pub vc: Arc<VectorClock>,
    /// The wire size charged for `vc`: its dense size classically, or its
    /// [`DeltaVc`] size against the writer's previous broadcast under a
    /// delta delivery mode. Accounting only — the dense clock above is
    /// what delivery logic reads, so histories are mode-independent.
    pub encoded: usize,
}

impl CausalMsg {
    /// An update charged at the classical dense clock size.
    pub fn dense(writer: usize, var: VarId, value: i64, vc: VectorClock) -> Self {
        let encoded = vc.wire_bytes();
        CausalMsg {
            writer,
            var,
            value,
            vc: Arc::new(vc),
            encoded,
        }
    }

    /// Control bytes: the (possibly delta-encoded) vector clock plus
    /// writer and variable ids.
    pub fn control_size(&self) -> usize {
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
pub enum CausalFullMsg {
    /// A broadcast update (the only message of the fault-free protocol).
    Update(CausalMsg),
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
            CausalFullMsg::CatchupReq { .. } => 0,
        }
    }
    fn control_bytes(&self) -> usize {
        match self {
            CausalFullMsg::Update(m) => m.control_bytes(),
            CausalFullMsg::CatchupReq { vc, .. } => vc.wire_bytes() + 8,
        }
    }
}

/// The fully replicated causal MCS process.
#[derive(Clone, Debug, PartialEq)]
pub struct CausalFullNode {
    me: ProcId,
    store: BTreeMap<VarId, Value>,
    vc: VectorClock,
    pending: Vec<CausalMsg>,
    control: ControlStats,
    delivered: u64,
    /// This node's own writes since the last cut, in program order — the
    /// material catch-up responses are served from. Entry `k` is the write
    /// that set this node's own clock entry to `k`; it shares the clock
    /// stamp of the write's messages, and dies at the next cut.
    log: RecoveryLog<CausalMsg>,
    /// Whether broadcast clocks are charged at their delta-encoded size.
    delta: bool,
    /// The stamp of this node's previous broadcast — the reference every
    /// destination already holds (writer streams are FIFO), so the next
    /// broadcast's clock can be charged as a delta against it.
    prev_stamp: Arc<VectorClock>,
    /// Every other process: the destinations of each broadcast.
    peers: Vec<NodeId>,
}

impl CausalFullNode {
    /// Build the node for process `me` in a system of `n` processes,
    /// charging clocks at their classical dense size.
    pub fn new(me: ProcId, n: usize) -> Self {
        Self::with_delta(me, n, false)
    }

    /// Like [`CausalFullNode::new`], optionally charging broadcast clocks
    /// at their [`DeltaVc`] size (`delta = true`).
    pub fn with_delta(me: ProcId, n: usize, delta: bool) -> Self {
        CausalFullNode {
            me,
            store: BTreeMap::new(),
            vc: VectorClock::new(n),
            pending: Vec::new(),
            control: ControlStats::new(),
            delivered: 0,
            log: RecoveryLog::new(),
            delta,
            prev_stamp: Arc::new(VectorClock::new(n)),
            peers: (0..n).filter(|&i| i != me.index()).map(NodeId).collect(),
        }
    }

    /// The node's current vector clock.
    pub fn clock(&self) -> &VectorClock {
        &self.vc
    }

    /// Updates applied (excluding the node's own writes).
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Messages buffered awaiting causal delivery.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Whether `msg` is already covered by the local clock: the writer's
    /// `msg.vc[writer]`-th write has been applied here, so this copy is a
    /// duplicate (a retransmission, a parked late delivery, or a catch-up
    /// response overlapping one). Applying it again would be wrong;
    /// discarding it is always safe.
    fn already_seen(&self, msg: &CausalMsg) -> bool {
        msg.vc.get(msg.writer) <= self.vc.get(msg.writer)
    }

    fn apply(&mut self, msg: &CausalMsg) {
        self.store.insert(msg.var, Value::Int(msg.value));
        self.vc.deliver(&msg.vc, msg.writer);
        self.delivered += 1;
    }

    fn deliver_ready(&mut self) {
        loop {
            let ready = self
                .pending
                .iter()
                .position(|m| self.vc.deliverable_from(&m.vc, m.writer));
            match ready {
                Some(i) => {
                    let msg = self.pending.remove(i);
                    self.apply(&msg);
                    // Applying a message may turn other pending copies of
                    // the same write (duplicates) permanently stale —
                    // purge them so they cannot pile up.
                    let vc = &self.vc;
                    self.pending
                        .retain(|m| m.vc.get(m.writer) > vc.get(m.writer));
                }
                None => break,
            }
        }
    }
}

impl Node<CausalFullMsg> for CausalFullNode {
    fn on_message(
        &mut self,
        ctx: &mut NodeContext<CausalFullMsg>,
        _from: NodeId,
        msg: CausalFullMsg,
    ) {
        match msg {
            CausalFullMsg::Update(msg) => {
                if self.already_seen(&msg) {
                    // Idempotence guard: a duplicate of an applied write.
                    return;
                }
                self.control.charge_received(msg.var, msg.control_size());
                // In order and nothing waiting (the common case): apply
                // without a trip through `pending`.
                if self.pending.is_empty() && self.vc.deliverable_from(&msg.vc, msg.writer) {
                    self.apply(&msg);
                } else {
                    self.pending.push(msg);
                    self.deliver_ready();
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
                    let encoded = DeltaVc::charged_bytes(self.delta, base, &m.vc);
                    base = m.vc.as_ref();
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
}

impl McsNode for CausalFullNode {
    type Msg = CausalFullMsg;

    fn local_read(&self, var: VarId) -> Value {
        self.store.get(&var).copied().unwrap_or(Value::Bottom)
    }

    fn local_write(&mut self, ctx: &mut NodeContext<CausalFullMsg>, var: VarId, value: i64) {
        self.vc.increment(self.me.index());
        self.store.insert(var, Value::Int(value));
        self.control.track(var);
        // The write's clock, copied once: the messages, the recovery log
        // and the next write's delta reference all share this stamp.
        let stamp = Arc::new(self.vc.clone());
        let encoded = DeltaVc::charged_bytes(self.delta, &self.prev_stamp, &stamp);
        self.prev_stamp = Arc::clone(&stamp);
        let msg = CausalMsg {
            writer: self.me.index(),
            var,
            value,
            vc: stamp,
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
        ctx.send_multi(self.peers.iter().copied(), CausalFullMsg::Update(msg));
    }

    fn replicates(&self, _var: VarId) -> bool {
        true
    }

    fn control(&self) -> &ControlStats {
        &self.control
    }

    fn on_restart(&mut self, ctx: &mut NodeContext<CausalFullMsg>) {
        // Everything delivered while down was lost; the restored clock
        // tells each peer exactly which of its writes to resend.
        let req = CausalFullMsg::CatchupReq {
            from: self.me.index(),
            vc: self.vc.clone(),
        };
        ctx.send_multi(self.peers.iter().copied(), req);
    }

    fn checkpoint(&mut self) {
        self.log.cut();
    }

    fn recovery(&self) -> RecoveryState {
        self.log.state()
    }
}

/// Marker type selecting the fully replicated causal protocol.
#[derive(Clone, Copy, Debug, Default)]
pub struct CausalFull;

impl ProtocolSpec for CausalFull {
    type Msg = CausalFullMsg;
    type Node = CausalFullNode;
    const KIND: ProtocolKind = ProtocolKind::CausalFull;

    fn build_nodes(dist: &Distribution, delivery: simnet::DeliveryMode) -> Vec<CausalFullNode> {
        let n = dist.process_count();
        (0..n)
            .map(|i| CausalFullNode::with_delta(ProcId(i), n, delivery.delta))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_bytes_scale_with_system_size() {
        let small = CausalMsg::dense(0, VarId(0), 1, VectorClock::new(3));
        let big = CausalMsg::dense(0, VarId(0), 1, VectorClock::new(30));
        assert_eq!(small.data_bytes(), 8);
        assert_eq!(small.control_bytes(), 3 * 8 + 8);
        assert_eq!(big.control_bytes(), 30 * 8 + 8);
        assert!(big.total_bytes() > small.total_bytes());
    }

    #[test]
    fn node_replicates_everything_and_starts_empty() {
        let node = CausalFullNode::new(ProcId(1), 4);
        assert!(node.replicates(VarId(99)));
        assert_eq!(node.local_read(VarId(0)), Value::Bottom);
        assert_eq!(node.clock().total(), 0);
        assert_eq!(node.pending_count(), 0);
        assert_eq!(node.delivered_count(), 0);
    }

    fn write_msg(writer: usize, n: usize, writes: u64, var: VarId, value: i64) -> CausalMsg {
        let mut vc = VectorClock::new(n);
        for _ in 0..writes {
            vc.increment(writer);
        }
        CausalMsg::dense(writer, var, value, vc)
    }

    #[test]
    fn out_of_order_messages_wait_for_dependencies() {
        let mut node = CausalFullNode::new(ProcId(2), 3);
        // Writer 0's second write (depends on its first, unseen here).
        let m2 = write_msg(0, 3, 2, VarId(0), 2);
        // Deliver the dependent message first: it must be buffered.
        let mut ctx_unused = NodeContext::new(NodeId(2), simnet::SimTime::ZERO);
        node.on_message(&mut ctx_unused, NodeId(0), CausalFullMsg::Update(m2));
        assert_eq!(node.pending_count(), 1);
        assert_eq!(node.local_read(VarId(0)), Value::Bottom);
        // Now the first write arrives; both become deliverable in order.
        let m1 = write_msg(0, 3, 1, VarId(0), 1);
        node.on_message(&mut ctx_unused, NodeId(0), CausalFullMsg::Update(m1));
        assert_eq!(node.pending_count(), 0);
        assert_eq!(node.delivered_count(), 2);
        assert_eq!(node.local_read(VarId(0)), Value::Int(2));
    }

    #[test]
    fn duplicate_deliveries_are_idempotent() {
        let mut node = CausalFullNode::new(ProcId(1), 2);
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
        assert_eq!(node.delivered_count(), 2);
        assert_eq!(node.local_read(VarId(0)), Value::Int(2));
    }

    #[test]
    fn stale_pending_duplicates_are_purged_on_apply() {
        let mut node = CausalFullNode::new(ProcId(1), 2);
        let mut ctx = NodeContext::new(NodeId(1), simnet::SimTime::ZERO);
        let m2 = write_msg(0, 2, 2, VarId(0), 2);
        // Two copies of write 2 arrive before write 1: both go pending.
        node.on_message(&mut ctx, NodeId(0), CausalFullMsg::Update(m2.clone()));
        node.on_message(&mut ctx, NodeId(0), CausalFullMsg::Update(m2));
        assert_eq!(node.pending_count(), 2);
        // Write 1 arrives: one copy of write 2 applies, the other is
        // purged rather than lingering forever.
        let m1 = write_msg(0, 2, 1, VarId(0), 1);
        node.on_message(&mut ctx, NodeId(0), CausalFullMsg::Update(m1));
        assert_eq!(node.pending_count(), 0);
        assert_eq!(node.delivered_count(), 2);
    }

    #[test]
    fn catchup_resends_exactly_the_missing_own_writes() {
        // Writer p0 logs three writes.
        let dist = Distribution::full(3, 2);
        let mut nodes = CausalFull::build_nodes(&dist, simnet::DeliveryMode::UNICAST);
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
        let mut node = CausalFullNode::new(ProcId(1), 4);
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
        let mut nodes = CausalFull::build_nodes(&dist, simnet::DeliveryMode::UNICAST);
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
        assert_eq!(CausalFull::KIND, ProtocolKind::CausalFull);
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
            let mut nodes = CausalFull::build_nodes(&dist, mode);
            let mut ctx = NodeContext::new(NodeId(0), simnet::SimTime::ZERO);
            for v in 1..=4 {
                nodes[0].local_write(&mut ctx, VarId(0), v);
            }
            let clocks: Vec<Arc<VectorClock>> = ctx
                .outgoing()
                .iter()
                .map(|o| match o {
                    simnet::Outgoing::Many(_, CausalFullMsg::Update(m)) => m.vc.clone(),
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
            let mut nodes = CausalFull::build_nodes(&dist, mode);
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
            assert_eq!(m.encoded, m.vc.wire_bytes());
        }
        // Delta mode: the chain starts at the requester's (empty) restored
        // clock, so each resend pays one changed entry — and never more
        // than the dense fallback.
        let mut base = VectorClock::new(3);
        for m in run(simnet::DeliveryMode::DELTA) {
            assert_eq!(m.encoded, DeltaVc::encode(&base, &m.vc).wire_bytes());
            assert!(m.encoded <= m.vc.wire_bytes());
            assert_eq!(m.encoded, 4 + 12);
            base.clone_from(&m.vc);
        }
    }
}
