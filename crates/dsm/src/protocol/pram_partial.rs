//! PRAM consistency with partial replication — the efficient implementation
//! licensed by Theorem 2.
//!
//! Each write is tagged with the writer's sequence number and multicast
//! **only to the processes replicating the written variable**. Channels are
//! FIFO, so every replica applies a given writer's updates in that writer's
//! program order, which is exactly the PRAM obligation; writes by different
//! writers may be applied in different orders at different replicas, which
//! PRAM allows. No process ever receives (or stores) any metadata about a
//! variable outside its replica set: the control information about `x`
//! stays inside `C(x)`.
//!
//! The `delta` wire mode is a deliberate no-op here: the per-message
//! metadata is a single sequence number — already O(1) — so there is no
//! vector clock for a delta encoding to shrink.

use crate::control::ControlStats;
use crate::protocol::{replica_table, replicates, McsNode, RecoveryLog, RecoveryState, Store};
use histories::{Distribution, ProcId, Value, VarId};
use simnet::{DeliveryMode, Node, NodeContext, NodeId, WireSize};
use std::sync::Arc;

use crate::clock::SequenceTracker;

/// An update message: the written value plus the writer's sequence number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct PramMsg {
    /// The writing process.
    pub writer: usize,
    /// The writer's per-process sequence number for this write.
    pub seq: u64,
    /// The written variable.
    pub var: VarId,
    /// The written value.
    pub value: i64,
}

impl PramMsg {
    /// Control bytes: sequence number (8) + writer id (4) + variable id (4).
    pub(crate) const CONTROL_BYTES: usize = 16;
    /// Data bytes: the 8-byte value.
    pub(crate) const DATA_BYTES: usize = 8;
}

impl WireSize for PramMsg {
    fn data_bytes(&self) -> usize {
        Self::DATA_BYTES
    }
    fn control_bytes(&self) -> usize {
        Self::CONTROL_BYTES
    }
}

/// Wire messages of the PRAM protocol: the classical sequence-numbered
/// update, plus the catch-up handshake a node runs after a crash-restart.
/// The requester's restored [`SequenceTracker`] tells each peer exactly
/// which of its own writes are missing; responses stay inside the
/// variables the requester replicates, so even recovery metadata never
/// leaves `C(x)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum PramPartialMsg {
    /// A sequence-numbered update (the only fault-free message).
    Update(PramMsg),
    /// "Resend me your writes from these sequence numbers on", sent to
    /// every peer sharing at least one variable with the requester.
    CatchupReq {
        /// The restarted process.
        from: usize,
        /// Its restored per-writer next-expected sequence numbers.
        expected: Vec<u64>,
    },
}

impl WireSize for PramPartialMsg {
    fn data_bytes(&self) -> usize {
        match self {
            PramPartialMsg::Update(m) => m.data_bytes(),
            PramPartialMsg::CatchupReq { .. } => 0,
        }
    }
    fn control_bytes(&self) -> usize {
        match self {
            PramPartialMsg::Update(m) => m.control_bytes(),
            // One sequence number per writer plus the requester id.
            PramPartialMsg::CatchupReq { expected, .. } => expected.len() * 8 + 8,
        }
    }
}

/// The PRAM MCS process.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct PramNode {
    me: ProcId,
    /// `replicas[x]`: the processes replicating `x`, in id order (shared).
    replicas: Arc<[Vec<NodeId>]>,
    store: Store<Value>,
    seq: u64,
    seen: SequenceTracker,
    control: ControlStats,
    /// This node's own writes since the last cut, in program order (entry
    /// `k` is the write with sequence number `k`) — the material catch-up
    /// responses are served from.
    log: RecoveryLog<PramMsg>,
    /// Highest sequence number applied per (writer, variable) — one store
    /// per writer, indexed by variable: the idempotence/ordering guard.
    /// PRAM's per-writer numbering is gap-tolerant (a node only sees the
    /// subsequence touching variables it replicates), so a *global*
    /// per-writer watermark cannot tell a duplicate from a missed write
    /// re-sent by catch-up once a newer in-flight update has overtaken the
    /// response; per-(writer, var) monotonicity is exactly the PRAM
    /// obligation and makes replays of applied writes no-ops without ever
    /// losing a recovered one.
    applied: Vec<Store<u64>>,
}

impl PramNode {
    fn with_replicas(me: ProcId, dist: &Distribution, replicas: Arc<[Vec<NodeId>]>) -> Self {
        let n = dist.process_count();
        PramNode {
            me,
            replicas,
            store: Store::default(),
            seq: 0,
            seen: SequenceTracker::new(n),
            control: ControlStats::new(),
            log: RecoveryLog::new(),
            applied: vec![Store::default(); n],
        }
    }

    /// The per-writer FIFO tracker, for the recovery tests.
    #[cfg(test)]
    pub(crate) fn sequence_tracker(&self) -> &SequenceTracker {
        &self.seen
    }
}

#[deny(
    clippy::disallowed_macros,
    clippy::disallowed_methods,
    clippy::indexing_slicing
)]
impl Node<PramPartialMsg> for PramNode {
    fn on_message(
        &mut self,
        ctx: &mut NodeContext<PramPartialMsg>,
        _from: NodeId,
        msg: PramPartialMsg,
    ) {
        match msg {
            PramPartialMsg::Update(msg) => {
                #[expect(
                    clippy::disallowed_macros,
                    reason = "debug_assert! documents an invariant and compiles out of release builds"
                )]
                {
                    debug_assert!(
                        self.replicates(msg.var),
                        "PRAM partial replication never sends updates to non-replicas"
                    );
                }
                let Some(applied) = self.applied.get_mut(msg.writer) else {
                    return;
                };
                if msg.seq <= applied.get(msg.var).copied().unwrap_or(0) {
                    // Idempotence/ordering guard: this writer's write to
                    // this variable is already reflected here (a replay,
                    // or a catch-up response overtaken by a newer write).
                    return;
                }
                self.control
                    .charge_received(msg.var, PramMsg::CONTROL_BYTES);
                // High watermark per writer, used by catch-up requests.
                // Fault-free traffic is per-writer FIFO so this only ever
                // advances; a catch-up response arriving after a newer
                // in-flight write is the one legitimate regression, and
                // `observe` simply leaves the watermark in place then.
                applied.insert(msg.var, msg.seq);
                self.seen.observe(msg.writer, msg.seq);
                self.store.insert(msg.var, Value::Int(msg.value));
            }
            PramPartialMsg::CatchupReq { from, expected } => {
                // Resend the requester's missing subsequence of our own
                // writes (only the variables it replicates), in order.
                let next = expected.get(self.me.index()).copied().unwrap_or(1);
                for (_, m) in self.log.after(next.saturating_sub(1)) {
                    if replicates(&self.replicas, NodeId(from), m.var) {
                        self.control.charge_sent(m.var, PramMsg::CONTROL_BYTES);
                        ctx.send(NodeId(from), PramPartialMsg::Update(m.clone()));
                    }
                }
            }
        }
    }
}

impl McsNode for PramNode {
    type Msg = PramPartialMsg;

    fn local_read(&self, var: VarId) -> Value {
        self.store.get(var).copied().unwrap_or(Value::Bottom)
    }

    fn local_write(&mut self, ctx: &mut NodeContext<PramPartialMsg>, var: VarId, value: i64) {
        self.seq += 1;
        self.store.insert(var, Value::Int(value));
        self.control.track(var);
        let msg = PramMsg {
            writer: self.me.index(),
            seq: self.seq,
            var,
            value,
        };
        self.log.push(msg.clone());
        // One multi-destination send to the replica set: the metadata
        // never leaves C(x), and a multicast wire shares tree edges the
        // replicas' paths have in common.
        let me = NodeId(self.me.index());
        let replicas: &[NodeId] = self.replicas.get(var.index()).map_or(&[], Vec::as_slice);
        let targets = replicas.iter().copied().filter(|&t| t != me);
        for _ in targets.clone() {
            self.control.charge_sent(var, PramMsg::CONTROL_BYTES);
        }
        ctx.send_multi(targets, PramPartialMsg::Update(msg));
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
    fn on_restart(&mut self, ctx: &mut NodeContext<PramPartialMsg>) {
        // Ask every peer we share a variable with to resend the writes we
        // missed; peers we share nothing with cannot have sent us
        // anything (metadata never leaves C(x)).
        let me = self.me.index();
        // One guard per writer: `applied` spans the processes.
        #[expect(
            clippy::disallowed_methods,
            reason = "a restart runs once per outage, not once per event, and builds the catch-up it sends"
        )]
        let expected: Vec<u64> = (0..self.applied.len())
            .map(|w| self.seen.expected(w))
            .collect();
        #[expect(
            clippy::disallowed_methods,
            reason = "a restart runs once per outage, not once per event, and builds the catch-up it sends"
        )]
        let mut targets: Vec<NodeId> = (self.replicas.iter())
            .filter(|r| r.contains(&NodeId(me)))
            .flatten()
            .copied()
            .filter(|&p| p != NodeId(me))
            .collect();
        targets.sort_unstable();
        targets.dedup();
        ctx.send_multi(targets, PramPartialMsg::CatchupReq { from: me, expected });
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

impl PramNode {
    /// One node per process of `dist`, in process-id order. Each write
    /// goes to a few replicas, so the delivery mode changes nothing here.
    pub(crate) fn build_nodes(dist: &Distribution, _delivery: DeliveryMode) -> Vec<Self> {
        let replicas = replica_table(dist);
        (0..dist.process_count())
            .map(|i| PramNode::with_replicas(ProcId(i), dist, Arc::clone(&replicas)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_split() {
        let m = PramMsg {
            writer: 0,
            seq: 1,
            var: VarId(0),
            value: 42,
        };
        assert_eq!(m.data_bytes(), 8);
        assert_eq!(m.control_bytes(), 16);
        assert_eq!(m.total_bytes(), 24);
    }

    #[test]
    fn local_read_defaults_to_bottom() {
        let dist = Distribution::full(2, 2);
        let node = PramNode::with_replicas(ProcId(0), &dist, replica_table(&dist));
        assert_eq!(node.local_read(VarId(0)), Value::Bottom);
        assert!(node.replicates(VarId(1)));
        assert_eq!(node.seq, 0);
    }

    #[test]
    fn build_nodes_creates_one_per_process() {
        let dist = Distribution::ring_overlap(4);
        let nodes = PramNode::build_nodes(&dist, simnet::DeliveryMode::UNICAST);
        assert_eq!(nodes.len(), 4);
        assert!(nodes[1].replicates(VarId(1)));
        assert!(nodes[1].replicates(VarId(2)));
        assert!(!nodes[1].replicates(VarId(3)));
    }
}
