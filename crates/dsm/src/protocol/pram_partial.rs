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

use crate::api::ProtocolKind;
use crate::control::ControlStats;
use crate::protocol::{replica_table, McsNode, ProtocolSpec, RecoveryLog, RecoveryState};
use histories::{Distribution, ProcId, Value, VarId};
use simnet::{Node, NodeContext, NodeId, WireSize};
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::clock::SequenceTracker;

/// An update message: the written value plus the writer's sequence number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PramMsg {
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
    pub const CONTROL_BYTES: usize = 16;
    /// Data bytes: the 8-byte value.
    pub const DATA_BYTES: usize = 8;
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
pub enum PramPartialMsg {
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
pub struct PramNode {
    me: ProcId,
    dist: Distribution,
    /// `replicas[x]`: the processes replicating `x`, in id order (shared).
    replicas: Arc<[Vec<NodeId>]>,
    store: BTreeMap<VarId, Value>,
    seq: u64,
    seen: SequenceTracker,
    control: ControlStats,
    /// This node's own writes since the last cut, in program order (entry
    /// `k` is the write with sequence number `k`) — the material catch-up
    /// responses are served from.
    log: RecoveryLog<PramMsg>,
    /// Highest sequence number applied per (writer, variable) — the
    /// idempotence/ordering guard. PRAM's per-writer numbering is
    /// gap-tolerant (a node only sees the subsequence touching variables
    /// it replicates), so a *global* per-writer watermark cannot tell a
    /// duplicate from a missed write re-sent by catch-up once a newer
    /// in-flight update has overtaken the response; per-(writer, var)
    /// monotonicity is exactly the PRAM obligation and makes replays of
    /// applied writes no-ops without ever losing a recovered one.
    applied: BTreeMap<(usize, VarId), u64>,
}

impl PramNode {
    /// Build the node for process `me` under the given distribution.
    pub fn new(me: ProcId, dist: &Distribution) -> Self {
        Self::with_replicas(me, dist, replica_table(dist))
    }

    fn with_replicas(me: ProcId, dist: &Distribution, replicas: Arc<[Vec<NodeId>]>) -> Self {
        PramNode {
            me,
            dist: dist.clone(),
            replicas,
            store: BTreeMap::new(),
            seq: 0,
            seen: SequenceTracker::new(dist.process_count()),
            control: ControlStats::new(),
            log: RecoveryLog::new(),
            applied: BTreeMap::new(),
        }
    }

    /// The writer's own sequence counter (number of writes issued so far).
    pub fn writes_issued(&self) -> u64 {
        self.seq
    }

    /// The per-writer FIFO tracker (exposed for tests).
    pub fn sequence_tracker(&self) -> &SequenceTracker {
        &self.seen
    }
}

impl Node<PramPartialMsg> for PramNode {
    fn on_message(
        &mut self,
        ctx: &mut NodeContext<PramPartialMsg>,
        _from: NodeId,
        msg: PramPartialMsg,
    ) {
        match msg {
            PramPartialMsg::Update(msg) => {
                debug_assert!(
                    self.dist.replicates(self.me, msg.var),
                    "PRAM partial replication never sends updates to non-replicas"
                );
                let slot = (msg.writer, msg.var);
                if msg.seq <= self.applied.get(&slot).copied().unwrap_or(0) {
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
                self.seen.observe(msg.writer, msg.seq);
                self.applied.insert(slot, msg.seq);
                self.store.insert(msg.var, Value::Int(msg.value));
            }
            PramPartialMsg::CatchupReq { from, expected } => {
                // Resend the requester's missing subsequence of our own
                // writes (only the variables it replicates), in order.
                let next = expected.get(self.me.index()).copied().unwrap_or(1);
                for (_, m) in self.log.after(next.saturating_sub(1)) {
                    if self.dist.replicates(ProcId(from), m.var) {
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
        self.store.get(&var).copied().unwrap_or(Value::Bottom)
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
        self.dist.replicates(self.me, var)
    }

    fn control(&self) -> &ControlStats {
        &self.control
    }

    fn on_restart(&mut self, ctx: &mut NodeContext<PramPartialMsg>) {
        // Ask every peer we share a variable with to resend the writes we
        // missed; peers we share nothing with cannot have sent us
        // anything (metadata never leaves C(x)).
        let me = self.me.index();
        let expected: Vec<u64> = (0..self.dist.process_count())
            .map(|w| self.seen.expected(w))
            .collect();
        let targets: Vec<NodeId> = (0..self.dist.process_count())
            .filter(|&p| {
                p != me
                    && self
                        .dist
                        .vars_of(ProcId(p))
                        .iter()
                        .any(|&x| self.dist.replicates(self.me, x))
            })
            .map(NodeId)
            .collect();
        ctx.send_multi(targets, PramPartialMsg::CatchupReq { from: me, expected });
    }

    fn checkpoint(&mut self) {
        self.log.cut();
    }

    fn recovery(&self) -> RecoveryState {
        self.log.state()
    }
}

/// Marker type selecting the PRAM partial-replication protocol.
#[derive(Clone, Copy, Debug, Default)]
pub struct PramPartial;

impl ProtocolSpec for PramPartial {
    type Msg = PramPartialMsg;
    type Node = PramNode;
    const KIND: ProtocolKind = ProtocolKind::PramPartial;

    fn build_nodes(dist: &Distribution, _delivery: simnet::DeliveryMode) -> Vec<PramNode> {
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
        let node = PramNode::new(ProcId(0), &dist);
        assert_eq!(node.local_read(VarId(0)), Value::Bottom);
        assert!(node.replicates(VarId(1)));
        assert_eq!(node.writes_issued(), 0);
    }

    #[test]
    fn build_nodes_creates_one_per_process() {
        let dist = Distribution::ring_overlap(4);
        let nodes = PramPartial::build_nodes(&dist, simnet::DeliveryMode::UNICAST);
        assert_eq!(nodes.len(), 4);
        assert!(nodes[1].replicates(VarId(1)));
        assert!(nodes[1].replicates(VarId(2)));
        assert!(!nodes[1].replicates(VarId(3)));
        assert_eq!(PramPartial::KIND, ProtocolKind::PramPartial);
    }
}
