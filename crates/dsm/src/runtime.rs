//! The DSM runtime: application processes issuing reads and writes against
//! MCS nodes hosted on a simulated cluster.
//!
//! [`DynDsm`] glues the pieces together for whichever protocol it was
//! built for: it owns one network hosting the protocol's MCS processes
//! (built by [`simnet::deploy`], the node type erased behind the
//! crate-private `ProtocolNet` of [`crate::dynamic`]), validates that
//! application accesses respect the variable distribution (under partial
//! replication a process may only touch the variables it replicates),
//! records every operation for offline consistency checking, drives the
//! crash/restart lifecycle and the recovery-log cut, and exposes the
//! network and control-information statistics the benchmarks report.
//! Which scheduler delivers the messages — the simulator or the threaded
//! inbox fabric — is the net's business; every operation here is one call
//! on it.
//!
//! The MCS protocols assume any process can message any other. On a full
//! mesh the net sends directly, exactly as the paper's model; on a sparse
//! topology ([`SimConfig::topology`]) it relays every logical send over
//! BFS shortest paths, so all the protocols run unmodified on rings,
//! grids, stars, or any strongly connected link set.

use crate::api::{DsmError, ProtocolKind};
use crate::control::ControlSummary;
use crate::dynamic::{ProtocolNet, Replica, ReplicaSnapshot};
use crate::protocol::causal_full::CausalFullNode;
use crate::protocol::causal_partial::CausalPartialNode;
use crate::protocol::op_log::OpLogNode;
use crate::protocol::pram_partial::PramNode;
use crate::protocol::sequential::SequentialNode;
use crate::protocol::{replica_table, replicates};
use crate::recorder::Recorder;
use histories::{Distribution, History, ProcId, Value, VarId};
use simnet::{
    DeliveryMode, ExecBackend, FabricStats, NetError, NetworkStats, NodeId, PoolStats, RunOutcome,
    SimConfig, SimTime, Topology,
};
use std::sync::Arc;

/// A complete DSM deployment: one protocol, chosen at construction by a
/// [`ProtocolKind`] value, on a simulated or threaded cluster. One loop
/// sweeps all five protocols.
pub struct DynDsm {
    kind: ProtocolKind,
    dist: Distribution,
    /// `dist` as the nodes see it: `replicas[x]`, the processes holding
    /// `x` in id order, so every operation's replication check is a
    /// lookup, not an ordered-set walk.
    replicas: Arc<[Vec<NodeId>]>,
    recorder: Recorder,
    /// Per-process persisted snapshot, present while that process is
    /// crashed (`None` = live).
    crashed: Vec<Option<ReplicaSnapshot>>,
    net: Box<dyn ProtocolNet>,
    /// Reference runs of the cut-equivalence tests keep every log entry.
    #[cfg(test)]
    keep_logs: bool,
}

/// The value of a node call, panicking with the error's message (a dead
/// worker).
fn live<R>(result: Result<R, NetError>) -> R {
    result.unwrap_or_else(|e| panic!("{e}"))
}

impl DynDsm {
    /// Build a system for `kind` with the default simulation configuration.
    pub fn new(kind: ProtocolKind, dist: Distribution) -> Self {
        Self::with_config(kind, dist, SimConfig::default())
    }

    /// A default-configured system that never cuts its recovery logs —
    /// the reference the cut-equivalence tests compare against. Test-only
    /// on purpose: whether to cut is not a setting.
    #[cfg(test)]
    pub(crate) fn keeping_logs(kind: ProtocolKind, dist: Distribution) -> Self {
        let mut sys = Self::new(kind, dist);
        sys.keep_logs = true;
        sys
    }

    /// Build a system for `kind` with an explicit simulation
    /// configuration.
    ///
    /// The topology comes from `config.topology` when set (it must span
    /// exactly one node per process); otherwise a full mesh over the
    /// distribution's processes is used. Under the default
    /// [`RoutingMode::Auto`](simnet::RoutingMode) a full mesh sends
    /// directly and anything sparser is relayed over shortest paths, so
    /// any strongly connected topology works for every protocol.
    ///
    /// Panics if the topology's node count disagrees with the
    /// distribution, or if routing is required but the topology is not
    /// strongly connected. The fault plan's link faults (drops and
    /// duplicates) live below the protocols and need no recovery;
    /// crashes are driven by [`DynDsm::crash`] / [`DynDsm::restart`],
    /// which run the snapshot restore and catch-up handshake.
    pub fn with_config(kind: ProtocolKind, dist: Distribution, config: SimConfig) -> Self {
        Self::try_with_config(kind, dist, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`DynDsm::with_config`]: every rejection it
    /// would panic on is returned as a [`DsmError::InvalidConfig`]
    /// instead.
    pub fn try_with_config(
        kind: ProtocolKind,
        dist: Distribution,
        config: SimConfig,
    ) -> Result<Self, DsmError> {
        Self::try_with_backend(kind, dist, config, ExecBackend::Simnet)
    }

    /// Build a system for `kind` on an explicit execution backend; panics
    /// where [`DynDsm::try_with_backend`] would return an error.
    pub fn with_backend(
        kind: ProtocolKind,
        dist: Distribution,
        config: SimConfig,
        backend: ExecBackend,
    ) -> Self {
        Self::try_with_backend(kind, dist, config, backend).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build a system for `kind` on an explicit execution backend.
    ///
    /// [`ExecBackend::Simnet`] accepts everything
    /// [`DynDsm::try_with_config`] accepts. [`ExecBackend::Threaded`]
    /// accepts every delivery mode and any strongly connected topology
    /// (sparse deployments host relay nodes on the worker threads;
    /// unrouted sends need a full mesh), but no fault plan — fault
    /// injection stays simnet-only and returns [`DsmError::Unsupported`].
    pub fn try_with_backend(
        kind: ProtocolKind,
        dist: Distribution,
        config: SimConfig,
        backend: ExecBackend,
    ) -> Result<Self, DsmError> {
        match kind {
            ProtocolKind::CausalFull => {
                Self::deploy(kind, dist, config, backend, CausalFullNode::build_nodes)
            }
            ProtocolKind::CausalPartial => {
                Self::deploy(kind, dist, config, backend, CausalPartialNode::build_nodes)
            }
            ProtocolKind::PramPartial => {
                Self::deploy(kind, dist, config, backend, PramNode::build_nodes)
            }
            ProtocolKind::Sequential => {
                Self::deploy(kind, dist, config, backend, SequentialNode::build_nodes)
            }
            ProtocolKind::OpLog => {
                Self::deploy(kind, dist, config, backend, OpLogNode::build_nodes)
            }
        }
    }

    /// Deploy the nodes `build` makes for `dist`, run as protocol `kind`.
    pub(crate) fn deploy<N: Replica>(
        kind: ProtocolKind,
        dist: Distribution,
        config: SimConfig,
        backend: ExecBackend,
        build: fn(&Distribution, DeliveryMode) -> Vec<N>,
    ) -> Result<Self, DsmError> {
        if backend.is_threaded() && config.faults.has_link_faults() {
            return Err(DsmError::Unsupported {
                reason: "fault injection on the threaded backend (drops and duplicates \
                         are simnet-only)"
                    .to_string(),
            });
        }
        let invalid = |reason: String| DsmError::InvalidConfig { reason };
        let n = dist.process_count();
        let topology = config
            .topology
            .clone()
            .unwrap_or_else(|| Topology::full_mesh(n));
        if topology.node_count() != n {
            return Err(invalid(format!(
                "topology must have one node per process ({} nodes for {n} processes)",
                topology.node_count()
            )));
        }
        let nodes = build(&dist, config.delivery);
        let net =
            simnet::deploy(backend, topology, config, nodes).map_err(|e| invalid(e.to_string()))?;
        Ok(DynDsm {
            kind,
            net: Box::new(net),
            recorder: Recorder::new(n),
            crashed: (0..n).map(|_| None).collect(),
            replicas: replica_table(&dist),
            dist,
            #[cfg(test)]
            keep_logs: false,
        })
    }

    /// Disable operation recording (useful for large benchmark runs).
    pub fn disable_recording(&mut self) {
        self.recorder = Recorder::disabled(self.dist.process_count());
    }

    /// The protocol this system runs.
    pub fn kind(&self) -> ProtocolKind {
        self.kind
    }

    /// The variable distribution.
    pub fn distribution(&self) -> &Distribution {
        &self.dist
    }

    /// Number of processes.
    pub fn process_count(&self) -> usize {
        self.dist.process_count()
    }

    /// Current virtual time. On the free-running threaded backend there
    /// is no virtual clock and this is always zero; in replay mode it is
    /// the oracle's clock (identical to the simnet run).
    pub fn now(&self) -> SimTime {
        self.net.core().now()
    }

    /// Whether sends are relayed over shortest paths (sparse topology or
    /// forced routing) rather than delivered on direct links. On the
    /// threaded backend a routed deployment hosts relay nodes on the
    /// worker threads.
    pub fn is_routed(&self) -> bool {
        self.net.core().is_routed()
    }

    /// Transit envelopes forwarded by intermediate nodes — the extra hops
    /// the overlay pays compared to a full mesh (0 when direct).
    pub fn forwarded_messages(&self) -> u64 {
        self.net.core().forwarded()
    }

    /// Total events (deliveries + timers) processed so far — the work
    /// unit the scaling sweeps report throughput in. On the threaded
    /// backend this counts handler executions across the workers (in
    /// replay mode the workers run the oracle's schedule, so after a
    /// settle the number matches the simnet run).
    pub fn events_processed(&self) -> u64 {
        self.net.core().events_processed()
    }

    /// Handler-context buffer-pool statistics: all zeros on every
    /// backend. The simulator and each threaded site lend their own two
    /// buffers to every callback and keep no pool; this stays only for
    /// dsmbench's `simnet.pool.*` probe.
    pub fn pool_stats(&self) -> PoolStats {
        PoolStats::default()
    }

    /// Link-fabric counters of the threaded backend (the drain
    /// batch-length histogram), merged across workers at the last
    /// settle. All zeros on simnet, which has no inbox fabric.
    pub fn fabric_stats(&self) -> FabricStats {
        self.net.core().fabric_stats()
    }

    fn validate(&self, p: ProcId, var: VarId) -> Result<(), DsmError> {
        self.check_process(p)?;
        if self.crashed[p.index()].is_some() {
            return Err(DsmError::Crashed { proc: p });
        }
        if !self.kind.is_fully_replicated() && !replicates(&self.replicas, NodeId(p.index()), var) {
            return Err(DsmError::NotReplicated { proc: p, var });
        }
        Ok(())
    }

    fn check_process(&self, p: ProcId) -> Result<(), DsmError> {
        if p.index() >= self.dist.process_count() {
            return Err(DsmError::UnknownProcess { proc: p });
        }
        Ok(())
    }

    /// Whether process `p` is currently crashed.
    pub fn is_crashed(&self, p: ProcId) -> bool {
        self.crashed
            .get(p.index())
            .is_some_and(|snap| snap.is_some())
    }

    /// A persisted snapshot of process `p`'s replica state (replica
    /// values, clocks, pending control records, unflushed buffers, write
    /// logs) — the image a restart would restore. The snapshot model is
    /// synchronous persistence: everything a node applied is on stable
    /// storage, so the only thing a crash loses is the messages delivered
    /// while the node was down. The image carries the recovery-log cut
    /// count it was taken at; [`DynDsm::restore`] refuses it once a later
    /// cut has dropped what its catch-up would need.
    pub fn snapshot(&self, p: ProcId) -> ReplicaSnapshot {
        live(self.net.snapshot(NodeId(p.index())))
    }

    /// Replace process `p`'s state machine with a snapshot previously
    /// taken from a system of the same protocol (the restore half of the
    /// persistence round trip; normally driven by [`DynDsm::restart`]).
    /// Panics if the snapshot's protocol disagrees with this system's (a
    /// snapshot is not portable across protocols), if `p` is crashed (its
    /// restart restores the crash image), and if the image was taken
    /// before the latest recovery-log cut (see [`DynDsm::try_settle`]):
    /// its peers have dropped what its catch-up would need.
    pub fn restore(&mut self, p: ProcId, snapshot: ReplicaSnapshot) {
        self.try_restore(p, snapshot)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`DynDsm::restore`]. A crashed process is
    /// refused with [`DsmError::Crashed`]: its restart restores the crash
    /// image. An image taken before the latest recovery-log cut (see
    /// [`DynDsm::try_settle`]) is refused with [`DsmError::StaleImage`]:
    /// its peers have dropped what its catch-up would need. Staleness is
    /// read off the cut count the image carries, never off sequence
    /// numbers — under PRAM's gap-tolerant numbering a current image may
    /// well expect a number below a peer's cut. A snapshot of another
    /// protocol still panics — that is a programming error, not a
    /// run-time fault.
    pub(crate) fn try_restore(
        &mut self,
        p: ProcId,
        snapshot: ReplicaSnapshot,
    ) -> Result<(), DsmError> {
        self.check_process(p)?;
        if self.is_crashed(p) {
            return Err(DsmError::Crashed { proc: p });
        }
        self.net.restore(NodeId(p.index()), snapshot)
    }

    /// Recovery-log entries process `p` currently retains for its peers'
    /// catch-up: its writes (under the sequencer: the ordered stream;
    /// under op-log: the owned variables sequenced) since the last cut.
    /// Zero right after an all-up quiescent settle. One site lock on the
    /// threaded backend.
    pub fn recovery_retained(&self, p: ProcId) -> usize {
        live(self.net.recovery(NodeId(p.index()))).retained
    }

    /// Crash process `p`: persist its snapshot and take its node down.
    /// While down, protocol messages delivered to it are lost (and
    /// counted); on a routed topology, transit traffic relayed through it
    /// is parked and redelivered at restart. Operations issued by a
    /// crashed process fail with [`DsmError::Crashed`]. The threaded
    /// backend cannot crash a process ([`DsmError::Unsupported`]).
    pub fn crash(&mut self, p: ProcId) -> Result<(), DsmError> {
        self.check_process(p)?;
        if self.is_crashed(p) {
            return Err(DsmError::Crashed { proc: p });
        }
        let id = NodeId(p.index());
        self.net.core_mut().set_down(id)?;
        self.crashed[p.index()] = Some(self.net.snapshot(id)?);
        Ok(())
    }

    /// Restart a crashed process from its persisted snapshot: bring the
    /// node back up (releasing parked transit traffic), restore the
    /// snapshot, run the protocol's catch-up handshake
    /// (`McsNode::on_restart`), and drive
    /// the network to quiescence so recovery completes before the
    /// process resumes service (the PRAM protocol's gap-tolerant sequence
    /// numbers require catch-up traffic not to race with new writes).
    pub fn restart(&mut self, p: ProcId) -> Result<(), DsmError> {
        self.check_process(p)?;
        let id = NodeId(p.index());
        self.net.core_mut().set_up(id)?;
        let snapshot = self.crashed[p.index()]
            .take()
            .ok_or(DsmError::Crashed { proc: p })?;
        self.net.restore(id, snapshot)?;
        self.net.on_restart(id)?;
        self.net.core_mut().settle()?;
        Ok(())
    }

    /// Issue `w_p(var)value`. Writes return nothing, so on threads they
    /// pipeline: the invoke is posted on the node's FIFO lane for its
    /// worker thread, and the next settle (or read by `p`, which drains
    /// that lane first, running it itself if the worker is not) is the
    /// barrier. A worker death after the
    /// post surfaces there as [`DsmError::WorkerDied`].
    pub fn write(&mut self, p: ProcId, var: VarId, value: i64) -> Result<(), DsmError> {
        self.validate(p, var)?;
        self.recorder.record_write(p, var, value);
        self.net.post_write(NodeId(p.index()), var, value)?;
        Ok(())
    }

    /// Issue `r_p(var)` and return the value the local replica holds.
    pub fn read(&mut self, p: ProcId, var: VarId) -> Result<Value, DsmError> {
        self.validate(p, var)?;
        // A read is local: `local_read` takes `&self` and sends nothing, so
        // it needs no handler context — no pooled buffers, no flush. On
        // threads it runs in place under the node's site lock (after `p`'s
        // pipelined writes), and the replay oracle has nothing to mirror.
        let value = self.net.local_read(NodeId(p.index()), var)?;
        self.recorder.record_read(p, var, value);
        Ok(value)
    }

    /// Deliver every in-flight message (run the network to quiescence).
    ///
    /// Panics with the error's message on an uncarryable send or a dead
    /// worker; use [`DynDsm::try_settle`] to handle it.
    pub fn settle(&mut self) -> RunOutcome {
        self.try_settle().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`DynDsm::settle`].
    ///
    /// A settle that ends quiescent with every process up also cuts the
    /// recovery logs (`McsNode::checkpoint` on every node): each write issued so far has then been delivered
    /// to every live peer, hence sits in every image a restart could
    /// restore, hence will never be asked for again. While a process is
    /// down nothing is cut — its peers keep everything it will ask for at
    /// restart.
    pub fn try_settle(&mut self) -> Result<RunOutcome, DsmError> {
        let outcome = self.net.core_mut().settle()?;
        if outcome.is_quiescent() && self.crashed.iter().all(Option::is_none) {
            self.checkpoint()?;
        }
        Ok(outcome)
    }

    fn checkpoint(&mut self) -> Result<(), DsmError> {
        #[cfg(test)]
        if self.keep_logs {
            return Ok(());
        }
        for i in (0..self.process_count()).map(NodeId) {
            self.net.checkpoint(i)?;
        }
        Ok(())
    }

    /// Deliver at most one pending message; returns `false` when idle.
    /// Single-stepping is a simnet affordance: the threaded backend has
    /// no event queue to step and always returns `false` (use
    /// [`DynDsm::settle`] there).
    pub fn step(&mut self) -> bool {
        live(self.net.core_mut().step())
    }

    /// Network-level statistics (messages, data bytes, control bytes).
    /// On the threaded backend the per-worker counters are merged at
    /// settle boundaries (in replay mode the workers send exactly what
    /// the oracle sent, so the accounting is the simnet run's).
    pub fn network_stats(&self) -> &NetworkStats {
        self.net.core().stats()
    }

    /// Per-node control-information accounting.
    pub fn control_summary(&self) -> ControlSummary {
        let stats = (0..self.process_count())
            .map(|i| live(self.net.control(NodeId(i))))
            .collect();
        ControlSummary::new(stats)
    }

    /// The history of all application operations issued so far.
    pub fn history(&self) -> History {
        self.recorder.history()
    }

    /// Number of application operations issued so far.
    pub fn operation_count(&self) -> u64 {
        self.recorder.read_count() + self.recorder.write_count()
    }

    /// Direct read of a node's replica without recording an application
    /// operation (used by tests and convergence checks).
    pub fn peek(&self, p: ProcId, var: VarId) -> Value {
        live(self.net.local_read(NodeId(p.index()), var))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histories::{check, Criterion};

    fn partial_dist() -> Distribution {
        // 4 processes; x0 on {p0,p1}, x1 on {p1,p2}, x2 on {p2,p3}.
        let mut d = Distribution::new(4, 3);
        d.assign(ProcId(0), VarId(0));
        d.assign(ProcId(1), VarId(0));
        d.assign(ProcId(1), VarId(1));
        d.assign(ProcId(2), VarId(1));
        d.assign(ProcId(2), VarId(2));
        d.assign(ProcId(3), VarId(2));
        d
    }

    #[test]
    fn pram_partial_propagates_only_to_replicas() {
        let mut sys = DynDsm::new(ProtocolKind::PramPartial, partial_dist());
        sys.write(ProcId(0), VarId(0), 10).unwrap();
        sys.settle();
        assert_eq!(sys.peek(ProcId(1), VarId(0)), Value::Int(10));
        // p2 and p3 never hear about x0 in any form.
        let summary = sys.control_summary();
        assert!(!summary.node(ProcId(2)).tracks(VarId(0)));
        assert!(!summary.node(ProcId(3)).tracks(VarId(0)));
        // Exactly one message was needed.
        assert_eq!(sys.network_stats().total_messages(), 1);
    }

    #[test]
    fn causal_partial_spreads_control_info_everywhere() {
        let mut sys = DynDsm::new(ProtocolKind::CausalPartial, partial_dist());
        sys.write(ProcId(0), VarId(0), 10).unwrap();
        sys.settle();
        let summary = sys.control_summary();
        for p in 0..4 {
            assert!(
                summary.node(ProcId(p)).tracks(VarId(0)),
                "p{p} must process metadata about x0"
            );
        }
        // Three messages: one data update (p1) + two control records.
        assert_eq!(sys.network_stats().total_messages(), 3);
        assert_eq!(sys.peek(ProcId(1), VarId(0)), Value::Int(10));
        assert_eq!(sys.peek(ProcId(2), VarId(0)), Value::Bottom);
    }

    #[test]
    fn partial_protocols_reject_non_replicated_access() {
        let mut sys = DynDsm::new(ProtocolKind::PramPartial, partial_dist());
        assert_eq!(
            sys.write(ProcId(0), VarId(2), 1),
            Err(DsmError::NotReplicated {
                proc: ProcId(0),
                var: VarId(2)
            })
        );
        assert_eq!(
            sys.read(ProcId(3), VarId(0)),
            Err(DsmError::NotReplicated {
                proc: ProcId(3),
                var: VarId(0)
            })
        );
        assert_eq!(
            sys.read(ProcId(9), VarId(0)),
            Err(DsmError::UnknownProcess { proc: ProcId(9) })
        );
    }

    #[test]
    fn full_replication_protocols_accept_any_variable() {
        let mut sys = DynDsm::new(ProtocolKind::CausalFull, partial_dist());
        sys.write(ProcId(0), VarId(2), 5).unwrap();
        sys.settle();
        for p in 0..4 {
            assert_eq!(sys.peek(ProcId(p), VarId(2)), Value::Int(5));
        }
        assert_eq!(sys.kind(), ProtocolKind::CausalFull);
    }

    #[test]
    fn recorded_histories_satisfy_the_protocols_criterion() {
        // A small concurrent workload on the causal-full system.
        let mut sys = DynDsm::new(ProtocolKind::CausalFull, Distribution::full(3, 2));
        sys.write(ProcId(0), VarId(0), 1).unwrap();
        sys.write(ProcId(1), VarId(1), 2).unwrap();
        sys.settle();
        let _ = sys.read(ProcId(2), VarId(0)).unwrap();
        let _ = sys.read(ProcId(2), VarId(1)).unwrap();
        sys.write(ProcId(2), VarId(0), 3).unwrap();
        sys.settle();
        let _ = sys.read(ProcId(0), VarId(0)).unwrap();
        let h = sys.history();
        assert!(check(&h, Criterion::Causal).consistent, "{}", h.pretty());
        assert!(check(&h, Criterion::Pram).consistent);
    }

    #[test]
    fn pram_history_is_pram_consistent() {
        let mut sys = DynDsm::new(ProtocolKind::PramPartial, partial_dist());
        sys.write(ProcId(0), VarId(0), 1).unwrap();
        sys.write(ProcId(1), VarId(1), 2).unwrap();
        sys.settle();
        let _ = sys.read(ProcId(1), VarId(0)).unwrap();
        let _ = sys.read(ProcId(2), VarId(1)).unwrap();
        sys.write(ProcId(2), VarId(2), 3).unwrap();
        sys.settle();
        let _ = sys.read(ProcId(3), VarId(2)).unwrap();
        let h = sys.history();
        assert!(check(&h, Criterion::Pram).consistent, "{}", h.pretty());
        assert_eq!(sys.operation_count(), 6);
    }

    #[test]
    fn sequencer_converges_all_replicas() {
        let mut sys = DynDsm::new(ProtocolKind::Sequential, Distribution::full(4, 1));
        sys.write(ProcId(1), VarId(0), 11).unwrap();
        sys.write(ProcId(2), VarId(0), 22).unwrap();
        sys.write(ProcId(3), VarId(0), 33).unwrap();
        sys.settle();
        let final_value = sys.peek(ProcId(0), VarId(0));
        for p in 1..4 {
            assert_eq!(sys.peek(ProcId(p), VarId(0)), final_value);
        }
        // Requests reach the sequencer, which broadcasts each ordered write.
        assert!(sys.network_stats().total_messages() >= 3 + 3 * 3);
    }

    #[test]
    fn with_config_honours_the_requested_topology() {
        // A ring topology is enough for PRAM partial replication when each
        // variable's replicas are ring neighbours (the partial_dist layout).
        let config = SimConfig {
            topology: Some(Topology::ring(4)),
            ..SimConfig::default()
        };
        let mut sys = DynDsm::with_config(ProtocolKind::PramPartial, partial_dist(), config);
        assert_eq!(sys.net.core().topology().link_count(), 8);
        assert!(sys.is_routed());
        sys.write(ProcId(0), VarId(0), 3).unwrap();
        sys.settle();
        assert_eq!(sys.peek(ProcId(1), VarId(0)), Value::Int(3));
        // Ring neighbours: the update took its direct link, nothing was
        // forwarded in transit.
        assert_eq!(sys.forwarded_messages(), 0);
    }

    fn sparse_topologies(n: usize) -> Vec<Topology> {
        vec![
            Topology::ring(n),
            Topology::star(n),
            Topology::line(n),
            Topology::grid_of(n),
        ]
    }

    /// A protocol that broadcasts (causal-partial spreads control records
    /// to *every* node) completes on sparse topologies with the same
    /// replica contents and control tracking as on the full mesh.
    #[test]
    fn broadcasting_protocols_run_on_sparse_topologies() {
        for topology in sparse_topologies(4) {
            let config = SimConfig {
                topology: Some(topology.clone()),
                ..SimConfig::default()
            };
            let mut sys = DynDsm::with_config(ProtocolKind::CausalPartial, partial_dist(), config);
            assert!(sys.is_routed());
            sys.write(ProcId(0), VarId(0), 10).unwrap();
            sys.settle();
            let summary = sys.control_summary();
            for p in 0..4 {
                assert!(
                    summary.node(ProcId(p)).tracks(VarId(0)),
                    "p{p} must process metadata about x0 on {topology:?}"
                );
            }
            assert_eq!(sys.peek(ProcId(1), VarId(0)), Value::Int(10));
            assert_eq!(sys.peek(ProcId(2), VarId(0)), Value::Bottom);
        }
    }

    #[test]
    fn sequencer_converges_on_a_star_topology() {
        // Leaves can only talk to the hub; sequencer traffic (requests to
        // p0, broadcasts back) plus relayed leaf-to-leaf messages all
        // route through it.
        let config = SimConfig {
            topology: Some(Topology::star(4)),
            ..SimConfig::default()
        };
        let mut sys =
            DynDsm::with_config(ProtocolKind::Sequential, Distribution::full(4, 1), config);
        sys.write(ProcId(1), VarId(0), 11).unwrap();
        sys.write(ProcId(2), VarId(0), 22).unwrap();
        sys.write(ProcId(3), VarId(0), 33).unwrap();
        sys.settle();
        let final_value = sys.peek(ProcId(0), VarId(0));
        for p in 1..4 {
            assert_eq!(sys.peek(ProcId(p), VarId(0)), final_value);
        }
    }

    #[test]
    #[should_panic(expected = "no path")]
    fn disconnected_topology_is_rejected_at_construction() {
        let config = SimConfig {
            topology: Some(Topology::explicit(4, [(0, 1), (1, 0), (2, 3), (3, 2)])),
            ..SimConfig::default()
        };
        let _sys = DynDsm::with_config(ProtocolKind::PramPartial, partial_dist(), config);
    }

    #[test]
    #[should_panic(expected = "one node per process")]
    fn with_config_rejects_mismatched_topology() {
        let config = SimConfig {
            topology: Some(Topology::ring(3)),
            ..SimConfig::default()
        };
        let _sys = DynDsm::with_config(ProtocolKind::PramPartial, partial_dist(), config);
    }

    #[test]
    fn crash_restart_recovers_missed_updates_for_every_protocol() {
        // p3 crashes, misses a burst of writes, restarts, and must catch
        // up to exactly the state of a run without the crash.
        fn run(kind: ProtocolKind, crash: bool) -> Vec<Value> {
            let dist = Distribution::full(4, 3);
            let mut sys = DynDsm::new(kind, dist);
            sys.write(ProcId(0), VarId(0), 1).unwrap();
            sys.write(ProcId(3), VarId(2), 2).unwrap();
            sys.settle();
            if crash {
                sys.crash(ProcId(3)).unwrap();
                assert!(sys.is_crashed(ProcId(3)));
                assert_eq!(
                    sys.write(ProcId(3), VarId(0), 99),
                    Err(DsmError::Crashed { proc: ProcId(3) })
                );
            }
            // Writes p3 misses while down.
            sys.write(ProcId(0), VarId(0), 10).unwrap();
            sys.write(ProcId(1), VarId(1), 11).unwrap();
            sys.settle();
            sys.write(ProcId(2), VarId(2), 12).unwrap();
            sys.settle();
            if crash {
                sys.restart(ProcId(3)).unwrap();
                assert!(!sys.is_crashed(ProcId(3)));
            }
            sys.settle();
            (0..3).map(|x| sys.peek(ProcId(3), VarId(x))).collect()
        }
        // Full distribution makes the partial protocols behave like full
        // replication here; partial layouts are covered below and by the
        // apps-level differential proptests.
        for kind in ProtocolKind::ALL {
            let recovered = run(kind, true);
            assert_eq!(recovered, run(kind, false), "{kind}");
            assert_eq!(
                recovered,
                vec![Value::Int(10), Value::Int(11), Value::Int(12)],
                "{kind}"
            );
        }
    }

    #[test]
    fn crash_restart_recovers_on_partial_distributions_too() {
        fn run(kind: ProtocolKind, crash: bool) -> Vec<Value> {
            let mut sys = DynDsm::new(kind, partial_dist());
            sys.write(ProcId(2), VarId(1), 1).unwrap();
            sys.settle();
            if crash {
                sys.crash(ProcId(1)).unwrap();
            }
            sys.write(ProcId(0), VarId(0), 7).unwrap();
            sys.write(ProcId(2), VarId(1), 8).unwrap();
            sys.settle();
            if crash {
                sys.restart(ProcId(1)).unwrap();
            }
            sys.settle();
            // p1 replicates x0 and x1.
            vec![sys.peek(ProcId(1), VarId(0)), sys.peek(ProcId(1), VarId(1))]
        }
        for kind in ProtocolKind::ALL {
            let recovered = run(kind, true);
            assert_eq!(recovered, run(kind, false), "{kind}");
            assert_eq!(recovered, vec![Value::Int(7), Value::Int(8)], "{kind}");
        }
    }

    #[test]
    fn snapshot_restore_round_trip_is_lossless() {
        let mut sys = DynDsm::new(ProtocolKind::CausalPartial, partial_dist());
        sys.write(ProcId(0), VarId(0), 5).unwrap();
        sys.settle();
        let snap = sys.snapshot(ProcId(1));
        sys.restore(ProcId(1), snap.clone());
        assert_eq!(sys.snapshot(ProcId(1)), snap);
        assert_eq!(sys.peek(ProcId(1), VarId(0)), Value::Int(5));
    }

    #[test]
    fn crash_recovery_costs_show_up_in_the_accounting() {
        let dist = Distribution::full(4, 2);
        let mut sys = DynDsm::new(ProtocolKind::CausalFull, dist);
        sys.crash(ProcId(2)).unwrap();
        sys.write(ProcId(0), VarId(0), 1).unwrap();
        sys.settle();
        // The update addressed to the crashed p2 was lost…
        assert_eq!(sys.network_stats().total_crash_losses(), 1);
        assert_eq!(sys.peek(ProcId(2), VarId(0)), Value::Bottom);
        let before = sys.network_stats().total_control_bytes();
        sys.restart(ProcId(2)).unwrap();
        // …and the catch-up handshake paid control bytes to re-fetch it.
        assert!(sys.network_stats().total_control_bytes() > before);
        assert_eq!(sys.peek(ProcId(2), VarId(0)), Value::Int(1));
    }

    #[test]
    fn crash_and_restart_validate_their_preconditions() {
        let mut sys = DynDsm::new(ProtocolKind::PramPartial, partial_dist());
        assert_eq!(
            sys.restart(ProcId(0)),
            Err(DsmError::Crashed { proc: ProcId(0) })
        );
        sys.crash(ProcId(0)).unwrap();
        assert_eq!(
            sys.crash(ProcId(0)),
            Err(DsmError::Crashed { proc: ProcId(0) })
        );
        assert_eq!(
            sys.crash(ProcId(9)),
            Err(DsmError::UnknownProcess { proc: ProcId(9) })
        );
        assert_eq!(
            sys.read(ProcId(0), VarId(0)),
            Err(DsmError::Crashed { proc: ProcId(0) })
        );
        sys.restart(ProcId(0)).unwrap();
        assert!(sys.read(ProcId(0), VarId(0)).is_ok());
    }

    /// A crashed process restarts from its crash image, so an image
    /// restored into it while down would be silently lost: refused.
    #[test]
    fn a_crashed_process_refuses_a_restore() {
        let p = ProcId(1);
        let mut sys = DynDsm::new(ProtocolKind::PramPartial, partial_dist());
        sys.settle();
        let image = sys.snapshot(p);
        sys.write(ProcId(0), VarId(0), 5).unwrap();
        while sys.step() {}
        assert_eq!(sys.peek(p, VarId(0)), Value::Int(5));
        sys.crash(p).unwrap();
        assert_eq!(
            sys.try_restore(p, image),
            Err(DsmError::Crashed { proc: p })
        );
        sys.restart(p).unwrap();
        assert_eq!(sys.peek(p, VarId(0)), Value::Int(5), "the crash image");
    }

    #[test]
    fn crashed_relay_parks_transit_traffic_until_restart() {
        // On a line 0—1—2—3, traffic between p0 and p3 relays through p1
        // and p2. Crash p2: p0's update to p3 parks there instead of
        // being dropped on the floor, and arrives after the restart.
        let config = SimConfig {
            topology: Some(Topology::line(4)),
            ..SimConfig::default()
        };
        let mut dist = Distribution::new(4, 1);
        dist.assign(ProcId(0), VarId(0));
        dist.assign(ProcId(3), VarId(0));
        let mut sys = DynDsm::with_config(ProtocolKind::PramPartial, dist, config);
        sys.crash(ProcId(2)).unwrap();
        sys.write(ProcId(0), VarId(0), 42).unwrap();
        sys.settle();
        assert_eq!(sys.peek(ProcId(3), VarId(0)), Value::Bottom);
        assert_eq!(sys.net.core().parked(NodeId(2)), 1);
        sys.restart(ProcId(2)).unwrap();
        assert_eq!(sys.net.core().parked(NodeId(2)), 0);
        sys.settle();
        assert_eq!(sys.peek(ProcId(3), VarId(0)), Value::Int(42));
    }

    #[test]
    fn threaded_backend_runs_every_protocol() {
        use simnet::{ExecBackend, ThreadedMode};
        fn run(kind: ProtocolKind, backend: ExecBackend) -> (Vec<Value>, History) {
            let mut sys = DynDsm::with_backend(
                kind,
                Distribution::full(3, 2),
                SimConfig::default(),
                backend,
            );
            sys.write(ProcId(0), VarId(0), 7).unwrap();
            sys.write(ProcId(1), VarId(1), 9).unwrap();
            sys.settle();
            // Only a threaded run drains inboxes.
            assert_eq!(sys.fabric_stats().batches > 0, backend.is_threaded());
            let _ = sys.read(ProcId(2), VarId(0)).unwrap();
            sys.write(ProcId(2), VarId(0), 11).unwrap();
            sys.settle();
            let values = (0..3)
                .flat_map(|p| (0..2).map(move |x| (p, x)))
                .map(|(p, x)| sys.peek(ProcId(p), VarId(x)))
                .collect();
            (values, sys.history())
        }
        for kind in ProtocolKind::ALL {
            let (sim_values, sim_history) = run(kind, ExecBackend::Simnet);
            for mode in [ThreadedMode::Replay, ThreadedMode::FreeRunning] {
                let (values, history) = run(kind, ExecBackend::Threaded(mode));
                assert_eq!(values, sim_values, "{kind} {mode:?}");
                if mode == ThreadedMode::Replay {
                    assert_eq!(history, sim_history, "{kind}");
                }
            }
        }
    }

    #[test]
    fn threaded_backend_rejects_unsupported_features() {
        use simnet::{ExecBackend, FaultPlan, ThreadedMode};
        let backend = ExecBackend::Threaded(ThreadedMode::Replay);

        let faulty = SimConfig {
            faults: FaultPlan::lossy(0.1, 3),
            ..SimConfig::default()
        };
        assert!(matches!(
            DynDsm::try_with_backend(ProtocolKind::PramPartial, partial_dist(), faulty, backend),
            Err(DsmError::Unsupported { .. })
        ));

        let mismatched = SimConfig {
            topology: Some(Topology::ring(3)),
            ..SimConfig::default()
        };
        assert!(matches!(
            DynDsm::try_with_backend(
                ProtocolKind::PramPartial,
                partial_dist(),
                mismatched,
                backend
            ),
            Err(DsmError::InvalidConfig { .. })
        ));

        let mut sys = DynDsm::with_backend(
            ProtocolKind::PramPartial,
            partial_dist(),
            SimConfig::default(),
            backend,
        );
        assert!(matches!(
            sys.crash(ProcId(0)),
            Err(DsmError::Unsupported { .. })
        ));
        assert!(matches!(
            sys.restart(ProcId(0)),
            Err(DsmError::Unsupported { .. })
        ));
        assert!(!sys.is_routed());
        assert_eq!(sys.forwarded_messages(), 0);
        assert_eq!(sys.net.core().parked(NodeId(0)), 0);
        assert!(!sys.step());
    }

    /// The inbox fabric links every pair, so unrouted threads on a sparse
    /// topology could not refuse a missing link: the deployment is
    /// refused instead, while the simulator refuses the send itself.
    #[test]
    fn direct_sends_on_a_sparse_topology_are_refused_on_threads() {
        use simnet::{ExecBackend, RoutingMode, ThreadedMode};
        let config = SimConfig {
            topology: Some(Topology::ring(4)),
            routing: RoutingMode::Direct,
            ..SimConfig::default()
        };
        for mode in [ThreadedMode::Replay, ThreadedMode::FreeRunning] {
            let backend = ExecBackend::Threaded(mode);
            let refused = DynDsm::try_with_backend(
                ProtocolKind::CausalFull,
                Distribution::full(4, 1),
                config.clone(),
                backend,
            );
            assert!(
                matches!(&refused, Err(DsmError::InvalidConfig { reason }) if reason.contains("full mesh")),
                "{mode:?}"
            );
        }
        // p0 → p2 is no ring link.
        let mut sys =
            DynDsm::with_config(ProtocolKind::CausalFull, Distribution::full(4, 1), config);
        sys.write(ProcId(0), VarId(0), 1).unwrap_err();
    }

    #[test]
    fn threaded_backend_runs_sparse_topologies_via_relays() {
        use simnet::{ExecBackend, ThreadedMode};
        for mode in [ThreadedMode::Replay, ThreadedMode::FreeRunning] {
            for topology in sparse_topologies(4) {
                let config = SimConfig {
                    topology: Some(topology.clone()),
                    ..SimConfig::default()
                };
                let mut sys = DynDsm::with_backend(
                    ProtocolKind::CausalPartial,
                    partial_dist(),
                    config,
                    ExecBackend::Threaded(mode),
                );
                assert!(sys.is_routed(), "{topology:?}");
                sys.write(ProcId(0), VarId(0), 10).unwrap();
                sys.settle();
                let summary = sys.control_summary();
                for p in 0..4 {
                    assert!(
                        summary.node(ProcId(p)).tracks(VarId(0)),
                        "p{p} must process metadata about x0 on {topology:?} ({mode:?})"
                    );
                }
                assert_eq!(sys.peek(ProcId(1), VarId(0)), Value::Int(10));
                assert_eq!(sys.peek(ProcId(2), VarId(0)), Value::Bottom);
            }
        }
    }

    /// A minimal protocol whose nodes detonate on a marked write — the
    /// panic-injection harness for the dead-worker error path.
    mod bomb {
        use super::*;
        use crate::control::ControlStats;
        use crate::protocol::McsNode;
        use simnet::{Node, NodeContext, WireSize};

        #[derive(Clone, Debug, PartialEq, Eq)]
        pub(super) struct BombMsg(pub i64);

        impl WireSize for BombMsg {
            fn data_bytes(&self) -> usize {
                8
            }
            fn control_bytes(&self) -> usize {
                0
            }
        }

        #[derive(Clone, Debug)]
        pub(super) struct BombNode {
            peers: usize,
            value: Value,
            control: ControlStats,
        }

        impl Node<BombMsg> for BombNode {
            fn on_message(&mut self, _ctx: &mut NodeContext<BombMsg>, _from: NodeId, m: BombMsg) {
                assert!(m.0 != i64::MIN, "bomb node detonated");
                self.value = Value::Int(m.0);
            }
        }

        impl McsNode for BombNode {
            type Msg = BombMsg;
            fn local_read(&self, _var: VarId) -> Value {
                self.value
            }
            fn local_write(&mut self, ctx: &mut NodeContext<BombMsg>, _var: VarId, value: i64) {
                self.value = Value::Int(value);
                let me = ctx.me();
                for p in (0..self.peers).map(NodeId).filter(|&p| p != me) {
                    ctx.send(p, BombMsg(value));
                }
            }
            fn replicates(&self, _var: VarId) -> bool {
                true
            }
            fn control(&self) -> &ControlStats {
                &self.control
            }
        }

        impl Replica for BombNode {
            fn into_snapshot(self) -> ReplicaSnapshot {
                unreachable!("bomb nodes run on threads, which never persist a node")
            }
            fn from_snapshot(snapshot: ReplicaSnapshot) -> Result<Self, ReplicaSnapshot> {
                Err(snapshot)
            }
        }

        pub(super) fn build_nodes(dist: &Distribution, _delivery: DeliveryMode) -> Vec<BombNode> {
            (0..dist.process_count())
                .map(|_| BombNode {
                    peers: dist.process_count(),
                    value: Value::Bottom,
                    control: ControlStats::new(),
                })
                .collect()
        }
    }

    #[test]
    fn dead_worker_becomes_a_typed_dsm_error() {
        use simnet::{ExecBackend, ThreadedMode};
        let mut sys = DynDsm::deploy(
            ProtocolKind::CausalFull,
            Distribution::full(3, 1),
            SimConfig::default(),
            ExecBackend::Threaded(ThreadedMode::FreeRunning),
            bomb::build_nodes,
        )
        .unwrap();
        // An ordinary write round-trips first.
        sys.write(ProcId(0), VarId(0), 7).unwrap();
        sys.try_settle().unwrap();
        assert_eq!(sys.peek(ProcId(1), VarId(0)), Value::Int(7));
        // The poison write detonates every peer's delivery handler.
        sys.write(ProcId(0), VarId(0), i64::MIN).unwrap();
        // The panic is asynchronous; keep settling until it surfaces.
        let err = loop {
            match sys.try_settle() {
                Ok(_) => std::thread::yield_now(),
                Err(e) => break e,
            }
        };
        let DsmError::WorkerDied { proc } = err else {
            panic!("expected WorkerDied, got {err:?}");
        };
        assert_ne!(proc, ProcId(0), "the writer survived; a peer died");
        assert!(err.to_string().contains("worker thread"), "{err}");
        // The system is poisoned: later operations report the death too.
        assert_eq!(sys.write(ProcId(0), VarId(0), 1), Err(err));
    }

    #[test]
    fn disabled_recording_still_counts_operations() {
        let mut sys = DynDsm::new(ProtocolKind::PramPartial, partial_dist());
        sys.disable_recording();
        sys.write(ProcId(0), VarId(0), 1).unwrap();
        let _ = sys.read(ProcId(0), VarId(0)).unwrap();
        assert_eq!(sys.history().len(), 0);
        assert_eq!(sys.operation_count(), 2);
        assert!(sys.net.core().pending() > 0);
        sys.settle();
        assert_eq!(sys.net.core().pending(), 0);
    }
}
