//! The DSM runtime: application processes issuing reads and writes against
//! MCS nodes hosted on a simulated cluster.
//!
//! [`DsmSystem`] glues the pieces together: it owns a
//! [`simnet::Transport`] whose nodes are the protocol's MCS processes,
//! validates that application accesses respect the variable distribution
//! (under partial replication a process may only touch the variables it
//! replicates), records every operation for offline consistency checking,
//! and exposes the network and control-information statistics the
//! benchmarks report.
//!
//! The MCS protocols assume any process can message any other. On a full
//! mesh the transport sends directly, exactly as the paper's model; on a
//! sparse topology ([`SimConfig::topology`]) the transport relays every
//! logical send over BFS shortest paths, so all four protocols run
//! unmodified on rings, grids, stars, or any strongly connected link set.

use crate::api::{DsmError, ProtocolKind};
use crate::control::ControlSummary;
use crate::protocol::{McsNode, ProtocolSpec, RecoveryState};
use crate::recorder::Recorder;
use histories::{Distribution, History, ProcId, Value, VarId};
use simnet::{
    DeliveryMode, ExecBackend, FabricStats, NetworkStats, NodeId, PoolStats, RunOutcome, SimConfig,
    SimTime, ThreadedTransport, Topology, Transport, WorkerDead,
};

/// The execution substrate a [`DsmSystem`] drives its nodes on: the
/// discrete-event transport or the threaded ring fabric. The protocol
/// nodes are identical either way; only the scheduler differs.
// Both variants are hundreds of bytes and exactly one exists per system,
// so boxing either would buy nothing and put a pointer chase on the
// simulator's per-event hot path.
#[allow(clippy::large_enum_variant)]
enum NetBackend<P: ProtocolSpec> {
    /// Discrete-event simulation (virtual time, full feature set).
    Sim(Transport<P::Msg, P::Node>),
    /// One OS thread per process, over every topology and delivery mode
    /// (replay or free-running; fault injection stays simnet-only — see
    /// [`DsmError::Unsupported`]).
    Threaded(ThreadedTransport<P::Msg, P::Node>),
}

/// Map a dead worker thread to the DSM-level error naming its process.
fn worker_died(e: WorkerDead) -> DsmError {
    DsmError::WorkerDied {
        proc: ProcId(e.node.index()),
    }
}

/// A complete simulated DSM deployment for protocol `P`.
pub struct DsmSystem<P: ProtocolSpec> {
    net: NetBackend<P>,
    backend: ExecBackend,
    dist: Distribution,
    delivery: DeliveryMode,
    recorder: Recorder,
    /// Per-process persisted snapshot, present while that process is
    /// crashed (`None` = live).
    crashed: Vec<Option<P::Node>>,
    /// Reference runs of the cut-equivalence tests keep every log entry.
    #[cfg(test)]
    keep_logs: bool,
}

impl<P: ProtocolSpec> DsmSystem<P> {
    /// Build a system with the default simulation configuration.
    pub fn new(dist: Distribution) -> Self {
        Self::with_config(dist, SimConfig::default())
    }

    /// A default-configured system that never cuts its recovery logs —
    /// the reference the cut-equivalence tests compare against. Test-only
    /// on purpose: whether to cut is not a setting.
    #[cfg(test)]
    pub(crate) fn keeping_logs(dist: Distribution) -> Self {
        let mut sys = Self::new(dist);
        sys.keep_logs = true;
        sys
    }

    /// Build a system with an explicit simulation configuration.
    ///
    /// The topology comes from `config.topology` when set (it must span
    /// exactly one node per process); otherwise a full mesh over the
    /// distribution's processes is used. Under the default
    /// [`RoutingMode::Auto`](simnet::RoutingMode) a full mesh sends
    /// directly and anything sparser is relayed over shortest paths, so
    /// any strongly connected topology works for every protocol.
    ///
    /// Panics if the topology's node count disagrees with the
    /// distribution, if routing is required but the topology is not
    /// strongly connected, or if the fault plan schedules crash windows:
    /// a scheduled window would take a node down without ever running
    /// its snapshot restore or catch-up handshake (those are driven by
    /// [`DsmSystem::crash`] / [`DsmSystem::restart`]), silently leaving
    /// the replica behind — so the DSM runtime rejects such plans
    /// loudly. Link faults (drops/duplicates) are fine: they live below
    /// the protocols and need no recovery.
    pub fn with_config(dist: Distribution, config: SimConfig) -> Self {
        Self::try_with_config(dist, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`DsmSystem::with_config`]: every rejection
    /// [`DsmSystem::with_config`] would panic on is returned as a
    /// [`DsmError::InvalidConfig`] instead.
    pub fn try_with_config(dist: Distribution, config: SimConfig) -> Result<Self, DsmError> {
        Self::try_with_backend(dist, config, ExecBackend::Simnet)
    }

    /// Build a system on an explicit execution backend; panics where
    /// [`DsmSystem::try_with_backend`] would return an error.
    pub fn with_backend(dist: Distribution, config: SimConfig, backend: ExecBackend) -> Self {
        Self::try_with_backend(dist, config, backend).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build a system on an explicit execution backend.
    ///
    /// [`ExecBackend::Simnet`] accepts everything
    /// [`DsmSystem::try_with_config`] accepts.
    /// [`ExecBackend::Threaded`] accepts every delivery mode and any
    /// strongly connected topology (sparse deployments host relay nodes
    /// on the worker threads), but no fault plan — fault injection stays
    /// simnet-only and returns [`DsmError::Unsupported`].
    pub fn try_with_backend(
        dist: Distribution,
        config: SimConfig,
        backend: ExecBackend,
    ) -> Result<Self, DsmError> {
        match backend {
            ExecBackend::Simnet => Self::build_simnet(dist, config, backend),
            ExecBackend::Threaded(mode) => {
                if !config.faults.is_trivial() {
                    return Err(DsmError::Unsupported {
                        reason: "fault injection on the threaded backend (drops, duplicates, \
                                 and crash windows are simnet-only)"
                            .to_string(),
                    });
                }
                let topology = match &config.topology {
                    Some(t) => {
                        if t.node_count() != dist.process_count() {
                            return Err(DsmError::InvalidConfig {
                                reason: format!(
                                    "topology must have one node per process \
                                     ({} nodes for {} processes)",
                                    t.node_count(),
                                    dist.process_count()
                                ),
                            });
                        }
                        t.clone()
                    }
                    None => Topology::full_mesh(dist.process_count()),
                };
                let delivery = config.delivery;
                let nodes = P::build_nodes(&dist, delivery);
                let net = ThreadedTransport::new(mode, topology, config, nodes).map_err(|e| {
                    DsmError::InvalidConfig {
                        reason: e.to_string(),
                    }
                })?;
                let recorder = Recorder::new(dist.process_count());
                let crashed = (0..dist.process_count()).map(|_| None).collect();
                Ok(DsmSystem {
                    net: NetBackend::Threaded(net),
                    backend,
                    dist,
                    delivery,
                    recorder,
                    crashed,
                    #[cfg(test)]
                    keep_logs: false,
                })
            }
        }
    }

    fn build_simnet(
        dist: Distribution,
        config: SimConfig,
        backend: ExecBackend,
    ) -> Result<Self, DsmError> {
        if !config.faults.crashes.is_empty() {
            return Err(DsmError::InvalidConfig {
                reason: "scheduled FaultPlan crash windows bypass DSM recovery; drive crashes \
                         with DsmSystem::crash/restart (or a scenario CrashSchedule) instead"
                    .to_string(),
            });
        }
        let delivery = config.delivery;
        let nodes = P::build_nodes(&dist, delivery);
        let topology = match &config.topology {
            Some(t) => {
                if t.node_count() != dist.process_count() {
                    return Err(DsmError::InvalidConfig {
                        reason: format!(
                            "topology must have one node per process \
                             ({} nodes for {} processes)",
                            t.node_count(),
                            dist.process_count()
                        ),
                    });
                }
                t.clone()
            }
            None => Topology::full_mesh(dist.process_count()),
        };
        let net = Transport::new(topology, config, nodes).map_err(|e| DsmError::InvalidConfig {
            reason: e.to_string(),
        })?;
        let recorder = Recorder::new(dist.process_count());
        let crashed = (0..dist.process_count()).map(|_| None).collect();
        Ok(DsmSystem {
            net: NetBackend::Sim(net),
            backend,
            dist,
            delivery,
            recorder,
            crashed,
            #[cfg(test)]
            keep_logs: false,
        })
    }

    /// The execution backend this system runs on.
    pub fn backend(&self) -> ExecBackend {
        self.backend
    }

    /// Disable operation recording (useful for large benchmark runs).
    pub fn disable_recording(&mut self) {
        self.recorder = Recorder::disabled(self.dist.process_count());
    }

    /// The protocol this system runs.
    pub fn kind(&self) -> ProtocolKind {
        P::KIND
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
        match &self.net {
            NetBackend::Sim(net) => net.now(),
            NetBackend::Threaded(net) => net.now(),
        }
    }

    /// The network topology the deployment runs over.
    pub fn topology(&self) -> &Topology {
        match &self.net {
            NetBackend::Sim(net) => net.topology(),
            NetBackend::Threaded(net) => net.topology(),
        }
    }

    /// Whether sends are relayed over shortest paths (sparse topology or
    /// forced routing) rather than delivered on direct links. On the
    /// threaded backend a routed deployment hosts relay nodes on the
    /// worker threads.
    pub fn is_routed(&self) -> bool {
        match &self.net {
            NetBackend::Sim(net) => net.is_routed(),
            NetBackend::Threaded(net) => net.is_routed(),
        }
    }

    /// The wire delivery mode (multicast / batching) this deployment runs
    /// under.
    pub fn delivery(&self) -> DeliveryMode {
        self.delivery
    }

    /// Transit envelopes forwarded by intermediate nodes — the extra hops
    /// the overlay pays compared to a full mesh (0 when direct).
    pub fn forwarded_messages(&self) -> u64 {
        match &self.net {
            NetBackend::Sim(net) => net.forwarded_messages(),
            NetBackend::Threaded(net) => net.forwarded_messages(),
        }
    }

    /// Total events (deliveries + timers) processed so far — the work
    /// unit the scaling sweeps report throughput in. On the threaded
    /// backend this counts handler executions across the workers (oracle
    /// events in replay mode, so the number matches the simnet run).
    pub fn events_processed(&self) -> u64 {
        match &self.net {
            NetBackend::Sim(net) => net.events_processed(),
            NetBackend::Threaded(net) => net.events_processed(),
        }
    }

    /// Buffer-pool hit/miss statistics. On simnet this is the
    /// event-driven scheduler's pools; on the free-running threaded
    /// backend it is the per-worker handler-context pools merged at the
    /// last settle, and in replay mode the oracle's (simnet-identical)
    /// pools.
    pub fn pool_stats(&self) -> PoolStats {
        match &self.net {
            NetBackend::Sim(net) => net.pool_stats(),
            NetBackend::Threaded(net) => net.pool_stats(),
        }
    }

    /// Link-fabric contention counters of the threaded backend (full-ring
    /// stalls, drain batch-length histogram), merged across workers at
    /// the last settle. All zeros on simnet, which has no ring fabric.
    pub fn fabric_stats(&self) -> FabricStats {
        match &self.net {
            NetBackend::Sim(_) => FabricStats::default(),
            NetBackend::Threaded(net) => net.fabric_stats(),
        }
    }

    fn validate(&self, p: ProcId, var: VarId) -> Result<(), DsmError> {
        if p.index() >= self.dist.process_count() {
            return Err(DsmError::UnknownProcess { proc: p });
        }
        if self.crashed[p.index()].is_some() {
            return Err(DsmError::Crashed { proc: p });
        }
        if !P::KIND.is_fully_replicated() && !self.dist.replicates(p, var) {
            return Err(DsmError::NotReplicated { proc: p, var });
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
    /// count it was taken at; [`DsmSystem::try_restore`] refuses it once a
    /// later cut has dropped what its catch-up would need.
    pub fn snapshot(&self, p: ProcId) -> P::Node {
        match &self.net {
            NetBackend::Sim(net) => net.node(NodeId(p.index())).clone(),
            NetBackend::Threaded(net) => net.query(NodeId(p.index()), |node| node.clone()),
        }
    }

    /// Replace process `p`'s state machine with `snapshot` (the restore
    /// half of the persistence round trip; normally driven by
    /// [`DsmSystem::restart`]).
    ///
    /// Panics where [`DsmSystem::try_restore`] would return an error.
    pub fn restore(&mut self, p: ProcId, snapshot: P::Node) {
        self.try_restore(p, snapshot)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`DsmSystem::restore`]. An image taken before
    /// the latest recovery-log cut (see [`DsmSystem::try_settle`]) is
    /// refused with [`DsmError::StaleImage`]: its peers have dropped what
    /// its catch-up would need. Staleness is read off the cut count the
    /// image carries, never off sequence numbers — under PRAM's
    /// gap-tolerant numbering a current image may well expect a number
    /// below a peer's cut.
    pub fn try_restore(&mut self, p: ProcId, snapshot: P::Node) -> Result<(), DsmError> {
        if p.index() >= self.dist.process_count() {
            return Err(DsmError::UnknownProcess { proc: p });
        }
        self.check_current(p, &snapshot)?;
        match &mut self.net {
            NetBackend::Sim(net) => *net.node_mut(NodeId(p.index())) = snapshot,
            NetBackend::Threaded(net) => net.restore_node(NodeId(p.index()), snapshot),
        }
        Ok(())
    }

    /// `Err(StaleImage)` if `image` was taken before the latest cut.
    fn check_current(&self, p: ProcId, image: &P::Node) -> Result<(), DsmError> {
        // The node being replaced was up at every cut so far, or has been
        // down since before the first one it missed — and nothing is cut
        // while a process is down — so its count is the system's.
        let (image_cuts, system_cuts) = (image.recovery().cuts, self.recovery(p)?.cuts);
        if image_cuts < system_cuts {
            return Err(DsmError::StaleImage {
                proc: p,
                image_cuts,
                system_cuts,
            });
        }
        Ok(())
    }

    fn recovery(&self, p: ProcId) -> Result<RecoveryState, DsmError> {
        match &self.net {
            NetBackend::Sim(net) => Ok(net.node(NodeId(p.index())).recovery()),
            NetBackend::Threaded(net) => net
                .try_query(NodeId(p.index()), |node| node.recovery())
                .map_err(worker_died),
        }
    }

    /// Recovery-log entries process `p` currently retains for its peers'
    /// catch-up: its writes (under the sequencer: the ordered stream;
    /// under op-log: the owned variables sequenced) since the last cut.
    /// Zero right after an all-up quiescent settle. One site lock on the
    /// threaded backend.
    pub fn recovery_retained(&self, p: ProcId) -> usize {
        self.recovery(p).unwrap_or_else(|e| panic!("{e}")).retained
    }

    /// Recovery-log cuts taken so far (one per all-up quiescent settle).
    /// Every node counts them; this reads process 0's copy.
    pub fn recovery_cuts(&self) -> u64 {
        if self.process_count() == 0 {
            return 0;
        }
        self.recovery(ProcId(0))
            .unwrap_or_else(|e| panic!("{e}"))
            .cuts
    }

    /// Crash process `p`: persist its snapshot and take its node down.
    /// While down, protocol messages delivered to it are lost (and
    /// counted); on a routed topology, transit traffic relayed through it
    /// is parked and redelivered at restart. Operations issued by a
    /// crashed process fail with [`DsmError::Crashed`].
    pub fn crash(&mut self, p: ProcId) -> Result<(), DsmError> {
        if self.backend.is_threaded() {
            return Err(DsmError::Unsupported {
                reason: "crash/restart on the threaded backend (worker threads cannot lose \
                         in-flight channel messages deterministically yet)"
                    .to_string(),
            });
        }
        if p.index() >= self.dist.process_count() {
            return Err(DsmError::UnknownProcess { proc: p });
        }
        if self.crashed[p.index()].is_some() {
            return Err(DsmError::Crashed { proc: p });
        }
        self.crashed[p.index()] = Some(self.snapshot(p));
        if let NetBackend::Sim(net) = &mut self.net {
            net.set_down(NodeId(p.index()));
        }
        Ok(())
    }

    /// Restart a crashed process from its persisted snapshot: bring the
    /// node back up (releasing parked transit traffic), restore the
    /// snapshot, run the protocol's catch-up handshake
    /// ([`McsNode::on_restart`]), and drive the network to quiescence so
    /// recovery completes before the process resumes service (the PRAM
    /// protocol's gap-tolerant sequence numbers require catch-up traffic
    /// not to race with new writes).
    pub fn restart(&mut self, p: ProcId) -> Result<(), DsmError> {
        if self.backend.is_threaded() {
            return Err(DsmError::Unsupported {
                reason: "crash/restart on the threaded backend (worker threads cannot lose \
                         in-flight channel messages deterministically yet)"
                    .to_string(),
            });
        }
        if p.index() >= self.dist.process_count() {
            return Err(DsmError::UnknownProcess { proc: p });
        }
        let snapshot = self.crashed[p.index()]
            .take()
            .ok_or(DsmError::Crashed { proc: p })?;
        if let Err(e) = self.check_current(p, &snapshot) {
            self.crashed[p.index()] = Some(snapshot);
            return Err(e);
        }
        let NetBackend::Sim(net) = &mut self.net else {
            unreachable!("threaded backends never crash a process");
        };
        net.set_up(NodeId(p.index()));
        *net.node_mut(NodeId(p.index())) = snapshot;
        net.try_with_node(NodeId(p.index()), |node, ctx| node.on_restart(ctx))?;
        net.try_run_until_quiescent()?;
        Ok(())
    }

    /// Envelopes currently parked at a crashed process (transit traffic
    /// awaiting its restart; 0 on direct transports and on the threaded
    /// backend, which has no crashes).
    pub fn parked_messages(&self, p: ProcId) -> usize {
        match &self.net {
            NetBackend::Sim(net) => net.parked_count(NodeId(p.index())),
            NetBackend::Threaded(_) => 0,
        }
    }

    /// Issue `w_p(var)value`.
    pub fn write(&mut self, p: ProcId, var: VarId, value: i64) -> Result<(), DsmError> {
        self.validate(p, var)?;
        self.recorder.record_write(p, var, value);
        match &mut self.net {
            NetBackend::Sim(net) => {
                net.try_with_node(NodeId(p.index()), |node, ctx| {
                    node.local_write(ctx, var, value);
                })?;
            }
            NetBackend::Threaded(net) => {
                // Writes return nothing, so they pipeline: the invoke is
                // posted on the node's FIFO lane for its worker thread,
                // and the next settle (or read by `p`, which waits for
                // that lane to drain) is the barrier. A worker death
                // after the post surfaces there as `WorkerDied`.
                net.try_with_node_async(NodeId(p.index()), move |node, ctx| {
                    node.local_write(ctx, var, value);
                })
                .map_err(worker_died)?;
            }
        }
        Ok(())
    }

    /// Issue `r_p(var)` and return the value the local replica holds.
    pub fn read(&mut self, p: ProcId, var: VarId) -> Result<Value, DsmError> {
        self.validate(p, var)?;
        let value = match &mut self.net {
            NetBackend::Sim(net) => {
                net.try_with_node(NodeId(p.index()), |node, _ctx| node.local_read(var))?
            }
            // A read is local on threads too: `local_read` takes `&self`
            // and sends nothing, so it runs in place under the node's
            // site lock (after `p`'s pipelined writes) with no handler
            // context, and the replay oracle has nothing to mirror.
            NetBackend::Threaded(net) => net
                .try_query(NodeId(p.index()), |node| node.local_read(var))
                .map_err(worker_died)?,
        };
        self.recorder.record_read(p, var, value);
        Ok(value)
    }

    /// Deliver every in-flight message (run the network to quiescence).
    ///
    /// Panics with a [`simnet::SendError`] message on an uncarryable
    /// send; use [`DsmSystem::try_settle`] to handle it.
    pub fn settle(&mut self) -> RunOutcome {
        self.try_settle().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`DsmSystem::settle`].
    ///
    /// A settle that ends quiescent with every process up also cuts the
    /// recovery logs ([`McsNode::checkpoint`] on every node): each write
    /// issued so far has then been delivered to every live peer, hence
    /// sits in every image a restart could restore, hence will never be
    /// asked for again. While a process is down nothing is cut — its
    /// peers keep everything it will ask for at restart.
    pub fn try_settle(&mut self) -> Result<RunOutcome, DsmError> {
        let outcome = match &mut self.net {
            NetBackend::Sim(net) => net.try_run_until_quiescent()?,
            NetBackend::Threaded(net) => net.try_settle().map_err(worker_died)?,
        };
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
            match &mut self.net {
                NetBackend::Sim(net) => net.node_mut(i).checkpoint(),
                NetBackend::Threaded(net) => net
                    .try_with_node(i, |node, _ctx| node.checkpoint())
                    .map_err(worker_died)?,
            }
        }
        Ok(())
    }

    /// Deliver at most one pending message; returns `false` when idle.
    /// Single-stepping is a simnet affordance: the threaded backend has
    /// no event queue to step and always returns `false` (use
    /// [`DsmSystem::settle`] there).
    pub fn step(&mut self) -> bool {
        match &mut self.net {
            NetBackend::Sim(net) => net.step(),
            NetBackend::Threaded(_) => false,
        }
    }

    /// Number of messages still in flight.
    pub fn pending_messages(&self) -> usize {
        match &self.net {
            NetBackend::Sim(net) => net.pending_events(),
            NetBackend::Threaded(net) => net.pending(),
        }
    }

    /// Network-level statistics (messages, data bytes, control bytes).
    /// On the threaded backend the counters are synchronized at settle
    /// boundaries (replay mode reports the oracle's simnet-identical
    /// accounting; free-running mode merges per-worker counters).
    pub fn network_stats(&self) -> &NetworkStats {
        match &self.net {
            NetBackend::Sim(net) => net.stats(),
            NetBackend::Threaded(net) => net.stats(),
        }
    }

    /// Per-node control-information accounting.
    pub fn control_summary(&self) -> ControlSummary {
        let stats = (0..self.process_count())
            .map(|i| match &self.net {
                NetBackend::Sim(net) => net.node(NodeId(i)).control().clone(),
                NetBackend::Threaded(net) => net.query(NodeId(i), |node| node.control().clone()),
            })
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
        match &self.net {
            NetBackend::Sim(net) => net.node(NodeId(p.index())).local_read(var),
            NetBackend::Threaded(net) => net.query(NodeId(p.index()), |node| node.local_read(var)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::causal_full::CausalFull;
    use crate::protocol::causal_partial::CausalPartial;
    use crate::protocol::pram_partial::PramPartial;
    use crate::protocol::sequential::Sequential;
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
        let mut sys: DsmSystem<PramPartial> = DsmSystem::new(partial_dist());
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
        let mut sys: DsmSystem<CausalPartial> = DsmSystem::new(partial_dist());
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
        let mut sys: DsmSystem<PramPartial> = DsmSystem::new(partial_dist());
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
        let mut sys: DsmSystem<CausalFull> = DsmSystem::new(partial_dist());
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
        let mut sys: DsmSystem<CausalFull> = DsmSystem::new(Distribution::full(3, 2));
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
        let mut sys: DsmSystem<PramPartial> = DsmSystem::new(partial_dist());
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
        let mut sys: DsmSystem<Sequential> = DsmSystem::new(Distribution::full(4, 1));
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
        let mut sys: DsmSystem<PramPartial> = DsmSystem::with_config(partial_dist(), config);
        assert_eq!(sys.topology().link_count(), 8);
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
            let mut sys: DsmSystem<CausalPartial> = DsmSystem::with_config(partial_dist(), config);
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
        let mut sys: DsmSystem<Sequential> =
            DsmSystem::with_config(Distribution::full(4, 1), config);
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
        let _sys: DsmSystem<PramPartial> = DsmSystem::with_config(partial_dist(), config);
    }

    #[test]
    #[should_panic(expected = "one node per process")]
    fn with_config_rejects_mismatched_topology() {
        let config = SimConfig {
            topology: Some(Topology::ring(3)),
            ..SimConfig::default()
        };
        let _sys: DsmSystem<PramPartial> = DsmSystem::with_config(partial_dist(), config);
    }

    #[test]
    fn crash_restart_recovers_missed_updates_for_every_protocol() {
        // p3 crashes, misses a burst of writes, restarts, and must catch
        // up to exactly the state of a run without the crash.
        fn run<P: ProtocolSpec>(crash: bool) -> Vec<Value> {
            let dist = Distribution::full(4, 3);
            let mut sys: DsmSystem<P> = DsmSystem::new(dist);
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
        assert_eq!(
            run::<CausalFull>(true),
            run::<CausalFull>(false),
            "causal-full"
        );
        assert_eq!(
            run::<Sequential>(true),
            run::<Sequential>(false),
            "sequential"
        );
        // Full distribution makes the partial protocols behave like full
        // replication here; partial layouts are covered by the apps-level
        // differential proptests.
        assert_eq!(
            run::<CausalPartial>(true),
            run::<CausalPartial>(false),
            "causal-partial"
        );
        assert_eq!(
            run::<PramPartial>(true),
            run::<PramPartial>(false),
            "pram-partial"
        );
    }

    #[test]
    fn crash_restart_recovers_on_partial_distributions_too() {
        fn run<P: ProtocolSpec>(crash: bool) -> Vec<Value> {
            let mut sys: DsmSystem<P> = DsmSystem::new(partial_dist());
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
        assert_eq!(
            run::<PramPartial>(true),
            run::<PramPartial>(false),
            "pram-partial"
        );
        assert_eq!(
            run::<CausalPartial>(true),
            run::<CausalPartial>(false),
            "causal-partial"
        );
        assert_eq!(
            run::<PramPartial>(false),
            vec![Value::Int(7), Value::Int(8)]
        );
    }

    #[test]
    fn snapshot_restore_round_trip_is_lossless() {
        let mut sys: DsmSystem<CausalPartial> = DsmSystem::new(partial_dist());
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
        let mut sys: DsmSystem<CausalFull> = DsmSystem::new(dist);
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
    #[should_panic(expected = "bypass DSM recovery")]
    fn scheduled_crash_windows_are_rejected_by_the_runtime() {
        use simnet::{CrashWindow, FaultPlan, SimDuration};
        let config = SimConfig {
            faults: FaultPlan {
                crashes: vec![CrashWindow {
                    node: NodeId(1),
                    at: SimTime::ZERO,
                    restart_after: Some(SimDuration::from_micros(10)),
                }],
                ..FaultPlan::default()
            },
            ..SimConfig::default()
        };
        let _sys: DsmSystem<PramPartial> = DsmSystem::with_config(partial_dist(), config);
    }

    #[test]
    fn crash_and_restart_validate_their_preconditions() {
        let mut sys: DsmSystem<PramPartial> = DsmSystem::new(partial_dist());
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
        let mut sys: DsmSystem<PramPartial> = DsmSystem::with_config(dist, config);
        sys.crash(ProcId(2)).unwrap();
        sys.write(ProcId(0), VarId(0), 42).unwrap();
        sys.settle();
        assert_eq!(sys.peek(ProcId(3), VarId(0)), Value::Bottom);
        assert_eq!(sys.parked_messages(ProcId(2)), 1);
        sys.restart(ProcId(2)).unwrap();
        assert_eq!(sys.parked_messages(ProcId(2)), 0);
        sys.settle();
        assert_eq!(sys.peek(ProcId(3), VarId(0)), Value::Int(42));
    }

    #[test]
    fn threaded_backend_runs_every_protocol() {
        use simnet::{ExecBackend, ThreadedMode};
        fn run<P: ProtocolSpec>(backend: ExecBackend) -> (Vec<Value>, History) {
            let mut sys: DsmSystem<P> =
                DsmSystem::with_backend(Distribution::full(3, 2), SimConfig::default(), backend);
            assert_eq!(sys.backend(), backend);
            sys.write(ProcId(0), VarId(0), 7).unwrap();
            sys.write(ProcId(1), VarId(1), 9).unwrap();
            sys.settle();
            let _ = sys.read(ProcId(2), VarId(0)).unwrap();
            sys.write(ProcId(2), VarId(0), 11).unwrap();
            sys.settle();
            let values = (0..3)
                .flat_map(|p| (0..2).map(move |x| (p, x)))
                .map(|(p, x)| sys.peek(ProcId(p), VarId(x)))
                .collect();
            (values, sys.history())
        }
        fn check_protocol<P: ProtocolSpec>() {
            let (sim_values, sim_history) = run::<P>(ExecBackend::Simnet);
            for mode in [ThreadedMode::Replay, ThreadedMode::FreeRunning] {
                let (values, history) = run::<P>(ExecBackend::Threaded(mode));
                assert_eq!(values, sim_values, "{:?} {mode:?}", P::KIND);
                if mode == ThreadedMode::Replay {
                    assert_eq!(history, sim_history, "{:?}", P::KIND);
                }
            }
        }
        check_protocol::<PramPartial>();
        check_protocol::<CausalPartial>();
        check_protocol::<CausalFull>();
        check_protocol::<Sequential>();
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
            DsmSystem::<PramPartial>::try_with_backend(partial_dist(), faulty, backend),
            Err(DsmError::Unsupported { .. })
        ));

        let mismatched = SimConfig {
            topology: Some(Topology::ring(3)),
            ..SimConfig::default()
        };
        assert!(matches!(
            DsmSystem::<PramPartial>::try_with_backend(partial_dist(), mismatched, backend),
            Err(DsmError::InvalidConfig { .. })
        ));

        let mut sys: DsmSystem<PramPartial> =
            DsmSystem::with_backend(partial_dist(), SimConfig::default(), backend);
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
        assert_eq!(sys.parked_messages(ProcId(0)), 0);
        assert!(!sys.step());
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
                let mut sys: DsmSystem<CausalPartial> =
                    DsmSystem::with_backend(partial_dist(), config, ExecBackend::Threaded(mode));
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
        use simnet::{Node, NodeContext, WireSize};

        #[derive(Clone, Debug, PartialEq, Eq)]
        pub struct BombMsg(pub i64);

        impl WireSize for BombMsg {
            fn data_bytes(&self) -> usize {
                8
            }
            fn control_bytes(&self) -> usize {
                0
            }
        }

        #[derive(Clone, Debug)]
        pub struct BombNode {
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

        pub struct BombSpec;

        impl ProtocolSpec for BombSpec {
            type Msg = BombMsg;
            type Node = BombNode;
            const KIND: ProtocolKind = ProtocolKind::CausalFull;
            fn build_nodes(dist: &Distribution, _delivery: DeliveryMode) -> Vec<BombNode> {
                (0..dist.process_count())
                    .map(|_| BombNode {
                        peers: dist.process_count(),
                        value: Value::Bottom,
                        control: ControlStats::new(),
                    })
                    .collect()
            }
        }
    }

    #[test]
    fn dead_worker_becomes_a_typed_dsm_error() {
        use simnet::{ExecBackend, ThreadedMode};
        let mut sys: DsmSystem<bomb::BombSpec> = DsmSystem::with_backend(
            Distribution::full(3, 1),
            SimConfig::default(),
            ExecBackend::Threaded(ThreadedMode::FreeRunning),
        );
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
        let mut sys: DsmSystem<PramPartial> = DsmSystem::new(partial_dist());
        sys.disable_recording();
        sys.write(ProcId(0), VarId(0), 1).unwrap();
        let _ = sys.read(ProcId(0), VarId(0)).unwrap();
        assert_eq!(sys.history().len(), 0);
        assert_eq!(sys.operation_count(), 2);
        assert!(sys.pending_messages() > 0);
        sys.settle();
        assert_eq!(sys.pending_messages(), 0);
    }
}
