//! Runtime-dispatched DSM deployments.
//!
//! [`DsmSystem`] is generic over its protocol, which is ideal for unit
//! tests but forces every comparative driver (benchmarks, examples, the
//! scenario engine) to monomorphize one code path per protocol and pick it
//! at compile time. [`DynDsm`] erases the protocol behind an enum so a
//! deployment can be constructed from a [`ProtocolKind`] *value* and the
//! same driver loop can sweep all five protocols.
//!
//! The erasure is an enum rather than a trait object because the five
//! protocol types are a closed set and enum dispatch keeps every
//! [`DsmSystem`] method available verbatim — including those whose
//! signatures (generic closures, `Self`-returning constructors) would not
//! be object-safe.

use crate::api::{DsmError, ProtocolKind};
use crate::control::ControlSummary;
use crate::protocol::causal_full::CausalFull;
use crate::protocol::causal_partial::CausalPartial;
use crate::protocol::op_log::OpLog;
use crate::protocol::pram_partial::PramPartial;
use crate::protocol::sequential::Sequential;
use crate::runtime::DsmSystem;
use histories::{Distribution, History, ProcId, Value, VarId};
use simnet::{
    DeliveryMode, ExecBackend, NetworkStats, PoolStats, RunOutcome, SimConfig, SimTime, Topology,
};

/// A persisted replica image of one process, taken by
/// [`DynDsm::snapshot`] and restorable by [`DynDsm::restore`]. Wraps the
/// concrete protocol node state (replica values, vector clock or sequence
/// trackers, pending control records, unflushed buffers, write logs), so
/// the snapshot/restore round trip is lossless by construction — the
/// differential fault tests pin that down with equality.
#[derive(Clone, Debug, PartialEq)]
pub enum ReplicaSnapshot {
    /// A fully replicated causal node image.
    CausalFull(Box<crate::protocol::causal_full::CausalFullNode>),
    /// A partially replicated causal node image.
    CausalPartial(Box<crate::protocol::causal_partial::CausalPartialNode>),
    /// A PRAM node image.
    PramPartial(Box<crate::protocol::pram_partial::PramNode>),
    /// A sequencer-protocol node image.
    Sequential(Box<crate::protocol::sequential::SequentialNode>),
    /// A shared-operation-log node image.
    OpLog(Box<crate::protocol::op_log::OpLogNode>),
}

impl ReplicaSnapshot {
    /// The protocol the snapshot belongs to.
    pub fn kind(&self) -> ProtocolKind {
        match self {
            ReplicaSnapshot::CausalFull(_) => ProtocolKind::CausalFull,
            ReplicaSnapshot::CausalPartial(_) => ProtocolKind::CausalPartial,
            ReplicaSnapshot::PramPartial(_) => ProtocolKind::PramPartial,
            ReplicaSnapshot::Sequential(_) => ProtocolKind::Sequential,
            ReplicaSnapshot::OpLog(_) => ProtocolKind::OpLog,
        }
    }

    /// The persisted replica value of `var` (`⊥` if never written).
    pub fn value(&self, var: VarId) -> Value {
        use crate::protocol::McsNode;
        match self {
            ReplicaSnapshot::CausalFull(n) => n.local_read(var),
            ReplicaSnapshot::CausalPartial(n) => n.local_read(var),
            ReplicaSnapshot::PramPartial(n) => n.local_read(var),
            ReplicaSnapshot::Sequential(n) => n.local_read(var),
            ReplicaSnapshot::OpLog(n) => n.local_read(var),
        }
    }
}

/// A DSM deployment whose protocol was chosen at runtime.
///
/// Exposes the full [`DsmSystem`] surface — reads, writes, settling,
/// stepping, statistics, control accounting, history recording, and the
/// fault layer's crash/restart lifecycle — with every call dispatched to
/// the concrete protocol chosen at construction.
pub enum DynDsm {
    /// Causal consistency, full replication.
    CausalFull(DsmSystem<CausalFull>),
    /// Causal consistency, partial replication.
    CausalPartial(DsmSystem<CausalPartial>),
    /// PRAM consistency, partial replication.
    PramPartial(DsmSystem<PramPartial>),
    /// Sequential consistency baseline.
    Sequential(DsmSystem<Sequential>),
    /// Shared operation log, partial replication.
    OpLog(DsmSystem<OpLog>),
}

/// Apply one expression to whichever concrete system the enum holds.
macro_rules! dispatch {
    ($self:expr, $sys:ident => $body:expr) => {
        match $self {
            DynDsm::CausalFull($sys) => $body,
            DynDsm::CausalPartial($sys) => $body,
            DynDsm::PramPartial($sys) => $body,
            DynDsm::Sequential($sys) => $body,
            DynDsm::OpLog($sys) => $body,
        }
    };
}

impl DynDsm {
    /// Build a system for `kind` with the default simulation configuration.
    pub fn new(kind: ProtocolKind, dist: Distribution) -> Self {
        Self::with_config(kind, dist, SimConfig::default())
    }

    /// Build a system for `kind` with an explicit simulation configuration.
    pub fn with_config(kind: ProtocolKind, dist: Distribution, config: SimConfig) -> Self {
        Self::try_with_config(kind, dist, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`DynDsm::with_config`]: configuration
    /// rejections surface as [`DsmError::InvalidConfig`](crate::DsmError)
    /// instead of panics.
    pub fn try_with_config(
        kind: ProtocolKind,
        dist: Distribution,
        config: SimConfig,
    ) -> Result<Self, crate::DsmError> {
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

    /// Build a system for `kind` on an explicit execution backend (see
    /// [`DsmSystem::try_with_backend`] for what each backend supports).
    pub fn try_with_backend(
        kind: ProtocolKind,
        dist: Distribution,
        config: SimConfig,
        backend: ExecBackend,
    ) -> Result<Self, crate::DsmError> {
        Ok(match kind {
            ProtocolKind::CausalFull => {
                DynDsm::CausalFull(DsmSystem::try_with_backend(dist, config, backend)?)
            }
            ProtocolKind::CausalPartial => {
                DynDsm::CausalPartial(DsmSystem::try_with_backend(dist, config, backend)?)
            }
            ProtocolKind::PramPartial => {
                DynDsm::PramPartial(DsmSystem::try_with_backend(dist, config, backend)?)
            }
            ProtocolKind::Sequential => {
                DynDsm::Sequential(DsmSystem::try_with_backend(dist, config, backend)?)
            }
            ProtocolKind::OpLog => {
                DynDsm::OpLog(DsmSystem::try_with_backend(dist, config, backend)?)
            }
        })
    }

    /// The execution backend this system runs on.
    pub fn backend(&self) -> ExecBackend {
        dispatch!(self, sys => sys.backend())
    }

    /// Disable operation recording (useful for large benchmark runs).
    pub fn disable_recording(&mut self) {
        dispatch!(self, sys => sys.disable_recording())
    }

    /// The protocol this system runs.
    pub fn kind(&self) -> ProtocolKind {
        dispatch!(self, sys => sys.kind())
    }

    /// The variable distribution.
    pub fn distribution(&self) -> &Distribution {
        dispatch!(self, sys => sys.distribution())
    }

    /// Number of processes.
    pub fn process_count(&self) -> usize {
        dispatch!(self, sys => sys.process_count())
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        dispatch!(self, sys => sys.now())
    }

    /// The network topology the deployment runs over.
    pub fn topology(&self) -> &Topology {
        dispatch!(self, sys => sys.topology())
    }

    /// Whether sends are relayed over shortest paths (sparse topology or
    /// forced routing) rather than delivered on direct links.
    pub fn is_routed(&self) -> bool {
        dispatch!(self, sys => sys.is_routed())
    }

    /// The wire delivery mode (multicast / batching) this deployment runs
    /// under.
    pub fn delivery(&self) -> DeliveryMode {
        dispatch!(self, sys => sys.delivery())
    }

    /// Transit envelopes forwarded by intermediate nodes — the extra hops
    /// the overlay pays compared to a full mesh (0 when direct).
    pub fn forwarded_messages(&self) -> u64 {
        dispatch!(self, sys => sys.forwarded_messages())
    }

    /// Total simulator events (deliveries + timers) processed so far.
    pub fn events_processed(&self) -> u64 {
        dispatch!(self, sys => sys.events_processed())
    }

    /// Buffer-pool hit/miss statistics of the event-driven scheduler
    /// (see [`DsmSystem::pool_stats`]).
    pub fn pool_stats(&self) -> PoolStats {
        dispatch!(self, sys => sys.pool_stats())
    }

    /// Link-fabric contention counters of the threaded backend (see
    /// [`DsmSystem::fabric_stats`]; all zeros on simnet).
    pub fn fabric_stats(&self) -> simnet::FabricStats {
        dispatch!(self, sys => sys.fabric_stats())
    }

    /// Issue `w_p(var)value`.
    pub fn write(&mut self, p: ProcId, var: VarId, value: i64) -> Result<(), DsmError> {
        dispatch!(self, sys => sys.write(p, var, value))
    }

    /// Issue `r_p(var)` and return the value the local replica holds.
    pub fn read(&mut self, p: ProcId, var: VarId) -> Result<Value, DsmError> {
        dispatch!(self, sys => sys.read(p, var))
    }

    /// Deliver every in-flight message (run the network to quiescence).
    pub fn settle(&mut self) -> RunOutcome {
        dispatch!(self, sys => sys.settle())
    }

    /// Deliver at most one pending message; returns `false` when idle.
    pub fn step(&mut self) -> bool {
        dispatch!(self, sys => sys.step())
    }

    /// Number of messages still in flight.
    pub fn pending_messages(&self) -> usize {
        dispatch!(self, sys => sys.pending_messages())
    }

    /// Network-level statistics (messages, data bytes, control bytes).
    pub fn network_stats(&self) -> &NetworkStats {
        dispatch!(self, sys => sys.network_stats())
    }

    /// Per-node control-information accounting.
    pub fn control_summary(&self) -> ControlSummary {
        dispatch!(self, sys => sys.control_summary())
    }

    /// The history of all application operations issued so far.
    pub fn history(&self) -> History {
        dispatch!(self, sys => sys.history())
    }

    /// Number of application operations issued so far.
    pub fn operation_count(&self) -> u64 {
        dispatch!(self, sys => sys.operation_count())
    }

    /// Direct read of a node's replica without recording an application
    /// operation (used by tests and convergence checks).
    pub fn peek(&self, p: ProcId, var: VarId) -> Value {
        dispatch!(self, sys => sys.peek(p, var))
    }

    /// Whether process `p` is currently crashed.
    pub fn is_crashed(&self, p: ProcId) -> bool {
        dispatch!(self, sys => sys.is_crashed(p))
    }

    /// A persisted snapshot of process `p`'s replica state — the image a
    /// restart would restore (see [`DsmSystem::snapshot`]).
    pub fn snapshot(&self, p: ProcId) -> ReplicaSnapshot {
        match self {
            DynDsm::CausalFull(sys) => ReplicaSnapshot::CausalFull(Box::new(sys.snapshot(p))),
            DynDsm::CausalPartial(sys) => ReplicaSnapshot::CausalPartial(Box::new(sys.snapshot(p))),
            DynDsm::PramPartial(sys) => ReplicaSnapshot::PramPartial(Box::new(sys.snapshot(p))),
            DynDsm::Sequential(sys) => ReplicaSnapshot::Sequential(Box::new(sys.snapshot(p))),
            DynDsm::OpLog(sys) => ReplicaSnapshot::OpLog(Box::new(sys.snapshot(p))),
        }
    }

    /// Replace process `p`'s state machine with a snapshot previously
    /// taken from a system of the same protocol. Panics if the
    /// snapshot's protocol disagrees with this system's (a snapshot is
    /// not portable across protocols), and where [`DynDsm::try_restore`]
    /// would return an error.
    pub fn restore(&mut self, p: ProcId, snapshot: ReplicaSnapshot) {
        self.try_restore(p, snapshot)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`DynDsm::restore`]: an image taken before the
    /// latest recovery-log cut is refused with [`DsmError::StaleImage`]
    /// (see [`DsmSystem::try_restore`]). A snapshot of another protocol
    /// still panics — that is a programming error, not a run-time fault.
    pub fn try_restore(&mut self, p: ProcId, snapshot: ReplicaSnapshot) -> Result<(), DsmError> {
        match (self, snapshot) {
            (DynDsm::CausalFull(sys), ReplicaSnapshot::CausalFull(n)) => sys.try_restore(p, *n),
            (DynDsm::CausalPartial(sys), ReplicaSnapshot::CausalPartial(n)) => {
                sys.try_restore(p, *n)
            }
            (DynDsm::PramPartial(sys), ReplicaSnapshot::PramPartial(n)) => sys.try_restore(p, *n),
            (DynDsm::Sequential(sys), ReplicaSnapshot::Sequential(n)) => sys.try_restore(p, *n),
            (DynDsm::OpLog(sys), ReplicaSnapshot::OpLog(n)) => sys.try_restore(p, *n),
            (sys, snap) => panic!(
                "snapshot of {} cannot restore into a {} system",
                snap.kind(),
                sys.kind()
            ),
        }
    }

    /// Crash process `p`: persist its snapshot and take its node down
    /// (see [`DsmSystem::crash`]).
    pub fn crash(&mut self, p: ProcId) -> Result<(), DsmError> {
        dispatch!(self, sys => sys.crash(p))
    }

    /// Restart a crashed process from its persisted snapshot, run its
    /// catch-up handshake, and settle recovery traffic (see
    /// [`DsmSystem::restart`]).
    pub fn restart(&mut self, p: ProcId) -> Result<(), DsmError> {
        dispatch!(self, sys => sys.restart(p))
    }

    /// Envelopes currently parked at a crashed process (transit traffic
    /// awaiting its restart; 0 on direct transports).
    pub fn parked_messages(&self, p: ProcId) -> usize {
        dispatch!(self, sys => sys.parked_messages(p))
    }

    /// Recovery-log entries process `p` currently retains for its peers'
    /// catch-up (see [`DsmSystem::recovery_retained`]).
    pub fn recovery_retained(&self, p: ProcId) -> usize {
        dispatch!(self, sys => sys.recovery_retained(p))
    }

    /// Recovery-log cuts taken so far (see [`DsmSystem::recovery_cuts`]).
    pub fn recovery_cuts(&self) -> u64 {
        dispatch!(self, sys => sys.recovery_cuts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use histories::check;

    fn partial_dist() -> Distribution {
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
    fn every_kind_constructs_the_matching_variant() {
        for kind in ProtocolKind::ALL {
            let sys = DynDsm::new(kind, partial_dist());
            assert_eq!(sys.kind(), kind);
            assert_eq!(sys.process_count(), 4);
        }
    }

    #[test]
    fn runtime_selected_protocol_behaves_like_the_generic_one() {
        let mut erased = DynDsm::new(ProtocolKind::PramPartial, partial_dist());
        let mut generic: DsmSystem<PramPartial> = DsmSystem::new(partial_dist());
        erased.write(ProcId(0), VarId(0), 10).unwrap();
        generic.write(ProcId(0), VarId(0), 10).unwrap();
        erased.settle();
        generic.settle();
        assert_eq!(erased.peek(ProcId(1), VarId(0)), Value::Int(10));
        assert_eq!(erased.network_stats(), generic.network_stats());
        assert_eq!(erased.history(), generic.history());
        assert_eq!(erased.control_summary(), generic.control_summary());
    }

    #[test]
    fn partial_protocols_still_reject_non_replicated_access() {
        let mut sys = DynDsm::new(ProtocolKind::PramPartial, partial_dist());
        assert_eq!(
            sys.write(ProcId(0), VarId(2), 1),
            Err(DsmError::NotReplicated {
                proc: ProcId(0),
                var: VarId(2)
            })
        );
        // Fully replicated protocols accept any variable.
        let mut full = DynDsm::new(ProtocolKind::Sequential, partial_dist());
        full.write(ProcId(0), VarId(2), 1).unwrap();
        full.settle();
        assert_eq!(full.peek(ProcId(3), VarId(2)), Value::Int(1));
    }

    #[test]
    fn recorded_histories_meet_the_advertised_criterion() {
        for kind in ProtocolKind::ALL {
            let mut sys = DynDsm::new(kind, Distribution::full(3, 2));
            sys.write(ProcId(0), VarId(0), 1).unwrap();
            sys.write(ProcId(1), VarId(1), 2).unwrap();
            sys.settle();
            let _ = sys.read(ProcId(2), VarId(0)).unwrap();
            let _ = sys.read(ProcId(2), VarId(1)).unwrap();
            sys.settle();
            let h = sys.history();
            assert!(
                check(&h, kind.guaranteed_criterion()).consistent,
                "{kind}:\n{}",
                h.pretty()
            );
            assert_eq!(sys.operation_count(), 4);
            assert_eq!(sys.pending_messages(), 0);
        }
    }

    /// Reads run in place on the free-running backend, writes are
    /// pipelined to the worker: program order must survive the split. `p0`
    /// is the writer because it sequences `x0` under the sequencer and
    /// op-log protocols, so no echo of an earlier write of the burst can
    /// pass through its replica after the optimistic apply of the last.
    #[test]
    fn a_read_on_threads_sees_the_writes_pipelined_before_it() {
        use simnet::ThreadedMode;
        for kind in ProtocolKind::ALL {
            for n in [2, 4] {
                let mut sys = DynDsm::with_backend(
                    kind,
                    Distribution::full(n, 1),
                    SimConfig::default(),
                    ExecBackend::Threaded(ThreadedMode::FreeRunning),
                );
                sys.disable_recording();
                let mut last = 0;
                for _ in 0..10_000 {
                    for _ in 0..4 {
                        last += 1;
                        sys.write(ProcId(0), VarId(0), last).unwrap();
                    }
                    assert_eq!(
                        sys.read(ProcId(0), VarId(0)),
                        Ok(Value::Int(last)),
                        "{kind} n={n}"
                    );
                }
                sys.settle();
                for p in 0..n {
                    assert_eq!(sys.peek(ProcId(p), VarId(0)), Value::Int(last));
                }
            }
        }
    }

    #[test]
    fn step_and_now_advance_virtual_time() {
        let mut sys = DynDsm::new(ProtocolKind::CausalFull, Distribution::full(3, 1));
        sys.write(ProcId(0), VarId(0), 1).unwrap();
        assert!(sys.pending_messages() > 0);
        assert!(sys.step());
        assert!(sys.now() > SimTime::ZERO);
        sys.settle();
        assert!(!sys.step());
    }
}
