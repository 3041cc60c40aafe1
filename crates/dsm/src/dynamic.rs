//! Protocol erasure: the calls of a DSM deployment that name its
//! protocol's node type.
//!
//! The five protocols differ only in their node state machines, so
//! [`DynDsm`](crate::DynDsm) is one struct for all of them and holds its
//! protocol as a value. Validation, recording, crash/restart,
//! settle-and-cut and statistics are written once there. What reaches
//! into a node — post a write, read a replica, charge or cut, persist and
//! restore an image, run the restart handshake — goes through
//! `ProtocolNet`, a crate-private object-safe trait implemented once,
//! generically, for the boxed [`simnet::Net`] hosting any protocol's
//! nodes. A node's persisted state crosses the erasure as a
//! [`ReplicaSnapshot`].

use crate::api::{DsmError, ProtocolKind};
use crate::control::ControlStats;
use crate::protocol::causal_full::CausalFullNode;
use crate::protocol::causal_partial::CausalPartialNode;
use crate::protocol::op_log::OpLogNode;
use crate::protocol::pram_partial::PramNode;
use crate::protocol::sequential::SequentialNode;
use crate::protocol::{McsNode, RecoveryState};
use histories::{ProcId, Value, VarId};
use simnet::{Net, NetCore, NetError, NodeContext, NodeId};

/// A persisted replica image of one process, taken by
/// [`DynDsm::snapshot`](crate::DynDsm::snapshot) and restorable by
/// [`DynDsm::restore`](crate::DynDsm::restore). Wraps the concrete
/// protocol node state (replica values, vector clock or sequence
/// trackers, pending control records, unflushed buffers, write logs), so
/// the snapshot/restore round trip is lossless by construction — the
/// differential fault tests pin that down with equality.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplicaSnapshot(pub(crate) Image);

/// The protocol node state a [`ReplicaSnapshot`] wraps.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Image {
    /// A fully replicated causal node image.
    CausalFull(Box<CausalFullNode>),
    /// A partially replicated causal node image.
    CausalPartial(Box<CausalPartialNode>),
    /// A PRAM node image.
    PramPartial(Box<PramNode>),
    /// A sequencer-protocol node image.
    Sequential(Box<SequentialNode>),
    /// A shared-operation-log node image.
    OpLog(Box<OpLogNode>),
}

impl ReplicaSnapshot {
    /// The protocol the snapshot belongs to.
    pub fn kind(&self) -> ProtocolKind {
        match &self.0 {
            Image::CausalFull(_) => ProtocolKind::CausalFull,
            Image::CausalPartial(_) => ProtocolKind::CausalPartial,
            Image::PramPartial(_) => ProtocolKind::PramPartial,
            Image::Sequential(_) => ProtocolKind::Sequential,
            Image::OpLog(_) => ProtocolKind::OpLog,
        }
    }

    /// The persisted replica value of `var` (`⊥` if never written).
    pub fn value(&self, var: VarId) -> Value {
        match &self.0 {
            Image::CausalFull(n) => n.local_read(var),
            Image::CausalPartial(n) => n.local_read(var),
            Image::PramPartial(n) => n.local_read(var),
            Image::Sequential(n) => n.local_read(var),
            Image::OpLog(n) => n.local_read(var),
        }
    }
}

/// A node the runtime can host on any backend and persist: `Clone` is
/// the persistence model (a crash image is a clone of the node state,
/// restored verbatim), and `Send + 'static` lets the threaded backend
/// host each node on its own OS thread.
pub(crate) trait Replica: McsNode + Clone + Send + 'static {
    /// Wrap this node's state as an image.
    fn into_snapshot(self) -> ReplicaSnapshot;
    /// Unwrap an image of this node's protocol; `Err` hands back another
    /// protocol's.
    fn from_snapshot(snapshot: ReplicaSnapshot) -> Result<Self, ReplicaSnapshot>;
}

macro_rules! replica {
    ($node:ty, $variant:ident) => {
        impl Replica for $node {
            fn into_snapshot(self) -> ReplicaSnapshot {
                ReplicaSnapshot(Image::$variant(Box::new(self)))
            }
            fn from_snapshot(snapshot: ReplicaSnapshot) -> Result<Self, ReplicaSnapshot> {
                match snapshot.0 {
                    Image::$variant(node) => Ok(*node),
                    other => Err(ReplicaSnapshot(other)),
                }
            }
        }
    };
}

replica!(CausalFullNode, CausalFull);
replica!(CausalPartialNode, CausalPartial);
replica!(PramNode, PramPartial);
replica!(SequentialNode, Sequential);
replica!(OpLogNode, OpLog);

/// A net hosting one protocol's nodes, the node type erased: the calls
/// that reach into a node, and access to the net's own calls, which name
/// no node.
pub(crate) trait ProtocolNet {
    /// Post `w(var)value` on node `id` (pipelined on threads).
    fn post_write(&mut self, id: NodeId, var: VarId, value: i64) -> Result<(), NetError>;
    /// Node `id`'s wait-free local read of `var`.
    fn local_read(&self, id: NodeId, var: VarId) -> Result<Value, NetError>;
    /// Node `id`'s control-information accounting.
    fn control(&self, id: NodeId) -> Result<ControlStats, NetError>;
    /// What node `id` retains for its peers' recovery.
    fn recovery(&self, id: NodeId) -> Result<RecoveryState, NetError>;
    /// Cut what node `id` retains ([`McsNode::checkpoint`]).
    fn checkpoint(&mut self, id: NodeId) -> Result<(), NetError>;
    /// Node `id`'s state as an image.
    fn snapshot(&self, id: NodeId) -> Result<ReplicaSnapshot, NetError>;
    /// Replace node `id`'s state with `snapshot`, unless the image was
    /// taken before the latest recovery-log cut
    /// ([`DsmError::StaleImage`]). Panics on another protocol's image:
    /// that is a programming error, not a fault.
    fn restore(&mut self, id: NodeId, snapshot: ReplicaSnapshot) -> Result<(), DsmError>;
    /// Run node `id`'s catch-up handshake ([`McsNode::on_restart`]).
    fn on_restart(&mut self, id: NodeId) -> Result<(), NetError>;

    /// The net's calls that name no node ([`NetCore`]).
    fn core(&self) -> &dyn NetCore;
    /// [`ProtocolNet::core`], mutably.
    fn core_mut(&mut self) -> &mut dyn NetCore;
}

impl<N: Replica> ProtocolNet for Box<dyn Net<N::Msg, N>> {
    fn post_write(&mut self, id: NodeId, var: VarId, value: i64) -> Result<(), NetError> {
        let write = move |node: &mut N, ctx: &mut NodeContext<N::Msg>| {
            node.local_write(ctx, var, value);
        };
        self.post(id, &mut Some(write))
    }

    fn local_read(&self, id: NodeId, var: VarId) -> Result<Value, NetError> {
        self.query(id, |node| node.local_read(var))
    }

    fn control(&self, id: NodeId) -> Result<ControlStats, NetError> {
        self.query(id, |node| node.control().clone())
    }

    fn recovery(&self, id: NodeId) -> Result<RecoveryState, NetError> {
        self.query(id, N::recovery)
    }

    fn checkpoint(&mut self, id: NodeId) -> Result<(), NetError> {
        self.update(id, &mut N::checkpoint)
    }

    fn snapshot(&self, id: NodeId) -> Result<ReplicaSnapshot, NetError> {
        self.query(id, |node| node.clone().into_snapshot())
    }

    fn restore(&mut self, id: NodeId, snapshot: ReplicaSnapshot) -> Result<(), DsmError> {
        let image = N::from_snapshot(snapshot).unwrap_or_else(|other| {
            panic!(
                "snapshot of {} cannot restore into a system of another protocol",
                other.kind()
            )
        });
        // The node being replaced was up at every cut so far, or has been
        // down since before the first one it missed — and nothing is cut
        // while a process is down — so its count is the system's.
        let image_cuts = image.recovery().cuts;
        let system_cuts = self.query(id, |node| node.recovery().cuts)?;
        if image_cuts < system_cuts {
            return Err(DsmError::StaleImage {
                proc: ProcId(id.index()),
                image_cuts,
                system_cuts,
            });
        }
        Ok(self.update(id, &mut |node| *node = image.clone())?)
    }

    fn on_restart(&mut self, id: NodeId) -> Result<(), NetError> {
        self.invoke(id, &mut |node, ctx| node.on_restart(ctx))
    }

    fn core(&self) -> &dyn NetCore {
        &**self
    }

    fn core_mut(&mut self) -> &mut dyn NetCore {
        &mut **self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::DynDsm;
    use histories::{check, Distribution};
    use simnet::{ExecBackend, SimConfig, SimTime};

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
            assert_eq!(sys.snapshot(ProcId(0)).kind(), kind);
        }
    }

    #[test]
    #[should_panic(expected = "cannot restore into")]
    fn a_snapshot_of_another_protocol_does_not_restore() {
        let pram = DynDsm::new(ProtocolKind::PramPartial, partial_dist());
        let mut causal = DynDsm::new(ProtocolKind::CausalPartial, partial_dist());
        let _ = causal.try_restore(ProcId(1), pram.snapshot(ProcId(1)));
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
            assert!(!sys.step(), "nothing left in flight");
        }
    }

    /// Reads run in place on the free-running backend, writes are
    /// pipelined to the worker (and run by the reader when it finds them
    /// still queued): program order must survive the split, at
    /// every process. Each one writes and reads a variable of its own, so
    /// every process but p0 neither sequences (sequencer) nor owns
    /// (op-log) what it writes: the ordered echo or log entry of an
    /// earlier write of its burst can reach its replica after the
    /// optimistic apply of the last, and must not show through.
    #[test]
    fn a_read_on_threads_sees_the_writes_pipelined_before_it() {
        use simnet::ThreadedMode;
        for kind in ProtocolKind::ALL {
            for n in [2, 4] {
                let mut sys = DynDsm::with_backend(
                    kind,
                    Distribution::full(n, n),
                    SimConfig::default(),
                    ExecBackend::Threaded(ThreadedMode::FreeRunning),
                );
                sys.disable_recording();
                let mut last = vec![0; n];
                for _ in 0..5_000 {
                    for (p, last) in last.iter_mut().enumerate() {
                        for _ in 0..4 {
                            *last += 1;
                            sys.write(ProcId(p), VarId(p), *last).unwrap();
                        }
                        assert_eq!(
                            sys.read(ProcId(p), VarId(p)),
                            Ok(Value::Int(*last)),
                            "{kind} n={n} p{p}"
                        );
                    }
                }
                sys.settle();
                for p in 0..n {
                    for (x, &last) in last.iter().enumerate() {
                        assert_eq!(sys.peek(ProcId(p), VarId(x)), Value::Int(last));
                    }
                }
            }
        }
    }

    #[test]
    fn step_and_now_advance_virtual_time() {
        let mut sys = DynDsm::new(ProtocolKind::CausalFull, Distribution::full(3, 1));
        sys.write(ProcId(0), VarId(0), 1).unwrap();
        assert!(sys.step());
        assert!(sys.now() > SimTime::ZERO);
        sys.settle();
        assert!(!sys.step());
    }
}
