//! MCS protocol implementations.
//!
//! Each protocol provides a node state machine (implementing both
//! [`simnet::Node`] for message handling and [`McsNode`] for the
//! application-facing read/write interface) and a message type that
//! accounts for its own data/control byte split.
//!
//! | module | criterion | replication | control metadata | retained for a restarted peer's catch-up, until the next all-up settle cuts it ([`RecoveryLog`]) |
//! |---|---|---|---|---|
//! | [`causal_full`] | causal | full | vector clock per update, broadcast | own writes with their clock stamp, served by index from the requester's clock |
//! | [`causal_partial`] | causal | partial | vector clock per update to replicas **plus** control-only records to every other node | as [`causal_full`]; resent as update or record |
//! | [`pram_partial`] | PRAM | partial | per-writer sequence number, sent only to replicas | own writes, served by index from the requester's next expected number, filtered to its variables |
//! | [`sequential`] | sequential (baseline) | full | sequencer round trip + global sequence number | the ordered stream at the sequencer, served by index |
//! | [`op_log`] | sequential at settle (PRAM always) | partial | per-shard log append/echo + shard sequence number to replicas | the last sequenced entry per owned variable (a winners table) |

pub mod causal_full;
pub mod causal_partial;
pub mod op_log;
pub mod pram_partial;
mod recovery;
pub mod sequential;

pub use recovery::{RecoveryLog, RecoveryState};

use crate::api::ProtocolKind;
use crate::control::ControlStats;
use histories::{Distribution, ProcId, Value, VarId};
use simnet::{DeliveryMode, Node, NodeContext, NodeId, WireSize};
use std::fmt;
use std::sync::Arc;

/// `table[x]`: the processes replicating `x`, in id order — one table per
/// deployment, so a write's fan-out walks a slice, not an ordered set.
pub(crate) fn replica_table(dist: &Distribution) -> Arc<[Vec<NodeId>]> {
    let mut table = vec![Vec::new(); dist.var_count()];
    for p in 0..dist.process_count() {
        for x in dist.vars_of(ProcId(p)) {
            // In range: `Distribution::assign` grows `var_count` to fit.
            table[x.index()].push(NodeId(p));
        }
    }
    table.into()
}

/// The application-facing interface of an MCS process.
///
/// Reads are wait-free: they return the local replica's current value
/// without any communication (this is the defining performance property of
/// the causal/PRAM family the paper builds on). Writes update the local
/// replica and hand propagation messages to the provided context.
pub trait McsNode: Node<<Self as McsNode>::Msg> {
    /// The message type exchanged between nodes of this protocol.
    /// `Send + 'static` because the threaded execution backend moves
    /// payloads across OS threads; every message type here is plain data,
    /// so the bound costs nothing.
    type Msg: WireSize + fmt::Debug + Clone + Send + 'static;

    /// Wait-free local read. Returns `⊥` if the variable has never been
    /// written (or is not replicated here — callers are expected to check
    /// [`McsNode::replicates`] first; the runtime enforces it).
    fn local_read(&self, var: VarId) -> Value;

    /// Apply a write locally and emit whatever propagation messages the
    /// protocol requires.
    fn local_write(&mut self, ctx: &mut NodeContext<Self::Msg>, var: VarId, value: i64);

    /// Whether this node manages a replica of `var`.
    fn replicates(&self, var: VarId) -> bool;

    /// The node's control-information accounting.
    fn control(&self) -> &ControlStats;

    /// Called once when the node restarts from a persisted snapshot after
    /// a crash. Messages delivered while the node was down are lost, so
    /// this is where a protocol runs its catch-up handshake: re-request
    /// whatever ordering information it missed (and flush any persisted
    /// obligations — e.g. buffered control records — whose flush timers
    /// died with the crash). The default is a no-op: a protocol with no
    /// recovery obligations restarts silently.
    fn on_restart(&mut self, _ctx: &mut NodeContext<Self::Msg>) {}

    /// Cut what this node retains for its peers' recovery. Called at a
    /// quiescent settle with every process up, when nothing retained can
    /// be asked for again (see [`RecoveryLog`]); sends nothing, cannot
    /// fail. Default: nothing retained, nothing to cut.
    fn checkpoint(&mut self) {}

    /// What is retained, and how many cuts were taken — a replica image
    /// carries the count, and the runtime refuses one older than the last.
    fn recovery(&self) -> RecoveryState {
        RecoveryState::default()
    }
}

/// A protocol family: how to instantiate one node per process for a given
/// variable distribution.
pub trait ProtocolSpec {
    /// Message type (`Send + 'static` for the threaded backend — see
    /// [`McsNode::Msg`]).
    type Msg: WireSize + fmt::Debug + Clone + Send + 'static;
    /// Node type. `Clone` is the persistence model of the fault layer: a
    /// crash snapshot is a clone of the node state (replica values, clocks,
    /// pending records), and a restart restores it verbatim. `Send +
    /// 'static` lets the threaded backend host each node on its own OS
    /// thread.
    type Node: McsNode<Msg = Self::Msg> + Clone + Send + 'static;

    /// Which protocol this is.
    const KIND: ProtocolKind;

    /// Build the MCS nodes for a system with the given variable
    /// distribution (one node per process, in process-id order).
    ///
    /// `delivery` carries the wire-efficiency knobs: protocols that emit
    /// per-destination control records honour `delivery.batching` by
    /// buffering and piggybacking them (the partially replicated causal
    /// protocol); the vector-clock-carrying protocols honour
    /// `delivery.delta` by charging each clock at its sparse
    /// [`crate::clock::DeltaVc`] encoding against the writer's previous
    /// write; everyone else ignores them. The `multicast` half of the
    /// mode is handled below the protocols, in the transport.
    fn build_nodes(dist: &Distribution, delivery: DeliveryMode) -> Vec<Self::Node>;
}
