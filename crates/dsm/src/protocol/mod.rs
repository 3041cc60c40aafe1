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
//!
//! ## Node state
//!
//! What the protocols share lives here, not in five copies:
//!
//! * **Per-variable state is dense.** Every replica store — `Value`s for
//!   the causal protocols and PRAM, `Slot`s for the sequencer and the
//!   op-log — and every other table keyed by variable (PRAM's
//!   per-(writer, variable) guard, one store per writer; the op-log's
//!   committed and winner tables) is a `Store<T>` (`store.rs`): a `Vec`
//!   indexed by [`VarId`], where a never-written slot reads absent, so a
//!   delivery pays one bounds check instead of an ordered-map walk.
//! * **Who replicates what** is one `replica_table` per deployment,
//!   shared by every node of it (no node keeps a `Distribution`): write
//!   fan-out walks `table[x]`, and `replicates` answers membership by
//!   binary search.
//! * **Causal delivery** is one kernel (`causal.rs`) for both causal
//!   protocols: clock, store, parked writes, and the `Stamp` that lets
//!   a receiver find an in-order write in O(1).
//! * **Recovery and batching**: [`RecoveryLog`], `FlushWindow`, and the
//!   `OwedLog` of control records a causal-partial writer still owes its
//!   peers (`owed.rs`: each record logged once, a cursor per destination).

mod causal;
pub(crate) mod causal_full;
pub(crate) mod causal_partial;
pub(crate) mod op_log;
mod owed;
pub(crate) mod pram_partial;
mod recovery;
pub(crate) mod sequential;
mod store;
mod window;

pub(crate) use owed::OwedLog;
pub(crate) use recovery::{RecoveryLog, RecoveryState};
pub(crate) use store::Store;
pub(crate) use window::FlushWindow;

use crate::control::ControlStats;
use histories::{Distribution, ProcId, Value, VarId};
use simnet::{Node, NodeContext, NodeId, WireSize};
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

/// Whether process `p` replicates `var`, by the shared [`replica_table`].
pub(crate) fn replicates(table: &[Vec<NodeId>], p: NodeId, var: VarId) -> bool {
    (table.get(var.index())).is_some_and(|r| r.binary_search(&p).is_ok())
}

/// A replica slot of the write-ordering protocols (sequencer, op-log):
/// the visible value, and how many own writes to the variable still
/// await their place in the order. While any does, the value is the
/// newest of them, which nothing ordered so far may replace
/// (read-your-writes at the writer). A variable without a slot reads ⊥.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct Slot {
    value: i64,
    unordered: u32,
}

impl Slot {
    /// The value as read.
    pub(crate) fn read(slot: Option<&Slot>) -> Value {
        slot.map_or(Value::Bottom, |s| Value::Int(s.value))
    }

    /// An own write, shown at once; `unordered` says whether it still
    /// awaits its place in the order.
    pub(crate) fn write(&mut self, value: i64, unordered: bool) {
        self.value = value;
        self.unordered += u32::from(unordered);
    }

    /// A write that got its place in the order (`own`: one of this
    /// node's): shown unless a newer own write still awaits its place.
    pub(crate) fn order(&mut self, value: i64, own: bool) {
        self.unordered = self.unordered.saturating_sub(u32::from(own));
        if self.unordered == 0 {
            self.value = value;
        }
    }
}

/// The application-facing interface of an MCS process.
///
/// Reads are wait-free: they return the local replica's current value
/// without any communication (this is the defining performance property of
/// the causal/PRAM family the paper builds on). Writes update the local
/// replica and hand propagation messages to the provided context.
pub(crate) trait McsNode: Node<<Self as McsNode>::Msg> {
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
