//! # dsm — Memory Consistency System protocols over a simulated cluster
//!
//! This crate is the executable core of the reproduction: the Memory
//! Consistency System (MCS) protocols whose relative *control-information*
//! cost the paper reasons about, run over the deterministic cluster
//! emulation provided by [`simnet`], validated against the formal model of
//! [`histories`].
//!
//! ## Quick start
//!
//! ```
//! use dsm::{DsmSystem, PramPartial};
//! use histories::{Distribution, ProcId, Value, VarId};
//!
//! // Three processes; x0 shared by p0 and p1, x1 shared by p1 and p2.
//! let mut dist = Distribution::new(3, 2);
//! dist.assign(ProcId(0), VarId(0));
//! dist.assign(ProcId(1), VarId(0));
//! dist.assign(ProcId(1), VarId(1));
//! dist.assign(ProcId(2), VarId(1));
//!
//! let mut dsm: DsmSystem<PramPartial> = DsmSystem::new(dist);
//! dsm.write(ProcId(0), VarId(0), 42).unwrap();
//! dsm.settle(); // deliver all in-flight updates
//! assert_eq!(dsm.read(ProcId(1), VarId(0)).unwrap(), Value::Int(42));
//!
//! // p2 never receives any metadata about x0: efficient partial replication.
//! assert!(!dsm.control_summary().node(ProcId(2)).tracks(VarId(0)));
//! ```
//!
//! ## Protocols
//!
//! | type | criterion | replication | per-update control info |
//! |---|---|---|---|
//! | [`CausalFull`] | causal | full | `O(n)` vector clock, broadcast to all |
//! | [`CausalPartial`] | causal | partial (data) | `O(n)` vector clock to replicas **plus** control-only records to everyone else |
//! | [`PramPartial`] | PRAM | partial | per-writer sequence number, replicas only |
//! | [`Sequential`] | sequential (baseline) | full | sequencer round trip + global sequence number |
//! | [`OpLog`] | sequential at settle (PRAM always) | partial | per-shard flat-combining append/echo + shard sequence number, replicas only |
//!
//! The asymmetry between [`CausalPartial`] and [`PramPartial`] is the
//! paper's result made measurable: causal consistency forces every node to
//! handle metadata about every variable (Theorem 1), while PRAM lets the
//! metadata stay inside each variable's replica set (Theorem 2).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod api;
pub mod clock;
pub mod control;
pub mod dynamic;
pub mod protocol;
pub mod recorder;
pub mod runtime;

#[cfg(test)]
mod recovery_tests;

pub use api::{DsmError, ProtocolKind};
pub use clock::{DeltaVc, SequenceTracker, VectorClock};
pub use control::{ControlStats, ControlSummary};
pub use dynamic::{DynDsm, ReplicaSnapshot};
pub use protocol::causal_full::{CausalFull, CausalFullMsg, CausalFullNode, CausalMsg};
pub use protocol::causal_partial::{
    CausalPartial, CausalPartialMsg, CausalPartialNode, ControlRecord, MAX_BATCH,
    RECORD_DELTA_BYTES,
};
pub use protocol::op_log::{OpLog, OpLogMsg, OpLogNode};
pub use protocol::pram_partial::{PramMsg, PramNode, PramPartial, PramPartialMsg};
pub use protocol::sequential::{SeqMsg, Sequential, SequentialNode};
pub use protocol::{McsNode, ProtocolSpec, RecoveryLog, RecoveryState};
pub use recorder::Recorder;
pub use runtime::DsmSystem;
