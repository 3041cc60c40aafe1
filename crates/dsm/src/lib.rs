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
//! use dsm::{DynDsm, ProtocolKind};
//! use histories::{Distribution, ProcId, Value, VarId};
//!
//! // Three processes; x0 shared by p0 and p1, x1 shared by p1 and p2.
//! let mut dist = Distribution::new(3, 2);
//! dist.assign(ProcId(0), VarId(0));
//! dist.assign(ProcId(1), VarId(0));
//! dist.assign(ProcId(1), VarId(1));
//! dist.assign(ProcId(2), VarId(1));
//!
//! let mut dsm = DynDsm::new(ProtocolKind::PramPartial, dist);
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
//! [`DynDsm`] is one system for every protocol: the protocol is a
//! [`ProtocolKind`] value, and only the node state machines differ.
//!
//! | kind | criterion | replication | per-update control info | retained for a restarted peer's catch-up, until the next all-up settle cuts it |
//! |---|---|---|---|---|
//! | [`ProtocolKind::CausalFull`] | causal | full | `O(n)` vector clock, broadcast to all | own writes with their clock stamp, served by index from the requester's clock |
//! | [`ProtocolKind::CausalPartial`] | causal | partial (data) | `O(n)` vector clock to replicas **plus** control-only records to everyone else | as causal-full; resent as update or record |
//! | [`ProtocolKind::PramPartial`] | PRAM | partial | per-writer sequence number, replicas only | own writes, served by index from the requester's next expected number, filtered to its variables |
//! | [`ProtocolKind::Sequential`] | sequential (baseline) | full | sequencer round trip + global sequence number | the ordered stream at the sequencer, served by index |
//! | [`ProtocolKind::OpLog`] | sequential at settle (PRAM always) | partial | per-shard flat-combining append/echo + shard sequence number, replicas only | the last sequenced entry per owned variable (a winners table) |
//!
//! The asymmetry between causal-partial and PRAM-partial is the paper's
//! result made measurable: causal consistency forces every node to handle
//! metadata about every variable (Theorem 1), while PRAM lets the
//! metadata stay inside each variable's replica set (Theorem 2).

#![deny(missing_docs)]

mod api;
mod clock;
mod control;
mod dynamic;
mod protocol;
mod recorder;
mod runtime;

#[cfg(test)]
mod recovery_tests;

pub use api::{DsmError, ProtocolKind};
pub use clock::{DeltaVc, VectorClock};
pub use control::{ControlStats, ControlSummary};
pub use dynamic::ReplicaSnapshot;
pub use recorder::Recorder;
pub use runtime::DynDsm;
