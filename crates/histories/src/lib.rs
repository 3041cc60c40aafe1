//! # histories — the formal shared-memory model of Hélary & Milani
//!
//! This crate is an executable rendition of Sections 2–5 of
//! *"About the efficiency of partial replication to implement Distributed
//! Shared Memory"* (Hélary & Milani, 2005/2006):
//!
//! * [`op`], [`history`] — operations, local histories, global histories and
//!   the `H_{i+w}` projections used by the consistency definitions (§2).
//! * [`read_from`] — the read-from (writes-into) relation `7→ro`.
//! * [`relation`] — a small directed-relation toolkit (edges, transitive
//!   closure, reachability) shared by all the order relations.
//! * [`orders`] — program order `7→i`, causal order `7→co` (§2), lazy
//!   program order `→li` and lazy causal order `7→lco` (§4.1), lazy
//!   writes-before `→lwb` and lazy semi-causal order `7→lsc` (§4.2), and the
//!   PRAM relation `7→pram` (§5).
//! * [`serialization`] — Definition 1 (legal serializations) and
//!   order-respecting checks.
//! * [`checker`] — per-criterion consistency checkers (Causal, Lazy Causal,
//!   Lazy Semi-Causal, PRAM, Sequential) implemented as explicit searches
//!   for the per-process serializations the definitions require.
//! * [`spot`] — polynomial PRAM and causal spot-checkers (sound for
//!   violations, incomplete) for histories too large for the exponential
//!   search.
//! * [`distribution`], [`share_graph`] — variable distributions `X_i`, the
//!   share graph `SG = ∪_x C(x)` and its cliques (§3.1).
//! * [`hoop`] — x-hoop enumeration (Definition 3).
//! * [`dependency`] — x-dependency chains along hoops (Definition 4),
//!   parameterized by the order relation.
//! * [`relevance`] — the x-relevant process characterization of Theorem 1,
//!   the witness-history construction used in its necessity proof, and the
//!   Theorem 2 check for PRAM.
//! * [`figures`] — the concrete share graphs and histories of Figures 1–6.
//!
//! The crate is purely combinatorial/deterministic: no I/O, no clocks, no
//! randomness (random *inputs* are generated by callers).

#![deny(missing_docs)]

pub mod checker;
pub mod dependency;
pub mod distribution;
pub mod figures;
pub mod history;
pub mod hoop;
pub mod op;
pub mod orders;
pub mod read_from;
pub mod relation;
pub mod relevance;
pub mod serialization;
pub mod share_graph;
pub mod spot;

pub use checker::{check, ConsistencyReport, Criterion, Violation};
pub use dependency::{has_dependency_chain, DependencyChain};
pub use distribution::Distribution;
pub use history::{History, HistoryBuilder, OpIdx};
pub use hoop::{enumerate_hoops, Hoop};
pub use op::{OpKind, Operation, ProcId, Value, VarId};
pub use orders::{
    CausalOrder, LazyCausalOrder, LazySemiCausalOrder, OrderRelation, PramRelation, ProgramOrder,
};
pub use read_from::ReadFrom;
pub use relevance::{relevant_processes, witness_history, RelevanceError};
pub use share_graph::ShareGraph;
pub use spot::{causal_spot_check, pram_spot_check, CausalSpotViolation, SpotViolation};
