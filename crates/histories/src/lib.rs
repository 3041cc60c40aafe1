//! # histories — the formal shared-memory model of Hélary & Milani
//!
//! This crate is an executable rendition of Sections 2–5 of
//! *"About the efficiency of partial replication to implement Distributed
//! Shared Memory"* (Hélary & Milani, 2005/2006):
//!
//! * Operations, local and global histories, and the `H_{i+w}`
//!   projections the consistency definitions use (§2): [`Operation`],
//!   [`History`], [`HistoryBuilder`].
//! * The read-from (writes-into) relation `7→ro`: [`ReadFrom`].
//! * The order relations behind [`OrderRelation`]: program order `7→i`
//!   and causal order `7→co` (§2), lazy causal order `7→lco` (§4.1), lazy
//!   semi-causal order `7→lsc` (§4.2), and the PRAM relation `7→pram`
//!   (§5).
//! * Per-criterion consistency checkers ([`check`], [`check_all`]) for
//!   Causal, Lazy Causal, Lazy Semi-Causal, PRAM and Sequential, run as
//!   explicit searches for the per-process legal serializations
//!   (Definition 1) the definitions require.
//! * Polynomial PRAM and causal spot-checkers ([`pram_spot_check`],
//!   [`causal_spot_check`]; sound for violations, incomplete) for
//!   histories too large for the exponential search.
//! * Variable distributions `X_i` ([`Distribution`]), the share graph
//!   `SG = ∪_x C(x)` and its cliques ([`ShareGraph`], §3.1).
//! * x-hoops ([`enumerate_hoops`], Definition 3) and x-dependency chains
//!   along them ([`has_dependency_chain`], Definition 4), parameterized by
//!   the order relation.
//! * The x-relevant processes of Theorem 1 ([`relevant_processes`]), the
//!   witness history of its necessity proof ([`witness_history`]), and
//!   the Theorem 2 check for PRAM ([`pram_chain_violations`]).
//! * [`figures`] — the concrete share graphs and histories of Figures 1–6.
//!
//! The crate is purely combinatorial/deterministic: no I/O, no clocks, no
//! randomness (random *inputs* are generated by callers).

#![deny(missing_docs)]

mod checker;
mod dependency;
mod distribution;
// Public as a module on purpose: the paper's figures, one function each.
pub mod figures;
mod history;
mod hoop;
mod op;
mod orders;
#[cfg(test)]
mod properties;
mod read_from;
mod relation;
mod relevance;
#[cfg(test)]
mod serialization;
mod share_graph;
mod spot;

pub use checker::{check, check_all, ConsistencyReport, Criterion, Violation};
pub use dependency::{has_dependency_chain, ChainOrder, DependencyChain};
pub use distribution::Distribution;
pub use history::{History, HistoryBuilder, OpIdx};
pub use hoop::{enumerate_hoops, hoop_intermediaries, Hoop};
pub use op::{OpKind, Operation, ProcId, Value, VarId};
pub use orders::{CausalOrder, OrderRelation, PramRelation, ProgramOrder};
pub use read_from::ReadFrom;
/// `pram_chain_violations` and `witness_has_causal_chain`: the Theorem 2
/// and Theorem 1 end-to-end tests in `apps` call them.
pub use relevance::{
    pram_chain_violations, relevant_processes, witness_has_causal_chain, witness_history,
    RelevanceError,
};
pub use share_graph::ShareGraph;
pub use spot::{causal_spot_check, pram_spot_check, CausalSpotViolation, SpotViolation};
