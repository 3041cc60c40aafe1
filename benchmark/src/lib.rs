//! `dsmbench`: the repository's benchmark.
//!
//! One command runs one workload in one process: the same seeded,
//! race-free script under all five protocols through `DynDsm`, on simnet
//! or on threads. An untraced run reports the end-to-end metrics; a traced
//! run wraps every call into `DynDsm` in a span, probes each layer's
//! public functions from outside, and reports the per-layer account. See
//! `README.md` beside this package for the definitions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod cli;
pub mod host;
pub mod probes;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
