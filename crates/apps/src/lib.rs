//! # apps — workloads programmed against the partial-replication DSM
//!
//! The applications the paper uses to motivate PRAM-consistent partial
//! replication, implemented on top of the [`dsm`] crate:
//!
//! * [`run_bellman_ford`] — the distributed Bellman-Ford shortest-path
//!   computation of §6 (Figures 7–9), including the exact Figure 8
//!   network ([`Network`], with the sequential reference
//!   [`shortest_paths_reference`]).
//! * [`run_matrix_product`] — blocked matrix product, one of the oblivious
//!   computations of Lipton & Sandberg (§5).
//! * [`run_lcs`] — pipelined dynamic programming (longest common
//!   subsequence), the second Lipton & Sandberg family.
//! * [`run_jacobi`] — totally asynchronous fixed-point iteration (Sinha's
//!   observation that such methods converge even on weak memories).
//! * [`WorkloadOp`] — the operation-level workload script language.
//! * [`Scenario`] — the scenario engine: distribution × workload ×
//!   latency × settle-policy bundles executed under any protocol chosen at
//!   runtime, returning a unified [`RunReport`]. Every comparative driver
//!   (benchmarks, examples, tests) goes through it.
//!
//! Every distributed run is validated against a sequential reference
//! implementation in the module's tests. Every app driver picks its
//! protocol at runtime from a [`dsm::ProtocolKind`] and returns a
//! [`RunReport`] with its result, or a [`dsm::DsmError`].

#![warn(missing_docs)]

mod bellman_ford;
mod dynprog;
mod graphs;
mod jacobi;
mod matrix;
mod scenario;
mod workload;

pub use bellman_ford::{
    bellman_ford_distribution, counter_var, distance_var, run_bellman_ford, BellmanFordRun,
};
pub use dynprog::run_lcs;
pub use graphs::{shortest_paths_reference, Network};
pub use jacobi::{run_jacobi, FixedPointProblem, JacobiRun};
pub use matrix::{run_matrix_product, Matrix};
pub use scenario::{
    apply_script, generate_family_ops, latency_label, parallel_map, run_all, run_scenario,
    run_script, run_script_faulted, standard_distributions, standard_faults, standard_grid,
    standard_latencies, standard_topologies, standard_workloads, CrashSchedule, DistributionFamily,
    FaultFamily, RunReport, Scenario, SettlePolicy, TopologyFamily, WorkloadFamily,
};
pub use workload::WorkloadOp;
