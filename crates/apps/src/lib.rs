//! # apps — workloads programmed against the partial-replication DSM
//!
//! The applications the paper uses to motivate PRAM-consistent partial
//! replication, implemented on top of the [`dsm`] crate:
//!
//! * [`bellman_ford`] — the distributed Bellman-Ford shortest-path
//!   computation of §6 (Figures 7–9), including the exact Figure 8 network.
//! * [`matrix`] — blocked matrix product, one of the oblivious computations
//!   of Lipton & Sandberg (§5).
//! * [`dynprog`] — pipelined dynamic programming (longest common
//!   subsequence), the second Lipton & Sandberg family.
//! * [`jacobi`] — totally asynchronous fixed-point iteration (Sinha's
//!   observation that such methods converge even on weak memories).
//! * [`graphs`] — weighted digraphs, the Figure 8 network, generators, and
//!   the sequential Bellman-Ford reference.
//! * [`workload`] — the operation-level workload script language.
//! * [`scenario`] — the scenario engine: distribution × workload ×
//!   latency × settle-policy bundles executed under any protocol chosen at
//!   runtime, returning a unified [`scenario::RunReport`]. Every
//!   comparative driver (benchmarks, examples, tests) goes through it.
//!
//! Every distributed run is validated against a sequential reference
//! implementation in the module's tests. Every app driver picks its
//! protocol at runtime from a [`dsm::ProtocolKind`] and returns a
//! [`scenario::RunReport`] with its result, or a [`dsm::DsmError`].

#![warn(missing_docs)]

pub mod bellman_ford;
pub mod dynprog;
pub mod graphs;
pub mod jacobi;
pub mod matrix;
pub mod scenario;
pub mod workload;

pub use bellman_ford::{
    bellman_ford_distribution, counter_var, distance_var, run_bellman_ford, BellmanFordRun,
};
pub use dynprog::{lcs_distribution, lcs_reference, run_lcs};
pub use graphs::{shortest_paths_reference, Network, INFINITY};
pub use jacobi::{jacobi_distribution, run_jacobi, FixedPointProblem, JacobiRun, SCALE};
pub use matrix::{matrix_distribution, run_matrix_product, Matrix};
pub use scenario::{
    generate_family_ops, latency_label, parallel_map, run_all, run_scenario, run_script,
    standard_distributions, standard_grid, standard_latencies, standard_topologies,
    standard_workloads, DistributionFamily, RunReport, Scenario, SettlePolicy, TopologyFamily,
    WorkloadFamily,
};
pub use workload::WorkloadOp;
