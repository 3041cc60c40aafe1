//! # simnet — deterministic cluster emulation for DSM protocols
//!
//! The paper ("About the efficiency of partial replication to implement
//! Distributed Shared Memory", Hélary & Milani) assumes a classical
//! asynchronous distributed system: a finite set of nodes, each hosting an
//! application process and a Memory Consistency System (MCS) process,
//! communicating through **reliable FIFO point-to-point channels**.
//!
//! This crate provides that substrate as a *deterministic discrete-event
//! simulator*:
//!
//! * [`SimTime`] — a virtual clock (nanosecond granularity).
//! * [`WireSize`] — payload and control-metadata byte accounting.
//! * [`Channel`] and [`LatencyModel`] — reliable FIFO links with constant
//!   or seeded-jitter latency.
//! * [`Topology`] — which pairs of nodes may communicate (full mesh, ring,
//!   grid, star, line, or arbitrary directed link sets).
//! * [`Node`] — the trait protocol state machines implement.
//! * [`Simulator`] — the event-driven driver (run to quiescence, bounded
//!   runs, deterministic tie-breaking). As the threaded net's replay
//!   oracle it also logs, per node, the order in which that node handles
//!   its deliveries and timers.
//! * [`Router`] — overlay routing: BFS shortest-path tables, whose relay
//!   envelopes let any-to-any protocols run on sparse topologies.
//! * [`Net`] — the one network surface drivers hold, which the simulator
//!   and the threaded net ([`ThreadedNet`]) implement; [`deploy`] picks
//!   the backend and direct or routed delivery per [`RoutingMode`].
//! * [`NetworkStats`] — per-link and per-node counters used by the
//!   benchmark harness to quantify "control information" overhead.
//!
//! Determinism: given the same nodes, the same latency model seed, and the
//! same sequence of external injections, a simulation run is bit-for-bit
//! reproducible. Ties in delivery time are broken by (time, sequence
//! number), where sequence numbers are assigned in send order.

#![deny(missing_docs)]

mod backend;
// Public as a module on purpose: dsmbench times `chan::fabric` directly.
pub mod chan;
mod channel;
mod event;
mod fault;
mod message;
mod network;
mod node;
mod pool;
mod route;
mod sim;
mod stats;
mod threaded;
mod time;
mod transport;

pub use backend::{ExecBackend, ThreadedMode};
pub use channel::{Channel, LatencyModel, Transmission};
pub use event::{Event, EventKind, EventQueue};
pub use fault::{DownAction, FaultPlan};
pub use message::{NodeId, WireSize};
pub use network::Topology;
pub use node::{Node, NodeContext, Outgoing};
pub use pool::{BufferPool, PoolStats};
pub use route::{RouteError, Router};
pub use sim::{RunOutcome, SendError, SimConfig, Simulator};
pub use stats::{LinkStats, NetworkStats, NodeStats};
pub use threaded::{FabricStats, ThreadedNet, WorkerDead};
pub use time::{SimDuration, SimTime};
pub use transport::{deploy, DeliveryMode, Net, NetCore, NetError, Posted, RoutingMode, Transport};
