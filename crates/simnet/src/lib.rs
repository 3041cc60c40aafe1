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
//! * [`time::SimTime`] — a virtual clock (nanosecond granularity).
//! * [`message::WireSize`] — payload and control-metadata byte accounting.
//! * [`channel::Channel`] and [`channel::LatencyModel`] — reliable FIFO
//!   links with constant or seeded-jitter latency.
//! * [`network::Topology`] — which pairs of nodes may communicate (full
//!   mesh, ring, grid, star, line, or arbitrary directed link sets).
//! * [`node::Node`] — the trait protocol state machines implement.
//! * [`sim::Simulator`] — the event-driven driver (run to quiescence,
//!   bounded runs, deterministic tie-breaking). As the threaded net's
//!   replay oracle it also logs, per node, the order in which that node
//!   handles its deliveries and timers.
//! * [`route::Router`] / [`route::Relay`] — overlay routing: BFS
//!   shortest-path tables and relay envelopes that let any-to-any
//!   protocols run on sparse topologies.
//! * [`transport::Net`] — the one network surface drivers hold, which
//!   the simulator and the threaded net ([`threaded::ThreadedNet`])
//!   implement; [`transport::deploy`] picks the backend and direct or
//!   routed delivery per [`transport::RoutingMode`].
//! * [`stats::NetworkStats`] — per-link and per-node counters used by the
//!   benchmark harness to quantify "control information" overhead.
//!
//! Determinism: given the same nodes, the same latency model seed, and the
//! same sequence of external injections, a simulation run is bit-for-bit
//! reproducible. Ties in delivery time are broken by (time, sequence
//! number), where sequence numbers are assigned in send order.

#![deny(missing_docs)]

pub mod backend;
pub mod chan;
pub mod channel;
pub mod event;
pub mod fault;
pub mod message;
pub mod network;
pub mod node;
pub mod pool;
pub mod route;
pub mod sim;
pub mod stats;
pub mod threaded;
pub mod time;
pub mod transport;

pub use backend::{ExecBackend, ThreadedMode};
pub use channel::{Channel, LatencyModel, Transmission};
pub use event::{Event, EventKind, EventQueue};
pub use fault::{DownAction, FaultPlan};
pub use message::{NodeId, WireSize};
pub use network::Topology;
pub use node::{Node, NodeContext, Outgoing};
pub use pool::{BufferPool, PoolStats};
pub use route::{Multicast, Packet, Relay, RouteError, Routed, Router};
pub use sim::{RunOutcome, SendError, SimConfig, Simulator};
pub use stats::{LinkStats, NetworkStats, NodeStats};
pub use threaded::{FabricStats, ThreadedNet, WorkerDead};
pub use time::{SimDuration, SimTime};
pub use transport::{
    deploy, BoxedPost, DeliveryMode, Net, NetCore, NetError, Posted, RoutingMode, Transport,
};
