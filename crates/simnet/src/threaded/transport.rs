//! Routing-aware wrapper over [`ThreadedNet`] — the threaded sibling of
//! [`Transport`](crate::transport::Transport).
//!
//! A [`ThreadedTransport`] decides, exactly like `Transport::new`, whether
//! logical sends travel directly (full mesh, or `RoutingMode::Direct`) or
//! as routed envelopes over BFS shortest paths. In the routed case the
//! worker threads host [`Relay`] nodes: the protocol node lives *inside*
//! the relay, every logical send is wrapped into
//! [`Packet`](crate::route::Packet) envelopes addressed one hop at a
//! time, and intermediate workers forward transit envelopes — real
//! store-and-forward over real threads, using the same `Relay` state
//! machine the simulator routes with. Replay mode keeps its oracle: the
//! embedded transport is built over the same topology with the same
//! relays, so routed replay stays bit-identical to the simnet sibling,
//! forwarding hops included.

use super::{FabricStats, ThreadedNet, WorkerDead};
use crate::backend::ThreadedMode;
use crate::message::{NodeId, WireSize};
use crate::network::Topology;
use crate::node::{Node, NodeContext};
use crate::pool::PoolStats;
use crate::route::{Packet, Relay, RouteError, Router};
use crate::sim::{RunOutcome, SimConfig};
use crate::stats::NetworkStats;
use crate::time::SimTime;
use crate::transport::RoutingMode;
use std::fmt;
use std::sync::Arc;

/// A set of worker threads that protocol nodes send through, with the
/// routing decision hidden — the threaded counterpart of
/// [`Transport`](crate::transport::Transport).
pub enum ThreadedTransport<P, N>
where
    P: WireSize + fmt::Debug + Clone + Send + 'static,
    N: Node<P> + Clone + Send + 'static,
{
    /// Direct sends over a full mesh of rings.
    Direct(ThreadedNet<P, N>),
    /// Relay nodes on worker threads forwarding envelopes hop by hop.
    Routed(ThreadedNet<Packet<P>, Relay<P, N>>),
}

impl<P, N> ThreadedTransport<P, N>
where
    P: WireSize + fmt::Debug + Clone + Send + 'static,
    N: Node<P> + Clone + Send + 'static,
{
    /// Build a threaded transport over `topology` hosting `nodes`,
    /// honouring `config.routing` exactly as
    /// [`Transport::new`](crate::transport::Transport::new) does. Fails
    /// with [`RouteError::Disconnected`] when a routed mode is selected
    /// on a topology that is not strongly connected.
    pub fn new(
        mode: ThreadedMode,
        topology: Topology,
        config: SimConfig,
        nodes: Vec<N>,
    ) -> Result<Self, RouteError> {
        let routed = match config.routing {
            RoutingMode::Direct => false,
            RoutingMode::ForceRouted => true,
            RoutingMode::Auto => !topology.is_full_mesh(),
        };
        if routed {
            let multicast = config.delivery.multicast;
            let router = Arc::new(Router::new(&topology)?);
            let relays = nodes
                .into_iter()
                .enumerate()
                .map(|(i, node)| Relay::new(node, NodeId(i), Arc::clone(&router), multicast))
                .collect();
            Ok(ThreadedTransport::Routed(ThreadedNet::with_topology(
                mode, topology, config, relays,
            )))
        } else {
            Ok(ThreadedTransport::Direct(ThreadedNet::with_topology(
                mode, topology, config, nodes,
            )))
        }
    }

    /// Whether sends are relayed over shortest paths.
    pub fn is_routed(&self) -> bool {
        matches!(self, ThreadedTransport::Routed(_))
    }

    /// The scheduling mode the workers run in.
    pub fn mode(&self) -> ThreadedMode {
        match self {
            ThreadedTransport::Direct(net) => net.mode(),
            ThreadedTransport::Routed(net) => net.mode(),
        }
    }

    /// Number of hosted protocol nodes (= worker threads).
    pub fn node_count(&self) -> usize {
        match self {
            ThreadedTransport::Direct(net) => net.node_count(),
            ThreadedTransport::Routed(net) => net.node_count(),
        }
    }

    /// The topology this transport was deployed over.
    pub fn topology(&self) -> &Topology {
        match self {
            ThreadedTransport::Direct(net) => net.topology(),
            ThreadedTransport::Routed(net) => net.topology(),
        }
    }

    /// Run `f` against node `id`'s state machine; its sends enter the
    /// fabric according to the routing mode. Panics if a worker thread
    /// has died; use [`ThreadedTransport::try_with_node`] otherwise.
    pub fn with_node<R, F>(&mut self, id: NodeId, f: F) -> R
    where
        F: Fn(&mut N, &mut NodeContext<P>) -> R,
    {
        self.try_with_node(id, f).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`ThreadedTransport::with_node`].
    pub fn try_with_node<R, F>(&mut self, id: NodeId, f: F) -> Result<R, WorkerDead>
    where
        F: Fn(&mut N, &mut NodeContext<P>) -> R,
    {
        match self {
            ThreadedTransport::Direct(net) => net.try_with_node(id, f),
            // Same wrapping as `Transport::try_with_node`: run the closure
            // against the inner protocol node, then route whatever it
            // sent into per-hop envelopes.
            ThreadedTransport::Routed(net) => {
                net.try_with_node(id, move |relay, ctx| relay.with_inner(ctx, &f))
            }
        }
    }

    /// Pipelined variant of [`ThreadedTransport::with_node`] for closures
    /// whose result nobody reads — see
    /// [`ThreadedNet::with_node_async`]. Panics if a worker thread has
    /// died; use [`ThreadedTransport::try_with_node_async`] otherwise.
    pub fn with_node_async<F>(&mut self, id: NodeId, f: F)
    where
        F: Fn(&mut N, &mut NodeContext<P>) + Send + 'static,
    {
        self.try_with_node_async(id, f)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`ThreadedTransport::with_node_async`].
    pub fn try_with_node_async<F>(&mut self, id: NodeId, f: F) -> Result<(), WorkerDead>
    where
        F: Fn(&mut N, &mut NodeContext<P>) + Send + 'static,
    {
        match self {
            ThreadedTransport::Direct(net) => net.try_with_node_async(id, f),
            ThreadedTransport::Routed(net) => {
                net.try_with_node_async(id, move |relay, ctx| relay.with_inner(ctx, &f))
            }
        }
    }

    /// Run a read-only closure against a node's live protocol state.
    /// Panics if the worker thread has died; use
    /// [`ThreadedTransport::try_query`] otherwise.
    pub fn query<R, F>(&self, id: NodeId, f: F) -> R
    where
        F: FnOnce(&N) -> R,
    {
        self.try_query(id, f).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`ThreadedTransport::query`].
    pub fn try_query<R, F>(&self, id: NodeId, f: F) -> Result<R, WorkerDead>
    where
        F: FnOnce(&N) -> R,
    {
        match self {
            ThreadedTransport::Direct(net) => net.try_query(id, f),
            ThreadedTransport::Routed(net) => net.try_query(id, move |relay| f(relay.inner())),
        }
    }

    /// Overwrite a node's protocol state (the restore-from-snapshot
    /// path). When routed, the relay wrapper — router, forward counters —
    /// is preserved; only the inner protocol node is replaced.
    pub fn restore_node(&mut self, id: NodeId, node: N) {
        match self {
            ThreadedTransport::Direct(net) => net.restore_node(id, node),
            ThreadedTransport::Routed(net) => {
                net.with_node(id, |relay, _ctx| *relay.inner_mut() = node.clone());
            }
        }
    }

    /// Drive the fabric to quiescence (see [`ThreadedNet::settle`]).
    /// Panics if a worker thread has died; use
    /// [`ThreadedTransport::try_settle`] otherwise.
    pub fn settle(&mut self) -> RunOutcome {
        self.try_settle().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`ThreadedTransport::settle`].
    pub fn try_settle(&mut self) -> Result<RunOutcome, WorkerDead> {
        match self {
            ThreadedTransport::Direct(net) => net.try_settle(),
            ThreadedTransport::Routed(net) => net.try_settle(),
        }
    }

    /// Wire statistics as of the last settle (per hop, when routed).
    pub fn stats(&self) -> &NetworkStats {
        match self {
            ThreadedTransport::Direct(net) => net.stats(),
            ThreadedTransport::Routed(net) => net.stats(),
        }
    }

    /// Events processed so far (see [`ThreadedNet::events_processed`]).
    pub fn events_processed(&self) -> u64 {
        match self {
            ThreadedTransport::Direct(net) => net.events_processed(),
            ThreadedTransport::Routed(net) => net.events_processed(),
        }
    }

    /// Virtual time (the replay oracle's clock; zero when free-running).
    pub fn now(&self) -> SimTime {
        match self {
            ThreadedTransport::Direct(net) => net.now(),
            ThreadedTransport::Routed(net) => net.now(),
        }
    }

    /// Events not yet fully processed.
    pub fn pending(&self) -> usize {
        match self {
            ThreadedTransport::Direct(net) => net.pending(),
            ThreadedTransport::Routed(net) => net.pending(),
        }
    }

    /// Buffer-pool statistics (see [`ThreadedNet::pool_stats`]).
    pub fn pool_stats(&self) -> PoolStats {
        match self {
            ThreadedTransport::Direct(net) => net.pool_stats(),
            ThreadedTransport::Routed(net) => net.pool_stats(),
        }
    }

    /// Link-fabric contention counters (see
    /// [`ThreadedNet::fabric_stats`]).
    pub fn fabric_stats(&self) -> FabricStats {
        match self {
            ThreadedTransport::Direct(net) => net.fabric_stats(),
            ThreadedTransport::Routed(net) => net.fabric_stats(),
        }
    }

    /// Total transit envelopes forwarded by intermediate workers (always
    /// 0 when direct).
    pub fn forwarded_messages(&self) -> u64 {
        match self {
            ThreadedTransport::Direct(_) => 0,
            ThreadedTransport::Routed(net) => (0..net.node_count())
                .map(|i| net.query(NodeId(i), |relay| relay.forwarded()))
                .sum(),
        }
    }

    /// Stop every worker and collect the protocol nodes in id order
    /// (routed relays are unwrapped).
    pub fn into_nodes(self) -> Vec<N> {
        match self {
            ThreadedTransport::Direct(net) => net.into_nodes(),
            ThreadedTransport::Routed(net) => net
                .into_nodes()
                .into_iter()
                .map(Relay::into_inner)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::RawPayload;
    use crate::transport::Transport;

    /// Counts deliveries and remembers who sent what.
    #[derive(Clone, Debug, Default)]
    struct Sink {
        got: Vec<(NodeId, usize)>,
    }

    impl Node<RawPayload> for Sink {
        fn on_message(&mut self, _ctx: &mut NodeContext<RawPayload>, from: NodeId, p: RawPayload) {
            self.got.push((from, p.data));
        }
    }

    fn sinks(n: usize) -> Vec<Sink> {
        vec![Sink::default(); n]
    }

    #[test]
    fn auto_mode_is_direct_on_a_full_mesh_and_routed_on_a_ring() {
        let direct = ThreadedTransport::new(
            ThreadedMode::FreeRunning,
            Topology::full_mesh(3),
            SimConfig::default(),
            sinks(3),
        )
        .unwrap();
        assert!(!direct.is_routed());
        let routed = ThreadedTransport::new(
            ThreadedMode::FreeRunning,
            Topology::ring(4),
            SimConfig::default(),
            sinks(4),
        )
        .unwrap();
        assert!(routed.is_routed());
    }

    #[test]
    fn free_running_routed_delivery_crosses_real_hops() {
        let mut t = ThreadedTransport::new(
            ThreadedMode::FreeRunning,
            Topology::ring(6),
            SimConfig::default(),
            sinks(6),
        )
        .unwrap();
        // 0 → 3 is three ring hops; workers 1 and 2 must forward.
        t.with_node(NodeId(0), |_n, ctx| {
            ctx.send(NodeId(3), RawPayload::new(8, 4));
        });
        assert!(t.settle().is_quiescent());
        assert_eq!(t.query(NodeId(3), |n| n.got.clone()), vec![(NodeId(0), 8)]);
        assert!(t.query(NodeId(1), |n| n.got.is_empty()));
        assert_eq!(t.stats().total_messages(), 3);
        assert_eq!(t.forwarded_messages(), 2);
    }

    #[test]
    fn routed_replay_is_bit_identical_to_the_simnet_transport() {
        let script = |t: &mut dyn FnMut(NodeId, NodeId, usize)| {
            t(NodeId(0), NodeId(2), 11);
            t(NodeId(3), NodeId(1), 22);
            t(NodeId(2), NodeId(0), 33);
        };

        let mut sim = Transport::new(Topology::ring(4), SimConfig::default(), sinks(4)).unwrap();
        script(&mut |from, to, v| {
            sim.with_node(from, |_n, ctx| ctx.send(to, RawPayload::new(v, 0)));
        });
        sim.run_until_quiescent();

        let mut thr = ThreadedTransport::new(
            ThreadedMode::Replay,
            Topology::ring(4),
            SimConfig::default(),
            sinks(4),
        )
        .unwrap();
        script(&mut |from, to, v| {
            thr.with_node(from, move |_n, ctx| ctx.send(to, RawPayload::new(v, 0)));
        });
        assert!(thr.settle().is_quiescent());

        assert_eq!(thr.stats(), sim.stats());
        assert_eq!(thr.events_processed(), sim.events_processed());
        assert_eq!(thr.now(), sim.now());
        assert_eq!(thr.forwarded_messages(), sim.forwarded_messages());
        let threaded_nodes = thr.into_nodes();
        let (sim_nodes, _, _) = sim.into_parts();
        for (i, (a, b)) in threaded_nodes.iter().zip(&sim_nodes).enumerate() {
            assert_eq!(a.got, b.got, "node {i}");
        }
    }

    #[test]
    fn restore_node_preserves_the_relay_wrapper() {
        let mut t = ThreadedTransport::new(
            ThreadedMode::FreeRunning,
            Topology::line(3),
            SimConfig::default(),
            sinks(3),
        )
        .unwrap();
        t.with_node(NodeId(0), |_n, ctx| {
            ctx.send(NodeId(2), RawPayload::new(5, 0));
        });
        t.settle();
        assert_eq!(t.query(NodeId(2), |n| n.got.len()), 1);
        t.restore_node(NodeId(2), Sink::default());
        assert_eq!(t.query(NodeId(2), |n| n.got.len()), 0);
        // The relay still routes: a fresh send crosses the middle hop.
        t.with_node(NodeId(0), |_n, ctx| {
            ctx.send(NodeId(2), RawPayload::new(6, 0));
        });
        t.settle();
        assert_eq!(t.query(NodeId(2), |n| n.got.clone()), vec![(NodeId(0), 6)]);
    }
}
