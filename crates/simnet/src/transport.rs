//! The network surface: one [`Net`] contract over every scheduler.
//!
//! Protocol drivers (the DSM runtime in the `dsm` crate) hold a
//! `Box<dyn Net<P, N>>` and never learn which scheduler delivers their
//! messages. Two backends implement the trait — the discrete-event
//! [`Simulator`] and the threaded [`ThreadedNet`] — and one adapter,
//! private to this module, implements routing over either of them: it
//! hosts every protocol node inside a [`Relay`] and runs each closure
//! through it, so a logical send travels as
//! [`Routed`](crate::route::Routed) envelopes over BFS shortest paths,
//! one channel hop at a time.
//!
//! [`deploy`] picks the backend and makes the routing decision once, per
//! [`RoutingMode`]: [`RoutingMode::Auto`] (the default) sends directly on
//! a full mesh and routes anything sparser, so full-mesh runs stay
//! byte-identical while sparse topologies just work. `ForceRouted`
//! exists so differential tests can pin routed-full-mesh ≡
//! direct-full-mesh. On direct sends a missing link is a [`SendError`].
//!
//! The dynamic call happens once per operation (invoke, query, settle);
//! the simulator's and the worker threads' run loops stay monomorphic.

use crate::backend::ExecBackend;
use crate::message::{NodeId, WireSize};
use crate::network::Topology;
use crate::node::{Node, NodeContext};
use crate::route::{Packet, Relay, RouteError, Router};
use crate::sim::{RunOutcome, SendError, SimConfig, Simulator};
use crate::stats::NetworkStats;
use crate::threaded::{FabricStats, ThreadedNet, WorkerDead};
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;

/// Why a [`Net`] operation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetError {
    /// A send could not be carried (or named a node the net does not
    /// host).
    Send(SendError),
    /// A worker thread died; the threaded net is poisoned.
    WorkerDead(WorkerDead),
    /// The backend does not offer this operation; the text names it.
    Unsupported(&'static str),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Send(e) => e.fmt(f),
            NetError::WorkerDead(e) => e.fmt(f),
            NetError::Unsupported(what) => write!(f, "unsupported on this backend: {what}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<SendError> for NetError {
    fn from(e: SendError) -> Self {
        NetError::Send(e)
    }
}

impl From<WorkerDead> for NetError {
    fn from(e: WorkerDead) -> Self {
        NetError::WorkerDead(e)
    }
}

/// A closure moved to a worker thread by [`Net::post`].
pub(crate) type BoxedPost<P, N> = Box<dyn FnOnce(&mut N, &mut NodeContext<P>) + Send>;

/// A pipelined closure as [`Net::post`] receives it: the simulator runs
/// it in place, the threaded net boxes it for the node's worker. An
/// `Option` of a closure is one (`&mut Some(f)`), so the simnet write
/// path allocates nothing. The closure is `Fn`: a replaying net runs it
/// on its oracle too, and both runs must do the same.
pub trait Posted<P, N> {
    /// Run the closure against `node` in place (a no-op once boxed).
    fn run(&mut self, node: &mut N, ctx: &mut NodeContext<P>);
    /// Move the closure into a box; `None` once it has been.
    fn boxed(&mut self) -> Option<BoxedPost<P, N>>;
}

impl<P, N, F> Posted<P, N> for Option<F>
where
    F: Fn(&mut N, &mut NodeContext<P>) + Send + 'static,
{
    fn run(&mut self, node: &mut N, ctx: &mut NodeContext<P>) {
        if let Some(f) = self {
            f(node, ctx);
        }
    }

    fn boxed(&mut self) -> Option<BoxedPost<P, N>> {
        self.take().map(|f| Box::new(f) as BoxedPost<P, N>)
    }
}

/// A network hosting one protocol node `N` per topology node, exchanging
/// payloads `P`. Object safe: drivers hold a `Box<dyn Net<P, N>>`; the
/// generic helpers ([`with_node`](#method.with_node),
/// [`query`](#method.query), …) are inherent methods on `dyn Net`. The
/// calls that name neither `P` nor `N` are its supertrait [`NetCore`],
/// so code that erases the node type still reaches them.
pub trait Net<P, N>: NetCore {
    /// Run `f` against node `id` with a messaging context and schedule
    /// what it sent. The node's state change applies even when a send
    /// fails; the sends before the failing one are scheduled. A
    /// replaying threaded net runs `f` twice — on the live node and on
    /// its oracle's copy — so `f` must not depend on its own state: the
    /// generic entry points ([`dyn Net::try_with_node`](#method.try_with_node),
    /// [`Posted`] for `Option<F>`) take `Fn` closures for that reason.
    /// A threaded net runs `f` on the calling thread once every closure
    /// [posted](Net::post) to `id` before it has run, and free-running it
    /// runs those itself when the node's worker is not running them.
    fn invoke(
        &mut self,
        id: NodeId,
        f: &mut dyn FnMut(&mut N, &mut NodeContext<P>),
    ) -> Result<(), NetError>;
    /// [`Net::invoke`] for a closure whose result nobody reads (the write
    /// path): the simulator runs it in place, the threaded net pipelines
    /// it on the node's lane, and the next settle is its barrier there.
    /// A pipelined closure runs on whichever thread drains the lane — the
    /// node's worker, or a later synchronous call on the node that finds
    /// the lane still queued — so it must never wait on the caller.
    fn post(&mut self, id: NodeId, f: &mut dyn Posted<P, N>) -> Result<(), NetError>;
    /// Run a read-only closure against node `id`'s state.
    fn inspect(&self, id: NodeId, f: &mut dyn FnMut(&N)) -> Result<(), NetError>;
    /// Change node `id`'s state without a messaging context (restore and
    /// checkpoint: nothing is sent).
    fn update(&mut self, id: NodeId, f: &mut dyn FnMut(&mut N)) -> Result<(), NetError>;
    /// Stop the net and return the protocol nodes in id order.
    fn into_nodes(self: Box<Self>) -> Vec<N>;
}

/// The calls of a [`Net`] that name neither its payload nor its node
/// type: driving delivery, the counters, and taking nodes down.
pub trait NetCore {
    /// Deliver everything in flight: run to quiescence or to the
    /// configured event budget.
    fn settle(&mut self) -> Result<RunOutcome, NetError>;
    /// Deliver at most one event; `false` when idle (always, by default:
    /// the threaded net has no event queue to step).
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn step(&mut self) -> Result<bool, NetError> {
        Ok(false)
    }
    /// Virtual time (zero when free-running: threads have no clock).
    fn now(&self) -> SimTime;
    /// The topology deployed over.
    fn topology(&self) -> &Topology;
    /// Whether sends are relayed over shortest paths.
    fn is_routed(&self) -> bool {
        false
    }
    /// Wire statistics (per hop when routed; as of the last settle on
    /// threads).
    fn stats(&self) -> &NetworkStats;
    /// Events (deliveries and timer firings) processed so far.
    fn events_processed(&self) -> u64;
    /// Events not yet processed.
    fn pending(&self) -> usize;
    /// Transit envelopes forwarded by intermediate nodes (0 when direct).
    fn forwarded(&self) -> u64 {
        0
    }
    /// Envelopes a relay dropped because the router does not cover their
    /// destination (0 when direct; see `Relay::misrouted`).
    fn misrouted(&self) -> u64 {
        0
    }
    /// Ring-fabric contention counters (zero on the simulator).
    fn fabric_stats(&self) -> FabricStats {
        FabricStats::default()
    }
    /// Take node `id` down: its protocol traffic is lost (and counted),
    /// transit traffic through it parked until [`NetCore::set_up`]. Refused
    /// by default: worker threads cannot lose in-flight messages
    /// deterministically.
    fn set_down(&mut self, _id: NodeId) -> Result<(), NetError> {
        Err(NetError::Unsupported(NO_CRASHES))
    }
    /// Bring node `id` back up, redelivering what was parked there.
    fn set_up(&mut self, _id: NodeId) -> Result<(), NetError> {
        Err(NetError::Unsupported(NO_CRASHES))
    }
    /// Envelopes parked at node `id`.
    fn parked(&self, _id: NodeId) -> usize {
        0
    }
}

/// What a net that cannot take nodes down refuses.
const NO_CRASHES: &str = "crash/restart on the threaded backend (worker threads cannot lose \
                          in-flight channel messages deterministically yet)";

/// The network drivers send through: a simulator, direct or routed per
/// [`SimConfig::routing`].
pub type Transport<P, N> = dyn Net<P, N>;

impl<P, N> dyn Net<P, N>
where
    P: WireSize + fmt::Debug + Clone + Send + 'static,
    N: Node<P> + Clone + Send + 'static,
{
    /// A simulator over `topology` hosting `nodes` (see [`deploy`]).
    pub fn new(
        topology: Topology,
        config: SimConfig,
        nodes: Vec<N>,
    ) -> Result<Box<Self>, RouteError> {
        deploy(ExecBackend::Simnet, topology, config, nodes)
    }
}

impl<'a, P, N> dyn Net<P, N> + 'a {
    /// [`Net::invoke`] returning the closure's result (the first one,
    /// when a replaying net also runs it on its oracle).
    pub fn try_with_node<R>(
        &mut self,
        id: NodeId,
        f: impl Fn(&mut N, &mut NodeContext<P>) -> R,
    ) -> Result<R, NetError> {
        let mut out = None;
        self.invoke(id, &mut |node, ctx| {
            let r = f(node, ctx);
            out.get_or_insert(r);
        })?;
        Ok(out.expect("a successful invoke runs its closure"))
    }

    /// [`dyn Net::try_with_node`](#method.try_with_node), panicking with
    /// the error's message.
    pub fn with_node<R>(&mut self, id: NodeId, f: impl Fn(&mut N, &mut NodeContext<P>) -> R) -> R {
        self.try_with_node(id, f).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Net::inspect`] returning the closure's result.
    pub fn query<R>(&self, id: NodeId, f: impl FnOnce(&N) -> R) -> Result<R, NetError> {
        let (mut f, mut out) = (Some(f), None);
        self.inspect(id, &mut |node| {
            if let Some(f) = f.take() {
                out = Some(f(node));
            }
        })?;
        Ok(out.expect("a successful inspect runs its closure"))
    }

    /// [`NetCore::settle`], panicking with the error's message.
    pub fn run_until_quiescent(&mut self) -> RunOutcome {
        self.settle().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Build the net `nodes` run on: `backend` over `topology`, honouring
/// `config.routing` and `config.delivery`. Routed nets host each node in
/// a relay that forwards along the [`Router`]'s tables. Fails with [`RouteError::Disconnected`] when routing is
/// required on a topology that is not strongly connected, and with
/// [`RouteError::DirectOnSparseThreads`] for direct sends on threads
/// over a topology sparser than a full mesh.
pub fn deploy<P, N>(
    backend: ExecBackend,
    topology: Topology,
    config: SimConfig,
    nodes: Vec<N>,
) -> Result<Box<dyn Net<P, N>>, RouteError>
where
    P: WireSize + fmt::Debug + Clone + Send + 'static,
    N: Node<P> + Clone + Send + 'static,
{
    let routed = match config.routing {
        RoutingMode::Direct => false,
        RoutingMode::ForceRouted => true,
        RoutingMode::Auto => !topology.is_full_mesh(),
    };
    if !routed {
        return match backend {
            ExecBackend::Simnet => Ok(Box::new(Simulator::new(topology, config, nodes))),
            // The inbox fabric links every pair, so it cannot refuse the
            // missing links of a sparse topology.
            ExecBackend::Threaded(_) if !topology.is_full_mesh() => {
                Err(RouteError::DirectOnSparseThreads)
            }
            ExecBackend::Threaded(mode) => Ok(Box::new(ThreadedNet::with_topology(
                mode, topology, config, nodes,
            ))),
        };
    }
    let router = Arc::new(Router::new(&topology)?);
    let multicast = config.delivery.multicast;
    let relays = nodes
        .into_iter()
        .enumerate()
        .map(|(i, node)| Relay::new(node, NodeId(i), Arc::clone(&router), multicast))
        .collect();
    Ok(match backend {
        ExecBackend::Simnet => Box::new(Routed(
            Simulator::new(topology, config, relays),
            PhantomData,
        )),
        ExecBackend::Threaded(mode) => Box::new(Routed(
            ThreadedNet::with_topology(mode, topology, config, relays),
            PhantomData,
        )),
    })
}

/// Routing over any backend `B` hosting [`Relay`]s of `N`s exchanging
/// `P`s: closures run on the relay's inner node through
/// [`Relay::with_inner`], which re-addresses their sends hop by hop;
/// queries read the inner node.
struct Routed<B, P, N>(B, PhantomData<fn() -> (P, N)>);

impl<B, P, N> Routed<B, P, N> {
    /// Sum a relay counter over every node.
    fn sum_relays(&self, count: fn(&Relay<P, N>) -> u64) -> u64
    where
        B: Net<Packet<P>, Relay<P, N>>,
    {
        let mut total = 0;
        for id in (0..self.0.topology().node_count()).map(NodeId) {
            // A dead worker's relay is gone; the live ones still count.
            let _ = self.0.inspect(id, &mut |relay| total += count(relay));
        }
        total
    }
}

/// A posted closure that runs on a relay's inner node.
struct InRelay<'a, P, N>(&'a mut dyn Posted<P, N>);

impl<P, N> Posted<Packet<P>, Relay<P, N>> for InRelay<'_, P, N>
where
    P: Clone + 'static,
    N: 'static,
{
    fn run(&mut self, relay: &mut Relay<P, N>, ctx: &mut NodeContext<Packet<P>>) {
        relay.with_inner(ctx, |node, ctx| self.0.run(node, ctx));
    }

    /// The inner closure's type is erased by now, so a routed threaded
    /// post boxes twice; the simulator boxes nothing.
    fn boxed(&mut self) -> Option<BoxedPost<Packet<P>, Relay<P, N>>> {
        let f = self.0.boxed()?;
        Some(Box::new(
            move |relay: &mut Relay<P, N>, ctx: &mut NodeContext<Packet<P>>| {
                relay.with_inner(ctx, f)
            },
        ))
    }
}

impl<P, N, B> Net<P, N> for Routed<B, P, N>
where
    P: Clone + 'static,
    N: 'static,
    B: Net<Packet<P>, Relay<P, N>>,
{
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn invoke(
        &mut self,
        id: NodeId,
        f: &mut dyn FnMut(&mut N, &mut NodeContext<P>),
    ) -> Result<(), NetError> {
        self.0
            .invoke(id, &mut |relay, ctx| relay.with_inner(ctx, &mut *f))
    }

    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn post(&mut self, id: NodeId, f: &mut dyn Posted<P, N>) -> Result<(), NetError> {
        self.0.post(id, &mut InRelay(f))
    }

    fn inspect(&self, id: NodeId, f: &mut dyn FnMut(&N)) -> Result<(), NetError> {
        self.0.inspect(id, &mut |relay| f(relay.inner()))
    }

    fn update(&mut self, id: NodeId, f: &mut dyn FnMut(&mut N)) -> Result<(), NetError> {
        self.0.update(id, &mut |relay| f(relay.inner_mut()))
    }

    fn into_nodes(self: Box<Self>) -> Vec<N> {
        let Routed(backend, _) = *self;
        Box::new(backend)
            .into_nodes()
            .into_iter()
            .map(Relay::into_inner)
            .collect()
    }
}

impl<P, N, B> NetCore for Routed<B, P, N>
where
    P: Clone + 'static,
    N: 'static,
    B: Net<Packet<P>, Relay<P, N>>,
{
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn settle(&mut self) -> Result<RunOutcome, NetError> {
        self.0.settle()
    }

    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn step(&mut self) -> Result<bool, NetError> {
        self.0.step()
    }

    fn now(&self) -> SimTime {
        self.0.now()
    }

    fn topology(&self) -> &Topology {
        self.0.topology()
    }

    fn is_routed(&self) -> bool {
        true
    }

    fn stats(&self) -> &NetworkStats {
        self.0.stats()
    }

    fn events_processed(&self) -> u64 {
        self.0.events_processed()
    }

    fn pending(&self) -> usize {
        self.0.pending()
    }

    fn forwarded(&self) -> u64 {
        self.sum_relays(Relay::forwarded)
    }

    fn misrouted(&self) -> u64 {
        self.sum_relays(Relay::misrouted)
    }

    fn fabric_stats(&self) -> FabricStats {
        self.0.fabric_stats()
    }

    fn set_down(&mut self, id: NodeId) -> Result<(), NetError> {
        self.0.set_down(id)
    }

    fn set_up(&mut self, id: NodeId) -> Result<(), NetError> {
        self.0.set_up(id)
    }

    fn parked(&self, id: NodeId) -> usize {
        self.0.parked(id)
    }
}

/// How a [`Transport`] carries logical sends over the topology.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RoutingMode {
    /// Direct on a full mesh, routed on anything sparser.
    #[default]
    Auto,
    /// Always relay over shortest paths, even on a full mesh (where every
    /// route is the single direct link, making the run byte-identical to
    /// `Direct` — the property the differential tests pin down).
    ForceRouted,
    /// Never relay: sends must be direct topology links, as in the
    /// original any-to-any deployment.
    Direct,
}

/// The wire-efficiency knobs of a deployment: how identical-payload
/// fan-outs travel, and whether protocols may batch control records.
///
/// The default (`unicast`, unbatched) reproduces the classical behaviour
/// exactly — one envelope per destination, one control record per write —
/// so existing runs stay bit-identical. The other modes are the
/// wire-efficiency layer this crate measures:
///
/// * `multicast` — a [`NodeContext::send_multi`] group travels as one
///   multicast envelope per broadcast-tree edge instead of one relay
///   envelope per destination per hop. Only routed transports can share edges; the
///   direct full mesh degrades to the unicast fan-out (every destination
///   is one private link away, so there is nothing to share).
/// * `batching` — protocols hold their propagation traffic for a flush
///   window (a zero-delay timer, so quiescence still drains everything)
///   and send each window's worth as few envelopes as they can: the
///   partially replicated causal protocol buffers its control records per
///   destination, piggybacks them on the next data update to that
///   destination and flushes delta-encoded batches (also on a batch-size
///   cap); the fully replicated causal protocol sends a window's updates,
///   and the sequencer protocol a writer's requests and the sequencer's
///   ordered writes, as one shared batch. Only the partial causal
///   protocol's batches change the bytes; the others only save envelopes.
/// * `delta` — vector-clock-carrying protocols (the causal pair) charge
///   the wire for a sparse delta encoding of each clock against the
///   writer's previous write (the `dsm` crate's `DeltaVc`) instead of
///   the dense `8n` bytes. Writes touch few entries between
///   broadcasts, so the encoded size collapses from `O(n)` to `O(changed
///   entries)`; a dense fallback caps it at the classical size.
///
/// Delivery modes never change *what* is delivered — histories, settled
/// replica contents, and per-destination control-record counts are
/// pinned equal across all modes by differential tests — only what
/// the wire pays for it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DeliveryMode {
    /// Deduplicate identical-payload fan-outs along broadcast trees.
    pub multicast: bool,
    /// Allow protocols to batch and piggyback control records.
    pub batching: bool,
    /// Charge vector clocks at their delta-encoded wire size.
    #[serde(default)]
    pub delta: bool,
}

impl DeliveryMode {
    /// One envelope per destination, one control record per write — the
    /// classical baseline (the default).
    pub const UNICAST: DeliveryMode = DeliveryMode {
        multicast: false,
        batching: false,
        delta: false,
    };
    /// Tree multicast, unbatched control records.
    pub const MULTICAST: DeliveryMode = DeliveryMode {
        multicast: true,
        batching: false,
        delta: false,
    };
    /// Unicast fan-out, batched/piggybacked control records.
    pub const BATCHED: DeliveryMode = DeliveryMode {
        multicast: false,
        batching: true,
        delta: false,
    };
    /// Tree multicast and batched control records.
    pub const MULTICAST_BATCHED: DeliveryMode = DeliveryMode {
        multicast: true,
        batching: true,
        delta: false,
    };
    /// Unicast fan-out, unbatched, delta-encoded vector clocks.
    pub const DELTA: DeliveryMode = DeliveryMode {
        multicast: false,
        batching: false,
        delta: true,
    };
    /// Every wire optimization at once: tree multicast, batched control
    /// records, and delta-encoded vector clocks.
    pub const MULTICAST_BATCHED_DELTA: DeliveryMode = DeliveryMode {
        multicast: true,
        batching: true,
        delta: true,
    };

    /// All swept delivery modes, baseline first (the sweep order used by
    /// benchmark tables).
    pub const ALL: [DeliveryMode; 6] = [
        DeliveryMode::UNICAST,
        DeliveryMode::MULTICAST,
        DeliveryMode::BATCHED,
        DeliveryMode::MULTICAST_BATCHED,
        DeliveryMode::DELTA,
        DeliveryMode::MULTICAST_BATCHED_DELTA,
    ];

    /// Short label used in tables and benchmark ids.
    pub fn label(self) -> &'static str {
        match (self.multicast, self.batching, self.delta) {
            (false, false, false) => "unicast",
            (true, false, false) => "multicast",
            (false, true, false) => "batched",
            (true, true, false) => "multicast-batched",
            (false, false, true) => "delta",
            (true, false, true) => "multicast-delta",
            (false, true, true) => "batched-delta",
            (true, true, true) => "multicast-batched-delta",
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::backend::ThreadedMode;
    use crate::message::RawPayload;

    /// Remembers who sent what.
    #[derive(Clone, Debug, Default)]
    pub(crate) struct Sink {
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

    pub(crate) fn net(
        backend: ExecBackend,
        topology: &Topology,
        config: SimConfig,
    ) -> Box<dyn Net<RawPayload, Sink>> {
        let n = topology.node_count();
        deploy(backend, topology.clone(), config, sinks(n)).unwrap()
    }

    /// What a settled run leaves behind.
    #[derive(Debug, PartialEq)]
    pub(crate) struct Run {
        pub(crate) got: Vec<Vec<(NodeId, usize)>>,
        pub(crate) stats: NetworkStats,
        events: u64,
        now: SimTime,
        pub(crate) forwarded: u64,
        misrouted: u64,
    }

    pub(crate) fn run(
        backend: ExecBackend,
        topology: &Topology,
        config: SimConfig,
        script: &dyn Fn(&mut dyn Net<RawPayload, Sink>),
    ) -> Run {
        let mut net = net(backend, topology, config);
        script(&mut *net);
        assert!(net.settle().unwrap().is_quiescent());
        Run {
            stats: net.stats().clone(),
            events: net.events_processed(),
            now: net.now(),
            forwarded: net.forwarded(),
            misrouted: net.misrouted(),
            got: net.into_nodes().into_iter().map(|s| s.got).collect(),
        }
    }

    /// Run `script` on every backend and return the simulator's run.
    /// Replay must equal it in everything; free-running in what each
    /// node received (its interleaving across senders is the host's),
    /// the message and byte counts, the forwards and the misroutes.
    fn on_every_backend(
        topology: &Topology,
        config: SimConfig,
        script: &dyn Fn(&mut dyn Net<RawPayload, Sink>),
    ) -> Run {
        let [sim, replay, free] =
            ExecBackend::ALL.map(|backend| run(backend, topology, config.clone(), script));
        assert_eq!(replay, sim, "replay");
        let totals = |run: &Run| {
            let got = run.got.iter().map(|g| {
                let mut g = g.clone();
                g.sort();
                g
            });
            let stats = &run.stats;
            let bytes = (stats.total_data_bytes(), stats.total_control_bytes());
            (
                got.collect::<Vec<_>>(),
                stats.total_messages(),
                bytes,
                run.forwarded,
                run.misrouted,
            )
        };
        assert_eq!(totals(&free), totals(&sim), "free-running");
        sim
    }

    pub(crate) fn send(
        from: usize,
        to: usize,
        data: usize,
    ) -> impl Fn(&mut dyn Net<RawPayload, Sink>) {
        move |net| {
            net.invoke(NodeId(from), &mut |_, ctx| {
                ctx.send(NodeId(to), RawPayload::new(data, 4));
            })
            .unwrap();
        }
    }

    fn broadcast(net: &mut dyn Net<RawPayload, Sink>, src: usize) {
        let n = net.topology().node_count();
        net.invoke(NodeId(src), &mut |_, ctx| {
            ctx.send_multi(
                (0..n).filter(|&i| i != src).map(NodeId),
                RawPayload::new(8, 4),
            );
        })
        .unwrap();
    }

    fn multi_config(multicast: bool) -> SimConfig {
        let delivery = DeliveryMode {
            multicast,
            ..DeliveryMode::UNICAST
        };
        SimConfig {
            delivery,
            ..SimConfig::default()
        }
    }

    #[test]
    fn auto_mode_is_direct_on_a_full_mesh_and_routed_on_a_ring() {
        for backend in ExecBackend::ALL {
            let config = SimConfig::default;
            assert!(!net(backend, &Topology::full_mesh(4), config()).is_routed());
            assert!(net(backend, &Topology::ring(4), config()).is_routed());
        }
    }

    #[test]
    fn routed_transport_delivers_across_multiple_hops() {
        // 0 → 3 is three ring hops away.
        let run = on_every_backend(&Topology::ring(6), SimConfig::default(), &send(0, 3, 8));
        // Delivered once, attributed to the logical source; intermediate
        // protocol nodes never saw the payload.
        let mut expected = vec![vec![]; 6];
        expected[3] = vec![(NodeId(0), 8)];
        assert_eq!(run.got, expected);
        // Three hops on the wire: 0→1, 1→2, 2→3; two of them forwards.
        assert_eq!(run.stats.total_messages(), 3);
        assert_eq!(run.stats.total_data_bytes(), 3 * 8);
        assert_eq!(run.forwarded, 2);
        // Nothing counted as misrouted.
        assert_eq!(run.misrouted, 0);
    }

    #[test]
    fn multi_hop_delivery_pays_per_hop_latency() {
        let run = on_every_backend(&Topology::line(4), SimConfig::default(), &send(0, 3, 1));
        // Default constant latency is 10µs per hop; three hops.
        assert_eq!(run.now, SimTime::from_micros(30));
    }

    #[test]
    fn forced_routing_on_a_full_mesh_matches_direct_sends_exactly() {
        let script = |net: &mut dyn Net<RawPayload, Sink>| {
            for i in 0..5 {
                send(i, (i + 2) % 5, 8)(net);
            }
        };
        let run = |routing: RoutingMode| {
            let config = SimConfig {
                routing,
                ..SimConfig::default()
            };
            on_every_backend(&Topology::full_mesh(5), config, &script)
        };
        let direct = run(RoutingMode::Direct);
        assert_eq!(direct, run(RoutingMode::ForceRouted));
        assert_eq!(direct.stats.total_messages(), 5);
    }

    /// Restoring a node's state through a routed net replaces the inner
    /// protocol node only: the relay around it still routes.
    #[test]
    fn update_preserves_the_relay_wrapper() {
        for backend in ExecBackend::ALL {
            let mut net = net(backend, &Topology::line(3), SimConfig::default());
            send(0, 2, 5)(&mut *net);
            net.settle().unwrap();
            assert_eq!(net.query(NodeId(2), |n| n.got.len()), Ok(1));
            net.update(NodeId(2), &mut |n| *n = Sink::default())
                .unwrap();
            assert_eq!(net.query(NodeId(2), |n| n.got.len()), Ok(0));
            // A fresh send still crosses the middle hop.
            send(0, 2, 6)(&mut *net);
            net.settle().unwrap();
            let got = net.query(NodeId(2), |n| n.got.clone());
            assert_eq!(got, Ok(vec![(NodeId(0), 6)]), "{}", backend.label());
            assert_eq!(net.forwarded(), 2, "{}", backend.label());
        }
    }

    #[test]
    fn disconnected_topology_is_rejected_when_routing() {
        let topo = Topology::explicit(3, [(0, 1), (1, 0)]);
        for backend in ExecBackend::ALL {
            let err = deploy(backend, topo.clone(), SimConfig::default(), sinks(3))
                .err()
                .unwrap();
            assert!(matches!(err, RouteError::Disconnected { .. }));
        }
    }

    /// Direct mode keeps a sparse topology's missing links: the simulator
    /// refuses the send, and threads, whose inbox fabric links every
    /// pair, refuse the deployment.
    #[test]
    fn direct_mode_still_rejects_missing_links() {
        let config = SimConfig {
            routing: RoutingMode::Direct,
            ..SimConfig::default()
        };
        let mut sim = net(ExecBackend::Simnet, &Topology::ring(5), config.clone());
        assert!(!sim.is_routed());
        let err = sim
            .invoke(NodeId(0), &mut |_, ctx| {
                ctx.send(NodeId(2), RawPayload::new(1, 0))
            })
            .unwrap_err();
        let no_link = SendError::NoLink {
            from: NodeId(0),
            to: NodeId(2),
        };
        assert_eq!(err, NetError::Send(no_link));
        for mode in [ThreadedMode::Replay, ThreadedMode::FreeRunning] {
            let backend = ExecBackend::Threaded(mode);
            let refused = deploy(backend, Topology::ring(5), config.clone(), sinks(5));
            assert_eq!(refused.err(), Some(RouteError::DirectOnSparseThreads));
            assert!(deploy(backend, Topology::full_mesh(5), config.clone(), sinks(5)).is_ok());
        }
    }

    #[test]
    fn tree_multicast_pays_each_tree_edge_once_on_a_line() {
        // 0 — 1 — 2 — 3: a broadcast from 0 shares the 0→1 and 1→2 edges.
        let run = |multicast: bool| {
            let run = on_every_backend(&Topology::line(4), multi_config(multicast), &|net| {
                broadcast(net, 0)
            });
            for i in 1..4 {
                assert_eq!(run.got[i], vec![(NodeId(0), 8)], "node {i}");
            }
            let stats = &run.stats;
            (
                stats.total_messages(),
                stats.total_data_bytes(),
                run.forwarded,
                run.now,
            )
        };
        // Unicast fan-out: 1 + 2 + 3 = 6 envelopes on the wire.
        assert_eq!(run(false), (6, 6 * 8, 3, SimTime::from_micros(30)));
        // Tree multicast: one envelope per tree edge = 3.
        assert_eq!(run(true), (3, 3 * 8, 2, SimTime::from_micros(30)));
    }

    #[test]
    fn tree_multicast_from_a_star_leaf_shares_the_hub_edge() {
        let n = 6;
        let run = |multicast: bool| {
            // Leaf 1 broadcasts to everyone else (hub 0 + leaves 2..n).
            let run = on_every_backend(&Topology::star(n), multi_config(multicast), &|net| {
                broadcast(net, 1)
            });
            for i in (0..n).filter(|&i| i != 1) {
                assert_eq!(run.got[i], vec![(NodeId(1), 8)], "node {i}");
            }
            run.stats.total_messages()
        };
        // Unicast: 1 hop to the hub + 2 hops to each of the n-2 far
        // leaves = 1 + 2(n-2).
        assert_eq!(run(false), 1 + 2 * (n as u64 - 2));
        // Multicast: the leaf→hub edge once, then one copy per far leaf.
        assert_eq!(run(true), 1 + (n as u64 - 2));
    }

    #[test]
    fn multicast_deliveries_match_unicast_deliveries_on_a_ring() {
        let run = |multicast: bool| {
            on_every_backend(&Topology::ring(7), multi_config(multicast), &|net| {
                (0..7).for_each(|src| broadcast(net, src))
            })
        };
        let (unicast, multicast) = (run(false), run(true));
        // Every node hears the same broadcasts from the same sources…
        assert_eq!(unicast.got, multicast.got);
        // …while the wire carries strictly fewer envelopes.
        let msgs = |run: &Run| run.stats.total_messages();
        assert!(
            msgs(&multicast) < msgs(&unicast),
            "{} vs {}",
            msgs(&multicast),
            msgs(&unicast)
        );
    }

    /// A send to an id outside the topology fails the same way on every
    /// backend, routed or direct — from every source, as a unicast and
    /// as a fan-out, under either wire — and the routed one is refused
    /// at its source: nothing is sent, nothing forwarded, nothing
    /// counted as misrouted.
    #[test]
    fn a_send_outside_the_topology_fails_alike_routed_and_direct() {
        let topologies = [
            Topology::full_mesh(5),
            Topology::ring(4),
            Topology::grid_of(64),
            Topology::star(6),
        ];
        for topology in topologies {
            let n = topology.node_count();
            for delivery in [DeliveryMode::UNICAST, DeliveryMode::MULTICAST] {
                let config = |routing: RoutingMode| SimConfig {
                    routing,
                    delivery,
                    ..SimConfig::default()
                };
                let mut nets = Vec::new();
                for backend in ExecBackend::ALL {
                    nets.push(net(backend, &topology, config(RoutingMode::ForceRouted)));
                    if backend == ExecBackend::Simnet || topology.is_full_mesh() {
                        nets.push(net(backend, &topology, config(RoutingMode::Direct)));
                    }
                }
                for src in (0..n).map(NodeId) {
                    // `send_multi` to one target is a unicast.
                    for targets in [vec![n + 1], vec![n], vec![n, n + 6]] {
                        let expected = NetError::Send(SendError::NoLink {
                            from: src,
                            to: NodeId(targets[0]),
                        });
                        for net in &mut nets {
                            let err = net
                                .invoke(src, &mut |_, ctx| {
                                    let to = targets.iter().map(|&t| NodeId(t));
                                    ctx.send_multi(to, RawPayload::new(1, 0));
                                })
                                .unwrap_err();
                            assert_eq!(err, expected, "{topology:?} {}", delivery.label());
                        }
                    }
                }
                for mut net in nets {
                    assert!(net.settle().unwrap().is_quiescent());
                    let wire = (net.stats().total_messages(), net.forwarded());
                    assert_eq!((wire, net.misrouted()), ((0, 0), 0));
                }
            }
        }
    }

    /// A send to an id outside the topology fails the flush of the
    /// context it was buffered on, and that flush still empties the
    /// context: on the simulator, on relays over `ring(4)` and on a
    /// threaded site in either mode, the same node's next callback starts
    /// with nothing queued, at its own node and time, sends exactly its
    /// own message, and every timer fires once.
    #[test]
    fn a_failed_flush_leaves_the_resident_context_empty() {
        #[derive(Clone, Debug, Default)]
        struct Probe {
            got: Vec<(NodeId, usize)>,
            fired: Vec<u64>,
        }
        impl Node<RawPayload> for Probe {
            fn on_message(&mut self, _: &mut NodeContext<RawPayload>, from: NodeId, p: RawPayload) {
                self.got.push((from, p.data));
            }
            fn on_timer(&mut self, _: &mut NodeContext<RawPayload>, tag: u64) {
                self.fired.push(tag);
            }
        }
        let us = crate::time::SimDuration::from_micros;
        let cells = [
            (Topology::full_mesh(4), RoutingMode::Direct),
            (Topology::ring(4), RoutingMode::ForceRouted),
        ];
        for backend in ExecBackend::ALL {
            for (topology, routing) in cells.clone() {
                let config = SimConfig {
                    routing,
                    ..SimConfig::default()
                };
                let label = format!("{backend} {topology:?}");
                let nodes = vec![Probe::default(); 4];
                let mut net = deploy(backend, topology, config, nodes).unwrap();
                // Move virtual time on, so a context left at its last
                // callback's time shows.
                net.with_node(NodeId(3), |_, ctx| {
                    ctx.send(NodeId(2), RawPayload::new(5, 0))
                });
                net.run_until_quiescent();
                let failed = net.invoke(NodeId(0), &mut |_, ctx| {
                    ctx.set_timer(us(1), 1);
                    ctx.send(NodeId(1), RawPayload::new(10, 0));
                    ctx.send(NodeId(9), RawPayload::new(99, 0));
                    ctx.send(NodeId(2), RawPayload::new(11, 0));
                });
                let no_link = SendError::NoLink {
                    from: NodeId(0),
                    to: NodeId(9),
                };
                assert_eq!(failed, Err(NetError::Send(no_link)), "{label}");
                net.run_until_quiescent();
                let (now, mut seen) = (net.now(), Vec::new());
                net.invoke(NodeId(0), &mut |_, ctx| {
                    seen.push((ctx.me(), ctx.now(), ctx.queued_messages()));
                    ctx.send(NodeId(3), RawPayload::new(20, 0));
                    ctx.set_timer(us(1), 2);
                })
                .unwrap();
                // A simulator's context is at the net's time; a threaded
                // site keeps no virtual clock. Replay runs the closure on
                // the site, then on its oracle.
                let (site, sim) = ((NodeId(0), SimTime::ZERO, 0), (NodeId(0), now, 0));
                let contexts = match backend {
                    ExecBackend::Simnet => vec![sim],
                    ExecBackend::Threaded(ThreadedMode::Replay) => vec![site, sim],
                    ExecBackend::Threaded(ThreadedMode::FreeRunning) => vec![site],
                };
                assert_eq!(seen, contexts, "{label}");
                net.run_until_quiescent();
                let nodes = net.into_nodes();
                let got: Vec<_> = nodes.iter().map(|n| n.got.clone()).collect();
                let expected = [
                    vec![],
                    vec![(NodeId(0), 10)],
                    vec![(NodeId(3), 5)],
                    vec![(NodeId(0), 20)],
                ];
                assert_eq!(got, expected, "{label}");
                let fired: Vec<_> = nodes.iter().map(|n| n.fired.clone()).collect();
                assert_eq!(fired, [vec![1, 2], vec![], vec![], vec![]], "{label}");
            }
        }
    }

    #[test]
    fn delivery_mode_labels_round_trip() {
        // Distinct labels over all eight knob combinations, not just the
        // swept `DeliveryMode::ALL` set.
        let labels: std::collections::BTreeSet<_> = (0..8)
            .map(|k| DeliveryMode {
                multicast: k & 1 != 0,
                batching: k & 2 != 0,
                delta: k & 4 != 0,
            })
            .map(DeliveryMode::label)
            .collect();
        assert_eq!(labels.len(), 8);
        assert_eq!(DeliveryMode::default(), DeliveryMode::UNICAST);
        assert_eq!(DeliveryMode::MULTICAST_BATCHED.label(), "multicast-batched");
        assert_eq!(DeliveryMode::DELTA.label(), "delta");
        assert_eq!(
            DeliveryMode::MULTICAST_BATCHED_DELTA.label(),
            "multicast-batched-delta"
        );
        // The two knob combinations outside the sweep have labels too.
        let delta = |multicast, batching| DeliveryMode {
            multicast,
            batching,
            delta: true,
        };
        assert_eq!(delta(true, false).label(), "multicast-delta");
        assert_eq!(delta(false, true).label(), "batched-delta");
    }

    #[test]
    fn timers_pass_through_the_relay() {
        #[derive(Clone, Debug, Default)]
        struct TimerEcho {
            fired: Vec<u64>,
        }
        impl Node<RawPayload> for TimerEcho {
            fn on_message(&mut self, _: &mut NodeContext<RawPayload>, _: NodeId, _: RawPayload) {}
            fn on_timer(&mut self, _: &mut NodeContext<RawPayload>, tag: u64) {
                self.fired.push(tag);
            }
        }
        for backend in ExecBackend::ALL {
            let nodes = vec![TimerEcho::default(); 4];
            let mut net = deploy(backend, Topology::ring(4), SimConfig::default(), nodes).unwrap();
            assert!(net.is_routed());
            for i in 0..4 {
                net.with_node(NodeId(i), |_, ctx| {
                    ctx.set_timer(crate::time::SimDuration::from_micros(3), 7);
                });
            }
            net.run_until_quiescent();
            for node in net.into_nodes() {
                assert_eq!(node.fired, vec![7], "{backend}");
            }
        }
    }
}
