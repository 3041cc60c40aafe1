//! The transport layer: one send surface over direct and routed networks.
//!
//! Protocol drivers (the DSM runtime in the `dsm` crate) do not talk to
//! [`Simulator`] directly any more; they go through a [`Transport`], which
//! decides *how* a logical send reaches its destination:
//!
//! * [`Transport::Direct`] — every send uses the topology link it names.
//!   This is the classical full-mesh deployment; a send between
//!   non-neighbours is a [`SendError`].
//! * [`Transport::Routed`] — protocol nodes are wrapped in
//!   [`Relay`](crate::route::Relay)s and every logical send travels as a
//!   [`Routed`] envelope over BFS shortest paths, one channel hop at a
//!   time. Any connected topology works, and per-hop latency and
//!   statistics are accounted by the simulator as usual.
//!
//! [`RoutingMode::Auto`] (the default) picks direct on a full mesh and
//! routed otherwise, so existing full-mesh runs keep byte-identical
//! behaviour while sparse topologies just work. `ForceRouted` exists so
//! differential tests can pin routed-full-mesh ≡ direct-full-mesh.

use crate::message::{NodeId, WireSize};
use crate::network::Topology;
use crate::node::{Node, NodeContext};
use crate::route::{Packet, Relay, RouteError, Router};
use crate::sim::{RunOutcome, SimConfig, Simulator};
use crate::stats::NetworkStats;
use crate::time::SimTime;
use crate::trace::EventTrace;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

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
///   [`Multicast`](crate::route::Multicast) envelope per broadcast-tree
///   edge instead of one [`Routed`](crate::route::Routed) envelope per
///   destination per hop. Only routed transports can share edges; the
///   direct full mesh degrades to the unicast fan-out (every destination
///   is one private link away, so there is nothing to share).
/// * `batching` — protocols that emit per-destination control records
///   (the partially replicated causal protocol) may buffer them per
///   destination, piggyback them on the next data update to that
///   destination, and delta-encode batches, instead of paying a full
///   control message per record. A bounded flush (a zero-delay timer plus
///   a batch-size cap) guarantees quiescence still drains every record.
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

    /// Parse a [`DeliveryMode::label`] back into a mode (any of the eight
    /// knob combinations, not just the swept [`DeliveryMode::ALL`] set).
    pub fn parse(label: &str) -> Option<DeliveryMode> {
        let unswept = [
            DeliveryMode {
                multicast: true,
                batching: false,
                delta: true,
            },
            DeliveryMode {
                multicast: false,
                batching: true,
                delta: true,
            },
        ];
        DeliveryMode::ALL
            .into_iter()
            .chain(unswept)
            .find(|m| m.label() == label)
    }
}

/// A simulated network that protocol nodes send through.
///
/// Mirrors the [`Simulator`] surface (`with_node`, `step`,
/// `run_until_quiescent`, statistics, traces, `into_parts`) while hiding
/// whether messages are delivered directly or relayed hop by hop.
pub enum Transport<P, N> {
    /// Direct sends over topology links.
    Direct(Simulator<P, N>),
    /// Multi-hop relaying over BFS shortest paths, with optional
    /// broadcast-tree multicast for multi-destination sends.
    Routed(Simulator<Packet<P>, Relay<P, N>>),
}

impl<P, N> Transport<P, N>
where
    P: WireSize + fmt::Debug + Clone,
    N: Node<P>,
{
    /// Build a transport over `topology` hosting `nodes`, honouring
    /// `config.routing` and `config.delivery`. Fails with
    /// [`RouteError::Disconnected`] when a routed mode is selected on a
    /// topology that is not strongly connected.
    pub fn new(topology: Topology, config: SimConfig, nodes: Vec<N>) -> Result<Self, RouteError> {
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
            Ok(Transport::Routed(Simulator::new(topology, config, relays)))
        } else {
            Ok(Transport::Direct(Simulator::new(topology, config, nodes)))
        }
    }

    /// Whether sends are relayed over shortest paths.
    pub fn is_routed(&self) -> bool {
        matches!(self, Transport::Routed(_))
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        match self {
            Transport::Direct(sim) => sim.now(),
            Transport::Routed(sim) => sim.now(),
        }
    }

    /// The topology in use.
    pub fn topology(&self) -> &Topology {
        match self {
            Transport::Direct(sim) => sim.topology(),
            Transport::Routed(sim) => sim.topology(),
        }
    }

    /// Immutable access to a protocol node's state machine.
    pub fn node(&self, id: NodeId) -> &N {
        match self {
            Transport::Direct(sim) => sim.node(id),
            Transport::Routed(sim) => sim.node(id).inner(),
        }
    }

    /// Mutable access to a protocol node's state machine (used by the
    /// crash-recovery path to restore a restarted node from its
    /// persisted snapshot; no sends are possible through this accessor).
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        match self {
            Transport::Direct(sim) => sim.node_mut(id),
            Transport::Routed(sim) => sim.node_mut(id).inner_mut(),
        }
    }

    /// Take node `id` down at the current virtual time. While down, its
    /// deliveries follow its `while_down` policy: protocol traffic is
    /// lost (and counted), transit traffic on a routed transport is
    /// parked for redelivery at restart.
    pub fn set_down(&mut self, id: NodeId) {
        match self {
            Transport::Direct(sim) => sim.set_down(id),
            Transport::Routed(sim) => sim.set_down(id),
        }
    }

    /// Bring node `id` back up, redelivering any parked envelopes.
    pub fn set_up(&mut self, id: NodeId) {
        match self {
            Transport::Direct(sim) => sim.set_up(id),
            Transport::Routed(sim) => sim.set_up(id),
        }
    }

    /// Envelopes currently parked at a runtime-crashed node.
    pub fn parked_count(&self, id: NodeId) -> usize {
        match self {
            Transport::Direct(sim) => sim.parked_count(id),
            Transport::Routed(sim) => sim.parked_count(id),
        }
    }

    /// Number of hosted protocol nodes.
    pub fn node_count(&self) -> usize {
        match self {
            Transport::Direct(sim) => sim.node_count(),
            Transport::Routed(sim) => sim.node_count(),
        }
    }

    /// Accumulated network statistics (per hop, when routed).
    pub fn stats(&self) -> &NetworkStats {
        match self {
            Transport::Direct(sim) => sim.stats(),
            Transport::Routed(sim) => sim.stats(),
        }
    }

    /// The event trace (empty if tracing is disabled).
    pub fn trace(&self) -> &EventTrace {
        match self {
            Transport::Direct(sim) => sim.trace(),
            Transport::Routed(sim) => sim.trace(),
        }
    }

    /// Total number of events processed since construction.
    pub fn events_processed(&self) -> u64 {
        match self {
            Transport::Direct(sim) => sim.events_processed(),
            Transport::Routed(sim) => sim.events_processed(),
        }
    }

    /// Combined buffer-pool counters of the underlying simulator (see
    /// [`Simulator::pool_stats`]).
    pub fn pool_stats(&self) -> crate::pool::PoolStats {
        match self {
            Transport::Direct(sim) => sim.pool_stats(),
            Transport::Routed(sim) => sim.pool_stats(),
        }
    }

    /// Number of messages/timers still pending.
    pub fn pending_events(&self) -> usize {
        match self {
            Transport::Direct(sim) => sim.pending_events(),
            Transport::Routed(sim) => sim.pending_events(),
        }
    }

    /// Total transit envelopes forwarded by intermediate nodes — the
    /// extra hops sparse routing pays compared to a full mesh (always 0
    /// when direct).
    pub fn forwarded_messages(&self) -> u64 {
        match self {
            Transport::Direct(_) => 0,
            Transport::Routed(sim) => (0..sim.node_count())
                .map(|i| sim.node(NodeId(i)).forwarded())
                .sum(),
        }
    }

    /// Total multicast destinations dropped by relays because the
    /// envelope strayed off its broadcast-tree path (always 0 when
    /// direct, and 0 in any healthy routed run — see
    /// [`Relay::misrouted`](crate::route::Relay::misrouted)).
    pub fn misrouted_messages(&self) -> u64 {
        match self {
            Transport::Direct(_) => 0,
            Transport::Routed(sim) => (0..sim.node_count())
                .map(|i| sim.node(NodeId(i)).misrouted())
                .sum(),
        }
    }

    /// Run `f` against node `id`'s state machine; its sends enter the
    /// network according to the routing mode.
    ///
    /// Panics with a [`SendError`](crate::sim::SendError) message on a
    /// send over a missing link; use [`Transport::try_with_node`] to
    /// handle that case.
    pub fn with_node<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut N, &mut NodeContext<P>) -> R,
    ) -> R {
        self.try_with_node(id, f).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Transport::with_node`]: returns the
    /// [`SendError`](crate::sim::SendError) of the first buffered send
    /// that could not be carried.
    pub fn try_with_node<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut N, &mut NodeContext<P>) -> R,
    ) -> Result<R, crate::sim::SendError> {
        match self {
            Transport::Direct(sim) => sim.try_with_node(id, f),
            Transport::Routed(sim) => sim.try_with_node(id, |relay, ctx| relay.with_inner(ctx, f)),
        }
    }

    /// Process the next pending event, if any; `false` when idle.
    ///
    /// Panics with a [`SendError`](crate::sim::SendError) message on a
    /// failed send; use [`Transport::try_step`] to handle it.
    pub fn step(&mut self) -> bool {
        match self {
            Transport::Direct(sim) => sim.step(),
            Transport::Routed(sim) => sim.step(),
        }
    }

    /// Fallible variant of [`Transport::step`].
    pub fn try_step(&mut self) -> Result<bool, crate::sim::SendError> {
        match self {
            Transport::Direct(sim) => sim.try_step(),
            Transport::Routed(sim) => sim.try_step(),
        }
    }

    /// Run until no events remain or the `max_events` budget is
    /// exhausted.
    ///
    /// Panics with a [`SendError`](crate::sim::SendError) message on a
    /// failed send; use [`Transport::try_run_until_quiescent`] to handle
    /// it.
    pub fn run_until_quiescent(&mut self) -> RunOutcome {
        match self {
            Transport::Direct(sim) => sim.run_until_quiescent(),
            Transport::Routed(sim) => sim.run_until_quiescent(),
        }
    }

    /// Fallible variant of [`Transport::run_until_quiescent`].
    pub fn try_run_until_quiescent(&mut self) -> Result<RunOutcome, crate::sim::SendError> {
        match self {
            Transport::Direct(sim) => sim.try_run_until_quiescent(),
            Transport::Routed(sim) => sim.try_run_until_quiescent(),
        }
    }

    /// Run until virtual time reaches `deadline` or the system quiesces.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        match self {
            Transport::Direct(sim) => sim.run_until(deadline),
            Transport::Routed(sim) => sim.run_until(deadline),
        }
    }

    /// Consume the transport, returning the protocol nodes and the
    /// accumulated statistics and trace.
    pub fn into_parts(self) -> (Vec<N>, NetworkStats, EventTrace) {
        match self {
            Transport::Direct(sim) => sim.into_parts(),
            Transport::Routed(sim) => {
                let (relays, stats, trace) = sim.into_parts();
                (
                    relays.into_iter().map(Relay::into_inner).collect(),
                    stats,
                    trace,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::RawPayload;

    /// Counts deliveries and answers each incoming payload's source.
    #[derive(Debug, Default)]
    struct Sink {
        got: Vec<(NodeId, usize)>,
    }

    impl Node<RawPayload> for Sink {
        fn on_message(&mut self, _ctx: &mut NodeContext<RawPayload>, from: NodeId, p: RawPayload) {
            self.got.push((from, p.data));
        }
    }

    fn sinks(n: usize) -> Vec<Sink> {
        (0..n).map(|_| Sink::default()).collect()
    }

    #[test]
    fn auto_mode_is_direct_on_a_full_mesh_and_routed_on_a_ring() {
        let direct =
            Transport::new(Topology::full_mesh(4), SimConfig::default(), sinks(4)).unwrap();
        assert!(!direct.is_routed());
        let routed = Transport::new(Topology::ring(4), SimConfig::default(), sinks(4)).unwrap();
        assert!(routed.is_routed());
    }

    #[test]
    fn routed_transport_delivers_across_multiple_hops() {
        let mut t = Transport::new(Topology::ring(6), SimConfig::default(), sinks(6)).unwrap();
        // 0 → 3 is three ring hops away.
        t.with_node(NodeId(0), |_n, ctx| {
            ctx.send(NodeId(3), RawPayload::new(8, 4));
        });
        t.run_until_quiescent();
        // Delivered once, attributed to the logical source.
        assert_eq!(t.node(NodeId(3)).got, vec![(NodeId(0), 8)]);
        // Three hops on the wire: 0→1, 1→2, 2→3; two of them forwards.
        assert_eq!(t.stats().total_messages(), 3);
        assert_eq!(t.stats().total_data_bytes(), 3 * 8);
        assert_eq!(t.forwarded_messages(), 2);
        assert_eq!(t.misrouted_messages(), 0);
        // Intermediate protocol nodes never saw the payload.
        assert!(t.node(NodeId(1)).got.is_empty());
        assert!(t.node(NodeId(2)).got.is_empty());
    }

    #[test]
    fn multi_hop_delivery_pays_per_hop_latency() {
        let mut t = Transport::new(Topology::line(4), SimConfig::default(), sinks(4)).unwrap();
        t.with_node(NodeId(0), |_n, ctx| {
            ctx.send(NodeId(3), RawPayload::new(1, 0));
        });
        t.run_until_quiescent();
        // Default constant latency is 10µs per hop; three hops.
        assert_eq!(t.now(), SimTime::from_micros(30));
    }

    #[test]
    fn forced_routing_on_a_full_mesh_matches_direct_sends_exactly() {
        let run = |mode: RoutingMode| {
            let config = SimConfig {
                routing: mode,
                ..SimConfig::default()
            };
            let mut t = Transport::new(Topology::full_mesh(5), config, sinks(5)).unwrap();
            for i in 0..5usize {
                t.with_node(NodeId(i), |_n, ctx| {
                    ctx.send(NodeId((i + 2) % 5), RawPayload::new(8, 4));
                });
            }
            t.run_until_quiescent();
            let (nodes, stats, _) = t.into_parts();
            (nodes.into_iter().map(|s| s.got).collect::<Vec<_>>(), stats)
        };
        let (direct_got, direct_stats) = run(RoutingMode::Direct);
        let (routed_got, routed_stats) = run(RoutingMode::ForceRouted);
        assert_eq!(direct_got, routed_got);
        assert_eq!(direct_stats, routed_stats);
        assert_eq!(direct_stats.total_messages(), 5);
    }

    #[test]
    fn disconnected_topology_is_rejected_when_routing() {
        let topo = Topology::explicit(3, [(0, 1), (1, 0)]);
        let err = Transport::new(topo, SimConfig::default(), sinks(3))
            .err()
            .unwrap();
        assert!(matches!(err, RouteError::Disconnected { .. }));
    }

    #[test]
    fn direct_mode_still_rejects_missing_links() {
        let config = SimConfig {
            routing: RoutingMode::Direct,
            ..SimConfig::default()
        };
        let mut t = Transport::new(Topology::ring(5), config, sinks(5)).unwrap();
        assert!(!t.is_routed());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.with_node(NodeId(0), |_n, ctx| {
                ctx.send(NodeId(2), RawPayload::new(1, 0));
            });
        }));
        assert!(result.is_err(), "direct sparse sends must fail loudly");
    }

    fn multi_config(multicast: bool) -> SimConfig {
        SimConfig {
            delivery: if multicast {
                DeliveryMode::MULTICAST
            } else {
                DeliveryMode::UNICAST
            },
            ..SimConfig::default()
        }
    }

    #[test]
    fn tree_multicast_pays_each_tree_edge_once_on_a_line() {
        // 0 — 1 — 2 — 3: a broadcast from 0 shares the 0→1 and 1→2 edges.
        let run = |multicast: bool| {
            let mut t =
                Transport::new(Topology::line(4), multi_config(multicast), sinks(4)).unwrap();
            t.with_node(NodeId(0), |_n, ctx| {
                ctx.send_multi([NodeId(1), NodeId(2), NodeId(3)], RawPayload::new(8, 4));
            });
            t.run_until_quiescent();
            for i in 1..4 {
                assert_eq!(t.node(NodeId(i)).got, vec![(NodeId(0), 8)], "node {i}");
            }
            (
                t.stats().total_messages(),
                t.stats().total_data_bytes(),
                t.forwarded_messages(),
                t.now(),
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
            let mut t =
                Transport::new(Topology::star(n), multi_config(multicast), sinks(n)).unwrap();
            // Leaf 1 broadcasts to everyone else (hub 0 + leaves 2..n).
            t.with_node(NodeId(1), |_n, ctx| {
                ctx.send_multi(
                    (0..n).filter(|&i| i != 1).map(NodeId),
                    RawPayload::new(8, 4),
                );
            });
            t.run_until_quiescent();
            for i in (0..n).filter(|&i| i != 1) {
                assert_eq!(t.node(NodeId(i)).got, vec![(NodeId(1), 8)], "node {i}");
            }
            t.stats().total_messages()
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
            let mut t =
                Transport::new(Topology::ring(7), multi_config(multicast), sinks(7)).unwrap();
            for src in 0..7usize {
                t.with_node(NodeId(src), |_n, ctx| {
                    ctx.send_multi(
                        (0..7).filter(|&i| i != src).map(NodeId),
                        RawPayload::new(8, 4),
                    );
                });
            }
            t.run_until_quiescent();
            let (nodes, stats, _) = t.into_parts();
            (
                nodes.into_iter().map(|s| s.got).collect::<Vec<_>>(),
                stats.total_messages(),
            )
        };
        let (unicast_got, unicast_msgs) = run(false);
        let (multicast_got, multicast_msgs) = run(true);
        // Every node hears the same broadcasts from the same sources…
        assert_eq!(unicast_got, multicast_got);
        // …while the wire carries strictly fewer envelopes.
        assert!(
            multicast_msgs < unicast_msgs,
            "{multicast_msgs} vs {unicast_msgs}"
        );
    }

    #[test]
    fn delivery_mode_labels_round_trip() {
        for mode in DeliveryMode::ALL {
            assert_eq!(DeliveryMode::parse(mode.label()), Some(mode));
        }
        assert_eq!(DeliveryMode::parse("nonsense"), None);
        assert_eq!(DeliveryMode::default(), DeliveryMode::UNICAST);
        assert_eq!(DeliveryMode::MULTICAST_BATCHED.label(), "multicast-batched");
        assert_eq!(DeliveryMode::DELTA.label(), "delta");
        assert_eq!(
            DeliveryMode::MULTICAST_BATCHED_DELTA.label(),
            "multicast-batched-delta"
        );
        // The two knob combinations outside the sweep still round-trip.
        for label in ["multicast-delta", "batched-delta"] {
            let mode = DeliveryMode::parse(label).unwrap();
            assert_eq!(mode.label(), label);
            assert!(mode.delta);
        }
    }

    #[test]
    fn timers_pass_through_the_relay() {
        #[derive(Debug, Default)]
        struct TimerEcho {
            fired: Vec<u64>,
        }
        impl Node<RawPayload> for TimerEcho {
            fn on_start(&mut self, ctx: &mut NodeContext<RawPayload>) {
                ctx.set_timer(crate::time::SimDuration::from_micros(3), 7);
            }
            fn on_message(&mut self, _: &mut NodeContext<RawPayload>, _: NodeId, _: RawPayload) {}
            fn on_timer(&mut self, _: &mut NodeContext<RawPayload>, tag: u64) {
                self.fired.push(tag);
            }
        }
        let mut t = Transport::new(
            Topology::ring(4),
            SimConfig::default(),
            (0..4).map(|_| TimerEcho::default()).collect(),
        )
        .unwrap();
        t.run_until_quiescent();
        assert!(t.is_routed());
        for i in 0..4 {
            assert_eq!(t.node(NodeId(i)).fired, vec![7]);
        }
    }
}
