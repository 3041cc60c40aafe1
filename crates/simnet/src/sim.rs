//! The discrete-event simulator driver.
//!
//! A [`Simulator`] owns a set of protocol nodes (implementing [`Node`]), the
//! reliable FIFO channels between them, the event queue, and the run
//! statistics. Client code (the DSM runtime in the `dsm` crate) drives the
//! simulation through the [`Net`] surface it implements: injecting work
//! into nodes with [`Net::invoke`], then advancing virtual time with
//! [`NetCore::settle`] or [`NetCore::step`].

use crate::channel::{Channel, LatencyModel, Transmission};
use crate::event::{Event, EventKind, EventQueue};
use crate::fault::{DownAction, FaultPlan};
use crate::message::{NodeId, WireSize};
use crate::network::Topology;
use crate::node::{Node, NodeContext, Outgoing};
use crate::stats::NetworkStats;
use crate::time::SimTime;
use crate::transport::{DeliveryMode, Net, NetCore, NetError, Posted, RoutingMode};
use std::fmt;

/// Why the simulator could not carry a message.
///
/// The raw [`Simulator`] never relays: a send over a missing link
/// surfaces [`SendError::NoLink`] (or panics with its message, in the
/// infallible entry points). The routing layer is the only place that
/// converts a missing link into a routing decision — a routed net from
/// [`deploy`](crate::transport::deploy) never sees
/// that variant on a connected topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendError {
    /// A send was addressed to a node pair the topology does not link.
    NoLink {
        /// The node that attempted the send.
        from: NodeId,
        /// The unreachable destination.
        to: NodeId,
    },
    /// An operation named a node id the simulator does not host. The
    /// public constructors make this unreachable for ids obtained from
    /// the topology; it exists so the delivery hot path can report a
    /// corrupted id instead of panicking mid-simulation.
    UnknownNode {
        /// The out-of-range node id.
        node: NodeId,
    },
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SendError::NoLink { from, to } => write!(
                f,
                "node {from} attempted to send to {to} but the topology has no such link"
            ),
            SendError::UnknownNode { node } => {
                write!(
                    f,
                    "operation addressed node {node}, which this simulator does not host"
                )
            }
        }
    }
}

impl std::error::Error for SendError {}

/// Configuration of a simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Latency model applied to every channel.
    pub latency: LatencyModel,
    /// Seed for all channel RNGs.
    pub seed: u64,
    /// Safety valve: abort the run after this many events (0 = unlimited).
    pub max_events: u64,
    /// Topology requested by the client. Drivers that build their own
    /// [`Simulator`] (like the DSM runtime) honour this; `None` means "use
    /// the driver's default" (a full mesh for the DSM protocols).
    pub topology: Option<Topology>,
    /// Whether sends are relayed over shortest paths or must be direct
    /// links. Honoured by [`deploy`](crate::transport::deploy) (which the
    /// DSM runtime builds its net with); a raw [`Simulator`] is always
    /// direct.
    pub routing: RoutingMode,
    /// How identical-payload fan-outs travel the wire (tree multicast) and
    /// whether protocols may batch control records
    /// ([`DeliveryMode::default`] reproduces the classical one-envelope-
    /// per-destination, one-record-per-write behaviour exactly). Multicast
    /// only changes the wire when sends are routed; a raw [`Simulator`]
    /// and the direct transport always fan out per destination.
    pub delivery: DeliveryMode,
    /// The fault schedule: seeded per-link drop/duplicate rates enforced
    /// by every channel. The default plan is trivial and reproduces the
    /// reliable-channel model bit for bit; crashes are driven at runtime
    /// through [`NetCore::set_down`] and [`NetCore::set_up`].
    pub faults: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            latency: LatencyModel::default(),
            seed: 0xD5_0C0DE,
            max_events: 0,
            topology: None,
            routing: RoutingMode::Auto,
            delivery: DeliveryMode::default(),
            faults: FaultPlan::default(),
        }
    }
}

/// One arrival a node handled, in the per-node log a simulator keeps
/// once [`Simulator::log_steps`] switches it on. The threaded net's
/// replay runs each site's log as that site's schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// The oldest undelivered message from `from` was delivered.
    Deliver {
        /// Sender whose FIFO stream supplied the payload.
        from: NodeId,
    },
    /// The oldest pending timer with this tag fired.
    Timer {
        /// Tag passed back to [`Node::on_timer`].
        tag: u64,
    },
}

/// How a call to [`NetCore::settle`] ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// No events remain; the system is quiescent.
    Quiescent {
        /// Number of events processed by this call.
        events: u64,
    },
    /// The `max_events` budget was exhausted before quiescence.
    Exhausted {
        /// Number of events processed by this call.
        events: u64,
    },
}

impl RunOutcome {
    /// Events processed during the run.
    pub fn events(&self) -> u64 {
        match *self {
            RunOutcome::Quiescent { events } | RunOutcome::Exhausted { events } => events,
        }
    }

    /// Whether the run reached quiescence.
    pub fn is_quiescent(&self) -> bool {
        matches!(self, RunOutcome::Quiescent { .. })
    }
}

/// The simulator: nodes, channels, event queue, statistics.
///
/// Channels are stored densely, one slot per ordered node pair indexed by
/// `from * n + to`, so the per-send lookup on the hot path is a direct
/// array access (channels are still created lazily on first use, because a
/// full mesh over `n` nodes has `n·(n-1)` of them and most workloads touch
/// only a fraction).
pub struct Simulator<P, N> {
    topology: Topology,
    config: SimConfig,
    nodes: Vec<N>,
    channels: Vec<Option<Channel>>,
    queue: EventQueue<P>,
    now: SimTime,
    stats: NetworkStats,
    events_processed: u64,
    /// Each node's steps since they were last taken; `None` (the
    /// default) logs nothing.
    steps: Option<Vec<Vec<Step>>>,
    /// Nodes taken down via [`NetCore::set_down`].
    manual_down: Vec<bool>,
    /// Envelopes parked at runtime-crashed nodes, redelivered in order by
    /// [`NetCore::set_up`].
    parked: Vec<Vec<(NodeId, u64, P)>>,
    /// The one resident [`NodeContext`]: callbacks never nest, so each
    /// one borrows it, re-pointed at its node and time, and
    /// [`Simulator::flush_context`] empties it.
    ctx: NodeContext<P>,
    /// Scratch for [`Simulator::send_many`]: the receivers, with their
    /// sequence numbers, of the fan-out entry being assembled.
    fan: Vec<(NodeId, u64)>,
}

impl<P, N> Simulator<P, N>
where
    P: WireSize + fmt::Debug + Clone,
    N: Node<P>,
{
    /// Build a simulator over `topology` hosting `nodes` (one per topology
    /// node, in id order).
    ///
    /// Panics if `nodes.len()` differs from the topology's node count, or
    /// if `config.topology` is set but disagrees with `topology` (drivers
    /// that resolve the configured topology themselves — like the DSM
    /// runtime — pass the resolved value in both places; a mismatch means
    /// the caller's intent would be silently dropped).
    pub fn new(topology: Topology, config: SimConfig, nodes: Vec<N>) -> Self {
        assert_eq!(
            nodes.len(),
            topology.node_count(),
            "one protocol node is required per topology node"
        );
        if let Some(configured) = &config.topology {
            assert_eq!(
                configured, &topology,
                "SimConfig.topology disagrees with the topology passed to Simulator::new"
            );
        }
        let n = topology.node_count();
        Simulator {
            topology,
            config,
            nodes,
            channels: vec![None; n * n],
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            stats: NetworkStats::with_nodes(n),
            events_processed: 0,
            steps: None,
            manual_down: vec![false; n],
            parked: (0..n).map(|_| Vec::new()).collect(),
            ctx: NodeContext::new(NodeId(0), SimTime::ZERO),
            fan: Vec::new(),
        }
    }

    /// Whether `node` was taken down by [`NetCore::set_down`].
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn is_down(&self, node: NodeId) -> bool {
        self.manual_down.get(node.index()).copied().unwrap_or(false)
    }

    /// Log each node's steps from now on, for [`Simulator::take_steps`].
    pub(crate) fn log_steps(&mut self) {
        let n = self.nodes.len();
        self.steps.get_or_insert_with(|| vec![Vec::new(); n]);
    }

    /// Node `id`'s steps logged since the last take, in the order it
    /// handled them (empty while the log is off).
    pub(crate) fn take_steps(&mut self, id: NodeId) -> Vec<Step> {
        self.log_of(id).map(std::mem::take).unwrap_or_default()
    }

    /// Node `id`'s step log, if the log is on.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn log_of(&mut self, id: NodeId) -> Option<&mut Vec<Step>> {
        self.steps.as_mut()?.get_mut(id.index())
    }

    /// Run `f` against node `id`'s state machine with a messaging context,
    /// then schedule whatever it sent ([`Net::invoke`] for one closure
    /// with a result). This is how application-level operations enter
    /// the protocol.
    ///
    /// Panics with the error's message if `f` sent to a node pair the
    /// topology does not link.
    pub fn with_node<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut N, &mut NodeContext<P>) -> R,
    ) -> R {
        // The simulator runs the closure exactly once, so it may be
        // `FnOnce` here (`dyn Net::with_node` asks for `Fn`).
        let (mut f, mut out) = (Some(f), None);
        self.invoke(id, &mut |node, ctx| {
            if let Some(f) = f.take() {
                out = Some(f(node, ctx));
            }
        })
        .unwrap_or_else(|e| panic!("{e}"));
        out.expect("a successful invoke runs its closure")
    }

    /// Handle one popped event: advance virtual time and dispatch to the
    /// destination node. Shared by [`NetCore::step`] and the run loop of
    /// [`NetCore::settle`].
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn process_event(&mut self, event: Event<P>) -> Result<(), SendError> {
        #[expect(
            clippy::disallowed_macros,
            reason = "debug_assert! documents an invariant and compiles out of release builds"
        )]
        {
            debug_assert!(event.at >= self.now, "time must not run backwards");
        }
        self.now = event.at;
        self.events_processed += 1;
        match event.kind {
            EventKind::Deliver {
                from,
                to,
                seq,
                data_bytes,
                control_bytes,
                payload,
            } => {
                if self.is_down(to) {
                    return self.handle_down_delivery(from, to, seq, payload);
                }
                self.stats.record_delivery(to, data_bytes, control_bytes);
                if let Some(log) = self.log_of(to) {
                    log.push(Step::Deliver { from });
                }
                self.ctx.reset(to, self.now);
                let node = self
                    .nodes
                    .get_mut(to.index())
                    .ok_or(SendError::UnknownNode { node: to })?;
                node.on_message(&mut self.ctx, from, payload);
                self.flush_context()?;
            }
            EventKind::Timer { node, tag } => {
                if self.is_down(node) {
                    // A crashed node's timers are volatile state: lost.
                    return Ok(());
                }
                if let Some(log) = self.log_of(node) {
                    log.push(Step::Timer { tag });
                }
                self.ctx.reset(node, self.now);
                let state = self
                    .nodes
                    .get_mut(node.index())
                    .ok_or(SendError::UnknownNode { node })?;
                state.on_timer(&mut self.ctx, tag);
                self.flush_context()?;
            }
            EventKind::Duplicate { from: _, to: _ } => {
                // Discarded by the receiver's link layer (sequence-number
                // dedup); its wire cost was charged at send time.
            }
        }
        Ok(())
    }

    /// Apply the destination node's [`Node::while_down`] policy to a
    /// delivery that arrived while the node was crashed.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn handle_down_delivery(
        &mut self,
        from: NodeId,
        to: NodeId,
        seq: u64,
        payload: P,
    ) -> Result<(), SendError> {
        let action = self
            .nodes
            .get(to.index())
            .ok_or(SendError::UnknownNode { node: to })?
            .while_down(&payload);
        match action {
            DownAction::Lose => {
                self.stats.record_crash_loss(to);
            }
            DownAction::Park => {
                // Held until set_up redelivers it.
                self.parked
                    .get_mut(to.index())
                    .ok_or(SendError::UnknownNode { node: to })?
                    .push((from, seq, payload));
            }
        }
        Ok(())
    }

    /// [`NetCore::settle`], panicking with the error's message.
    pub fn run_until_quiescent(&mut self) -> RunOutcome {
        self.settle().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Schedule what the callback just run on the resident context
    /// requested — its timers, then its sends in order — and leave the
    /// context empty, also when a send fails: the sends after the failed
    /// one are dropped with their buffer entries.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn flush_context(&mut self) -> Result<(), SendError> {
        if self.ctx.is_idle() {
            return Ok(());
        }
        let origin = self.ctx.me();
        // Timers cannot fail; schedule them first so a SendError on a later
        // send never silently drops a timer the same callback requested.
        for (delay, tag) in self.ctx.timers.drain(..) {
            self.queue
                .push(self.now + delay, EventKind::Timer { node: origin, tag });
        }
        // The sends need the whole simulator, so the outbox leaves the
        // context while they go out; its buffer stays the same.
        let mut outbox = std::mem::take(&mut self.ctx.outbox);
        let mut result = Ok(());
        for out in outbox.drain(..) {
            result = match out {
                Outgoing::One(to, payload) => {
                    self.send_many(origin, std::slice::from_ref(&to), payload)
                }
                Outgoing::Many(targets, payload) => self.send_many(origin, &targets, payload),
            };
            if result.is_err() {
                break;
            }
        }
        self.ctx.outbox = outbox;
        result
    }

    /// Send one payload to every receiver of `targets`, in order; a
    /// unicast is a fan-out to one receiver. The raw simulator has no
    /// routing tables, so a fan-out is its definition: one transmission
    /// per receiver, as a loop of unicasts would make them. Consecutive
    /// receivers whose copies land at one instant, with no duplicate copy
    /// scheduled between them, become one queue entry holding the
    /// payload once ([`EventQueue::push_fan_out`]); a receiver that
    /// cannot join closes the entry with a copy of its own. A send error
    /// schedules the receivers before it.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn send_many(&mut self, from: NodeId, targets: &[NodeId], payload: P) -> Result<(), SendError> {
        let (data, control) = (payload.data_bytes(), payload.control_bytes());
        let deliver = |(to, seq): (NodeId, u64), payload| EventKind::Deliver {
            from,
            to,
            seq,
            data_bytes: data,
            control_bytes: control,
            payload,
        };
        let mut fan = std::mem::take(&mut self.fan);
        fan.clear();
        let mut at = self.now;
        let mut result = Ok(());
        for &to in targets {
            let (sent, seq) = match self.transmit(from, to, data, control) {
                Ok(sent) => sent,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            };
            if sent.delivery != at || sent.duplicate_at.is_some() {
                if let Some((&first, rest)) = fan.split_first() {
                    self.queue
                        .push_fan_out(at, deliver(first, payload.clone()), rest);
                    fan.clear();
                }
            }
            if let Some(duplicate_at) = sent.duplicate_at {
                self.queue
                    .push(duplicate_at, EventKind::Duplicate { from, to });
            }
            at = sent.delivery;
            fan.push((to, seq));
        }
        if let Some((&first, rest)) = fan.split_first() {
            self.queue.push_fan_out(at, deliver(first, payload), rest);
        }
        self.fan = fan;
        result
    }

    /// Put one copy of a `data` + `control`-byte payload on the channel
    /// `from → to`: the channel's draws and sequence number, the
    /// send-side counters. The caller
    /// schedules the delivery and the fault plan's duplicate, if any.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn transmit(
        &mut self,
        from: NodeId,
        to: NodeId,
        data: usize,
        control: usize,
    ) -> Result<(Transmission, u64), SendError> {
        let n = self.topology.node_count();
        let no_link = SendError::NoLink { from, to };
        if to.index() >= n {
            return Err(no_link);
        }
        let channel_slot = self
            .channels
            .get_mut(from.index() * n + to.index())
            .ok_or(no_link)?;
        let channel = match channel_slot {
            Some(channel) => channel,
            // A channel exists only where the topology has a link, so the
            // link is checked once, when its channel is created.
            None if self.topology.connected(from, to) => channel_slot.insert(Channel::with_faults(
                from,
                to,
                self.config.latency.clone(),
                self.config.seed,
                &self.config.faults,
            )),
            None => return Err(no_link),
        };
        let transmission = channel.transmit(self.now, data + control);
        let seq = channel.sent_count();
        self.stats.record_send(from, to, data, control);
        self.stats
            .record_retransmits(from, to, transmission.drops, data, control);
        if transmission.duplicate_at.is_some() {
            self.stats.record_duplicate(from, to, data, control);
        }
        Ok((transmission, seq))
    }
}

impl<P, N> Net<P, N> for Simulator<P, N>
where
    P: WireSize + fmt::Debug + Clone,
    N: Node<P>,
{
    /// The node's state change still applies when a send fails (the
    /// callback already ran); its timers and the sends buffered before
    /// the offending one are scheduled.
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
        self.ctx.reset(id, self.now);
        let node = self
            .nodes
            .get_mut(id.index())
            .ok_or(SendError::UnknownNode { node: id })?;
        f(node, &mut self.ctx);
        Ok(self.flush_context()?)
    }

    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn post(&mut self, id: NodeId, f: &mut dyn Posted<P, N>) -> Result<(), NetError> {
        self.invoke(id, &mut |node, ctx| f.run(node, ctx))
    }

    fn inspect(&self, id: NodeId, f: &mut dyn FnMut(&N)) -> Result<(), NetError> {
        let unknown = SendError::UnknownNode { node: id };
        f(self.nodes.get(id.index()).ok_or(unknown)?);
        Ok(())
    }

    fn update(&mut self, id: NodeId, f: &mut dyn FnMut(&mut N)) -> Result<(), NetError> {
        let unknown = SendError::UnknownNode { node: id };
        f(self.nodes.get_mut(id.index()).ok_or(unknown)?);
        Ok(())
    }

    fn into_nodes(self: Box<Self>) -> Vec<N> {
        self.nodes
    }
}

impl<P, N> NetCore for Simulator<P, N>
where
    P: WireSize + fmt::Debug + Clone,
    N: Node<P>,
{
    /// The event budget is checked before each pop, so an exhausted run
    /// leaves the queue exactly as the next pop would find it.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn settle(&mut self) -> Result<RunOutcome, NetError> {
        let mut processed = 0u64;
        while !self.queue.is_empty() {
            if self.config.max_events > 0 && processed >= self.config.max_events {
                return Ok(RunOutcome::Exhausted { events: processed });
            }
            let Some(event) = self.queue.pop() else {
                break;
            };
            self.process_event(event)?;
            processed += 1;
        }
        Ok(RunOutcome::Quiescent { events: processed })
    }

    /// A failed send consumes the event that caused it.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn step(&mut self) -> Result<bool, NetError> {
        let Some(event) = self.queue.pop() else {
            return Ok(false);
        };
        self.process_event(event)?;
        Ok(true)
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn topology(&self) -> &Topology {
        &self.topology
    }

    fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// A fan-out counts once per receiver not yet delivered.
    fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Deliveries to a down node follow its [`Node::while_down`] policy:
    /// lost (and counted) or parked for redelivery at restart.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn set_down(&mut self, id: NodeId) -> Result<(), NetError> {
        let unknown = SendError::UnknownNode { node: id };
        *self.manual_down.get_mut(id.index()).ok_or(unknown)? = true;
        Ok(())
    }

    /// Parked envelopes are redelivered at the current virtual time in
    /// their original arrival order (the event queue's insertion-order
    /// tie-break preserves it).
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn set_up(&mut self, id: NodeId) -> Result<(), NetError> {
        let unknown = SendError::UnknownNode { node: id };
        *self.manual_down.get_mut(id.index()).ok_or(unknown)? = false;
        let parked = self
            .parked
            .get_mut(id.index())
            .map(std::mem::take)
            .unwrap_or_default();
        for (from, seq, payload) in parked {
            self.queue.push(
                self.now,
                EventKind::Deliver {
                    from,
                    to: id,
                    seq,
                    data_bytes: payload.data_bytes(),
                    control_bytes: payload.control_bytes(),
                    payload,
                },
            );
        }
        Ok(())
    }

    fn parked(&self, id: NodeId) -> usize {
        self.parked.get(id.index()).map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::RawPayload;
    use crate::time::SimDuration;

    impl<P, N> Simulator<P, N> {
        /// Node `id`'s state, for assertions.
        pub(crate) fn node(&self, id: NodeId) -> &N {
            &self.nodes[id.index()]
        }
    }

    /// A node that relays a token around the ring `k` times, counting hops.
    #[derive(Debug)]
    struct RingRelay {
        id: usize,
        n: usize,
        hops_seen: u64,
        remaining: u64,
    }

    impl Node<RawPayload> for RingRelay {
        fn on_message(&mut self, ctx: &mut NodeContext<RawPayload>, _from: NodeId, p: RawPayload) {
            self.hops_seen += 1;
            if self.id == 0 {
                if self.remaining == 0 {
                    return;
                }
                self.remaining -= 1;
                if self.remaining == 0 {
                    return;
                }
            }
            ctx.send(NodeId((self.id + 1) % self.n), p);
        }
    }

    /// A ring of `n` relays under `config` whose node 0 has sent the
    /// token off for `laps` laps.
    fn ring(n: usize, laps: u64, config: SimConfig) -> Simulator<RawPayload, RingRelay> {
        let nodes = (0..n)
            .map(|id| RingRelay {
                id,
                n,
                hops_seen: 0,
                remaining: if id == 0 { laps } else { 0 },
            })
            .collect();
        let mut sim = Simulator::new(Topology::ring(n), config, nodes);
        if laps > 0 {
            sim.with_node(NodeId(0), |_, ctx| {
                ctx.send(NodeId(1 % n), RawPayload::new(8, 4));
            });
        }
        sim
    }

    fn ring_sim(n: usize, laps: u64) -> Simulator<RawPayload, RingRelay> {
        ring(n, laps, SimConfig::default())
    }

    #[test]
    fn token_ring_runs_to_quiescence() {
        let mut sim = ring_sim(5, 3);
        let outcome = sim.run_until_quiescent();
        assert!(outcome.is_quiescent());
        // 3 laps of 5 hops each.
        assert_eq!(outcome.events(), 15);
        assert_eq!(sim.stats().total_messages(), 15);
        assert_eq!(sim.stats().total_data_bytes(), 15 * 8);
        assert_eq!(sim.stats().total_control_bytes(), 15 * 4);
        for i in 0..5 {
            assert_eq!(sim.node(NodeId(i)).hops_seen, 3, "node {i}");
            // The step log is off by default.
            assert!(sim.take_steps(NodeId(i)).is_empty());
        }
    }

    #[test]
    fn max_events_budget_stops_the_run() {
        let config = SimConfig {
            max_events: 7,
            ..SimConfig::default()
        };
        let mut sim = ring(5, 100, config);
        let outcome = sim.run_until_quiescent();
        assert_eq!(outcome, RunOutcome::Exhausted { events: 7 });
        assert!(sim.pending() > 0);
    }

    /// Floods a full mesh: every message with hops left goes on to every
    /// other node — through `send_multi`, or through the `send` loop it is
    /// documented to equal — and an even payload also arms a zero-delay
    /// timer whose unicast lands between the fan-outs.
    #[derive(Debug)]
    struct Flood {
        id: usize,
        n: usize,
        multi: bool,
        got: Vec<(NodeId, RawPayload)>,
        timers: u64,
    }

    impl Flood {
        fn broadcast(&self, ctx: &mut NodeContext<RawPayload>, p: RawPayload) {
            let others = (0..self.n).filter(|&i| i != self.id).map(NodeId);
            if self.multi {
                ctx.send_multi(others, p);
            } else {
                others.for_each(|to| ctx.send(to, p));
            }
        }
    }

    impl Node<RawPayload> for Flood {
        fn on_message(&mut self, ctx: &mut NodeContext<RawPayload>, from: NodeId, p: RawPayload) {
            self.got.push((from, p));
            if p.control > 0 {
                self.broadcast(ctx, RawPayload::new(p.data + self.id, p.control - 1));
            }
            if p.data.is_multiple_of(2) {
                ctx.set_timer(SimDuration::default(), p.data as u64);
            }
        }

        fn on_timer(&mut self, ctx: &mut NodeContext<RawPayload>, tag: u64) {
            self.timers += 1;
            ctx.send(
                NodeId((self.id + 1) % self.n),
                RawPayload::new(tag as usize + 1, 0),
            );
        }
    }

    /// Everything a run shows: each node's step log, wire counters, what
    /// each node received and how many timers it saw, time, events
    /// processed.
    type Observed = (
        Vec<Vec<Step>>,
        NetworkStats,
        Vec<(Vec<(NodeId, RawPayload)>, u64)>,
        SimTime,
        u64,
    );

    /// A five-node flood under `config` with the step log on, whose
    /// nodes 0 and 1 have broadcast.
    fn flood(config: &SimConfig, multi: bool, budget: u64) -> Simulator<RawPayload, Flood> {
        let n = 5;
        let nodes = (0..n)
            .map(|id| Flood {
                id,
                n,
                multi,
                got: Vec::new(),
                timers: 0,
            })
            .collect();
        let config = SimConfig {
            max_events: budget,
            ..config.clone()
        };
        let mut sim = Simulator::new(Topology::full_mesh(n), config, nodes);
        sim.log_steps();
        for id in 0..2 {
            sim.with_node(NodeId(id), |node, ctx| {
                node.broadcast(ctx, RawPayload::new(id, 2));
            });
        }
        sim
    }

    fn take_all_steps(sim: &mut Simulator<RawPayload, Flood>) -> Vec<Vec<Step>> {
        (0..sim.nodes.len())
            .map(|i| sim.take_steps(NodeId(i)))
            .collect()
    }

    fn observe(mut sim: Simulator<RawPayload, Flood>) -> Observed {
        let (now, events) = (sim.now(), sim.events_processed());
        let (steps, stats) = (take_all_steps(&mut sim), sim.stats().clone());
        let nodes = Box::new(sim).into_nodes();
        let states = nodes.into_iter().map(|node| (node.got, node.timers));
        (steps, stats, states.collect(), now, events)
    }

    /// The three latency and fault configurations the flood runs under.
    fn flood_configs() -> [SimConfig; 3] {
        [
            SimConfig::default(),
            SimConfig {
                latency: LatencyModel::Uniform {
                    min: SimDuration::from_micros(1),
                    max: SimDuration::from_micros(50),
                },
                ..SimConfig::default()
            },
            SimConfig {
                faults: FaultPlan::duplicating(0.5, 7),
                ..SimConfig::default()
            },
        ]
    }

    #[test]
    fn send_multi_equals_a_send_loop_under_every_latency_and_budget() {
        for config in &flood_configs() {
            let run = |multi: bool| {
                let mut sim = flood(config, multi, 0);
                assert!(sim.run_until_quiescent().is_quiescent());
                observe(sim)
            };
            let reference = run(false);
            assert!(reference.1.total_duplicates() > 0 || config.faults.duplicate_rate == 0.0);
            assert_eq!(run(true), reference, "{:?}", config.latency);
            // Every event, duplicates included, pops at the same
            // `(time, order)` with the same action.
            let popped = |multi: bool| {
                let mut sim = flood(config, multi, 0);
                let mut log = Vec::new();
                while let Some(event) = sim.queue.pop() {
                    log.push((event.at, event.order, format!("{:?}", event.kind)));
                    sim.process_event(event).unwrap();
                }
                log
            };
            assert_eq!(popped(true), popped(false), "{:?}", config.latency);
            // Stopped by the budget after every k events, then resumed:
            // the same pending count at the stop, the same run in the end.
            let total = reference.4;
            for k in 1..=total {
                let stopped = |multi: bool| {
                    let mut sim = flood(config, multi, k);
                    let outcome = sim.run_until_quiescent();
                    assert_eq!(outcome.events(), k);
                    assert_eq!(outcome.is_quiescent(), k == total);
                    sim
                };
                let (mut multi, mut looped) = (stopped(true), stopped(false));
                assert_eq!(multi.pending(), looped.pending(), "k = {k}");
                for sim in [&mut multi, &mut looped] {
                    if k % 2 == 0 {
                        while sim.step().unwrap() {}
                    } else {
                        while !sim.run_until_quiescent().is_quiescent() {}
                    }
                }
                assert_eq!(observe(multi), reference, "k = {k}");
                assert_eq!(observe(looped), reference, "k = {k}");
            }
        }
    }

    #[test]
    fn each_nodes_step_log_is_what_it_handled_and_each_take_only_the_new_steps() {
        for config in &flood_configs() {
            for multi in [true, false] {
                let (steps, stats, states, _, events) = {
                    let mut sim = flood(config, multi, 0);
                    sim.run_until_quiescent();
                    observe(sim)
                };
                // Every event but the discarded duplicates is a step.
                let logged: usize = steps.iter().map(Vec::len).sum();
                assert_eq!(logged as u64 + stats.total_duplicates(), events);
                for (log, (got, timers)) in steps.iter().zip(&states) {
                    let senders: Vec<NodeId> = log
                        .iter()
                        .filter_map(|step| match *step {
                            Step::Deliver { from } => Some(from),
                            Step::Timer { .. } => None,
                        })
                        .collect();
                    assert_eq!(
                        senders,
                        got.iter().map(|&(from, _)| from).collect::<Vec<_>>()
                    );
                    let fired = log.iter().filter(|s| matches!(s, Step::Timer { .. }));
                    assert_eq!(fired.count() as u64, *timers);
                }
                // Stopped halfway, then resumed: the second take holds
                // only the steps since the first, and a third none.
                let mut sim = flood(config, multi, events / 2);
                sim.run_until_quiescent();
                let first = take_all_steps(&mut sim);
                sim.run_until_quiescent();
                let second = take_all_steps(&mut sim);
                assert!(take_all_steps(&mut sim).iter().all(Vec::is_empty));
                let joined: Vec<Vec<Step>> = first
                    .into_iter()
                    .zip(second)
                    .map(|(a, b)| [a, b].concat())
                    .collect();
                assert_eq!(joined, steps, "{:?}, multi = {multi}", config.latency);
            }
        }
    }

    #[test]
    fn a_fan_out_is_pending_once_per_receiver() {
        let mut sim = Simulator::new(
            Topology::full_mesh(4),
            SimConfig::default(),
            (0..4).map(|_| Parker::default()).collect(),
        );
        // One queue entry, three pending events: one per receiver.
        sim.with_node(NodeId(0), |_, ctx| {
            ctx.send_multi([1, 2, 3].map(NodeId), RawPayload::new(1, 0));
        });
        assert_eq!(sim.pending(), 3);
        assert!(sim.step().unwrap());
        assert_eq!(sim.pending(), 2);
        sim.run_until_quiescent();
        assert_eq!(sim.pending(), 0);
        assert!((1..4).all(|i| sim.node(NodeId(i)).got == 1));
    }

    #[test]
    fn virtual_time_advances_with_latency() {
        let mut sim = ring_sim(4, 1);
        sim.run_until_quiescent();
        // Default latency is 10us per hop; 4 hops.
        assert_eq!(sim.now(), SimTime::from_micros(40));
    }

    #[test]
    fn with_node_flushes_sends() {
        let mut sim = ring_sim(3, 0);
        sim.with_node(NodeId(2), |_n, ctx| {
            ctx.send(NodeId(0), RawPayload::new(1, 1));
        });
        assert_eq!(sim.pending(), 1);
        sim.run_until_quiescent();
        assert_eq!(sim.node(NodeId(0)).hops_seen, 1);
    }

    #[test]
    #[should_panic(expected = "no such link")]
    fn sending_outside_topology_panics() {
        let mut sim = ring_sim(5, 0);
        sim.with_node(NodeId(0), |_n, ctx| {
            // 0 -> 2 is not a ring edge.
            ctx.send(NodeId(2), RawPayload::new(1, 0));
        });
    }

    #[test]
    fn sending_outside_topology_is_a_typed_error() {
        let mut sim = ring_sim(5, 0);
        let err = sim
            .invoke(NodeId(0), &mut |_n, ctx| {
                ctx.send(NodeId(2), RawPayload::new(1, 0));
            })
            .unwrap_err();
        assert_eq!(
            err,
            NetError::Send(SendError::NoLink {
                from: NodeId(0),
                to: NodeId(2)
            })
        );
        assert!(err.to_string().contains("n0"));
        assert!(err.to_string().contains("n2"));
        // Legal sends keep working afterwards.
        let ok = sim.invoke(NodeId(0), &mut |_n, ctx| {
            ctx.send(NodeId(1), RawPayload::new(1, 0));
        });
        assert!(ok.is_ok());
        assert!(sim.settle().is_ok());
    }

    /// A node that records the tags of the timers that fire at it.
    #[derive(Debug, Default)]
    struct TimerNode {
        fired: Vec<u64>,
    }

    impl Node<RawPayload> for TimerNode {
        fn on_message(&mut self, _: &mut NodeContext<RawPayload>, _: NodeId, _: RawPayload) {}
        fn on_timer(&mut self, _: &mut NodeContext<RawPayload>, tag: u64) {
            self.fired.push(tag);
        }
    }

    fn timer_sim(n: usize) -> Simulator<RawPayload, TimerNode> {
        let nodes = (0..n).map(|_| TimerNode::default()).collect();
        Simulator::new(Topology::full_mesh(n), SimConfig::default(), nodes)
    }

    #[test]
    fn timers_fire_at_requested_delay() {
        let mut sim = timer_sim(1);
        sim.with_node(NodeId(0), |_, ctx| {
            ctx.set_timer(SimDuration::from_micros(5), 1);
            ctx.set_timer(SimDuration::from_micros(2), 2);
        });
        sim.run_until_quiescent();
        assert_eq!(sim.node(NodeId(0)).fired, vec![2, 1]);
        assert_eq!(sim.now(), SimTime::from_micros(5));
    }

    #[test]
    fn a_node_set_down_loses_the_timers_pending_at_it() {
        let mut sim = timer_sim(2);
        for id in [0, 1] {
            sim.with_node(NodeId(id), |_, ctx| {
                ctx.set_timer(SimDuration::from_micros(5), 1);
            });
        }
        sim.set_down(NodeId(1)).unwrap();
        sim.run_until_quiescent();
        assert_eq!(sim.node(NodeId(0)).fired, vec![1]);
        assert!(sim.node(NodeId(1)).fired.is_empty());
        // Lost, not parked: a restart brings none of them back.
        sim.set_up(NodeId(1)).unwrap();
        assert_eq!(sim.pending(), 0);
        sim.run_until_quiescent();
        assert!(sim.node(NodeId(1)).fired.is_empty());
        assert_eq!(sim.stats().total_crash_losses(), 0);
        // Timers set after the restart fire again.
        sim.with_node(NodeId(1), |_, ctx| {
            ctx.set_timer(SimDuration::from_micros(1), 2);
        });
        sim.run_until_quiescent();
        assert_eq!(sim.node(NodeId(1)).fired, vec![2]);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed: u64| {
            let config = SimConfig {
                latency: LatencyModel::Uniform {
                    min: SimDuration::from_micros(1),
                    max: SimDuration::from_micros(50),
                },
                seed,
                ..SimConfig::default()
            };
            let mut sim = ring(6, 4, config);
            sim.run_until_quiescent();
            sim.now()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn into_parts_returns_nodes_and_stats() {
        let mut sim = ring_sim(3, 1);
        sim.run_until_quiescent();
        assert_eq!(sim.stats().total_messages(), 3);
        assert_eq!(Box::new(sim).into_nodes().len(), 3);
    }

    fn faulted_ring(n: usize, laps: u64, faults: FaultPlan) -> Simulator<RawPayload, RingRelay> {
        let config = SimConfig {
            faults,
            ..SimConfig::default()
        };
        ring(n, laps, config)
    }

    #[test]
    fn lossy_plan_delivers_everything_late_and_counts_retransmits() {
        let mut reliable = ring_sim(5, 4);
        reliable.run_until_quiescent();
        let mut lossy = faulted_ring(5, 4, FaultPlan::lossy(0.4, 3));
        lossy.run_until_quiescent();
        // Same logical traffic: every hop still delivered exactly once…
        assert_eq!(
            lossy.stats().total_messages(),
            reliable.stats().total_messages()
        );
        for i in 0..5 {
            assert_eq!(lossy.node(NodeId(i)).hops_seen, 4, "node {i}");
        }
        // …but drops forced retransmissions, which cost extra bytes and
        // extra virtual time.
        assert!(lossy.stats().total_drops() > 0);
        assert!(lossy.stats().total_data_bytes() > reliable.stats().total_data_bytes());
        assert!(lossy.now() > reliable.now());
        assert_eq!(lossy.stats().total_duplicates(), 0);
    }

    #[test]
    fn duplicating_plan_is_invisible_to_the_nodes() {
        let mut dup = faulted_ring(5, 4, FaultPlan::duplicating(0.5, 3));
        dup.run_until_quiescent();
        // The link layer discarded every duplicate: node-visible traffic
        // is exactly the reliable run's.
        for i in 0..5 {
            assert_eq!(dup.node(NodeId(i)).hops_seen, 4, "node {i}");
        }
        assert!(dup.stats().total_duplicates() > 0);
        // Duplicates paid wire bytes without raising the message count.
        assert_eq!(dup.stats().total_messages(), 20);
        assert!(dup.stats().total_data_bytes() > 20 * 8);
    }

    #[test]
    fn identical_fault_seeds_give_identical_runs() {
        let run = |seed: u64| {
            let mut sim = faulted_ring(
                6,
                5,
                FaultPlan {
                    drop_rate: 0.3,
                    duplicate_rate: 0.3,
                    seed,
                    ..FaultPlan::default()
                },
            );
            sim.run_until_quiescent();
            (
                sim.now(),
                sim.stats().total_drops(),
                sim.stats().total_duplicates(),
            )
        };
        assert_eq!(run(21), run(21));
        assert_ne!(run(21), run(22));
    }

    #[test]
    fn manual_down_parks_nothing_by_default_and_counts_losses() {
        let mut sim = ring_sim(4, 0);
        sim.set_down(NodeId(1)).unwrap();
        assert!(sim.is_down(NodeId(1)));
        sim.with_node(NodeId(0), |_n, ctx| {
            ctx.send(NodeId(1), RawPayload::new(8, 0));
        });
        sim.run_until_quiescent();
        // Default while_down policy loses protocol deliveries.
        assert_eq!(sim.node(NodeId(1)).hops_seen, 0);
        assert_eq!(sim.stats().total_crash_losses(), 1);
        assert_eq!(sim.parked(NodeId(1)), 0);
        sim.set_up(NodeId(1)).unwrap();
        assert!(!sim.is_down(NodeId(1)));
        // The lost message stays lost; the node works again.
        sim.with_node(NodeId(0), |_n, ctx| {
            ctx.send(NodeId(1), RawPayload::new(8, 0));
        });
        sim.run_until_quiescent();
        assert_eq!(sim.node(NodeId(1)).hops_seen, 1);
    }

    /// A node whose `while_down` policy parks everything (stands in for
    /// the relay's transit-traffic policy).
    #[derive(Debug, Default)]
    struct Parker {
        got: u64,
    }

    impl Node<RawPayload> for Parker {
        fn on_message(&mut self, _: &mut NodeContext<RawPayload>, _: NodeId, _: RawPayload) {
            self.got += 1;
        }
        fn while_down(&self, _payload: &RawPayload) -> crate::fault::DownAction {
            crate::fault::DownAction::Park
        }
    }

    #[test]
    fn parked_envelopes_are_redelivered_in_order_at_set_up() {
        let mut sim = Simulator::new(
            Topology::full_mesh(3),
            SimConfig::default(),
            vec![Parker::default(), Parker::default(), Parker::default()],
        );
        sim.set_down(NodeId(2)).unwrap();
        sim.with_node(NodeId(0), |_n, ctx| {
            ctx.send(NodeId(2), RawPayload::new(1, 0));
            ctx.send(NodeId(2), RawPayload::new(2, 0));
        });
        sim.run_until_quiescent();
        assert_eq!(sim.node(NodeId(2)).got, 0);
        assert_eq!(sim.parked(NodeId(2)), 2);
        sim.set_up(NodeId(2)).unwrap();
        assert_eq!(sim.parked(NodeId(2)), 0);
        sim.run_until_quiescent();
        assert_eq!(sim.node(NodeId(2)).got, 2);
    }
}
