//! The discrete-event simulator driver.
//!
//! A [`Simulator`] owns a set of protocol nodes (implementing [`Node`]), the
//! reliable FIFO channels between them, the event queue, and the run
//! statistics. Client code (the DSM runtime in the `dsm` crate) drives the
//! simulation by injecting work into nodes with [`Simulator::with_node`] and
//! then advancing virtual time with [`Simulator::run_until_quiescent`] or
//! [`Simulator::step`].

use crate::channel::{Channel, LatencyModel};
use crate::event::{Event, EventKind, EventQueue};
use crate::fault::{DownAction, FaultError, FaultPlan};
use crate::message::{NodeId, Payload, WireSize};
use crate::network::Topology;
use crate::node::{Node, NodeContext, Outgoing};
use crate::pool::{BufferPool, PoolStats};
use crate::stats::NetworkStats;
use crate::time::{SimDuration, SimTime};
use crate::trace::{EventTrace, TraceEntry};
use crate::transport::{DeliveryMode, RoutingMode};
use std::fmt;
use std::rc::Rc;

/// Why the simulator could not carry a message.
///
/// The raw [`Simulator`] never relays: a send over a missing link
/// surfaces [`SendError::NoLink`] (or panics with its message, in the
/// infallible entry points). The routing layer ([`crate::route`]) is the
/// only place that converts a missing link into a routing decision —
/// anything built on [`Transport`](crate::transport::Transport) never
/// sees that variant on a connected topology. [`SendError::Fault`] is
/// the fault layer's loud failure: a message had to be parked at a node
/// that is crashed with no scheduled restart (see
/// [`crate::fault::FaultError`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendError {
    /// A send was addressed to a node pair the topology does not link.
    NoLink {
        /// The node that attempted the send.
        from: NodeId,
        /// The unreachable destination.
        to: NodeId,
    },
    /// A message required a node that is permanently crashed.
    Fault(FaultError),
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
            SendError::Fault(e) => e.fmt(f),
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

impl From<FaultError> for SendError {
    fn from(e: FaultError) -> Self {
        SendError::Fault(e)
    }
}

/// Configuration of a simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Latency model applied to every channel.
    pub latency: LatencyModel,
    /// Seed for all channel RNGs.
    pub seed: u64,
    /// If `Some(n)`, keep a trace of up to `n` entries.
    pub trace_capacity: Option<usize>,
    /// Safety valve: abort the run after this many events (0 = unlimited).
    pub max_events: u64,
    /// Topology requested by the client. Drivers that build their own
    /// [`Simulator`] (like the DSM runtime) honour this; `None` means "use
    /// the driver's default" (a full mesh for the DSM protocols).
    pub topology: Option<Topology>,
    /// Whether sends are relayed over shortest paths or must be direct
    /// links. Only honoured by drivers that build a
    /// [`Transport`](crate::transport::Transport) (like the DSM runtime);
    /// a raw [`Simulator`] is always direct.
    pub routing: RoutingMode,
    /// How identical-payload fan-outs travel the wire (tree multicast) and
    /// whether protocols may batch control records
    /// ([`DeliveryMode::default`] reproduces the classical one-envelope-
    /// per-destination, one-record-per-write behaviour exactly). Multicast
    /// only changes the wire when sends are routed; a raw [`Simulator`]
    /// and the direct transport always fan out per destination.
    pub delivery: DeliveryMode,
    /// The fault schedule: seeded per-link drop/duplicate rates enforced
    /// by every channel, and per-node crash windows enforced in the
    /// delivery path. The default plan is trivial and reproduces the
    /// reliable-channel model bit for bit.
    pub faults: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            latency: LatencyModel::default(),
            seed: 0xD5_0C0DE,
            trace_capacity: None,
            max_events: 0,
            topology: None,
            routing: RoutingMode::Auto,
            delivery: DeliveryMode::default(),
            faults: FaultPlan::default(),
        }
    }
}

/// How a call to [`Simulator::run_until_quiescent`] ended.
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
    /// Queued payloads are [`Payload`]-wrapped so one multicast fan-out
    /// shares a single allocation across all of its delivery events.
    queue: EventQueue<Payload<P>>,
    now: SimTime,
    stats: NetworkStats,
    trace: EventTrace,
    events_processed: u64,
    started: bool,
    /// Nodes taken down at runtime via [`Simulator::set_down`] (the
    /// scripted crash path; scheduled outages live in
    /// `config.faults.crashes`).
    manual_down: Vec<bool>,
    /// Envelopes parked at runtime-crashed nodes, redelivered in order by
    /// [`Simulator::set_up`].
    parked: Vec<Vec<(NodeId, u64, Payload<P>)>>,
    /// Recycled outbox buffers for delivery-path [`NodeContext`]s.
    outbox_pool: BufferPool<Outgoing<P>>,
    /// Recycled timer-request buffers for delivery-path [`NodeContext`]s.
    timer_pool: BufferPool<(SimDuration, u64)>,
    /// Recycled scratch buffers for the batched event drain.
    batch_pool: BufferPool<Event<Payload<P>>>,
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
        let trace = match config.trace_capacity {
            Some(cap) => EventTrace::with_capacity(cap),
            None => EventTrace::disabled(),
        };
        let n = topology.node_count();
        Simulator {
            topology,
            config,
            nodes,
            channels: vec![None; n * n],
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            stats: NetworkStats::with_nodes(n),
            trace,
            events_processed: 0,
            started: false,
            manual_down: vec![false; n],
            parked: (0..n).map(|_| Vec::new()).collect(),
            outbox_pool: BufferPool::new(),
            timer_pool: BufferPool::new(),
            batch_pool: BufferPool::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The topology in use.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Immutable access to a node's state machine.
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node's state machine. Used by the crash
    /// recovery path to restore a restarted node from its persisted
    /// snapshot; sends are not possible through this accessor (use
    /// [`Simulator::with_node`] for that).
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.nodes[id.index()]
    }

    /// Whether `node` is down at virtual time `at` — either taken down at
    /// runtime ([`Simulator::set_down`]) or inside a scheduled crash
    /// window of the fault plan.
    pub fn is_down(&self, node: NodeId, at: SimTime) -> bool {
        self.manual_down.get(node.index()).copied().unwrap_or(false)
            || self.config.faults.window_covering(node, at).is_some()
    }

    /// Take `node` down at the current virtual time (the scripted crash
    /// path, driven by the DSM runtime). Deliveries to a down node follow
    /// its [`Node::while_down`] policy: lost (and counted) or parked for
    /// redelivery at restart.
    pub fn set_down(&mut self, node: NodeId) {
        if let Some(flag) = self.manual_down.get_mut(node.index()) {
            *flag = true;
        }
    }

    /// Bring a runtime-crashed node back up, redelivering every parked
    /// envelope at the current virtual time in its original arrival
    /// order (the event queue's insertion-order tie-break preserves it).
    pub fn set_up(&mut self, node: NodeId) {
        if let Some(flag) = self.manual_down.get_mut(node.index()) {
            *flag = false;
        }
        let parked = self
            .parked
            .get_mut(node.index())
            .map(std::mem::take)
            .unwrap_or_default();
        for (from, seq, payload) in parked {
            self.queue.push(
                self.now,
                EventKind::Deliver {
                    from,
                    to: node,
                    seq,
                    data_bytes: payload.data_bytes(),
                    control_bytes: payload.control_bytes(),
                    payload,
                },
            );
        }
    }

    /// Envelopes currently parked at a runtime-crashed node.
    pub fn parked_count(&self, node: NodeId) -> usize {
        self.parked[node.index()].len()
    }

    /// Number of hosted nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Accumulated network statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Combined buffer-pool counters (outbox + timer + event-batch
    /// pools): how often the delivery hot path reused a recycled buffer
    /// instead of allocating. Purely observational — pooling never
    /// changes simulation results.
    pub fn pool_stats(&self) -> PoolStats {
        let (a, b, c) = (
            self.outbox_pool.stats(),
            self.timer_pool.stats(),
            self.batch_pool.stats(),
        );
        PoolStats {
            hits: a.hits + b.hits + c.hits,
            misses: a.misses + b.misses + c.misses,
            recycled: a.recycled + b.recycled + c.recycled,
            discarded: a.discarded + b.discarded + c.discarded,
        }
    }

    /// A [`NodeContext`] for `me` at the current time, backed by pooled
    /// buffers ([`Simulator::flush_context`] returns them).
    fn recycled_context(&mut self, me: NodeId) -> NodeContext<P> {
        NodeContext::with_buffers(
            me,
            self.now,
            self.outbox_pool.acquire(0),
            self.timer_pool.acquire(0),
        )
    }

    /// The event trace (empty if tracing is disabled).
    pub fn trace(&self) -> &EventTrace {
        &self.trace
    }

    /// Total number of events processed since construction.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of messages/timers still pending.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Invoke `on_start` on every node (in id order) if not already done.
    /// Called automatically by the run methods; exposed for tests that want
    /// to inspect the state between start-up and the first delivery.
    ///
    /// Panics if a start-up send targets a missing link (see
    /// [`Simulator::try_with_node`] for the error contract).
    pub fn start(&mut self) {
        self.try_start().unwrap_or_else(|e| panic!("{e}"));
    }

    fn try_start(&mut self) -> Result<(), SendError> {
        if self.started {
            return Ok(());
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            let mut ctx = self.recycled_context(NodeId(i));
            if let Some(node) = self.nodes.get_mut(i) {
                node.on_start(&mut ctx);
            }
            self.flush_context(NodeId(i), ctx)?;
        }
        Ok(())
    }

    /// Run `f` against node `id`'s state machine with a messaging context,
    /// then schedule whatever it sent. This is how application-level
    /// operations (reads/writes issued by application processes) enter the
    /// protocol.
    ///
    /// Panics with a [`SendError`] message if `f` sent to a node pair the
    /// topology does not link; use [`Simulator::try_with_node`] to handle
    /// that case.
    pub fn with_node<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut N, &mut NodeContext<P>) -> R,
    ) -> R {
        self.try_with_node(id, f).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Simulator::with_node`]: returns the
    /// [`SendError`] of the first buffered send that targets a missing
    /// link. The node's state change still applies (the callback already
    /// ran); its timers and the sends buffered before the offending one
    /// are scheduled.
    pub fn try_with_node<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut N, &mut NodeContext<P>) -> R,
    ) -> Result<R, SendError> {
        self.try_start()?;
        let mut ctx = self.recycled_context(id);
        let node = self
            .nodes
            .get_mut(id.index())
            .ok_or(SendError::UnknownNode { node: id })?;
        let r = f(node, &mut ctx);
        self.flush_context(id, ctx)?;
        Ok(r)
    }

    /// Process the next pending event, if any. Returns `false` when the
    /// queue is empty.
    ///
    /// Panics with a [`SendError`] message if the handled event caused a
    /// send over a missing link; use [`Simulator::try_step`] to handle it.
    pub fn step(&mut self) -> bool {
        self.try_step().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Simulator::step`]: returns the [`SendError`]
    /// of the first send over a missing link triggered by the handled
    /// event (the event itself is still consumed).
    pub fn try_step(&mut self) -> Result<bool, SendError> {
        self.try_start()?;
        let Some(event) = self.queue.pop() else {
            return Ok(false);
        };
        self.process_event(event)?;
        Ok(true)
    }

    /// Handle one drained event: advance virtual time and dispatch to the
    /// destination node. Shared by the single-step path and the batched
    /// drain in [`Simulator::try_run_until_quiescent`].
    fn process_event(&mut self, event: Event<Payload<P>>) -> Result<(), SendError> {
        debug_assert!(event.at >= self.now, "time must not run backwards");
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
                if self.is_down(to, self.now) {
                    return self.handle_down_delivery(from, to, seq, payload);
                }
                self.stats.record_delivery(to, data_bytes, control_bytes);
                if self.trace.is_enabled() {
                    self.trace.record(TraceEntry::Delivered {
                        at: self.now,
                        from,
                        to,
                        label: format!("{payload:?}"),
                    });
                }
                let mut ctx = self.recycled_context(to);
                let node = self
                    .nodes
                    .get_mut(to.index())
                    .ok_or(SendError::UnknownNode { node: to })?;
                node.on_message(&mut ctx, from, payload.into_owned());
                self.flush_context(to, ctx)?;
            }
            EventKind::Timer { node, tag } => {
                if self.is_down(node, self.now) {
                    // A crashed node's timers are volatile state: lost.
                    return Ok(());
                }
                if self.trace.is_enabled() {
                    self.trace.record(TraceEntry::TimerFired {
                        at: self.now,
                        node,
                        tag,
                    });
                }
                let mut ctx = self.recycled_context(node);
                let state = self
                    .nodes
                    .get_mut(node.index())
                    .ok_or(SendError::UnknownNode { node })?;
                state.on_timer(&mut ctx, tag);
                self.flush_context(node, ctx)?;
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
    fn handle_down_delivery(
        &mut self,
        from: NodeId,
        to: NodeId,
        seq: u64,
        payload: Payload<P>,
    ) -> Result<(), SendError> {
        let action = self
            .nodes
            .get(to.index())
            .ok_or(SendError::UnknownNode { node: to })?
            .while_down(payload.value());
        match action {
            DownAction::Lose => {
                self.stats.record_crash_loss(to);
            }
            DownAction::Park => {
                if self.manual_down.get(to.index()).copied().unwrap_or(false) {
                    // Runtime crash: restart time unknown; hold the
                    // envelope until set_up redelivers it.
                    self.parked
                        .get_mut(to.index())
                        .ok_or(SendError::UnknownNode { node: to })?
                        .push((from, seq, payload));
                } else {
                    // Scheduled crash window: redeliver at the restart
                    // boundary, or fail loudly if there is none — parked
                    // transit traffic is never dropped on the floor.
                    let restart = self
                        .config
                        .faults
                        .window_covering(to, self.now)
                        .and_then(|w| w.restart_at());
                    match restart {
                        Some(at) => self.queue.push(
                            at,
                            EventKind::Deliver {
                                from,
                                to,
                                seq,
                                data_bytes: payload.data_bytes(),
                                control_bytes: payload.control_bytes(),
                                payload,
                            },
                        ),
                        None => return Err(SendError::Fault(FaultError { node: to })),
                    }
                }
            }
        }
        Ok(())
    }

    /// Run until no events remain or the `max_events` budget is exhausted.
    ///
    /// Panics with a [`SendError`] message on a send over a missing link;
    /// use [`Simulator::try_run_until_quiescent`] to handle it.
    pub fn run_until_quiescent(&mut self) -> RunOutcome {
        self.try_run_until_quiescent()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Simulator::run_until_quiescent`].
    ///
    /// The run loop drains all events sharing the earliest timestamp at
    /// once ([`EventQueue::pop_ready_into`]) instead of popping per
    /// event; the interleaving is bit-identical to the single-step loop
    /// because events scheduled while a batch is processed always carry
    /// larger order numbers (see the batch-drain docs). On budget expiry
    /// or a send error mid-batch the unprocessed remainder is requeued at
    /// its original positions.
    pub fn try_run_until_quiescent(&mut self) -> Result<RunOutcome, SendError> {
        self.try_start()?;
        let mut processed = 0u64;
        let mut batch = self.batch_pool.acquire(0);
        while !self.queue.is_empty() {
            self.queue.pop_ready_into(&mut batch);
            let mut events = batch.drain(..);
            while let Some(event) = events.next() {
                if self.config.max_events > 0 && processed >= self.config.max_events {
                    self.queue.requeue(event);
                    for rest in events {
                        self.queue.requeue(rest);
                    }
                    self.batch_pool.release(batch);
                    return Ok(RunOutcome::Exhausted { events: processed });
                }
                match self.process_event(event) {
                    Ok(()) => processed += 1,
                    Err(e) => {
                        for rest in events {
                            self.queue.requeue(rest);
                        }
                        self.batch_pool.release(batch);
                        return Err(e);
                    }
                }
            }
        }
        self.batch_pool.release(batch);
        Ok(RunOutcome::Quiescent { events: processed })
    }

    /// Run until virtual time reaches `deadline` or the system quiesces.
    /// Events scheduled strictly after `deadline` remain pending.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.start();
        let mut processed = 0u64;
        loop {
            match self.queue.peek_time() {
                None => return RunOutcome::Quiescent { events: processed },
                Some(t) if t > deadline => return RunOutcome::Quiescent { events: processed },
                Some(_) => {
                    if self.config.max_events > 0 && processed >= self.config.max_events {
                        return RunOutcome::Exhausted { events: processed };
                    }
                    self.step();
                    processed += 1;
                }
            }
        }
    }

    /// Consume the simulator, returning its nodes (for post-run inspection)
    /// and the accumulated statistics.
    pub fn into_parts(self) -> (Vec<N>, NetworkStats, EventTrace) {
        (self.nodes, self.stats, self.trace)
    }

    fn flush_context(&mut self, origin: NodeId, ctx: NodeContext<P>) -> Result<(), SendError> {
        let (mut outbox, mut timers) = ctx.into_parts();
        // Timers cannot fail; schedule them first so a SendError on a later
        // send never silently drops a timer the same callback requested.
        for (delay, tag) in timers.drain(..) {
            self.queue
                .push(self.now + delay, EventKind::Timer { node: origin, tag });
        }
        self.timer_pool.release(timers);
        // The raw simulator has no routing tables, so a multi-destination
        // entry degrades to its definition: one delivery per destination,
        // in order — but the fan-out's events share one payload
        // allocation instead of cloning it per destination. Tree
        // deduplication lives in the routed transport alone.
        let mut result = Ok(());
        for out in outbox.drain(..) {
            result = match out {
                Outgoing::One(to, payload) => {
                    self.send_message(origin, to, Payload::Owned(payload))
                }
                Outgoing::Many(targets, payload) => {
                    let shared = Rc::new(payload);
                    let mut fanned = Ok(());
                    for to in targets {
                        fanned = self.send_message(origin, to, Payload::Shared(Rc::clone(&shared)));
                        if fanned.is_err() {
                            break;
                        }
                    }
                    fanned
                }
            };
            if result.is_err() {
                break;
            }
        }
        self.outbox_pool.release(outbox);
        result
    }

    fn send_message(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: Payload<P>,
    ) -> Result<(), SendError> {
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
        // The payload's sizes are computed here, once per hop, and ride
        // with the delivery event.
        let (data, control) = (payload.data_bytes(), payload.control_bytes());
        let transmission = channel.transmit(self.now, data + control);
        let seq = channel.sent_count();
        self.stats.record_send(from, to, data, control);
        self.stats
            .record_retransmits(from, to, transmission.drops, data, control);
        if let Some(at) = transmission.duplicate_at {
            self.stats.record_duplicate(from, to, data, control);
            self.queue.push(at, EventKind::Duplicate { from, to });
        }
        if self.trace.is_enabled() {
            self.trace.record(TraceEntry::Sent {
                at: self.now,
                from,
                to,
                bytes: data + control,
                label: format!("{payload:?}"),
            });
        }
        self.queue.push(
            transmission.delivery,
            EventKind::Deliver {
                from,
                to,
                seq,
                data_bytes: data,
                control_bytes: control,
                payload,
            },
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::RawPayload;
    use crate::time::SimDuration;

    /// A node that relays a token around the ring `k` times, counting hops.
    #[derive(Debug)]
    struct RingRelay {
        id: usize,
        n: usize,
        hops_seen: u64,
        remaining: u64,
    }

    impl Node<RawPayload> for RingRelay {
        fn on_start(&mut self, ctx: &mut NodeContext<RawPayload>) {
            if self.id == 0 && self.remaining > 0 {
                ctx.send(NodeId(1 % self.n), RawPayload::new(8, 4));
            }
        }

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

    fn ring_sim(n: usize, laps: u64) -> Simulator<RawPayload, RingRelay> {
        let nodes = (0..n)
            .map(|id| RingRelay {
                id,
                n,
                hops_seen: 0,
                remaining: if id == 0 { laps } else { 0 },
            })
            .collect();
        Simulator::new(Topology::ring(n), SimConfig::default(), nodes)
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
        }
    }

    #[test]
    fn max_events_budget_stops_the_run() {
        let config = SimConfig {
            max_events: 7,
            ..SimConfig::default()
        };
        let nodes = (0..5)
            .map(|id| RingRelay {
                id,
                n: 5,
                hops_seen: 0,
                remaining: if id == 0 { 100 } else { 0 },
            })
            .collect();
        let mut sim = Simulator::new(Topology::ring(5), config, nodes);
        let outcome = sim.run_until_quiescent();
        assert_eq!(outcome, RunOutcome::Exhausted { events: 7 });
        assert!(sim.pending_events() > 0);
    }

    #[test]
    fn virtual_time_advances_with_latency() {
        let mut sim = ring_sim(4, 1);
        sim.run_until_quiescent();
        // Default latency is 10us per hop; 4 hops.
        assert_eq!(sim.now(), SimTime::from_micros(40));
    }

    #[test]
    fn run_until_deadline_leaves_later_events_pending() {
        let mut sim = ring_sim(4, 1);
        sim.run_until(SimTime::from_micros(25));
        assert!(sim.pending_events() > 0);
        assert!(sim.now() <= SimTime::from_micros(25));
        sim.run_until_quiescent();
        assert_eq!(sim.pending_events(), 0);
    }

    #[test]
    fn with_node_flushes_sends() {
        let mut sim = ring_sim(3, 0);
        sim.with_node(NodeId(2), |_n, ctx| {
            ctx.send(NodeId(0), RawPayload::new(1, 1));
        });
        assert_eq!(sim.pending_events(), 1);
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
            .try_with_node(NodeId(0), |_n, ctx| {
                ctx.send(NodeId(2), RawPayload::new(1, 0));
            })
            .unwrap_err();
        assert_eq!(
            err,
            SendError::NoLink {
                from: NodeId(0),
                to: NodeId(2)
            }
        );
        assert!(err.to_string().contains("n0"));
        assert!(err.to_string().contains("n2"));
        // Legal sends keep working afterwards.
        let ok = sim.try_with_node(NodeId(0), |_n, ctx| {
            ctx.send(NodeId(1), RawPayload::new(1, 0));
        });
        assert!(ok.is_ok());
        assert!(sim.try_run_until_quiescent().is_ok());
    }

    #[test]
    fn trace_records_sends_and_deliveries() {
        let config = SimConfig {
            trace_capacity: Some(100),
            ..SimConfig::default()
        };
        let nodes = (0..3)
            .map(|id| RingRelay {
                id,
                n: 3,
                hops_seen: 0,
                remaining: if id == 0 { 1 } else { 0 },
            })
            .collect();
        let mut sim = Simulator::new(Topology::ring(3), config, nodes);
        sim.run_until_quiescent();
        let sent = sim
            .trace()
            .entries()
            .iter()
            .filter(|e| matches!(e, TraceEntry::Sent { .. }))
            .count();
        let delivered = sim
            .trace()
            .entries()
            .iter()
            .filter(|e| matches!(e, TraceEntry::Delivered { .. }))
            .count();
        assert_eq!(sent, 3);
        assert_eq!(delivered, 3);
    }

    #[test]
    fn timers_fire_at_requested_delay() {
        #[derive(Debug, Default)]
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl Node<RawPayload> for TimerNode {
            fn on_start(&mut self, ctx: &mut NodeContext<RawPayload>) {
                ctx.set_timer(SimDuration::from_micros(5), 1);
                ctx.set_timer(SimDuration::from_micros(2), 2);
            }
            fn on_message(&mut self, _: &mut NodeContext<RawPayload>, _: NodeId, _: RawPayload) {}
            fn on_timer(&mut self, _: &mut NodeContext<RawPayload>, tag: u64) {
                self.fired.push(tag);
            }
        }
        let mut sim = Simulator::new(
            Topology::full_mesh(1),
            SimConfig::default(),
            vec![TimerNode::default()],
        );
        sim.run_until_quiescent();
        assert_eq!(sim.node(NodeId(0)).fired, vec![2, 1]);
        assert_eq!(sim.now(), SimTime::from_micros(5));
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
            let nodes = (0..6)
                .map(|id| RingRelay {
                    id,
                    n: 6,
                    hops_seen: 0,
                    remaining: if id == 0 { 4 } else { 0 },
                })
                .collect();
            let mut sim = Simulator::new(Topology::ring(6), config, nodes);
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
        let (nodes, stats, _trace) = sim.into_parts();
        assert_eq!(nodes.len(), 3);
        assert_eq!(stats.total_messages(), 3);
    }

    use crate::fault::{CrashWindow, FaultPlan};

    fn faulted_ring(n: usize, laps: u64, faults: FaultPlan) -> Simulator<RawPayload, RingRelay> {
        let config = SimConfig {
            faults,
            ..SimConfig::default()
        };
        let nodes = (0..n)
            .map(|id| RingRelay {
                id,
                n,
                hops_seen: 0,
                remaining: if id == 0 { laps } else { 0 },
            })
            .collect();
        Simulator::new(Topology::ring(n), config, nodes)
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
    fn scheduled_crash_window_loses_deliveries() {
        // Node 2 is down for the second lap's pass; the token it loses
        // breaks the ring (RingRelay has no recovery), so the run goes
        // quiescent early with the loss counted.
        let plan = FaultPlan {
            crashes: vec![CrashWindow {
                node: NodeId(2),
                at: SimTime::from_micros(15),
                restart_after: Some(SimDuration::from_micros(100)),
            }],
            ..FaultPlan::default()
        };
        let mut sim = faulted_ring(5, 3, plan);
        sim.run_until_quiescent();
        assert_eq!(sim.stats().total_crash_losses(), 1);
        // The token reached n1 at 10µs, then died at n2 (down at 20µs).
        assert_eq!(sim.node(NodeId(1)).hops_seen, 1);
        assert_eq!(sim.node(NodeId(2)).hops_seen, 0);
        assert_eq!(sim.node(NodeId(3)).hops_seen, 0);
    }

    #[test]
    fn manual_down_parks_nothing_by_default_and_counts_losses() {
        let mut sim = ring_sim(4, 0);
        sim.set_down(NodeId(1));
        assert!(sim.is_down(NodeId(1), SimTime::ZERO));
        sim.with_node(NodeId(0), |_n, ctx| {
            ctx.send(NodeId(1), RawPayload::new(8, 0));
        });
        sim.run_until_quiescent();
        // Default while_down policy loses protocol deliveries.
        assert_eq!(sim.node(NodeId(1)).hops_seen, 0);
        assert_eq!(sim.stats().total_crash_losses(), 1);
        assert_eq!(sim.parked_count(NodeId(1)), 0);
        sim.set_up(NodeId(1));
        assert!(!sim.is_down(NodeId(1), sim.now()));
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
        sim.set_down(NodeId(2));
        sim.with_node(NodeId(0), |_n, ctx| {
            ctx.send(NodeId(2), RawPayload::new(1, 0));
            ctx.send(NodeId(2), RawPayload::new(2, 0));
        });
        sim.run_until_quiescent();
        assert_eq!(sim.node(NodeId(2)).got, 0);
        assert_eq!(sim.parked_count(NodeId(2)), 2);
        sim.set_up(NodeId(2));
        assert_eq!(sim.parked_count(NodeId(2)), 0);
        sim.run_until_quiescent();
        assert_eq!(sim.node(NodeId(2)).got, 2);
    }

    #[test]
    fn parking_at_a_permanently_crashed_node_is_a_typed_fault() {
        let plan = FaultPlan {
            crashes: vec![CrashWindow {
                node: NodeId(1),
                at: SimTime::ZERO,
                restart_after: None,
            }],
            ..FaultPlan::default()
        };
        let config = SimConfig {
            faults: plan,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(
            Topology::full_mesh(2),
            config,
            vec![Parker::default(), Parker::default()],
        );
        sim.with_node(NodeId(0), |_n, ctx| {
            ctx.send(NodeId(1), RawPayload::new(1, 0));
        });
        let err = sim.try_run_until_quiescent().unwrap_err();
        assert_eq!(err, SendError::Fault(FaultError { node: NodeId(1) }));
        assert!(err.to_string().contains("no scheduled restart"));
    }

    #[test]
    fn scheduled_crash_with_restart_redelivers_parked_traffic() {
        let plan = FaultPlan {
            crashes: vec![CrashWindow {
                node: NodeId(1),
                at: SimTime::ZERO,
                restart_after: Some(SimDuration::from_micros(50)),
            }],
            ..FaultPlan::default()
        };
        let config = SimConfig {
            faults: plan,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(
            Topology::full_mesh(2),
            config,
            vec![Parker::default(), Parker::default()],
        );
        sim.with_node(NodeId(0), |_n, ctx| {
            ctx.send(NodeId(1), RawPayload::new(1, 0));
        });
        sim.run_until_quiescent();
        // Delivered at the restart boundary, not lost.
        assert_eq!(sim.node(NodeId(1)).got, 1);
        assert_eq!(sim.now(), SimTime::from_micros(50));
        assert_eq!(sim.stats().total_crash_losses(), 0);
    }
}
