//! The [`Node`] trait implemented by protocol state machines, and the
//! [`NodeContext`] handle through which a node sends messages and requests
//! timers during a callback.

use crate::fault::DownAction;
use crate::message::NodeId;
use crate::time::{SimDuration, SimTime};

/// One buffered outgoing transmission: a unicast to a single destination,
/// or one payload addressed to a whole destination set.
///
/// The distinction is *advisory*: a multi-destination entry is logically
/// identical to sending the payload to each destination in order, and the
/// raw [`Simulator`](crate::sim::Simulator) expands it exactly that way.
/// The transport layer, however, may exploit the grouping — under a
/// multicast [`DeliveryMode`](crate::transport::DeliveryMode) one envelope
/// carrying the destination set is deduplicated along the sender's
/// broadcast tree so the payload traverses each tree edge once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outgoing<P> {
    /// A unicast send to one destination.
    One(NodeId, P),
    /// One payload addressed to every node in the destination set.
    Many(Vec<NodeId>, P),
}

impl<P> Outgoing<P> {
    /// Number of logical deliveries this entry produces.
    pub(crate) fn fan_out(&self) -> usize {
        match self {
            Outgoing::One(..) => 1,
            Outgoing::Many(targets, _) => targets.len(),
        }
    }
}

/// Actions a node may take while handling an event.
///
/// A `NodeContext` is passed to every [`Node`] callback; sends and timer
/// requests are buffered and materialized by the simulator after the
/// callback returns, which keeps callbacks free of borrow conflicts with
/// the simulator state. Each runner (the simulator, a relay's hosted
/// node, a threaded site) keeps one context resident, lends it to every
/// callback by `&mut`, and empties it when it flushes.
#[derive(Debug)]
pub struct NodeContext<P> {
    /// Identity of the node being invoked.
    me: NodeId,
    /// Current virtual time.
    now: SimTime,
    /// Buffered outgoing transmissions, in the order they were requested.
    pub(crate) outbox: Vec<Outgoing<P>>,
    /// Buffered timer requests `(delay, tag)`.
    pub(crate) timers: Vec<(SimDuration, u64)>,
}

impl<P> NodeContext<P> {
    /// Create a context for node `me` at virtual time `now`.
    ///
    /// Exposed publicly so protocol crates can unit-test their node state
    /// machines without spinning up a full simulator; inside a simulation
    /// the simulator constructs and flushes contexts itself.
    pub fn new(me: NodeId, now: SimTime) -> Self {
        NodeContext {
            me,
            now,
            outbox: Vec::new(),
            timers: Vec::new(),
        }
    }

    /// Re-point this context at node `me` and virtual time `now` for the
    /// next callback. A runner keeps one resident context and its flush
    /// empties it, so every callback starts with no sends or timers and
    /// steady-state delivery allocates no buffers.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    #[inline]
    pub(crate) fn reset(&mut self, me: NodeId, now: SimTime) {
        self.me = me;
        self.now = now;
    }

    /// Whether the callback so far requested neither a send nor a timer.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    #[inline]
    pub(crate) fn is_idle(&self) -> bool {
        self.outbox.is_empty() && self.timers.is_empty()
    }

    /// The node this context belongs to.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Current virtual time.
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Send `payload` to `to` over the (reliable FIFO) channel.
    pub fn send(&mut self, to: NodeId, payload: P) {
        self.outbox.push(Outgoing::One(to, payload));
    }

    /// Send one `payload` to every node in `targets`.
    ///
    /// The targets are a *set*: duplicates are dropped (keeping the first
    /// occurrence's position), and each remaining destination receives the
    /// payload exactly once — so every wire strategy agrees on what is
    /// delivered. Beyond that this is logically identical to calling
    /// [`NodeContext::send`] once per target (in order); protocols must
    /// not depend on anything stronger. The transport may carry the group
    /// as a single deduplicated envelope per broadcast-tree edge when
    /// multicast delivery is enabled, which is why fan-outs of an
    /// identical payload should prefer this entry point over a send loop.
    pub fn send_multi(&mut self, targets: impl IntoIterator<Item = NodeId>, payload: P) {
        let mut targets: Vec<NodeId> = targets.into_iter().collect();
        // Drop duplicates in place, keeping first occurrences in order. A
        // target above every one kept so far cannot be a repeat, so an
        // ascending list (what the protocols send) costs one compare per
        // target; only out-of-order targets scan the kept prefix.
        let mut kept = 0;
        let mut highest = None;
        for i in 0..targets.len() {
            let t = targets[i];
            if highest.is_none_or(|h| t > h) {
                highest = Some(t);
            } else if targets[..kept].contains(&t) {
                continue;
            }
            targets[kept] = t;
            kept += 1;
        }
        targets.truncate(kept);
        match targets.len() {
            0 => {}
            1 => self.outbox.push(Outgoing::One(targets[0], payload)),
            _ => self.outbox.push(Outgoing::Many(targets, payload)),
        }
    }

    /// Request a timer callback after `delay`, identified by `tag`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.timers.push((delay, tag));
    }

    /// Number of logical messages queued in this callback so far (a
    /// multi-destination entry counts once per destination).
    pub fn queued_messages(&self) -> usize {
        self.outbox.iter().map(Outgoing::fan_out).sum()
    }

    /// The transmissions buffered so far, in request order (exposed so
    /// protocol unit tests can inspect what a callback sent without
    /// spinning up a simulator).
    pub fn outgoing(&self) -> &[Outgoing<P>] {
        &self.outbox
    }
}

/// A protocol state machine hosted on a simulated node.
///
/// `P` is the message payload type exchanged between nodes. A node acts
/// only when called: on a delivery, on a timer it set, or when a driver
/// runs a closure on it ([`Net::invoke`](crate::transport::Net::invoke)),
/// which is how application operations — and any traffic a run starts
/// with — enter the protocol.
pub trait Node<P> {
    /// Called when a message from `from` is delivered.
    fn on_message(&mut self, ctx: &mut NodeContext<P>, from: NodeId, payload: P);

    /// Called when a timer set via [`NodeContext::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut NodeContext<P>, _tag: u64) {}

    /// What the simulator should do with `payload` when it is delivered
    /// while this node is crashed. The default loses the message — a dead
    /// process cannot receive, and recovering the information is the
    /// protocol's catch-up obligation on restart. Relays override this to
    /// park transit traffic ([`DownAction::Park`]) so third-party
    /// envelopes survive the outage.
    fn while_down(&self, _payload: &P) -> DownAction {
        DownAction::Lose
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_buffers_sends_and_timers() {
        let mut ctx: NodeContext<u32> = NodeContext::new(NodeId(3), SimTime::from_micros(7));
        assert_eq!(ctx.me(), NodeId(3));
        assert_eq!(ctx.now(), SimTime::from_micros(7));
        ctx.send(NodeId(1), 10);
        ctx.send(NodeId(0), 99);
        ctx.send(NodeId(2), 99);
        ctx.set_timer(SimDuration::from_micros(5), 42);
        assert_eq!(ctx.queued_messages(), 3);
        assert_eq!(
            ctx.outbox,
            vec![
                Outgoing::One(NodeId(1), 10),
                Outgoing::One(NodeId(0), 99),
                Outgoing::One(NodeId(2), 99)
            ]
        );
        assert_eq!(ctx.timers, vec![(SimDuration::from_micros(5), 42)]);
    }

    #[test]
    fn send_multi_groups_destinations() {
        let mut ctx: NodeContext<u32> = NodeContext::new(NodeId(0), SimTime::ZERO);
        ctx.send_multi([NodeId(1), NodeId(2), NodeId(3)], 7);
        ctx.send_multi([], 8);
        ctx.send_multi([NodeId(4)], 9);
        assert_eq!(ctx.queued_messages(), 4);
        assert_eq!(
            ctx.outbox,
            vec![
                Outgoing::Many(vec![NodeId(1), NodeId(2), NodeId(3)], 7),
                Outgoing::One(NodeId(4), 9)
            ]
        );
        assert_eq!(ctx.outbox[0].fan_out(), 3);
        assert_eq!(ctx.outbox[1].fan_out(), 1);
    }

    #[test]
    fn send_multi_deduplicates_targets() {
        // The destination set is a set: every wire strategy must agree on
        // what is delivered, so duplicates are dropped at the source.
        let mut ctx: NodeContext<u32> = NodeContext::new(NodeId(0), SimTime::ZERO);
        ctx.send_multi([NodeId(2), NodeId(1), NodeId(2), NodeId(1)], 7);
        ctx.send_multi([NodeId(3), NodeId(3)], 8);
        assert_eq!(
            ctx.outbox,
            vec![
                Outgoing::Many(vec![NodeId(2), NodeId(1)], 7),
                Outgoing::One(NodeId(3), 8)
            ]
        );
        assert_eq!(ctx.queued_messages(), 3);
    }

    struct Echo {
        got: Vec<u32>,
    }

    impl Node<u32> for Echo {
        fn on_message(&mut self, ctx: &mut NodeContext<u32>, from: NodeId, payload: u32) {
            self.got.push(payload);
            ctx.send(from, payload + 1);
        }
    }

    #[test]
    fn node_trait_default_hooks_are_noops() {
        let mut e = Echo { got: vec![] };
        let mut ctx = NodeContext::new(NodeId(0), SimTime::ZERO);
        e.on_timer(&mut ctx, 0);
        assert!(ctx.outbox.is_empty());
        e.on_message(&mut ctx, NodeId(1), 5);
        assert_eq!(e.got, vec![5]);
        assert_eq!(ctx.outbox, vec![Outgoing::One(NodeId(1), 6)]);
    }
}
