//! Overlay routing: run any-to-any protocols on sparse topologies.
//!
//! The MCS protocols of the paper assume a logical full mesh — any process
//! may message any other. On a sparse [`Topology`] a direct send between
//! non-neighbours would fail with a [`SendError`](crate::sim::SendError);
//! this module is the one layer that converts that failure into a *routing
//! decision* instead:
//!
//! * [`Router`] — per-source BFS shortest-path trees over the topology,
//!   exposing next-hop lookup ([`Router::next_hop`]) and the per-source
//!   broadcast trees that multicast envelopes follow.
//! * [`Routed`] — the relay envelope: the protocol payload plus its logical
//!   source and destination, so intermediate nodes can forward it hop by
//!   hop. Its [`WireSize`] delegates to the payload, so a one-hop routed
//!   send accounts exactly the same bytes as a direct send (the routed
//!   full-mesh configuration reproduces direct-send statistics exactly);
//!   multi-hop paths pay the payload again on every hop, which is precisely
//!   the relaying cost the statistics should show.
//! * [`Relay`] — a [`Node`] wrapper hosting a protocol state machine on a
//!   routed network: outgoing messages are addressed to the BFS next hop,
//!   transit envelopes are forwarded without touching the inner protocol,
//!   and envelopes that arrive at their destination are delivered to the
//!   inner node as if they had come straight from the logical source.
//!
//! * [`Multicast`] — the wire-efficient fan-out envelope: **one** payload
//!   plus a destination set. It is deduplicated along the logical source's
//!   broadcast tree: each relay delivers locally if it is a destination,
//!   splits the remaining set among the subtrees that contain them, and
//!   forwards one copy per subtree — so the payload traverses each tree
//!   edge at most once, instead of once per destination as a unicast
//!   fan-out would. The destinations travel as one shared list in the
//!   Euler-tour order of the source's tree, so every subtree's share is a
//!   contiguous range of it and a split allocates nothing.
//! * [`Packet`] — what actually travels a routed network: a unicast
//!   [`Routed`] envelope or a [`Multicast`] one.
//!
//! Every hop is a real channel send, so per-hop latency and per-hop
//! [`NetworkStats`](crate::stats::NetworkStats) accounting come from the
//! simulator unchanged; a [`Multicast`] envelope's bytes are accounted
//! once per tree edge it crosses, which is exactly the wire saving the
//! efficiency tables measure.

use crate::fault::DownAction;
use crate::message::{NodeId, WireSize};
use crate::network::Topology;
use crate::node::{Node, NodeContext, Outgoing};
use crate::time::SimTime;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Why a [`Router`] could not be built for a topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteError {
    /// No directed path exists from `from` to `to`.
    Disconnected {
        /// The source node.
        from: NodeId,
        /// The unreachable destination.
        to: NodeId,
    },
    /// Direct sends were asked of the threaded backend on a topology
    /// sparser than a full mesh: its inbox fabric links every pair, so it
    /// could not refuse a send over a missing link.
    DirectOnSparseThreads,
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::Disconnected { from, to } => {
                write!(f, "topology has no path from {from} to {to}; routing needs a strongly connected topology")
            }
            RouteError::DirectOnSparseThreads => f.write_str(
                "direct sends on the threaded backend need a full mesh; \
                 route a sparse topology instead",
            ),
        }
    }
}

impl std::error::Error for RouteError {}

/// Shortest-path routing tables for a topology: one BFS tree per source.
///
/// Construction is `O(n · (n + links))`; lookups are array reads. BFS
/// visits neighbours in node-id order, so the tables (and therefore every
/// routed simulation) are deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Router {
    n: usize,
    /// `next_hop[src * n + dst]`: first hop on the shortest path src → dst.
    /// `next_hop[src * n + src] = src`.
    next_hop: Vec<NodeId>,
    /// `span[src * n + v]`: the half-open range of Euler-tour (preorder,
    /// children in id order) positions that `v`'s subtree occupies in
    /// `src`'s broadcast tree; its start is `v`'s own position.
    span: Vec<(u32, u32)>,
    /// Broadcast-tree children in compressed rows: the children of `v` in
    /// `src`'s tree, in id order, are `children[src * (n - 1)..]` between
    /// the offsets `child_from[src * (n + 1) + v]` and `[.. + v + 1]`.
    child_from: Vec<u32>,
    children: Vec<NodeId>,
}

impl Router {
    /// Build routing tables for `topology`. Fails with
    /// [`RouteError::Disconnected`] unless every node can reach every other
    /// along directed links.
    pub fn new(topology: &Topology) -> Result<Router, RouteError> {
        let n = topology.node_count();
        let mut next_hop = vec![NodeId(0); n * n];
        let mut parent = vec![None; n * n];
        let mut span = vec![(0u32, 0u32); n * n];
        let mut child_from = vec![0u32; n * (n + 1)];
        let mut children = vec![NodeId(0); n * n.saturating_sub(1)];
        let neighbours: Vec<Vec<NodeId>> = (0..n).map(|i| topology.neighbours(NodeId(i))).collect();
        let mut queue = Vec::with_capacity(n);
        let mut cursor = vec![0u32; n];
        let mut size = vec![0u32; n];
        let mut stack = Vec::with_capacity(n);
        for src in 0..n {
            let base = src * n;
            let mut seen = vec![false; n];
            seen[src] = true;
            next_hop[base + src] = NodeId(src);
            queue.clear();
            queue.push(NodeId(src));
            let mut head = 0;
            while head < queue.len() {
                let u = queue[head];
                head += 1;
                for &v in &neighbours[u.index()] {
                    if !seen[v.index()] {
                        seen[v.index()] = true;
                        parent[base + v.index()] = Some(u);
                        // First hop: u's own first hop, unless u is the
                        // source (then v itself is the first hop).
                        next_hop[base + v.index()] = if u.index() == src {
                            v
                        } else {
                            next_hop[base + u.index()]
                        };
                        queue.push(v);
                    }
                }
            }
            if let Some(unreached) = (0..n).find(|&i| !seen[i]) {
                return Err(RouteError::Disconnected {
                    from: NodeId(src),
                    to: NodeId(unreached),
                });
            }
            // Children rows: count, prefix-sum, then fill in id order so
            // every row comes out sorted.
            let offsets = &mut child_from[src * (n + 1)..(src + 1) * (n + 1)];
            for p in parent[base..base + n].iter().flatten() {
                offsets[p.index() + 1] += 1;
            }
            for v in 0..n {
                offsets[v + 1] += offsets[v];
            }
            cursor.copy_from_slice(&offsets[..n]);
            let row = &mut children[src * (n - 1)..(src + 1) * (n - 1)];
            for v in 0..n {
                if let Some(p) = parent[base + v] {
                    row[cursor[p.index()] as usize] = NodeId(v);
                    cursor[p.index()] += 1;
                }
            }
            // Euler tour: preorder positions, children visited in id
            // order. `queue` (the BFS order) lists parents before
            // children, so one reverse pass sums subtree sizes.
            stack.clear();
            stack.push(NodeId(src));
            let mut position = 0u32;
            while let Some(u) = stack.pop() {
                span[base + u.index()].0 = position;
                position += 1;
                let kids = offsets[u.index()] as usize..offsets[u.index() + 1] as usize;
                stack.extend(row[kids].iter().rev());
            }
            size.fill(1);
            for &u in queue.iter().rev() {
                span[base + u.index()].1 = span[base + u.index()].0 + size[u.index()];
                if let Some(p) = parent[base + u.index()] {
                    size[p.index()] += size[u.index()];
                }
            }
        }
        Ok(Router {
            n,
            next_hop,
            span,
            child_from,
            children,
        })
    }

    /// Number of nodes routed over.
    pub(crate) fn node_count(&self) -> usize {
        self.n
    }

    /// First hop on the shortest path from `from` to `to` (`from` itself
    /// when `from == to`).
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "dense n*n table sized at construction from the topology; the relay asks only for ids it has checked against node_count() (Relay::with_inner hands a destination the router does not cover to the simulator addressed to itself, which refuses it as the direct transport does, and on_message drops a transit envelope bound for one as misrouted), and .get() here would hide real router-construction bugs behind a silent None"
    )]
    pub(crate) fn next_hop(&self, from: NodeId, to: NodeId) -> NodeId {
        self.next_hop[from.index() * self.n + to.index()]
    }

    /// The row of `node`'s children in `src`'s broadcast tree (empty for
    /// ids the router does not cover).
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn children_of(&self, src: NodeId, node: NodeId) -> &[NodeId] {
        if src.index() >= self.n || node.index() >= self.n {
            return &[];
        }
        let offsets = src.index() * (self.n + 1) + node.index();
        let row = src.index() * (self.n - 1);
        match (
            self.child_from.get(offsets),
            self.child_from.get(offsets + 1),
        ) {
            (Some(&from), Some(&to)) => self
                .children
                .get(row + from as usize..row + to as usize)
                .unwrap_or_default(),
            _ => &[],
        }
    }

    /// The Euler-tour positions `node`'s subtree occupies in `src`'s
    /// broadcast tree (`None` for ids the router does not cover).
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn subtree_span(&self, src: NodeId, node: NodeId) -> Option<(u32, u32)> {
        if node.index() >= self.n {
            return None;
        }
        self.span.get(src.index() * self.n + node.index()).copied()
    }

    /// Sort multicast destinations into the Euler-tour order of `src`'s
    /// broadcast tree — the order [`Multicast`] carries them in, which
    /// makes every subtree's share of the list one contiguous range. Each
    /// destination's position is looked up once, into `keys`: scratch the
    /// caller keeps, so a sort allocates nothing once it has grown. Ids the
    /// router does not cover sort last.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn sort_for_multicast(&self, src: NodeId, dsts: &mut [NodeId], keys: &mut Vec<(u32, NodeId)>) {
        keys.clear();
        keys.extend(
            (dsts.iter()).map(|&d| (self.subtree_span(src, d).map_or(u32::MAX, |s| s.0), d)),
        );
        keys.sort_unstable();
        for (d, &(_, sorted)) in dsts.iter_mut().zip(keys.iter()) {
            *d = sorted;
        }
    }

    /// Split the multicast destinations `dsts` (a run of a list in the
    /// Euler-tour order of `src`'s broadcast tree) at node `at` of that
    /// tree: `forward(child, range)` is called once per child of `at`
    /// whose subtree holds destinations, in child id order, with the
    /// range of `dsts` inside that subtree. Returns whether `at` itself
    /// is a destination, and how many destinations lie outside `at`'s
    /// subtree — strays that no child can serve, dropped rather than
    /// forwarded.
    ///
    /// This is the tree-splitting rule shared by the source (where `at`
    /// is `src`, and the child is the [`Router::next_hop`] the unicast
    /// route would take) and by every transit relay, so the stages can
    /// never disagree on how a destination set splits.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    pub(crate) fn split(
        &self,
        src: NodeId,
        at: NodeId,
        dsts: &[NodeId],
        mut forward: impl FnMut(NodeId, Range<usize>),
    ) -> (bool, u64) {
        let kids = self.children_of(src, at);
        let (mut here, mut strays) = (false, 0);
        let mut i = 0;
        while let Some(&d) = dsts.get(i) {
            i += 1;
            if d == at {
                here = true;
                continue;
            }
            // The child whose subtree holds `d`: the last one entered at
            // or before `d`'s position, if `d` is also before its end.
            let found = self.subtree_span(src, d).and_then(|(d_at, _)| {
                let after = kids.partition_point(|&c| {
                    self.subtree_span(src, c)
                        .is_some_and(|(c_at, _)| c_at <= d_at)
                });
                let child = *kids.get(after.checked_sub(1)?)?;
                let (from, to) = self.subtree_span(src, child)?;
                (d_at < to).then_some((child, from..to))
            });
            let Some((child, subtree)) = found else {
                strays += 1;
                continue;
            };
            let run = dsts
                .get(i..)
                .unwrap_or_default()
                .iter()
                .take_while(|&&t| {
                    self.subtree_span(src, t)
                        .is_some_and(|(t_at, _)| subtree.contains(&t_at))
                })
                .count();
            forward(child, i - 1..i + run);
            i += run;
        }
        (here, strays)
    }
}

/// The relay envelope: a protocol payload in transit from `src` to `dst`,
/// possibly through intermediate nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Routed<P> {
    /// The logical sender (the protocol node that issued the send).
    pub src: NodeId,
    /// The logical destination (where the payload will be delivered).
    pub dst: NodeId,
    /// The protocol payload.
    pub payload: P,
}

impl<P: WireSize> WireSize for Routed<P> {
    fn data_bytes(&self) -> usize {
        self.payload.data_bytes()
    }
    fn control_bytes(&self) -> usize {
        // The relay header (src, dst) rides for free: the simulator's
        // accounting is the protocol's own notion of what it would send,
        // and a direct send already implies addressing. Keeping the
        // envelope free makes the routed full mesh byte-identical to
        // direct sends; multi-hop cost shows up as the payload being
        // charged once per hop.
        self.payload.control_bytes()
    }
}

/// The multicast envelope: **one** payload in transit from `src` to a set
/// of destinations, deduplicated along `src`'s broadcast tree.
///
/// Where a unicast fan-out pays the payload once per destination per hop,
/// a multicast envelope pays it once per broadcast-tree edge: a relay
/// splits the destination set among the subtrees containing them and
/// forwards one copy per subtree. Destination sets shrink monotonically
/// toward the leaves, and every destination receives the payload exactly
/// once.
///
/// All copies of one fan-out share a single destination list, in the
/// Euler-tour order of `src`'s broadcast tree; a copy serves a contiguous
/// range of it, so forking a copy clones a handle and narrows the range.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Multicast<P> {
    /// The logical sender (whose broadcast tree the envelope follows).
    pub src: NodeId,
    /// Every destination of the fan-out, in the Euler-tour order of
    /// `src`'s broadcast tree.
    all: Arc<[NodeId]>,
    /// The part of `all` this copy still serves.
    serves: Range<u32>,
    /// The protocol payload (one copy, shared by all destinations).
    pub payload: P,
}

impl<P> Multicast<P> {
    /// The copy of a fan-out to `all` that serves `all[range]`.
    fn part(src: NodeId, all: &Arc<[NodeId]>, range: Range<usize>, payload: P) -> Self {
        Multicast {
            src,
            all: Arc::clone(all),
            serves: range.start as u32..range.end as u32,
            payload,
        }
    }

    /// The destinations still to be served by this copy.
    pub(crate) fn dsts(&self) -> &[NodeId] {
        self.all
            .get(self.serves.start as usize..self.serves.end as usize)
            .unwrap_or_default()
    }

    /// A copy of this envelope carrying `payload` to the destinations at
    /// `range` of [`Multicast::dsts`].
    fn fork(&self, range: Range<usize>, payload: P) -> Self {
        let start = self.serves.start as usize;
        Self::part(
            self.src,
            &self.all,
            start + range.start..start + range.end,
            payload,
        )
    }
}

impl<P: WireSize> WireSize for Multicast<P> {
    fn data_bytes(&self) -> usize {
        self.payload.data_bytes()
    }
    fn control_bytes(&self) -> usize {
        // Like the `Routed` header, the destination set rides for free —
        // addressing is implied by a send in the protocol's own
        // accounting. The payload is charged once per tree edge the
        // envelope crosses (each forward is a real channel send), which
        // is precisely the deduplicated wire cost.
        self.payload.control_bytes()
    }
}

/// What travels the wire of a routed network: a unicast relay envelope or
/// a tree-deduplicated multicast one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Packet<P> {
    /// A point-to-point envelope relayed hop by hop.
    One(Routed<P>),
    /// A shared-payload envelope forwarded along the source's broadcast
    /// tree.
    Many(Multicast<P>),
}

impl<P: WireSize> WireSize for Packet<P> {
    fn data_bytes(&self) -> usize {
        match self {
            Packet::One(env) => env.data_bytes(),
            Packet::Many(env) => env.data_bytes(),
        }
    }
    fn control_bytes(&self) -> usize {
        match self {
            Packet::One(env) => env.control_bytes(),
            Packet::Many(env) => env.control_bytes(),
        }
    }
}

/// A protocol node hosted on a routed (possibly sparse) network.
///
/// Wraps an inner [`Node`] so that its any-to-any sends become multi-hop
/// relays: where the raw simulator would reject a send with a
/// [`SendError`](crate::sim::SendError), the relay instead forwards the
/// envelope to [`Router::next_hop`].
#[derive(Debug)]
pub(crate) struct Relay<P, N> {
    inner: N,
    me: NodeId,
    router: Arc<Router>,
    /// Whether multi-destination sends travel as tree-deduplicated
    /// [`Multicast`] envelopes (`true`) or per-destination unicast
    /// [`Routed`] envelopes (`false`).
    multicast: bool,
    forwarded: u64,
    misrouted: u64,
    /// The inner node's resident context, empty between callbacks, so a
    /// delivery that sends allocates no outbox.
    ctx: NodeContext<P>,
    /// Scratch for sorting a multicast's destinations, kept likewise.
    keys: Vec<(u32, NodeId)>,
}

/// A clone starts with empty scratch of its own: between callbacks the
/// resident context and the sort keys hold nothing.
impl<P, N: Clone> Clone for Relay<P, N> {
    fn clone(&self) -> Self {
        Relay {
            inner: self.inner.clone(),
            me: self.me,
            router: Arc::clone(&self.router),
            multicast: self.multicast,
            forwarded: self.forwarded,
            misrouted: self.misrouted,
            ctx: NodeContext::new(self.me, SimTime::ZERO),
            keys: Vec::new(),
        }
    }
}

impl<P, N> Relay<P, N> {
    /// Host `inner` as node `me` on the routed network described by
    /// `router`. When `multicast` is set, multi-destination sends are
    /// deduplicated along `me`'s broadcast tree; otherwise they fan out
    /// as independent unicast envelopes (the classical behaviour).
    pub(crate) fn new(inner: N, me: NodeId, router: Arc<Router>, multicast: bool) -> Self {
        Relay {
            inner,
            me,
            router,
            multicast,
            forwarded: 0,
            misrouted: 0,
            ctx: NodeContext::new(me, SimTime::ZERO),
            keys: Vec::new(),
        }
    }

    /// The wrapped protocol node.
    pub(crate) fn inner(&self) -> &N {
        &self.inner
    }

    /// Mutable access to the wrapped protocol node.
    pub(crate) fn inner_mut(&mut self) -> &mut N {
        &mut self.inner
    }

    /// Number of transit envelopes this node forwarded for other pairs.
    pub(crate) fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Number of destinations dropped because this node has no route to
    /// them: a multicast destination off the envelope's broadcast-tree
    /// path, or a transit envelope bound for an id the router does not
    /// cover. Always zero when envelopes follow the routes their source
    /// chose; a nonzero count means an envelope was corrupted or
    /// injected out-of-band, and the delivery path drops the stray
    /// destination (counting it here) instead of tearing the whole
    /// simulation down.
    pub(crate) fn misrouted(&self) -> u64 {
        self.misrouted
    }

    /// Consume the relay, returning the wrapped node.
    pub(crate) fn into_inner(self) -> N {
        self.inner
    }
}

#[deny(
    clippy::disallowed_macros,
    clippy::disallowed_methods,
    clippy::indexing_slicing
)]
impl<P: Clone, N> Relay<P, N> {
    /// Run `f` against the hosted protocol node with a context of its
    /// own, then re-address what it sent onto `outer`: unicast sends are
    /// wrapped in [`Routed`] envelopes addressed to their first hop;
    /// multi-destination sends become one [`Multicast`] envelope per
    /// broadcast-tree child when multicast is enabled (and degrade to
    /// the unicast fan-out otherwise); timers pass through unchanged.
    ///
    /// A destination with no route — the sender itself, or an id the
    /// router does not cover — is no link either: it goes to `outer`
    /// addressed to itself, so the simulator refuses it with the error
    /// the direct transport returns.
    pub(crate) fn with_inner<R>(
        &mut self,
        outer: &mut NodeContext<Packet<P>>,
        f: impl FnOnce(&mut N, &mut NodeContext<P>) -> R,
    ) -> R {
        self.ctx.reset(self.me, outer.now());
        let result = f(&mut self.inner, &mut self.ctx);
        if self.ctx.is_idle() {
            return result;
        }
        let (me, router) = (self.me, &*self.router);
        let covered = |to: NodeId| to.index() < router.node_count();
        let unicast = |outer: &mut NodeContext<Packet<P>>, to: NodeId, payload: P| {
            let hop = if covered(to) {
                router.next_hop(me, to)
            } else {
                to
            };
            outer.send(
                hop,
                Packet::One(Routed {
                    src: me,
                    dst: to,
                    payload,
                }),
            );
        };
        for out in self.ctx.outbox.drain(..) {
            match out {
                Outgoing::One(to, payload) => unicast(outer, to, payload),
                Outgoing::Many(targets, payload) if !self.multicast => {
                    for to in targets {
                        unicast(outer, to, payload.clone());
                    }
                }
                Outgoing::Many(mut targets, payload) => {
                    // One envelope per broadcast-tree child of the source,
                    // carrying the targets inside that subtree.
                    // The ids the router does not cover sort last.
                    router.sort_for_multicast(me, &mut targets, &mut self.keys);
                    let routable = targets.partition_point(|&to| covered(to));
                    let all: Arc<[NodeId]> = targets.into();
                    let (tree, unroutable) = all.split_at_checked(routable).unwrap_or_default();
                    let (to_self, _) = router.split(me, me, tree, |child, range| {
                        let copy = Multicast::part(me, &all, range, payload.clone());
                        outer.send(child, Packet::Many(copy));
                    });
                    let refused = to_self.then_some(me).into_iter();
                    for to in refused.chain(unroutable.iter().copied()) {
                        unicast(outer, to, payload.clone());
                    }
                }
            }
        }
        for (delay, tag) in self.ctx.timers.drain(..) {
            outer.set_timer(delay, tag);
        }
        result
    }
}

#[deny(
    clippy::disallowed_macros,
    clippy::disallowed_methods,
    clippy::indexing_slicing
)]
impl<P, N> Node<Packet<P>> for Relay<P, N>
where
    P: WireSize + fmt::Debug + Clone,
    N: Node<P>,
{
    fn on_message(&mut self, ctx: &mut NodeContext<Packet<P>>, _from: NodeId, packet: Packet<P>) {
        match packet {
            Packet::One(env) => {
                if env.dst == self.me {
                    self.with_inner(ctx, |inner, inner_ctx| {
                        inner.on_message(inner_ctx, env.src, env.payload);
                    });
                } else if env.dst.index() < self.router.node_count() {
                    // Transit traffic: forward along the shortest path
                    // without waking the protocol node.
                    self.forwarded += 1;
                    ctx.send(self.router.next_hop(self.me, env.dst), Packet::One(env));
                } else {
                    // No route exists (the source refuses such a send, so
                    // the envelope was corrupted or injected): dropped
                    // and counted, like a multicast's stray destination.
                    self.misrouted += 1;
                }
            }
            Packet::Many(env) => {
                // Split the remaining destinations among the children of
                // this node in `src`'s broadcast tree; one copy per child
                // keeps the payload on each tree edge at most once. A
                // destination this node cannot reach inside that tree
                // means the envelope strayed off its splitting path; it
                // is dropped and counted rather than panicking
                // mid-delivery.
                let mut forwards = 0;
                let (deliver_here, strays) =
                    self.router
                        .split(env.src, self.me, env.dsts(), |child, range| {
                            forwards += 1;
                            ctx.send(child, Packet::Many(env.fork(range, env.payload.clone())));
                        });
                self.forwarded += forwards;
                self.misrouted += strays;
                if deliver_here {
                    self.with_inner(ctx, |inner, inner_ctx| {
                        inner.on_message(inner_ctx, env.src, env.payload);
                    });
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeContext<Packet<P>>, tag: u64) {
        self.with_inner(ctx, |inner, inner_ctx| inner.on_timer(inner_ctx, tag));
    }

    /// While this relay's host is crashed, envelopes addressed to the
    /// host itself are lost (the protocol process is dead; its catch-up
    /// handshake recovers the information on restart) — but **transit**
    /// traffic belongs to other node pairs and is parked for redelivery
    /// at restart instead. A multicast envelope that serves any other
    /// destination is transit too (its local copy then arrives late, and
    /// the protocols' idempotence guards absorb the overlap with
    /// catch-up).
    fn while_down(&self, packet: &Packet<P>) -> DownAction {
        match packet {
            Packet::One(env) if env.dst == self.me => DownAction::Lose,
            Packet::One(_) => DownAction::Park,
            Packet::Many(m) if m.dsts().iter().all(|&d| d == self.me) => DownAction::Lose,
            Packet::Many(_) => DownAction::Park,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::RawPayload;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Parent of `node` in `src`'s broadcast tree (`None` for `src`).
    fn tree_parent(r: &Router, src: NodeId, node: NodeId) -> Option<NodeId> {
        (0..r.n)
            .map(NodeId)
            .find(|&u| r.children_of(src, u).contains(&node))
    }

    /// The next node after `at` on `src`'s broadcast-tree path to `dst`
    /// (`None` when `at` is not a proper ancestor of `dst` in `src`'s
    /// tree): the reference model of the multicast split. At the root this
    /// agrees with [`Router::next_hop`], since the next-hop tables are
    /// derived from the same BFS trees.
    fn tree_next_hop(r: &Router, src: NodeId, at: NodeId, dst: NodeId) -> Option<NodeId> {
        let mut cur = dst;
        loop {
            match tree_parent(r, src, cur) {
                Some(p) if p == at => return Some(cur),
                Some(p) => cur = p,
                None => return None,
            }
        }
    }

    /// The full shortest path `from → … → to` (excluding `from`, including
    /// `to`; empty when `from == to`).
    fn path(r: &Router, from: NodeId, to: NodeId) -> Vec<NodeId> {
        let mut rev = Vec::new();
        let mut cur = to;
        while cur != from {
            rev.push(cur);
            match tree_parent(r, from, cur) {
                Some(p) => cur = p,
                None => break,
            }
        }
        rev.reverse();
        rev
    }

    /// Length in links of the shortest path from `from` to `to`.
    fn hops(r: &Router, from: NodeId, to: NodeId) -> usize {
        path(r, from, to).len()
    }

    /// An envelope carrying `payload` from `src` to every node of `dsts`,
    /// put into the order `router` splits them in.
    fn multicast<P>(
        router: &Router,
        src: NodeId,
        mut dsts: Vec<NodeId>,
        payload: P,
    ) -> Multicast<P> {
        router.sort_for_multicast(src, &mut dsts, &mut Vec::new());
        let all = dsts.into();
        Multicast::part(src, &all, 0..all.len(), payload)
    }

    /// The reference model of the multicast split: the map-based rule the
    /// range partition replaced. Destinations are grouped by their next
    /// hop (input order kept within a group), one envelope is emitted per
    /// group in hop id order, and a destination with no hop is dropped
    /// and tallied.
    fn group_by_hop(
        targets: impl IntoIterator<Item = NodeId>,
        mut hop: impl FnMut(NodeId) -> Option<NodeId>,
    ) -> (BTreeMap<NodeId, Vec<NodeId>>, u64) {
        let mut groups: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        let mut lost = 0u64;
        for t in targets {
            match hop(t) {
                Some(h) => groups.entry(h).or_default().push(t),
                None => lost += 1,
            }
        }
        (groups, lost)
    }

    /// What one relay emits for one envelope, under either rule: the
    /// forwards in emission order, whether it delivers locally, and the
    /// destinations it drops.
    type Emission = (Vec<(NodeId, Vec<NodeId>)>, bool, u64);

    fn model_emission(r: &Router, src: NodeId, at: NodeId, dsts: &[NodeId]) -> Emission {
        let here = dsts.contains(&at);
        let (groups, lost) = group_by_hop(dsts.iter().copied().filter(|&d| d != at), |d| {
            if at == src {
                Some(r.next_hop(src, d))
            } else {
                tree_next_hop(r, src, at, d)
            }
        });
        (groups.into_iter().collect(), here, lost)
    }

    fn split_emission(r: &Router, src: NodeId, at: NodeId, dsts: &[NodeId]) -> Emission {
        let mut forwards = Vec::new();
        let (here, strays) = r.split(src, at, dsts, |child, range| {
            forwards.push((child, dsts[range].to_vec()));
        });
        (forwards, here, strays)
    }

    /// A strongly connected topology: a ring backbone plus `chords`.
    fn ring_with_chords(n: usize, chords: &[(usize, usize)]) -> Topology {
        let mut links = Vec::new();
        for i in 0..n {
            links.push((i, (i + 1) % n));
            links.push(((i + 1) % n, i));
        }
        for &(a, b) in chords {
            let (a, b) = (a % n, b % n);
            if a != b {
                links.push((a, b));
                links.push((b, a));
            }
        }
        Topology::explicit(n, links)
    }

    fn sorted(mut set: Vec<NodeId>) -> Vec<NodeId> {
        set.sort_unstable();
        set
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Follow one multicast from its source to every leaf, splitting
        /// at each relay with the range partition and with the old
        /// map-based rule: every relay must forward to the same children
        /// in the same order with the same destination sets, deliver
        /// locally in the same cases, and drop nothing.
        #[test]
        fn range_split_matches_the_map_based_split(
            n in 2usize..14,
            chords in proptest::collection::vec((0usize..14, 0usize..14), 0..10),
            src in 0usize..14,
            picks in proptest::collection::vec(0usize..14, 1..14),
        ) {
            let r = Router::new(&ring_with_chords(n, &chords)).unwrap();
            let src = NodeId(src % n);
            let mut dsts: Vec<NodeId> = picks.iter().map(|p| NodeId(p % n)).collect();
            dsts.sort_unstable();
            dsts.dedup();
            dsts.retain(|&d| d != src);
            r.sort_for_multicast(src, &mut dsts, &mut Vec::new());
            let mut reached = Vec::new();
            let mut frontier = vec![(src, dsts.clone())];
            while let Some((at, set)) = frontier.pop() {
                let (forwards, here, strays) = split_emission(&r, src, at, &set);
                let (model_forwards, model_here, model_lost) = model_emission(&r, src, at, &set);
                prop_assert_eq!(here, model_here);
                prop_assert_eq!((strays, model_lost), (0, 0));
                prop_assert_eq!(forwards.len(), model_forwards.len());
                for ((child, share), (model_child, model_share)) in
                    forwards.iter().zip(&model_forwards)
                {
                    prop_assert_eq!(child, model_child);
                    prop_assert_eq!(sorted(share.clone()), sorted(model_share.clone()));
                }
                if here {
                    reached.push(at);
                }
                frontier.extend(forwards);
            }
            prop_assert_eq!(sorted(reached), sorted(dsts));
        }

        /// Hand a relay an envelope it should never have received — any
        /// destination list, sorted or not, at any node: the split must
        /// not panic, must drop exactly the destinations the parent-chain
        /// walk cannot reach from here, and must forward every other one
        /// exactly once, to the child the walk names.
        #[test]
        fn stray_destinations_are_counted_never_fatal(
            n in 2usize..12,
            chords in proptest::collection::vec((0usize..12, 0usize..12), 0..8),
            src in 0usize..12,
            at in 0usize..12,
            picks in proptest::collection::vec(0usize..16, 0..12),
            sort in 0usize..2,
        ) {
            let r = Router::new(&ring_with_chords(n, &chords)).unwrap();
            let (src, at) = (NodeId(src % n), NodeId(at % n));
            // Ids up to 15 on at most 11 nodes: some name no node at all.
            let mut dsts: Vec<NodeId> = picks.iter().map(|&p| NodeId(p)).collect();
            dsts.sort_unstable();
            dsts.dedup();
            if sort == 1 {
                r.sort_for_multicast(src, &mut dsts, &mut Vec::new());
            }
            let (forwards, here, strays) = split_emission(&r, src, at, &dsts);
            prop_assert_eq!(here, dsts.contains(&at));
            let hop = |d: NodeId| {
                (d.index() < n).then(|| tree_next_hop(&r, src, at, d)).flatten()
            };
            let unreachable = dsts.iter().filter(|&&d| d != at && hop(d).is_none()).count();
            prop_assert_eq!(strays, unreachable as u64);
            let mut forwarded = Vec::new();
            for (child, share) in forwards {
                for d in share {
                    prop_assert_eq!(hop(d), Some(child));
                    forwarded.push(d);
                }
            }
            let expected: Vec<NodeId> =
                dsts.iter().copied().filter(|&d| hop(d).is_some()).collect();
            prop_assert_eq!(sorted(forwarded), sorted(expected));
        }

        /// Keying each destination's Euler position once orders a
        /// multicast exactly as sorting by `subtree_span` inside every
        /// comparison did: the same list for the ids the router covers,
        /// and the ids it does not (only a corrupted envelope has them)
        /// last, where a relay drops and counts each one.
        #[test]
        fn keyed_multicast_order_matches_the_span_sort(
            n in 2usize..14,
            chords in proptest::collection::vec((0usize..14, 0usize..14), 0..10),
            src in 0usize..14,
            picks in proptest::collection::vec(0usize..18, 0..18),
        ) {
            let router = Arc::new(Router::new(&ring_with_chords(n, &chords)).unwrap());
            let src = NodeId(src % n);
            // A set in arbitrary order, as `send_multi` hands it over.
            let mut dsts: Vec<NodeId> = Vec::new();
            for d in picks.into_iter().map(NodeId) {
                if !dsts.contains(&d) {
                    dsts.push(d);
                }
            }
            let mut by_span = dsts.clone();
            by_span.sort_unstable_by_key(|&d| router.subtree_span(src, d).map_or(u32::MAX, |s| s.0));
            let mut keyed = dsts.clone();
            router.sort_for_multicast(src, &mut keyed, &mut Vec::new());
            let covered = dsts.iter().filter(|d| d.index() < n).count();
            prop_assert_eq!(&keyed[..covered], &by_span[..covered]);
            prop_assert!(keyed[covered..].iter().all(|d| d.index() >= n));
            prop_assert_eq!(sorted(keyed[covered..].to_vec()), sorted(by_span[covered..].to_vec()));
            // Handed to a relay at the source, every covered destination
            // is served and every other one counted.
            let mut relay = Relay::new(Sink::default(), src, Arc::clone(&router), true);
            let mut ctx = NodeContext::new(src, SimTime::ZERO);
            let env = multicast(&router, src, dsts.clone(), RawPayload::new(8, 4));
            prop_assert_eq!(env.dsts(), &keyed[..]);
            relay.on_message(&mut ctx, src, Packet::Many(env));
            prop_assert_eq!(relay.misrouted(), (dsts.len() - covered) as u64);
            prop_assert_eq!(relay.inner().received.len(), usize::from(dsts.contains(&src)));
        }
    }

    #[test]
    fn euler_order_keeps_every_subtree_contiguous() {
        for topo in [
            Topology::ring(7),
            Topology::grid(3, 4),
            Topology::star(6),
            Topology::line(5),
            Topology::full_mesh(5),
        ] {
            let n = topo.node_count();
            let r = Router::new(&topo).unwrap();
            for src in (0..n).map(NodeId) {
                let mut all: Vec<NodeId> = (0..n).map(NodeId).collect();
                r.sort_for_multicast(src, &mut all, &mut Vec::new());
                assert_eq!(all[0], src, "the root opens its own tour");
                for v in (0..n).map(NodeId) {
                    // v's subtree: everything whose tree path passes v.
                    let inside = |d: NodeId| d == v || tree_next_hop(&r, src, v, d).is_some();
                    let first = all.iter().position(|&d| inside(d)).unwrap();
                    let count = all.iter().filter(|&&d| inside(d)).count();
                    assert_eq!(all[first], v, "a subtree's run starts at its root");
                    assert!(all[first..first + count].iter().all(|&d| inside(d)));
                }
            }
        }
    }

    #[test]
    fn full_mesh_routes_are_all_direct() {
        let r = Router::new(&Topology::full_mesh(5)).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                if i != j {
                    assert_eq!(r.next_hop(NodeId(i), NodeId(j)), NodeId(j));
                    assert_eq!(hops(&r, NodeId(i), NodeId(j)), 1);
                }
            }
        }
        assert_eq!(hops(&r, NodeId(2), NodeId(2)), 0);
    }

    #[test]
    fn ring_routes_take_the_short_way_round() {
        let r = Router::new(&Topology::ring(6)).unwrap();
        // 0 → 2: via 1, two hops.
        assert_eq!(r.next_hop(NodeId(0), NodeId(2)), NodeId(1));
        assert_eq!(hops(&r, NodeId(0), NodeId(2)), 2);
        // 0 → 5 is a direct ring edge.
        assert_eq!(r.next_hop(NodeId(0), NodeId(5)), NodeId(5));
        // 0 → 3 is distance 3 either way; BFS visits neighbours in id
        // order, so the id-1 side wins deterministically.
        assert_eq!(hops(&r, NodeId(0), NodeId(3)), 3);
        assert_eq!(r.next_hop(NodeId(0), NodeId(3)), NodeId(1));
        assert_eq!(
            path(&r, NodeId(0), NodeId(3)),
            vec![NodeId(1), NodeId(2), NodeId(3)]
        );
    }

    #[test]
    fn star_routes_all_pass_through_the_hub() {
        let r = Router::new(&Topology::star(5)).unwrap();
        for leaf in 1..5 {
            for other in 1..5 {
                if leaf != other {
                    assert_eq!(r.next_hop(NodeId(leaf), NodeId(other)), NodeId(0));
                    assert_eq!(hops(&r, NodeId(leaf), NodeId(other)), 2);
                }
            }
        }
    }

    #[test]
    fn broadcast_tree_spans_every_node_once() {
        for topo in [
            Topology::ring(7),
            Topology::grid(3, 3),
            Topology::star(6),
            Topology::line(5),
        ] {
            let n = topo.node_count();
            let r = Router::new(&topo).unwrap();
            for src in 0..n {
                let src = NodeId(src);
                assert_eq!(tree_parent(&r, src, src), None);
                let mut reached = 1usize;
                let mut frontier = vec![src];
                while let Some(u) = frontier.pop() {
                    for &child in r.children_of(src, u) {
                        assert_eq!(
                            hops(&r, src, child),
                            hops(&r, src, u) + 1,
                            "tree edges follow BFS levels"
                        );
                        reached += 1;
                        frontier.push(child);
                    }
                }
                assert_eq!(reached, n, "broadcast tree from {src} spans the topology");
            }
        }
    }

    #[test]
    fn disconnected_topology_is_rejected() {
        // Two islands: {0,1} and {2,3}.
        let topo = Topology::explicit(4, [(0, 1), (1, 0), (2, 3), (3, 2)]);
        let err = Router::new(&topo).unwrap_err();
        assert!(matches!(err, RouteError::Disconnected { .. }));
        assert!(err.to_string().contains("no path"));
    }

    #[test]
    fn one_way_reachability_is_not_enough() {
        // 0 → 1 but never back.
        let topo = Topology::explicit(2, [(0, 1)]);
        assert_eq!(
            Router::new(&topo),
            Err(RouteError::Disconnected {
                from: NodeId(1),
                to: NodeId(0),
            })
        );
    }

    #[test]
    fn tree_next_hop_follows_the_broadcast_tree() {
        for topo in [
            Topology::ring(7),
            Topology::grid(3, 3),
            Topology::star(6),
            Topology::line(5),
            Topology::full_mesh(5),
        ] {
            let n = topo.node_count();
            let r = Router::new(&topo).unwrap();
            for src in 0..n {
                let src = NodeId(src);
                for dst in 0..n {
                    let dst = NodeId(dst);
                    if src == dst {
                        assert_eq!(tree_next_hop(&r, src, src, dst), None);
                        continue;
                    }
                    // At the root, the tree child agrees with the unicast
                    // next hop (same BFS trees).
                    assert_eq!(tree_next_hop(&r, src, src, dst), Some(r.next_hop(src, dst)));
                    // Walking tree_next_hop from the root traces exactly
                    // the parent-chain path.
                    let mut at = src;
                    let mut walked = Vec::new();
                    while at != dst {
                        let next = tree_next_hop(&r, src, at, dst).unwrap();
                        walked.push(next);
                        at = next;
                    }
                    assert_eq!(walked, path(&r, src, dst));
                    // A node off the path is not an ancestor.
                    for other in 0..n {
                        let other = NodeId(other);
                        if other != dst && !walked.contains(&other) && other != src {
                            assert_eq!(tree_next_hop(&r, src, other, dst), None);
                        }
                    }
                }
            }
        }
    }

    /// The per-writer FIFO guarantee in mixed unicast/multicast traffic
    /// rests on this property: the hop-by-hop unicast route (each relay
    /// consulting its *own* `next_hop` table) traces exactly the source's
    /// broadcast-tree path that multicast envelopes follow, because all
    /// tables come from the same id-order BFS. If tie-breaking ever
    /// changed to let the routes diverge, a writer's consecutive sends to
    /// one destination could travel different physical paths and arrive
    /// reordered under latency jitter — so this test pins the property on
    /// the standard topologies and on random strongly connected graphs.
    #[test]
    fn unicast_relay_paths_coincide_with_broadcast_tree_paths() {
        let mut topologies = vec![
            Topology::ring(7),
            Topology::grid(3, 3),
            Topology::grid(2, 5),
            Topology::star(6),
            Topology::line(5),
            Topology::full_mesh(5),
        ];
        // Random connected graphs: a ring backbone (strong connectivity)
        // plus deterministic pseudo-random chords.
        for seed in 0..40u64 {
            let n = 5 + (seed % 6) as usize;
            let mut links = Vec::new();
            for i in 0..n {
                links.push((i, (i + 1) % n));
                links.push(((i + 1) % n, i));
            }
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            for _ in 0..n {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let a = (state >> 33) as usize % n;
                let b = (state >> 13) as usize % n;
                if a != b {
                    links.push((a, b));
                    links.push((b, a));
                }
            }
            topologies.push(Topology::explicit(n, links));
        }
        for topo in topologies {
            let n = topo.node_count();
            let r = Router::new(&topo).unwrap();
            for src in 0..n {
                for dst in 0..n {
                    let (src, dst) = (NodeId(src), NodeId(dst));
                    if src == dst {
                        continue;
                    }
                    // Walk the unicast relay route: every hop re-resolved
                    // from the current node's own table, as Relay does.
                    let mut at = src;
                    let mut hop_by_hop = Vec::new();
                    while at != dst {
                        at = r.next_hop(at, dst);
                        hop_by_hop.push(at);
                        assert!(hop_by_hop.len() <= n, "unicast route must terminate");
                    }
                    assert_eq!(
                        hop_by_hop,
                        path(&r, src, dst),
                        "unicast route and tree path diverged for {src}->{dst} on {topo:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn multicast_envelope_bytes_delegate_to_the_payload_once() {
        let env = multicast(
            &Router::new(&Topology::ring(4)).unwrap(),
            NodeId(0),
            vec![NodeId(1), NodeId(2), NodeId(3)],
            RawPayload::new(8, 16),
        );
        // One payload on the wire regardless of how many destinations the
        // envelope still serves.
        assert_eq!(env.data_bytes(), 8);
        assert_eq!(env.control_bytes(), 16);
        let packet = Packet::Many(env);
        assert_eq!(packet.total_bytes(), 24);
    }

    #[test]
    fn routed_envelope_bytes_delegate_to_the_payload() {
        let env = Routed {
            src: NodeId(0),
            dst: NodeId(3),
            payload: RawPayload::new(8, 16),
        };
        assert_eq!(env.data_bytes(), 8);
        assert_eq!(env.control_bytes(), 16);
        assert_eq!(env.total_bytes(), 24);
    }

    #[test]
    fn singleton_topology_routes_trivially() {
        let r = Router::new(&Topology::full_mesh(1)).unwrap();
        assert_eq!(r.node_count(), 1);
        assert_eq!(hops(&r, NodeId(0), NodeId(0)), 0);
        assert!(path(&r, NodeId(0), NodeId(0)).is_empty());
    }

    /// A no-op protocol node that records what reached it.
    #[derive(Debug, Default)]
    struct Sink {
        received: Vec<NodeId>,
    }

    impl Node<RawPayload> for Sink {
        fn on_message(&mut self, _ctx: &mut NodeContext<RawPayload>, from: NodeId, _p: RawPayload) {
            self.received.push(from);
        }
    }

    /// A multicast envelope delivered to a node that is not on its
    /// broadcast-tree path (possible only if the envelope was corrupted
    /// or injected out-of-band) must drop the stray destinations and
    /// count them — never panic mid-delivery.
    #[test]
    fn misrouted_multicast_is_counted_not_fatal() {
        let topo = Topology::ring(4);
        let router = Arc::new(Router::new(&topo).unwrap());
        // On ring(4), node 0's broadcast tree reaches 3 via the direct
        // edge 0→3, so node 2 is not an ancestor of 3 in that tree.
        assert_eq!(
            tree_next_hop(&router, NodeId(0), NodeId(2), NodeId(3)),
            None
        );
        let mut relay = Relay::new(Sink::default(), NodeId(2), Arc::clone(&router), true);
        let mut ctx = NodeContext::new(NodeId(2), SimTime::ZERO);
        relay.on_message(
            &mut ctx,
            NodeId(1),
            Packet::Many(multicast(
                &router,
                NodeId(0),
                vec![NodeId(2), NodeId(3)],
                RawPayload::new(8, 4),
            )),
        );
        // The local copy was delivered, the unreachable destination was
        // dropped and tallied, and nothing was forwarded.
        assert_eq!(relay.inner().received, vec![NodeId(0)]);
        assert_eq!(relay.misrouted(), 1);
        assert_eq!(relay.forwarded(), 0);
        assert!(ctx.outgoing().is_empty());
    }

    /// A transit envelope bound for an id the router does not cover has
    /// no next hop: it is dropped and counted, never looked up in the
    /// routing table (which would read another source's row, or run past
    /// the table's end).
    #[test]
    fn a_transit_envelope_bound_outside_the_topology_is_counted_not_forwarded() {
        let router = Arc::new(Router::new(&Topology::grid_of(64)).unwrap());
        let mut relay = Relay::new(Sink::default(), NodeId(63), Arc::clone(&router), false);
        let mut ctx = NodeContext::new(NodeId(63), SimTime::ZERO);
        relay.on_message(
            &mut ctx,
            NodeId(62),
            Packet::One(Routed {
                src: NodeId(0),
                dst: NodeId(70),
                payload: RawPayload::new(8, 4),
            }),
        );
        assert_eq!((relay.forwarded(), relay.misrouted()), (0, 1));
        assert!(relay.inner().received.is_empty());
        assert!(ctx.outgoing().is_empty());
    }
}
