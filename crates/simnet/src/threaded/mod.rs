//! Threaded execution backend: one OS thread per node over the SPSC
//! ring-buffer link fabric of [`chan`](crate::chan), pinned (optionally)
//! to a simnet oracle.
//!
//! The discrete-event simulator gives bit-identical runs and exact wire
//! accounting; this module gives real cores. Each protocol node lives in
//! a *site* — the node plus its fabric ends, counters and buffers —
//! and exchanges the *same* payload types over pre-allocated per-link
//! rings. The protocol code is reused unchanged: a site drives the
//! [`Node`] trait exactly as the simulator does (handler, then flush
//! timers and outbox in order), with the handler contexts backed by
//! per-site [`BufferPool`]s so steady-state delivery allocates nothing.
//!
//! A site sits behind one `Mutex` and is run by whichever thread holds
//! it. Its worker thread takes it per drained batch: the deliveries and
//! timers waiting on its rings, at most [`INVOKE_BATCH`] pipelined
//! invokes, or a whole replay window. The coordinator takes it for
//! every synchronous operation ([`ThreadedNet::try_with_node`],
//! [`ThreadedNet::try_query`], [`ThreadedNet::restore_node`], the
//! settle-time counter merge) and runs the closure in place on the
//! calling thread — a read is one lock on the local replica, as in the
//! paper, not a round trip. Writes stay pipelined:
//! [`ThreadedNet::try_with_node_async`] posts a boxed invoke on the
//! site's FIFO lane for the worker, so the nodes' write-side work runs
//! on their own cores in parallel. Program order per node is a count of
//! lane messages posted (kept by the coordinator) against lane messages
//! finished (an atomic only the worker writes): a synchronous call
//! yields until its site's lane has drained, then locks.
//!
//! Two modes, chosen by [`ThreadedMode`]:
//!
//! * **Replay** — the net embeds a [`Transport`] oracle (the exact
//!   object the simnet backend runs on). Every local operation is
//!   applied to the oracle *and* to the live site; at settle time the
//!   oracle runs to quiescence, its event trace is cut into a replay
//!   window (one entry per delivery / timer firing, in oracle order),
//!   and the workers execute the window step by step: a shared atomic
//!   cursor serializes handler executions in oracle order while every
//!   payload still crosses a real ring between real threads. Settled
//!   values, histories, and control-record counts are therefore
//!   bit-identical to a pure simnet run — that is what the differential
//!   tests pin.
//! * **FreeRunning** — no oracle. Sends go straight to the destination
//!   ring and whole mailboxes are drained per wakeup (the batch lengths
//!   land in [`FabricStats`]); quiescence is detected with the
//!   [`InFlight`] counter. Message interleaving is nondeterministic, but
//!   on race-free workloads the settled values still converge to the
//!   simnet outcome. This is the mode the wall-clock throughput
//!   benchmarks (E9) run.
//!
//! A sender whose destination ring is full drains its *own* rings into a
//! local backlog while it retries, so a cycle of full rings always makes
//! progress and total in-flight data is bounded only by the heap — the
//! same guarantee the old unbounded-mpsc fabric gave, now with
//! allocation-free steady state. The coordinator sending from a
//! synchronous closure is such a sender too, and handles whatever
//! backlog it absorbed before it lets go of the site.
//!
//! A worker thread that panics marks itself in a shared [`DeadSet`] on
//! the way down and leaves its site's lock poisoned; the coordinator's
//! waits poll that set (and a poisoned lock reads as the same death) and
//! surface a typed [`WorkerDead`] error instead of hanging, and peers
//! drop messages addressed to the corpse so their own sends cannot stall
//! forever. Once any worker is dead the net is poisoned: every fallible
//! operation reports the failure. A panic inside a closure the
//! coordinator runs in place unwinds to the caller; it poisons the site
//! all the same, so the worker dies on its next turn and the site reports
//! dead from then on.
//!
//! Remaining scope limits (the DSM layer turns these into typed errors):
//! no fault injection, and no `on_start` hooks that emit messages or
//! timers (none of the DSM protocols use them). Sparse topologies are
//! supported by hosting [`Relay`](crate::route::Relay) nodes on the
//! sites — see [`ThreadedTransport`].
//!
//! Host time is confined to the [`clock`] watchdog module, the sole
//! holder of the `no-wall-clock` lint exemption.

pub(crate) mod clock;
mod transport;

pub use transport::ThreadedTransport;

use crate::backend::ThreadedMode;
use crate::chan::{fabric, CtlPost, InFlight, Mailbox, Post};
use crate::message::{NodeId, WireSize};
use crate::node::{Node, NodeContext, Outgoing};
use crate::pool::{BufferPool, PoolStats};
use crate::sim::{RunOutcome, SimConfig};
use crate::stats::NetworkStats;
use crate::time::{SimDuration, SimTime};
use crate::transport::{RoutingMode, Transport};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Most lane messages (pipelined invokes, replay windows) a worker runs
/// per hold of its site lock, each with a drain of the rings before it.
/// Bounds how long a synchronous call that found the lane drained can
/// then wait for the lock: one such batch.
const INVOKE_BATCH: usize = 32;

/// Trace capacity the replay oracle is configured with. The oracle's
/// trace must hold every delivery of the run (the replay schedule is cut
/// from it); overflow panics with a clear message rather than replaying
/// a truncated schedule.
const REPLAY_TRACE_CAPACITY: usize = 1 << 20;

/// Per-fabric contention and batching counters, merged across workers at
/// settle time. The free-running numbers are nondeterministic (they
/// describe real scheduling), so they are reported next to — never
/// inside — the deterministic wire accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Times a sender found a destination ring full and had to drain its
    /// own inbox before retrying.
    pub full_stalls: u64,
    /// Mailbox drains that moved at least one message.
    pub batches: u64,
    /// Total messages moved by those drains.
    pub batched_messages: u64,
    /// Histogram of drain batch lengths; bucket `k` counts batches of
    /// length in `(2^(k-1), 2^k]` (so 1, 2, 3–4, 5–8, …), with the last
    /// bucket open-ended.
    pub batch_hist: [u64; 8],
}

impl FabricStats {
    /// Record one mailbox drain that moved `len > 0` messages.
    fn record_batch(&mut self, len: usize) {
        self.batches += 1;
        self.batched_messages += len as u64;
        let bucket = (usize::BITS - (len - 1).leading_zeros()).min(7) as usize;
        self.batch_hist[bucket] += 1;
    }

    /// Accumulate another worker's counters into this one.
    pub fn merge(&mut self, other: &FabricStats) {
        self.full_stalls += other.full_stalls;
        self.batches += other.batches;
        self.batched_messages += other.batched_messages;
        for (mine, theirs) in self.batch_hist.iter_mut().zip(other.batch_hist) {
            *mine += theirs;
        }
    }

    /// Mean messages per mailbox drain (0.0 before any drain) — how much
    /// work one wakeup amortizes.
    pub fn mean_batch_len(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_messages as f64 / self.batches as f64
        }
    }
}

/// A worker thread exited abnormally (its node's handler panicked). The
/// net is poisoned from this point on: every fallible operation reports
/// the first dead worker instead of stalling on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerDead {
    /// The node whose worker thread died.
    pub node: NodeId,
}

impl fmt::Display for WorkerDead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "worker thread for node {} died (handler panic)",
            self.node
        )
    }
}

impl std::error::Error for WorkerDead {}

/// Shared liveness flags, one per worker, set by a panicking worker's
/// drop sentinel on its way down (or by the coordinator when it finds a
/// site's lock poisoned).
#[derive(Debug)]
struct DeadSet {
    flags: Vec<AtomicBool>,
}

impl DeadSet {
    fn new(n: usize) -> Self {
        DeadSet {
            flags: (0..n).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    fn mark(&self, i: usize) {
        self.flags[i].store(true, Ordering::SeqCst);
    }

    fn is_dead(&self, i: usize) -> bool {
        self.flags[i].load(Ordering::SeqCst)
    }

    fn first_dead(&self) -> Option<NodeId> {
        self.flags
            .iter()
            .position(|f| f.load(Ordering::SeqCst))
            .map(NodeId)
    }
}

/// Marks the owning worker dead if its thread unwinds. Lives on the
/// worker thread's stack around the run loop; a normal exit (Stop)
/// leaves the flag clear.
struct DeathSentinel {
    dead: Arc<DeadSet>,
    me: usize,
}

impl Drop for DeathSentinel {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.dead.mark(self.me);
        }
    }
}

/// One step of a replay schedule: which node acts, and how.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Step {
    /// Deliver the next buffered message from `from`.
    Deliver {
        /// Sender whose FIFO stream supplies the payload.
        from: NodeId,
    },
    /// Fire the pending timer with this tag.
    Timer {
        /// Tag passed back to [`Node::on_timer`].
        tag: u64,
    },
}

/// A replay schedule plus the shared cursor that serializes it. Workers
/// spin on `pos`; the worker named by `steps[pos]` executes the step and
/// advances the cursor.
#[derive(Debug)]
struct ReplayWindow {
    steps: Vec<(NodeId, Step)>,
    pos: AtomicUsize,
}

/// A boxed closure the worker runs against its site's node: the
/// pipelined write path. Synchronous calls run unboxed, in place.
type InvokeFn<P, N> = Box<dyn FnOnce(&mut N, &mut NodeContext<P>) + Send>;

/// Hot-path link messages: what travels on the SPSC rings. The sender is
/// implied by the ring's lane, so no per-message sender field is paid.
enum LinkMsg<P> {
    /// A protocol payload (a real link message).
    Deliver(P),
    /// A free-running timer firing (posted by the owning site itself on
    /// its self-link).
    Timer(u64),
}

/// What the coordinator posts on a site's FIFO lane (the fabric's
/// per-worker control sidecar) for the worker thread to run.
enum Ctl<P, N> {
    /// Run a closure nobody waits for — the pipelined write path. The
    /// coordinator counts the invoke in-flight when it posts; the worker
    /// repays the debt after the flush, so a settle is the barrier that
    /// observes it applied.
    InvokeAsync(InvokeFn<P, N>),
    /// Execute a replay window; the coordinator watches its cursor.
    Replay(Arc<ReplayWindow>),
    /// Exit the worker loop. Not counted as a lane message.
    Stop,
}

/// What one hold of the site lock by its worker came to.
enum Turn {
    /// Something was handled; take the lock again.
    Busy,
    /// Nothing was waiting; wait on the inbox before the next turn.
    Idle,
    /// `Ctl::Stop` was popped.
    Stop,
}

/// One node's site: the node plus its fabric ends, counters and
/// buffers. Run by whichever thread holds the lock around it.
struct Site<P, N> {
    me: NodeId,
    mode: ThreadedMode,
    node: N,
    mailbox: Mailbox<LinkMsg<P>, Ctl<P, N>>,
    post: Post<LinkMsg<P>, Ctl<P, N>>,
    inflight: Arc<InFlight>,
    events: Arc<AtomicU64>,
    dead: Arc<DeadSet>,
    stats: NetworkStats,
    fabric: FabricStats,
    /// Recycled outbox buffers for handler contexts (satisfying the
    /// "threaded path reuses the `BufferPool`" plumbing: steady-state
    /// delivery stops allocating two `Vec`s per callback).
    outbox_pool: BufferPool<Outgoing<P>>,
    timer_pool: BufferPool<(SimDuration, u64)>,
    /// Free-running: drained but not yet handled link messages, in
    /// arrival order (also the overflow backlog while a send stalls).
    /// Empty whenever the lock is released.
    pending: VecDeque<(NodeId, LinkMsg<P>)>,
    /// Replay mode: per-sender FIFO of payloads received but not yet
    /// scheduled by the oracle.
    buffered: Vec<VecDeque<P>>,
    /// Replay mode: tags of timers set but not yet fired, in set order.
    pending_timers: Vec<u64>,
}

/// A site and the one thing its two users share outside its lock.
struct SiteCell<P, N> {
    site: Mutex<Site<P, N>>,
    /// Lane messages the worker has finished, written only by the worker
    /// (`Release`) and read by the coordinator (`Acquire`) against its
    /// own count of messages posted.
    lane_done: AtomicU64,
}

impl<P, N> SiteCell<P, N>
where
    P: WireSize + fmt::Debug + Clone + Send + 'static,
    N: Node<P> + Send + 'static,
{
    /// The worker thread: one [`Site::turn`] per hold of the lock, a wait
    /// on `inbox` (a second handle on the site's mailbox) in between.
    fn work(&self, inbox: &Mailbox<LinkMsg<P>, Ctl<P, N>>) {
        inbox.register();
        loop {
            let turn = self
                .site
                .lock()
                .expect("a closure run in place by the coordinator panicked holding this site")
                .turn(&self.lane_done);
            match turn {
                Turn::Busy => {}
                Turn::Idle => inbox.wait(),
                Turn::Stop => return,
            }
        }
    }
}

impl<P, N> Site<P, N>
where
    P: WireSize + fmt::Debug + Clone + Send + 'static,
    N: Node<P> + Send + 'static,
{
    /// The worker's share of the work: drain the rings, handle what
    /// arrived, run the next lane message; up to [`INVOKE_BATCH`] times
    /// while the lane has more.
    fn turn(&mut self, lane_done: &AtomicU64) -> Turn {
        let mut busy = false;
        for _ in 0..INVOKE_BATCH {
            busy |= self.drain_links() > 0;
            self.run_pending();
            match self.mailbox.pop_ctl() {
                Some(Ctl::InvokeAsync(f)) => {
                    // Flush first: its sends raise the in-flight count
                    // before the invoke's own debt is repaid, so the
                    // coordinator's settle can never observe zero
                    // between the two.
                    self.invoke(f);
                    self.inflight.down();
                }
                Some(Ctl::Replay(window)) => self.replay(&window),
                Some(Ctl::Stop) => return Turn::Stop,
                None if busy => return Turn::Busy,
                None => return Turn::Idle,
            }
            lane_done.fetch_add(1, Ordering::Release);
            busy = true;
        }
        Turn::Busy
    }

    /// Run a closure against the node and flush what it sent.
    fn invoke<R>(&mut self, f: impl FnOnce(&mut N, &mut NodeContext<P>) -> R) -> R {
        let mut ctx = self.context();
        let result = f(&mut self.node, &mut ctx);
        self.flush(ctx);
        result
    }

    /// Handle every drained link message, in arrival order.
    fn run_pending(&mut self) {
        while let Some((from, msg)) = self.pending.pop_front() {
            match msg {
                LinkMsg::Deliver(payload) => self.deliver(from, payload),
                LinkMsg::Timer(tag) => self.fire_timer(tag),
            }
            self.inflight.down();
        }
    }

    /// Move everything available off the rings: into the arrival queue
    /// in free-running mode (recording the batch length), into the
    /// per-sender replay FIFOs otherwise.
    fn drain_links(&mut self) -> usize {
        match self.mode {
            ThreadedMode::FreeRunning => {
                let got = self.mailbox.drain_into(&mut self.pending);
                if got > 0 {
                    self.fabric.record_batch(got);
                }
                got
            }
            ThreadedMode::Replay => self.buffer_arrivals(),
        }
    }

    /// Replay mode: move ring arrivals into the per-sender FIFOs the
    /// oracle schedule consumes from.
    fn buffer_arrivals(&mut self) -> usize {
        let mut got = 0;
        for from in 0..self.buffered.len() {
            while let Some(msg) = self.mailbox.pop_from(NodeId(from)) {
                match msg {
                    LinkMsg::Deliver(payload) => self.buffered[from].push_back(payload),
                    LinkMsg::Timer(_) => {
                        unreachable!("free-running timer message in replay mode")
                    }
                }
                got += 1;
            }
        }
        got
    }

    /// A handler context backed by recycled buffers.
    fn context(&mut self) -> NodeContext<P> {
        NodeContext::with_buffers(
            self.me,
            SimTime::ZERO,
            self.outbox_pool.acquire(0),
            self.timer_pool.acquire(0),
        )
    }

    /// Run the message handler and flush, with delivery-side accounting.
    fn deliver(&mut self, from: NodeId, payload: P) {
        self.stats
            .record_delivery(self.me, payload.data_bytes(), payload.control_bytes());
        self.events.fetch_add(1, Ordering::Relaxed);
        let mut ctx = self.context();
        self.node.on_message(&mut ctx, from, payload);
        self.flush(ctx);
    }

    /// Run the timer handler and flush.
    fn fire_timer(&mut self, tag: u64) {
        self.events.fetch_add(1, Ordering::Relaxed);
        let mut ctx = self.context();
        self.node.on_timer(&mut ctx, tag);
        self.flush(ctx);
    }

    /// Schedule whatever a handler produced, mirroring the simulator's
    /// flush: timers first, then the outbox in order, with `Many`
    /// expanded to one link message per destination in target order.
    /// The context's buffers return to the pools afterwards.
    fn flush(&mut self, ctx: NodeContext<P>) {
        let (mut outbox, mut timers) = ctx.into_parts();
        for (_delay, tag) in timers.drain(..) {
            match self.mode {
                // The oracle schedules the firing; remember the tag so
                // the replayed firing can be matched up.
                ThreadedMode::Replay => self.pending_timers.push(tag),
                // No virtual clock: the timer rides the self-link and
                // fires when it drains (all DSM timers are zero-delay
                // flush kicks).
                ThreadedMode::FreeRunning => {
                    self.inflight.up();
                    self.send_link(self.me, LinkMsg::Timer(tag));
                }
            }
        }
        self.timer_pool.release(timers);
        for out in outbox.drain(..) {
            match out {
                Outgoing::One(to, payload) => self.send_payload(to, payload),
                Outgoing::Many(targets, payload) => {
                    let last = targets.len().saturating_sub(1);
                    for (k, to) in targets.into_iter().enumerate() {
                        if k == last {
                            self.send_payload(to, payload);
                            break;
                        }
                        self.send_payload(to, payload.clone());
                    }
                }
            }
        }
        self.outbox_pool.release(outbox);
    }

    /// Put one payload on the wire with send-side accounting.
    fn send_payload(&mut self, to: NodeId, payload: P) {
        self.stats
            .record_send(self.me, to, payload.data_bytes(), payload.control_bytes());
        if self.mode == ThreadedMode::FreeRunning {
            self.inflight.up();
        }
        self.send_link(to, LinkMsg::Deliver(payload));
    }

    /// Push a link message, absorbing our own backlog while the
    /// destination ring is full. Messages to a dead worker are dropped
    /// (with their in-flight debt repaid) so this send cannot stall on a
    /// ring nobody will ever drain; the coordinator surfaces the death
    /// as a typed error.
    fn send_link(&mut self, to: NodeId, msg: LinkMsg<P>) {
        let mut msg = msg;
        loop {
            if self.dead.is_dead(to.index()) {
                if self.mode == ThreadedMode::FreeRunning {
                    self.inflight.down();
                }
                return;
            }
            match self.post.to(to, msg) {
                Ok(()) => return,
                Err(back) => {
                    msg = back;
                    self.fabric.full_stalls += 1;
                    // Freeing our own rings is what lets a cycle of
                    // full-ring senders make progress: the peer stalled
                    // on *us* can complete its push and get back to
                    // draining.
                    if self.absorb_backlog() == 0 {
                        std::thread::yield_now();
                    }
                }
            }
        }
    }

    /// Drain our own rings without handling anything (no re-entrant
    /// handler runs mid-send); the run loop processes the backlog next
    /// iteration.
    fn absorb_backlog(&mut self) -> usize {
        match self.mode {
            ThreadedMode::FreeRunning => self.mailbox.drain_into(&mut self.pending),
            ThreadedMode::Replay => self.buffer_arrivals(),
        }
    }

    /// Execute a replay window: spin on the shared cursor, execute the
    /// steps assigned to this node, advance the cursor.
    fn replay(&mut self, window: &ReplayWindow) {
        let mut last_seen = usize::MAX;
        let mut watchdog = clock::Watchdog::standard();
        loop {
            let pos = window.pos.load(Ordering::Acquire);
            if pos >= window.steps.len() {
                return;
            }
            if pos != last_seen {
                last_seen = pos;
                watchdog.reset();
            }
            let (who, step) = window.steps[pos];
            if who != self.me {
                // Keep draining arrivals while another node acts so the
                // rings stay short.
                if self.buffer_arrivals() == 0 {
                    if let Some(node) = self.dead.first_dead() {
                        panic!("worker {node} died mid-replay; aborting on {}", self.me);
                    }
                    assert!(
                        !watchdog.expired(),
                        "replay stalled at step {pos}/{} on {}",
                        window.steps.len(),
                        self.me
                    );
                    std::thread::yield_now();
                }
                continue;
            }
            match step {
                Step::Deliver { from } => {
                    let payload = self.next_delivery_from(from);
                    self.deliver(from, payload);
                }
                Step::Timer { tag } => {
                    if let Some(i) = self.pending_timers.iter().position(|&t| t == tag) {
                        self.pending_timers.remove(i);
                    }
                    self.fire_timer(tag);
                }
            }
            window.pos.store(pos + 1, Ordering::Release);
        }
    }

    /// Pop (or wait for) the next payload in `from`'s FIFO stream.
    fn next_delivery_from(&mut self, from: NodeId) -> P {
        let watchdog = clock::Watchdog::standard();
        loop {
            if let Some(p) = self.buffered[from.index()].pop_front() {
                return p;
            }
            // The oracle says this message exists, so it is either on a
            // ring already or a peer is about to send it.
            if self.buffer_arrivals() == 0 {
                if let Some(node) = self.dead.first_dead() {
                    panic!("worker {node} died mid-replay; aborting on {}", self.me);
                }
                assert!(
                    !watchdog.expired(),
                    "replay on {} timed out waiting for a delivery from {from}",
                    self.me
                );
                self.mailbox.wait();
            }
        }
    }
}

/// A set of protocol nodes running on real OS threads, linked by the
/// SPSC ring fabric, optionally pinned to a simnet oracle. See the
/// module docs for the execution model.
pub struct ThreadedNet<P, N>
where
    P: WireSize + fmt::Debug + Clone + Send + 'static,
    N: Node<P> + Clone + Send + 'static,
{
    mode: ThreadedMode,
    n: usize,
    topology: crate::network::Topology,
    ctl: CtlPost<LinkMsg<P>, Ctl<P, N>>,
    /// One site per node; emptied by shutdown.
    sites: Vec<Arc<SiteCell<P, N>>>,
    /// Lane messages posted per site so far; a site's lane has drained
    /// when its `lane_done` has caught up with this.
    lane_posted: Vec<u64>,
    /// Worker threads not yet joined.
    handles: Vec<JoinHandle<()>>,
    inflight: Arc<InFlight>,
    events: Arc<AtomicU64>,
    dead: Arc<DeadSet>,
    /// The sites' counters as merged at the last settle (free-running);
    /// in replay mode `stats` is a copy of the oracle's and the rest
    /// stays zero.
    counters: Counters,
    /// Replay mode: the simnet transport whose delivery order the
    /// threads follow. `None` in free-running mode.
    oracle: Option<Transport<P, N>>,
    /// Index of the first oracle trace entry not yet replayed.
    trace_cursor: usize,
    /// Worker event count at the end of the previous settle, so settle
    /// outcomes report per-call deltas like the simulator does.
    events_at_last_settle: u64,
}

impl<P, N> ThreadedNet<P, N>
where
    P: WireSize + fmt::Debug + Clone + Send + 'static,
    N: Node<P> + Clone + Send + 'static,
{
    /// Spawn one worker thread per node over a full-mesh ring fabric —
    /// the classical any-to-any deployment. See
    /// [`ThreadedNet::with_topology`] for sparse topologies.
    pub fn new(mode: ThreadedMode, config: SimConfig, nodes: Vec<N>) -> Self {
        let n = nodes.len();
        Self::with_topology(mode, crate::network::Topology::full_mesh(n), config, nodes)
    }

    /// Spawn one worker thread per node, with the replay oracle (if any)
    /// built over `topology`. The ring fabric itself is always a full
    /// matrix — unused links cost idle pre-allocated rings, nothing more
    /// — so sparse deployments are realized by the *nodes* (relays that
    /// only send to topology neighbours), exactly as in the simulator.
    ///
    /// `config` parameterizes the replay oracle (latency model, seed,
    /// event budget); free-running mode only uses it for sizing. The
    /// caller is responsible for rejecting configurations the threaded
    /// backend does not support (fault injection) — the DSM layer maps
    /// them to typed errors before getting here.
    ///
    /// Panics if an `on_start` hook emits messages or timers: the
    /// threaded backend supports only passive starts (all DSM protocol
    /// nodes qualify).
    pub fn with_topology(
        mode: ThreadedMode,
        topology: crate::network::Topology,
        config: SimConfig,
        mut nodes: Vec<N>,
    ) -> Self {
        let n = nodes.len();
        assert_eq!(topology.node_count(), n, "topology size mismatch");
        let oracle = match mode {
            ThreadedMode::Replay => {
                let mut cfg = config;
                cfg.topology = None;
                cfg.routing = RoutingMode::Direct;
                cfg.trace_capacity =
                    Some(cfg.trace_capacity.unwrap_or(0).max(REPLAY_TRACE_CAPACITY));
                // The oracle runs `on_start` on its own copies lazily;
                // clone before the local `on_start` pass so every copy
                // sees the hook exactly once.
                Some(
                    Transport::new(topology.clone(), cfg, nodes.clone())
                        .expect("a direct transport never routes"),
                )
            }
            ThreadedMode::FreeRunning => None,
        };
        for (i, node) in nodes.iter_mut().enumerate() {
            let mut ctx = NodeContext::new(NodeId(i), SimTime::ZERO);
            node.on_start(&mut ctx);
            let (outbox, timers) = ctx.into_parts();
            assert!(
                outbox.is_empty() && timers.is_empty(),
                "threaded backend requires passive on_start hooks (node {i} emitted output)"
            );
        }
        let (ctl, ends) = fabric::<LinkMsg<P>, Ctl<P, N>>(n);
        let inflight = Arc::new(InFlight::default());
        let events = Arc::new(AtomicU64::new(0));
        let dead = Arc::new(DeadSet::new(n));
        let mut sites = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for (i, (node, (post, mailbox))) in nodes.into_iter().zip(ends).enumerate() {
            let inbox = mailbox.handle();
            let cell = Arc::new(SiteCell {
                site: Mutex::new(Site {
                    me: NodeId(i),
                    mode,
                    node,
                    mailbox,
                    post,
                    inflight: Arc::clone(&inflight),
                    events: Arc::clone(&events),
                    dead: Arc::clone(&dead),
                    stats: NetworkStats::with_nodes(n),
                    fabric: FabricStats::default(),
                    outbox_pool: BufferPool::new(),
                    timer_pool: BufferPool::new(),
                    pending: VecDeque::new(),
                    buffered: std::iter::repeat_with(VecDeque::new).take(n).collect(),
                    pending_timers: Vec::new(),
                }),
                lane_done: AtomicU64::new(0),
            });
            let worker_cell = Arc::clone(&cell);
            let sentinel_dead = Arc::clone(&dead);
            let handle = std::thread::Builder::new()
                .name(format!("simnet-worker-{i}"))
                .spawn(move || {
                    let _sentinel = DeathSentinel {
                        dead: sentinel_dead,
                        me: i,
                    };
                    worker_cell.work(&inbox);
                })
                .expect("spawn worker thread");
            sites.push(cell);
            handles.push(handle);
        }
        ThreadedNet {
            mode,
            n,
            topology,
            ctl,
            sites,
            lane_posted: vec![0; n],
            handles,
            inflight,
            events,
            dead,
            counters: Counters::new(n),
            oracle,
            trace_cursor: 0,
            events_at_last_settle: 0,
        }
    }

    /// The scheduling mode this net was built with.
    pub fn mode(&self) -> ThreadedMode {
        self.mode
    }

    /// Number of worker threads (= protocol nodes).
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The topology this net was deployed over (the replay oracle's
    /// topology; the ring fabric itself is always a full matrix).
    pub fn topology(&self) -> &crate::network::Topology {
        &self.topology
    }

    /// `Err` with the first dead worker if any worker thread has
    /// panicked (the net is then poisoned).
    fn ensure_alive(&self) -> Result<(), WorkerDead> {
        match self.dead.first_dead() {
            Some(node) => Err(WorkerDead { node }),
            None => Ok(()),
        }
    }

    /// Post a message on `id`'s lane, counting it towards the lane's
    /// drain condition.
    fn post(&mut self, id: NodeId, msg: Ctl<P, N>) {
        self.lane_posted[id.index()] += 1;
        self.ctl.to(id, msg);
    }

    /// Take `id`'s site for a synchronous operation. Yields until the
    /// worker has finished every message posted on the site's lane —
    /// program order: whatever was pipelined to this node before now has
    /// run — and only then locks; other nodes' lanes are not waited for.
    /// A poisoned lock is the worker's death.
    fn site(&self, id: NodeId) -> Result<MutexGuard<'_, Site<P, N>>, WorkerDead> {
        let cell = &self.sites[id.index()];
        let posted = self.lane_posted[id.index()];
        let mut watchdog = None;
        loop {
            self.ensure_alive()?;
            if cell.lane_done.load(Ordering::Acquire) == posted {
                break;
            }
            assert!(
                !watchdog
                    .get_or_insert_with(clock::Watchdog::standard)
                    .expired(),
                "lane of {id} stalled with {posted} message(s) posted"
            );
            std::thread::yield_now();
        }
        cell.site.lock().map_err(|_| {
            self.dead.mark(id.index());
            WorkerDead { node: id }
        })
    }

    /// Run a closure against a node, scheduling whatever it sends — the
    /// threaded counterpart of [`Transport::with_node`]. The closure runs
    /// in place, on the calling thread, under the node's site lock, once
    /// everything pipelined to that node has run; its sends are flushed
    /// into the fabric (full-ring back-pressure included) before this
    /// returns. In replay mode the closure is applied to the oracle's
    /// copy as well (to keep the schedule source in lock-step); the live
    /// site's result is returned, so callers always observe the threaded
    /// execution.
    ///
    /// Panics if a worker thread has died; use
    /// [`ThreadedNet::try_with_node`] to handle that case.
    pub fn with_node<R, F>(&mut self, id: NodeId, f: F) -> R
    where
        F: Fn(&mut N, &mut NodeContext<P>) -> R,
    {
        self.try_with_node(id, f).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`ThreadedNet::with_node`]: reports a
    /// [`WorkerDead`] instead of panicking when a worker thread is gone.
    pub fn try_with_node<R, F>(&mut self, id: NodeId, f: F) -> Result<R, WorkerDead>
    where
        F: Fn(&mut N, &mut NodeContext<P>) -> R,
    {
        assert!(id.index() < self.n, "unknown node {id}");
        let mut site = self.site(id)?;
        let result = site.invoke(&f);
        // A send that stalled on a full ring absorbed this site's own
        // rings into the backlog; handle it before letting go.
        site.run_pending();
        drop(site);
        if let Some(oracle) = &mut self.oracle {
            let _ = oracle.with_node(id, &f);
        }
        Ok(result)
    }

    /// Pipelined variant of [`ThreadedNet::with_node`] for closures whose
    /// result nobody reads (the DSM write path): post the invoke on the
    /// node's lane and return without waiting for it to run. Program
    /// order is preserved — a later [`ThreadedNet::with_node`] or
    /// [`ThreadedNet::query`] on the same node waits for the lane to
    /// drain, so it observes this closure applied — and
    /// [`ThreadedNet::settle`] is the global barrier: the invoke is
    /// counted in-flight until its flush completes. This is what makes
    /// the threaded backend fast on few cores: writes stop paying a
    /// coordinator⇄worker context-switch round trip each, workers drain
    /// whole batches of them per wakeup, and the nodes' write-side
    /// protocol work runs on their own threads in parallel.
    ///
    /// Panics if a worker thread has died; use
    /// [`ThreadedNet::try_with_node_async`] to handle that case.
    pub fn with_node_async<F>(&mut self, id: NodeId, f: F)
    where
        F: Fn(&mut N, &mut NodeContext<P>) + Send + 'static,
    {
        self.try_with_node_async(id, f)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`ThreadedNet::with_node_async`]. A death that
    /// happens after this returns `Ok` surfaces at the next settle (or
    /// the next synchronous call) — the closure itself may then never
    /// run, which is indistinguishable from the panic interrupting it.
    pub fn try_with_node_async<F>(&mut self, id: NodeId, f: F) -> Result<(), WorkerDead>
    where
        F: Fn(&mut N, &mut NodeContext<P>) + Send + 'static,
    {
        assert!(id.index() < self.n, "unknown node {id}");
        self.ensure_alive()?;
        if let Some(oracle) = &mut self.oracle {
            oracle.with_node(id, &f);
        }
        self.inflight.up();
        self.post(id, Ctl::InvokeAsync(Box::new(f)));
        Ok(())
    }

    /// Run a read-only closure against a node's live state, in place
    /// under the node's site lock (see [`ThreadedNet::with_node`] for the
    /// ordering).
    ///
    /// Panics if the worker thread has died; use
    /// [`ThreadedNet::try_query`] to handle that case.
    pub fn query<R, F>(&self, id: NodeId, f: F) -> R
    where
        F: FnOnce(&N) -> R,
    {
        self.try_query(id, f).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`ThreadedNet::query`].
    pub fn try_query<R, F>(&self, id: NodeId, f: F) -> Result<R, WorkerDead>
    where
        F: FnOnce(&N) -> R,
    {
        assert!(id.index() < self.n, "unknown node {id}");
        Ok(f(&self.site(id)?.node))
    }

    /// Overwrite a node's state (the DSM layer's restore-from-snapshot
    /// path). In replay mode the oracle's copy is overwritten too.
    ///
    /// Panics if a worker thread has died.
    pub fn restore_node(&mut self, id: NodeId, node: N) {
        if let Some(oracle) = &mut self.oracle {
            *oracle.node_mut(id) = node.clone();
        }
        self.site(id).unwrap_or_else(|e| panic!("{e}")).node = node;
    }

    /// Drive the net to quiescence.
    ///
    /// Replay: run the oracle to quiescence, cut the new slice of its
    /// trace into a replay window, execute it on the workers, refresh
    /// the stats cache from the oracle. Free-running: wait for the
    /// in-flight counter to reach zero, then merge the sites' counters.
    ///
    /// Panics if a worker thread has died; use
    /// [`ThreadedNet::try_settle`] to handle that case.
    pub fn settle(&mut self) -> RunOutcome {
        self.try_settle().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`ThreadedNet::settle`].
    pub fn try_settle(&mut self) -> Result<RunOutcome, WorkerDead> {
        self.ensure_alive()?;
        match self.mode {
            ThreadedMode::Replay => {
                let oracle = self.oracle.as_mut().expect("replay mode has an oracle");
                let outcome = oracle.run_until_quiescent();
                let trace = oracle.trace();
                assert_eq!(
                    trace.dropped(),
                    0,
                    "replay oracle trace overflowed {REPLAY_TRACE_CAPACITY} entries; \
                     this run is too large for replay mode — use free-running"
                );
                let steps: Vec<(NodeId, Step)> = trace.entries()[self.trace_cursor..]
                    .iter()
                    .filter_map(|e| match *e {
                        crate::trace::TraceEntry::Delivered { from, to, .. } => {
                            Some((to, Step::Deliver { from }))
                        }
                        crate::trace::TraceEntry::TimerFired { node, tag, .. } => {
                            Some((node, Step::Timer { tag }))
                        }
                        crate::trace::TraceEntry::Sent { .. } => None,
                    })
                    .collect();
                self.trace_cursor = trace.entries().len();
                if !steps.is_empty() {
                    let window = Arc::new(ReplayWindow {
                        steps,
                        pos: AtomicUsize::new(0),
                    });
                    for i in 0..self.n {
                        self.post(NodeId(i), Ctl::Replay(Arc::clone(&window)));
                    }
                    // The window is done when its cursor passes the end;
                    // a worker still on its way out of `replay` is what
                    // the next synchronous call's lane wait covers.
                    let watchdog = clock::Watchdog::standard();
                    while window.pos.load(Ordering::Acquire) < window.steps.len() {
                        self.ensure_alive()?;
                        assert!(
                            !watchdog.expired(),
                            "threaded backend stalled waiting for a replay window"
                        );
                        std::thread::yield_now();
                    }
                }
                self.counters.stats = self.oracle.as_ref().expect("oracle").stats().clone();
                Ok(outcome)
            }
            ThreadedMode::FreeRunning => {
                let watchdog = clock::Watchdog::standard();
                while self.inflight.load() > 0 {
                    self.ensure_alive()?;
                    assert!(
                        !watchdog.expired(),
                        "free-running settle stalled with {} event(s) in flight",
                        self.inflight.load()
                    );
                    std::thread::yield_now();
                }
                let mut counters = Counters::new(self.n);
                for i in 0..self.n {
                    counters.add(&*self.site(NodeId(i))?);
                }
                self.counters = counters;
                let total = self.events.load(Ordering::SeqCst);
                let events = total - self.events_at_last_settle;
                self.events_at_last_settle = total;
                Ok(RunOutcome::Quiescent { events })
            }
        }
    }

    /// Wire statistics as of the last settle. Replay mode reports the
    /// oracle's (simnet-identical) accounting; free-running mode reports
    /// the merged per-site counters.
    pub fn stats(&self) -> &NetworkStats {
        &self.counters.stats
    }

    /// Events processed so far: oracle events in replay mode (identical
    /// to the simnet run), handler executions across sites otherwise.
    pub fn events_processed(&self) -> u64 {
        match &self.oracle {
            Some(oracle) => oracle.events_processed(),
            None => self.events.load(Ordering::SeqCst),
        }
    }

    /// Virtual time: the oracle clock in replay mode. Free-running mode
    /// has no virtual clock and always reports zero.
    pub fn now(&self) -> SimTime {
        match &self.oracle {
            Some(oracle) => oracle.now(),
            None => SimTime::ZERO,
        }
    }

    /// Events not yet fully processed (oracle queue length in replay
    /// mode, in-flight counter otherwise).
    pub fn pending(&self) -> usize {
        match &self.oracle {
            Some(oracle) => oracle.pending_events(),
            None => self.inflight.load() as usize,
        }
    }

    /// Buffer-pool statistics: the replay oracle's pools (mirroring the
    /// simnet accounting the replayed run pins), or the merged per-site
    /// handler-context pools as of the last settle when free-running.
    pub fn pool_stats(&self) -> PoolStats {
        match &self.oracle {
            Some(oracle) => oracle.pool_stats(),
            None => self.counters.pool,
        }
    }

    /// Link-fabric contention counters (full-ring stalls, drain batch
    /// lengths) merged across sites as of the last free-running settle;
    /// all zero in replay mode, whose drains are step-paced by the oracle.
    pub fn fabric_stats(&self) -> FabricStats {
        self.counters.fabric
    }

    /// Stop every worker and collect the nodes in id order. Workers that
    /// died are skipped (their sites are left poisoned).
    pub fn into_nodes(mut self) -> Vec<N> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Vec<N> {
        // `Stop` queues behind whatever is still on the lanes, so every
        // pipelined invoke runs before its worker exits.
        for i in 0..self.n {
            self.ctl.to(NodeId(i), Ctl::Stop);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        // The workers are gone, so each cell is ours alone.
        let sites: Vec<Site<P, N>> = std::mem::take(&mut self.sites)
            .into_iter()
            .filter_map(|cell| Arc::into_inner(cell)?.site.into_inner().ok())
            .collect();
        // A run can end without a final settle: fold the sites' final
        // counters into the caches instead of losing every event since
        // the previous one. Replay mode keeps the oracle's
        // (simnet-identical) accounting, and a partial set (some workers
        // died) keeps the last complete settle snapshot instead of an
        // under-counting merge.
        if self.oracle.is_none() && sites.len() == self.n {
            self.counters = Counters::new(self.n);
            sites.iter().for_each(|site| self.counters.add(site));
        }
        sites.into_iter().map(|site| site.node).collect()
    }
}

/// The sites' counters, merged.
struct Counters {
    stats: NetworkStats,
    pool: PoolStats,
    fabric: FabricStats,
}

impl Counters {
    fn new(n: usize) -> Self {
        Counters {
            stats: NetworkStats::with_nodes(n),
            pool: PoolStats::default(),
            fabric: FabricStats::default(),
        }
    }

    fn add<P, N>(&mut self, site: &Site<P, N>) {
        self.stats.merge(&site.stats);
        self.pool.merge(site.outbox_pool.stats());
        self.pool.merge(site.timer_pool.stats());
        self.fabric.merge(&site.fabric);
    }
}

impl<P, N> Drop for ThreadedNet<P, N>
where
    P: WireSize + fmt::Debug + Clone + Send + 'static,
    N: Node<P> + Clone + Send + 'static,
{
    fn drop(&mut self) {
        if !self.handles.is_empty() {
            let _ = self.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::RawPayload;

    /// Echoes every payload back to the sender once, counting arrivals.
    #[derive(Clone, Debug, Default)]
    struct Echo {
        seen: u64,
        echoed: u64,
    }

    impl Node<RawPayload> for Echo {
        fn on_message(&mut self, ctx: &mut NodeContext<RawPayload>, from: NodeId, msg: RawPayload) {
            self.seen += 1;
            if msg.control == 0 {
                self.echoed += 1;
                ctx.send(from, RawPayload::new(msg.data, 1));
            }
        }
    }

    fn net(mode: ThreadedMode, n: usize) -> ThreadedNet<RawPayload, Echo> {
        ThreadedNet::new(mode, SimConfig::default(), vec![Echo::default(); n])
    }

    #[test]
    fn free_running_ping_pong_settles() {
        let mut net = net(ThreadedMode::FreeRunning, 4);
        for to in 1..4usize {
            net.with_node(NodeId(0), move |_, ctx| {
                ctx.send(NodeId(to), RawPayload::new(8, 0));
            });
        }
        let outcome = net.settle();
        assert!(outcome.is_quiescent());
        // 3 pings delivered + 3 echoes delivered.
        assert_eq!(outcome.events(), 6);
        let echoes = net.query(NodeId(0), |n| n.seen);
        assert_eq!(echoes, 3);
        for to in 1..4usize {
            assert_eq!(net.query(NodeId(to), |n| (n.seen, n.echoed)), (1, 1));
        }
        assert_eq!(net.stats().total_messages(), 6);
        assert_eq!(net.pending(), 0);
    }

    #[test]
    fn free_running_reports_pool_and_fabric_counters() {
        let mut net = net(ThreadedMode::FreeRunning, 3);
        for round in 0..20 {
            for to in 1..3usize {
                net.with_node(NodeId(0), move |_, ctx| {
                    ctx.send(NodeId(to), RawPayload::new(round, 0));
                });
            }
        }
        net.settle();
        let pool = net.pool_stats();
        assert!(
            pool.hits + pool.misses > 0,
            "threaded deliveries must run on pooled contexts: {pool:?}"
        );
        assert!(pool.hits > 0, "steady state must recycle buffers: {pool:?}");
        let fabric = net.fabric_stats();
        assert!(fabric.batches > 0, "drains must be recorded: {fabric:?}");
        assert!(fabric.batched_messages >= fabric.batches);
        assert!(fabric.mean_batch_len() >= 1.0);
        assert_eq!(
            fabric.batches,
            fabric.batch_hist.iter().sum::<u64>(),
            "every batch lands in exactly one histogram bucket"
        );
    }

    /// Regression test: a free-running run that never settles used to
    /// lose every stats/pool/fabric counter on teardown — the merge only
    /// happened inside `settle()`. `shutdown()` now folds the sites'
    /// final counters into the caches.
    #[test]
    fn teardown_merges_counters_for_a_settle_free_run() {
        let mut net = net(ThreadedMode::FreeRunning, 3);
        for round in 0..20 {
            for to in 1..3usize {
                net.with_node(NodeId(0), move |_, ctx| {
                    // control = 1: counted on arrival, never echoed, so
                    // the traffic is exactly 40 deliveries.
                    ctx.send(NodeId(to), RawPayload::new(round, 1));
                });
            }
        }
        // Wait for the workers to drain everything — but never settle, so
        // no collection round runs before teardown.
        let watchdog = clock::Watchdog::standard();
        while net.pending() > 0 {
            assert!(!watchdog.expired(), "settle-free run stalled");
            std::thread::yield_now();
        }
        assert_eq!(
            net.fabric_stats().batches,
            0,
            "no settle ran, so the caches must still be empty"
        );
        let nodes = net.shutdown();
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[1].seen + nodes[2].seen, 40);
        // The teardown merge carried everything the run did.
        assert_eq!(net.stats().total_messages(), 40);
        let fabric = net.fabric_stats();
        assert!(
            fabric.batches > 0,
            "drains must survive teardown: {fabric:?}"
        );
        assert!(fabric.batched_messages >= fabric.batches);
        let pool = net.pool_stats();
        assert!(
            pool.hits + pool.misses > 0,
            "pooled-context accounting must survive teardown: {pool:?}"
        );
    }

    #[test]
    fn async_invokes_apply_in_lane_order_and_settle_is_their_barrier() {
        for mode in [ThreadedMode::FreeRunning, ThreadedMode::Replay] {
            let mut net = net(mode, 3);
            // A burst of pipelined sends from node 0 — nothing waits.
            for round in 0..50usize {
                net.with_node_async(NodeId(0), move |_, ctx| {
                    ctx.send(NodeId(1 + (round % 2)), RawPayload::new(round, 1));
                });
            }
            // A synchronous call on the same node is a barrier: it runs
            // only after all 50 invokes on the node's lane have applied.
            net.with_node(NodeId(0), |_, _ctx| ());
            assert!(net.settle().is_quiescent());
            assert_eq!(net.query(NodeId(1), |n| n.seen), 25, "{mode:?}");
            assert_eq!(net.query(NodeId(2), |n| n.seen), 25, "{mode:?}");
            assert_eq!(net.stats().total_messages(), 50, "{mode:?}");
            assert_eq!(net.pending(), 0, "{mode:?}");
        }
    }

    #[test]
    fn replay_matches_pure_simulation() {
        let mut sim = crate::sim::Simulator::new(
            crate::network::Topology::full_mesh(3),
            SimConfig::default(),
            vec![Echo::default(); 3],
        );
        sim.with_node(NodeId(0), |_, ctx| {
            ctx.send_multi([NodeId(1), NodeId(2)], RawPayload::new(4, 0));
        });
        sim.run_until_quiescent();

        let mut net = net(ThreadedMode::Replay, 3);
        net.with_node(NodeId(0), |_, ctx| {
            ctx.send_multi([NodeId(1), NodeId(2)], RawPayload::new(4, 0));
        });
        let outcome = net.settle();
        assert!(outcome.is_quiescent());
        assert_eq!(net.events_processed(), sim.events_processed());
        assert_eq!(net.now(), sim.now());
        assert_eq!(net.stats(), sim.stats());
        assert_eq!(net.query(NodeId(0), |n| n.seen), sim.node(NodeId(0)).seen);
        let nodes = net.into_nodes();
        assert_eq!(nodes.len(), 3);
        for (i, node) in nodes.iter().enumerate() {
            assert_eq!(node.seen, sim.node(NodeId(i)).seen, "node {i}");
            assert_eq!(node.echoed, sim.node(NodeId(i)).echoed, "node {i}");
        }
    }

    #[test]
    fn replay_settle_is_incremental() {
        let mut net = net(ThreadedMode::Replay, 2);
        net.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(1), RawPayload::new(1, 0));
        });
        assert!(net.settle().is_quiescent());
        let after_first = net.events_processed();
        assert!(after_first > 0);
        net.with_node(NodeId(1), |_, ctx| {
            ctx.send(NodeId(0), RawPayload::new(2, 0));
        });
        assert!(net.settle().is_quiescent());
        assert!(net.events_processed() > after_first);
        assert_eq!(net.query(NodeId(1), |n| n.seen), 2); // ping + echo
    }

    /// A node that arms a zero-delay timer on every message and counts
    /// firings — the flush-kick pattern `CausalPartial` uses.
    #[derive(Clone, Debug, Default)]
    struct TimerKick {
        fired: u64,
    }

    impl Node<RawPayload> for TimerKick {
        fn on_message(
            &mut self,
            ctx: &mut NodeContext<RawPayload>,
            _from: NodeId,
            _msg: RawPayload,
        ) {
            ctx.set_timer(crate::time::SimDuration::from_nanos(0), 7);
        }

        fn on_timer(&mut self, _ctx: &mut NodeContext<RawPayload>, tag: u64) {
            assert_eq!(tag, 7);
            self.fired += 1;
        }
    }

    #[test]
    fn timers_fire_in_both_modes() {
        for mode in [ThreadedMode::FreeRunning, ThreadedMode::Replay] {
            let mut net: ThreadedNet<RawPayload, TimerKick> =
                ThreadedNet::new(mode, SimConfig::default(), vec![TimerKick::default(); 2]);
            net.with_node(NodeId(0), |_, ctx| {
                ctx.send(NodeId(1), RawPayload::new(1, 1));
            });
            assert!(net.settle().is_quiescent());
            assert_eq!(net.query(NodeId(1), |n| n.fired), 1, "{mode:?}");
        }
    }

    #[test]
    fn restore_node_overwrites_live_state() {
        let mut net = net(ThreadedMode::Replay, 2);
        net.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(1), RawPayload::new(1, 0));
        });
        net.settle();
        assert_eq!(net.query(NodeId(1), |n| n.seen), 1);
        net.restore_node(NodeId(1), Echo::default());
        assert_eq!(net.query(NodeId(1), |n| n.seen), 0);
    }

    /// A node that panics when poked with a marked payload.
    #[derive(Clone, Debug, Default)]
    struct Grenade {
        seen: u64,
    }

    impl Node<RawPayload> for Grenade {
        fn on_message(&mut self, ctx: &mut NodeContext<RawPayload>, from: NodeId, msg: RawPayload) {
            assert!(msg.control != 99, "grenade node detonated");
            self.seen += 1;
            if msg.control == 0 {
                ctx.send(from, RawPayload::new(msg.data, 1));
            }
        }
    }

    #[test]
    fn dead_worker_surfaces_as_a_typed_error() {
        let mut net: ThreadedNet<RawPayload, Grenade> = ThreadedNet::new(
            ThreadedMode::FreeRunning,
            SimConfig::default(),
            vec![Grenade::default(); 3],
        );
        // Poke the doomed node; its handler panics on delivery.
        net.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(2), RawPayload::new(1, 99));
        });
        // The panic is asynchronous; keep operating until it surfaces.
        let watchdog = clock::Watchdog::standard();
        let err = loop {
            match net.try_settle() {
                Ok(_) => {
                    assert!(!watchdog.expired(), "worker death never surfaced");
                    std::thread::yield_now();
                }
                Err(e) => break e,
            }
        };
        assert_eq!(err, WorkerDead { node: NodeId(2) });
        assert!(err.to_string().contains("node n2"), "{err}");
        // The net is poisoned: every subsequent fallible op reports it.
        assert_eq!(
            net.try_with_node(NodeId(0), |_, _| ()).unwrap_err(),
            WorkerDead { node: NodeId(2) }
        );
        assert_eq!(
            net.try_query(NodeId(1), |n| n.seen).unwrap_err(),
            WorkerDead { node: NodeId(2) }
        );
        assert_eq!(
            net.try_query(NodeId(2), |n| n.seen).unwrap_err(),
            WorkerDead { node: NodeId(2) }
        );
        // Shutdown still returns the survivors (in id order).
        let nodes = net.into_nodes();
        assert_eq!(nodes.len(), 2);
    }
}
