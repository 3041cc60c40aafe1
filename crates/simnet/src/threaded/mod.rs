//! Threaded execution backend: one OS thread per node over the
//! one-inbox-per-node link fabric of [`chan`](crate::chan), pinned
//! (optionally) to a simnet oracle.
//!
//! The discrete-event simulator gives bit-identical runs and exact wire
//! accounting; this module gives real cores. Each protocol node lives in
//! a *site* — the node plus its fabric ends, counters and buffers —
//! and exchanges the *same* payload types through per-node inboxes.
//! The protocol code is reused unchanged: a site drives the
//! [`Node`] trait exactly as the simulator does (handler, then flush
//! timers and outbox in order), and like the simulator it runs one
//! handler at a time, so every handler borrows the site's one resident
//! [`NodeContext`] and steady-state delivery allocates nothing.
//!
//! A site sits behind one `Mutex` and is run by whichever thread holds
//! it. Its worker thread takes it per drained batch: the deliveries and
//! timers waiting in its inbox, at most `INVOKE_BATCH` pipelined
//! invokes, or its whole replay schedule. The worker only ever
//! `try_lock`s: when someone else holds the site it waits on its inbox
//! instead, so it never sleeps on a site that is already being run. The
//! coordinator takes the site for every synchronous operation
//! ([`Net::invoke`], [`Net::inspect`], [`Net::update`], the settle-time
//! counter merge) and runs the closure in place on the calling thread —
//! a read is one lock on the local replica, as in the paper, not a round
//! trip. Writes stay pipelined: [`Net::post`] puts a boxed invoke on the
//! site's FIFO lane, so while nobody waits for them the nodes'
//! write-side work runs on their own cores in parallel. Program order
//! per node is a count of lane messages posted (kept by the coordinator)
//! against lane messages finished (an atomic written under the site
//! lock). A synchronous call that finds its site's lane not yet drained
//! runs the lane itself if the site is free (flat combining): it drains
//! the inbox, handles the arrivals and runs the queued invokes in FIFO
//! order on the calling thread, and yields only while the worker holds
//! the site. A posted closure therefore runs on whichever thread drains
//! its lane, and must never wait on the caller. In replay mode a lane
//! message is a schedule whose arrivals the worker waits for on its own
//! mailbox, so there the synchronous call yields until the lane has
//! drained, then locks.
//!
//! A site runs one way in both modes. Sends (and timers, which ride the
//! self-link) go straight into the destination's inbox, which never
//! refuses a push; whole inboxes are drained into the site's one arrival
//! queue per wakeup (the batch lengths land in [`FabricStats`]); every
//! event is counted in [`InFlight`] from its send until its handler has
//! run and flushed. The two modes, chosen by [`ThreadedMode`], differ only in which arrival a
//! site handles next:
//!
//! * **FreeRunning** — the oldest one. Quiescence is the in-flight count
//!   reaching zero. Message interleaving is nondeterministic, but on
//!   race-free workloads the settled values still converge to the simnet
//!   outcome. This is the mode dsmbench's `thr-*` workloads time.
//! * **Replay** — the one its own slice of an oracle's schedule names
//!   next. The net embeds a [`Simulator`] oracle over the same nodes
//!   (relays included, when routed), and every local operation is
//!   applied to the oracle *and* to the live site. The oracle logs, per
//!   node, the deliveries (by sender) and timer firings that node
//!   handles, in oracle order. At settle time it runs to quiescence and
//!   each site's new steps become that site's schedule, which its worker
//!   runs, waiting for each arrival that has not come yet. No worker
//!   waits for another's turn: a site's state depends only on the order
//!   of its own events, and over FIFO links each site's slice always
//!   makes progress. Handlers run on the workers and every payload crosses a
//!   real inbox, yet settled values, histories, wire counters and
//!   control-record counts are bit-identical to a pure simnet run — that
//!   is what the differential tests pin. A live handler that sends what
//!   the oracle's copy did not is a divergence the settle reports.
//!
//! A worker thread that panics marks itself in a shared `DeadSet` on
//! the way down and leaves its site's lock poisoned; the coordinator's
//! waits poll that set (and a poisoned lock reads as the same death) and
//! surface a typed [`WorkerDead`] error instead of hanging, and peers
//! drop messages addressed to the corpse, repaying their in-flight debt.
//! Once any worker is dead the net is poisoned: every fallible operation
//! reports the failure. A lane message or handler that panics
//! while the coordinator runs the lane is caught there: it poisons the
//! site and marks it dead just the same, so it surfaces as the same
//! typed error whichever thread ran it. A panic inside a closure the
//! coordinator runs in place unwinds to the caller; it poisons the site
//! all the same, so the worker dies on its next turn and the site reports
//! dead from then on. A handler run by a worker that sends to an id
//! outside the fabric dies the same way, with the send's error as its
//! message; a closure the coordinator runs gets that error back instead.
//!
//! Scope limits (the DSM layer turns these into typed errors): no fault
//! injection, and no crash/restart ([`NetError::Unsupported`]). Sparse
//! topologies are supported by hosting [`Relay`](crate::route::Relay)
//! nodes on the sites — see [`deploy`](crate::transport::deploy).
//!
//! Host time is confined to the `clock` watchdog module, the sole
//! holder of an `#[expect(clippy::disallowed_types)]` for `Instant`.

pub(crate) mod clock;
#[cfg(test)]
mod transport;

use crate::backend::ThreadedMode;
use crate::chan::{fabric, CtlPost, InFlight, Mailbox, Post};
use crate::message::{NodeId, WireSize};
use crate::network::Topology;
use crate::node::{Node, NodeContext, Outgoing};
use crate::sim::{RunOutcome, SendError, SimConfig, Simulator, Step};
use crate::stats::NetworkStats;
use crate::time::SimTime;
use crate::transport::{BoxedPost, Net, NetCore, NetError, Posted};
use std::collections::VecDeque;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;

/// Most lane messages (pipelined invokes, replay schedules) a worker runs
/// per hold of its site lock, each with a drain of the inbox before it.
/// Bounds how long a synchronous call that found the lane drained can
/// then wait for the lock: one such batch.
const INVOKE_BATCH: usize = 32;

/// Per-fabric contention and batching counters, merged across workers at
/// settle time. The numbers are nondeterministic (they describe real
/// scheduling), so they are reported next to — never inside — the
/// deterministic wire accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Always 0: a push into an inbox never fails, so no sender stalls.
    /// Kept only because dsmbench reads it.
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
    pub(crate) fn merge(&mut self, other: &FabricStats) {
        self.batches += other.batches;
        self.batched_messages += other.batched_messages;
        for (mine, theirs) in self.batch_hist.iter_mut().zip(other.batch_hist) {
            *mine += theirs;
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

/// Hot-path link messages: what travels through the inboxes, each next to
/// its sender's id.
enum LinkMsg<P> {
    /// A protocol payload (a real link message).
    Deliver(P),
    /// A timer firing, posted by the owning site itself on its self-link.
    Timer(u64),
}

/// What the coordinator posts on a site's FIFO lane (the fabric's
/// per-worker control sidecar) for the worker thread to run.
enum Ctl<P, N> {
    /// Run a closure nobody waits for — the pipelined write path. The
    /// coordinator counts the invoke in-flight when it posts; the worker
    /// repays the debt after the flush, so a settle is the barrier that
    /// observes it applied.
    InvokeAsync(BoxedPost<P, N>),
    /// Handle these arrivals, in this order: the site's slice of the
    /// oracle's schedule.
    Replay(Vec<Step>),
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
    /// Nodes in the fabric; a send to an id at or past it fails.
    n: usize,
    mode: ThreadedMode,
    node: N,
    mailbox: Mailbox<LinkMsg<P>, Ctl<P, N>>,
    post: Post<LinkMsg<P>, Ctl<P, N>>,
    inflight: Arc<InFlight>,
    events: Arc<AtomicU64>,
    dead: Arc<DeadSet>,
    stats: NetworkStats,
    fabric: FabricStats,
    /// The one resident handler context: a site runs one handler at a
    /// time, so each borrows it and [`Site::flush`] empties it — the
    /// simulator's scheme, so steady-state delivery allocates nothing.
    /// It is this node's at time zero (a site keeps no virtual clock),
    /// so it never needs re-pointing.
    ctx: NodeContext<P>,
    /// Drained but not yet handled link messages, in arrival order.
    /// Free-running, it is empty whenever the lock is released;
    /// replaying, it holds what the oracle has not scheduled yet.
    pending: VecDeque<(NodeId, LinkMsg<P>)>,
}

/// A site and the one thing its two users share outside its lock.
struct SiteCell<P, N> {
    site: Mutex<Site<P, N>>,
    /// Lane messages finished, written under the site lock by whichever
    /// thread ran them (`Release`) and read by the coordinator
    /// (`Acquire`) against its own count of messages posted.
    lane_done: AtomicU64,
}

/// What a synchronous call's attempt to run its site's lane came to.
enum Combined<'a, P, N> {
    /// The lane has drained and the site is the caller's.
    Drained(MutexGuard<'a, Site<P, N>>),
    /// Another thread holds the site, or the lane had nothing queued for
    /// this thread to run: yield and look again.
    Held,
    /// A lane message or handler panicked, or the site was poisoned.
    Dead,
}

impl<P, N> SiteCell<P, N>
where
    P: WireSize + fmt::Debug + Clone + Send + 'static,
    N: Node<P> + Send + 'static,
{
    /// The worker thread: one [`Site::turn`] per hold of the lock, a wait
    /// on `inbox` (a second handle on the site's mailbox) in between. A
    /// site another thread holds is one it does not need to run: the
    /// worker waits on its inbox instead of sleeping on the lock.
    fn work(&self, inbox: &Mailbox<LinkMsg<P>, Ctl<P, N>>) {
        inbox.register();
        loop {
            let turn = match self.site.try_lock() {
                Ok(mut site) => site.turn(&self.lane_done),
                Err(TryLockError::WouldBlock) => Turn::Idle,
                Err(TryLockError::Poisoned(_)) => {
                    panic!("another thread panicked holding this site")
                }
            };
            match turn {
                Turn::Busy => {}
                Turn::Idle => inbox.wait(),
                Turn::Stop => return,
            }
        }
    }

    /// Free-running: run this site's lane on the calling thread until it
    /// has caught up with `posted`, unless another thread holds the site.
    /// The lock is taken inside `catch_unwind`, so a lane message or
    /// handler that panics here poisons the site as it would on the
    /// worker. The lane never holds `Ctl::Stop` here: only a teardown
    /// posts it, and a teardown holds the net.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn combine(&self, posted: u64) -> Combined<'_, P, N> {
        let ran = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut site = match self.site.try_lock() {
                Ok(site) => site,
                Err(TryLockError::WouldBlock) => return Combined::Held,
                Err(TryLockError::Poisoned(_)) => return Combined::Dead,
            };
            while self.lane_done.load(Ordering::Acquire) != posted {
                if !matches!(site.turn(&self.lane_done), Turn::Busy) {
                    return Combined::Held;
                }
            }
            Combined::Drained(site)
        }));
        ran.unwrap_or(Combined::Dead)
    }
}

impl<P, N> Site<P, N>
where
    P: WireSize + fmt::Debug + Clone + Send + 'static,
    N: Node<P> + Send + 'static,
{
    /// One hold of the site, by its worker or by a synchronous call
    /// that combines ([`SiteCell::combine`]): drain the inbox, handle
    /// what arrived, run the next lane message; up to [`INVOKE_BATCH`]
    /// times while the lane has more.
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
                    if let Err(e) = self.invoke(f) {
                        panic!("{e}");
                    }
                    self.inflight.down();
                }
                Some(Ctl::Replay(steps)) => {
                    for step in steps {
                        let (from, msg) = self.take(step);
                        self.handle(from, msg);
                    }
                }
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
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn invoke(&mut self, f: impl FnOnce(&mut N, &mut NodeContext<P>)) -> Result<(), SendError> {
        f(&mut self.node, &mut self.ctx);
        self.flush()
    }

    /// Free-running: handle every drained link message, in arrival
    /// order. A replaying site handles only what its schedule names.
    fn run_pending(&mut self) {
        if self.mode == ThreadedMode::Replay {
            return;
        }
        while let Some((from, msg)) = self.pending.pop_front() {
            self.handle(from, msg);
        }
    }

    /// Move the whole inbox into the arrival queue, recording the batch
    /// length.
    fn drain_links(&mut self) -> usize {
        let got = self.mailbox.drain_into(&mut self.pending);
        if got > 0 {
            self.fabric.record_batch(got);
        }
        got
    }

    /// Remove the oldest arrival `step` names from the arrival queue,
    /// draining the inbox and waiting until it has come. A peer's message
    /// the oracle delivered here was sent, or is about to be; a timer is
    /// this site's own, so one still missing after a drain never will be.
    fn take(&mut self, step: Step) -> (NodeId, LinkMsg<P>) {
        let named = |(from, msg): &(NodeId, LinkMsg<P>)| match (msg, step) {
            (LinkMsg::Deliver(_), Step::Deliver { from: want }) => *from == want,
            (LinkMsg::Timer(tag), Step::Timer { tag: want }) => *tag == want,
            _ => false,
        };
        let watchdog = clock::Watchdog::standard();
        loop {
            let found = self.pending.iter().position(named);
            if let Some(arrival) = found.and_then(|i| self.pending.remove(i)) {
                return arrival;
            }
            if self.drain_links() > 0 {
                continue;
            }
            assert!(
                !matches!(step, Step::Timer { .. }),
                "replay on {} diverged from its oracle: {step:?} names a timer it never set",
                self.me
            );
            if let Some(node) = self.dead.first_dead() {
                panic!("worker {node} died mid-replay; aborting on {}", self.me);
            }
            assert!(
                !watchdog.expired(),
                "replay on {} timed out waiting for {step:?}",
                self.me
            );
            self.mailbox.wait();
        }
    }

    /// Run the handler an arrival calls for and flush what it sent, then
    /// repay the arrival's in-flight debt.
    fn handle(&mut self, from: NodeId, msg: LinkMsg<P>) {
        match msg {
            LinkMsg::Deliver(payload) => {
                self.stats
                    .record_delivery(self.me, payload.data_bytes(), payload.control_bytes());
                self.node.on_message(&mut self.ctx, from, payload);
            }
            LinkMsg::Timer(tag) => self.node.on_timer(&mut self.ctx, tag),
        }
        self.events.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = self.flush() {
            panic!("{e}");
        }
        self.inflight.down();
    }

    /// Schedule whatever a handler produced, mirroring the simulator's
    /// flush: timers first, then the outbox in order, with `Many`
    /// expanded to one link message per destination in target order, up
    /// to the first send to an id outside the fabric. There is no
    /// virtual clock, so a timer rides the self-link and fires when it
    /// drains (every DSM timer is a zero-delay flush kick) or when the
    /// replay schedule names it. The resident context is left empty, also
    /// when a send fails: the sends after it are dropped.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn flush(&mut self) -> Result<(), SendError> {
        if self.ctx.is_idle() {
            return Ok(());
        }
        // The sends need the whole site, so the buffers leave the context
        // while they go out; they keep their allocations.
        let (mut outbox, mut timers) = (
            std::mem::take(&mut self.ctx.outbox),
            std::mem::take(&mut self.ctx.timers),
        );
        for (_delay, tag) in timers.drain(..) {
            self.inflight.up();
            self.send_link(self.me, LinkMsg::Timer(tag));
        }
        let mut result = Ok(());
        for out in outbox.drain(..) {
            result = match out {
                Outgoing::One(to, payload) => self.send_payload(to, payload),
                Outgoing::Many(targets, payload) => self.send_many(targets, payload),
            };
            if result.is_err() {
                break;
            }
        }
        (self.ctx.outbox, self.ctx.timers) = (outbox, timers);
        result
    }

    /// Send one payload to every receiver of `targets`, in order, up to
    /// the first that fails.
    fn send_many(&mut self, targets: Vec<NodeId>, payload: P) -> Result<(), SendError> {
        let last = targets.len().saturating_sub(1);
        for (k, to) in targets.into_iter().enumerate() {
            if k == last {
                return self.send_payload(to, payload);
            }
            self.send_payload(to, payload.clone())?;
        }
        Ok(())
    }

    /// Put one payload on the wire with send-side accounting.
    fn send_payload(&mut self, to: NodeId, payload: P) -> Result<(), SendError> {
        if to.index() >= self.n {
            return Err(SendError::NoLink { from: self.me, to });
        }
        self.stats
            .record_send(self.me, to, payload.data_bytes(), payload.control_bytes());
        self.inflight.up();
        self.send_link(to, LinkMsg::Deliver(payload));
        Ok(())
    }

    /// Push a link message into `to`'s inbox. Messages to a dead worker
    /// are dropped, with their in-flight debt repaid, since nobody will
    /// ever drain its inbox; the coordinator surfaces the death as a
    /// typed error.
    fn send_link(&self, to: NodeId, msg: LinkMsg<P>) {
        if self.dead.is_dead(to.index()) {
            self.inflight.down();
        } else {
            let _ = self.post.to(to, msg);
        }
    }
}

/// A set of protocol nodes running on real OS threads, linked by the
/// inbox fabric, optionally pinned to a simnet oracle. See the
/// module docs for the execution model; its operations are those of
/// [`Net`].
pub struct ThreadedNet<P, N>
where
    P: WireSize + fmt::Debug + Clone + Send + 'static,
    N: Node<P> + Clone + Send + 'static,
{
    n: usize,
    topology: Topology,
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
    /// The sites' counters as merged at the last settle.
    counters: Counters,
    /// Replay mode: the simulator, its step log on, whose per-node
    /// arrival order the sites follow. `None` in free-running mode.
    oracle: Option<Simulator<P, N>>,
    /// Worker event count at the end of the previous settle, so settle
    /// outcomes report per-call deltas like the simulator does.
    events_at_last_settle: u64,
}

impl<P, N> ThreadedNet<P, N>
where
    P: WireSize + fmt::Debug + Clone + Send + 'static,
    N: Node<P> + Clone + Send + 'static,
{
    /// Spawn one worker thread per node over a full mesh — the classical
    /// any-to-any deployment. [`deploy`](crate::transport::deploy)
    /// builds threaded nets over other topologies.
    pub fn new(mode: ThreadedMode, config: SimConfig, nodes: Vec<N>) -> Self {
        let n = nodes.len();
        Self::with_topology(mode, Topology::full_mesh(n), config, nodes)
    }

    /// Spawn one worker thread per node, with the replay oracle (if any)
    /// built over `topology`. The fabric itself lets every node send to
    /// every other — a link costs nothing until it is used — so sparse
    /// deployments are realized by the *nodes* (relays that only send to
    /// topology neighbours), exactly as in the simulator.
    ///
    /// `config` parameterizes the replay oracle (latency model, seed,
    /// event budget); free-running mode only uses it for sizing. The
    /// caller is responsible for rejecting configurations the threaded
    /// backend does not support (fault injection) — the DSM layer maps
    /// them to typed errors before getting here.
    pub(crate) fn with_topology(
        mode: ThreadedMode,
        topology: Topology,
        config: SimConfig,
        nodes: Vec<N>,
    ) -> Self {
        let n = nodes.len();
        assert_eq!(topology.node_count(), n, "topology size mismatch");
        let oracle = match mode {
            ThreadedMode::Replay => {
                let mut cfg = config;
                cfg.topology = None;
                let mut oracle = Simulator::new(topology.clone(), cfg, nodes.clone());
                oracle.log_steps();
                Some(oracle)
            }
            ThreadedMode::FreeRunning => None,
        };
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
                    n,
                    mode,
                    node,
                    mailbox,
                    post,
                    inflight: Arc::clone(&inflight),
                    events: Arc::clone(&events),
                    dead: Arc::clone(&dead),
                    stats: NetworkStats::with_nodes(n),
                    fabric: FabricStats::default(),
                    ctx: NodeContext::new(NodeId(i), SimTime::ZERO),
                    pending: VecDeque::new(),
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
            events_at_last_settle: 0,
        }
    }

    /// `Err` with the first dead worker if any worker thread has
    /// panicked (the net is then poisoned).
    fn ensure_alive(&self) -> Result<(), WorkerDead> {
        match self.dead.first_dead() {
            Some(node) => Err(WorkerDead { node }),
            None => Ok(()),
        }
    }

    /// `Err` unless `id` names a hosted node.
    fn check(&self, id: NodeId) -> Result<(), NetError> {
        if id.index() < self.n {
            Ok(())
        } else {
            Err(SendError::UnknownNode { node: id }.into())
        }
    }

    /// Post a message on `id`'s lane, counting it towards the lane's
    /// drain condition.
    fn post_lane(&mut self, id: NodeId, msg: Ctl<P, N>) {
        self.lane_posted[id.index()] += 1;
        self.ctl.to(id, msg);
    }

    /// Take `id`'s site for a synchronous operation once every message
    /// posted on its lane has run — program order: whatever was
    /// pipelined to this node before now has run; other nodes' lanes are
    /// not waited for. Free-running, a lane not yet drained is run here
    /// when the site is free ([`SiteCell::combine`]); the call yields
    /// only while another thread holds the site, or, replaying, until the
    /// worker has run the lane. The watchdog is armed and read only on
    /// the iterations that yield. A poisoned lock, or a panic in a lane
    /// message run here, is the site's death.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    #[expect(
        clippy::indexing_slicing,
        reason = "sites and lane_posted hold one entry per hosted node, and every caller has checked `id` against the fabric or walks the hosted ids"
    )]
    #[expect(
        clippy::disallowed_macros,
        reason = "the stall watchdog's assert! turns a lane that never drains, a lost wakeup, into a panic with a message instead of a hung process"
    )]
    fn site(&self, id: NodeId) -> Result<MutexGuard<'_, Site<P, N>>, WorkerDead> {
        let cell = &self.sites[id.index()];
        let posted = self.lane_posted[id.index()];
        let died = || {
            self.dead.mark(id.index());
            WorkerDead { node: id }
        };
        let mut watchdog = None;
        loop {
            self.ensure_alive()?;
            if cell.lane_done.load(Ordering::Acquire) == posted {
                break;
            }
            // Replay's lane messages are schedules whose arrivals only
            // the worker waits for; those it must run itself.
            if self.oracle.is_none() {
                match cell.combine(posted) {
                    Combined::Drained(site) => return Ok(site),
                    Combined::Dead => return Err(died()),
                    Combined::Held => {}
                }
            }
            assert!(
                !watchdog
                    .get_or_insert_with(clock::Watchdog::standard)
                    .expired(),
                "lane of {id} stalled with {posted} message(s) posted"
            );
            std::thread::yield_now();
        }
        cell.site.lock().map_err(|_| died())
    }

    /// [`Net::invoke`] returning the closure's result.
    pub fn try_with_node<R>(
        &mut self,
        id: NodeId,
        f: impl Fn(&mut N, &mut NodeContext<P>) -> R,
    ) -> Result<R, NetError> {
        <dyn Net<P, N>>::try_with_node(self, id, f)
    }

    /// [`Net::post`] of one closure.
    pub fn try_with_node_async(
        &mut self,
        id: NodeId,
        f: impl Fn(&mut N, &mut NodeContext<P>) + Send + 'static,
    ) -> Result<(), NetError> {
        self.post(id, &mut Some(f))
    }

    /// [`NetCore::settle`].
    pub fn try_settle(&mut self) -> Result<RunOutcome, NetError> {
        self.settle()
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
        // the previous one. A partial set (some workers died) keeps the
        // last complete settle snapshot instead of an under-counting
        // merge.
        if sites.len() == self.n {
            let mut merged = Counters::new(self.n);
            sites.iter().for_each(|site| merged.add(site));
            self.counters = merged;
        }
        sites.into_iter().map(|site| site.node).collect()
    }
}

impl<P, N> Net<P, N> for ThreadedNet<P, N>
where
    P: WireSize + fmt::Debug + Clone + Send + 'static,
    N: Node<P> + Clone + Send + 'static,
{
    /// The closure runs in place, on the calling thread, under the node's
    /// site lock, once everything pipelined to that node has run —
    /// free-running, on this thread too if the site was free; its sends
    /// are flushed into the fabric before this returns. In replay mode it
    /// runs on the oracle's copy as well, to keep the schedule source in
    /// lock-step.
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
        self.check(id)?;
        let live = self.site(id)?.invoke(&mut *f);
        let mirrored = match &mut self.oracle {
            Some(oracle) => oracle.invoke(id, f),
            None => Ok(()),
        };
        live?;
        mirrored
    }

    /// The closure is boxed onto the node's lane and this returns without
    /// waiting for it. Program order holds — a later synchronous call on
    /// the same node first drains the lane, running it itself if the
    /// worker is not — and a settle is the global barrier: the invoke is
    /// counted in-flight until its flush completes. Writes so stop paying
    /// a coordinator⇄worker round trip each, workers drain whole batches
    /// of them per wakeup, and the nodes' write-side work runs on their
    /// own cores in parallel. The closure runs on whichever thread
    /// drains the lane, so it must never wait on the caller. A death
    /// after this returns `Ok` surfaces at the next settle or
    /// synchronous call as [`WorkerDead`]; the closure may then never
    /// run.
    fn post(&mut self, id: NodeId, f: &mut dyn Posted<P, N>) -> Result<(), NetError> {
        self.check(id)?;
        self.ensure_alive()?;
        let mirrored = match &mut self.oracle {
            Some(oracle) => oracle.invoke(id, &mut |node, ctx| f.run(node, ctx)),
            None => Ok(()),
        };
        if let Some(f) = f.boxed() {
            self.inflight.up();
            self.post_lane(id, Ctl::InvokeAsync(f));
        }
        mirrored
    }

    /// In place under the node's site lock (ordered as [`Net::invoke`]).
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn inspect(&self, id: NodeId, f: &mut dyn FnMut(&N)) -> Result<(), NetError> {
        self.check(id)?;
        f(&self.site(id)?.node);
        Ok(())
    }

    /// In replay mode the oracle's copy changes too.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn update(&mut self, id: NodeId, f: &mut dyn FnMut(&mut N)) -> Result<(), NetError> {
        self.check(id)?;
        if let Some(oracle) = &mut self.oracle {
            oracle.update(id, f)?;
        }
        f(&mut self.site(id)?.node);
        Ok(())
    }

    /// Workers that died are skipped (their sites are left poisoned).
    fn into_nodes(mut self: Box<Self>) -> Vec<N> {
        self.shutdown()
    }
}

impl<P, N> NetCore for ThreadedNet<P, N>
where
    P: WireSize + fmt::Debug + Clone + Send + 'static,
    N: Node<P> + Clone + Send + 'static,
{
    /// Replay: run the oracle to quiescence, take each site's new steps
    /// from its log and post them on the site's lane as its schedule. Free-running: wait for the in-flight counter to reach zero.
    /// Either way, then merge the sites' counters — whose lane waits are
    /// replay's barrier.
    fn settle(&mut self) -> Result<RunOutcome, NetError> {
        self.ensure_alive()?;
        let outcome = match self.oracle.as_mut() {
            Some(oracle) => {
                let outcome = oracle.settle()?;
                let schedules: Vec<Vec<Step>> =
                    (0..self.n).map(|i| oracle.take_steps(NodeId(i))).collect();
                for (i, steps) in schedules.into_iter().enumerate() {
                    if !steps.is_empty() {
                        self.post_lane(NodeId(i), Ctl::Replay(steps));
                    }
                }
                Some(outcome)
            }
            None => {
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
                None
            }
        };
        let mut counters = Counters::new(self.n);
        for i in 0..self.n {
            counters.add(&*self.site(NodeId(i))?);
        }
        self.counters = counters;
        let total = self.events.load(Ordering::SeqCst);
        let events = total - self.events_at_last_settle;
        self.events_at_last_settle = total;
        let Some(outcome) = outcome else {
            return Ok(RunOutcome::Quiescent { events });
        };
        // Every site has run its whole schedule, so after a quiescent
        // oracle run anything still in flight was sent by a live handler
        // that the oracle's copy did not run the same way.
        assert!(
            !outcome.is_quiescent() || self.inflight.load() == 0,
            "replay left {} event(s) the oracle never scheduled",
            self.inflight.load()
        );
        Ok(outcome)
    }

    /// The oracle clock in replay mode; zero when free-running.
    fn now(&self) -> SimTime {
        self.oracle
            .as_ref()
            .map_or(SimTime::ZERO, |oracle| oracle.now())
    }

    /// The topology deployed over; the fabric itself links every pair.
    fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The per-site counters merged at the last settle, in either mode
    /// (a replay sends exactly what the oracle sent, so its counters are
    /// the simnet run's).
    fn stats(&self) -> &NetworkStats {
        &self.counters.stats
    }

    /// Handler executions across sites (after a replay settle, the
    /// oracle's count: the sites ran its schedule).
    fn events_processed(&self) -> u64 {
        self.events.load(Ordering::SeqCst)
    }

    /// The oracle's queue length in replay mode, the in-flight counter
    /// otherwise.
    fn pending(&self) -> usize {
        match &self.oracle {
            Some(oracle) => oracle.pending(),
            None => self.inflight.load() as usize,
        }
    }

    /// Drain batch lengths merged across sites as of the last settle.
    fn fabric_stats(&self) -> FabricStats {
        self.counters.fabric
    }
}

/// The sites' counters, merged.
struct Counters {
    stats: NetworkStats,
    fabric: FabricStats,
}

impl Counters {
    fn new(n: usize) -> Self {
        Counters {
            stats: NetworkStats::with_nodes(n),
            fabric: FabricStats::default(),
        }
    }

    fn add<P, N>(&mut self, site: &Site<P, N>) {
        self.stats.merge(&site.stats);
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

    fn net(mode: ThreadedMode, n: usize) -> Box<dyn Net<RawPayload, Echo>> {
        Box::new(ThreadedNet::new(
            mode,
            SimConfig::default(),
            vec![Echo::default(); n],
        ))
    }

    #[test]
    fn free_running_ping_pong_settles() {
        let mut net = net(ThreadedMode::FreeRunning, 4);
        for to in 1..4usize {
            net.with_node(NodeId(0), move |_, ctx| {
                ctx.send(NodeId(to), RawPayload::new(8, 0));
            });
        }
        let outcome = net.settle().unwrap();
        assert!(outcome.is_quiescent());
        // 3 pings delivered + 3 echoes delivered.
        assert_eq!(outcome.events(), 6);
        let echoes = net.query(NodeId(0), |n| n.seen).unwrap();
        assert_eq!(echoes, 3);
        for to in 1..4usize {
            assert_eq!(
                net.query(NodeId(to), |n| (n.seen, n.echoed)).unwrap(),
                (1, 1)
            );
        }
        assert_eq!(net.stats().total_messages(), 6);
        assert_eq!(net.pending(), 0);
    }

    /// Both modes drain whole mailboxes into one arrival queue, so both
    /// report real drain batches.
    #[test]
    fn fabric_counters_count_real_drains_in_both_modes() {
        for mode in [ThreadedMode::FreeRunning, ThreadedMode::Replay] {
            let mut net = net(mode, 3);
            for round in 0..20 {
                for to in 1..3usize {
                    net.with_node(NodeId(0), move |_, ctx| {
                        ctx.send(NodeId(to), RawPayload::new(round, 0));
                    });
                }
            }
            net.settle().unwrap();
            let fabric = net.fabric_stats();
            // 40 pings and 40 echoes were drained, each exactly once.
            assert_eq!(fabric.batched_messages, 80, "{mode:?}: {fabric:?}");
            assert!(
                fabric.batched_messages >= fabric.batches,
                "no empty drain counts"
            );
            assert_eq!(
                fabric.batches,
                fabric.batch_hist.iter().sum::<u64>(),
                "every batch lands in exactly one histogram bucket"
            );
        }
    }

    /// Every handler borrows its site's one resident context, and the
    /// flush empties it: after fan-outs and timers every site's context
    /// and arrival queue are empty, and the sender's outbox and the
    /// receivers' timer buffers keep the capacity they grew to.
    #[test]
    fn a_site_lends_its_buffers_to_every_handler() {
        for mode in [ThreadedMode::FreeRunning, ThreadedMode::Replay] {
            let nodes = vec![TimerKick::default(); 3];
            let mut net = ThreadedNet::new(mode, SimConfig::default(), nodes);
            for round in 0..5 {
                let fan_out = move |_: &mut TimerKick, ctx: &mut NodeContext<RawPayload>| {
                    ctx.send_multi([NodeId(1), NodeId(2)], RawPayload::new(round, 1));
                };
                net.try_with_node(NodeId(0), fan_out).unwrap();
                assert!(net.try_settle().unwrap().is_quiescent(), "{mode:?}");
            }
            for i in 0..3 {
                let site = net.site(NodeId(i)).unwrap();
                assert_eq!(site.node.fired, if i == 0 { 0 } else { 5 }, "{mode:?}");
                assert!(site.ctx.is_idle(), "{mode:?}");
                assert!(site.pending.is_empty(), "{mode:?}: n{i} left arrivals");
                let grown = if i == 0 {
                    site.ctx.outbox.capacity()
                } else {
                    site.ctx.timers.capacity()
                };
                assert!(grown > 0, "{mode:?}: n{i} dropped the buffer it grew");
            }
        }
    }

    /// A run that never settles must not lose its counters on teardown:
    /// `shutdown()` folds the sites' final counters into the caches, in
    /// either mode.
    #[test]
    fn teardown_merges_counters_for_a_settle_free_run() {
        for mode in [ThreadedMode::FreeRunning, ThreadedMode::Replay] {
            let mut net = ThreadedNet::new(mode, SimConfig::default(), vec![Echo::default(); 3]);
            for round in 0..20 {
                for to in 1..3usize {
                    // control = 1: counted on arrival, never echoed, so
                    // the traffic is exactly 40 deliveries.
                    let send = move |_: &mut Echo, ctx: &mut NodeContext<RawPayload>| {
                        ctx.send(NodeId(to), RawPayload::new(round, 1));
                    };
                    net.try_with_node(NodeId(0), send).unwrap();
                }
            }
            // Free-running: wait for the workers to drain everything. Replay
            // delivers only what a settle replays. Either way no settle
            // runs, so no collection round runs before teardown.
            let watchdog = clock::Watchdog::standard();
            while mode == ThreadedMode::FreeRunning && net.pending() > 0 {
                assert!(!watchdog.expired(), "settle-free run stalled");
                std::thread::yield_now();
            }
            assert_eq!(net.fabric_stats().batches, 0, "{mode:?}: no settle ran");
            assert_eq!(net.stats().total_messages(), 0, "{mode:?}: no settle ran");
            let nodes = net.shutdown();
            assert_eq!(nodes.len(), 3);
            // The teardown merge carried the 40 sends and every drain.
            assert_eq!(net.stats().total_messages(), 40, "{mode:?}");
            let fabric = net.fabric_stats();
            assert!(
                fabric.batches > 0,
                "{mode:?}: drains must survive teardown: {fabric:?}"
            );
            assert!(fabric.batched_messages >= fabric.batches);
            // Replay delivered nothing: the oracle scheduled nothing yet.
            let expected = if mode == ThreadedMode::Replay { 0 } else { 40 };
            assert_eq!(nodes[1].seen + nodes[2].seen, expected, "{mode:?}");
        }
    }

    #[test]
    fn async_invokes_apply_in_lane_order_and_settle_is_their_barrier() {
        for mode in [ThreadedMode::FreeRunning, ThreadedMode::Replay] {
            let mut net = net(mode, 3);
            // A burst of pipelined sends from node 0 — nothing waits.
            for round in 0..50usize {
                let send = move |_: &mut Echo, ctx: &mut NodeContext<RawPayload>| {
                    ctx.send(NodeId(1 + (round % 2)), RawPayload::new(round, 1));
                };
                net.post(NodeId(0), &mut Some(send)).unwrap();
            }
            // A synchronous call on the same node is a barrier: it runs
            // only after all 50 invokes on the node's lane have applied.
            net.with_node(NodeId(0), |_, _ctx| ());
            assert!(net.settle().unwrap().is_quiescent());
            assert_eq!(net.query(NodeId(1), |n| n.seen).unwrap(), 25, "{mode:?}");
            assert_eq!(net.query(NodeId(2), |n| n.seen).unwrap(), 25, "{mode:?}");
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
        let outcome = net.settle().unwrap();
        assert!(outcome.is_quiescent());
        assert_eq!(net.events_processed(), sim.events_processed());
        assert_eq!(net.now(), sim.now());
        assert_eq!(net.stats(), sim.stats());
        assert_eq!(
            net.query(NodeId(0), |n| n.seen).unwrap(),
            sim.node(NodeId(0)).seen
        );
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
        assert!(net.settle().unwrap().is_quiescent());
        let after_first = net.events_processed();
        assert!(after_first > 0);
        net.with_node(NodeId(1), |_, ctx| {
            ctx.send(NodeId(0), RawPayload::new(2, 0));
        });
        assert!(net.settle().unwrap().is_quiescent());
        assert!(net.events_processed() > after_first);
        assert_eq!(net.query(NodeId(1), |n| n.seen).unwrap(), 2); // ping + echo
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
            let mut net: Box<dyn Net<RawPayload, TimerKick>> = Box::new(ThreadedNet::new(
                mode,
                SimConfig::default(),
                vec![TimerKick::default(); 2],
            ));
            net.with_node(NodeId(0), |_, ctx| {
                ctx.send(NodeId(1), RawPayload::new(1, 1));
            });
            assert!(net.settle().unwrap().is_quiescent());
            assert_eq!(net.query(NodeId(1), |n| n.fired).unwrap(), 1, "{mode:?}");
        }
    }

    /// Answers only the second delivery any of its clones sees: the
    /// clones share one count, so a replay oracle's copy and the live
    /// site disagree about which delivery that is.
    #[derive(Clone, Debug, Default)]
    struct SecondOnly {
        deliveries: Arc<AtomicU64>,
    }

    impl Node<RawPayload> for SecondOnly {
        fn on_message(&mut self, ctx: &mut NodeContext<RawPayload>, from: NodeId, msg: RawPayload) {
            if self.deliveries.fetch_add(1, Ordering::SeqCst) == 1 {
                ctx.send(from, msg);
            }
        }
    }

    /// The oracle's copy handles the message first and stays silent; the
    /// live site then answers, and that answer is a message no schedule
    /// names. The settle must report it, not return a quiescent outcome.
    #[test]
    #[should_panic(expected = "the oracle never scheduled")]
    fn a_replay_that_diverges_from_its_oracle_fails_the_settle() {
        let mut net = ThreadedNet::new(
            ThreadedMode::Replay,
            SimConfig::default(),
            vec![SecondOnly::default(); 2],
        );
        let ping = |_: &mut SecondOnly, ctx: &mut NodeContext<RawPayload>| {
            ctx.send(NodeId(1), RawPayload::new(1, 0));
        };
        net.try_with_node(NodeId(0), ping).unwrap();
        let _ = net.try_settle();
    }

    #[test]
    fn restore_node_overwrites_live_state() {
        let mut net = net(ThreadedMode::Replay, 2);
        net.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(1), RawPayload::new(1, 0));
        });
        net.settle().unwrap();
        assert_eq!(net.query(NodeId(1), |n| n.seen).unwrap(), 1);
        net.update(NodeId(1), &mut |n| *n = Echo::default())
            .unwrap();
        assert_eq!(net.query(NodeId(1), |n| n.seen).unwrap(), 0);
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

    /// Sends every payload on to an id outside the fabric.
    #[derive(Clone, Debug, Default)]
    struct Stray;

    impl Node<RawPayload> for Stray {
        fn on_message(&mut self, ctx: &mut NodeContext<RawPayload>, _: NodeId, msg: RawPayload) {
            ctx.send(NodeId(99), msg);
        }
    }

    /// A send to an id outside the fabric is the simulator's `NoLink`:
    /// returned to a closure the coordinator runs (after the sends before
    /// it went out), a typed death for a handler a worker runs — never an
    /// index panic, never a poisoned coordinator site.
    #[test]
    fn a_send_outside_the_fabric_is_a_typed_error() {
        let no_link = |from| {
            NetError::Send(SendError::NoLink {
                from,
                to: NodeId(99),
            })
        };
        for mode in [ThreadedMode::FreeRunning, ThreadedMode::Replay] {
            let mut net: Box<dyn Net<RawPayload, Stray>> =
                Box::new(ThreadedNet::new(mode, SimConfig::default(), vec![Stray; 4]));
            let stray = |_: &mut Stray, ctx: &mut NodeContext<RawPayload>| {
                ctx.send(NodeId(2), RawPayload::new(1, 0));
                ctx.send_multi([NodeId(3), NodeId(99)], RawPayload::new(1, 0));
            };
            assert_eq!(
                net.try_with_node(NodeId(0), stray).unwrap_err(),
                no_link(NodeId(0))
            );
            // The sends before the stray one went out; their handlers,
            // run by workers (or by the replay oracle first), stray too.
            let err = net.settle().unwrap_err();
            match mode {
                ThreadedMode::FreeRunning => assert!(
                    matches!(err, NetError::WorkerDead(WorkerDead { node }) if node.index() >= 2),
                    "{err}"
                ),
                // The oracle refuses first, so no worker died: node 0's
                // site survived the error returned to its closure.
                ThreadedMode::Replay => {
                    assert_eq!(err, no_link(NodeId(2)));
                    assert!(net.query(NodeId(0), |_| ()).is_ok());
                }
            }
        }
        let mut net = ThreadedNet::new(
            ThreadedMode::FreeRunning,
            SimConfig::default(),
            vec![Stray; 2],
        );
        let stray = |_: &mut Stray, ctx: &mut NodeContext<RawPayload>| {
            ctx.send(NodeId(99), RawPayload::new(1, 0))
        };
        net.try_with_node_async(NodeId(1), stray).unwrap();
        let dead = WorkerDead { node: NodeId(1) };
        assert_eq!(net.try_settle(), Err(dead.into()));
    }

    #[test]
    fn dead_worker_surfaces_as_a_typed_error() {
        let mut net: Box<dyn Net<RawPayload, Grenade>> = Box::new(ThreadedNet::new(
            ThreadedMode::FreeRunning,
            SimConfig::default(),
            vec![Grenade::default(); 3],
        ));
        // Poke the doomed node; its handler panics on delivery.
        net.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(2), RawPayload::new(1, 99));
        });
        // The panic is asynchronous; keep operating until it surfaces.
        let watchdog = clock::Watchdog::standard();
        let err = loop {
            match net.settle() {
                Ok(_) => {
                    assert!(!watchdog.expired(), "worker death never surfaced");
                    std::thread::yield_now();
                }
                Err(e) => break e,
            }
        };
        assert_eq!(err, WorkerDead { node: NodeId(2) }.into());
        assert!(err.to_string().contains("node n2"), "{err}");
        // The net is poisoned: every subsequent fallible op reports it.
        assert_eq!(
            net.try_with_node(NodeId(0), |_, _| ()).unwrap_err(),
            WorkerDead { node: NodeId(2) }.into()
        );
        assert_eq!(
            net.query(NodeId(1), |n| n.seen).unwrap_err(),
            WorkerDead { node: NodeId(2) }.into()
        );
        assert_eq!(
            net.query(NodeId(2), |n| n.seen).unwrap_err(),
            WorkerDead { node: NodeId(2) }.into()
        );
        // Shutdown still returns the survivors (in id order).
        let nodes = net.into_nodes();
        assert_eq!(nodes.len(), 2);
    }
}
