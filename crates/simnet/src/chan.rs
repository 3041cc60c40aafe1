//! Bounded SPSC ring-buffer link fabric for the threaded backend.
//!
//! PR 8 ran the threaded backend over `std::sync::mpsc`: one shared
//! multi-producer channel per mailbox, one heap allocation per send, one
//! blocking `recv` per message. This module replaces that with a link
//! *matrix*: every directed pair (i → j) owns a fixed-capacity
//! single-producer/single-consumer ring buffer, pre-allocated at
//! construction, so a steady-state send is two atomic index updates and a
//! slot write — no allocation, no shared channel head to contend on, and
//! per-link FIFO (the paper's reliable-FIFO-link model) holds by
//! construction instead of by `mpsc`'s per-sender promise.
//!
//! The design stays inside `forbid(unsafe_code)`. A classical lock-free
//! ring keeps its payloads in `UnsafeCell` slots; safe Rust cannot move a
//! value out of a shared slot without a cell type that hands out `&mut`,
//! so each slot here is a `Mutex<Option<M>>` used purely as that cell.
//! The `AtomicUsize` head/tail cursors enforce the SPSC discipline: the
//! producer writes a slot only after observing it consumed, the consumer
//! reads it only after observing it published, so every `lock()` is
//! uncontended by construction (the two sides can only ever touch
//! *different* slots; on today's std a never-contended `Mutex` lock is a
//! single CAS — the same cost as the sequence counters a crossbeam-style
//! ring pays). The fabric is therefore obstruction-free in practice while
//! remaining entirely safe: no slot is ever blocked on, and the hot-path
//! ordering guarantees come from the cursor atomics, not the locks.
//!
//! Three more pieces round out the fabric:
//!
//! * a **control sidecar** per receiver (`Mutex<VecDeque>`) for the cold
//!   coordinator → worker path (pipelined invokes, replay windows,
//!   shutdown), keeping the hot rings single-producer;
//! * a per-receiver **waker** implementing the adaptive
//!   spin → yield → park strategy (see [`Mailbox::wait`]): producers
//!   `unpark` a sleeping consumer exactly when its inbox hint goes
//!   non-empty, replacing the old fixed `recv_timeout` poll;
//! * **batched drains**: [`Mailbox::drain_into`] moves everything
//!   available in one sweep, so one wakeup processes a whole burst
//!   (flat-combining style) instead of paying one blocking receive per
//!   message.
//!
//! Quiescence detection in free-running mode uses [`InFlight`], a shared
//! atomic counter of protocol events (deliveries and timer firings) that
//! have been accepted into the fabric but not yet fully processed. The
//! counter is incremented *before* a send and decremented only after the
//! receiving worker has run the handler **and flushed its outbox** (each
//! send in the flush increments before the triggering event decrements),
//! so the count can only reach zero when no handler is running and no
//! message is buffered anywhere — a genuine global quiescence point.

use crate::message::NodeId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Shared count of protocol events in flight (sent but not fully
/// processed). Zero means the fabric is quiescent.
#[derive(Debug, Default)]
pub struct InFlight(AtomicU64);

impl InFlight {
    /// Record one event entering the fabric. Must happen *before* the
    /// corresponding link push.
    pub fn up(&self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }

    /// Record one event fully processed (handler run and outbox flushed).
    pub fn down(&self) {
        let prev = self.0.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev > 0, "InFlight underflow");
    }

    /// Current number of in-flight events.
    pub fn load(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
}

/// Ring capacity per directed link for an `n`-node fabric. The matrix has
/// `n²` rings, so per-link depth shrinks as the fabric grows to keep the
/// pre-allocated footprint bounded; senders that outrun a full link drain
/// their own inbox while they wait (see the threaded worker loop), so a
/// shallow ring costs stalls, never deadlock.
pub fn ring_capacity(n: usize) -> usize {
    (4096 / n.max(1)).clamp(4, 128)
}

/// How long a parked consumer sleeps before re-checking on its own. The
/// waker protocol makes lost wakeups impossible in the steady state; the
/// bounded park is defence in depth so a missed edge degrades to a short
/// doze instead of a hang.
const PARK_INTERVAL: Duration = Duration::from_millis(1);

/// Yield attempts between the spin phase and parking. Sized generously:
/// on an oversubscribed host (workers > cores) `yield_now` immediately
/// schedules whichever runnable thread is about to produce for us, so a
/// yield round usually ends the wait without the park/unpark futex round
/// trip — parking is the fallback for genuine idleness, not the common
/// case between back-to-back coordinator calls.
const YIELD_ROUNDS: usize = 32;

/// One bounded SPSC ring: the directed link from one producer lane to one
/// consumer. `head` is written only by the consumer, `tail` only by the
/// producer; each `Mutex` slot is locked only by the side the cursors say
/// owns it, so the locks are uncontended cells, not synchronization.
#[derive(Debug)]
struct Ring<M> {
    slots: Box<[Mutex<Option<M>>]>,
    /// Next slot to read (consumer cursor).
    head: AtomicUsize,
    /// Next slot to write (producer cursor).
    tail: AtomicUsize,
}

impl<M> Ring<M> {
    fn new(capacity: usize) -> Self {
        Ring {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    /// Producer side: publish `msg`, or hand it back if the ring is full.
    fn try_push(&self, msg: M) -> Result<(), M> {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) >= self.slots.len() {
            return Err(msg);
        }
        let slot = &self.slots[tail % self.slots.len()];
        // Uncontended by the SPSC discipline; a poisoned lock is
        // impossible to reach with one (never panicking between lock and
        // unlock) but recovered from anyway rather than unwrapped.
        *slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(msg);
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Consumer side: take the oldest published message, if any.
    fn pop(&self) -> Option<M> {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let slot = &self.slots[head % self.slots.len()];
        let msg = slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take();
        self.head.store(head.wrapping_add(1), Ordering::Release);
        debug_assert!(msg.is_some(), "published slot was empty");
        msg
    }
}

/// Per-receiver wake state for the spin → yield → park strategy.
#[derive(Debug)]
struct Waker {
    /// Whether the consumer may be parked (producers `unpark` it after a
    /// push that observes this set).
    parked: AtomicBool,
    /// The consumer's thread handle, registered by the consumer itself
    /// before its first wait.
    thread: OnceLock<std::thread::Thread>,
    /// Count of published-but-unconsumed messages (hot rings + control
    /// sidecar). Incremented *before* publication, decremented after
    /// consumption, so a non-zero hint is a reliable "do not park" signal
    /// and the count can never underflow.
    hint: AtomicUsize,
}

/// Everything both sides of the fabric share.
#[derive(Debug)]
struct Shared<M, C> {
    n: usize,
    /// `rings[to][from]`: the ring carrying lane `from`'s messages to
    /// consumer `to`.
    rings: Vec<Vec<Ring<M>>>,
    /// Cold coordinator → worker lane, one per receiver.
    ctl: Vec<Mutex<VecDeque<C>>>,
    wakers: Vec<Waker>,
    /// Spin budget before yielding. Zero when the host cannot actually
    /// run producer and consumer simultaneously (spinning on a single
    /// core only burns the producer's quantum).
    spin: usize,
}

impl<M, C> Shared<M, C> {
    fn wake(&self, to: usize) {
        let w = &self.wakers[to];
        if w.parked.swap(false, Ordering::SeqCst) {
            if let Some(t) = w.thread.get() {
                t.unpark();
            }
        }
    }
}

/// A producer handle: one lane of the ring matrix. Not `Clone` — the SPSC
/// contract is one producer per lane *at a time*: the holder of the site
/// that owns the `Post`. The threaded backend keeps each `Post` (and the
/// matching [`Mailbox`]) inside a `Mutex`-guarded site that its worker
/// thread and the coordinator take turns holding. That is sound because
/// the lock hand-off is a happens-before edge: the `Relaxed` loads a side
/// makes of its *own* cursor (`tail` in `try_push`, `head` in `pop`) see
/// the previous holder's last store to it, exactly as if one thread had
/// done both, and the `Acquire`/`Release` pairs on the *other* side's
/// cursor never depended on which thread runs a side.
#[derive(Debug)]
pub struct Post<M, C> {
    shared: Arc<Shared<M, C>>,
    lane: usize,
}

impl<M, C> Post<M, C> {
    /// Number of consumers the fabric connects.
    pub fn len(&self) -> usize {
        self.shared.n
    }

    /// Whether the fabric has no consumers.
    pub fn is_empty(&self) -> bool {
        self.shared.n == 0
    }

    /// Publish `msg` on the link to `node`. `Err` hands the message back
    /// when the ring is full — the caller decides how to make progress
    /// (the threaded worker drains its own inbox and retries).
    pub fn to(&self, node: NodeId, msg: M) -> Result<(), M> {
        let w = &self.shared.wakers[node.index()];
        w.hint.fetch_add(1, Ordering::SeqCst);
        match self.shared.rings[node.index()][self.lane].try_push(msg) {
            Ok(()) => {
                self.shared.wake(node.index());
                Ok(())
            }
            Err(msg) => {
                w.hint.fetch_sub(1, Ordering::SeqCst);
                Err(msg)
            }
        }
    }
}

/// The coordinator's handle: pushes control messages on the cold sidecar
/// lanes. Unlike [`Post`] this side is mutual-exclusion protected, so the
/// coordinator needs no lane of its own in the ring matrix.
#[derive(Debug)]
pub struct CtlPost<M, C> {
    shared: Arc<Shared<M, C>>,
}

impl<M, C> CtlPost<M, C> {
    /// Number of consumers the fabric connects.
    pub fn node_count(&self) -> usize {
        self.shared.n
    }

    /// Enqueue a control message for `node`.
    pub fn to(&self, node: NodeId, msg: C) {
        let idx = node.index();
        self.shared.wakers[idx].hint.fetch_add(1, Ordering::SeqCst);
        self.shared.ctl[idx]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push_back(msg);
        self.shared.wake(idx);
    }
}

/// A consumer's receiving end: its row of rings plus its control sidecar.
/// One consumer at a time: the holder of the owning site (see [`Post`]
/// for why handing the end from thread to thread under a lock is sound).
#[derive(Debug)]
pub struct Mailbox<M, C> {
    shared: Arc<Shared<M, C>>,
    me: usize,
}

impl<M, C> Mailbox<M, C> {
    /// A second handle on this inbox, for its worker thread to
    /// [`register`](Mailbox::register) and [`wait`](Mailbox::wait) on
    /// while the mailbox itself sits in a site someone else may hold.
    /// Consuming through it is subject to the same one-at-a-time rule.
    pub fn handle(&self) -> Mailbox<M, C> {
        Mailbox {
            shared: Arc::clone(&self.shared),
            me: self.me,
        }
    }

    /// Register the calling thread as this mailbox's consumer. Must run
    /// on the worker thread before its first [`Mailbox::wait`].
    pub fn register(&self) {
        let _ = self.shared.wakers[self.me]
            .thread
            .set(std::thread::current());
    }

    /// Whether anything (hot or control) is waiting.
    pub fn has_pending(&self) -> bool {
        self.shared.wakers[self.me].hint.load(Ordering::SeqCst) > 0
    }

    /// Drain every available hot message, in lane order and per-lane FIFO,
    /// appending `(sender, message)` pairs to `out`. Returns how many
    /// messages were moved — the batch length one wakeup amortizes. Each
    /// lane is bounded to one full ring per sweep so a producer refilling
    /// mid-drain cannot starve the lanes after it.
    pub fn drain_into(&self, out: &mut VecDeque<(NodeId, M)>) -> usize {
        let mut got = 0usize;
        for from in 0..self.shared.n {
            let ring = &self.shared.rings[self.me][from];
            for _ in 0..ring.slots.len() {
                match ring.pop() {
                    Some(m) => {
                        out.push_back((NodeId(from), m));
                        got += 1;
                    }
                    None => break,
                }
            }
        }
        if got > 0 {
            self.shared.wakers[self.me]
                .hint
                .fetch_sub(got, Ordering::SeqCst);
        }
        got
    }

    /// Pop the next message from one specific lane (replay mode consumes
    /// per-sender streams in oracle order).
    pub fn pop_from(&self, from: NodeId) -> Option<M> {
        let m = self.shared.rings[self.me][from.index()].pop();
        if m.is_some() {
            self.shared.wakers[self.me]
                .hint
                .fetch_sub(1, Ordering::SeqCst);
        }
        m
    }

    /// Take the next control message, if any.
    pub fn pop_ctl(&self) -> Option<C> {
        let m = self.shared.ctl[self.me]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .pop_front();
        if m.is_some() {
            self.shared.wakers[self.me]
                .hint
                .fetch_sub(1, Ordering::SeqCst);
        }
        m
    }

    /// Wait until the inbox is (probably) non-empty: spin briefly (only
    /// when the host has spare cores), then yield a few times, then park
    /// with a bounded timeout. Returns when something is pending or after
    /// one park interval — callers loop, re-drain, and apply their own
    /// watchdogs; this method never blocks unboundedly.
    pub fn wait(&self) {
        let w = &self.shared.wakers[self.me];
        for _ in 0..self.shared.spin {
            if w.hint.load(Ordering::SeqCst) > 0 {
                return;
            }
            std::hint::spin_loop();
        }
        for _ in 0..YIELD_ROUNDS {
            if w.hint.load(Ordering::SeqCst) > 0 {
                return;
            }
            std::thread::yield_now();
        }
        w.parked.store(true, Ordering::SeqCst);
        if w.hint.load(Ordering::SeqCst) > 0 {
            w.parked.store(false, Ordering::SeqCst);
            return;
        }
        std::thread::park_timeout(PARK_INTERVAL);
        w.parked.store(false, Ordering::SeqCst);
    }
}

/// One worker's ends of the fabric: its producer lane and its inbox.
pub type WorkerEnd<M, C> = (Post<M, C>, Mailbox<M, C>);

/// Build a full link matrix over `n` consumers: `n²` pre-allocated SPSC
/// rings (self-links included — free-running timers ride on them), `n`
/// control sidecars, and the wake state. Returns the coordinator's
/// control handle plus one `(Post, Mailbox)` pair per worker, where the
/// `Post` is that worker's producer lane.
pub fn fabric<M, C>(n: usize) -> (CtlPost<M, C>, Vec<WorkerEnd<M, C>>) {
    let capacity = ring_capacity(n);
    let spin = match std::thread::available_parallelism() {
        Ok(p) if p.get() > n => 64,
        _ => 0,
    };
    let shared = Arc::new(Shared {
        n,
        rings: (0..n)
            .map(|_to| (0..n).map(|_from| Ring::new(capacity)).collect())
            .collect(),
        ctl: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
        wakers: (0..n)
            .map(|_| Waker {
                parked: AtomicBool::new(false),
                thread: OnceLock::new(),
                hint: AtomicUsize::new(0),
            })
            .collect(),
        spin,
    });
    let ends = (0..n)
        .map(|i| {
            (
                Post {
                    shared: Arc::clone(&shared),
                    lane: i,
                },
                Mailbox {
                    shared: Arc::clone(&shared),
                    me: i,
                },
            )
        })
        .collect();
    (CtlPost { shared }, ends)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_lane_fifo_is_preserved() {
        let (_ctl, mut ends) = fabric::<(usize, u32), ()>(2);
        let (post0, _box0) = ends.remove(0);
        let (_post1, box1) = ends.remove(0);
        for k in 0..10u32 {
            assert!(post0.to(NodeId(1), (0, k)).is_ok());
        }
        let mut out = VecDeque::new();
        assert_eq!(box1.drain_into(&mut out), 10);
        let got: Vec<u32> = out
            .into_iter()
            .map(|(from, (_, k))| {
                assert_eq!(from, NodeId(0));
                k
            })
            .collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert!(!box1.has_pending());
    }

    #[test]
    fn inflight_counts_up_and_down() {
        let f = InFlight::default();
        assert_eq!(f.load(), 0);
        f.up();
        f.up();
        assert_eq!(f.load(), 2);
        f.down();
        assert_eq!(f.load(), 1);
        f.down();
        assert_eq!(f.load(), 0);
    }

    #[test]
    fn full_ring_hands_the_message_back() {
        let (_ctl, mut ends) = fabric::<u8, ()>(1);
        let (post, mailbox) = ends.remove(0);
        let cap = ring_capacity(1);
        for k in 0..cap {
            assert!(post.to(NodeId(0), k as u8).is_ok(), "push {k}");
        }
        assert_eq!(post.to(NodeId(0), 0xFF), Err(0xFF));
        // Draining frees the whole ring again.
        let mut out = VecDeque::new();
        assert_eq!(mailbox.drain_into(&mut out), cap);
        assert!(post.to(NodeId(0), 0xAA).is_ok());
        assert_eq!(mailbox.pop_from(NodeId(0)), Some(0xAA));
    }

    #[test]
    fn cross_thread_delivery_works_through_park() {
        let (_ctl, mut ends) = fabric::<u64, ()>(2);
        let (post0, _box0) = ends.remove(0);
        let (_post1, box1) = ends.remove(0);
        let h = std::thread::spawn(move || {
            box1.register();
            let mut out = VecDeque::new();
            let mut got = Vec::new();
            while got.len() < 100 {
                if box1.drain_into(&mut out) == 0 {
                    box1.wait();
                }
                while let Some((_, v)) = out.pop_front() {
                    got.push(v);
                }
            }
            got
        });
        for k in 0..100u64 {
            let mut msg = k;
            loop {
                match post0.to(NodeId(1), msg) {
                    Ok(()) => break,
                    Err(back) => {
                        msg = back;
                        std::thread::yield_now();
                    }
                }
            }
        }
        assert_eq!(h.join().unwrap(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn control_sidecar_is_ordered_and_wakes() {
        let (ctl, mut ends) = fabric::<(), u32>(1);
        let (_post, mailbox) = ends.remove(0);
        ctl.to(NodeId(0), 1);
        ctl.to(NodeId(0), 2);
        assert!(mailbox.has_pending());
        assert_eq!(mailbox.pop_ctl(), Some(1));
        assert_eq!(mailbox.pop_ctl(), Some(2));
        assert_eq!(mailbox.pop_ctl(), None);
        assert!(!mailbox.has_pending());
    }

    #[test]
    fn capacity_scales_down_with_fabric_size() {
        assert_eq!(ring_capacity(1), 128);
        assert_eq!(ring_capacity(8), 128);
        assert_eq!(ring_capacity(64), 64);
        assert_eq!(ring_capacity(1024), 4);
    }
}
