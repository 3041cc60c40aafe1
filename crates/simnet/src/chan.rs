//! One inbox per receiver: the link fabric of the threaded backend.
//!
//! The paper's model is reliable FIFO point-to-point links. Here every
//! receiver owns one unbounded inbox, a `Mutex<VecDeque>` of
//! `(sender, message)` pairs that every sender pushes into. Per-link FIFO
//! holds because each message is one push under the receiver's lock, in
//! the sender's send order, and a drain takes a prefix of the queue. A
//! push never fails: in-flight data is bounded only by the heap.
//!
//! Three more pieces round out the fabric:
//!
//! * a **control sidecar** per receiver (another `Mutex<VecDeque>`) for
//!   the coordinator → worker path (pipelined invokes, replay schedules,
//!   shutdown);
//! * a per-receiver **waker** implementing the adaptive
//!   spin → yield → park strategy (see [`Mailbox::wait`]). Its hint counts
//!   the messages waiting in both queues: a sender raises it *before* the
//!   push and `unpark`s a sleeping consumer after it, and a drain lowers
//!   it only after the messages are taken, so a non-zero hint is a
//!   reliable "do not park" signal and never underflows;
//! * **batched drains**: [`Mailbox::drain_into`] takes the whole inbox in
//!   one hold of its lock, so one wakeup processes a whole burst
//!   (flat-combining style) instead of paying one receive per message.
//!
//! Both threaded modes count events in [`InFlight`], a shared atomic
//! counter of protocol events (deliveries and timer firings) that have
//! been accepted into the fabric but not yet fully processed:
//! free-running detects quiescence with it, and replay checks that a
//! finished schedule left nothing the oracle did not name. The
//! counter is incremented *before* a send and decremented only after the
//! receiving worker has run the handler **and flushed its outbox** (each
//! send in the flush increments before the triggering event decrements),
//! so the count can only reach zero when no handler is running and no
//! message is buffered anywhere — a genuine global quiescence point.

use crate::message::NodeId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// Shared count of protocol events in flight (sent but not fully
/// processed). Zero means the fabric is quiescent.
#[derive(Debug, Default)]
pub struct InFlight(AtomicU64);

impl InFlight {
    /// Record one event entering the fabric. Must happen *before* the
    /// corresponding push.
    pub(crate) fn up(&self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }

    /// Record one event fully processed (handler run and outbox flushed).
    pub(crate) fn down(&self) {
        let prev = self.0.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev > 0, "InFlight underflow");
    }

    /// Current number of in-flight events.
    pub(crate) fn load(&self) -> u64 {
        self.0.load(Ordering::SeqCst)
    }
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

/// Lock a queue. No code panics while holding one, but a poisoned lock is
/// recovered from anyway rather than unwrapped.
fn lock<T>(queue: &Mutex<T>) -> MutexGuard<'_, T> {
    queue.lock().unwrap_or_else(PoisonError::into_inner)
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
    /// Count of published-but-unconsumed messages (inbox + control
    /// sidecar). Incremented *before* publication, decremented after
    /// consumption.
    hint: AtomicUsize,
}

/// Everything both sides of the fabric share.
#[derive(Debug)]
struct Shared<M, C> {
    /// One inbox per receiver, of `(sender, message)` in push order.
    inbox: Vec<Mutex<VecDeque<(NodeId, M)>>>,
    /// Coordinator → worker lane, one per receiver.
    ctl: Vec<Mutex<VecDeque<C>>>,
    wakers: Vec<Waker>,
    /// Spin budget before yielding. Zero when the host cannot actually
    /// run producer and consumer simultaneously (spinning on a single
    /// core only burns the producer's quantum).
    spin: usize,
}

impl<M, C> Shared<M, C> {
    /// Raise `to`'s hint before a push (the push follows at once).
    fn announce(&self, to: usize) {
        self.wakers[to].hint.fetch_add(1, Ordering::SeqCst);
    }

    /// Unpark `to`'s consumer after a push, if it may be parked.
    fn wake(&self, to: usize) {
        let w = &self.wakers[to];
        if w.parked.swap(false, Ordering::SeqCst) {
            if let Some(t) = w.thread.get() {
                t.unpark();
            }
        }
    }
}

/// A producer handle: sends as one node (its *lane*) to any receiver.
#[derive(Debug)]
pub struct Post<M, C> {
    shared: Arc<Shared<M, C>>,
    lane: usize,
}

impl<M, C> Post<M, C> {
    /// Push `msg` onto `node`'s inbox, behind everything sent to it
    /// before. Never fails: the inbox is unbounded. The `Result` is kept
    /// only for callers that already bind it; it is always `Ok`.
    pub fn to(&self, node: NodeId, msg: M) -> Result<(), M> {
        let idx = node.index();
        self.shared.announce(idx);
        lock(&self.shared.inbox[idx]).push_back((NodeId(self.lane), msg));
        self.shared.wake(idx);
        Ok(())
    }
}

/// The coordinator's handle: pushes control messages on the sidecar
/// lanes. It needs no lane of its own among the senders.
#[derive(Debug)]
pub struct CtlPost<M, C> {
    shared: Arc<Shared<M, C>>,
}

impl<M, C> CtlPost<M, C> {
    /// Enqueue a control message for `node`.
    pub(crate) fn to(&self, node: NodeId, msg: C) {
        let idx = node.index();
        self.shared.announce(idx);
        lock(&self.shared.ctl[idx]).push_back(msg);
        self.shared.wake(idx);
    }
}

/// A consumer's receiving end: its inbox plus its control sidecar.
#[derive(Debug)]
pub struct Mailbox<M, C> {
    shared: Arc<Shared<M, C>>,
    me: usize,
}

impl<M, C> Mailbox<M, C> {
    /// A second handle on this inbox, for its worker thread to
    /// [`register`](Mailbox::register) and [`wait`](Mailbox::wait) on
    /// while the mailbox itself sits in a site someone else may hold.
    pub(crate) fn handle(&self) -> Mailbox<M, C> {
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

    /// Move the whole inbox, in push order, behind the contents of `out`,
    /// as `(sender, message)` pairs. Returns how many messages were moved
    /// — the batch length one wakeup amortizes. Into an empty `out` the
    /// drain is one swap under the lock: `out`'s buffer, and its
    /// capacity, become the new inbox.
    pub fn drain_into(&self, out: &mut VecDeque<(NodeId, M)>) -> usize {
        let got = {
            let mut inbox = lock(&self.shared.inbox[self.me]);
            let got = inbox.len();
            if out.is_empty() {
                std::mem::swap(&mut *inbox, out);
            } else {
                out.append(&mut inbox);
            }
            got
        };
        if got > 0 {
            self.shared.wakers[self.me]
                .hint
                .fetch_sub(got, Ordering::SeqCst);
        }
        got
    }

    /// Take the next control message, if any.
    pub(crate) fn pop_ctl(&self) -> Option<C> {
        let m = lock(&self.shared.ctl[self.me]).pop_front();
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

/// Build the fabric over `n` nodes: one inbox each (a node may send to
/// itself — free-running timers ride on that), one control sidecar each,
/// and the wake state. Returns the coordinator's control handle plus one
/// `(Post, Mailbox)` pair per worker, where the `Post` sends as that
/// worker.
pub fn fabric<M, C>(n: usize) -> (CtlPost<M, C>, Vec<WorkerEnd<M, C>>) {
    let spin = match std::thread::available_parallelism() {
        Ok(p) if p.get() > n => 64,
        _ => 0,
    };
    let shared = Arc::new(Shared {
        inbox: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
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

    /// Whether anything (inbox or control) is waiting, by the wake hint.
    fn has_pending<M, C>(mailbox: &Mailbox<M, C>) -> bool {
        mailbox.shared.wakers[mailbox.me]
            .hint
            .load(Ordering::SeqCst)
            > 0
    }

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
        assert!(!has_pending(&box1));
    }

    /// A drain into a buffer that still holds arrivals (a replaying site
    /// keeps what its schedule has not named yet) appends behind them.
    #[test]
    fn a_drain_into_a_non_empty_buffer_appends_behind_it() {
        let (_ctl, mut ends) = fabric::<u32, ()>(2);
        let (post0, box0) = ends.remove(0);
        let (post1, _box1) = ends.remove(0);
        let mut out = VecDeque::from([(NodeId(1), 7)]);
        post1.to(NodeId(0), 1).unwrap();
        post0.to(NodeId(0), 2).unwrap();
        assert_eq!(box0.drain_into(&mut out), 2);
        assert_eq!(
            Vec::from(out),
            [(NodeId(1), 7), (NodeId(1), 1), (NodeId(0), 2)]
        );
        assert!(!has_pending(&box0));
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
            post0.to(NodeId(1), k).unwrap();
        }
        assert_eq!(h.join().unwrap(), (0..100).collect::<Vec<_>>());
    }

    /// Three senders push into one inbox while its consumer drains: each
    /// sender's messages arrive once each, in the order it sent them.
    #[test]
    fn many_senders_keep_per_sender_fifo_into_one_inbox() {
        const SENDERS: usize = 3;
        const EACH: u32 = 1_000;
        let (_ctl, mut ends) = fabric::<u32, ()>(SENDERS + 1);
        let (_post, inbox) = ends.pop().unwrap();
        let done = Arc::new(AtomicBool::new(false));
        let sent = Arc::clone(&done);
        let consumer = std::thread::spawn(move || {
            inbox.register();
            let mut out = VecDeque::new();
            let mut next = [0u32; SENDERS];
            loop {
                // Read before the drain: once every push is done, a drain
                // that comes back empty means nothing is left.
                let finished = sent.load(Ordering::SeqCst);
                if inbox.drain_into(&mut out) == 0 {
                    if finished {
                        break;
                    }
                    inbox.wait();
                }
                for (from, k) in out.drain(..) {
                    assert_eq!(k, next[from.index()], "from {from}");
                    next[from.index()] += 1;
                }
            }
            assert!(!has_pending(&inbox));
            next
        });
        let senders: Vec<_> = ends
            .into_iter()
            .map(|(post, _)| {
                std::thread::spawn(move || {
                    for k in 0..EACH {
                        post.to(NodeId(SENDERS), k).unwrap();
                    }
                })
            })
            .collect();
        for sender in senders {
            sender.join().unwrap();
        }
        done.store(true, Ordering::SeqCst);
        assert_eq!(consumer.join().unwrap(), [EACH; SENDERS]);
    }

    #[test]
    fn control_sidecar_is_ordered_and_wakes() {
        let (ctl, mut ends) = fabric::<(), u32>(1);
        let (_post, mailbox) = ends.remove(0);
        ctl.to(NodeId(0), 1);
        ctl.to(NodeId(0), 2);
        assert!(has_pending(&mailbox));
        assert_eq!(mailbox.pop_ctl(), Some(1));
        assert_eq!(mailbox.pop_ctl(), Some(2));
        assert_eq!(mailbox.pop_ctl(), None);
        assert!(!has_pending(&mailbox));
    }
}
