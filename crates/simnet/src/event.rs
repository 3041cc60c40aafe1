//! The discrete-event queue.
//!
//! Events are ordered by `(time, sequence)` where the sequence number is the
//! global order in which events were scheduled; this makes simulation runs
//! deterministic even when many events share a timestamp.
//!
//! The queue stores events in *runs*: a run is a maximal sequence of
//! consecutive pushes to one timestamp, kept as a linked list through a
//! slab of cells, and a binary heap holds one 24-byte entry per run —
//! `(time, sequence of the run's first event)`. Popping runs in that order
//! and each run front to back is the `(time, sequence)` order, because
//! sequence numbers are global and monotone: the runs of one timestamp
//! cover disjoint, increasing ranges of them.
//!
//! With a constant link latency every send made while one timestamp is
//! processed lands on the same later timestamp, so a push appends to the
//! open run without touching the heap and a whole run leaves with one heap
//! pop. With jittered latencies every event is a run of its own and the
//! queue is a binary heap again — O(log n) per event — over small keys
//! instead of whole events. Either way one slab cell per pending event is
//! the only storage, recycled through a free list.

use crate::message::NodeId;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// What happens when an event fires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind<P> {
    /// Deliver a message payload to `to`, sent by `from`.
    Deliver {
        /// Sender of the message.
        from: NodeId,
        /// Receiver of the message.
        to: NodeId,
        /// Per-sender-channel sequence number.
        seq: u64,
        /// Data bytes of `payload`, computed once when it was sent.
        data_bytes: usize,
        /// Control bytes of `payload`, computed once when it was sent.
        control_bytes: usize,
        /// The payload.
        payload: P,
    },
    /// Wake node `node` for a timer it requested.
    Timer {
        /// The node to wake.
        node: NodeId,
        /// Protocol-chosen tag identifying which timer fired.
        tag: u64,
    },
    /// A duplicate copy of an already-delivered message, produced by the
    /// fault schedule. The receiver's link layer discards it on arrival
    /// (sequence-number deduplication), so it never reaches the node —
    /// but it paid wire bytes and is counted.
    Duplicate {
        /// Sender of the original message.
        from: NodeId,
        /// Receiver whose link layer discards the copy.
        to: NodeId,
    },
}

/// A scheduled event.
#[derive(Clone, Debug)]
pub struct Event<P> {
    /// When the event fires.
    pub at: SimTime,
    /// Global scheduling order, used to break ties deterministically.
    pub order: u64,
    /// The action to perform.
    pub kind: EventKind<P>,
}

/// "No cell": ends a run and the free list.
const NIL: u32 = u32::MAX;

/// One slab cell: a pending event and the next cell of its run, or a free
/// cell and the next free one.
#[derive(Debug)]
struct Cell<P> {
    event: Option<Event<P>>,
    next: u32,
}

/// One run in the heap: `(time, order of its first event, first cell)`.
type RunHead = Reverse<(SimTime, u64, u32)>;

/// A deterministic min-priority queue of events.
#[derive(Debug)]
pub struct EventQueue<P> {
    /// Event storage; a run is linked through `Cell::next`.
    cells: Vec<Cell<P>>,
    /// First cell of the free list.
    free: u32,
    /// The pending runs, earliest `(time, order)` first. Indexes events,
    /// never holds one.
    runs: BinaryHeap<RunHead>,
    /// The run the latest push went to, as `(time, last cell)`: the only
    /// run a push may extend.
    open: Option<(SimTime, u32)>,
    len: usize,
    next_order: u64,
}

impl<P> Default for EventQueue<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P> EventQueue<P> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            cells: Vec::new(),
            free: NIL,
            runs: BinaryHeap::new(),
            open: None,
            len: 0,
            next_order: 0,
        }
    }

    /// Store `event` in a cell that ends a run.
    fn store(&mut self, event: Event<P>) -> u32 {
        let filled = Cell {
            event: Some(event),
            next: NIL,
        };
        let index = self.free;
        match self.cells.get_mut(index as usize) {
            Some(cell) => {
                self.free = cell.next;
                *cell = filled;
                index
            }
            None => {
                debug_assert!(self.cells.len() < NIL as usize);
                self.cells.push(filled);
                (self.cells.len() - 1) as u32
            }
        }
    }

    /// Schedule `kind` to fire at `at`.
    pub fn push(&mut self, at: SimTime, kind: EventKind<P>) {
        let order = self.next_order;
        self.next_order += 1;
        let cell = self.store(Event { at, order, kind });
        let tail = match self.open {
            Some((open_at, last)) if open_at == at => self.cells.get_mut(last as usize),
            _ => None,
        };
        match tail {
            Some(tail) => tail.next = cell,
            None => self.runs.push(Reverse((at, order, cell))),
        }
        self.open = Some((at, cell));
        self.len += 1;
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<Event<P>> {
        let mut run = self.runs.peek_mut()?;
        let Reverse((at, _, first)) = *run;
        let cell = self.cells.get_mut(first as usize)?;
        let event = cell.event.take()?;
        let next = std::mem::replace(&mut cell.next, self.free);
        self.free = first;
        self.len -= 1;
        // The run goes on with its next event, or is over.
        match self.cells.get(next as usize).and_then(|c| c.event.as_ref()) {
            Some(following) => *run = Reverse((at, following.order, next)),
            None => {
                PeekMut::pop(run);
                if self.open.is_some_and(|(_, last)| last == first) {
                    self.open = None;
                }
            }
        }
        Some(event)
    }

    /// Drain every event sharing the earliest pending timestamp into
    /// `into` (appending, in `(time, order)` order). Returns the number of
    /// events drained.
    ///
    /// This is the batched-delivery entry point: each run of the timestamp
    /// costs one heap pop, and its cells go back to the free list in one
    /// splice. Order is preserved exactly: events scheduled *while the
    /// batch is processed* carry strictly larger order numbers than every
    /// drained event (order numbers are global and monotone), so they sort
    /// after the batch even at the same timestamp — the interleaving is
    /// bit-identical to the one-at-a-time loop.
    pub fn pop_ready_into(&mut self, into: &mut Vec<Event<P>>) -> usize {
        let Some(at) = self.peek_time() else {
            return 0;
        };
        let before = into.len();
        while let Some(run) = self.runs.peek_mut() {
            let Reverse((run_at, _, first)) = *run;
            if run_at != at {
                break;
            }
            PeekMut::pop(run);
            let (mut index, mut last) = (first, first);
            while let Some(cell) = self.cells.get_mut(index as usize) {
                into.extend(cell.event.take());
                last = index;
                index = cell.next;
            }
            if let Some(cell) = self.cells.get_mut(last as usize) {
                cell.next = self.free;
                self.free = first;
            }
            if self.open.is_some_and(|(_, open_last)| open_last == last) {
                self.open = None;
            }
        }
        let drained = into.len() - before;
        self.len -= drained;
        drained
    }

    /// Reinsert an event that was drained (via [`EventQueue::pop`] or
    /// [`EventQueue::pop_ready_into`]) but not processed — for example
    /// when an event budget expires mid-batch. The event keeps its
    /// original `order` and comes back as a run of its own, so it pops
    /// again in exactly the position it would have occupied had it never
    /// been drained: what is left of the run it came from starts at a
    /// larger order, and no other run's range contains its order.
    pub fn requeue(&mut self, event: Event<P>) {
        let (at, order) = (event.at, event.order);
        let cell = self.store(event);
        self.runs.push(Reverse((at, order, cell)));
        self.len += 1;
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.runs.peek().map(|Reverse((at, ..))| *at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled.
    pub fn scheduled_total(&self) -> u64 {
        self.next_order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference model: the binary heap of whole events over
    /// `(time, order)` that the run queue replaced, carrying each event's
    /// tag.
    #[derive(Default)]
    struct HeapModel {
        heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
        next_order: u64,
    }

    impl HeapModel {
        fn push(&mut self, at: SimTime, tag: u64) {
            self.heap.push(Reverse((at, self.next_order, tag)));
            self.next_order += 1;
        }

        fn pop(&mut self) -> Option<(SimTime, u64, u64)> {
            self.heap.pop().map(|Reverse(e)| e)
        }

        fn pop_ready(&mut self) -> Vec<(SimTime, u64, u64)> {
            let Some(&Reverse((at, ..))) = self.heap.peek() else {
                return Vec::new();
            };
            let mut ready = Vec::new();
            while self.heap.peek().is_some_and(|Reverse(e)| e.0 == at) {
                ready.extend(self.pop());
            }
            ready
        }
    }

    fn key(e: &Event<()>) -> (SimTime, u64, u64) {
        match e.kind {
            EventKind::Timer { tag, .. } => (e.at, e.order, tag),
            _ => unreachable!("the model test schedules timers only"),
        }
    }

    /// Drive the queue and the heap model through the same operations and
    /// compare everything observable after each one. `time_of` maps an
    /// operation's time argument and index to a timestamp.
    fn run_against_model(ops: &[(u8, u64, u64)], time_of: impl Fn(u64, usize) -> u64) {
        let mut queue: EventQueue<()> = EventQueue::new();
        let mut model = HeapModel::default();
        let mut batch = Vec::new();
        for (i, &(op, a, b)) in ops.iter().enumerate() {
            match op % 4 {
                0 | 1 => {
                    let at = SimTime(time_of(a, i));
                    queue.push(at, timer(0, b));
                    model.push(at, b);
                }
                2 => assert_eq!(queue.pop().as_ref().map(key), model.pop()),
                _ => {
                    // Drain the earliest timestamp (into an empty buffer
                    // or behind leftovers), process a prefix, requeue the
                    // rest — the event-budget path of the simulator.
                    let leftovers = batch.len();
                    let drained = queue.pop_ready_into(&mut batch);
                    let ready = model.pop_ready();
                    assert_eq!(drained, ready.len());
                    assert_eq!(
                        batch[leftovers..].iter().map(key).collect::<Vec<_>>(),
                        ready
                    );
                    let processed = if drained == 0 {
                        0
                    } else {
                        a as usize % (drained + 1)
                    };
                    for event in batch.drain(leftovers + processed..) {
                        model.heap.push(Reverse(key(&event)));
                        queue.requeue(event);
                    }
                    if b % 2 == 0 {
                        batch.clear();
                    }
                }
            }
            assert_eq!(queue.len(), model.heap.len());
            assert_eq!(queue.is_empty(), model.heap.is_empty());
            assert_eq!(queue.peek_time(), model.heap.peek().map(|Reverse(e)| e.0));
            assert_eq!(queue.scheduled_total(), model.next_order);
        }
        // Whatever is left pops in the model's order.
        while let Some(expected) = model.pop() {
            assert_eq!(queue.pop().as_ref().map(key), Some(expected));
        }
        assert!(queue.pop().is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Four timestamps for up to 200 operations: each timestamp
        /// holds many short runs, requeues land in front of later pushes
        /// at their time.
        #[test]
        fn matches_the_heap_model_under_heavy_ties(
            ops in proptest::collection::vec((0u8..4, 0u64..4, 0u64..1000), 0..200)
        ) {
            run_against_model(&ops, |t, _| t);
        }

        /// Every push gets a timestamp of its own, in no particular
        /// order: one event per run, the jittered-latency regime.
        #[test]
        fn matches_the_heap_model_with_distinct_timestamps(
            ops in proptest::collection::vec((0u8..4, 0u64..50, 0u64..1000), 0..200)
        ) {
            run_against_model(&ops, |t, i| t * 1000 + i as u64);
        }

        /// Ten operations in a row share a timestamp, cycling over three:
        /// long runs that are popped from, drained and requeued while
        /// still open, and several runs per timestamp — the
        /// constant-latency regime.
        #[test]
        fn matches_the_heap_model_with_long_runs(
            ops in proptest::collection::vec((0u8..4, 0u64..4, 0u64..1000), 0..300)
        ) {
            run_against_model(&ops, |_, i| (i as u64 / 10) % 3);
        }
    }

    fn timer(node: usize, tag: u64) -> EventKind<()> {
        EventKind::Timer {
            node: NodeId(node),
            tag,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), timer(0, 0));
        q.push(SimTime(10), timer(1, 1));
        q.push(SimTime(20), timer(2, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.at.as_nanos())
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for tag in 0..10u64 {
            q.push(SimTime(100), timer(0, tag));
        }
        let tags: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { tag, .. } => tag,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tags, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len_track_contents() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime(5), timer(0, 0));
        q.push(SimTime(3), timer(0, 1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime(3)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime(5)));
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn batch_drain_pops_exactly_the_earliest_timestamp() {
        let mut q = EventQueue::new();
        q.push(SimTime(20), timer(0, 0));
        q.push(SimTime(10), timer(1, 1));
        q.push(SimTime(10), timer(2, 2));
        q.push(SimTime(30), timer(3, 3));
        let mut batch = Vec::new();
        assert_eq!(q.pop_ready_into(&mut batch), 2);
        let tags: Vec<u64> = batch
            .iter()
            .map(|e| match e.kind {
                EventKind::Timer { tag, .. } => tag,
                _ => unreachable!(),
            })
            .collect();
        // Insertion order within the shared timestamp.
        assert_eq!(tags, vec![1, 2]);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime(20)));
        // Draining an empty queue is a no-op.
        batch.clear();
        q.pop_ready_into(&mut batch);
        q.pop_ready_into(&mut batch);
        assert_eq!(q.pop_ready_into(&mut batch), 0);
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn batch_drain_matches_single_pops_exactly() {
        let build = || {
            let mut q = EventQueue::new();
            for i in 0..50u64 {
                q.push(SimTime(100 + (i % 7)), timer(0, i));
            }
            q
        };
        let mut singles = Vec::new();
        let mut q = build();
        while let Some(e) = q.pop() {
            singles.push((e.at, e.order));
        }
        let mut batched = Vec::new();
        let mut q = build();
        let mut scratch = Vec::new();
        while q.pop_ready_into(&mut scratch) > 0 {
            for e in scratch.drain(..) {
                batched.push((e.at, e.order));
            }
        }
        assert_eq!(singles, batched);
    }

    #[test]
    fn requeue_restores_the_original_position() {
        let mut q = EventQueue::new();
        for tag in 0..5u64 {
            q.push(SimTime(10), timer(0, tag));
        }
        let mut batch = Vec::new();
        q.pop_ready_into(&mut batch);
        assert!(q.is_empty());
        // Process the first two, put the rest back (budget expiry).
        for e in batch.drain(..).skip(2) {
            q.requeue(e);
        }
        // New events scheduled "during processing" sort after them.
        q.push(SimTime(10), timer(0, 99));
        let tags: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { tag, .. } => tag,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(tags, vec![2, 3, 4, 99]);
        // Requeues do not inflate the scheduled total.
        assert_eq!(q.scheduled_total(), 6);
    }

    #[test]
    fn deliver_events_round_trip_payload() {
        let mut q = EventQueue::new();
        q.push(
            SimTime(1),
            EventKind::Deliver {
                from: NodeId(0),
                to: NodeId(1),
                seq: 9,
                data_bytes: 5,
                control_bytes: 0,
                payload: "hello",
            },
        );
        match q.pop().unwrap().kind {
            EventKind::Deliver {
                from,
                to,
                seq,
                payload,
                ..
            } => {
                assert_eq!((from, to, seq, payload), (NodeId(0), NodeId(1), 9, "hello"));
            }
            _ => panic!("expected deliver"),
        }
    }
}
