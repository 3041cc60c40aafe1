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
//! instead of whole events. Either way one slab cell per pending entry is
//! the only storage, recycled through a free list.
//!
//! A cell holds one event, or one *fan-out entry*
//! ([`EventQueue::push_fan_out`]): one payload delivered to several
//! receivers at one instant. The entry reserves one sequence number per
//! receiver — the numbers consecutive pushes would have taken — and
//! [`EventQueue::pop`] hands it out one receiver at a time, cloning the
//! payload for every receiver but the last. Everything outside the queue
//! sees the per-receiver events; the queue stores the payload once.
//!
//! `pop` takes the earliest run off the heap once and walks it with a
//! cursor. The open run stays open while another run is walked: it is the
//! newest run of its timestamp, so extending it keeps the order. If the
//! walked run is itself the open one, it is the only run of its timestamp
//! and a push there joins its tail, where the cursor reaches it; once its
//! last cell is popped and freed, the next push at that timestamp starts
//! a run of its own.

use crate::message::NodeId;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::binary_heap::BinaryHeap;

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

/// One slab cell: a pending entry and the next cell of its run, or a free
/// cell and the next free one.
#[derive(Debug)]
struct Cell<P> {
    /// The entry's next event; for a fan-out entry, the delivery to the
    /// receiver whose turn it is.
    event: Option<Event<P>>,
    next: u32,
    /// A fan-out entry's later receivers with their channel sequence
    /// numbers, handed out from `cursor` on; emptied (keeping its
    /// capacity) once the last of them is handed out, so `rest` is empty
    /// in every free cell and a fan-out allocates nothing once cells have
    /// grown.
    rest: Vec<(NodeId, u64)>,
    cursor: u32,
}

/// One run in the heap: `(time, order of its first event, first cell)`.
type RunHead = Reverse<(SimTime, u64, u32)>;

/// A deterministic min-priority queue of events.
#[derive(Debug)]
pub struct EventQueue<P> {
    /// Entry storage; a run is linked through `Cell::next`.
    cells: Vec<Cell<P>>,
    /// First cell of the free list.
    free: u32,
    /// The pending runs, earliest `(time, order)` first, except the one
    /// being walked. Indexes events, never holds one.
    runs: BinaryHeap<RunHead>,
    /// The run `pop` is walking, as `(time, next cell)`: taken off the
    /// heap, and the earliest pending run.
    walking: Option<(SimTime, u32)>,
    /// The run the latest push went to, as `(time, last cell)`: the only
    /// run a push may extend.
    open: Option<(SimTime, u32)>,
    /// Pending events, counting a fan-out entry once per receiver left.
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
            walking: None,
            open: None,
            len: 0,
            next_order: 0,
        }
    }

    /// Store `event`, followed by the receivers of `rest`, in a cell that
    /// ends a run.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn store(&mut self, event: Event<P>, rest: &[(NodeId, u64)]) -> u32 {
        match self.cells.get_mut(self.free as usize) {
            Some(cell) => {
                cell.event = Some(event);
                if !rest.is_empty() {
                    cell.rest.extend_from_slice(rest);
                }
                let next_free = std::mem::replace(&mut cell.next, NIL);
                std::mem::replace(&mut self.free, next_free)
            }
            None => {
                #[expect(
                    clippy::disallowed_macros,
                    reason = "debug_assert! documents an invariant and compiles out of release builds"
                )]
                {
                    debug_assert!(self.cells.len() < NIL as usize);
                }
                self.cells.push(Cell {
                    event: Some(event),
                    next: NIL,
                    rest: Vec::from(rest),
                    cursor: 0,
                });
                (self.cells.len() - 1) as u32
            }
        }
    }

    /// Schedule `kind` to fire at `at`.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    pub fn push(&mut self, at: SimTime, kind: EventKind<P>) {
        self.push_fan_out(at, kind, &[]);
    }

    /// Schedule the delivery `first` to fire at `at`, followed by one
    /// delivery of its payload to each receiver of `rest` (with that
    /// receiver's channel sequence number) — as one entry that reserves
    /// the order numbers the deliveries would have taken as consecutive
    /// [`EventQueue::push`]es, and that [`EventQueue::pop`] hands out one
    /// delivery at a time. With `rest` empty this is `push`.
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    pub(crate) fn push_fan_out(
        &mut self,
        at: SimTime,
        first: EventKind<P>,
        rest: &[(NodeId, u64)],
    ) {
        #[expect(
            clippy::disallowed_macros,
            reason = "debug_assert! documents an invariant and compiles out of release builds"
        )]
        {
            debug_assert!(rest.is_empty() || matches!(first, EventKind::Deliver { .. }));
        }
        if self.walking.is_some_and(|(walked_at, _)| at < walked_at) {
            self.shelve_walked_run();
        }
        let order = self.next_order;
        let count = 1 + rest.len();
        self.next_order += count as u64;
        let cell = self.store(
            Event {
                at,
                order,
                kind: first,
            },
            rest,
        );
        let tail = match self.open {
            Some((open_at, last)) if open_at == at => self.cells.get_mut(last as usize),
            _ => None,
        };
        match tail {
            Some(tail) => tail.next = cell,
            None => self.runs.push(Reverse((at, order, cell))),
        }
        self.open = Some((at, cell));
        self.len += count;
    }

    /// Put what is left of the run being walked back on the heap, keyed by
    /// the order of its next event: an earlier timestamp was pushed, so
    /// the run is no longer the earliest. (The simulator never schedules
    /// into the past; this keeps the queue exact for any caller.)
    #[deny(
        clippy::disallowed_macros,
        clippy::disallowed_methods,
        clippy::indexing_slicing
    )]
    fn shelve_walked_run(&mut self) {
        let Some((at, index)) = self.walking.take() else {
            return;
        };
        let next_order = self
            .cells
            .get(index as usize)
            .and_then(|cell| cell.event.as_ref())
            .map(|event| event.order);
        if let Some(order) = next_order {
            self.runs.push(Reverse((at, order, index)));
        }
    }

    /// Time of the earliest pending event.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        match self.walking {
            Some((at, _)) => Some(at),
            None => self.runs.peek().map(|Reverse((at, ..))| *at),
        }
    }

    /// Number of pending events (a fan-out entry counts once per receiver
    /// still to be handed out).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[deny(
    clippy::disallowed_macros,
    clippy::disallowed_methods,
    clippy::indexing_slicing
)]
impl<P: Clone> EventQueue<P> {
    /// Remove and return the earliest event, if any. A fan-out entry with
    /// receivers left hands out a copy addressed to the receiver whose
    /// turn it is; its last receiver gets the stored payload itself.
    pub(crate) fn pop(&mut self) -> Option<Event<P>> {
        let (at, index) = match self.walking.take() {
            Some(walking) => walking,
            None => {
                let Reverse((at, _, first)) = self.runs.pop()?;
                (at, first)
            }
        };
        let cell = self.cells.get_mut(index as usize)?;
        if !cell.rest.is_empty() {
            return self.hand_out(at, index);
        }
        let event = cell.event.take()?;
        let next = std::mem::replace(&mut cell.next, self.free);
        self.free = index;
        if next == NIL {
            // The walked run is used up; its last cell is free now, so if
            // the run is the open one, a later push must start a new run.
            if self.open == Some((at, index)) {
                self.open = None;
            }
        } else {
            self.walking = Some((at, next));
        }
        self.len -= 1;
        Some(event)
    }

    /// Hand out a copy of fan-out entry `index`'s event, and address the
    /// entry to its next receiver: the entry stays the run's next. Kept
    /// out of line, so that `pop` stays small for the single events most
    /// runs are made of.
    #[inline(never)]
    fn hand_out(&mut self, at: SimTime, index: u32) -> Option<Event<P>> {
        let cell = self.cells.get_mut(index as usize)?;
        let &(to, seq) = cell.rest.get(cell.cursor as usize)?;
        let event = cell.event.as_mut()?;
        let copy = event.clone();
        event.order += 1;
        if let EventKind::Deliver {
            to: next_to,
            seq: next_seq,
            ..
        } = &mut event.kind
        {
            (*next_to, *next_seq) = (to, seq);
        }
        cell.cursor += 1;
        if cell.cursor as usize == cell.rest.len() {
            cell.rest.clear();
            cell.cursor = 0;
        }
        self.walking = Some((at, index));
        self.len -= 1;
        Some(copy)
    }

    /// Pop every event sharing the earliest pending timestamp into `into`
    /// (appending, in `(time, order)` order). Returns the number of events
    /// popped.
    pub fn pop_ready_into(&mut self, into: &mut Vec<Event<P>>) -> usize {
        let Some(at) = self.peek_time() else {
            return 0;
        };
        let before = into.len();
        while self.peek_time() == Some(at) {
            into.extend(self.pop());
        }
        into.len() - before
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

    /// An event's model key: a timer's tag, a delivery's sequence number.
    fn key(e: &Event<()>) -> (SimTime, u64, u64) {
        match e.kind {
            EventKind::Timer { tag, .. } => (e.at, e.order, tag),
            EventKind::Deliver { seq, .. } => (e.at, e.order, seq),
            EventKind::Duplicate { .. } => unreachable!("the model test schedules no duplicates"),
        }
    }

    fn deliver<P>(to: usize, seq: u64, payload: P) -> EventKind<P> {
        EventKind::Deliver {
            from: NodeId(0),
            to: NodeId(to),
            seq,
            data_bytes: 0,
            control_bytes: 0,
            payload,
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
            let at = SimTime(time_of(a, i));
            match op % 5 {
                0 | 1 => {
                    queue.push(at, timer(0, b));
                    model.push(at, b);
                }
                2 => assert_eq!(queue.pop().as_ref().map(key), model.pop()),
                3 => {
                    // Drain the earliest timestamp, into an empty buffer
                    // or behind what an earlier drain left there.
                    let leftovers = batch.len();
                    let drained = queue.pop_ready_into(&mut batch);
                    let ready = model.pop_ready();
                    assert_eq!(drained, ready.len());
                    assert_eq!(
                        batch[leftovers..].iter().map(key).collect::<Vec<_>>(),
                        ready
                    );
                    if b % 2 == 0 {
                        batch.clear();
                    }
                }
                _ => {
                    // A fan-out entry of 2–6 receivers, one order number
                    // and one model event each.
                    let receivers: Vec<(NodeId, u64)> = (1..2 + b % 5)
                        .map(|r| (NodeId(r as usize), b * 8 + r))
                        .collect();
                    queue.push_fan_out(at, deliver(0, b * 8, ()), &receivers);
                    model.push(at, b * 8);
                    for &(_, seq) in &receivers {
                        model.push(at, seq);
                    }
                }
            }
            assert_eq!(queue.len(), model.heap.len());
            assert_eq!(queue.is_empty(), model.heap.is_empty());
            assert_eq!(queue.peek_time(), model.heap.peek().map(|Reverse(e)| e.0));
            assert_eq!(queue.next_order, model.next_order);
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
        /// holds many short runs and fan-out entries, and pushes land at
        /// the timestamp being walked, mid-run and mid-entry.
        #[test]
        fn matches_the_heap_model_under_heavy_ties(
            ops in proptest::collection::vec((0u8..5, 0u64..4, 0u64..1000), 0..200)
        ) {
            run_against_model(&ops, |t, _| t);
        }

        /// Every push gets a timestamp of its own, in no particular
        /// order: one entry per run, the jittered-latency regime — and
        /// pushes earlier than the run being walked.
        #[test]
        fn matches_the_heap_model_with_distinct_timestamps(
            ops in proptest::collection::vec((0u8..5, 0u64..50, 0u64..1000), 0..200)
        ) {
            run_against_model(&ops, |t, i| t * 1000 + i as u64);
        }

        /// Ten operations in a row share a timestamp, cycling over three:
        /// long runs of events and fan-out entries that are popped from
        /// and drained while still open, and several runs per timestamp —
        /// the constant-latency regime.
        #[test]
        fn matches_the_heap_model_with_long_runs(
            ops in proptest::collection::vec((0u8..5, 0u64..4, 0u64..1000), 0..300)
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

    fn tag_of<P>(e: &Event<P>) -> u64 {
        match e.kind {
            EventKind::Timer { tag, .. } => tag,
            EventKind::Deliver { seq, .. } => seq,
            EventKind::Duplicate { .. } => unreachable!(),
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
        let tags: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| tag_of(&e)).collect();
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
        assert_eq!(q.next_order, 2);
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
        let tags: Vec<u64> = batch.iter().map(tag_of).collect();
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
    fn a_push_at_the_walked_timestamp_pops_after_the_run() {
        let mut q = EventQueue::new();
        for tag in 0..5u64 {
            q.push(SimTime(10), timer(0, tag));
        }
        // Walk the run part of the way, as a budget-bounded run does…
        assert_eq!(q.pop().map(|e| tag_of(&e)), Some(0));
        assert_eq!(q.pop().map(|e| tag_of(&e)), Some(1));
        // …then schedule "during processing" at the same timestamp: the
        // new event sorts after the rest of the run.
        q.push(SimTime(10), timer(0, 99));
        let tags: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| tag_of(&e)).collect();
        assert_eq!(tags, vec![2, 3, 4, 99]);
        assert_eq!(q.next_order, 6);
    }

    /// A payload that counts its clones.
    #[derive(Debug)]
    struct Counted(std::rc::Rc<std::cell::Cell<u32>>);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.0.set(self.0.get() + 1);
            Counted(std::rc::Rc::clone(&self.0))
        }
    }

    #[test]
    fn a_fan_out_entry_hands_out_one_receiver_per_pop() {
        let clones = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut q = EventQueue::new();
        q.push(
            SimTime(10),
            deliver(9, 0, Counted(std::rc::Rc::clone(&clones))),
        );
        q.push_fan_out(
            SimTime(10),
            deliver(1, 11, Counted(std::rc::Rc::clone(&clones))),
            &[(NodeId(2), 12), (NodeId(3), 13)],
        );
        // One order number and one pending event per receiver.
        assert_eq!(q.len(), 4);
        assert_eq!(q.next_order, 4);
        let popped: Vec<(u64, usize, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Deliver { to, seq, .. } => (e.order, to.index(), seq),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(popped, vec![(0, 9, 0), (1, 1, 11), (2, 2, 12), (3, 3, 13)]);
        // Every receiver but the last got a copy.
        assert_eq!(clones.get(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn a_push_mid_entry_waits_for_the_entry_to_finish() {
        let mut q = EventQueue::new();
        q.push_fan_out(
            SimTime(10),
            deliver(1, 1, ()),
            &[(NodeId(2), 2), (NodeId(3), 3)],
        );
        assert_eq!(q.pop().map(|e| tag_of(&e)), Some(1));
        q.push(SimTime(10), timer(0, 99));
        q.push(SimTime(5), timer(0, 50));
        assert_eq!(q.len(), 4);
        // The earlier timestamp first, then the rest of the entry, then
        // the push made while it was being handed out.
        let tags: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| tag_of(&e)).collect();
        assert_eq!(tags, vec![50, 2, 3, 99]);
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
