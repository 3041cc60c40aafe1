//! The threaded backend's sites under contention and death, through the
//! public API only: program order between a node's pipelined lane and
//! the synchronous calls that run in place, the coordinator contending
//! with busy workers for their site locks, the coordinator as a sender
//! against a full ring, and what a panic on either side of a site lock
//! turns into.

use simnet::chan::ring_capacity;
use simnet::message::RawPayload;
use simnet::{Node, NodeContext, NodeId, SimConfig, ThreadedMode, ThreadedNet, WorkerDead};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Counts arrivals and passes a token back until its count runs out.
#[derive(Clone, Debug, Default)]
struct Bouncer {
    seen: u64,
}

impl Node<RawPayload> for Bouncer {
    fn on_message(&mut self, ctx: &mut NodeContext<RawPayload>, from: NodeId, msg: RawPayload) {
        self.seen += 1;
        if msg.data > 0 {
            ctx.send(from, RawPayload::new(msg.data - 1, 0));
        }
    }
}

fn net(n: usize) -> ThreadedNet<RawPayload, Bouncer> {
    ThreadedNet::new(
        ThreadedMode::FreeRunning,
        SimConfig::default(),
        vec![Bouncer::default(); n],
    )
}

#[test]
fn synchronous_calls_wait_for_their_own_lane_only() {
    let mut net = net(2);
    // Program order: a query sees every invoke pipelined before it.
    for round in 1..=1000u64 {
        for _ in 0..4 {
            net.with_node_async(NodeId(0), |n, _| n.seen += 1);
        }
        assert_eq!(net.query(NodeId(0), |n| n.seen), 4 * round);
    }
    // Hold node 0's lane behind a gate: node 1 still answers, both to
    // queries and to closures that send, while node 0 cannot.
    let gate = Arc::new(AtomicBool::new(false));
    let held = Arc::clone(&gate);
    net.with_node_async(NodeId(0), move |_, _| {
        while !held.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
    });
    assert_eq!(net.query(NodeId(1), |n| n.seen), 0);
    net.with_node(NodeId(1), |_, ctx| {
        ctx.send(NodeId(0), RawPayload::new(0, 1))
    });
    gate.store(true, Ordering::SeqCst);
    assert!(net.settle().is_quiescent());
    assert_eq!(net.query(NodeId(0), |n| n.seen), 4001);
}

#[test]
fn ping_pong_survives_a_coordinator_hammering_both_sites() {
    const MESSAGES: usize = 50_000;
    let mut net = net(2);
    net.with_node(NodeId(0), |_, ctx| {
        ctx.send(NodeId(1), RawPayload::new(MESSAGES - 1, 0));
    });
    // Contend for both site locks for as long as the token bounces.
    let started = Instant::now();
    let mut last = 0;
    while net.pending() > 0 {
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "ping-pong stalled under contention"
        );
        for i in 0..2 {
            let seen = net.query(NodeId(i), |n| n.seen);
            net.with_node(NodeId(i), |_, _| ());
            if i == 0 {
                assert!(seen >= last, "a site went backwards");
                last = seen;
            }
        }
    }
    assert!(net.settle().is_quiescent());
    assert_eq!(net.stats().total_messages(), MESSAGES as u64);
    let seen: u64 = (0..2).map(|i| net.query(NodeId(i), |n| n.seen)).sum();
    assert_eq!(seen, MESSAGES as u64);
}

/// The coordinator as a sender: a synchronous closure that outruns a
/// ring stalls, absorbs its site's own rings into the backlog, and
/// handles that backlog before it lets go — nothing is lost. On the
/// self-link nobody else can drain the ring, so the stall is certain.
#[test]
fn a_synchronous_closure_that_overruns_a_ring_stalls_and_loses_nothing() {
    let burst = 4 * ring_capacity(2);
    for to in [1usize, 0] {
        let mut net = net(2);
        net.with_node(NodeId(0), move |_, ctx| {
            for _ in 0..burst {
                ctx.send(NodeId(to), RawPayload::new(0, 1));
            }
        });
        assert!(net.settle().is_quiescent());
        assert_eq!(net.query(NodeId(to), |n| n.seen), burst as u64);
        assert_eq!(net.stats().total_messages(), burst as u64);
        if to == 0 {
            assert!(net.fabric_stats().full_stalls > 0);
        }
    }
}

/// A panic inside a pipelined invoke leaves that lane one message short
/// forever; the lane-drain wait of the next synchronous call must report
/// the death, not hang on the count.
#[test]
fn a_panicking_pipelined_invoke_surfaces_from_the_lane_wait() {
    let mut net = net(3);
    net.with_node_async(NodeId(1), |_, _| panic!("pipelined invoke detonated"));
    let dead = WorkerDead { node: NodeId(1) };
    assert_eq!(net.try_query(NodeId(1), |n| n.seen).unwrap_err(), dead);
    assert_eq!(net.try_with_node(NodeId(1), |_, _| ()).unwrap_err(), dead);
    assert_eq!(net.try_settle().unwrap_err(), dead);
    assert_eq!(net.try_query(NodeId(0), |n| n.seen).unwrap_err(), dead);
    assert_eq!(net.into_nodes().len(), 2);
}

/// A closure the coordinator runs in place panics on the caller's
/// thread, so it unwinds to the caller; the site is left poisoned,
/// reports dead from then on, and teardown still joins every worker.
#[test]
fn a_panicking_synchronous_closure_unwinds_to_the_caller_and_kills_the_site() {
    let mut net = net(3);
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        net.with_node(NodeId(1), |_, _| panic!("synchronous closure detonated"));
    }));
    assert!(unwound.is_err());
    let dead = WorkerDead { node: NodeId(1) };
    assert_eq!(net.try_query(NodeId(1), |n| n.seen).unwrap_err(), dead);
    assert_eq!(net.try_with_node(NodeId(0), |_, _| ()).unwrap_err(), dead);
    assert_eq!(net.try_settle().unwrap_err(), dead);
    assert_eq!(net.into_nodes().len(), 2);
}
