//! The threaded backend's sites under contention and death, through the
//! public API only: program order between a node's pipelined lane and
//! the synchronous calls that run in place (running the lane themselves
//! when the worker is not), the coordinator contending with busy workers
//! for their site locks, the coordinator as the sender of a burst, and
//! what a panic on either side of a site lock turns into.

use simnet::{
    Net, NetError, Node, NodeContext, NodeId, SimConfig, ThreadedMode, ThreadedNet, WireSize,
    WorkerDead,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
#[expect(
    clippy::disallowed_types,
    reason = "a stall bound in host time turns a lost wakeup under contention into a failure instead of a hung test"
)]
use std::time::{Duration, Instant};

/// A payload with explicit sizes; a `Bouncer` reads `data` as the number
/// of bounces left.
#[derive(Clone, Copy, Debug)]
struct RawPayload {
    data: usize,
    control: usize,
}

impl RawPayload {
    fn new(data: usize, control: usize) -> Self {
        RawPayload { data, control }
    }
}

impl WireSize for RawPayload {
    fn data_bytes(&self) -> usize {
        self.data
    }
    fn control_bytes(&self) -> usize {
        self.control
    }
}

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

fn net(n: usize) -> Box<dyn Net<RawPayload, Bouncer>> {
    Box::new(ThreadedNet::new(
        ThreadedMode::FreeRunning,
        SimConfig::default(),
        vec![Bouncer::default(); n],
    ))
}

/// Pipeline `f` on node `id`'s lane.
fn post(
    net: &mut dyn Net<RawPayload, Bouncer>,
    id: NodeId,
    f: impl Fn(&mut Bouncer, &mut NodeContext<RawPayload>) + Send + 'static,
) {
    net.post(id, &mut Some(f)).unwrap();
}

#[test]
fn synchronous_calls_wait_for_their_own_lane_only() {
    let mut net = net(2);
    // Program order: a query sees every invoke pipelined before it.
    for round in 1..=1000u64 {
        for _ in 0..4 {
            post(&mut *net, NodeId(0), |n, _| n.seen += 1);
        }
        assert_eq!(net.query(NodeId(0), |n| n.seen).unwrap(), 4 * round);
    }
    // Hold node 0's lane behind a gate: node 1 still answers, both to
    // queries and to closures that send, while node 0 cannot.
    let gate = Arc::new(AtomicBool::new(false));
    let held = Arc::clone(&gate);
    post(&mut *net, NodeId(0), move |_, _| {
        while !held.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
    });
    assert_eq!(net.query(NodeId(1), |n| n.seen).unwrap(), 0);
    net.with_node(NodeId(1), |_, ctx| {
        ctx.send(NodeId(0), RawPayload::new(0, 1))
    });
    gate.store(true, Ordering::SeqCst);
    assert!(net.settle().unwrap().is_quiescent());
    assert_eq!(net.query(NodeId(0), |n| n.seen).unwrap(), 4001);
}

#[test]
#[expect(
    clippy::disallowed_types,
    reason = "a stall bound in host time turns a lost wakeup under contention into a failure instead of a hung test"
)]
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
            let seen = net.query(NodeId(i), |n| n.seen).unwrap();
            net.with_node(NodeId(i), |_, _| ());
            if i == 0 {
                assert!(seen >= last, "a site went backwards");
                last = seen;
            }
        }
    }
    assert!(net.settle().unwrap().is_quiescent());
    assert_eq!(net.stats().total_messages(), MESSAGES as u64);
    let seen: u64 = (0..2)
        .map(|i| net.query(NodeId(i), |n| n.seen).unwrap())
        .sum();
    assert_eq!(seen, MESSAGES as u64);
}

/// The coordinator as a sender: a synchronous closure that sends a burst
/// to a peer, or to its own node (whose inbox nobody can drain while the
/// closure holds the site), loses nothing.
#[test]
fn a_synchronous_burst_to_a_peer_or_to_itself_loses_nothing() {
    let burst = 512;
    for to in [1usize, 0] {
        let mut net = net(2);
        net.with_node(NodeId(0), move |_, ctx| {
            for _ in 0..burst {
                ctx.send(NodeId(to), RawPayload::new(0, 1));
            }
        });
        assert!(net.settle().unwrap().is_quiescent());
        assert_eq!(net.query(NodeId(to), |n| n.seen).unwrap(), burst as u64);
        assert_eq!(net.stats().total_messages(), burst as u64);
    }
}

/// A panic inside a pipelined invoke leaves that lane one message short
/// forever; the lane-drain wait of the next synchronous call must report
/// the death, not hang on the count.
#[test]
fn a_panicking_pipelined_invoke_surfaces_from_the_lane_wait() {
    let mut net = net(3);
    post(&mut *net, NodeId(1), |_, _| {
        panic!("pipelined invoke detonated")
    });
    let dead = NetError::WorkerDead(WorkerDead { node: NodeId(1) });
    assert_eq!(net.query(NodeId(1), |n| n.seen).unwrap_err(), dead);
    assert_eq!(net.try_with_node(NodeId(1), |_, _| ()).unwrap_err(), dead);
    assert_eq!(net.settle().unwrap_err(), dead);
    assert_eq!(net.query(NodeId(0), |n| n.seen).unwrap_err(), dead);
    assert_eq!(net.into_nodes().len(), 2);
}

/// A lane that is not drained when a synchronous call arrives is run by
/// whichever thread gets the site first: the worker, or the caller
/// itself. Either way a panicking posted invoke must come back as the
/// same typed death. Half of the fresh nets give the worker a head start,
/// so both runners are seen within the bound.
#[test]
fn a_panicking_pipelined_invoke_is_a_typed_error_on_either_runner() {
    let caller = std::thread::current().name().map(str::to_owned);
    let runners = Arc::new(Mutex::new(Vec::new()));
    let dead = NetError::WorkerDead(WorkerDead { node: NodeId(1) });
    let both_seen = |runners: &[Option<String>]| {
        let on_worker = runners.iter().any(|name| {
            name.as_deref()
                .is_some_and(|n| n.starts_with("simnet-worker-"))
        });
        on_worker && runners.contains(&caller)
    };
    for round in 0..200 {
        let mut net = net(2);
        let record = Arc::clone(&runners);
        post(&mut *net, NodeId(1), move |_, _| {
            let name = std::thread::current().name().map(str::to_owned);
            record.lock().unwrap().push(name);
            panic!("pipelined invoke detonated");
        });
        if round % 2 == 1 {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(net.query(NodeId(1), |n| n.seen).unwrap_err(), dead);
        assert_eq!(net.query(NodeId(0), |n| n.seen).unwrap_err(), dead);
        drop(net);
        if both_seen(&runners.lock().unwrap()) {
            return;
        }
    }
    let mut seen = runners.lock().unwrap().clone();
    seen.sort();
    seen.dedup();
    panic!("200 nets never saw both runners, only {seen:?}");
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
    let dead = NetError::WorkerDead(WorkerDead { node: NodeId(1) });
    assert_eq!(net.query(NodeId(1), |n| n.seen).unwrap_err(), dead);
    assert_eq!(net.try_with_node(NodeId(0), |_, _| ()).unwrap_err(), dead);
    assert_eq!(net.settle().unwrap_err(), dead);
    assert_eq!(net.into_nodes().len(), 2);
}
