//! Layer probes: each layer's public functions, timed from outside.
//!
//! Every probe takes [`SAMPLES`] samples of at least [`SAMPLE_NS`] each (so
//! it runs for at least 100 ms) and reports the median sample, in
//! nanoseconds per call unless its name says otherwise.

use crate::stats::median;
use apps::{generate_family_ops, run_all, Scenario, SettlePolicy, WorkloadFamily};
use dsm::{ControlStats, DeltaVc, Recorder, VectorClock};
use histories::{Distribution, ProcId, VarId};
use simnet::chan::fabric;
use simnet::{
    BufferPool, Channel, EventKind, EventQueue, LatencyModel, Node, NodeContext, NodeId, Router,
    RoutingMode, SimConfig, SimTime, Simulator, ThreadedMode, ThreadedNet, Topology, Transport,
    WireSize,
};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Samples per probe.
pub const SAMPLES: usize = 11;
/// Least duration of one sample.
pub const SAMPLE_NS: u64 = 10_000_000;

/// Median over [`SAMPLES`] samples of the nanoseconds one unit of work
/// takes. `batch` does some units of work and returns how many; it is
/// called until the sample is [`SAMPLE_NS`] long.
pub fn ns_per_unit(mut batch: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let started = Instant::now();
            let mut units = 0;
            loop {
                units += batch();
                let ns = started.elapsed().as_nanos() as u64;
                if ns >= SAMPLE_NS {
                    return ns as f64 / units.max(1) as f64;
                }
            }
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// `EventQueue::push` + `pop_ready_into` per event, with `pending` events
/// queued behind the ones being drained.
pub fn event_push_pop_ns(pending: usize) -> f64 {
    let mut queue: EventQueue<u64> = EventQueue::new();
    let timer = |tag| EventKind::Timer {
        node: NodeId(0),
        tag,
    };
    for i in 0..pending as u64 {
        queue.push(SimTime::from_millis(1_000_000 + i), timer(i));
    }
    let mut batch = Vec::with_capacity(16);
    let mut now = 0u64;
    ns_per_unit(|| {
        for _ in 0..64 {
            now += 1;
            for tag in 0..8 {
                queue.push(SimTime::from_micros(now), timer(tag));
            }
            batch.clear();
            black_box(queue.pop_ready_into(&mut batch));
        }
        64 * 8
    })
}

/// One `BufferPool::acquire` + `release` pair (steady state: a hit).
pub fn pool_acquire_release_ns() -> f64 {
    let mut pool: BufferPool<u64> = BufferPool::new();
    pool.release(Vec::with_capacity(16));
    ns_per_unit(|| {
        for _ in 0..1024 {
            let mut buf = pool.acquire(8);
            buf.push(1);
            pool.release(black_box(buf));
        }
        1024
    })
}

/// One `Channel::transmit` on a fault-free constant-latency link.
pub fn channel_transmit_ns() -> f64 {
    let mut channel = Channel::new(NodeId(0), NodeId(1), LatencyModel::default(), 7);
    let mut now = 0u64;
    ns_per_unit(|| {
        for _ in 0..1024 {
            now += 1;
            black_box(channel.transmit(SimTime::from_micros(now), 64));
        }
        1024
    })
}

/// One message through a ring of `fabric(2)` on one thread: `Post::to`
/// then its share of a `Mailbox::drain_into` of 32.
pub fn chan_push_pop_ns() -> f64 {
    let (_ctl, mut ends) = fabric::<u64, ()>(2);
    let (_post1, mailbox1) = ends.pop().expect("two ends");
    let (post0, _mailbox0) = ends.pop().expect("two ends");
    let mut inbox = VecDeque::with_capacity(64);
    ns_per_unit(|| {
        for _ in 0..32 {
            for m in 0..32u64 {
                let _ = black_box(post0.to(NodeId(1), m));
            }
            mailbox1.drain_into(&mut inbox);
            inbox.clear();
        }
        32 * 32
    })
}

/// One round trip between two threads over `fabric(2)`, in nanoseconds:
/// thread A posts to B and waits for B's reply.
pub fn chan_pingpong_ns() -> f64 {
    let (_ctl, mut ends) = fabric::<u64, ()>(2);
    let (post1, mailbox1) = ends.pop().expect("two ends");
    let (post0, mailbox0) = ends.pop().expect("two ends");
    const STOP: u64 = u64::MAX;
    std::thread::scope(|scope| {
        scope.spawn(move || {
            mailbox1.register();
            let mut inbox = VecDeque::new();
            loop {
                if mailbox1.drain_into(&mut inbox) == 0 {
                    mailbox1.wait();
                    continue;
                }
                for (_, m) in inbox.drain(..) {
                    if m == STOP {
                        return;
                    }
                    let _ = post1.to(NodeId(0), m);
                }
            }
        });
        mailbox0.register();
        let mut inbox = VecDeque::new();
        let ns = ns_per_unit(|| {
            for m in 0..64u64 {
                let _ = post0.to(NodeId(1), m);
                while mailbox0.drain_into(&mut inbox) == 0 {
                    mailbox0.wait();
                }
                inbox.clear();
            }
            64
        });
        let _ = post0.to(NodeId(1), STOP);
        ns
    })
}

/// Payload of the simulator probes: a token that is passed on until its
/// time to live runs out.
#[derive(Clone, Debug)]
struct Token {
    ttl: u32,
}

impl WireSize for Token {
    fn data_bytes(&self) -> usize {
        8
    }
    fn control_bytes(&self) -> usize {
        0
    }
}

/// Passes every token it receives to `next` while its `ttl` lasts.
#[derive(Clone, Debug)]
struct Echo {
    next: NodeId,
}

impl Node<Token> for Echo {
    fn on_message(&mut self, ctx: &mut NodeContext<Token>, _from: NodeId, token: Token) {
        if token.ttl > 0 {
            ctx.send(self.next, Token { ttl: token.ttl - 1 });
        }
    }
}

/// A node that ignores everything: the threaded probes time the lanes,
/// not a handler.
#[derive(Clone, Debug)]
struct Idle;

impl Node<Token> for Idle {
    fn on_message(&mut self, _ctx: &mut NodeContext<Token>, _from: NodeId, _token: Token) {}
}

const TOKENS: u32 = 16;
const TOKEN_TTL: u32 = 255;

/// Nanoseconds per event of a bare `Simulator` over `n` echo nodes on a
/// full mesh, 16 tokens in flight: the simulator's own dispatch cost
/// (queue, channel, context, stats) with a trivial handler.
pub fn sim_ns_per_event(n: usize) -> f64 {
    let nodes = (0..n)
        .map(|i| Echo {
            next: NodeId((i + 1) % n),
        })
        .collect();
    let mut sim = Simulator::new(Topology::full_mesh(n), SimConfig::default(), nodes);
    ns_per_unit(|| {
        for t in 0..TOKENS as usize {
            sim.with_node(NodeId(t % n), |node, ctx| {
                ctx.send(node.next, Token { ttl: TOKEN_TTL })
            });
        }
        sim.run_until_quiescent().events()
    })
}

/// Nanoseconds per hop of a routed `Transport` over echo nodes on
/// `grid_of(64)`: tokens bounce between opposite corners, every logical
/// send relayed over 14 links.
pub fn route_ns_per_hop() -> f64 {
    let n = 64;
    let nodes = (0..n)
        .map(|i| Echo {
            next: NodeId(n - 1 - i),
        })
        .collect();
    let config = SimConfig {
        routing: RoutingMode::ForceRouted,
        ..SimConfig::default()
    };
    let mut net =
        Transport::new(Topology::grid_of(n), config, nodes).expect("a grid is strongly connected");
    ns_per_unit(|| {
        for t in 0..TOKENS as usize {
            net.with_node(NodeId(t % n), |node, ctx| {
                ctx.send(node.next, Token { ttl: TOKEN_TTL })
            });
        }
        net.run_until_quiescent().events()
    })
}

/// Milliseconds one `Router::new(grid_of(64))` takes.
pub fn route_build_ms() -> f64 {
    let topology = Topology::grid_of(64);
    ns_per_unit(|| {
        black_box(Router::new(&topology).expect("a grid is strongly connected"));
        1
    }) / 1e6
}

/// The threaded backend's lanes over two idle nodes, in nanoseconds.
pub struct ThreadedLanes {
    /// One synchronous `try_with_node` (post, wake, run, acknowledge).
    pub sync_call_ns: f64,
    /// One `try_with_node_async` post, settles amortized over 128 posts.
    pub async_post_ns: f64,
    /// One `settle` with nothing in flight.
    pub idle_settle_ns: f64,
    /// Building a two-worker net and tearing it down again.
    pub spawn_ns: f64,
}

fn idle_net() -> ThreadedNet<Token, Idle> {
    ThreadedNet::new(
        ThreadedMode::FreeRunning,
        SimConfig::default(),
        vec![Idle, Idle],
    )
}

/// Probe the threaded backend's control lane (see [`ThreadedLanes`]).
pub fn threaded_lanes() -> ThreadedLanes {
    let mut net = idle_net();
    let sync_call_ns = ns_per_unit(|| {
        for i in 0..64 {
            let _ = black_box(net.try_with_node(NodeId(i % 2), |_node, _ctx| 1u64));
        }
        64
    });
    let async_post_ns = ns_per_unit(|| {
        for i in 0..128 {
            let _ = net.try_with_node_async(NodeId(i % 2), |_node, _ctx| {});
        }
        let _ = net.try_settle();
        128
    });
    let idle_settle_ns = ns_per_unit(|| {
        for _ in 0..16 {
            let _ = black_box(net.try_settle());
        }
        16
    });
    drop(net);
    let spawn_ns = ns_per_unit(|| {
        drop(black_box(idle_net()));
        1
    });
    ThreadedLanes {
        sync_call_ns,
        async_post_ns,
        idle_settle_ns,
        spawn_ns,
    }
}

/// The vector-clock layer at `n` entries, in nanoseconds per call.
pub struct ClockCosts {
    /// `VectorClock::merge`.
    pub merge_ns: f64,
    /// `VectorClock::deliverable_from`.
    pub deliverable_ns: f64,
    /// `DeltaVc::encode`.
    pub delta_encode_ns: f64,
    /// `DeltaVc::decode`.
    pub delta_decode_ns: f64,
    /// Delta wire bytes ÷ dense wire bytes of the probed clock pair.
    pub delta_bytes_ratio: f64,
}

/// The probed clocks over `n` processes: the sender's previous broadcast
/// `prev`, its next one `next` (its own entry and one entry in eight
/// advanced — a writer that merged a few peers in between), and a
/// `receiver` clock at which `next` is the next deliverable message from
/// process 0.
fn probe_clocks(n: usize) -> (VectorClock, VectorClock, VectorClock) {
    let mut prev = VectorClock::new(n);
    for i in 0..n {
        for _ in 0..=(i % 5) {
            prev.increment(i);
        }
    }
    let mut next = prev.clone();
    for i in (0..n).step_by(8) {
        next.increment(i);
    }
    let mut receiver = VectorClock::new(n);
    for i in 0..n {
        let seen = next.get(i) - u64::from(i == 0);
        for _ in 0..seen {
            receiver.increment(i);
        }
    }
    (prev, next, receiver)
}

/// Probe the clock layer at `n` entries (see [`probe_clocks`]).
pub fn clock_costs(n: usize) -> ClockCosts {
    let (prev, next, receiver) = probe_clocks(n);
    let mut scratch = prev.clone();
    let merge_ns = ns_per_unit(|| {
        for _ in 0..1024 {
            scratch.merge(black_box(&next));
        }
        black_box(&scratch);
        1024
    });
    let deliverable_ns = ns_per_unit(|| {
        for _ in 0..1024 {
            black_box(black_box(&receiver).deliverable_from(black_box(&next), 0));
        }
        1024
    });
    let delta_encode_ns = ns_per_unit(|| {
        for _ in 0..256 {
            black_box(DeltaVc::encode(black_box(&prev), black_box(&next)));
        }
        256
    });
    let delta = DeltaVc::encode(&prev, &next);
    let delta_decode_ns = ns_per_unit(|| {
        for _ in 0..256 {
            black_box(black_box(&delta).decode(black_box(&prev)));
        }
        256
    });
    ClockCosts {
        merge_ns,
        deliverable_ns,
        delta_encode_ns,
        delta_decode_ns,
        delta_bytes_ratio: delta.wire_bytes() as f64 / next.wire_bytes() as f64,
    }
}

/// One `Recorder::record_write` on an enabled recorder (the verification
/// pass's cost; the timed rounds run with recording disabled).
pub fn recorder_record_ns() -> f64 {
    ns_per_unit(|| {
        // A fresh recorder per batch bounds the history it grows.
        let mut recorder = Recorder::new(8);
        for i in 0..4096i64 {
            recorder.record_write(ProcId((i % 8) as usize), VarId((i % 16) as usize), i);
        }
        black_box(recorder.write_count());
        4096
    })
}

/// One `ControlStats::charge_sent` over 16 variables.
pub fn control_charge_ns() -> f64 {
    let mut stats = ControlStats::new();
    ns_per_unit(|| {
        for i in 0..1024 {
            stats.charge_sent(VarId(i % 16), 8);
        }
        black_box(stats.total_sent_bytes());
        1024
    })
}

/// The coordinates `BENCH_baseline.json` was written at
/// (`bench::BASELINE_COORDS`): processes, operations per process, seed.
const BASELINE_COORDS: (usize, usize, u64) = (8, 6, 11);

/// `generate_family_ops` per generated operation (uniform, 50 % writes).
pub fn scenario_generate_ns_per_op() -> f64 {
    let dist = Distribution::random(8, 16, 2, 11);
    ns_per_unit(|| {
        let ops = generate_family_ops(
            &dist,
            &WorkloadFamily::Uniform { write_ratio: 0.5 },
            64,
            SettlePolicy::Every(6),
            11,
        );
        black_box(ops).len() as u64
    })
}

/// Milliseconds one `run_all` cell takes at the baseline coordinates:
/// the default scenario (random distribution, uniform workload, mesh,
/// unicast, recorded) under all five protocols.
pub fn scenario_cell_ms() -> f64 {
    let (processes, ops_per_process, seed) = BASELINE_COORDS;
    let scenario = Scenario {
        processes,
        variables: 2 * processes,
        ops_per_process,
        seed,
        record: true,
        ..Scenario::default()
    };
    ns_per_unit(|| {
        black_box(run_all(&scenario));
        1
    }) / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_tokens_produce_one_event_per_hop() {
        let nodes = (0..4)
            .map(|i| Echo {
                next: NodeId((i + 1) % 4),
            })
            .collect();
        let mut sim = Simulator::new(Topology::full_mesh(4), SimConfig::default(), nodes);
        sim.with_node(NodeId(0), |node, ctx| ctx.send(node.next, Token { ttl: 9 }));
        assert_eq!(sim.run_until_quiescent().events(), 10);
    }

    #[test]
    fn the_probed_clock_pair_is_sparse_and_deliverable() {
        for n in [8, 64] {
            let (prev, next, receiver) = probe_clocks(n);
            assert!(receiver.deliverable_from(&next, 0), "n={n}");
            let delta = DeltaVc::encode(&prev, &next);
            assert!(delta.wire_bytes() < next.wire_bytes(), "n={n}");
            assert_eq!(delta.decode(&prev), next);
        }
    }
}
