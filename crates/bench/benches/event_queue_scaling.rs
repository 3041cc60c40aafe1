//! The event-queue hot path in isolation: push/pop churn versus the
//! batched same-timestamp drain, at the populations the large scenario
//! tier holds in flight (64, 256, 1024 queued events). The batched drain
//! is what `try_run_until_quiescent` rides — this bench pins its cost
//! relative to the classical one-pop loop on identical event streams.
//! `push_pop_distinct` is the other regime: jittered latencies
//! (`LatencyModel::Uniform`, `PerByte`) give every event a timestamp of
//! its own, and the queue has to stay O(log n) there. `hold_*` is the
//! steady state of a running simulation — pop the earliest event,
//! schedule one later — on a queue that stays `n` deep, with a payload
//! the size of a protocol message.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simnet::event::{EventKind, EventQueue};
use simnet::{NodeId, SimTime};

/// A deterministic event stream of `n` deliveries scheduled in LCG order,
/// so the timestamps are not presorted: spread over 16 timestamps (heavy
/// collision), or with `distinct` each at a timestamp of its own.
fn filled_queue(n: u64, distinct: bool) -> EventQueue<u64> {
    let mut queue = EventQueue::new();
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for i in 0..n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let slot = (state >> 32) % 16;
        let at = SimTime(if distinct { slot * n + i } else { slot });
        queue.push(
            at,
            EventKind::Deliver {
                from: NodeId(0),
                to: NodeId(1),
                seq: i,
                data_bytes: 8,
                control_bytes: 0,
                payload: i,
            },
        );
    }
    queue
}

/// `steps` pop-one-push-one steps on a queue holding `n` events: with
/// `distinct`, each new event lands 1–100 µs later at nanosecond
/// resolution (the `Uniform` latency of the standard sweep); without,
/// always 10 µs later (the default constant latency).
fn hold(n: u64, steps: u64, distinct: bool) -> u64 {
    let mut queue: EventQueue<[u64; 12]> = EventQueue::new();
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut delay = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        if distinct {
            1_000 + (state >> 33) % 99_000
        } else {
            10_000
        }
    };
    let timer = |tag| EventKind::Timer {
        node: NodeId(0),
        tag,
    };
    for i in 0..n {
        queue.push(SimTime(delay() * (1 + i % 3)), timer(i));
    }
    let mut drained = 0u64;
    for _ in 0..steps {
        let Some(event) = queue.pop() else { break };
        drained = drained.wrapping_add(event.order);
        queue.push(SimTime(event.at.as_nanos() + delay()), timer(drained));
    }
    drained
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_scaling");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(1));

    for &n in &[64u64, 256, 1024] {
        for (name, distinct) in [("push_pop", false), ("push_pop_distinct", true)] {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, &n| {
                b.iter(|| {
                    let mut queue = filled_queue(n, distinct);
                    let mut drained = 0u64;
                    while let Some(event) = queue.pop() {
                        drained += event.order;
                    }
                    drained
                })
            });
        }
        group.bench_with_input(BenchmarkId::new("batched_drain", n), &n, |b, &n| {
            b.iter(|| {
                let mut queue = filled_queue(n, false);
                let mut batch = Vec::new();
                let mut drained = 0u64;
                while queue.pop_ready_into(&mut batch) > 0 {
                    for event in batch.drain(..) {
                        drained += event.order;
                    }
                }
                drained
            })
        });
        for (name, distinct) in [("hold_tied", false), ("hold_distinct", true)] {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, &n| {
                b.iter(|| hold(n, 10_000, distinct))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_event_queue);
criterion_main!(benches);
