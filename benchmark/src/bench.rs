//! The two kinds of run: the untraced one that yields the end-to-end
//! metrics, and the traced one that yields the per-layer account.

use crate::host;
use crate::probes;
use crate::report::{protocol_metric, Metric, Metrics};
use crate::run::{
    run_segment, verify, Counters, Inputs, Plan, RecordedPrefixes, RoundTimer, Segment, SETUP_REPS,
};
use crate::stats::{highest_supported_quantile, median, quantile_sorted};
use crate::trace::{write_chrome_trace, SpanKind, Tracer};
use crate::workload::Spec;
use dsm::ProtocolKind;
use histories::{causal_spot_check, check, pram_spot_check, Criterion};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// What the command line asked for.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload.
    pub spec: &'static Spec,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: scales the fixed round counts (sized for 10).
    pub seconds: u64,
    /// `--trace 1` / `--traced`.
    pub traced: bool,
    /// `--smoke`: a fiftieth of the rounds, same checks.
    pub smoke: bool,
}

/// The result of a run.
pub struct Outcome {
    /// Whether every check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed plus checks that failed.
    pub failed: u64,
    /// The metrics to report.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The process exit code: 0 only when every check passed.
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.correct)
    }
}

/// Full span records are kept for the first 2 000 rounds of a traced run
/// (400 per protocol), and for at most this many spans per protocol: at
/// K = 512 a round is 514 spans, and the trace file should stay loadable.
const FULL_ROUNDS_PER_PROTOCOL: u64 = 400;
const FULL_SPANS_PER_PROTOCOL: u64 = 30_000;

fn print_header(opts: &Options, plan: &Plan) {
    let spec = opts.spec;
    let cores = host::cores();
    let threads = if spec.is_threaded() {
        spec.procs + 1
    } else {
        1
    };
    println!(
        "# dsmbench {} seed={} seconds={} mode={}{}",
        spec.name,
        opts.seed,
        opts.seconds,
        if opts.traced { "traced" } else { "untraced" },
        if opts.smoke { " smoke" } else { "" },
    );
    println!("# why: {}", spec.why);
    println!(
        "# host: cores={cores} threads={threads} oversubscribed={} rustc=\"{}\" commit={}",
        threads > cores,
        host::rustc_version(),
        host::git_commit(&package_dir().join("..")),
    );
    println!(
        "# rounds per protocol: warm-up {} + timed {} of K={} operations, set-up repeated {} time(s)",
        plan.warmup, plan.timed, spec.ops_per_round, plan.setup_reps,
    );
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<44} {:>18.4} {}", m.name, m.value, m.unit);
    }
}

fn per_second(count: u64, ns: u64) -> f64 {
    count as f64 * 1e9 / ns as f64
}

/// Blocks the timed rounds of a protocol are cut into for [`steady_ns`].
const BLOCKS: usize = 20;

/// The nanoseconds `round_ns` would add up to had every block of rounds
/// run at the pace of the median block. On a shared host other tenants
/// slow a run down in bursts of a few hundred milliseconds; the median of
/// twenty blocks drops the bursts and keeps what a block of rounds costs,
/// allocation and page faults of its share of log growth included.
fn steady_ns(round_ns: &[u64]) -> f64 {
    let per_block = round_ns.len().div_ceil(BLOCKS).max(1);
    let block_means: Vec<f64> = round_ns
        .chunks(per_block)
        .map(|block| block.iter().sum::<u64>() as f64 / block.len() as f64)
        .collect();
    median(&block_means).unwrap_or(0.0) * round_ns.len() as f64
}

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b as f64
}

/// The untraced run: every end-to-end metric.
pub fn run_untraced(opts: &Options) -> Outcome {
    run_untraced_against(opts, |_oracle| {})
}

/// [`run_untraced`], with a hook on the oracle (the script's last value
/// per variable) so a test can corrupt it and watch the run fail.
fn run_untraced_against(opts: &Options, tamper: impl FnOnce(&mut [i64])) -> Outcome {
    let spec = opts.spec;
    let plan = Plan::new(
        spec.timed_rounds(opts.seconds, if opts.smoke { 50 } else { 1 }),
        SETUP_REPS,
    );
    print_header(opts, &plan);

    // The part of the set-up all five protocols share, repeated like the
    // per-protocol part.
    let mut shared_setup_s = Vec::with_capacity(SETUP_REPS);
    let mut failed = 0;
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let generated = Inputs::generate(spec, opts.seed);
        let (_, failures) = verify(&generated);
        shared_setup_s.push(started.elapsed().as_secs_f64());
        failed += failures;
        inputs = Some(generated);
    }
    let inputs = inputs.expect("SETUP_REPS is at least one");
    let mut oracle = inputs.script.last_values(plan.warmup + plan.timed);
    tamper(&mut oracle);

    let mut attempted = 0;
    let mut setup_s = median(&shared_setup_s).unwrap_or(0.0);
    let (mut timed_ops, mut timed_ns, mut wait_ns) = (0, 0, 0);
    let mut steady_timed_ns = 0.0;
    let mut pooled = Counters::default();
    let mut round_ns = Vec::with_capacity((plan.timed * 5) as usize);
    for kind in ProtocolKind::ALL {
        let mut timer = RoundTimer::with_capacity(plan.timed);
        let seg = run_segment(&inputs, kind, &plan, &oracle, &mut timer);
        println!(
            "# {kind}: {:.0} ops/s, set-up {:.4} s, failed {}",
            per_second(seg.timed_ops, seg.timed_ns.max(1)),
            median(&seg.setup_s).unwrap_or(0.0),
            seg.failed,
        );
        setup_s += median(&seg.setup_s).unwrap_or(0.0);
        timed_ops += seg.timed_ops;
        timed_ns += seg.timed_ns;
        steady_timed_ns += steady_ns(&timer.round_ns);
        wait_ns += seg.wait_ns;
        pooled.add(&seg.counters);
        attempted += seg.attempted;
        failed += seg.failed;
        round_ns.extend(timer.round_ns);
    }
    round_ns.sort_unstable();
    let tail = highest_supported_quantile(round_ns.len());
    println!(
        "# rounds pooled: n={} p50={:.3} us, p{}={:.3} us (highest percentile with 10 samples beyond it)",
        round_ns.len(),
        quantile_sorted(&round_ns, 0.5).unwrap_or(0) as f64 / 1e3,
        tail * 100.0,
        quantile_sorted(&round_ns, tail).unwrap_or(0) as f64 / 1e3,
    );
    println!(
        "# wall-clock throughput {:.0} ops/s, bench.cpu_wait_share={:.4}, failed_share={:.6}",
        per_second(timed_ops, timed_ns.max(1)),
        ratio(wait_ns, timed_ns.max(1)),
        ratio(failed, attempted.max(1)),
    );

    let mut metrics = Metrics::default();
    metrics.put("setup_s", setup_s);
    metrics.put("ops_per_s", timed_ops as f64 * 1e9 / steady_timed_ns);
    metrics.put(
        "round_p50_us",
        quantile_sorted(&round_ns, 0.5).unwrap_or(0) as f64 / 1e3,
    );
    metrics.put("ctl_bytes_per_op", ratio(pooled.ctl_bytes, timed_ops));
    metrics.put("msgs_per_op", ratio(pooled.msgs, timed_ops));
    metrics.put("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    let metrics = metrics.into_vec();
    print_metrics(&metrics);
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

/// The package directory: where `cargo run` says it is, else where it was
/// when this binary was built.
fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// Where the trace of `workload` goes: `out/` in the package directory.
pub fn trace_path(workload: &str) -> PathBuf {
    package_dir()
        .join("out")
        .join(format!("trace-{workload}.json"))
}

/// One protocol's pair of segments in a traced run.
struct TracedPair {
    untraced_round_ns: Vec<u64>,
    traced: Segment,
    tracer: Tracer,
}

/// Time the history checkers on the recorded prefixes of the verification
/// pass: (`check` ms per 24-operation history, PRAM spot check ns per
/// operation, causal spot check ns per operation).
fn checker_costs(recorded: &[RecordedPrefixes]) -> (f64, f64, f64) {
    let causal: Vec<&RecordedPrefixes> = recorded
        .iter()
        .filter(|r| r.kind.guaranteed_criterion() == Criterion::Causal)
        .collect();
    let exhaustive_ns = probes::ns_per_unit(|| {
        for r in recorded {
            black_box(check(&r.short, r.kind.guaranteed_criterion()));
        }
        recorded.len() as u64
    });
    let pram_ns = probes::ns_per_unit(|| {
        for r in recorded {
            let _ = black_box(pram_spot_check(&r.long));
        }
        recorded.iter().map(|r| r.long.len() as u64).sum()
    });
    let causal_ns = probes::ns_per_unit(|| {
        for r in &causal {
            let _ = black_box(causal_spot_check(&r.long));
        }
        causal.iter().map(|r| r.long.len() as u64).sum()
    });
    (exhaustive_ns / 1e6, pram_ns, causal_ns)
}

/// The traced run: every per-layer metric, the attribution table and the
/// chrome trace.
pub fn run_traced(opts: &Options) -> Outcome {
    let spec = opts.spec;
    let plan = Plan::new(
        spec.timed_rounds(opts.seconds, if opts.smoke { 500 } else { 10 }),
        1,
    );
    print_header(opts, &plan);
    let inputs = Inputs::generate(spec, opts.seed);
    let (recorded, mut failed) = verify(&inputs);
    let oracle = inputs.script.last_values(plan.warmup + plan.timed);
    let k = spec.ops_per_round;
    let full_rounds = FULL_ROUNDS_PER_PROTOCOL.min(FULL_SPANS_PER_PROTOCOL / (k as u64 + 2));

    // Per protocol, the same rounds untraced and then traced: their
    // throughput difference is the tracing overhead.
    let epoch = Instant::now();
    let mut attempted = 0;
    let mut pairs = Vec::new();
    for kind in ProtocolKind::ALL {
        let mut timer = RoundTimer::with_capacity(plan.timed);
        let untraced = run_segment(&inputs, kind, &plan, &oracle, &mut timer);
        let mut tracer = Tracer::new(epoch, full_rounds, k);
        let traced = run_segment(&inputs, kind, &plan, &oracle, &mut tracer);
        attempted += untraced.attempted + traced.attempted;
        failed += untraced.failed + traced.failed;
        pairs.push(TracedPair {
            untraced_round_ns: timer.round_ns,
            traced,
            tracer,
        });
    }

    // Layer probes, at the workload's size.
    let clock_n = spec.procs.max(8);
    let clocks = probes::clock_costs(clock_n);
    let sim_ns_per_event = probes::sim_ns_per_event(spec.procs.max(2));
    let lanes = probes::threaded_lanes();
    let pending = if spec.procs >= 64 { 1024 } else { 64 };
    let (exhaustive24_ms, pram_ns_per_op, causal_ns_per_op) = checker_costs(&recorded);
    // What one simulator event costs outside the protocol handler. On
    // threads nothing is subtracted: workers deliver while the driver is
    // still posting, so the settle span is the driver's wait, and
    // `handler_ns_per_event` there reads as wait per delivery.
    let dispatch_ns = if spec.is_threaded() {
        0.0
    } else {
        sim_ns_per_event
    };

    let mut metrics = Metrics::default();
    let mut pooled = Counters::default();
    let (mut traced_ops, mut traced_ns, mut untraced_ns, mut wait_ns) = (0, 0, 0, 0);
    let mut uncovered_ns = 0;
    let mut pooled_round_ns = Vec::new();
    println!("# attribution, mean per round (us): round = writes + reads + settle + gap; settle = events x (dispatch + handler) (ns)");
    for pair in &pairs {
        let (seg, tracer) = (&pair.traced, &pair.tracer);
        let kind = seg.kind;
        let rounds = tracer.round_ns.len().max(1) as f64;
        let round_ns: u64 = tracer.round_ns.iter().sum();
        let (writes, reads, settle) = (
            tracer.hist_of(SpanKind::Write),
            tracer.hist_of(SpanKind::Read),
            tracer.hist_of(SpanKind::Settle),
        );
        let events = seg.counters.events;
        let settle_ns_per_event = settle.sum() as f64 / events.max(1) as f64;
        let mut sorted = tracer.round_ns.clone();
        sorted.sort_unstable();
        let mut put = |suffix: &str, value: f64| metrics.put(&protocol_metric(kind, suffix), value);
        put("ops_per_s", per_second(seg.timed_ops, round_ns.max(1)));
        put("write_ns", writes.mean());
        put("read_ns", reads.mean());
        put("settle_us", settle.mean() / 1e3);
        put("settle_ns_per_event", settle_ns_per_event);
        put("handler_ns_per_event", settle_ns_per_event - dispatch_ns);
        put("events_per_op", ratio(events, seg.timed_ops));
        put("msgs_per_op", ratio(seg.counters.msgs, seg.timed_ops));
        put(
            "ctl_bytes_per_op",
            ratio(seg.counters.ctl_bytes, seg.timed_ops),
        );
        put(
            "round_p50_us",
            quantile_sorted(&sorted, 0.5).unwrap_or(0) as f64 / 1e3,
        );
        put(
            "round_p99_us",
            quantile_sorted(&sorted, 0.99).unwrap_or(0) as f64 / 1e3,
        );
        println!(
            "# {:<15} n={:<5} {:>10.3} = {:>9.3} + {:>9.3} + {:>9.3} + {:>6.3} | {:>10.1} = {:>7.1} x ({:.1} + {:.1}); write p50<{} p99<{} ns, read p50<{} p99<{} ns",
            kind.name(),
            tracer.round_ns.len(),
            round_ns as f64 / rounds / 1e3,
            writes.sum() as f64 / rounds / 1e3,
            reads.sum() as f64 / rounds / 1e3,
            settle.sum() as f64 / rounds / 1e3,
            tracer.uncovered_ns as f64 / rounds / 1e3,
            settle.mean(),
            events as f64 / rounds,
            dispatch_ns,
            settle_ns_per_event - dispatch_ns,
            writes.quantile_bound(0.5),
            writes.quantile_bound(0.99),
            reads.quantile_bound(0.5),
            reads.quantile_bound(0.99),
        );
        pooled.add(&seg.counters);
        traced_ops += seg.timed_ops;
        traced_ns += round_ns;
        untraced_ns += pair.untraced_round_ns.iter().sum::<u64>();
        wait_ns += seg.wait_ns;
        uncovered_ns += tracer.uncovered_ns;
        pooled_round_ns.extend_from_slice(&tracer.round_ns);
    }
    pooled_round_ns.sort_unstable();
    let supported = highest_supported_quantile(pooled_round_ns.len());
    println!(
        "# round percentiles: n={} per protocol, n={} pooled; highest percentile with 10 samples beyond it: p{}",
        plan.timed,
        pooled_round_ns.len(),
        supported * 100.0,
    );

    metrics.put(
        "dsm.round_p99_us",
        quantile_sorted(&pooled_round_ns, 0.99).unwrap_or(0) as f64 / 1e3,
    );
    metrics.put("dsm.clock.merge_ns", clocks.merge_ns);
    metrics.put("dsm.clock.deliverable_ns", clocks.deliverable_ns);
    metrics.put("dsm.clock.delta_encode_ns", clocks.delta_encode_ns);
    metrics.put("dsm.clock.delta_decode_ns", clocks.delta_decode_ns);
    metrics.put("dsm.clock.delta_bytes_ratio", clocks.delta_bytes_ratio);
    metrics.put("dsm.recorder.record_ns", probes::recorder_record_ns());
    metrics.put("dsm.control.charge_ns", probes::control_charge_ns());
    metrics.put("simnet.sim.ns_per_event", sim_ns_per_event);
    metrics.put(
        "simnet.sim.events_per_s",
        per_second(pooled.events, traced_ns.max(1)),
    );
    metrics.put(
        "simnet.event.push_pop_ns",
        probes::event_push_pop_ns(pending),
    );
    metrics.put(
        "simnet.pool.acquire_release_ns",
        probes::pool_acquire_release_ns(),
    );
    metrics.put(
        "simnet.pool.hit_rate",
        ratio(pooled.pool_hits, pooled.pool_hits + pooled.pool_misses),
    );
    metrics.put("simnet.channel.transmit_ns", probes::channel_transmit_ns());
    metrics.put("simnet.route.build_ms", probes::route_build_ms());
    metrics.put("simnet.route.ns_per_hop", probes::route_ns_per_hop());
    metrics.put(
        "simnet.route.forwarded_per_msg",
        ratio(pooled.forwarded, pooled.msgs),
    );
    metrics.put("simnet.chan.push_pop_ns", probes::chan_push_pop_ns());
    metrics.put("simnet.chan.pingpong_us", probes::chan_pingpong_ns() / 1e3);
    metrics.put(
        "simnet.chan.full_stalls_per_kop",
        pooled.full_stalls as f64 * 1e3 / traced_ops as f64,
    );
    metrics.put(
        "simnet.chan.mean_batch_len",
        ratio(pooled.batched_msgs, pooled.batches),
    );
    metrics.put("simnet.threaded.sync_call_us", lanes.sync_call_ns / 1e3);
    metrics.put("simnet.threaded.async_post_ns", lanes.async_post_ns);
    metrics.put("simnet.threaded.idle_settle_us", lanes.idle_settle_ns / 1e3);
    metrics.put("simnet.threaded.spawn_ms", lanes.spawn_ns / 1e6);
    metrics.put("histories.spot.pram_ns_per_op", pram_ns_per_op);
    metrics.put("histories.spot.causal_ns_per_op", causal_ns_per_op);
    metrics.put("histories.check.exhaustive24_ms", exhaustive24_ms);
    metrics.put(
        "apps.scenario.generate_ns_per_op",
        probes::scenario_generate_ns_per_op(),
    );
    metrics.put("apps.scenario.cell_ms", probes::scenario_cell_ms());
    // Both sides divide the same operations by the time inside rounds;
    // the counter snapshots of the traced side sit between rounds.
    metrics.put(
        "bench.trace_overhead_pct",
        (traced_ns as f64 / untraced_ns.max(1) as f64 - 1.0) * 100.0,
    );
    metrics.put(
        "bench.attribution_gap_pct",
        ratio(uncovered_ns, traced_ns.max(1)) * 100.0,
    );
    metrics.put("bench.cpu_wait_share", ratio(wait_ns, traced_ns.max(1)));
    println!(
        "# event queue probed at {pending} pending, clocks at n={clock_n}; untraced reference {:.0} ops/s",
        per_second(traced_ops, untraced_ns.max(1)),
    );

    let path = trace_path(spec.name);
    let traces: Vec<(ProtocolKind, &Tracer)> =
        pairs.iter().map(|p| (p.traced.kind, &p.tracer)).collect();
    match write_chrome_trace(&path, spec.name, &traces) {
        Ok(()) => println!("# trace written to {}", path.display()),
        Err(e) => {
            eprintln!("dsmbench: cannot write {}: {e}", path.display());
            failed += 1;
        }
    }
    let metrics = metrics.into_vec();
    print_metrics(&metrics);
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SPECS;

    fn smoke(spec: &'static Spec, traced: bool) -> Options {
        Options {
            spec,
            seed: 3,
            seconds: 1,
            traced,
            smoke: true,
        }
    }

    #[test]
    fn an_untraced_run_reports_every_end_to_end_metric_and_passes() {
        let outcome = run_untraced(&smoke(&SPECS[0], false));
        assert!(outcome.correct);
        assert_eq!(outcome.exit_code(), 0);
        assert_eq!(outcome.failed, 0);
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
        let declared: Vec<&str> = crate::report::END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, declared);
        assert!(outcome.metrics.iter().all(|m| m.value > 0.0));
    }

    #[test]
    fn steady_time_ignores_a_slow_burst() {
        let mut round_ns = vec![100u64; 2_000];
        assert_eq!(steady_ns(&round_ns), 200_000.0);
        // Three of twenty blocks run at a fifth of the speed.
        round_ns[500..800].fill(500);
        assert_eq!(steady_ns(&round_ns), 200_000.0);
        assert_eq!(steady_ns(&[70]), 70.0);
        assert_eq!(steady_ns(&[]), 0.0);
    }

    #[test]
    fn a_corrupted_oracle_gives_a_non_zero_exit_code() {
        let outcome = run_untraced_against(&smoke(&SPECS[0], false), |oracle| {
            let written = oracle.iter_mut().find(|v| **v != 0).expect("a written var");
            *written += 1;
        });
        assert!(!outcome.correct);
        // Two replicas of one variable, under each of the five protocols
        // (eight replicas under the two fully replicated ones).
        assert_eq!(outcome.failed, 3 * 2 + 2 * 8);
        assert_ne!(outcome.exit_code(), 0);
    }
}
