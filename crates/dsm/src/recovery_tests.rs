//! Tests of the recovery-log cut: what is retained and when, that the cut
//! changes nothing a run can observe, and that an image from before a cut
//! is refused instead of silently diverging.

use crate::api::{DsmError, ProtocolKind};
use crate::control::ControlSummary;
use crate::dynamic::DynDsm;
use crate::protocol::causal_full::CausalFull;
use crate::protocol::causal_partial::CausalPartial;
use crate::protocol::op_log::OpLog;
use crate::protocol::pram_partial::PramPartial;
use crate::protocol::sequential::Sequential;
use crate::protocol::ProtocolSpec;
use crate::runtime::DsmSystem;
use histories::{Distribution, History, ProcId, Value, VarId};
use proptest::prelude::*;
use simnet::NetworkStats;

/// 4 processes; x0 on {p0,p1}, x1 on {p1,p2}, x2 on {p2,p3}.
fn partial_dist() -> Distribution {
    let mut d = Distribution::new(4, 3);
    for (p, x) in [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2)] {
        d.assign(ProcId(p), VarId(x));
    }
    d
}

fn max_retained(sys: &DynDsm) -> usize {
    (0..sys.process_count())
        .map(|p| sys.recovery_retained(ProcId(p)))
        .max()
        .unwrap_or(0)
}

#[test]
fn retained_entries_are_bounded_by_the_round_not_the_run() {
    const WRITES: i64 = 100_000;
    const ROUND: i64 = 64;
    let dist = partial_dist();
    // Each variable's writer is its smallest-id replica.
    let writers = [
        (ProcId(0), VarId(0)),
        (ProcId(1), VarId(1)),
        (ProcId(2), VarId(2)),
    ];
    for kind in ProtocolKind::ALL {
        let mut sys = DynDsm::new(kind, dist.clone());
        sys.disable_recording();
        for v in 1..=WRITES {
            let (p, x) = writers[v as usize % writers.len()];
            sys.write(p, x, v).unwrap();
            if v % ROUND == 0 {
                let held = max_retained(&sys);
                assert!(
                    0 < held && held <= ROUND as usize,
                    "{kind}: {held} entries held for a round of {ROUND} writes"
                );
                sys.settle();
                assert_eq!(max_retained(&sys), 0, "{kind}: an all-up settle cuts");
            }
        }
        sys.settle();
        assert_eq!(max_retained(&sys), 0, "{kind}");
        assert_eq!(sys.recovery_cuts(), (WRITES / ROUND + 1) as u64, "{kind}");
        assert_eq!(sys.peek(ProcId(2), VarId(1)), Value::Int(WRITES), "{kind}");
    }
}

#[test]
fn nothing_is_cut_while_a_process_is_down() {
    fn run(kind: ProtocolKind, crash: bool) -> Vec<Value> {
        let q = ProcId(3);
        let mut sys = DynDsm::new(kind, Distribution::full(4, 2));
        sys.write(ProcId(0), VarId(0), 1).unwrap();
        sys.settle();
        let cuts = sys.recovery_cuts();
        assert_eq!(cuts, 1, "{kind}");
        if crash {
            sys.crash(q).unwrap();
        }
        sys.write(ProcId(0), VarId(0), 2).unwrap();
        sys.write(ProcId(1), VarId(1), 3).unwrap();
        sys.settle();
        if crash {
            // The settle was quiescent, but q will ask for these writes.
            assert_eq!(sys.recovery_cuts(), cuts, "{kind}: no cut while q is down");
            assert!(max_retained(&sys) > 0, "{kind}: the writers still retain");
            sys.restart(q).unwrap();
            assert!(
                max_retained(&sys) > 0,
                "{kind}: restart itself cuts nothing"
            );
        }
        sys.settle();
        assert_eq!(
            max_retained(&sys),
            0,
            "{kind}: all up again, so the settle cuts"
        );
        (0..2).map(|x| sys.peek(q, VarId(x))).collect()
    }
    for kind in ProtocolKind::ALL {
        let recovered = run(kind, true);
        assert_eq!(recovered, run(kind, false), "{kind}");
        assert_eq!(recovered, vec![Value::Int(2), Value::Int(3)], "{kind}");
    }
}

#[test]
fn an_image_from_before_a_cut_is_refused_under_every_protocol() {
    for kind in ProtocolKind::ALL {
        let p = ProcId(1);
        let mut sys = DynDsm::new(kind, partial_dist());
        sys.write(ProcId(0), VarId(0), 1).unwrap();
        sys.settle();
        let old = sys.snapshot(p);
        // Same epoch: the image restores (and a restart would be served).
        assert_eq!(sys.try_restore(p, old.clone()), Ok(()), "{kind}");
        sys.write(ProcId(0), VarId(0), 2).unwrap();
        sys.settle();
        // The write of 2 is gone from p0's log: `old` could never learn it.
        assert_eq!(
            sys.try_restore(p, old),
            Err(DsmError::StaleImage {
                proc: p,
                image_cuts: 1,
                system_cuts: 2
            }),
            "{kind}"
        );
        assert_eq!(
            sys.peek(p, VarId(0)),
            Value::Int(2),
            "{kind}: p1 is untouched"
        );
        let fresh = sys.snapshot(p);
        assert_eq!(sys.try_restore(p, fresh), Ok(()), "{kind}");
        assert_eq!(
            sys.try_restore(ProcId(9), sys.snapshot(p)),
            Err(DsmError::UnknownProcess { proc: ProcId(9) }),
            "{kind}"
        );
    }
}

#[test]
fn both_threaded_modes_cut_and_refuse_like_simnet() {
    use simnet::{ExecBackend, SimConfig, ThreadedMode};
    for mode in [ThreadedMode::Replay, ThreadedMode::FreeRunning] {
        for kind in ProtocolKind::ALL {
            let backend = ExecBackend::Threaded(mode);
            let mut sys = DynDsm::with_backend(kind, partial_dist(), SimConfig::default(), backend);
            let old = sys.snapshot(ProcId(1));
            sys.write(ProcId(0), VarId(0), 1).unwrap();
            assert_eq!(sys.recovery_retained(ProcId(0)), 1, "{kind} {mode:?}");
            sys.settle();
            assert_eq!(max_retained(&sys), 0, "{kind} {mode:?}");
            assert_eq!(sys.recovery_cuts(), 1, "{kind} {mode:?}");
            assert!(
                matches!(
                    sys.try_restore(ProcId(1), old),
                    Err(DsmError::StaleImage {
                        image_cuts: 0,
                        system_cuts: 1,
                        ..
                    })
                ),
                "{kind} {mode:?}"
            );
            assert_eq!(
                sys.peek(ProcId(1), VarId(0)),
                Value::Int(1),
                "{kind} {mode:?}"
            );
        }
    }
}

#[test]
#[should_panic(expected = "stale replica image for process p1")]
fn the_panicking_restore_reports_the_stale_image() {
    let mut sys: DsmSystem<CausalFull> = DsmSystem::new(Distribution::full(2, 1));
    let old = sys.snapshot(ProcId(1));
    sys.settle();
    sys.restore(ProcId(1), old);
}

/// PRAM numbers a writer's writes globally but sends each only to the
/// variable's replicas, so a replica's next-expected number for a writer
/// may lie far below that writer's cut. That is not staleness.
#[test]
fn a_pram_replica_expecting_a_number_below_the_cut_is_not_stale() {
    let mut sys: DsmSystem<PramPartial> = DsmSystem::new(partial_dist());
    // p1 writes x1 (not replicated by p0) across several cuts.
    for v in 1..=5 {
        sys.write(ProcId(1), VarId(1), v).unwrap();
        sys.settle();
    }
    assert_eq!(sys.recovery_cuts(), 5);
    assert_eq!(sys.snapshot(ProcId(0)).sequence_tracker().expected(1), 1);
    sys.crash(ProcId(0)).unwrap();
    sys.write(ProcId(1), VarId(0), 60).unwrap();
    sys.write(ProcId(1), VarId(1), 61).unwrap();
    sys.settle();
    // p0 asks p1 for "everything from 1 on"; p1 retains 6 and 7 only, and
    // only 6 concerns p0.
    assert_eq!(sys.restart(ProcId(0)), Ok(()));
    assert_eq!(sys.peek(ProcId(0), VarId(0)), Value::Int(60));
    assert_eq!(sys.snapshot(ProcId(0)).sequence_tracker().expected(1), 7);
}

/// One step of a generated script. Writes go to a variable's smallest-id
/// replica only (single writer per variable: race-free).
#[derive(Clone, Copy, Debug)]
enum Step {
    Write(VarId),
    Read(ProcId, usize),
    Settle,
}

#[derive(Clone, Debug)]
struct Script {
    dist: Distribution,
    steps: Vec<Step>,
    /// The process that crashes, and the step indices before which it
    /// goes down and comes back.
    crash: (ProcId, usize, usize),
}

fn script() -> impl Strategy<Value = Script> {
    let step = (0u8..10, 0usize..8, 0usize..8).prop_map(|(kind, a, b)| match kind {
        0..=4 => Step::Write(VarId(a)),
        5..=7 => Step::Read(ProcId(a), b),
        _ => Step::Settle,
    });
    (
        (3usize..=6, 2usize..=8, 1usize..=3, any::<u64>()),
        proptest::collection::vec(step, 6..60),
        (0usize..6, 0usize..60, 0usize..60),
    )
        .prop_map(|((procs, vars, replicas, seed), steps, (q, a, b))| {
            let (a, b) = (a % steps.len(), b % steps.len());
            Script {
                dist: Distribution::random(procs, vars, replicas.min(procs), seed),
                crash: (ProcId(q % procs), a.min(b), a.max(b)),
                steps,
            }
        })
}

#[derive(Debug, PartialEq)]
struct Observation {
    history: History,
    settled: Vec<Value>,
    control: ControlSummary,
    network: NetworkStats,
}

/// Run `script` under `P`, cutting at all-up settles or — the reference —
/// keeping every log entry for the whole run.
fn observe<P: ProtocolSpec>(script: &Script, keep_logs: bool) -> Observation {
    let dist = &script.dist;
    let (q, down_at, up_at) = script.crash;
    let mut sys: DsmSystem<P> = if keep_logs {
        DsmSystem::keeping_logs(dist.clone())
    } else {
        DsmSystem::new(dist.clone())
    };
    let max_retained = |sys: &DsmSystem<P>| {
        (0..dist.process_count())
            .map(|p| sys.recovery_retained(ProcId(p)))
            .max()
    };
    let mut value = 0;
    for (i, step) in script.steps.iter().enumerate() {
        if i == down_at {
            sys.crash(q).unwrap();
        }
        if i == up_at {
            sys.restart(q).unwrap();
        }
        match *step {
            Step::Write(x) => {
                let x = VarId(x.index() % dist.var_count());
                if let Some(&w) = dist.replicas_of(x).first() {
                    if !sys.is_crashed(w) {
                        value += 1;
                        sys.write(w, x, value).unwrap();
                    }
                }
            }
            Step::Read(p, k) => {
                let p = ProcId(p.index() % dist.process_count());
                let vars = dist.vars_of(p);
                if let Some(&x) = vars.iter().nth(k % vars.len().max(1)) {
                    if !sys.is_crashed(p) {
                        sys.read(p, x).unwrap();
                    }
                }
            }
            Step::Settle => {
                sys.settle();
                if !keep_logs && !sys.is_crashed(q) {
                    assert_eq!(max_retained(&sys), Some(0), "an all-up settle cuts");
                }
            }
        }
    }
    if sys.is_crashed(q) {
        sys.restart(q).unwrap();
    }
    sys.settle();
    if keep_logs {
        assert_eq!(sys.recovery_cuts(), 0);
    } else {
        assert_eq!(max_retained(&sys), Some(0));
    }
    let settled = (0..dist.process_count())
        .flat_map(|p| (0..dist.var_count()).map(move |x| (ProcId(p), VarId(x))))
        .map(|(p, x)| sys.peek(p, x))
        .collect();
    Observation {
        history: sys.history(),
        settled,
        control: sys.control_summary(),
        network: sys.network_stats().clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cutting the logs is unobservable: with a crash and restart anywhere
    /// in the script, every catch-up is answered with exactly the entries
    /// the uncut logs would have produced — same histories, same settled
    /// replicas, same control accounting, same wire statistics.
    #[test]
    fn the_cut_changes_nothing_a_run_can_observe(script in script()) {
        fn pin<P: ProtocolSpec>(script: &Script) {
            assert_eq!(observe::<P>(script, false), observe::<P>(script, true), "{}", P::KIND);
        }
        pin::<PramPartial>(&script);
        pin::<CausalPartial>(&script);
        pin::<CausalFull>(&script);
        pin::<Sequential>(&script);
        pin::<OpLog>(&script);
    }
}
