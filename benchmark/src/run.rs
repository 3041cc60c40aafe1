//! Driving a workload: rounds through `DynDsm`, the read and replica
//! checks, the verification pass, the repeated set-up, and the
//! determinism replay.

use crate::workload::{warmup_rounds, Op, Script, Spec};
use dsm::{DynDsm, ProtocolKind};
use histories::{
    causal_spot_check, check, pram_spot_check, Criterion, Distribution, History, Value, VarId,
};
use simnet::ExecBackend;
use std::hint::black_box;
use std::time::Instant;

/// How often the set-up is repeated in one run; `setup_s` reports the
/// median, so one slow thread spawn or page-fault burst does not move it.
pub const SETUP_REPS: usize = 5;

/// Rounds of the determinism replay on `sim-*` (at most the warm-up, so the
/// reference counters are read outside the timed phase).
const REPLAY_ROUNDS: u64 = 1_000;

/// Operations of the prefix checked exhaustively against the protocol's
/// guaranteed criterion.
const EXHAUSTIVE_OPS: usize = 24;

/// Operations (at least) of the prefix run through the polynomial spot
/// checkers.
const SPOT_OPS: usize = 2_000;

/// The cumulative counters of a deployment, read at phase and round
/// boundaries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// `NetworkStats::total_messages`.
    pub msgs: u64,
    /// `ControlSummary::total_control_bytes` — the paper's metric.
    pub ctl_bytes: u64,
    /// `events_processed`: simulator events, or worker deliveries on threads.
    pub events: u64,
    /// Transit envelopes relayed by intermediate nodes.
    pub forwarded: u64,
    /// Buffer-pool hits.
    pub pool_hits: u64,
    /// Buffer-pool misses.
    pub pool_misses: u64,
    /// Ring-full stalls of the threaded fabric.
    pub full_stalls: u64,
    /// Non-empty mailbox drains.
    pub batches: u64,
    /// Messages moved by those drains.
    pub batched_msgs: u64,
}

impl Counters {
    /// Read every counter of `dsm`. Call only at a settle point: the
    /// threaded backend synchronizes its counters there.
    pub fn read(dsm: &DynDsm) -> Counters {
        let pool = dsm.pool_stats();
        let fabric = dsm.fabric_stats();
        Counters {
            msgs: dsm.network_stats().total_messages(),
            ctl_bytes: dsm.control_summary().total_control_bytes(),
            events: dsm.events_processed(),
            forwarded: dsm.forwarded_messages(),
            pool_hits: pool.hits,
            pool_misses: pool.misses,
            full_stalls: fabric.full_stalls,
            batches: fabric.batches,
            batched_msgs: fabric.batched_messages,
        }
    }

    fn combine(&self, other: &Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
        Counters {
            msgs: f(self.msgs, other.msgs),
            ctl_bytes: f(self.ctl_bytes, other.ctl_bytes),
            events: f(self.events, other.events),
            forwarded: f(self.forwarded, other.forwarded),
            pool_hits: f(self.pool_hits, other.pool_hits),
            pool_misses: f(self.pool_misses, other.pool_misses),
            full_stalls: f(self.full_stalls, other.full_stalls),
            batches: f(self.batches, other.batches),
            batched_msgs: f(self.batched_msgs, other.batched_msgs),
        }
    }

    /// The growth from `earlier` to `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        self.combine(earlier, |now, then| now - then)
    }

    /// Add `other` into `self` (pooling the five protocols).
    pub fn add(&mut self, other: &Counters) {
        *self = self.combine(other, |a, b| a + b);
    }
}

/// Sees the boundaries of every round the [`Driver`] issues. The untraced
/// run times whole rounds with it; the traced run records a span per call
/// into `DynDsm`.
pub trait Observer {
    /// Round `r` is about to issue its first operation.
    fn round_start(&mut self, r: u64);
    /// A `DynDsm::write` (`write`) or `DynDsm::read` just returned.
    fn op_done(&mut self, write: bool);
    /// The round's `DynDsm::settle` just returned.
    fn round_done(&mut self, dsm: &DynDsm);
}

/// Observer of rounds nobody measures (warm-up, verification, replay).
pub struct Unobserved;

impl Observer for Unobserved {
    fn round_start(&mut self, _r: u64) {}
    fn op_done(&mut self, _write: bool) {}
    fn round_done(&mut self, _dsm: &DynDsm) {}
}

/// Times whole rounds: the untraced measurement.
pub struct RoundTimer {
    started: Instant,
    /// Duration of every round seen, in nanoseconds.
    pub round_ns: Vec<u64>,
}

impl RoundTimer {
    /// A timer expecting about `rounds` rounds.
    pub fn with_capacity(rounds: u64) -> RoundTimer {
        RoundTimer {
            started: Instant::now(),
            round_ns: Vec::with_capacity(rounds as usize),
        }
    }
}

impl Observer for RoundTimer {
    fn round_start(&mut self, _r: u64) {
        self.started = Instant::now();
    }
    fn op_done(&mut self, _write: bool) {}
    fn round_done(&mut self, _dsm: &DynDsm) {
        self.round_ns.push(self.started.elapsed().as_nanos() as u64);
    }
}

/// Issues script rounds against one deployment and checks what comes
/// back: an operation must not return a `DsmError`, and a read must return
/// a value between the variable's value at the last settle and the latest
/// value written to it (single writer, FIFO links: replicas only move
/// forward).
pub struct Driver<'a> {
    script: &'a Script,
    settled: Vec<i64>,
    latest: Vec<i64>,
    /// Operations issued.
    pub attempted: u64,
    /// Operations that returned an error or an impossible value.
    pub failed: u64,
}

impl<'a> Driver<'a> {
    /// A driver for a fresh deployment (no variable written yet).
    pub fn new(script: &'a Script, vars: usize) -> Driver<'a> {
        Driver {
            script,
            settled: vec![0; vars],
            latest: vec![0; vars],
            attempted: 0,
            failed: 0,
        }
    }

    fn issue(&mut self, dsm: &mut DynDsm, op: Op, value: i64) -> bool {
        let x = op.var.index();
        if op.write {
            self.latest[x] = value;
            dsm.write(op.proc, op.var, value).is_ok()
        } else {
            match black_box(dsm.read(op.proc, op.var)) {
                Ok(Value::Int(v)) => self.settled[x] <= v && v <= self.latest[x],
                Ok(Value::Bottom) => self.settled[x] == 0,
                Err(_) => false,
            }
        }
    }

    /// Issue the first `ops` operations of round `r`, then settle.
    fn partial_round(&mut self, dsm: &mut DynDsm, r: u64, ops: usize, obs: &mut impl Observer) {
        let script = self.script;
        obs.round_start(r);
        for (i, &op) in script.round(r)[..ops].iter().enumerate() {
            let ok = self.issue(dsm, op, script.value(r, i));
            obs.op_done(op.write);
            self.failed += u64::from(!ok);
        }
        self.attempted += ops as u64;
        if dsm.settle().is_quiescent() {
            self.settled.copy_from_slice(&self.latest);
        } else {
            self.failed += 1;
        }
        obs.round_done(dsm);
    }

    /// Issue rounds `rounds.start..rounds.end`, each followed by a settle.
    pub fn rounds(
        &mut self,
        dsm: &mut DynDsm,
        rounds: std::ops::Range<u64>,
        obs: &mut impl Observer,
    ) {
        let k = self.script.ops_per_round();
        for r in rounds {
            self.partial_round(dsm, r, k, obs);
        }
    }
}

/// The processes that must hold `var` under `kind`.
fn holders(kind: ProtocolKind, dist: &Distribution, var: VarId) -> Vec<histories::ProcId> {
    if kind.is_fully_replicated() {
        (0..dist.process_count()).map(histories::ProcId).collect()
    } else {
        dist.replicas_of(var).into_iter().collect()
    }
}

/// The output check: the number of replicas whose settled value differs
/// from `oracle` (the script's last value per variable, 0 = never written).
pub fn mismatched_replicas(dsm: &DynDsm, dist: &Distribution, oracle: &[i64]) -> u64 {
    let mut wrong = 0;
    for (x, &want) in oracle.iter().enumerate() {
        let want = if want == 0 {
            Value::Bottom
        } else {
            Value::Int(want)
        };
        for p in holders(dsm.kind(), dist, VarId(x)) {
            wrong += u64::from(dsm.peek(p, VarId(x)) != want);
        }
    }
    wrong
}

/// Everything a run needs that does not depend on the protocol.
pub struct Inputs {
    /// The workload.
    pub spec: &'static Spec,
    /// `--seed`.
    pub seed: u64,
    /// The variable distribution.
    pub dist: Distribution,
    /// The operation script.
    pub script: Script,
}

impl Inputs {
    /// Build the distribution and the script of `spec` from `seed`.
    pub fn generate(spec: &'static Spec, seed: u64) -> Inputs {
        let dist = spec.distribution();
        let script = Script::generate(spec, &dist, seed);
        Inputs {
            spec,
            seed,
            dist,
            script,
        }
    }

    /// A fresh deployment of `kind` on `backend`, with the workload's
    /// distribution, topology and delivery mode.
    pub fn deploy(
        &self,
        kind: ProtocolKind,
        backend: ExecBackend,
        record: bool,
    ) -> Result<DynDsm, dsm::DsmError> {
        let mut dsm = DynDsm::try_with_backend(
            kind,
            self.dist.clone(),
            self.spec.sim_config(self.seed),
            backend,
        )?;
        if !record {
            dsm.disable_recording();
        }
        Ok(dsm)
    }
}

/// The recorded prefixes of one protocol, kept so the traced run can time
/// the checkers on them.
pub struct RecordedPrefixes {
    /// Protocol that produced them.
    pub kind: ProtocolKind,
    /// The 24-operation history.
    pub short: History,
    /// The ≥ 2 000-operation history.
    pub long: History,
}

/// The verification pass: per protocol, a recorded 24-operation prefix
/// must pass the exhaustive checker for the protocol's guaranteed
/// criterion, and a recorded ≥ 2 000-operation prefix the polynomial spot
/// checkers. Returns the histories and the number of failed checks (a
/// deployment that cannot be built counts as one).
///
/// The prefixes are recorded on simnet on every workload. Free-running
/// threads deliver inside a round, and there the sequencer and the op-log
/// let the ordered echo of an older write overwrite a newer optimistic
/// local apply, so a process can read its own stale write: the `thr-*`
/// histories of those two protocols fail `pram_spot_check` from time to
/// time. The benchmark must run workloads on which nothing fails, so on
/// `thr-*` it checks reads by range and replicas against the oracle, and
/// leaves the history checkers to the deterministic backend.
pub fn verify(inputs: &Inputs) -> (Vec<RecordedPrefixes>, u64) {
    let k = inputs.script.ops_per_round();
    let mut failures = 0;
    let mut recorded = Vec::new();
    for kind in ProtocolKind::ALL {
        let Ok(mut dsm) = inputs.deploy(kind, ExecBackend::Simnet, true) else {
            failures += 1;
            continue;
        };
        let mut driver = Driver::new(&inputs.script, inputs.spec.vars);
        driver.partial_round(&mut dsm, 0, EXHAUSTIVE_OPS.min(k), &mut Unobserved);
        let short = dsm.history();
        failures += u64::from(!check(&short, kind.guaranteed_criterion()).consistent);

        // The same deployment goes on with whole rounds until the long
        // prefix is reached (from round 1: written values stay unique).
        driver.rounds(
            &mut dsm,
            1..1 + SPOT_OPS.div_ceil(k) as u64,
            &mut Unobserved,
        );
        let long = dsm.history();
        failures += u64::from(pram_spot_check(&long).is_err());
        if kind.guaranteed_criterion() == Criterion::Causal {
            failures += u64::from(causal_spot_check(&long).is_err());
        }
        failures += driver.failed;
        recorded.push(RecordedPrefixes { kind, short, long });
    }
    (recorded, failures)
}

/// What one protocol's segment of a run measured.
pub struct Segment {
    /// The protocol.
    pub kind: ProtocolKind,
    /// Seconds each repetition of the set-up took (construction, warm-up).
    pub setup_s: Vec<f64>,
    /// Wall time of the timed phase, in nanoseconds.
    pub timed_ns: u64,
    /// Operations of the timed phase.
    pub timed_ops: u64,
    /// Counter growth over the timed phase.
    pub counters: Counters,
    /// Nanoseconds the driver thread waited for a core in the timed phase.
    pub wait_ns: u64,
    /// Operations issued in total (set-up repetitions and replay included).
    pub attempted: u64,
    /// Operations that failed, replicas that disagree with the oracle, and
    /// (1 each) a deployment that could not be built or a replay whose
    /// counters differ.
    pub failed: u64,
}

/// Rounds per protocol of one run.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Warm-up rounds (part of the set-up).
    pub warmup: u64,
    /// Timed rounds.
    pub timed: u64,
    /// Set-up repetitions.
    pub setup_reps: usize,
}

impl Plan {
    /// The plan for `timed` timed rounds.
    pub fn new(timed: u64, setup_reps: usize) -> Plan {
        Plan {
            warmup: warmup_rounds(timed),
            timed,
            setup_reps,
        }
    }

    fn replay_rounds(&self) -> u64 {
        REPLAY_ROUNDS.min(self.warmup)
    }
}

/// Set a deployment up: build it and run the warm-up rounds. Returns the
/// counters at the replay point with it.
fn set_up<'a>(
    inputs: &'a Inputs,
    kind: ProtocolKind,
    plan: &Plan,
) -> Result<(DynDsm, Driver<'a>, Counters), dsm::DsmError> {
    let mut dsm = inputs.deploy(kind, inputs.spec.backend, false)?;
    let mut driver = Driver::new(&inputs.script, inputs.spec.vars);
    let replay = plan.replay_rounds();
    driver.rounds(&mut dsm, 0..replay, &mut Unobserved);
    let at_replay_point = Counters::read(&dsm);
    driver.rounds(&mut dsm, replay..plan.warmup, &mut Unobserved);
    Ok((dsm, driver, at_replay_point))
}

/// Run one protocol's segment: the set-up `plan.setup_reps` times (the
/// last one is kept), the timed rounds under `obs`, the output check,
/// and on simnet the determinism replay. `oracle` is the script's last
/// value per variable after `plan.warmup + plan.timed` rounds.
pub fn run_segment(
    inputs: &Inputs,
    kind: ProtocolKind,
    plan: &Plan,
    oracle: &[i64],
    obs: &mut impl Observer,
) -> Segment {
    let mut segment = Segment {
        kind,
        setup_s: Vec::with_capacity(plan.setup_reps),
        timed_ns: 0,
        timed_ops: plan.timed * inputs.script.ops_per_round() as u64,
        counters: Counters::default(),
        wait_ns: 0,
        attempted: 0,
        failed: 0,
    };
    let mut kept = None;
    for _ in 0..plan.setup_reps {
        // Drop the previous repetition first: two live deployments would
        // double the worker threads on `thr-*`.
        drop(kept.take());
        let started = Instant::now();
        match set_up(inputs, kind, plan) {
            Ok(ready) => {
                segment.setup_s.push(started.elapsed().as_secs_f64());
                segment.attempted += ready.1.attempted;
                kept = Some(ready);
            }
            Err(e) => {
                eprintln!("dsmbench: cannot deploy {kind}: {e}");
                segment.failed += 1;
                return segment;
            }
        }
    }
    let Some((mut dsm, mut driver, at_replay_point)) = kept else {
        segment.failed += 1;
        return segment;
    };
    let issued_before = driver.attempted;

    let before = Counters::read(&dsm);
    let wait_before = crate::host::thread_wait_ns();
    let started = Instant::now();
    driver.rounds(&mut dsm, plan.warmup..plan.warmup + plan.timed, obs);
    segment.timed_ns = started.elapsed().as_nanos() as u64;
    if let (Some(a), Some(b)) = (wait_before, crate::host::thread_wait_ns()) {
        segment.wait_ns = b.saturating_sub(a);
    }
    segment.counters = Counters::read(&dsm).since(&before);
    segment.attempted += driver.attempted - issued_before;
    segment.failed += driver.failed + mismatched_replicas(&dsm, &inputs.dist, oracle);
    drop(dsm);

    if !inputs.spec.is_threaded() {
        let replay = plan.replay_rounds();
        match inputs.deploy(kind, ExecBackend::Simnet, false) {
            Ok(mut again) => {
                let mut driver = Driver::new(&inputs.script, inputs.spec.vars);
                driver.rounds(&mut again, 0..replay, &mut Unobserved);
                segment.attempted += driver.attempted;
                segment.failed += driver.failed;
                if Counters::read(&again) != at_replay_point {
                    eprintln!("dsmbench: {kind}: replay of {replay} rounds counted differently");
                    segment.failed += 1;
                }
            }
            Err(_) => segment.failed += 1,
        }
    }
    segment
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SPECS;

    fn tiny_plan() -> Plan {
        Plan::new(3, 1)
    }

    #[test]
    fn every_protocol_passes_the_output_check_on_every_workload() {
        for spec in &SPECS {
            if spec.is_threaded() && crate::host::cores() < 2 {
                continue;
            }
            let inputs = Inputs::generate(spec, 11);
            let plan = tiny_plan();
            let oracle = inputs.script.last_values(plan.warmup + plan.timed);
            for kind in ProtocolKind::ALL {
                let mut timer = RoundTimer::with_capacity(plan.timed);
                let seg = run_segment(&inputs, kind, &plan, &oracle, &mut timer);
                assert_eq!(seg.failed, 0, "{} {kind}", spec.name);
                assert_eq!(timer.round_ns.len() as u64, plan.timed);
                assert_eq!(seg.timed_ops, 3 * spec.ops_per_round as u64);
                assert!(seg.attempted >= seg.timed_ops);
                assert!(seg.counters.msgs > 0, "{} {kind}", spec.name);
            }
        }
    }

    #[test]
    fn a_corrupted_oracle_fails_the_segment() {
        let inputs = Inputs::generate(&SPECS[0], 11);
        let plan = tiny_plan();
        let mut oracle = inputs.script.last_values(plan.warmup + plan.timed);
        let x = oracle.iter().position(|&v| v != 0).expect("a written var");
        oracle[x] += 1;
        let seg = run_segment(
            &inputs,
            ProtocolKind::PramPartial,
            &plan,
            &oracle,
            &mut Unobserved,
        );
        // Both replicas of the corrupted variable disagree.
        assert_eq!(seg.failed, 2);
    }

    #[test]
    fn an_impossible_read_counts_as_failed() {
        let inputs = Inputs::generate(&SPECS[0], 11);
        let mut dsm = inputs
            .deploy(ProtocolKind::PramPartial, ExecBackend::Simnet, false)
            .unwrap();
        let mut driver = Driver::new(&inputs.script, inputs.spec.vars);
        // Pretend every variable was settled at a value nobody wrote.
        driver.settled.fill(1 << 40);
        driver.latest.fill(1 << 40);
        driver.rounds(&mut dsm, 0..1, &mut Unobserved);
        let reads = inputs.script.round(0).iter().filter(|op| !op.write).count();
        assert_eq!(driver.failed, reads as u64);
    }

    #[test]
    fn the_verification_pass_accepts_every_protocol() {
        let inputs = Inputs::generate(&SPECS[0], 4);
        let (recorded, failures) = verify(&inputs);
        assert_eq!(failures, 0);
        assert_eq!(recorded.len(), 5);
        for r in &recorded {
            assert_eq!(r.short.len(), 24);
            assert!(r.long.len() >= 2_000);
        }
    }

    #[test]
    fn sim_counters_repeat_exactly() {
        let inputs = Inputs::generate(&SPECS[1], 2);
        let read = |kind| {
            let mut dsm = inputs.deploy(kind, ExecBackend::Simnet, false).unwrap();
            Driver::new(&inputs.script, inputs.spec.vars).rounds(&mut dsm, 0..2, &mut Unobserved);
            Counters::read(&dsm)
        };
        for kind in ProtocolKind::ALL {
            let a = read(kind);
            assert_eq!(a, read(kind), "{kind}");
            assert!(a.forwarded > 0, "{kind}: the grid relays");
        }
    }
}
