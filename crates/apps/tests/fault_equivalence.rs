//! Differential property tests of the fault layer: link faults change
//! what the wire *pays* and when it arrives, never what the protocols
//! *deliver*; a crash-restart recovers exactly the state a never-crashed
//! node would hold.
//!
//! Three invariants:
//!
//! 1. **Any seeded drop/duplicate schedule (with retransmission) leaves
//!    race-free runs observably identical to the fault-free run** —
//!    histories, settled replica contents, and per-node control-record
//!    counts — for all five protocols on the mesh, the star, and the
//!    grid. With a single writer per variable, replica contents at every
//!    settle point are each writer's FIFO prefix, and the fault layer
//!    preserves per-writer FIFO (delivery times are monotonically
//!    clamped through retransmit delays; duplicates are discarded by the
//!    receiver's link layer), so only timing — and therefore only wire
//!    cost — can change. Every post-fault history also passes its
//!    protocol's advertised criterion via the `histories` checkers.
//! 2. **Crash-restart recovers.** A node crashed mid-script and
//!    restarted from its persisted snapshot (plus the protocol's
//!    catch-up handshake) ends the run with replica state identical to
//!    the same script without the crash, the snapshot/restore round trip
//!    itself is lossless, and duplicates delivered straight to live
//!    protocol nodes are idempotent.
//! 3. **Fault schedules are deterministic**: the same seed reproduces
//!    the same drops, duplicates, and costs, bit for bit.

mod common;

use apps::WorkloadOp;
use apps::{
    apply_script, generate_family_ops, CrashSchedule, FaultFamily, SettlePolicy, WorkloadFamily,
};
use common::{control_signature, single_writer_setup, Observation};
use dsm::{DynDsm, ProtocolKind};
use histories::{check, pram_spot_check, Criterion, Distribution, ProcId, Value, VarId};
use proptest::prelude::*;
use simnet::{ExecBackend, FaultPlan, SimConfig, Topology};

/// A single-writer setup plus the process to crash, any of `0..procs`.
fn crash_setup() -> impl Strategy<Value = (Distribution, Vec<WorkloadOp>, ProcId)> {
    (single_writer_setup(), any::<u64>()).prop_map(|((dist, ops), pick)| {
        let victim = ProcId((pick % dist.process_count() as u64) as usize);
        (dist, ops, victim)
    })
}

/// `ops` without the operations [`apply_script`] skips under `crash`:
/// the crashed process's reads and writes inside its down window.
fn without_skipped_ops(ops: &[WorkloadOp], crash: CrashSchedule) -> Vec<WorkloadOp> {
    let down = crash.crash_before_op..crash.restart_before_op;
    ops.iter()
        .enumerate()
        .filter(|&(i, op)| match *op {
            WorkloadOp::Write { proc, .. } | WorkloadOp::Read { proc, .. } => {
                proc != crash.proc || !down.contains(&i)
            }
            WorkloadOp::Settle => true,
        })
        .map(|(_, &op)| op)
        .collect()
}

/// Mesh + the sparse topologies the issue pins: star and grid.
fn topologies(n: usize) -> Vec<Option<Topology>> {
    vec![None, Some(Topology::star(n)), Some(Topology::grid_of(n))]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Invariant 1: under any seeded drop/duplicate schedule with
    /// retransmission, race-free runs deliver exactly what the reliable
    /// wire delivers — histories, settled values, control-record counts —
    /// while wire costs only ever grow, and every history passes its
    /// advertised criterion.
    #[test]
    fn link_faults_never_change_what_is_delivered(
        (dist, ops) in single_writer_setup(),
        fault_seed in any::<u64>(),
    ) {
        for kind in ProtocolKind::ALL {
            for topology in topologies(dist.process_count()) {
                let reference = observe(kind, &dist, &ops, topology.clone(), FaultPlan::default(), None);
                prop_assert_eq!(pram_spot_check(&reference.history), Ok(()));
                let plans = [
                    FaultPlan::lossy(0.25, fault_seed),
                    FaultPlan::duplicating(0.25, fault_seed),
                    FaultPlan {
                        drop_rate: 0.2,
                        duplicate_rate: 0.2,
                        seed: fault_seed,
                        ..FaultPlan::default()
                    },
                ];
                for plan in plans {
                    let out = observe(kind, &dist, &ops, topology.clone(), plan.clone(), None);
                    prop_assert_eq!(
                        &reference.history, &out.history,
                        "{} histories diverged under drops={} dups={} on {:?}",
                        kind, plan.drop_rate, plan.duplicate_rate, topology
                    );
                    prop_assert_eq!(
                        &reference.settled, &out.settled,
                        "{} settled values diverged on {:?}", kind, topology
                    );
                    prop_assert_eq!(
                        control_signature(&reference.control),
                        control_signature(&out.control),
                        "{} control records diverged on {:?}", kind, topology
                    );
                    // Faults only ever add wire cost.
                    prop_assert!(out.network.total_bytes() >= reference.network.total_bytes());
                    prop_assert_eq!(out.network.total_messages(), reference.network.total_messages());
                    // The post-fault history passes the advertised criterion.
                    if out.history.len() <= 24 {
                        prop_assert!(check(&out.history, kind.guaranteed_criterion()).consistent);
                    } else if kind.guaranteed_criterion() == Criterion::Causal {
                        prop_assert_eq!(histories::causal_spot_check(&out.history), Ok(()));
                    } else {
                        prop_assert_eq!(pram_spot_check(&out.history), Ok(()));
                    }
                }
            }
        }
    }

    /// Invariant 2: any node crashed and restarted mid-script recovers
    /// replica state identical to the same run without the crash, and the
    /// snapshot/restore round trip is lossless. The reference run is the
    /// script minus the ops a down process skips, so both runs issue the
    /// same operations and differ only by the outage.
    #[test]
    fn crash_restart_recovers_the_never_crashed_state((dist, ops, victim) in crash_setup()) {
        let Some(schedule) = FaultFamily::CrashRestart.crash_schedule(&ops, dist.process_count())
        else {
            return;
        };
        let crash = CrashSchedule { proc: victim, ..schedule };
        let reference_ops = without_skipped_ops(&ops, crash);
        for kind in ProtocolKind::ALL {
            // The sequencer is p0: write requests that reach it while it is
            // down are lost by design, so its settled state cannot match.
            // Turning that loss into a typed error is open work (ROADMAP,
            // "Crash anywhere").
            if kind == ProtocolKind::Sequential && victim == ProcId(0) {
                continue;
            }
            for topology in topologies(dist.process_count()) {
                let clean =
                    observe(kind, &dist, &reference_ops, topology.clone(), FaultPlan::default(), None);
                let crashed =
                    observe(kind, &dist, &ops, topology.clone(), FaultPlan::default(), Some(crash));
                // Every replica — including the crashed-and-recovered one
                // — ends with the never-crashed contents.
                prop_assert_eq!(
                    &clean.settled, &crashed.settled,
                    "{} settled values diverged after crashing {:?} on {:?}", kind, victim, topology
                );
                // Both runs issue the same operations, so an outage that
                // loses no delivery cannot make the run send less.
                prop_assert!(
                    crashed.network.total_crash_losses() > 0
                        || crashed.network.total_messages() >= clean.network.total_messages(),
                    "messages vanished during a crash window without being counted as losses"
                );
                // The recovered run's history still meets the criterion.
                if crashed.history.len() <= 24 {
                    prop_assert!(check(&crashed.history, kind.guaranteed_criterion()).consistent);
                } else if kind.guaranteed_criterion() == Criterion::Causal {
                    prop_assert_eq!(histories::causal_spot_check(&crashed.history), Ok(()));
                } else {
                    prop_assert_eq!(pram_spot_check(&crashed.history), Ok(()));
                }
            }
        }
    }

    /// Invariant 3: the same fault seed reproduces the same run, bit for
    /// bit; a different seed produces a different schedule somewhere.
    #[test]
    fn fault_schedules_are_deterministic((dist, ops) in single_writer_setup(), seed in any::<u64>()) {
        let plan = FaultPlan {
            drop_rate: 0.3,
            duplicate_rate: 0.3,
            seed,
            ..FaultPlan::default()
        };
        let a = observe(ProtocolKind::CausalPartial, &dist, &ops, None, plan.clone(), None);
        let b = observe(ProtocolKind::CausalPartial, &dist, &ops, None, plan, None);
        prop_assert_eq!(a.history, b.history);
        prop_assert_eq!(a.network, b.network);
        prop_assert_eq!(a.settled, b.settled);
    }
}

/// Observe `ops` (with an optional scripted crash) on `topology` (the
/// mesh when `None`) under the link-fault plan `faults`.
fn observe(
    kind: ProtocolKind,
    dist: &Distribution,
    ops: &[WorkloadOp],
    topology: Option<Topology>,
    faults: FaultPlan,
    crash: Option<CrashSchedule>,
) -> Observation {
    let config = SimConfig {
        topology,
        faults,
        ..SimConfig::default()
    };
    common::observe(kind, dist, ops, config, ExecBackend::Simnet, crash)
}

/// Snapshot/restore is a lossless round trip, and restoring a snapshot
/// into the wrong protocol is rejected loudly.
#[test]
fn snapshot_restore_round_trip_is_lossless_for_every_protocol() {
    let dist = Distribution::random(4, 6, 2, 9);
    let ops = generate_family_ops(
        &dist,
        &WorkloadFamily::ProducerConsumer,
        4,
        SettlePolicy::Every(3),
        11,
    );
    for kind in ProtocolKind::ALL {
        let mut dsm = DynDsm::with_config(kind, dist.clone(), SimConfig::default());
        apply_script(&mut dsm, &ops, None);
        for p in 0..dist.process_count() {
            let snap = dsm.snapshot(ProcId(p));
            assert_eq!(snap.kind(), kind);
            dsm.restore(ProcId(p), snap.clone());
            assert_eq!(
                dsm.snapshot(ProcId(p)),
                snap,
                "{kind}: snapshot/restore round trip must be lossless for p{p}"
            );
            for x in 0..dist.var_count() {
                if kind.is_fully_replicated() || dist.replicates(ProcId(p), VarId(x)) {
                    assert_eq!(snap.value(VarId(x)), dsm.peek(ProcId(p), VarId(x)));
                }
            }
        }
    }
}

/// Duplicates delivered straight to live protocol nodes are idempotent:
/// redelivering a whole settled run's traffic changes nothing. (The link
/// layer already discards duplicates; this pins the protocols' own
/// guards, which the crash-recovery overlap exercises.)
#[test]
fn duplicate_deliveries_to_live_nodes_are_idempotent() {
    let dist = Distribution::full(3, 2);
    for kind in ProtocolKind::ALL {
        let mut dsm = DynDsm::with_config(kind, dist.clone(), SimConfig::default());
        dsm.write(ProcId(0), VarId(0), 1).unwrap();
        dsm.write(ProcId(1), VarId(1), 2).unwrap();
        dsm.settle();
        let before: Vec<ReplicaFacts> = (0..3).map(|p| facts(&dsm, ProcId(p), &dist)).collect();
        // A restarted node with a fully up-to-date snapshot re-requests
        // nothing new, but its peers may still resend in-flight overlap;
        // simulate the worst case by replaying the whole catch-up.
        dsm.crash(ProcId(2)).unwrap();
        dsm.restart(ProcId(2)).unwrap();
        dsm.settle();
        let after: Vec<ReplicaFacts> = (0..3).map(|p| facts(&dsm, ProcId(p), &dist)).collect();
        assert_eq!(
            before, after,
            "{kind}: replayed deliveries must be idempotent"
        );
    }
}

type ReplicaFacts = Vec<(VarId, Value)>;

fn facts(dsm: &DynDsm, p: ProcId, dist: &Distribution) -> ReplicaFacts {
    (0..dist.var_count())
        .map(|x| (VarId(x), dsm.peek(p, VarId(x))))
        .collect()
}
