//! Differential property tests pinning the threaded execution backend to
//! the simnet oracle, through the same runtime-dispatched path every
//! driver uses.
//!
//! Two pins, per protocol, on full-mesh deployments of 4 and 8 processes:
//!
//! * **Replay mode is bit-identical**: the threaded backend re-executes
//!   the simnet delivery schedule on real threads, so the recorded
//!   history, the wire counters the workers kept, the per-node
//!   control-record accounting, and every settled replica value must
//!   equal the simnet run exactly — any workload.
//! * **Free-running mode converges to the same settled values** on
//!   race-free (single-writer-per-variable) scripts: delivery timing is
//!   real and nondeterministic, but per-link FIFO plus a quiescence
//!   barrier at every settle point pins what the replicas hold whenever
//!   the application looks. It also issues every scripted operation: its
//!   history is as long as the simnet run's, and it passes the PRAM spot
//!   check, the causal one under a causal protocol, and (at most 24
//!   operations) the exhaustive check of the protocol's guaranteed
//!   criterion.
//!
//! Every script first goes through `read_own_writes`: each write is
//! followed by its writer's read of the same variable, so a free-running
//! read that skipped the writes its own node pipelined would return an
//! older value and fail the history checks.
//!
//! The same two pins then sweep each capability the inbox-fabric backend
//! gained: every swept delivery mode (multicast, batching, delta) on the
//! mesh, and routed sparse topologies (ring / grid / star / line), with
//! multicast also exercised *on* the sparse topologies, where broadcast
//! trees actually share edges.

mod common;

use apps::WorkloadOp;
use apps::{generate_family_ops, SettlePolicy, WorkloadFamily};
use common::{observe, Observation};
use dsm::ProtocolKind;
use histories::{causal_spot_check, check, pram_spot_check, Criterion, Distribution, History};
use proptest::prelude::*;
use simnet::{DeliveryMode, ExecBackend, SimConfig, ThreadedMode, Topology};

const REPLAY: ExecBackend = ExecBackend::Threaded(ThreadedMode::Replay);
const FREE: ExecBackend = ExecBackend::Threaded(ThreadedMode::FreeRunning);

/// Observe `ops` on `backend` under the default configuration.
fn run_on(
    kind: ProtocolKind,
    dist: &Distribution,
    ops: &[WorkloadOp],
    backend: ExecBackend,
) -> Observation {
    observe(kind, dist, ops, SimConfig::default(), backend, None)
}

/// Both pins on one cell: replay is bit-identical to the simnet run under
/// `config` (settled values, history, wire counters, control records),
/// and free-running issues every scripted operation and settles to its
/// values.
fn assert_both_pins(
    kind: ProtocolKind,
    dist: &Distribution,
    ops: &[WorkloadOp],
    config: SimConfig,
    cell: &str,
) {
    let run = |backend| observe(kind, dist, ops, config.clone(), backend, None);
    let (sim, replay) = (run(ExecBackend::Simnet), run(REPLAY));
    assert_eq!(sim.settled, replay.settled, "{cell}: replay settled values");
    assert_eq!(sim.history, replay.history, "{cell}: replay history");
    assert_eq!(sim.network, replay.network, "{cell}: replay wire counters");
    assert_eq!(
        sim.control, replay.control,
        "{cell}: replay control records"
    );
    let free = run(FREE);
    assert_eq!(
        sim.settled, free.settled,
        "{cell}: free-running settled values"
    );
    assert_eq!(
        sim.history.len(),
        free.history.len(),
        "{cell}: free-running issued operations"
    );
    assert_history_holds(kind, &free.history, cell);
}

/// Largest history the exhaustive checker judges here.
const EXHAUSTIVE_OPS: usize = 24;

/// A free-running history keeps what its protocol guarantees: PRAM's
/// spot check for every protocol, the causal one for the causal
/// protocols, and the exhaustive check against the guaranteed criterion
/// on a history small enough for it. Settled values alone would miss a
/// read that saw a node's writes out of program order.
fn assert_history_holds(kind: ProtocolKind, history: &History, cell: &str) {
    assert_eq!(
        pram_spot_check(history),
        Ok(()),
        "{cell}: free-running history is not PRAM"
    );
    if kind.guaranteed_criterion() == Criterion::Causal {
        assert_eq!(
            causal_spot_check(history),
            Ok(()),
            "{cell}: free-running history is not causal"
        );
    }
    if history.len() <= EXHAUSTIVE_OPS {
        let report = check(history, kind.guaranteed_criterion());
        assert!(
            report.consistent,
            "{cell}: free-running history fails {:?}: {:?}",
            report.criterion, report.violation
        );
    }
}

/// `ops` with every write followed by a read of the same variable by the
/// same process. The scripts stay single-writer per variable, so they stay
/// race-free, and each added read must return the write just before it.
fn read_own_writes(ops: Vec<WorkloadOp>) -> Vec<WorkloadOp> {
    ops.into_iter()
        .flat_map(|op| {
            let echo = match op {
                WorkloadOp::Write { proc, var, .. } => Some(WorkloadOp::Read { proc, var }),
                _ => None,
            };
            std::iter::once(op).chain(echo)
        })
        .collect()
}

/// The sparse topologies the threaded backend must host via relays.
fn sparse_topology(pick: usize, n: usize) -> Topology {
    match pick % 4 {
        0 => Topology::ring(n),
        1 => Topology::grid_of(n),
        2 => Topology::star(n),
        _ => Topology::line(n),
    }
}

/// Strategy: a 4- or 8-process random distribution plus a race-free
/// (single-writer-per-variable) producer/consumer script over it.
fn mesh_setup() -> impl Strategy<Value = (Distribution, Vec<WorkloadOp>)> {
    (
        0usize..=1,
        3usize..=8,
        1usize..=3,
        any::<u64>(),
        any::<u64>(),
        1usize..=4,
    )
        .prop_map(|(size_pick, vars, replicas, dseed, wseed, settle_every)| {
            let procs = if size_pick == 0 { 4 } else { 8 };
            let dist = Distribution::random(procs, vars, replicas.min(procs), dseed);
            let ops = read_own_writes(generate_family_ops(
                &dist,
                &WorkloadFamily::ProducerConsumer,
                4,
                SettlePolicy::Every(settle_every * 3),
                wseed,
            ));
            (dist, ops)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Replay mode: bit-identical to simnet — settled values, recorded
    /// history (every read sees the same value at the same position),
    /// wire counters, and per-node control-record counts/bytes.
    #[test]
    fn replay_mode_is_bit_identical_to_simnet((dist, ops) in mesh_setup()) {
        for kind in ProtocolKind::ALL {
            let sim = run_on(kind, &dist, &ops, ExecBackend::Simnet);
            let thr = run_on(kind, &dist, &ops, REPLAY);
            prop_assert_eq!(&sim.settled, &thr.settled, "{} settled values", kind);
            prop_assert_eq!(&sim.history, &thr.history, "{} history", kind);
            prop_assert_eq!(&sim.network, &thr.network, "{} wire counters", kind);
            prop_assert_eq!(&sim.control, &thr.control, "{} control records", kind);
        }
    }

    /// Free-running mode: real concurrent delivery, but race-free scripts
    /// settle to exactly the values the simnet run settles to, and the
    /// history keeps the protocol's guarantee.
    #[test]
    fn free_running_settles_to_simnet_values((dist, ops) in mesh_setup()) {
        for kind in ProtocolKind::ALL {
            let sim = run_on(kind, &dist, &ops, ExecBackend::Simnet);
            let thr = run_on(kind, &dist, &ops, FREE);
            prop_assert_eq!(&sim.settled, &thr.settled, "{} settled values", kind);
            assert_history_holds(kind, &thr.history, kind.name());
        }
    }
}

/// Strategy: a 4-process random distribution plus a race-free script —
/// the small deployments the capability sweeps run on (every protocol ×
/// mode × topology multiplies the cost, so the fabric stays small).
fn small_setup() -> impl Strategy<Value = (Distribution, Vec<WorkloadOp>)> {
    (2usize..=6, 1usize..=3, any::<u64>(), any::<u64>()).prop_map(
        |(vars, replicas, dseed, wseed)| {
            let dist = Distribution::random(4, vars, replicas.min(4), dseed);
            let ops = read_own_writes(generate_family_ops(
                &dist,
                &WorkloadFamily::ProducerConsumer,
                4,
                SettlePolicy::Every(6),
                wseed,
            ));
            (dist, ops)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Threaded × delivery modes on the mesh: every swept wire mode
    /// (multicast, batching, delta, and all three together) is accepted
    /// by the threaded backend, replay stays bit-identical to the simnet
    /// run under the same mode, and free-running settles to its values.
    #[test]
    fn threaded_backend_pins_every_delivery_mode((dist, ops) in small_setup()) {
        for delivery in [
            DeliveryMode::MULTICAST,
            DeliveryMode::BATCHED,
            DeliveryMode::DELTA,
            DeliveryMode::MULTICAST_BATCHED_DELTA,
        ] {
            let config = SimConfig { delivery, ..SimConfig::default() };
            for kind in ProtocolKind::ALL {
                let cell = format!("{kind} × {}", delivery.label());
                assert_both_pins(kind, &dist, &ops, config.clone(), &cell);
            }
        }
    }

    /// Threaded × routed sparse topologies: relay nodes on worker threads
    /// carry every protocol over ring/grid/star/line, with multicast also
    /// swept (broadcast trees only share edges when routed). Replay is
    /// bit-identical to the simnet run over the same topology;
    /// free-running settles to its values.
    #[test]
    fn threaded_backend_pins_routed_topologies(
        (dist, ops) in small_setup(),
        pick in 0usize..4,
        multicast in any::<bool>(),
    ) {
        let config = SimConfig {
            topology: Some(sparse_topology(pick, 4)),
            delivery: if multicast { DeliveryMode::MULTICAST } else { DeliveryMode::UNICAST },
            ..SimConfig::default()
        };
        for kind in ProtocolKind::ALL {
            assert_both_pins(kind, &dist, &ops, config.clone(), &format!("{kind} routed"));
        }
    }
}

/// Each sparse topology gets one deterministic cell outside the proptest
/// loop, so a plain `cargo test` failure names the topology directly.
#[test]
fn threaded_routed_topologies_agree_on_a_fixed_script() {
    let dist = Distribution::random(4, 5, 2, 19);
    let ops = read_own_writes(generate_family_ops(
        &dist,
        &WorkloadFamily::ProducerConsumer,
        4,
        SettlePolicy::Every(5),
        31,
    ));
    for pick in 0..4 {
        let topology = sparse_topology(pick, 4);
        let config = SimConfig {
            topology: Some(topology.clone()),
            ..SimConfig::default()
        };
        for kind in ProtocolKind::ALL {
            let cell = format!("{kind} on {topology:?}");
            assert_both_pins(kind, &dist, &ops, config.clone(), &cell);
        }
    }
}

/// One deterministic smoke case per mode outside the proptest loop, so a
/// plain `cargo test` failure names the mode without shrinking first.
#[test]
fn threaded_modes_agree_on_a_fixed_producer_consumer_script() {
    let dist = Distribution::random(4, 6, 2, 11);
    let ops = read_own_writes(generate_family_ops(
        &dist,
        &WorkloadFamily::ProducerConsumer,
        5,
        SettlePolicy::Every(4),
        23,
    ));
    for kind in ProtocolKind::ALL {
        assert_both_pins(kind, &dist, &ops, SimConfig::default(), kind.name());
    }
}

/// The op-log's own deterministic pin: the fifth protocol's
/// flat-combining lanes and shard-log replay must survive the move onto
/// real threads exactly like the other four. Replay is bit-identical to
/// the simnet oracle (settled values, history, wire counters, control
/// records) on a larger deployment than the `ALL` sweeps use, under both
/// the plain wire and the full multicast+batched+delta stack;
/// free-running converges to the same settled values.
#[test]
fn op_log_threaded_replay_is_bit_identical_and_free_running_converges() {
    let dist = Distribution::random(8, 12, 2, 17);
    let ops = read_own_writes(generate_family_ops(
        &dist,
        &WorkloadFamily::ProducerConsumer,
        6,
        SettlePolicy::Every(5),
        29,
    ));
    for delivery in [DeliveryMode::UNICAST, DeliveryMode::MULTICAST_BATCHED_DELTA] {
        let config = SimConfig {
            delivery,
            ..SimConfig::default()
        };
        let cell = format!("op-log × {}", delivery.label());
        assert_both_pins(ProtocolKind::OpLog, &dist, &ops, config, &cell);
    }
}
