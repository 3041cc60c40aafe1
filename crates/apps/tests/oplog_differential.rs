//! Differential tests pinning the shared-operation-log protocol to the
//! centralized sequencer it replaces.
//!
//! Both protocols advertise the same criteria — PRAM between settles,
//! sequential consistency at settle points — and both apply writes
//! optimistically at the writer before ordering them. On **race-free**
//! scripts (single writer per variable, the producer/consumer family)
//! the per-variable delivery order therefore equals the writer's program
//! order under either ordering mechanism, so the two protocols must be
//! *observationally identical*: every read returns the same value at the
//! same history position, and every replica settles on the same value.
//! The wire cost differs (that is the point of the op-log — see the E10
//! table in `bench`), but the visible memory behaviour may not.
//!
//! Two layers:
//!
//! * a deterministic exhaustive sweep over the full cross product of the
//!   standard topologies × all six delivery modes × all four fault
//!   families on one fixed script, so every cell the scenario matrix can
//!   produce is pinned, and
//! * proptests with random distributions and scripts on sampled
//!   coordinates, so the equivalence holds beyond the fixed script.

mod common;

use apps::WorkloadOp;
use apps::{
    generate_family_ops, standard_faults, standard_topologies, FaultFamily, SettlePolicy,
    TopologyFamily, WorkloadFamily,
};
use common::observe;
use dsm::ProtocolKind;
use histories::Distribution;
use proptest::prelude::*;
use simnet::{DeliveryMode, ExecBackend, SimConfig};

/// Run the op-log and the sequencer on an identical cell — the fault
/// family's link plan and scripted crash included — through the simnet
/// oracle, and assert the observational pins: equal histories, and equal
/// settled values on every replica the distribution places (the sequencer
/// replicates every variable; the op-log only these).
fn assert_cell_equivalent(
    dist: &Distribution,
    ops: &[WorkloadOp],
    topology: &TopologyFamily,
    delivery: DeliveryMode,
    fault: FaultFamily,
    seed: u64,
) {
    let config = SimConfig {
        seed,
        topology: match topology {
            TopologyFamily::FullMesh => None,
            f => Some(f.build(dist.process_count())),
        },
        delivery,
        faults: fault.fault_plan(seed),
        ..SimConfig::default()
    };
    let crash = fault.crash_schedule(ops, dist.process_count());
    let [log, seq] = [ProtocolKind::OpLog, ProtocolKind::Sequential]
        .map(|kind| observe(kind, dist, ops, config.clone(), ExecBackend::Simnet, crash));
    let cell = format!(
        "{}/{}/{}",
        topology.label(),
        delivery.label(),
        fault.label()
    );
    assert_eq!(
        log.settled_on(dist),
        seq.settled_on(dist),
        "{cell}: op-log settles on different replica values than the sequencer"
    );
    assert_eq!(
        log.history, seq.history,
        "{cell}: op-log history diverges from the sequencer history"
    );
}

/// Exhaustive cross product on one fixed race-free script: every
/// standard topology × every delivery mode × every fault family. The
/// scenario matrix and tour can only ever produce cells from this grid,
/// so a green sweep here pins the whole surface.
#[test]
fn op_log_matches_sequencer_on_every_topology_delivery_and_fault_cell() {
    let seed = 7;
    let dist = Distribution::random(6, 12, 2, seed);
    let ops = generate_family_ops(
        &dist,
        &WorkloadFamily::ProducerConsumer,
        6,
        SettlePolicy::Every(5),
        seed,
    );
    let mut cells = 0usize;
    for topology in standard_topologies() {
        for delivery in DeliveryMode::ALL {
            for fault in standard_faults() {
                assert_cell_equivalent(&dist, &ops, &topology, delivery, fault, seed);
                cells += 1;
            }
        }
    }
    assert_eq!(
        cells,
        standard_topologies().len() * DeliveryMode::ALL.len() * standard_faults().len(),
        "the sweep must cover the full cross product"
    );
}

/// Strategy: a random partial-replication deployment plus a race-free
/// producer/consumer script over it, and one sampled sweep coordinate.
fn setup() -> impl Strategy<
    Value = (
        Distribution,
        Vec<WorkloadOp>,
        TopologyFamily,
        DeliveryMode,
        FaultFamily,
        u64,
    ),
> {
    (
        (
            4usize..=8,
            3usize..=10,
            1usize..=3,
            any::<u64>(),
            any::<u64>(),
            1usize..=4,
        ),
        (
            0usize..standard_topologies().len(),
            0usize..DeliveryMode::ALL.len(),
            0usize..standard_faults().len(),
        ),
    )
        .prop_map(
            |((procs, vars, replicas, dseed, wseed, settle_every), (t, d, f))| {
                let dist = Distribution::random(procs, vars, replicas.min(procs), dseed);
                let ops = generate_family_ops(
                    &dist,
                    &WorkloadFamily::ProducerConsumer,
                    5,
                    SettlePolicy::Every(settle_every * 2),
                    wseed,
                );
                (
                    dist,
                    ops,
                    standard_topologies()[t].clone(),
                    DeliveryMode::ALL[d],
                    standard_faults()[f],
                    wseed,
                )
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random deployments and race-free scripts on sampled coordinates:
    /// op-log and sequencer settle on the same replica values and record
    /// the same history, including under link faults and the scripted
    /// crash-restart of the highest-id process.
    #[test]
    fn op_log_matches_sequencer_on_random_race_free_scripts(
        (dist, ops, topology, delivery, fault, seed) in setup()
    ) {
        assert_cell_equivalent(&dist, &ops, &topology, delivery, fault, seed);
    }
}
