//! Differential property tests of the wire-efficiency layer: delivery
//! modes change what the wire *pays*, never what the protocols *deliver*.
//!
//! Three invariants, from strongest to weakest:
//!
//! 1. **All four delivery modes produce identical histories, settled
//!    replica contents, and control-record counts for race-free
//!    scripts**, on the mesh and on sparse routed topologies. With a
//!    single writer per variable, replica contents at every settle point
//!    are each writer's FIFO prefix — independent of how envelopes are
//!    grouped, shared, or flushed — so the observable behaviour is pinned
//!    bit for bit.
//! 2. **Multicast on the direct full mesh is byte-identical to unicast.**
//!    Every destination is one private link away, so the transport
//!    degrades the grouped send to the classical fan-out — histories,
//!    settled values, control summaries *and* network statistics match
//!    exactly, for arbitrary racy scripts.
//! 3. **Control-record *counts* are delivery-mode-independent for any
//!    script.** When writers race, replicas may legitimately apply
//!    concurrent updates in different orders (arrival timing is part of
//!    the allowed nondeterminism), but every write still produces exactly
//!    one control record per destination: per-node, per-variable sent and
//!    received entry counts and tracked-variable sets are equal across
//!    all modes, and byte totals never exceed the unicast/unbatched
//!    wire's.
//! 4. **Grouping changes envelopes, never charges.** `multicast-batched`
//!    is `batched` with each distinct batch riding the sender's tree once:
//!    it never pays more messages or wire control bytes, for any script,
//!    and on race-free scripts the whole `ControlSummary` — logical bytes
//!    included — is equal under the two. On a sparse topology the saving
//!    is strict for causal-partial, whose batches are mostly shared.

use apps::scenario::{generate_family_ops, SettlePolicy, WorkloadFamily};
use apps::workload::{generate, WorkloadOp, WorkloadSpec};
use dsm::{ControlSummary, DynDsm, ProtocolKind};
use histories::{pram_spot_check, Distribution, History, ProcId, Value, VarId};
use proptest::prelude::*;
use simnet::{DeliveryMode, NetworkStats, SimConfig, Topology};

struct Observation {
    history: History,
    network: NetworkStats,
    control: ControlSummary,
    /// Replica contents after the final settle: `peek(p, x)` for every
    /// process and every variable it replicates.
    settled: Vec<(ProcId, VarId, Value)>,
}

/// Per-node mode-independent control facts: the tracked variables and,
/// per variable, the (sent, received) record counts.
type NodeSignature = (Vec<VarId>, Vec<(VarId, u64, u64)>);

/// The mode-independent projection of a control summary: which variables
/// each node tracks, and how many control records (entries) it sent and
/// received about each. Bytes are deliberately absent — they are exactly
/// what delivery modes are allowed to change.
fn control_signature(control: &ControlSummary) -> Vec<NodeSignature> {
    (0..control.node_count())
        .map(|p| {
            let node = control.node(ProcId(p));
            let tracked: Vec<VarId> = node.tracked_vars().iter().copied().collect();
            let entries = tracked
                .iter()
                .map(|&x| (x, node.sent_entries(x), node.received_entries(x)))
                .collect();
            (tracked, entries)
        })
        .collect()
}

fn run(
    kind: ProtocolKind,
    dist: &Distribution,
    ops: &[WorkloadOp],
    topology: Option<Topology>,
    delivery: DeliveryMode,
) -> Observation {
    let config = SimConfig {
        topology,
        delivery,
        ..SimConfig::default()
    };
    let mut dsm = DynDsm::with_config(kind, dist.clone(), config);
    for op in ops {
        match *op {
            WorkloadOp::Write { proc, var, value } => dsm.write(proc, var, value).unwrap(),
            WorkloadOp::Read { proc, var } => {
                let _ = dsm.read(proc, var).unwrap();
            }
            WorkloadOp::Settle => {
                dsm.settle();
            }
        }
    }
    dsm.settle();
    let mut settled = Vec::new();
    for p in 0..dist.process_count() {
        for x in 0..dist.var_count() {
            if kind.is_fully_replicated() || dist.replicates(ProcId(p), VarId(x)) {
                settled.push((ProcId(p), VarId(x), dsm.peek(ProcId(p), VarId(x))));
            }
        }
    }
    Observation {
        history: dsm.history(),
        network: dsm.network_stats().clone(),
        control: dsm.control_summary(),
        settled,
    }
}

fn small_setup() -> impl Strategy<Value = (Distribution, Vec<WorkloadOp>)> {
    (
        3usize..=6,
        2usize..=8,
        1usize..=3,
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(procs, vars, replicas, dseed, wseed)| {
            let dist = Distribution::random(procs, vars, replicas.min(procs), dseed);
            let spec = WorkloadSpec {
                ops_per_process: 5,
                write_ratio: 0.5,
                settle_every: 3,
                seed: wseed,
            };
            let ops = generate(&dist, &spec);
            (dist, ops)
        })
}

/// Like [`small_setup`], but the script is race-free: each variable is
/// only ever written by its owner (smallest-id replica).
fn single_writer_setup() -> impl Strategy<Value = (Distribution, Vec<WorkloadOp>)> {
    (
        3usize..=6,
        2usize..=8,
        1usize..=3,
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(procs, vars, replicas, dseed, wseed)| {
            let dist = Distribution::random(procs, vars, replicas.min(procs), dseed);
            let ops = generate_family_ops(
                &dist,
                &WorkloadFamily::ProducerConsumer,
                5,
                SettlePolicy::Every(3),
                wseed,
            );
            (dist, ops)
        })
}

/// Invariant 4, fed one cell's observations mode by mode in
/// `DeliveryMode::ALL` order: keeps the `batched` one, and holds
/// `multicast-batched` against it — never more messages or wire control
/// bytes, and on a race-free script the same logical charges.
fn check_grouping(
    batched: &mut Option<Observation>,
    mode: DeliveryMode,
    out: Observation,
    race_free: bool,
    cell: &str,
) {
    if mode == DeliveryMode::BATCHED {
        *batched = Some(out);
    } else if mode == DeliveryMode::MULTICAST_BATCHED {
        let batched = batched.as_ref().expect("ALL lists batched first");
        assert!(
            out.network.total_messages() <= batched.network.total_messages(),
            "{cell} pays more messages multicast-batched than batched"
        );
        assert!(
            out.network.total_control_bytes() <= batched.network.total_control_bytes(),
            "{cell} pays more wire control bytes multicast-batched than batched"
        );
        if race_free {
            assert_eq!(
                batched.control, out.control,
                "{cell}: logical charges moved"
            );
        }
    }
}

/// Mesh + the sparse topologies where tree dedup actually has shared
/// prefixes to exploit.
fn topologies(n: usize) -> Vec<Option<Topology>> {
    vec![
        None,
        Some(Topology::star(n)),
        Some(Topology::grid_of(n)),
        Some(Topology::line(n)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Invariant 1: on race-free scripts, every delivery mode delivers
    /// exactly what the classical unicast/unbatched wire delivers —
    /// histories, settled replica contents, and control-record counts —
    /// on the mesh and on sparse routed topologies alike, while never
    /// paying more messages or control bytes.
    #[test]
    fn delivery_modes_agree_on_race_free_scripts((dist, ops) in single_writer_setup()) {
        for kind in ProtocolKind::ALL {
            for topology in topologies(dist.process_count()) {
                let reference = run(kind, &dist, &ops, topology.clone(), DeliveryMode::UNICAST);
                prop_assert_eq!(pram_spot_check(&reference.history), Ok(()));
                let mut batched = None;
                for mode in DeliveryMode::ALL {
                    if mode == DeliveryMode::UNICAST {
                        continue;
                    }
                    let out = run(kind, &dist, &ops, topology.clone(), mode);
                    prop_assert_eq!(
                        &reference.history, &out.history,
                        "{} histories diverged under {} on {:?}", kind, mode.label(), topology
                    );
                    prop_assert_eq!(
                        &reference.settled, &out.settled,
                        "{} settled values diverged under {} on {:?}", kind, mode.label(), topology
                    );
                    prop_assert_eq!(
                        control_signature(&reference.control),
                        control_signature(&out.control),
                        "{} control records diverged under {} on {:?}", kind, mode.label(), topology
                    );
                    // Wire costs only ever go down.
                    prop_assert!(out.network.total_messages() <= reference.network.total_messages());
                    prop_assert!(
                        out.network.total_control_bytes() <= reference.network.total_control_bytes()
                    );
                    prop_assert!(out.network.total_data_bytes() <= reference.network.total_data_bytes());
                    check_grouping(&mut batched, mode, out, true, &format!("{kind} on {topology:?}"));
                }
            }
        }
    }

    /// Invariant 2: on the direct full mesh there is nothing to
    /// deduplicate, so the multicast wire is *byte-identical* to the
    /// unicast wire — including network statistics — for arbitrary racy
    /// scripts.
    #[test]
    fn multicast_on_the_mesh_is_byte_identical((dist, ops) in small_setup()) {
        for kind in ProtocolKind::ALL {
            let unicast = run(kind, &dist, &ops, None, DeliveryMode::UNICAST);
            let multicast = run(kind, &dist, &ops, None, DeliveryMode::MULTICAST);
            prop_assert_eq!(&unicast.history, &multicast.history, "{} histories diverged", kind);
            prop_assert_eq!(&unicast.network, &multicast.network, "{} network stats diverged", kind);
            prop_assert_eq!(&unicast.control, &multicast.control, "{} control summaries diverged", kind);
            prop_assert_eq!(&unicast.settled, &multicast.settled, "{} settled values diverged", kind);
        }
    }

    /// Invariant 3: for *any* script — races included — per-node,
    /// per-variable control-record counts and tracked-variable sets are
    /// the same under every delivery mode on every topology, histories
    /// still pass the polynomial spot-check, and the wire never pays more
    /// than the unicast/unbatched baseline.
    #[test]
    fn control_record_counts_are_delivery_mode_independent((dist, ops) in small_setup()) {
        for kind in ProtocolKind::ALL {
            for topology in [None, Some(Topology::star(dist.process_count()))] {
                let reference = run(kind, &dist, &ops, topology.clone(), DeliveryMode::UNICAST);
                let mut batched = None;
                for mode in DeliveryMode::ALL {
                    if mode == DeliveryMode::UNICAST {
                        continue;
                    }
                    let out = run(kind, &dist, &ops, topology.clone(), mode);
                    prop_assert_eq!(
                        control_signature(&reference.control),
                        control_signature(&out.control),
                        "{} control records diverged under {} on {:?}", kind, mode.label(), topology
                    );
                    prop_assert_eq!(pram_spot_check(&out.history), Ok(()));
                    prop_assert!(out.network.total_messages() <= reference.network.total_messages());
                    prop_assert!(
                        out.network.total_control_bytes() <= reference.network.total_control_bytes()
                    );
                    check_grouping(&mut batched, mode, out, false, &format!("{kind} on {topology:?}"));
                }
            }
        }
    }
}

/// Invariant 4, the strict half, on fixed cells: with eight processes on a
/// line or a grid most of a causal-partial writer's batches are owed to
/// several destinations at once, so carrying each distinct batch once per
/// tree edge must send strictly fewer messages (and wire control bytes)
/// than one private batch per destination — where, before batches rode
/// the tree, the two modes paid exactly the same.
#[test]
fn shared_batches_strictly_cut_causal_partial_messages_on_sparse_topologies() {
    let dist = Distribution::random(8, 12, 2, 11);
    let ops = generate_family_ops(
        &dist,
        &WorkloadFamily::ProducerConsumer,
        6,
        SettlePolicy::Every(4),
        11,
    );
    for topology in [Topology::line(8), Topology::grid_of(8)] {
        let observe = |mode| {
            run(
                ProtocolKind::CausalPartial,
                &dist,
                &ops,
                Some(topology.clone()),
                mode,
            )
        };
        let batched = observe(DeliveryMode::BATCHED);
        let grouped = observe(DeliveryMode::MULTICAST_BATCHED);
        assert_eq!(batched.history, grouped.history);
        assert_eq!(batched.settled, grouped.settled);
        assert_eq!(batched.control, grouped.control);
        assert!(
            grouped.network.total_messages() < batched.network.total_messages(),
            "{topology:?}: {} messages grouped, {} batched",
            grouped.network.total_messages(),
            batched.network.total_messages()
        );
        assert!(
            grouped.network.total_control_bytes() < batched.network.total_control_bytes(),
            "{topology:?}: wire control bytes did not fall"
        );
    }
}
