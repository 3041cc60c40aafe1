//! Differential property tests of the wire-efficiency layer: delivery
//! modes change what the wire *pays*, never what the protocols *deliver*.
//!
//! Three invariants, from strongest to weakest:
//!
//! 1. **All six delivery modes produce identical histories, settled
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
//! 5. **A flush window packs broadcasts, never reprices them.** Causal-full
//!    and the sequencer batch whole updates (requests, ordered writes), not
//!    per-destination records, so `batched` never sends more messages than
//!    `unicast` (nor `multicast-batched` than `multicast`) while the wire
//!    pays exactly the same control and data bytes, for any script; on
//!    race-free scripts their whole `ControlSummary` is equal under
//!    `unicast`, `batched` and `multicast-batched`. Where a writer writes
//!    more than once per window the saving is strict.

mod common;

use apps::WorkloadOp;
use apps::{generate_family_ops, SettlePolicy, WorkloadFamily};
use common::{control_signature, observe, single_writer_setup, small_setup, Observation};
use dsm::ProtocolKind;
use histories::{pram_spot_check, Distribution, ProcId, VarId};
use proptest::prelude::*;
use simnet::{DeliveryMode, ExecBackend, SimConfig, Topology};

/// Observe `ops` on `topology` (the direct mesh when `None`) with the wire
/// in `delivery`.
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
    observe(kind, dist, ops, config, ExecBackend::Simnet, None)
}

/// Invariants 4 and 5 over one cell's observations, one per mode of
/// `DeliveryMode::ALL`: `multicast-batched` held against `batched` (never
/// more messages or wire control bytes, and on a race-free script the
/// same logical charges), and — for the protocols whose flush window
/// packs whole broadcasts — each batching mode against its unbatched
/// sibling.
fn check_wire_modes(
    kind: ProtocolKind,
    observations: &[(DeliveryMode, Observation)],
    race_free: bool,
    cell: &str,
) {
    let at = |mode| {
        &observations
            .iter()
            .find(|(m, _)| *m == mode)
            .expect("every mode observed")
            .1
    };
    let (batched, grouped) = (
        at(DeliveryMode::BATCHED),
        at(DeliveryMode::MULTICAST_BATCHED),
    );
    assert!(
        grouped.network.total_messages() <= batched.network.total_messages(),
        "{cell} pays more messages multicast-batched than batched"
    );
    assert!(
        grouped.network.total_control_bytes() <= batched.network.total_control_bytes(),
        "{cell} pays more wire control bytes multicast-batched than batched"
    );
    if race_free {
        assert_eq!(
            batched.control, grouped.control,
            "{cell}: logical charges moved"
        );
    }
    if !matches!(kind, ProtocolKind::CausalFull | ProtocolKind::Sequential) {
        return;
    }
    for (unbatched, batching) in [
        (DeliveryMode::UNICAST, DeliveryMode::BATCHED),
        (DeliveryMode::MULTICAST, DeliveryMode::MULTICAST_BATCHED),
    ] {
        let (plain, windowed) = (&at(unbatched).network, &at(batching).network);
        let pair = format!("{cell}: {} vs {}", batching.label(), unbatched.label());
        assert!(
            windowed.total_messages() <= plain.total_messages(),
            "{pair}: more messages"
        );
        assert_eq!(
            windowed.total_control_bytes(),
            plain.total_control_bytes(),
            "{pair}: wire control bytes moved"
        );
        assert_eq!(
            windowed.total_data_bytes(),
            plain.total_data_bytes(),
            "{pair}: wire data bytes moved"
        );
        if race_free {
            assert_eq!(
                at(DeliveryMode::UNICAST).control,
                at(batching).control,
                "{pair}: logical charges moved"
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
                let mut observations = Vec::new();
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
                    observations.push((mode, out));
                }
                observations.push((DeliveryMode::UNICAST, reference));
                check_wire_modes(kind, &observations, true, &format!("{kind} on {topology:?}"));
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
                let mut observations = Vec::new();
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
                    observations.push((mode, out));
                }
                observations.push((DeliveryMode::UNICAST, reference));
                check_wire_modes(kind, &observations, false, &format!("{kind} on {topology:?}"));
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

/// Invariant 5, the strict half, on a fixed cell: every process writes
/// its own variable twice before the settle, so each flush window of
/// causal-full and of the sequencer holds two broadcasts and batching must
/// send strictly fewer messages than one envelope per write — where,
/// before their broadcasts joined the window, the two wires paid exactly
/// the same. Charges and wire bytes stay put.
#[test]
fn a_window_of_two_writes_strictly_cuts_full_replication_messages() {
    let n = 6;
    let dist = Distribution::full(n, n);
    let mut ops = Vec::new();
    for round in 0..3 {
        for p in 0..n {
            for k in 0..2 {
                ops.push(WorkloadOp::Write {
                    proc: ProcId(p),
                    var: VarId(p),
                    value: (10 * round + 2 * p + k) as i64 + 1,
                });
            }
        }
        for p in 0..n {
            ops.push(WorkloadOp::Read {
                proc: ProcId(p),
                var: VarId((p + 1) % n),
            });
        }
        ops.push(WorkloadOp::Settle);
    }
    for kind in [ProtocolKind::CausalFull, ProtocolKind::Sequential] {
        for (topology, unbatched, batching) in [
            (None, DeliveryMode::UNICAST, DeliveryMode::BATCHED),
            (
                Some(Topology::grid_of(n)),
                DeliveryMode::MULTICAST,
                DeliveryMode::MULTICAST_BATCHED,
            ),
        ] {
            let plain = run(kind, &dist, &ops, topology.clone(), unbatched);
            let windowed = run(kind, &dist, &ops, topology.clone(), batching);
            assert_eq!(plain.history, windowed.history);
            assert_eq!(plain.settled, windowed.settled);
            assert_eq!(plain.control, windowed.control);
            assert_eq!(
                plain.network.total_control_bytes(),
                windowed.network.total_control_bytes()
            );
            assert!(
                windowed.network.total_messages() < plain.network.total_messages(),
                "{kind} {}: {} messages batched, {} unbatched",
                batching.label(),
                windowed.network.total_messages(),
                plain.network.total_messages()
            );
        }
    }
}
