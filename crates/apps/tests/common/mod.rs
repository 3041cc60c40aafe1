//! The harness the differential suites share: one way to drive a script
//! and observe what it delivered, the mode-independent projection of a
//! control summary, and the race-free and racy script strategies.

#![allow(
    dead_code,
    reason = "each suite compiles this module on its own and uses a subset of it, so which items are dead differs per suite"
)]

use apps::WorkloadOp;
use apps::{apply_script, generate_family_ops, CrashSchedule, SettlePolicy, WorkloadFamily};
use dsm::{ControlSummary, DynDsm, ProtocolKind};
use histories::{Distribution, History, ProcId, Value, VarId};
use proptest::prelude::*;
use simnet::{ExecBackend, NetworkStats, SimConfig};

/// Everything the differential pins compare about one run.
pub(crate) struct Observation {
    pub history: History,
    pub network: NetworkStats,
    pub control: ControlSummary,
    /// Replica contents after the final settle: `peek(p, x)` for every
    /// process and every variable it holds (every variable, under a fully
    /// replicated protocol), process-major.
    pub settled: Vec<(ProcId, VarId, Value)>,
    /// Whether the deployment routed its sends over the overlay.
    pub routed: bool,
}

impl Observation {
    /// [`Observation::settled`] restricted to the distribution's own
    /// replicas — what a fully and a partially replicated protocol can
    /// both be compared on.
    pub(crate) fn settled_on(&self, dist: &Distribution) -> Vec<(ProcId, VarId, Value)> {
        self.settled
            .iter()
            .copied()
            .filter(|&(p, x, _)| dist.replicates(p, x))
            .collect()
    }
}

/// Drive `ops` (with an optional scripted crash) on `backend` under
/// `config` through the engine's own driver loop ([`apply_script`], the
/// one every sweep uses) and observe the result.
pub(crate) fn observe(
    kind: ProtocolKind,
    dist: &Distribution,
    ops: &[WorkloadOp],
    config: SimConfig,
    backend: ExecBackend,
    crash: Option<CrashSchedule>,
) -> Observation {
    let mut dsm = DynDsm::with_backend(kind, dist.clone(), config, backend);
    apply_script(&mut dsm, ops, crash);
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
        routed: dsm.is_routed(),
    }
}

/// Per-node control facts no wire change may move: the tracked variables
/// and, per variable, the (sent, received) record counts.
pub(crate) type NodeSignature = (Vec<VarId>, Vec<(VarId, u64, u64)>);

/// The projection of a control summary that delivery modes and link
/// faults leave alone: which variables each node tracks, and how many
/// control records it sent and received about each. Bytes are absent —
/// they are exactly what wire formats, retransmissions and recovery
/// traffic are allowed to change.
pub(crate) fn control_signature(control: &ControlSummary) -> Vec<NodeSignature> {
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

/// A random 3–6 process deployment and a seed for its script.
fn deployment() -> impl Strategy<Value = (Distribution, u64)> {
    (
        3usize..=6,
        2usize..=8,
        1usize..=3,
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(procs, vars, replicas, dseed, wseed)| {
            let dist = Distribution::random(procs, vars, replicas.min(procs), dseed);
            (dist, wseed)
        })
}

/// A [`deployment`] and a racy script over it: 5 ops per process, half
/// of them writes, a settle every 3.
pub(crate) fn small_setup() -> impl Strategy<Value = (Distribution, Vec<WorkloadOp>)> {
    deployment().prop_map(|(dist, seed)| {
        let family = WorkloadFamily::Uniform { write_ratio: 0.5 };
        let ops = generate_family_ops(&dist, &family, 5, SettlePolicy::Every(3), seed);
        (dist, ops)
    })
}

/// Like [`small_setup`], but the script is race-free: each variable is
/// only ever written by its owner (smallest-id replica).
pub(crate) fn single_writer_setup() -> impl Strategy<Value = (Distribution, Vec<WorkloadOp>)> {
    deployment().prop_map(|(dist, seed)| {
        let family = WorkloadFamily::ProducerConsumer;
        let ops = generate_family_ops(&dist, &family, 5, SettlePolicy::Every(3), seed);
        (dist, ops)
    })
}
