//! The scenario engine: one driver for every protocol comparison.
//!
//! The paper's efficiency argument is comparative — the *same* workload
//! run under sequential / causal-full / causal-partial / PRAM protocols,
//! with control bytes compared across variable distributions. A
//! [`Scenario`] bundles everything such a comparison point needs:
//!
//! * a [`DistributionFamily`] (which process replicates which variable),
//! * a [`WorkloadFamily`] (how processes access their replicas),
//! * a network model ([`LatencyModel`] plus an optional [`Topology`]),
//! * a [`SettlePolicy`] (how often in-flight updates are delivered).
//!
//! [`run_scenario`] executes a scenario under any [`ProtocolKind`] chosen
//! at runtime (via [`DynDsm`]) and returns a unified [`RunReport`]:
//! recorded history, network statistics, control-information accounting,
//! and elapsed virtual time. Benchmarks, examples, and integration tests
//! all drive their comparisons through this one engine instead of
//! monomorphizing a helper per protocol.

use crate::workload::WorkloadOp;
use dsm::{ControlSummary, DynDsm, ProtocolKind};
use histories::{Distribution, History, ProcId, VarId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use simnet::{
    DeliveryMode, ExecBackend, FaultPlan, LatencyModel, NetworkStats, PoolStats, SimConfig,
    SimDuration, SimTime, Topology,
};

/// The variable-distribution families the experiments sweep.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum DistributionFamily {
    /// Every process replicates every variable.
    Full,
    /// Each variable lives on exactly one process; nothing is shared.
    DisjointBlocks,
    /// Process `i` replicates variables `i` and `i+1 (mod n)`: every
    /// adjacent pair shares one variable, making long hoops plentiful.
    RingOverlap,
    /// Every variable is replicated on `replicas` random processes.
    Random {
        /// Replicas per variable (clamped to the process count).
        replicas: usize,
    },
    /// An explicitly provided distribution (escape hatch for app-shaped
    /// replica sets like Bellman-Ford's).
    Custom(Distribution),
}

impl DistributionFamily {
    /// Build the concrete distribution for `procs` processes and `vars`
    /// variables ([`DistributionFamily::RingOverlap`] ignores `vars`;
    /// [`DistributionFamily::Custom`] ignores everything).
    pub fn build(&self, procs: usize, vars: usize, seed: u64) -> Distribution {
        match self {
            DistributionFamily::Full => Distribution::full(procs, vars),
            DistributionFamily::DisjointBlocks => Distribution::disjoint_blocks(procs, vars),
            DistributionFamily::RingOverlap => Distribution::ring_overlap(procs),
            DistributionFamily::Random { replicas } => {
                Distribution::random(procs, vars, (*replicas).clamp(1, procs), seed)
            }
            DistributionFamily::Custom(d) => d.clone(),
        }
    }

    /// Short label used in tables and benchmark ids.
    pub fn label(&self) -> String {
        match self {
            DistributionFamily::Full => "full".into(),
            DistributionFamily::DisjointBlocks => "disjoint-blocks".into(),
            DistributionFamily::RingOverlap => "ring-overlap".into(),
            DistributionFamily::Random { replicas } => format!("random-{replicas}"),
            DistributionFamily::Custom(_) => "custom".into(),
        }
    }
}

/// The access-pattern families workloads are generated from.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum WorkloadFamily {
    /// Every process picks a uniformly random variable from its replica
    /// set; each access is a write with probability `write_ratio`.
    Uniform {
        /// Probability that an access is a write.
        write_ratio: f64,
    },
    /// Like `Uniform`, but with probability `hot_bias` the process touches
    /// the *hot* variable of its replica set (the smallest id) instead of
    /// a uniformly drawn one — a skewed, contended access pattern.
    Hotspot {
        /// Probability that an access is a write.
        write_ratio: f64,
        /// Probability of hitting the hot variable.
        hot_bias: f64,
    },
    /// Single-writer pipelines: the smallest-id replica of a variable is
    /// its *producer* and always writes it; every other replica only
    /// reads. This is the regime (one writer per variable, FIFO-ordered
    /// consumption) where PRAM partial replication shines.
    ProducerConsumer,
    /// Every process works almost exclusively on the variables it *owns*
    /// (those whose smallest-id replica it is), occasionally reading a
    /// foreign replica — the sharded / partition-per-node regime.
    PartitionLocal {
        /// Probability that an access is a write.
        write_ratio: f64,
    },
}

impl WorkloadFamily {
    /// Short label used in tables and benchmark ids.
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadFamily::Uniform { .. } => "uniform",
            WorkloadFamily::Hotspot { .. } => "hotspot",
            WorkloadFamily::ProducerConsumer => "producer-consumer",
            WorkloadFamily::PartitionLocal { .. } => "partition-local",
        }
    }
}

/// When the generated script delivers in-flight updates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SettlePolicy {
    /// Insert a settle point after every `n` operations (and at the end).
    Every(usize),
    /// Only settle once, after the whole script has been issued.
    AtEnd,
}

/// The network-topology families the experiments sweep. A scenario's
/// topology is built over its process count; anything sparser than the
/// full mesh is served by the overlay routing layer (messages relayed over
/// BFS shortest paths), so every protocol runs on every family.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TopologyFamily {
    /// Every process pair directly linked (the paper's implicit model);
    /// sends are direct, no routing.
    FullMesh,
    /// A bidirectional ring.
    Ring,
    /// The most-square `r × c` grid over the process count.
    Grid,
    /// A hub-and-leaves star (node 0 is the hub).
    Star,
    /// A line (path) `0 — 1 — … — n-1`.
    Line,
    /// An explicitly provided topology (escape hatch for app-shaped
    /// communication graphs).
    Custom(Topology),
}

impl TopologyFamily {
    /// Build the concrete topology for `procs` processes
    /// ([`TopologyFamily::Custom`] ignores `procs`).
    pub fn build(&self, procs: usize) -> Topology {
        match self {
            TopologyFamily::FullMesh => Topology::full_mesh(procs),
            TopologyFamily::Ring => Topology::ring(procs),
            TopologyFamily::Grid => Topology::grid_of(procs),
            TopologyFamily::Star => Topology::star(procs),
            TopologyFamily::Line => Topology::line(procs),
            TopologyFamily::Custom(t) => t.clone(),
        }
    }

    /// Short label used in tables and benchmark ids.
    pub fn label(&self) -> &'static str {
        match self {
            TopologyFamily::FullMesh => "mesh",
            TopologyFamily::Ring => "ring",
            TopologyFamily::Grid => "grid",
            TopologyFamily::Star => "star",
            TopologyFamily::Line => "line",
            TopologyFamily::Custom(_) => "custom",
        }
    }
}

/// The fault families the experiments sweep. Faults live beneath the
/// protocols (the simulator's channels and delivery path), so every
/// protocol runs under every family; the differential tests pin that
/// link faults never change what is delivered, and that crash-restart
/// recovers the state a never-crashed node would hold.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultFamily {
    /// Reliable channels, no outages — the paper's model (the default;
    /// runs are bit-identical to the pre-fault engine).
    None,
    /// Every transmission is dropped (and retransmitted) with probability
    /// 0.2, independently per link attempt.
    Lossy,
    /// Every transmission is duplicated with probability 0.2; the
    /// receiver's link layer discards the second copy.
    Duplicating,
    /// One process (the highest-id one) crashes a third of the way
    /// through the script and restarts from its persisted replica
    /// snapshot at two thirds, running its catch-up handshake.
    CrashRestart,
}

impl FaultFamily {
    /// Short label used in tables and benchmark ids.
    pub fn label(&self) -> &'static str {
        match self {
            FaultFamily::None => "none",
            FaultFamily::Lossy => "lossy",
            FaultFamily::Duplicating => "duplicating",
            FaultFamily::CrashRestart => "crash-restart",
        }
    }

    /// The link-level fault plan of this family (crash windows are driven
    /// at the script level by [`CrashSchedule`], not by the plan).
    pub fn fault_plan(&self, seed: u64) -> FaultPlan {
        let seed = seed ^ 0xFA17_5EED;
        match self {
            FaultFamily::None | FaultFamily::CrashRestart => FaultPlan::default(),
            FaultFamily::Lossy => FaultPlan::lossy(0.2, seed),
            FaultFamily::Duplicating => FaultPlan::duplicating(0.2, seed),
        }
    }

    /// The scripted crash of this family for a script of `ops` over
    /// `procs` processes: the highest-id process goes down before the
    /// op at one third of the script and restarts before the op at two
    /// thirds. `None` for fault families without crashes, for scripts
    /// too short to fit a window, and for single-process systems.
    pub fn crash_schedule(&self, ops: &[WorkloadOp], procs: usize) -> Option<CrashSchedule> {
        if *self != FaultFamily::CrashRestart || procs < 2 || ops.len() < 3 {
            return None;
        }
        Some(CrashSchedule {
            proc: ProcId(procs - 1),
            crash_before_op: ops.len() / 3,
            restart_before_op: 2 * ops.len() / 3,
        })
    }
}

/// A scripted node outage: `proc` crashes before the `crash_before_op`-th
/// operation of the script and restarts (snapshot restore + catch-up
/// handshake + recovery settle) before the `restart_before_op`-th.
/// Operations issued by the crashed process inside the window are skipped
/// — a down process executes nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashSchedule {
    /// The process that crashes.
    pub proc: ProcId,
    /// Script index before which the crash happens.
    pub crash_before_op: usize,
    /// Script index before which the restart happens.
    pub restart_before_op: usize,
}

/// Short label for a latency model, used in tables and benchmark ids.
pub fn latency_label(model: &LatencyModel) -> &'static str {
    match model {
        LatencyModel::Constant(_) => "constant",
        LatencyModel::Uniform { .. } => "uniform-jitter",
        LatencyModel::PerByte { .. } => "per-byte",
        LatencyModel::Distance { .. } => "distance",
    }
}

/// The distribution families of the standard sweep (shared by the
/// `scenario_matrix` bench, the `scenario_tour` example, and
/// `bench::scenario_matrix`, so the matrix stays consistent everywhere).
pub fn standard_distributions() -> Vec<DistributionFamily> {
    vec![
        DistributionFamily::Random { replicas: 2 },
        DistributionFamily::RingOverlap,
        DistributionFamily::Full,
    ]
}

/// The workload families of the standard sweep.
pub fn standard_workloads() -> Vec<WorkloadFamily> {
    vec![
        WorkloadFamily::Uniform { write_ratio: 0.5 },
        WorkloadFamily::Hotspot {
            write_ratio: 0.5,
            hot_bias: 0.8,
        },
        WorkloadFamily::ProducerConsumer,
        WorkloadFamily::PartitionLocal { write_ratio: 0.5 },
    ]
}

/// The topology families of the standard sweep.
pub fn standard_topologies() -> Vec<TopologyFamily> {
    vec![
        TopologyFamily::FullMesh,
        TopologyFamily::Ring,
        TopologyFamily::Grid,
        TopologyFamily::Star,
    ]
}

/// The delivery modes of the standard sweep (baseline unicast/unbatched
/// first; see [`DeliveryMode`]).
pub fn standard_deliveries() -> Vec<DeliveryMode> {
    DeliveryMode::ALL.to_vec()
}

/// The fault families of the standard sweep (fault-free baseline first).
pub fn standard_faults() -> Vec<FaultFamily> {
    vec![
        FaultFamily::None,
        FaultFamily::Lossy,
        FaultFamily::Duplicating,
        FaultFamily::CrashRestart,
    ]
}

/// The latency models of the standard sweep.
pub fn standard_latencies() -> Vec<LatencyModel> {
    vec![
        LatencyModel::default(),
        LatencyModel::Uniform {
            min: SimDuration::from_micros(1),
            max: SimDuration::from_micros(100),
        },
        LatencyModel::Distance {
            base: SimDuration::from_micros(2),
            per_unit: SimDuration::from_micros(4),
        },
    ]
}

/// A complete comparison point: distribution, workload, network, delivery.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Scenario {
    /// Human-readable name (used in reports).
    pub name: String,
    /// Which process replicates which variable.
    pub distribution: DistributionFamily,
    /// Number of processes.
    pub processes: usize,
    /// Number of shared variables.
    pub variables: usize,
    /// How processes access their replicas.
    pub workload: WorkloadFamily,
    /// Accesses issued per process.
    pub ops_per_process: usize,
    /// How often in-flight updates are delivered.
    pub settle: SettlePolicy,
    /// Channel latency model.
    pub latency: LatencyModel,
    /// Network topology family, built over `processes` nodes. Sparse
    /// families run over the overlay routing layer.
    pub topology: TopologyFamily,
    /// Wire delivery mode: tree multicast for identical-payload fan-outs
    /// and/or control-record batching. The default (unicast, unbatched)
    /// reproduces the classical wire format exactly.
    pub delivery: DeliveryMode,
    /// Fault family: link drop/duplication schedules and/or a scripted
    /// crash-restart. The default ([`FaultFamily::None`]) is the paper's
    /// reliable model, bit-identical to the pre-fault engine.
    pub faults: FaultFamily,
    /// Execution backend: the deterministic event-driven simulator (the
    /// default — every other scenario dimension composes with it) or the
    /// threaded backend, which hosts each process on an OS thread. The
    /// threaded backend supports every topology and delivery mode but
    /// stays fault-free (construction fails with
    /// [`dsm::DsmError::Unsupported`] on fault scenarios).
    #[serde(default)]
    pub backend: ExecBackend,
    /// Seed for distribution construction, workload generation, and
    /// channel jitter.
    pub seed: u64,
    /// Whether to record the history for offline consistency checking.
    pub record: bool,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            name: "default".into(),
            distribution: DistributionFamily::Random { replicas: 2 },
            processes: 8,
            variables: 16,
            workload: WorkloadFamily::Uniform { write_ratio: 0.5 },
            ops_per_process: 8,
            settle: SettlePolicy::Every(6),
            latency: LatencyModel::default(),
            topology: TopologyFamily::FullMesh,
            delivery: DeliveryMode::default(),
            faults: FaultFamily::None,
            backend: ExecBackend::Simnet,
            seed: 42,
            record: false,
        }
    }
}

impl Scenario {
    /// The concrete variable distribution of this scenario.
    pub fn build_distribution(&self) -> Distribution {
        self.distribution
            .build(self.processes, self.variables, self.seed)
    }

    /// The simulator configuration of this scenario.
    ///
    /// A [`TopologyFamily::FullMesh`] scenario leaves `config.topology`
    /// unset (the runtime's full-mesh default, direct sends); anything
    /// else builds the concrete topology, which the transport serves via
    /// overlay routing.
    pub fn sim_config(&self) -> SimConfig {
        let topology = match &self.topology {
            TopologyFamily::FullMesh => None,
            family => Some(family.build(self.processes)),
        };
        SimConfig {
            latency: self.latency.clone(),
            seed: self.seed ^ 0xD5_0C0DE,
            topology,
            delivery: self.delivery,
            faults: self.faults.fault_plan(self.seed),
            ..SimConfig::default()
        }
    }

    /// Generate the workload script for `dist` (usually
    /// [`Scenario::build_distribution`]). Written values are globally
    /// unique so read-from inference is unambiguous; every process only
    /// touches variables it replicates.
    pub fn generate_ops(&self, dist: &Distribution) -> Vec<WorkloadOp> {
        generate_family_ops(
            dist,
            &self.workload,
            self.ops_per_process,
            self.settle,
            self.seed,
        )
    }

    /// A compact label identifying the scenario's coordinates. The
    /// backend segment sits *before* the fault segment: sweep baselining
    /// strips the trailing fault segment to key fault siblings together
    /// (see the `scenario_tour` example), and that convention must keep
    /// working with the backend axis in the label.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}/{}/{}",
            self.distribution.label(),
            self.workload.label(),
            latency_label(&self.latency),
            self.topology.label(),
            self.delivery.label(),
            self.backend.label(),
            self.faults.label()
        )
    }
}

/// Generate a workload script from a family (see [`Scenario::generate_ops`]).
pub fn generate_family_ops(
    dist: &Distribution,
    family: &WorkloadFamily,
    ops_per_process: usize,
    settle: SettlePolicy,
    seed: u64,
) -> Vec<WorkloadOp> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5CEA_A210);
    let mut ops = Vec::new();
    let mut next_value = 1i64;
    let mut since_settle = 0usize;
    // Precompute per-process replica sets and ownership (the smallest-id
    // replica of a variable is its owner).
    let replica_vars: Vec<Vec<VarId>> = (0..dist.process_count())
        .map(|p| dist.vars_of(ProcId(p)).iter().copied().collect())
        .collect();
    let owned_vars: Vec<Vec<VarId>> = (0..dist.process_count())
        .map(|p| {
            replica_vars[p]
                .iter()
                .copied()
                .filter(|&x| dist.replicas_of(x).iter().next() == Some(&ProcId(p)))
                .collect()
        })
        .collect();

    for _round in 0..ops_per_process {
        for p in 0..dist.process_count() {
            let proc = ProcId(p);
            let vars = &replica_vars[p];
            if vars.is_empty() {
                continue;
            }
            let uniform_var = vars[rng.gen_range(0..vars.len())];
            let op = match *family {
                WorkloadFamily::Uniform { write_ratio } => access(
                    proc,
                    uniform_var,
                    rng.gen_bool(write_ratio),
                    &mut next_value,
                ),
                WorkloadFamily::Hotspot {
                    write_ratio,
                    hot_bias,
                } => {
                    let var = if rng.gen_bool(hot_bias) {
                        vars[0]
                    } else {
                        uniform_var
                    };
                    access(proc, var, rng.gen_bool(write_ratio), &mut next_value)
                }
                WorkloadFamily::ProducerConsumer => {
                    let is_producer = owned_vars[p].contains(&uniform_var);
                    access(proc, uniform_var, is_producer, &mut next_value)
                }
                WorkloadFamily::PartitionLocal { write_ratio } => {
                    let owned = &owned_vars[p];
                    if !owned.is_empty() && !rng.gen_bool(0.1) {
                        let var = owned[rng.gen_range(0..owned.len())];
                        access(proc, var, rng.gen_bool(write_ratio), &mut next_value)
                    } else {
                        // Foreign (or ownerless) accesses are always reads:
                        // writes never leave the process's own partition.
                        access(proc, uniform_var, false, &mut next_value)
                    }
                }
            };
            ops.push(op);
            since_settle += 1;
            if let SettlePolicy::Every(n) = settle {
                if n > 0 && since_settle >= n {
                    ops.push(WorkloadOp::Settle);
                    since_settle = 0;
                }
            }
        }
    }
    ops.push(WorkloadOp::Settle);
    ops
}

fn access(proc: ProcId, var: VarId, write: bool, next_value: &mut i64) -> WorkloadOp {
    if write {
        let value = *next_value;
        *next_value += 1;
        WorkloadOp::Write { proc, var, value }
    } else {
        WorkloadOp::Read { proc, var }
    }
}

/// The unified measurement record every driver returns.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Protocol the run used.
    pub protocol: ProtocolKind,
    /// The recorded history (empty if recording was disabled).
    pub history: History,
    /// Per-link / per-node network statistics.
    pub network: NetworkStats,
    /// Per-node control-information accounting.
    pub control: ControlSummary,
    /// Application operations issued.
    pub operations: u64,
    /// Virtual time at the end of the run.
    pub virtual_time: SimTime,
    /// Transit envelopes forwarded by intermediate nodes (0 on a direct
    /// full mesh; the overlay's relaying cost on sparse topologies).
    pub forwarded: u64,
    /// Total simulator events (deliveries + timers) processed — the work
    /// unit the scaling sweeps report throughput in.
    pub events: u64,
    /// Buffer-pool hit/miss accounting: the event scheduler's pools on
    /// simnet, the per-worker handler-context pools (merged at the last
    /// settle) on the threaded free-running backend, and the replay
    /// oracle's pools in threaded replay mode.
    pub pool: PoolStats,
    /// Link-fabric contention counters (ring-full stalls, mailbox drain
    /// batches) merged across workers at the last settle. All-zero on
    /// simnet and in threaded replay mode — only free-running workers
    /// drain whole mailboxes.
    pub fabric: simnet::FabricStats,
    /// Execution backend the run used.
    pub backend: ExecBackend,
    /// The most recovery-log entries any process held for its peers'
    /// catch-up, sampled just before every settle of the script (where
    /// the logs are fullest: an all-up quiescent settle cuts them). It
    /// grows with the longest stretch between two such settles — with a
    /// process down, across the whole outage — not with the run.
    pub max_retained: usize,
}

impl RunReport {
    /// Total messages sent.
    pub fn messages(&self) -> u64 {
        self.network.total_messages()
    }

    /// Total application-data bytes sent.
    pub fn data_bytes(&self) -> u64 {
        self.network.total_data_bytes()
    }

    /// Total protocol control bytes sent.
    pub fn control_bytes(&self) -> u64 {
        self.network.total_control_bytes()
    }

    /// Control bytes per application operation.
    pub fn control_bytes_per_op(&self) -> f64 {
        if self.operations == 0 {
            0.0
        } else {
            self.control_bytes() as f64 / self.operations as f64
        }
    }

    /// Messages per application operation.
    pub fn messages_per_op(&self) -> f64 {
        if self.operations == 0 {
            0.0
        } else {
            self.messages() as f64 / self.operations as f64
        }
    }

    /// Transmissions dropped (and retransmitted) by the fault schedule.
    pub fn drops(&self) -> u64 {
        self.network.total_drops()
    }

    /// Duplicate copies delivered and discarded by link layers.
    pub fn duplicates(&self) -> u64 {
        self.network.total_duplicates()
    }

    /// Deliveries lost because their destination was crashed.
    pub fn crash_losses(&self) -> u64 {
        self.network.total_crash_losses()
    }
}

/// Execute a prepared workload script against a fresh runtime-selected
/// deployment. This is the single execution path every comparative driver
/// (benchmarks, examples, tests) goes through.
pub fn run_script(
    kind: ProtocolKind,
    dist: &Distribution,
    ops: &[WorkloadOp],
    config: SimConfig,
    record: bool,
) -> RunReport {
    run_script_faulted(kind, dist, ops, config, record, None)
}

/// [`run_script`] on an explicit execution backend. Scripted crashes are
/// simnet-only, so this path takes none; the threaded backend's one
/// remaining restriction (fault-free runs) is enforced at construction.
pub fn run_script_backend(
    kind: ProtocolKind,
    dist: &Distribution,
    ops: &[WorkloadOp],
    config: SimConfig,
    record: bool,
    backend: ExecBackend,
) -> RunReport {
    run_script_on(kind, dist, ops, config, record, None, backend)
}

/// [`run_script`] with a scripted crash: `crash.proc` goes down before
/// the op at `crash_before_op` (its own ops inside the window are skipped
/// — a down process executes nothing) and restarts — snapshot restore,
/// catch-up handshake, recovery settle — before the op at
/// `restart_before_op`. A process still down when the script ends is
/// restarted before the final settle, so every run ends fully recovered.
pub fn run_script_faulted(
    kind: ProtocolKind,
    dist: &Distribution,
    ops: &[WorkloadOp],
    config: SimConfig,
    record: bool,
    crash: Option<CrashSchedule>,
) -> RunReport {
    run_script_on(kind, dist, ops, config, record, crash, ExecBackend::Simnet)
}

/// The single construction-and-measurement site behind every `run_script*`
/// entry point: build the deployment on `backend`, drive the script, and
/// collect the unified report.
fn run_script_on(
    kind: ProtocolKind,
    dist: &Distribution,
    ops: &[WorkloadOp],
    config: SimConfig,
    record: bool,
    crash: Option<CrashSchedule>,
    backend: ExecBackend,
) -> RunReport {
    let mut dsm = DynDsm::with_backend(kind, dist.clone(), config, backend);
    if !record {
        dsm.disable_recording();
    }
    let max_retained = apply_script(&mut dsm, ops, crash);
    RunReport {
        protocol: kind,
        history: dsm.history(),
        network: dsm.network_stats().clone(),
        control: dsm.control_summary(),
        operations: dsm.operation_count(),
        virtual_time: dsm.now(),
        forwarded: dsm.forwarded_messages(),
        events: dsm.events_processed(),
        pool: dsm.pool_stats(),
        fabric: dsm.fabric_stats(),
        backend,
        max_retained,
    }
}

/// Drive `ops` (plus an optional scripted crash) against an existing
/// deployment, ending with a final settle. This is the one crash-driver
/// loop — [`run_script_faulted`] and the differential fault tests both
/// go through it, so the crash semantics (where the window sits, which
/// ops a down process skips, the forced restart before the final
/// settle) can never drift between the engine and its oracle. Returns the
/// most recovery-log entries any process retained, sampled before each
/// settle (see [`RunReport::max_retained`]).
pub fn apply_script(dsm: &mut DynDsm, ops: &[WorkloadOp], crash: Option<CrashSchedule>) -> usize {
    let mut max_retained = 0;
    let mut settle = |dsm: &mut DynDsm| {
        let held = (0..dsm.process_count()).map(|p| dsm.recovery_retained(ProcId(p)));
        max_retained = max_retained.max(held.max().unwrap_or(0));
        dsm.settle();
    };
    for (i, op) in ops.iter().enumerate() {
        if let Some(c) = crash {
            if i == c.crash_before_op {
                dsm.crash(c.proc)
                    .expect("crash schedule targets a live process");
            }
            if i == c.restart_before_op {
                dsm.restart(c.proc).expect("restart follows the crash");
            }
        }
        match *op {
            WorkloadOp::Write { proc, var, value } => {
                if dsm.is_crashed(proc) {
                    continue;
                }
                dsm.write(proc, var, value)
                    .expect("workload respects the distribution");
            }
            WorkloadOp::Read { proc, var } => {
                if dsm.is_crashed(proc) {
                    continue;
                }
                let _ = dsm
                    .read(proc, var)
                    .expect("workload respects the distribution");
            }
            WorkloadOp::Settle => settle(dsm),
        }
    }
    if let Some(c) = crash {
        if dsm.is_crashed(c.proc) {
            dsm.restart(c.proc).expect("restart follows the crash");
        }
    }
    settle(dsm);
    max_retained
}

/// Run a scenario under one protocol.
pub fn run_scenario(kind: ProtocolKind, scenario: &Scenario) -> RunReport {
    let dist = scenario.build_distribution();
    let ops = scenario.generate_ops(&dist);
    let crash = scenario.faults.crash_schedule(&ops, scenario.processes);
    run_script_on(
        kind,
        &dist,
        &ops,
        scenario.sim_config(),
        scenario.record,
        crash,
        scenario.backend,
    )
}

/// Run a scenario under every protocol, in benchmark-table order.
pub fn run_all(scenario: &Scenario) -> Vec<RunReport> {
    let dist = scenario.build_distribution();
    let ops = scenario.generate_ops(&dist);
    let crash = scenario.faults.crash_schedule(&ops, scenario.processes);
    ProtocolKind::ALL
        .iter()
        .map(|&kind| {
            run_script_on(
                kind,
                &dist,
                &ops,
                scenario.sim_config(),
                scenario.record,
                crash,
                scenario.backend,
            )
        })
        .collect()
}

/// Map `f` over `items` on a small scoped-thread fan-out, preserving
/// order.
///
/// Sweep cells (`scenario_matrix` rows, `scenario_tour` scenarios) are
/// independent deterministic simulations, so they parallelize trivially:
/// the items are split into one contiguous chunk per worker (at most
/// [`std::thread::available_parallelism`], capped at 8; override with the
/// `SWEEP_WORKERS` environment variable, `SWEEP_WORKERS=1` forces the
/// sequential path) and the results are reassembled in input order — the
/// output is bit-identical to the sequential map. No thread pool, no
/// extra dependencies: the threads live only for the duration of the
/// call.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = effective_sweep_workers(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk_size = items.len().div_ceil(workers);
    let mut chunks: Vec<Vec<T>> = Vec::new();
    let mut items = items;
    while !items.is_empty() {
        let rest = items.split_off(items.len().min(chunk_size));
        chunks.push(items);
        items = rest;
    }
    let f = &f;
    let mut results: Vec<Vec<R>> = Vec::with_capacity(chunks.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| scope.spawn(move || chunk.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        for handle in handles {
            results.push(handle.join().expect("sweep worker panicked"));
        }
    });
    results.into_iter().flatten().collect()
}

/// The worker count [`parallel_map`] would use for `len` items: the
/// `SWEEP_WORKERS` environment variable if set (any positive value),
/// otherwise [`std::thread::available_parallelism`] capped at 8 — and
/// never more than one worker per item. Exposed so sweep drivers can
/// record the parallelism a sweep actually ran with alongside its rows.
pub fn effective_sweep_workers(len: usize) -> usize {
    std::env::var("SWEEP_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&w| w > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8)
        })
        .min(len.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use histories::check;
    use simnet::SimDuration;

    fn families() -> Vec<WorkloadFamily> {
        vec![
            WorkloadFamily::Uniform { write_ratio: 0.5 },
            WorkloadFamily::Hotspot {
                write_ratio: 0.5,
                hot_bias: 0.7,
            },
            WorkloadFamily::ProducerConsumer,
            WorkloadFamily::PartitionLocal { write_ratio: 0.5 },
        ]
    }

    #[test]
    fn every_family_respects_the_distribution() {
        let dist = Distribution::random(5, 8, 2, 3);
        for family in families() {
            let ops = generate_family_ops(&dist, &family, 10, SettlePolicy::Every(4), 7);
            for op in &ops {
                if let WorkloadOp::Write { proc, var, .. } | WorkloadOp::Read { proc, var } = op {
                    assert!(dist.replicates(*proc, *var), "{}", family.label());
                }
            }
            assert!(ops.iter().any(|o| matches!(o, WorkloadOp::Settle)));
        }
    }

    #[test]
    fn producer_consumer_has_a_single_writer_per_variable() {
        let dist = Distribution::random(6, 9, 3, 5);
        let ops = generate_family_ops(
            &dist,
            &WorkloadFamily::ProducerConsumer,
            12,
            SettlePolicy::AtEnd,
            9,
        );
        for op in &ops {
            if let WorkloadOp::Write { proc, var, .. } = op {
                assert_eq!(
                    dist.replicas_of(*var).iter().next(),
                    Some(proc),
                    "only the owner writes {var}"
                );
            }
        }
        assert!(ops.iter().any(|o| matches!(o, WorkloadOp::Write { .. })));
    }

    #[test]
    fn hotspot_concentrates_accesses() {
        let dist = Distribution::full(4, 8);
        let hot = generate_family_ops(
            &dist,
            &WorkloadFamily::Hotspot {
                write_ratio: 0.5,
                hot_bias: 0.9,
            },
            40,
            SettlePolicy::AtEnd,
            1,
        );
        let hits = |ops: &[WorkloadOp]| {
            ops.iter()
                .filter(|op| {
                    matches!(op,
                        WorkloadOp::Write { var, .. } | WorkloadOp::Read { var, .. } if *var == VarId(0))
                })
                .count()
        };
        let uniform = generate_family_ops(
            &dist,
            &WorkloadFamily::Uniform { write_ratio: 0.5 },
            40,
            SettlePolicy::AtEnd,
            1,
        );
        assert!(
            hits(&hot) > 2 * hits(&uniform),
            "hotspot {} vs uniform {}",
            hits(&hot),
            hits(&uniform)
        );
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let dist = Distribution::ring_overlap(5);
        let fam = WorkloadFamily::PartitionLocal { write_ratio: 0.4 };
        let a = generate_family_ops(&dist, &fam, 6, SettlePolicy::Every(3), 11);
        let b = generate_family_ops(&dist, &fam, 6, SettlePolicy::Every(3), 11);
        assert_eq!(a, b);
        let c = generate_family_ops(&dist, &fam, 6, SettlePolicy::Every(3), 12);
        assert_ne!(a, c);
    }

    #[test]
    fn every_protocol_meets_its_criterion_on_every_family() {
        for family in families() {
            let scenario = Scenario {
                processes: 4,
                variables: 6,
                workload: family,
                ops_per_process: 5,
                settle: SettlePolicy::Every(3),
                record: true,
                ..Scenario::default()
            };
            for report in run_all(&scenario) {
                assert!(
                    check(&report.history, report.protocol.guaranteed_criterion()).consistent,
                    "{} under {}:\n{}",
                    report.protocol,
                    family.label(),
                    report.history.pretty()
                );
            }
        }
    }

    #[test]
    fn jitter_and_distance_latencies_keep_histories_consistent() {
        let latencies = [
            LatencyModel::Uniform {
                min: SimDuration::from_micros(1),
                max: SimDuration::from_micros(200),
            },
            LatencyModel::Distance {
                base: SimDuration::from_micros(2),
                per_unit: SimDuration::from_micros(5),
            },
            LatencyModel::PerByte {
                base: SimDuration::from_micros(1),
                nanos_per_byte: 50,
            },
        ];
        for latency in latencies {
            let scenario = Scenario {
                processes: 4,
                variables: 5,
                latency: latency.clone(),
                ops_per_process: 5,
                record: true,
                ..Scenario::default()
            };
            for report in run_all(&scenario) {
                assert!(
                    check(&report.history, report.protocol.guaranteed_criterion()).consistent,
                    "{} under {}:\n{}",
                    report.protocol,
                    latency_label(&latency),
                    report.history.pretty()
                );
                assert!(report.virtual_time > SimTime::ZERO);
            }
        }
    }

    #[test]
    fn control_cost_ordering_matches_the_paper() {
        let scenario = Scenario {
            processes: 8,
            variables: 12,
            distribution: DistributionFamily::Random { replicas: 2 },
            ops_per_process: 10,
            settle: SettlePolicy::Every(4),
            seed: 5,
            ..Scenario::default()
        };
        let reports = run_all(&scenario);
        let by_kind = |k: ProtocolKind| reports.iter().find(|r| r.protocol == k).unwrap();
        let pram = by_kind(ProtocolKind::PramPartial);
        let cpart = by_kind(ProtocolKind::CausalPartial);
        let cfull = by_kind(ProtocolKind::CausalFull);
        assert!(pram.control_bytes() < cpart.control_bytes());
        assert!(pram.control_bytes() < cfull.control_bytes());
        assert!(pram.messages_per_op() <= cpart.messages_per_op());
        assert!(pram.control_bytes_per_op() < cfull.control_bytes_per_op());
    }

    #[test]
    fn ring_topology_scenario_runs_when_traffic_fits() {
        // Ring-overlap distribution + producer/consumer workload only ever
        // sends updates between ring neighbours, so a ring topology works
        // without any transit forwarding.
        let scenario = Scenario {
            distribution: DistributionFamily::RingOverlap,
            processes: 6,
            variables: 6,
            workload: WorkloadFamily::ProducerConsumer,
            topology: TopologyFamily::Ring,
            ops_per_process: 4,
            record: true,
            ..Scenario::default()
        };
        let report = run_scenario(ProtocolKind::PramPartial, &scenario);
        assert!(check(&report.history, histories::Criterion::Pram).consistent);
        assert!(report.messages() > 0);
    }

    #[test]
    fn every_protocol_meets_its_criterion_on_every_topology() {
        for topology in standard_topologies() {
            let scenario = Scenario {
                processes: 4,
                variables: 6,
                topology: topology.clone(),
                ops_per_process: 5,
                settle: SettlePolicy::Every(3),
                record: true,
                ..Scenario::default()
            };
            for report in run_all(&scenario) {
                assert!(
                    check(&report.history, report.protocol.guaranteed_criterion()).consistent,
                    "{} on {}:\n{}",
                    report.protocol,
                    topology.label(),
                    report.history.pretty()
                );
                // The polynomial spot-checker agrees on the protocol runs
                // (every recorded history is at least PRAM).
                assert_eq!(histories::pram_spot_check(&report.history), Ok(()));
            }
        }
    }

    #[test]
    fn sparse_topologies_relay_but_do_not_change_the_outcome() {
        // Single-writer-per-variable workload: replica contents at settle
        // points are each writer's FIFO prefix, independent of per-hop
        // timing, so the recorded history is topology-independent.
        let base = Scenario {
            processes: 6,
            variables: 8,
            workload: WorkloadFamily::ProducerConsumer,
            ops_per_process: 6,
            settle: SettlePolicy::Every(4),
            record: true,
            seed: 9,
            ..Scenario::default()
        };
        let mesh = run_scenario(ProtocolKind::CausalPartial, &base);
        for family in [TopologyFamily::Star, TopologyFamily::Line] {
            let sparse = Scenario {
                topology: family.clone(),
                ..base.clone()
            };
            let routed = run_scenario(ProtocolKind::CausalPartial, &sparse);
            // The history and control accounting are topology-independent…
            assert_eq!(mesh.history, routed.history, "{}", family.label());
            assert_eq!(mesh.control, routed.control);
            // …while the wire pays for relaying: strictly more messages on
            // these hub/path topologies.
            assert!(routed.messages() > mesh.messages(), "{}", family.label());
        }
    }

    #[test]
    fn custom_topology_family_is_honoured() {
        let scenario = Scenario {
            processes: 4,
            topology: TopologyFamily::Custom(Topology::ring(4)),
            ops_per_process: 2,
            record: true,
            ..Scenario::default()
        };
        assert_eq!(
            scenario.label(),
            "random-2/uniform/constant/custom/unicast/simnet/none"
        );
        let report = run_scenario(ProtocolKind::PramPartial, &scenario);
        assert!(report.operations > 0);
    }

    #[test]
    fn empty_scenario_statistics() {
        let scenario = Scenario {
            ops_per_process: 0,
            ..Scenario::default()
        };
        let report = run_scenario(ProtocolKind::PramPartial, &scenario);
        assert_eq!(report.operations, 0);
        assert_eq!(report.control_bytes_per_op(), 0.0);
        assert_eq!(report.messages_per_op(), 0.0);
    }

    #[test]
    fn every_protocol_meets_its_criterion_under_every_fault_family() {
        for faults in standard_faults() {
            let scenario = Scenario {
                processes: 4,
                variables: 6,
                workload: WorkloadFamily::ProducerConsumer,
                ops_per_process: 5,
                settle: SettlePolicy::Every(3),
                faults,
                record: true,
                ..Scenario::default()
            };
            for report in run_all(&scenario) {
                assert!(
                    check(&report.history, report.protocol.guaranteed_criterion()).consistent,
                    "{} under {}:\n{}",
                    report.protocol,
                    faults.label(),
                    report.history.pretty()
                );
            }
        }
    }

    #[test]
    fn link_fault_families_leave_race_free_runs_equivalent() {
        // Single writer per variable + settle-synchronized reads: the
        // observable behaviour is pinned to the fault-free run, while the
        // wire pays measurable retransmissions / duplicates.
        let base = Scenario {
            processes: 5,
            variables: 7,
            workload: WorkloadFamily::ProducerConsumer,
            ops_per_process: 6,
            settle: SettlePolicy::Every(4),
            record: true,
            seed: 13,
            ..Scenario::default()
        };
        let clean = run_scenario(ProtocolKind::CausalPartial, &base);
        assert_eq!(clean.drops(), 0);
        assert_eq!(clean.duplicates(), 0);
        let lossy = run_scenario(
            ProtocolKind::CausalPartial,
            &Scenario {
                faults: FaultFamily::Lossy,
                ..base.clone()
            },
        );
        assert_eq!(clean.history, lossy.history);
        assert_eq!(clean.control, lossy.control);
        assert!(lossy.drops() > 0);
        assert!(lossy.control_bytes() > clean.control_bytes());
        assert!(lossy.virtual_time > clean.virtual_time);
        let dup = run_scenario(
            ProtocolKind::CausalPartial,
            &Scenario {
                faults: FaultFamily::Duplicating,
                ..base
            },
        );
        assert_eq!(clean.history, dup.history);
        assert_eq!(clean.control, dup.control);
        assert!(dup.duplicates() > 0);
    }

    #[test]
    fn crash_restart_scenarios_recover_and_count_losses() {
        let scenario = Scenario {
            processes: 5,
            variables: 7,
            workload: WorkloadFamily::ProducerConsumer,
            ops_per_process: 6,
            settle: SettlePolicy::Every(4),
            faults: FaultFamily::CrashRestart,
            record: true,
            seed: 13,
            ..Scenario::default()
        };
        for report in run_all(&scenario) {
            // The crashed process missed deliveries…
            assert!(
                report.crash_losses() > 0,
                "{}: a crash window must lose deliveries",
                report.protocol
            );
            // …and the recorded history still meets the criterion.
            assert!(
                check(&report.history, report.protocol.guaranteed_criterion()).consistent,
                "{}:\n{}",
                report.protocol,
                report.history.pretty()
            );
        }
    }

    #[test]
    fn retained_recovery_entries_follow_the_settle_policy_not_the_run() {
        let every_six = Scenario {
            ops_per_process: 40,
            settle: SettlePolicy::Every(6),
            ..Scenario::default()
        };
        for kind in ProtocolKind::ALL {
            let report = run_scenario(kind, &every_six);
            assert!(
                (1..=6).contains(&report.max_retained),
                "{kind}: {} entries retained with a settle every 6 ops",
                report.max_retained
            );
        }
        // Without settles a writer holds every write of the run; with a
        // process down across settles, its peers hold the whole outage.
        let at_end = Scenario {
            settle: SettlePolicy::AtEnd,
            ..every_six.clone()
        };
        assert!(run_scenario(ProtocolKind::PramPartial, &at_end).max_retained > 6);
        let crashed = Scenario {
            faults: FaultFamily::CrashRestart,
            ..every_six
        };
        assert!(run_scenario(ProtocolKind::PramPartial, &crashed).max_retained > 6);
    }

    #[test]
    fn crash_schedules_skip_short_scripts_and_tiny_systems() {
        let ops = vec![WorkloadOp::Settle];
        assert_eq!(FaultFamily::CrashRestart.crash_schedule(&ops, 8), None);
        let ops: Vec<WorkloadOp> = (0..9).map(|_| WorkloadOp::Settle).collect();
        assert_eq!(FaultFamily::CrashRestart.crash_schedule(&ops, 1), None);
        assert_eq!(FaultFamily::Lossy.crash_schedule(&ops, 8), None);
        let schedule = FaultFamily::CrashRestart.crash_schedule(&ops, 8).unwrap();
        assert_eq!(schedule.proc, ProcId(7));
        assert!(schedule.crash_before_op < schedule.restart_before_op);
    }
}
