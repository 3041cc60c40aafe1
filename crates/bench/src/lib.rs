//! Shared helpers for the benchmark harness: experiment runners that both
//! the Criterion benches and the report binaries (`figures`, `efficiency`)
//! reuse, so every number in `EXPERIMENTS.md` can be regenerated two ways.
//!
//! Every protocol comparison routes through the scenario engine
//! ([`apps::scenario`]): a comparison point is a workload script executed
//! by [`apps::scenario::run_script`] once per [`ProtocolKind`], with no
//! per-protocol code path anywhere in this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use apps::scenario::{
    effective_sweep_workers, generate_family_ops, latency_label, parallel_map, run_script,
    run_script_backend, run_script_faulted, standard_deliveries, standard_distributions,
    standard_faults, standard_latencies, standard_topologies, standard_workloads, CrashSchedule,
    DistributionFamily, FaultFamily, SettlePolicy, TopologyFamily, WorkloadFamily,
};
use apps::workload::WorkloadOp;
use apps::{run_bellman_ford, Network};
use dsm::ProtocolKind;
use histories::{causal_spot_check, pram_spot_check, Distribution, VarId};
use serde::{Deserialize, Serialize};
use simnet::{DeliveryMode, ExecBackend, LatencyModel, SimConfig, ThreadedMode};

/// One row of an efficiency table: the cost of running a workload under one
/// protocol.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EfficiencyRow {
    /// Protocol measured.
    pub protocol: ProtocolKind,
    /// Number of processes.
    pub processes: usize,
    /// Number of shared variables.
    pub variables: usize,
    /// Messages sent.
    pub messages: u64,
    /// Data bytes sent.
    pub data_bytes: u64,
    /// Control bytes sent.
    pub control_bytes: u64,
    /// Control bytes per application operation.
    pub control_bytes_per_op: f64,
    /// Maximum (over variables) number of nodes that handled metadata about
    /// a single variable.
    pub max_relevant_nodes: usize,
    /// Mean replication factor of the distribution.
    pub replication_factor: f64,
}

/// Run the standard synthetic workload (`ops_per_process` ops, 50% writes)
/// under every protocol for the given distribution. This regenerates one
/// system-size point of experiments E1–E3.
pub fn efficiency_sweep_point(
    dist: &Distribution,
    ops_per_process: usize,
    seed: u64,
) -> Vec<EfficiencyRow> {
    let ops = generate_family_ops(
        dist,
        &WorkloadFamily::Uniform { write_ratio: 0.5 },
        ops_per_process,
        SettlePolicy::Every(6),
        seed,
    );
    ProtocolKind::ALL
        .iter()
        .map(|&kind| {
            let out = run_script(kind, dist, &ops, SimConfig::default(), false);
            let max_relevant = (0..dist.var_count())
                .map(|x| out.control.relevant_nodes(VarId(x)).len())
                .max()
                .unwrap_or(0);
            EfficiencyRow {
                protocol: kind,
                processes: dist.process_count(),
                variables: dist.var_count(),
                messages: out.messages(),
                data_bytes: out.data_bytes(),
                control_bytes: out.control_bytes(),
                control_bytes_per_op: out.control_bytes_per_op(),
                max_relevant_nodes: max_relevant,
                replication_factor: dist.mean_replication_factor(),
            }
        })
        .collect()
}

/// One row of the Bellman-Ford scaling table (experiment E4).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BellmanFordRow {
    /// Protocol measured.
    pub protocol: ProtocolKind,
    /// Network size.
    pub nodes: usize,
    /// Messages sent during the whole computation.
    pub messages: u64,
    /// Control bytes sent.
    pub control_bytes: u64,
    /// Scheduler rounds until convergence.
    pub rounds: usize,
    /// Whether the distances matched the sequential reference.
    pub correct: bool,
}

/// Run the distributed Bellman-Ford on a random reachable network of `n`
/// nodes under every protocol.
pub fn bellman_ford_point(n: usize, seed: u64) -> Vec<BellmanFordRow> {
    let net = Network::random_reachable(n, 2 * n, 9, seed);
    let reference = apps::shortest_paths_reference(&net, 0);
    ProtocolKind::ALL
        .iter()
        .map(|&kind| {
            let run = run_bellman_ford(kind, &net, 0, SimConfig::default());
            BellmanFordRow {
                protocol: kind,
                nodes: net.node_count(),
                messages: run.messages,
                control_bytes: run.control_bytes,
                rounds: run.rounds,
                correct: run.converged && run.distances == reference,
            }
        })
        .collect()
}

/// Fraction of processes that are x-relevant (Theorem 1) averaged over all
/// variables, for a distribution family (experiment E3).
pub fn relevance_fraction(dist: &Distribution, max_hoop_len: usize) -> f64 {
    let n = dist.process_count();
    if n == 0 || dist.var_count() == 0 {
        return 0.0;
    }
    let total: usize = (0..dist.var_count())
        .map(|x| histories::relevance::relevant_processes(dist, VarId(x), max_hoop_len).len())
        .sum();
    total as f64 / (n * dist.var_count()) as f64
}

/// The distribution families compared by experiment E3.
pub fn distribution_families(n: usize, seed: u64) -> Vec<(String, Distribution)> {
    [
        DistributionFamily::Full,
        DistributionFamily::DisjointBlocks,
        DistributionFamily::RingOverlap,
        DistributionFamily::Random { replicas: 2 },
        DistributionFamily::Random { replicas: 3 },
    ]
    .into_iter()
    .map(|family| (family.label(), family.build(n, n, seed)))
    .collect()
}

/// One cell of the scenario matrix: a (protocol, distribution family,
/// workload family, latency model, topology family, delivery mode)
/// coordinate and its measured costs. Serde-serializable so sweep results
/// can be tracked as `BENCH_*.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScenarioMatrixRow {
    /// Protocol name (see [`ProtocolKind::name`]).
    pub protocol: String,
    /// Distribution family label.
    pub distribution: String,
    /// Workload family label.
    pub workload: String,
    /// Latency model label.
    pub latency: String,
    /// Topology family label (`mesh` = direct sends, anything else runs
    /// over the overlay routing layer).
    pub topology: String,
    /// Delivery-mode label (see [`DeliveryMode::label`]; `unicast` is the
    /// classical wire format).
    pub delivery: String,
    /// Fault-family label (see [`FaultFamily::label`]; `none` is the
    /// paper's reliable model).
    pub fault: String,
    /// Number of processes.
    pub processes: usize,
    /// Messages sent (per hop: relayed envelopes count once per link).
    pub messages: u64,
    /// Data bytes sent.
    pub data_bytes: u64,
    /// Control bytes sent.
    pub control_bytes: u64,
    /// Control bytes per application operation.
    pub control_bytes_per_op: f64,
    /// Transit envelopes forwarded by intermediate nodes (0 on the mesh).
    pub forwarded: u64,
    /// Transmissions dropped and retransmitted by the fault schedule.
    pub drops: u64,
    /// Duplicate copies delivered and discarded by link layers.
    pub duplicates: u64,
    /// Virtual nanoseconds until quiescence.
    pub virtual_nanos: u64,
    /// Event-buffer-pool acquisitions served from a free list during the
    /// cell's run (deterministic, like every non-wall-clock column).
    pub pool_hits: u64,
    /// Event-buffer-pool acquisitions that had to allocate fresh.
    pub pool_misses: u64,
    /// Worker threads the sweep's [`apps::scenario::parallel_map`] fan-out
    /// actually used (identical for every row of one sweep; recorded so a
    /// checked-in JSON names the parallelism it was produced under).
    pub sweep_workers: usize,
}

impl ScenarioMatrixRow {
    /// The sweep coordinate of this row (everything that identifies the
    /// cell, nothing that measures it).
    pub fn coordinate(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}/{}/{}/{}",
            self.protocol,
            self.distribution,
            self.workload,
            self.latency,
            self.topology,
            self.delivery,
            self.fault,
            self.processes
        )
    }

    /// Hand-rolled JSON encoding (the vendored serde has no serializer
    /// backend; swap for `serde_json` when registry access is available).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"protocol\":\"{}\",\"distribution\":\"{}\",\"workload\":\"{}\",\"latency\":\"{}\",\
             \"topology\":\"{}\",\"delivery\":\"{}\",\"fault\":\"{}\",\"processes\":{},\
             \"messages\":{},\"data_bytes\":{},\"control_bytes\":{},\"control_bytes_per_op\":{:.3},\
             \"forwarded\":{},\"drops\":{},\"duplicates\":{},\"virtual_nanos\":{},\
             \"pool_hits\":{},\"pool_misses\":{},\"sweep_workers\":{}}}",
            self.protocol,
            self.distribution,
            self.workload,
            self.latency,
            self.topology,
            self.delivery,
            self.fault,
            self.processes,
            self.messages,
            self.data_bytes,
            self.control_bytes,
            self.control_bytes_per_op,
            self.forwarded,
            self.drops,
            self.duplicates,
            self.virtual_nanos,
            self.pool_hits,
            self.pool_misses,
            self.sweep_workers
        )
    }

    /// Parse a row back out of [`ScenarioMatrixRow::to_json`]'s encoding
    /// (tolerates surrounding whitespace and a trailing comma, so the
    /// lines of a checked-in JSON array parse directly). Returns `None`
    /// for lines that are not row objects.
    pub fn from_json(line: &str) -> Option<ScenarioMatrixRow> {
        fn str_field(line: &str, key: &str) -> Option<String> {
            let tag = format!("\"{key}\":\"");
            let start = line.find(&tag)? + tag.len();
            let end = line[start..].find('"')? + start;
            Some(line[start..end].to_string())
        }
        fn num_field(line: &str, key: &str) -> Option<String> {
            let tag = format!("\"{key}\":");
            let start = line.find(&tag)? + tag.len();
            let end = line[start..]
                .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
                .map(|i| i + start)
                .unwrap_or(line.len());
            Some(line[start..end].to_string())
        }
        Some(ScenarioMatrixRow {
            protocol: str_field(line, "protocol")?,
            distribution: str_field(line, "distribution")?,
            workload: str_field(line, "workload")?,
            latency: str_field(line, "latency")?,
            topology: str_field(line, "topology")?,
            delivery: str_field(line, "delivery")?,
            fault: str_field(line, "fault")?,
            processes: num_field(line, "processes")?.parse().ok()?,
            messages: num_field(line, "messages")?.parse().ok()?,
            data_bytes: num_field(line, "data_bytes")?.parse().ok()?,
            control_bytes: num_field(line, "control_bytes")?.parse().ok()?,
            control_bytes_per_op: num_field(line, "control_bytes_per_op")?.parse().ok()?,
            forwarded: num_field(line, "forwarded")?.parse().ok()?,
            drops: num_field(line, "drops")?.parse().ok()?,
            duplicates: num_field(line, "duplicates")?.parse().ok()?,
            virtual_nanos: num_field(line, "virtual_nanos")?.parse().ok()?,
            // Columns added after a baseline was recorded default to zero,
            // so older checked-in `BENCH_*.json` rows keep parsing (the
            // baseline gate compares control bytes only).
            pool_hits: num_field(line, "pool_hits")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
            pool_misses: num_field(line, "pool_misses")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
            sweep_workers: num_field(line, "sweep_workers")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
        })
    }
}

/// One prepared cell of the scenario matrix, ready to execute.
struct MatrixCell {
    kind: ProtocolKind,
    distribution: String,
    workload: String,
    latency: String,
    topology: String,
    delivery: String,
    fault: String,
    dist: Distribution,
    ops: std::sync::Arc<Vec<WorkloadOp>>,
    config: SimConfig,
    crash: Option<CrashSchedule>,
}

/// The standard scenario matrix: protocol × distribution family ×
/// workload family × latency model × topology family × delivery mode ×
/// fault family (the shared `standard_*` presets from `apps::scenario`),
/// at `n` processes. One engine call per cell — this is the sweep space
/// the paper's efficiency argument lives in. Latency models are swept on
/// the mesh and delivery modes under the default latency; sparse
/// topologies (whose per-hop behaviour is the point) run under the
/// default model, and fault families under the default latency *and*
/// wire format, matching the `scenario_tour` example.
///
/// Cells are independent deterministic simulations, so they execute on a
/// scoped-thread fan-out ([`apps::scenario::parallel_map`]); the returned
/// rows are in sweep order, bit-identical to a sequential run. The fault
/// schedules are seeded, so fault rows are as reproducible as the rest —
/// the `baseline --check` CI gate covers them too.
pub fn scenario_matrix(n: usize, ops_per_process: usize, seed: u64) -> Vec<ScenarioMatrixRow> {
    let distributions = standard_distributions();
    let workloads = standard_workloads();
    let latencies = standard_latencies();
    let topologies = standard_topologies();
    let deliveries = standard_deliveries();
    let faults = standard_faults();
    let mut cells = Vec::new();
    for topology_family in &topologies {
        for family in &distributions {
            let dist = family.build(n, 2 * n, seed);
            for workload in &workloads {
                let ops = std::sync::Arc::new(generate_family_ops(
                    &dist,
                    workload,
                    ops_per_process,
                    SettlePolicy::Every(6),
                    seed,
                ));
                for latency in &latencies {
                    if *topology_family != TopologyFamily::FullMesh
                        && *latency != LatencyModel::default()
                    {
                        continue;
                    }
                    for &delivery in &deliveries {
                        if delivery != DeliveryMode::default()
                            && *latency != LatencyModel::default()
                        {
                            continue;
                        }
                        for &fault in &faults {
                            if fault != FaultFamily::None
                                && (*latency != LatencyModel::default()
                                    || delivery != DeliveryMode::default())
                            {
                                continue;
                            }
                            let topology = match topology_family {
                                TopologyFamily::FullMesh => None,
                                f => Some(f.build(n)),
                            };
                            let config = SimConfig {
                                latency: latency.clone(),
                                seed,
                                topology,
                                delivery,
                                faults: fault.fault_plan(seed),
                                ..SimConfig::default()
                            };
                            let crash = fault.crash_schedule(&ops, n);
                            for kind in ProtocolKind::ALL {
                                cells.push(MatrixCell {
                                    kind,
                                    distribution: family.label(),
                                    workload: workload.label().to_string(),
                                    latency: latency_label(latency).to_string(),
                                    topology: topology_family.label().to_string(),
                                    delivery: delivery.label().to_string(),
                                    fault: fault.label().to_string(),
                                    dist: dist.clone(),
                                    ops: std::sync::Arc::clone(&ops),
                                    config: config.clone(),
                                    crash,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    let sweep_workers = effective_sweep_workers(cells.len());
    parallel_map(cells, |cell| {
        let out = run_script_faulted(
            cell.kind,
            &cell.dist,
            &cell.ops,
            cell.config,
            false,
            cell.crash,
        );
        ScenarioMatrixRow {
            protocol: cell.kind.name().to_string(),
            distribution: cell.distribution,
            workload: cell.workload,
            latency: cell.latency,
            topology: cell.topology,
            delivery: cell.delivery,
            fault: cell.fault,
            processes: n,
            messages: out.messages(),
            data_bytes: out.data_bytes(),
            control_bytes: out.control_bytes(),
            control_bytes_per_op: out.control_bytes_per_op(),
            forwarded: out.forwarded,
            drops: out.drops(),
            duplicates: out.duplicates(),
            virtual_nanos: out.virtual_time.as_nanos(),
            pool_hits: out.pool.hits,
            pool_misses: out.pool.misses,
            sweep_workers,
        }
    })
}

/// One row of the routed-vs-mesh comparison (experiment E5): the same
/// workload under one protocol, on one topology family, with its control
/// bytes relative to the full-mesh run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RoutedEfficiencyRow {
    /// Topology family label.
    pub topology: String,
    /// Protocol measured.
    pub protocol: ProtocolKind,
    /// Messages on the wire (per hop).
    pub messages: u64,
    /// Transit envelopes forwarded by intermediate nodes.
    pub forwarded: u64,
    /// Control bytes on the wire (per hop).
    pub control_bytes: u64,
    /// This topology's control bytes divided by the full-mesh run's (1.0
    /// on the mesh itself; the overlay's relaying overhead elsewhere).
    pub control_ratio_vs_mesh: f64,
}

/// Run the standard synthetic workload under every protocol on every
/// standard topology family and report each cell's control-byte cost
/// relative to the full mesh. The workload script is identical across
/// topologies — only the transport changes — so the ratio isolates what
/// overlay routing costs on the wire.
pub fn routed_vs_mesh_sweep(
    n: usize,
    ops_per_process: usize,
    seed: u64,
) -> Vec<RoutedEfficiencyRow> {
    let dist = Distribution::random(n, 2 * n, 2, seed);
    let ops = generate_family_ops(
        &dist,
        &WorkloadFamily::Uniform { write_ratio: 0.5 },
        ops_per_process,
        SettlePolicy::Every(6),
        seed,
    );
    // Measure the mesh baseline first, independently of where (or
    // whether) FullMesh appears in the standard topology list.
    let mesh_control: std::collections::BTreeMap<ProtocolKind, u64> = ProtocolKind::ALL
        .iter()
        .map(|&kind| {
            let config = SimConfig {
                seed,
                ..SimConfig::default()
            };
            let out = run_script(kind, &dist, &ops, config, false);
            (kind, out.control_bytes())
        })
        .collect();
    let mut rows = Vec::new();
    for family in standard_topologies() {
        let topology = match &family {
            TopologyFamily::FullMesh => None,
            f => Some(f.build(n)),
        };
        let config = SimConfig {
            seed,
            topology,
            ..SimConfig::default()
        };
        for kind in ProtocolKind::ALL {
            let out = run_script(kind, &dist, &ops, config.clone(), false);
            let control = out.control_bytes();
            let mesh = mesh_control[&kind];
            rows.push(RoutedEfficiencyRow {
                topology: family.label().to_string(),
                protocol: kind,
                messages: out.messages(),
                forwarded: out.forwarded,
                control_bytes: control,
                control_ratio_vs_mesh: if mesh == 0 {
                    1.0
                } else {
                    control as f64 / mesh as f64
                },
            });
        }
    }
    rows
}

/// One row of the delivery-mode comparison (experiment E6): the same
/// workload under one protocol, on one sparse topology, under one
/// [`DeliveryMode`], with control bytes relative to the unicast/unbatched
/// wire on the same topology.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DeliveryEfficiencyRow {
    /// Topology family label.
    pub topology: String,
    /// Delivery-mode label.
    pub delivery: String,
    /// Protocol measured.
    pub protocol: ProtocolKind,
    /// Messages on the wire (per hop / per tree edge).
    pub messages: u64,
    /// Transit envelopes forwarded by intermediate nodes.
    pub forwarded: u64,
    /// Control bytes on the wire.
    pub control_bytes: u64,
    /// This mode's control bytes divided by the unicast/unbatched run's
    /// on the same topology (1.0 for the baseline mode itself; the wire
    /// saving of tree multicast and record batching elsewhere).
    pub control_ratio_vs_unicast: f64,
}

/// Run the standard synthetic workload under every protocol and every
/// delivery mode on the star and grid topologies, reporting each cell's
/// control-byte cost relative to the classical unicast/unbatched wire.
/// The workload script, the topology, and the routing are identical
/// across modes — only the wire format changes — so the ratio isolates
/// what tree multicast and control-record batching save. This is the
/// E6 table: the measured answer to "how much of the fan-out cost was
/// redundant copies of identical bytes".
///
/// The script settles once at the end: batching amortizes a full vector
/// clock over the records that accumulate per destination *between*
/// delivery rounds, so the bulk-phase regime (many writes in flight per
/// settle) is where its asymptotic saving shows. Per-op settling leaves
/// every batch at size one, which by construction costs exactly the
/// unbatched wire.
pub fn delivery_mode_sweep(
    n: usize,
    ops_per_process: usize,
    seed: u64,
) -> Vec<DeliveryEfficiencyRow> {
    let dist = Distribution::random(n, 2 * n, 2, seed);
    let ops = generate_family_ops(
        &dist,
        &WorkloadFamily::Uniform { write_ratio: 0.5 },
        ops_per_process,
        SettlePolicy::AtEnd,
        seed,
    );
    let mut rows = Vec::new();
    for family in [TopologyFamily::Star, TopologyFamily::Grid] {
        let run_mode = |delivery: DeliveryMode, kind: ProtocolKind| {
            let config = SimConfig {
                seed,
                topology: Some(family.build(n)),
                delivery,
                ..SimConfig::default()
            };
            run_script(kind, &dist, &ops, config, false)
        };
        // DeliveryMode::ALL leads with the unicast baseline, so each
        // protocol's reference control bytes are captured by the first
        // iteration — every cell is simulated exactly once.
        let mut unicast_control = std::collections::BTreeMap::new();
        for delivery in DeliveryMode::ALL {
            for kind in ProtocolKind::ALL {
                let out = run_mode(delivery, kind);
                let control = out.control_bytes();
                let base = *unicast_control.entry(kind).or_insert(control);
                rows.push(DeliveryEfficiencyRow {
                    topology: family.label().to_string(),
                    delivery: delivery.label().to_string(),
                    protocol: kind,
                    messages: out.messages(),
                    forwarded: out.forwarded,
                    control_bytes: control,
                    control_ratio_vs_unicast: if base == 0 {
                        1.0
                    } else {
                        control as f64 / base as f64
                    },
                });
            }
        }
    }
    rows
}

/// One row of the fault-tolerance comparison (experiment E7): the same
/// workload under one protocol, on one topology, under one
/// [`FaultFamily`], with control bytes and virtual time relative to the
/// fault-free run on the same topology.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FaultToleranceRow {
    /// Topology family label.
    pub topology: String,
    /// Fault-family label.
    pub fault: String,
    /// Protocol measured.
    pub protocol: ProtocolKind,
    /// Messages on the wire.
    pub messages: u64,
    /// Transmissions dropped and retransmitted.
    pub drops: u64,
    /// Duplicate copies delivered and discarded by link layers.
    pub duplicates: u64,
    /// Deliveries lost at a crashed node.
    pub crash_losses: u64,
    /// Control bytes on the wire (retransmissions and catch-up traffic
    /// included).
    pub control_bytes: u64,
    /// This fault family's control bytes divided by the fault-free run's
    /// on the same topology (1.0 for the baseline itself; the recovery
    /// overhead elsewhere).
    pub control_ratio_vs_faultfree: f64,
    /// This fault family's virtual completion time divided by the
    /// fault-free run's (retransmit delays and recovery rounds show up
    /// here).
    pub virtual_ratio_vs_faultfree: f64,
}

/// Run a race-free (producer/consumer) workload under every protocol and
/// every fault family on the mesh, star, and grid, reporting each cell's
/// control-byte and virtual-time cost relative to the fault-free run on
/// the same topology. The workload, topology, and wire format are
/// identical across fault families — only the fault schedule changes —
/// and the differential tests pin that link faults leave the delivered
/// histories identical, so the ratios isolate exactly what reliability
/// costs: retransmissions, duplicate copies, and the crash-restart
/// catch-up handshake. This is the E7 table.
pub fn fault_tolerance_sweep(
    n: usize,
    ops_per_process: usize,
    seed: u64,
) -> Vec<FaultToleranceRow> {
    let dist = Distribution::random(n, 2 * n, 2, seed);
    let ops = generate_family_ops(
        &dist,
        &WorkloadFamily::ProducerConsumer,
        ops_per_process,
        SettlePolicy::Every(6),
        seed,
    );
    let mut rows = Vec::new();
    for family in [
        TopologyFamily::FullMesh,
        TopologyFamily::Star,
        TopologyFamily::Grid,
    ] {
        // standard_faults() leads with the fault-free baseline, so each
        // protocol's reference numbers are captured by the first
        // iteration — every cell is simulated exactly once.
        let mut baseline: std::collections::BTreeMap<ProtocolKind, (u64, u64)> =
            std::collections::BTreeMap::new();
        for fault in standard_faults() {
            for kind in ProtocolKind::ALL {
                let config = SimConfig {
                    seed,
                    topology: match &family {
                        TopologyFamily::FullMesh => None,
                        f => Some(f.build(n)),
                    },
                    faults: fault.fault_plan(seed),
                    ..SimConfig::default()
                };
                let crash = fault.crash_schedule(&ops, n);
                let out = run_script_faulted(kind, &dist, &ops, config, false, crash);
                let control = out.control_bytes();
                let nanos = out.virtual_time.as_nanos().max(1);
                let (base_control, base_nanos) = *baseline.entry(kind).or_insert((control, nanos));
                rows.push(FaultToleranceRow {
                    topology: family.label().to_string(),
                    fault: fault.label().to_string(),
                    protocol: kind,
                    messages: out.messages(),
                    drops: out.drops(),
                    duplicates: out.duplicates(),
                    crash_losses: out.crash_losses(),
                    control_bytes: control,
                    control_ratio_vs_faultfree: if base_control == 0 {
                        1.0
                    } else {
                        control as f64 / base_control as f64
                    },
                    virtual_ratio_vs_faultfree: nanos as f64 / base_nanos as f64,
                });
            }
        }
    }
    rows
}

/// One row of the op-log-vs-sequencer comparison (experiment E10): the
/// same race-free workload under both write-ordering protocols on one
/// (topology, delivery mode, fault family) cell, with the op-log's
/// control bytes and virtual completion time relative to the sequencer's.
/// Both protocols buy the same settled criterion (sequential consistency
/// at settle points — see [`ProtocolKind::settled_criterion`]), so the
/// ratios measure what sharding the write order and replicating partially
/// save over the classical centralized sequencer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct OpLogComparisonRow {
    /// Topology family label.
    pub topology: String,
    /// Delivery-mode label.
    pub delivery: String,
    /// Fault-family label.
    pub fault: String,
    /// Op-log messages on the wire.
    pub oplog_messages: u64,
    /// Sequencer messages on the wire.
    pub sequencer_messages: u64,
    /// Op-log control bytes (catch-up traffic included).
    pub oplog_control_bytes: u64,
    /// Sequencer control bytes (catch-up traffic included).
    pub sequencer_control_bytes: u64,
    /// Op-log control bytes divided by the sequencer's on the same cell.
    pub control_ratio_vs_sequencer: f64,
    /// Op-log virtual nanoseconds until quiescence.
    pub oplog_virtual_nanos: u64,
    /// Sequencer virtual nanoseconds until quiescence.
    pub sequencer_virtual_nanos: u64,
    /// Op-log virtual completion time divided by the sequencer's.
    pub virtual_ratio_vs_sequencer: f64,
}

/// Run a race-free (producer/consumer) workload under the op-log and the
/// sequencer on every (topology, delivery mode, fault family) cell:
/// mesh/star/grid × the classical unicast wire and the full efficiency
/// stack × every standard fault family. The script is identical for both
/// protocols in every cell, so the ratios isolate the protocol choice:
/// how much wire and time the per-shard flat-combining log saves over
/// routing every write through one global sequencer. This is the E10
/// table.
pub fn op_log_vs_sequencer_sweep(
    n: usize,
    ops_per_process: usize,
    seed: u64,
) -> Vec<OpLogComparisonRow> {
    let dist = Distribution::random(n, 2 * n, 2, seed);
    let ops = generate_family_ops(
        &dist,
        &WorkloadFamily::ProducerConsumer,
        ops_per_process,
        SettlePolicy::Every(6),
        seed,
    );
    let deliveries = [DeliveryMode::UNICAST, DeliveryMode::MULTICAST_BATCHED_DELTA];
    let mut rows = Vec::new();
    for family in [
        TopologyFamily::FullMesh,
        TopologyFamily::Star,
        TopologyFamily::Grid,
    ] {
        for delivery in deliveries {
            for fault in standard_faults() {
                let run = |kind: ProtocolKind| {
                    let config = SimConfig {
                        seed,
                        topology: match &family {
                            TopologyFamily::FullMesh => None,
                            f => Some(f.build(n)),
                        },
                        delivery,
                        faults: fault.fault_plan(seed),
                        ..SimConfig::default()
                    };
                    let crash = fault.crash_schedule(&ops, n);
                    run_script_faulted(kind, &dist, &ops, config, false, crash)
                };
                let oplog = run(ProtocolKind::OpLog);
                let seq = run(ProtocolKind::Sequential);
                let seq_control = seq.control_bytes().max(1);
                let seq_nanos = seq.virtual_time.as_nanos().max(1);
                rows.push(OpLogComparisonRow {
                    topology: family.label().to_string(),
                    delivery: delivery.label().to_string(),
                    fault: fault.label().to_string(),
                    oplog_messages: oplog.messages(),
                    sequencer_messages: seq.messages(),
                    oplog_control_bytes: oplog.control_bytes(),
                    sequencer_control_bytes: seq.control_bytes(),
                    control_ratio_vs_sequencer: oplog.control_bytes() as f64 / seq_control as f64,
                    oplog_virtual_nanos: oplog.virtual_time.as_nanos(),
                    sequencer_virtual_nanos: seq.virtual_time.as_nanos(),
                    virtual_ratio_vs_sequencer: oplog.virtual_time.as_nanos() as f64
                        / seq_nanos as f64,
                });
            }
        }
    }
    rows
}

/// The delivery modes the large tier and the scaling sweep run: the full
/// wire-efficiency stack with and without delta clock encoding. At scale
/// the unswept modes add nothing — the baseline matrix already pins them
/// at small `n`, and the large tier's question is how the best wire
/// formats grow.
pub const LARGE_TIER_DELIVERIES: [DeliveryMode; 2] = [
    DeliveryMode::MULTICAST_BATCHED,
    DeliveryMode::MULTICAST_BATCHED_DELTA,
];

/// The `large` scenario tier: the standard distribution families at
/// `n = 64..1024` processes, under the two full wire-efficiency stacks
/// ([`LARGE_TIER_DELIVERIES`]), on the direct mesh with a single settle
/// at the end. 24 rows per `n` (3 distributions × 2 modes × 4 protocols).
///
/// Full-history consistency checking is super-linear in the history, so
/// the large tier swaps the exhaustive checker for the polynomial spot
/// checkers ([`histories::pram_spot_check`], [`histories::causal_spot_check`]):
/// every run still records its history and every row is oracle-checked —
/// a row only exists if its history passed the spot check for the
/// protocol's consistency criterion. Panics on a violation (the sweep is
/// an acceptance gate, not a probe).
///
/// Cells execute on the scoped-thread fan-out like [`scenario_matrix`];
/// rows are in sweep order and bit-identical to a sequential run.
pub fn scenario_matrix_large(
    n: usize,
    ops_per_process: usize,
    seed: u64,
) -> Vec<ScenarioMatrixRow> {
    let mut cells = Vec::new();
    for family in standard_distributions() {
        let dist = family.build(n, 2 * n, seed);
        let ops = std::sync::Arc::new(generate_family_ops(
            &dist,
            &WorkloadFamily::Uniform { write_ratio: 0.5 },
            ops_per_process,
            SettlePolicy::AtEnd,
            seed,
        ));
        for delivery in LARGE_TIER_DELIVERIES {
            let config = SimConfig {
                seed,
                delivery,
                ..SimConfig::default()
            };
            for kind in ProtocolKind::ALL {
                cells.push(MatrixCell {
                    kind,
                    distribution: family.label(),
                    workload: "uniform".to_string(),
                    latency: "default".to_string(),
                    topology: "mesh".to_string(),
                    delivery: delivery.label().to_string(),
                    fault: "none".to_string(),
                    dist: dist.clone(),
                    ops: std::sync::Arc::clone(&ops),
                    config: config.clone(),
                    crash: None,
                });
            }
        }
    }
    let sweep_workers = effective_sweep_workers(cells.len());
    parallel_map(cells, |cell| {
        let out = run_script(cell.kind, &cell.dist, &cell.ops, cell.config, true);
        match cell.kind {
            ProtocolKind::CausalFull | ProtocolKind::CausalPartial => {
                if let Err(v) = causal_spot_check(&out.history) {
                    panic!(
                        "large-tier causal spot check failed: {}/{}/{}/{n}: {v:?}",
                        cell.kind.name(),
                        cell.distribution,
                        cell.delivery
                    );
                }
            }
            ProtocolKind::PramPartial | ProtocolKind::Sequential | ProtocolKind::OpLog => {
                if let Err(v) = pram_spot_check(&out.history) {
                    panic!(
                        "large-tier PRAM spot check failed: {}/{}/{}/{n}: {v:?}",
                        cell.kind.name(),
                        cell.distribution,
                        cell.delivery
                    );
                }
            }
        }
        ScenarioMatrixRow {
            protocol: cell.kind.name().to_string(),
            distribution: cell.distribution,
            workload: cell.workload,
            latency: cell.latency,
            topology: cell.topology,
            delivery: cell.delivery,
            fault: cell.fault,
            processes: n,
            messages: out.messages(),
            data_bytes: out.data_bytes(),
            control_bytes: out.control_bytes(),
            control_bytes_per_op: out.control_bytes_per_op(),
            forwarded: out.forwarded,
            drops: out.drops(),
            duplicates: out.duplicates(),
            virtual_nanos: out.virtual_time.as_nanos(),
            pool_hits: out.pool.hits,
            pool_misses: out.pool.misses,
            sweep_workers,
        }
    })
}

/// One row of the scaling sweep (experiment E8): one protocol, one wire
/// format, at one system size, with throughput (simulator events per
/// wall-clock second) and wire cost (control bytes per operation). The
/// wall-clock fields are the only non-deterministic numbers in this crate
/// — they are reported, never recorded in the baseline or asserted on.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScalingRow {
    /// Protocol measured.
    pub protocol: ProtocolKind,
    /// Delivery-mode label.
    pub delivery: String,
    /// Number of processes.
    pub processes: usize,
    /// Application operations issued.
    pub operations: u64,
    /// Messages sent.
    pub messages: u64,
    /// Control bytes sent.
    pub control_bytes: u64,
    /// Control bytes per application operation.
    pub control_bytes_per_op: f64,
    /// Simulator events (deliveries + timers) processed.
    pub events: u64,
    /// Wall-clock nanoseconds for the whole run (host-dependent).
    pub wall_nanos: u64,
}

impl ScalingRow {
    /// Simulator events processed per wall-clock second (host-dependent).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.events as f64 * 1e9 / self.wall_nanos as f64
        }
    }
}

/// The E8 scaling sweep: every protocol under the two large-tier wire
/// formats at each system size in `ns`, on the random(2) distribution
/// with a bulk-phase workload (all writes in flight, one settle at the
/// end — the regime where batching and delta encoding amortize, and
/// where the arena wire path is hot). Cells run sequentially so the
/// wall-clock column measures an uncontended host.
///
/// Everything except `wall_nanos` is deterministic; the growth assertion
/// that matters (causal-partial control bytes per op growing strictly
/// slower than causal-full) is pinned by a tier-1 test on the
/// `multicast-batched` rows.
pub fn scaling_sweep(ns: &[usize], ops_per_process: usize, seed: u64) -> Vec<ScalingRow> {
    let mut rows = Vec::new();
    for &n in ns {
        let dist = Distribution::random(n, 2 * n, 2, seed);
        let ops = generate_family_ops(
            &dist,
            &WorkloadFamily::Uniform { write_ratio: 0.5 },
            ops_per_process,
            SettlePolicy::AtEnd,
            seed,
        );
        for delivery in LARGE_TIER_DELIVERIES {
            let config = SimConfig {
                seed,
                delivery,
                ..SimConfig::default()
            };
            for kind in ProtocolKind::ALL {
                let start = std::time::Instant::now();
                let out = run_script(kind, &dist, &ops, config.clone(), false);
                let wall_nanos = start.elapsed().as_nanos() as u64;
                rows.push(ScalingRow {
                    protocol: kind,
                    delivery: delivery.label().to_string(),
                    processes: n,
                    operations: out.operations,
                    messages: out.messages(),
                    control_bytes: out.control_bytes(),
                    control_bytes_per_op: out.control_bytes_per_op(),
                    events: out.events,
                    wall_nanos,
                });
            }
        }
    }
    rows
}

/// One row of the threaded-backend throughput table (experiment E9): one
/// protocol at one system size, each process on its own OS thread in
/// free-running mode, with the simnet run of the same script alongside.
/// The threaded columns answer "what do real cores buy" (application
/// operations per wall-clock second); the simnet columns restate the
/// deterministic engine's cost in its own work unit (events per second).
/// Like E8, every wall-clock field is host-dependent: reported, never
/// recorded in the baseline or asserted on.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ThreadedThroughputRow {
    /// Protocol measured.
    pub protocol: ProtocolKind,
    /// Number of processes = number of worker OS threads.
    pub threads: usize,
    /// Application operations issued (identical for both backends).
    pub operations: u64,
    /// Wall-clock nanoseconds of the threaded free-running run.
    pub wall_nanos: u64,
    /// Simulator events the simnet run of the same script processed.
    pub simnet_events: u64,
    /// Wall-clock nanoseconds of the simnet run.
    pub simnet_wall_nanos: u64,
    /// Ring-full stalls across all workers (the fabric's backpressure
    /// counter; host-dependent like every free-running fabric number).
    pub full_stalls: u64,
    /// Mailbox drains that moved at least one message.
    pub batches: u64,
    /// Total messages moved by those drains.
    pub batched_messages: u64,
}

impl ThreadedThroughputRow {
    /// Application operations per wall-clock second on the threaded
    /// backend (host-dependent).
    pub fn ops_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.operations as f64 * 1e9 / self.wall_nanos as f64
        }
    }

    /// Application operations per wall-clock second on simnet
    /// (host-dependent).
    pub fn simnet_ops_per_sec(&self) -> f64 {
        if self.simnet_wall_nanos == 0 {
            0.0
        } else {
            self.operations as f64 * 1e9 / self.simnet_wall_nanos as f64
        }
    }

    /// Simulator events per wall-clock second of the simnet run
    /// (host-dependent) — comparable to the E8 throughput column.
    pub fn simnet_events_per_sec(&self) -> f64 {
        if self.simnet_wall_nanos == 0 {
            0.0
        } else {
            self.simnet_events as f64 * 1e9 / self.simnet_wall_nanos as f64
        }
    }

    /// Wall-clock nanoseconds per application operation on the threaded
    /// backend (host-dependent) — the latency view of [`Self::ops_per_sec`].
    pub fn ns_per_op(&self) -> f64 {
        if self.operations == 0 {
            0.0
        } else {
            self.wall_nanos as f64 / self.operations as f64
        }
    }

    /// Mean messages moved per mailbox drain — how much the flat-combining
    /// drain amortizes wakeups (1.0 means every message paid its own).
    pub fn mean_batch_len(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_messages as f64 / self.batches as f64
        }
    }
}

/// The E9 threaded-throughput sweep: every protocol at each thread count
/// in `thread_counts` (one process per OS thread), running a bulk-phase
/// uniform workload free-running — writes race across real cores and a
/// quiescence barrier at the end settles the run — with the simnet run of
/// the identical script timed alongside as the deterministic reference
/// (backend equivalence itself is pinned by the differential tests; here
/// only the issued-operation counts are cross-checked). Cells run
/// sequentially so the wall-clock columns measure an uncontended host.
pub fn threaded_throughput_sweep(
    thread_counts: &[usize],
    ops_per_process: usize,
    seed: u64,
) -> Vec<ThreadedThroughputRow> {
    let mut rows = Vec::new();
    for &n in thread_counts {
        let dist = Distribution::random(n, 2 * n, 2.min(n), seed);
        let ops = generate_family_ops(
            &dist,
            &WorkloadFamily::ProducerConsumer,
            ops_per_process,
            SettlePolicy::AtEnd,
            seed,
        );
        for kind in ProtocolKind::ALL {
            let sim_start = std::time::Instant::now();
            let sim = run_script(kind, &dist, &ops, SimConfig::default(), false);
            let simnet_wall_nanos = sim_start.elapsed().as_nanos() as u64;
            let thr_start = std::time::Instant::now();
            let thr = run_script_backend(
                kind,
                &dist,
                &ops,
                SimConfig::default(),
                false,
                ExecBackend::Threaded(ThreadedMode::FreeRunning),
            );
            let wall_nanos = thr_start.elapsed().as_nanos() as u64;
            assert_eq!(
                sim.operations, thr.operations,
                "{kind}/{n}: backends disagree on issued operations"
            );
            rows.push(ThreadedThroughputRow {
                protocol: kind,
                threads: n,
                operations: thr.operations,
                wall_nanos,
                simnet_events: sim.events,
                simnet_wall_nanos,
                full_stalls: thr.fabric.full_stalls,
                batches: thr.fabric.batches,
                batched_messages: thr.fabric.batched_messages,
            });
        }
    }
    rows
}

/// The coordinates of the checked-in `BENCH_threaded.json`: thread
/// counts, ops per process, seed. Shared by the `baseline` binary's
/// `--threaded` write and check modes. Small on purpose — the gate is a
/// smoke-level floor, not a tuning benchmark.
pub const THREADED_BASELINE_COORDS: ([usize; 2], usize, u64) = ([2, 8], 24, 7);

/// One row of the checked-in `BENCH_threaded.json`: a threaded-backend
/// throughput floor. Unlike the control-byte baseline, the measured
/// column here is wall-clock, so the gate is deliberately loose: it
/// fails only when throughput drops below a generous fraction of the
/// recorded number (or when the deterministic operation count changes) —
/// catching "the threaded backend got 10× slower or stopped doing the
/// same work", not single-digit noise.
#[derive(Clone, Debug)]
pub struct ThreadedBaselineRow {
    /// Protocol name.
    pub protocol: String,
    /// Worker-thread (= process) count.
    pub threads: usize,
    /// Application operations issued (deterministic, compared exactly).
    pub operations: u64,
    /// Threaded ops per wall-clock second when the baseline was recorded
    /// (host-dependent; compared against a floor, never exactly).
    pub ops_per_sec: f64,
    /// Mean mailbox-drain batch length when recorded (informational).
    pub mean_batch_len: f64,
}

impl ThreadedBaselineRow {
    /// The cell coordinate (identity, not measurement).
    pub fn coordinate(&self) -> String {
        format!("{}/{}", self.protocol, self.threads)
    }

    /// Hand-rolled JSON encoding, mirroring [`ScenarioMatrixRow::to_json`].
    pub fn to_json(&self) -> String {
        format!(
            "{{\"protocol\":\"{}\",\"threads\":{},\"operations\":{},\
             \"ops_per_sec\":{:.0},\"mean_batch_len\":{:.3}}}",
            self.protocol, self.threads, self.operations, self.ops_per_sec, self.mean_batch_len
        )
    }

    /// Parse a row back out of [`Self::to_json`]'s encoding.
    pub fn from_json(line: &str) -> Option<ThreadedBaselineRow> {
        fn str_field(line: &str, key: &str) -> Option<String> {
            let tag = format!("\"{key}\":\"");
            let start = line.find(&tag)? + tag.len();
            let end = line[start..].find('"')? + start;
            Some(line[start..end].to_string())
        }
        fn num_field(line: &str, key: &str) -> Option<String> {
            let tag = format!("\"{key}\":");
            let start = line.find(&tag)? + tag.len();
            let end = line[start..]
                .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
                .map(|i| i + start)
                .unwrap_or(line.len());
            Some(line[start..end].to_string())
        }
        Some(ThreadedBaselineRow {
            protocol: str_field(line, "protocol")?,
            threads: num_field(line, "threads")?.parse().ok()?,
            operations: num_field(line, "operations")?.parse().ok()?,
            ops_per_sec: num_field(line, "ops_per_sec")?.parse().ok()?,
            mean_batch_len: num_field(line, "mean_batch_len")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0),
        })
    }
}

/// Run the threaded-baseline sweep at [`THREADED_BASELINE_COORDS`].
pub fn threaded_baseline_sweep() -> Vec<ThreadedBaselineRow> {
    let (threads, ops, seed) = THREADED_BASELINE_COORDS;
    threaded_throughput_sweep(&threads, ops, seed)
        .into_iter()
        .map(|row| ThreadedBaselineRow {
            protocol: row.protocol.name().to_string(),
            threads: row.threads,
            operations: row.operations,
            ops_per_sec: row.ops_per_sec(),
            mean_batch_len: row.mean_batch_len(),
        })
        .collect()
}

/// Compare a fresh threaded sweep against the checked-in baseline.
/// `floor` is the fraction of the recorded throughput the current run
/// must reach (0.5 = may be up to 2× slower; CI uses a lenient floor to
/// absorb shared-runner noise). Operation counts are deterministic and
/// compared exactly; vanished cells are findings like in
/// [`compare_to_baseline`]. Returns human-readable findings, empty on OK.
pub fn compare_threaded_baseline(
    baseline: &[ThreadedBaselineRow],
    current: &[ThreadedBaselineRow],
    floor: f64,
) -> Vec<String> {
    let mut findings = Vec::new();
    for base in baseline {
        let coordinate = base.coordinate();
        match current.iter().find(|c| c.coordinate() == coordinate) {
            None => findings.push(format!(
                "{coordinate}: cell missing from the current sweep (shape changed — \
                 regenerate deliberately)"
            )),
            Some(cur) => {
                if cur.operations != base.operations {
                    findings.push(format!(
                        "{coordinate}: operation count changed ({} recorded, {} now) — \
                         the workload script is no longer the same",
                        base.operations, cur.operations
                    ));
                }
                if cur.ops_per_sec < base.ops_per_sec * floor {
                    findings.push(format!(
                        "{coordinate}: throughput regression ({:.0} ops/s recorded, \
                         {:.0} now, floor {:.0}%)",
                        base.ops_per_sec,
                        cur.ops_per_sec,
                        floor * 100.0
                    ));
                }
            }
        }
    }
    findings
}

/// The coordinates of [`scenario_matrix`] used for the checked-in
/// `BENCH_baseline.json`: process count, ops per process, seed. Shared by
/// the `baseline` binary's write and check modes so they always compare
/// like with like.
pub const BASELINE_COORDS: (usize, usize, u64) = (8, 6, 11);

/// The large-tier coordinates recorded in `BENCH_baseline.json` alongside
/// the standard matrix: (process count, ops per process) pairs at the
/// shared baseline seed. `n = 1024` stays out of the baseline — the
/// `efficiency` binary's E8 table covers it — so `baseline --check`
/// remains a sub-minute CI gate.
pub const BASELINE_LARGE_TIERS: [(usize, usize); 2] = [(64, 2), (256, 2)];

/// One difference found by [`compare_to_baseline`]: a failure, unless it
/// is an [`BaselineDiff::Improved`] cell (see [`BaselineDiff::fails`]).
#[derive(Clone, Debug, PartialEq)]
pub enum BaselineDiff {
    /// The cell's control bytes grew beyond the tolerance.
    Regression {
        /// The cell coordinate ([`ScenarioMatrixRow::coordinate`]).
        coordinate: String,
        /// Control bytes recorded in the baseline.
        baseline: u64,
        /// Control bytes measured now.
        current: u64,
    },
    /// A baseline cell is missing from the current sweep (the matrix
    /// shape changed — regenerate the baseline deliberately).
    Missing {
        /// The vanished coordinate.
        coordinate: String,
    },
    /// A current cell has no baseline entry (new sweep dimension —
    /// regenerate the baseline deliberately).
    New {
        /// The unexpected coordinate.
        coordinate: String,
    },
    /// The cell's control bytes fell below the baseline by more than the
    /// tolerance. Never a failure — but the ledger is stale, and says so.
    Improved {
        /// The cell coordinate ([`ScenarioMatrixRow::coordinate`]).
        coordinate: String,
        /// Control bytes recorded in the baseline.
        baseline: u64,
        /// Control bytes measured now.
        current: u64,
    },
}

impl BaselineDiff {
    /// Whether this difference fails the check (everything but an
    /// improvement does).
    pub fn fails(&self) -> bool {
        !matches!(self, BaselineDiff::Improved { .. })
    }
}

impl std::fmt::Display for BaselineDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineDiff::Regression {
                coordinate,
                baseline,
                current,
            } => write!(
                f,
                "REGRESSION {coordinate}: control bytes {baseline} -> {current} (+{:.1}%)",
                (*current as f64 / *baseline as f64 - 1.0) * 100.0
            ),
            BaselineDiff::Missing { coordinate } => {
                write!(f, "MISSING {coordinate}: cell not produced any more")
            }
            BaselineDiff::New { coordinate } => {
                write!(f, "NEW {coordinate}: cell has no baseline entry")
            }
            BaselineDiff::Improved {
                coordinate,
                baseline,
                current,
            } => write!(
                f,
                "IMPROVED {coordinate}: control bytes {baseline} -> {current} ({:.1}%)",
                (*current as f64 / *baseline as f64 - 1.0) * 100.0
            ),
        }
    }
}

/// Compare a sweep against a recorded baseline. A cell regresses when its
/// control bytes exceed the baseline by more than `tolerance` (relative,
/// e.g. `0.02` = 2%); a cell that fell by more than the tolerance is
/// reported too but never fails ([`BaselineDiff::fails`]), so a stale
/// ledger is visible. Shape changes (missing or new coordinates) are also
/// reported, so a deliberately regenerated baseline is the only way to
/// change the matrix silently.
pub fn compare_to_baseline(
    baseline: &[ScenarioMatrixRow],
    current: &[ScenarioMatrixRow],
    tolerance: f64,
) -> Vec<BaselineDiff> {
    use std::collections::BTreeMap;
    let current_by: BTreeMap<String, &ScenarioMatrixRow> =
        current.iter().map(|r| (r.coordinate(), r)).collect();
    let baseline_by: BTreeMap<String, &ScenarioMatrixRow> =
        baseline.iter().map(|r| (r.coordinate(), r)).collect();
    let mut diffs = Vec::new();
    for (coordinate, base) in &baseline_by {
        match current_by.get(coordinate) {
            None => diffs.push(BaselineDiff::Missing {
                coordinate: coordinate.clone(),
            }),
            Some(cur) => {
                let (coordinate, baseline, current) =
                    (coordinate.clone(), base.control_bytes, cur.control_bytes);
                if current as f64 > baseline as f64 * (1.0 + tolerance) {
                    diffs.push(BaselineDiff::Regression {
                        coordinate,
                        baseline,
                        current,
                    });
                } else if (current as f64) < baseline as f64 * (1.0 - tolerance) {
                    diffs.push(BaselineDiff::Improved {
                        coordinate,
                        baseline,
                        current,
                    });
                }
            }
        }
    }
    for coordinate in current_by.keys() {
        if !baseline_by.contains_key(coordinate) {
            diffs.push(BaselineDiff::New {
                coordinate: coordinate.clone(),
            });
        }
    }
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_sweep_orders_protocols_as_the_paper_predicts() {
        let dist = Distribution::random(8, 12, 2, 1);
        let rows = efficiency_sweep_point(&dist, 8, 5);
        assert_eq!(rows.len(), 5);
        let pram = &rows[0];
        let cpart = &rows[1];
        let cfull = &rows[2];
        let oplog = &rows[4];
        assert_eq!(pram.protocol, ProtocolKind::PramPartial);
        assert_eq!(cpart.protocol, ProtocolKind::CausalPartial);
        assert_eq!(cfull.protocol, ProtocolKind::CausalFull);
        assert_eq!(oplog.protocol, ProtocolKind::OpLog);
        assert!(pram.control_bytes < cpart.control_bytes);
        assert!(pram.control_bytes < cfull.control_bytes);
        // PRAM metadata never reaches more nodes than the replica set.
        assert!(pram.max_relevant_nodes <= 3);
        // The op-log's append/echo/entry traffic stays between the shard
        // owner and the replicas — both inside C(x) — so its metadata
        // footprint matches PRAM's, not the sequencer's.
        assert!(oplog.max_relevant_nodes <= 3);
        // Causal partial metadata reaches every node for some variable.
        assert_eq!(cpart.max_relevant_nodes, 8);
    }

    #[test]
    fn bellman_ford_point_is_correct_for_all_protocols() {
        for row in bellman_ford_point(8, 3) {
            assert!(row.correct, "{:?}", row.protocol);
            assert!(row.messages > 0);
        }
    }

    #[test]
    fn relevance_fractions_by_family() {
        let families = distribution_families(8, 2);
        assert_eq!(families.len(), 5);
        let lookup = |name: &str| {
            families
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, d)| relevance_fraction(d, 8))
                .unwrap()
        };
        assert_eq!(lookup("full"), 1.0);
        assert!(lookup("disjoint-blocks") < 0.2);
        // Ring overlap creates hoops around the ring, making most processes
        // relevant despite a replication factor of 2.
        assert!(lookup("ring-overlap") > lookup("disjoint-blocks"));
    }

    #[test]
    fn scenario_matrix_covers_the_full_sweep() {
        let rows = scenario_matrix(6, 4, 3);
        // Mesh sweeps every latency (baseline delivery) plus every
        // non-default delivery mode (default latency); each sparse
        // topology runs all delivery modes under the default model only;
        // fault families ride the default latency + default wire format
        // on every topology (matching the scenario tour).
        let cells = standard_distributions().len() * standard_workloads().len();
        let per_mesh_cell = standard_latencies().len()
            + (standard_deliveries().len() - 1)
            + (standard_faults().len() - 1);
        let per_sparse_cell = standard_deliveries().len() + (standard_faults().len() - 1);
        let expected = (cells * per_mesh_cell
            + cells * (standard_topologies().len() - 1) * per_sparse_cell)
            * ProtocolKind::ALL.len();
        assert_eq!(rows.len(), expected);
        assert_eq!(expected, 2280);
        // The fault-free subset is the PR-4 sweep grown by the two delta
        // wire modes and the op-log protocol: 1560 rows.
        assert_eq!(rows.iter().filter(|r| r.fault == "none").count(), 1560);
        assert!(rows.iter().all(|r| r.messages > 0 || r.control_bytes == 0));
        // Within every (distribution, workload, latency, topology,
        // delivery) cell, PRAM partial never spends more control bytes
        // than causal partial — on sparse routed topologies and under
        // every delivery mode too.
        for chunk in rows.chunks(5) {
            let pram = chunk
                .iter()
                .find(|r| r.protocol == ProtocolKind::PramPartial.name())
                .unwrap();
            let cpart = chunk
                .iter()
                .find(|r| r.protocol == ProtocolKind::CausalPartial.name())
                .unwrap();
            assert!(
                pram.control_bytes <= cpart.control_bytes,
                "{}/{}/{}/{}/{}",
                pram.distribution,
                pram.workload,
                pram.latency,
                pram.topology,
                pram.delivery
            );
        }
        // Sparse topologies relay: some cell somewhere forwarded traffic,
        // and mesh cells never do.
        assert!(rows.iter().any(|r| r.topology != "mesh" && r.forwarded > 0));
        assert!(rows
            .iter()
            .all(|r| r.topology != "mesh" || r.forwarded == 0));
        // Fault rows genuinely injected faults somewhere…
        assert!(rows.iter().any(|r| r.fault == "lossy" && r.drops > 0));
        assert!(rows
            .iter()
            .any(|r| r.fault == "duplicating" && r.duplicates > 0));
        // …and fault-free rows never pay for them.
        assert!(rows
            .iter()
            .all(|r| r.fault != "none" || (r.drops == 0 && r.duplicates == 0)));
        // Rows serialize to JSON object lines.
        let json = rows[0].to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"control_bytes\""));
        assert!(json.contains("\"topology\""));
        assert!(json.contains("\"fault\""));
    }

    /// Satellite determinism pin: the same fault seeds yield bit-identical
    /// sweep JSON across two runs, under the parallel sweep fan-out.
    #[test]
    fn fault_sweep_json_is_bit_identical_across_runs() {
        let encode = |rows: Vec<ScenarioMatrixRow>| -> Vec<String> {
            rows.into_iter().map(|r| r.to_json()).collect()
        };
        let a = encode(scenario_matrix(5, 3, 9));
        let b = encode(scenario_matrix(5, 3, 9));
        assert_eq!(a, b);
        // A different seed changes the fault schedule somewhere.
        let c = encode(scenario_matrix(5, 3, 10));
        assert_ne!(a, c);
    }

    #[test]
    fn fault_tolerance_sweep_quantifies_recovery_overhead() {
        let rows = fault_tolerance_sweep(8, 6, 3);
        // Mesh, star, grid × four fault families × five protocols.
        assert_eq!(
            rows.len(),
            3 * standard_faults().len() * ProtocolKind::ALL.len()
        );
        let cell = |topo: &str, fault: &str, kind: ProtocolKind| {
            rows.iter()
                .find(|r| r.topology == topo && r.fault == fault && r.protocol == kind)
                .unwrap()
        };
        for topo in ["mesh", "star", "grid"] {
            for kind in ProtocolKind::ALL {
                // The fault-free row is its own reference and is clean.
                let base = cell(topo, "none", kind);
                assert!((base.control_ratio_vs_faultfree - 1.0).abs() < 1e-12);
                assert_eq!(base.drops + base.duplicates + base.crash_losses, 0);
                // Drops force retransmissions: more control bytes and more
                // virtual time, never less.
                let lossy = cell(topo, "lossy", kind);
                assert!(lossy.drops > 0, "{topo}/{kind}");
                assert!(lossy.control_ratio_vs_faultfree >= 1.0);
                assert!(lossy.virtual_ratio_vs_faultfree >= 1.0);
                // Duplicates pay wire bytes without touching delivery.
                let dup = cell(topo, "duplicating", kind);
                assert!(dup.duplicates > 0, "{topo}/{kind}");
                assert!(dup.control_ratio_vs_faultfree >= 1.0);
                // The crash window lost deliveries that recovery had to
                // re-fetch.
                let crash = cell(topo, "crash-restart", kind);
                assert!(crash.crash_losses > 0, "{topo}/{kind}");
            }
        }
    }

    /// E10: the op-log beats the centralized sequencer on control bytes
    /// in every (topology, delivery, fault) cell — partial replication
    /// keeps its entries inside each variable's replica set while the
    /// sequencer broadcasts every ordered write to all nodes.
    #[test]
    fn op_log_vs_sequencer_sweep_shows_partial_replication_winning() {
        let rows = op_log_vs_sequencer_sweep(8, 6, 3);
        // Mesh, star, grid × two wire formats × four fault families.
        assert_eq!(rows.len(), 3 * 2 * standard_faults().len());
        let coords: std::collections::BTreeSet<(String, String, String)> = rows
            .iter()
            .map(|r| (r.topology.clone(), r.delivery.clone(), r.fault.clone()))
            .collect();
        assert_eq!(coords.len(), rows.len());
        for row in &rows {
            assert!(row.oplog_messages > 0 && row.sequencer_messages > 0);
            assert!(row.oplog_virtual_nanos > 0 && row.sequencer_virtual_nanos > 0);
            assert!(
                row.oplog_control_bytes < row.sequencer_control_bytes,
                "{}/{}/{}: op-log {} >= sequencer {}",
                row.topology,
                row.delivery,
                row.fault,
                row.oplog_control_bytes,
                row.sequencer_control_bytes
            );
            assert!(row.control_ratio_vs_sequencer < 1.0);
            assert!(row.virtual_ratio_vs_sequencer > 0.0);
        }
    }

    #[test]
    fn routed_vs_mesh_sweep_quantifies_relay_overhead() {
        let rows = routed_vs_mesh_sweep(8, 6, 3);
        assert_eq!(
            rows.len(),
            standard_topologies().len() * ProtocolKind::ALL.len()
        );
        for row in &rows {
            if row.topology == "mesh" {
                assert_eq!(row.forwarded, 0);
                assert!((row.control_ratio_vs_mesh - 1.0).abs() < 1e-12);
            } else {
                // Relaying can only add wire traffic, never remove it.
                assert!(
                    row.control_ratio_vs_mesh >= 1.0,
                    "{}/{}",
                    row.topology,
                    row.protocol
                );
            }
        }
        // Somewhere the overlay genuinely forwarded transit traffic.
        assert!(rows.iter().any(|r| r.forwarded > 0));
        // The paper's ordering survives routing: PRAM partial stays the
        // cheapest protocol on every topology.
        for family in standard_topologies() {
            let on = |k: ProtocolKind| {
                rows.iter()
                    .find(|r| r.topology == family.label() && r.protocol == k)
                    .unwrap()
                    .control_bytes
            };
            assert!(on(ProtocolKind::PramPartial) < on(ProtocolKind::CausalPartial));
            assert!(on(ProtocolKind::PramPartial) < on(ProtocolKind::CausalFull));
        }
    }

    #[test]
    fn delivery_mode_sweep_quantifies_the_wire_savings() {
        let rows = delivery_mode_sweep(8, 6, 3);
        // Star and grid × six modes × five protocols.
        assert_eq!(
            rows.len(),
            2 * DeliveryMode::ALL.len() * ProtocolKind::ALL.len()
        );
        let cell = |topo: &str, mode: &str, kind: ProtocolKind| {
            rows.iter()
                .find(|r| r.topology == topo && r.delivery == mode && r.protocol == kind)
                .unwrap()
        };
        for topo in ["star", "grid"] {
            for kind in ProtocolKind::ALL {
                // The baseline mode is its own reference…
                let base = cell(topo, "unicast", kind);
                assert!((base.control_ratio_vs_unicast - 1.0).abs() < 1e-12);
                // …and no mode ever pays more than it: multicast sends a
                // subset of the unicast envelopes, batching delta-encodes
                // a subset of the unicast record bytes.
                for mode in [
                    "multicast",
                    "batched",
                    "multicast-batched",
                    "delta",
                    "multicast-batched-delta",
                ] {
                    let row = cell(topo, mode, kind);
                    assert!(
                        row.control_ratio_vs_unicast <= 1.0 + 1e-12,
                        "{topo}/{mode}/{kind}: ratio {}",
                        row.control_ratio_vs_unicast
                    );
                    assert!(row.messages <= base.messages);
                }
            }
            // The measured drops the wire layer exists for: tree
            // multicast cuts the broadcast-heavy protocols' control
            // bytes…
            for kind in [ProtocolKind::CausalFull, ProtocolKind::CausalPartial] {
                assert!(
                    cell(topo, "multicast", kind).control_ratio_vs_unicast < 1.0,
                    "{topo}: multicast must cut {kind}'s broadcast bytes"
                );
            }
            // …with one instructive exception: the sequencer broadcasts
            // only from node 0, which on the star *is* the hub — its
            // broadcast tree is flat (one private edge per leaf), so
            // there is nothing to deduplicate there. On the grid the
            // corner-seated sequencer shares tree edges like everyone
            // else.
            let seq = cell(topo, "multicast", ProtocolKind::Sequential);
            if topo == "star" {
                assert!((seq.control_ratio_vs_unicast - 1.0).abs() < 1e-12);
            } else {
                assert!(seq.control_ratio_vs_unicast < 1.0);
            }
            // …and batching cuts causal-partial's per-non-replica record
            // cost, independently and cumulatively.
            let batched = cell(topo, "batched", ProtocolKind::CausalPartial);
            assert!(batched.control_ratio_vs_unicast < 1.0);
            let both = cell(topo, "multicast-batched", ProtocolKind::CausalPartial);
            assert!(both.control_ratio_vs_unicast <= batched.control_ratio_vs_unicast);
            // Batching alone cannot touch protocols without control-only
            // records (the op-log's batching is structural — the
            // flat-combining lane — and independent of the wire mode).
            for kind in [
                ProtocolKind::PramPartial,
                ProtocolKind::CausalFull,
                ProtocolKind::Sequential,
                ProtocolKind::OpLog,
            ] {
                assert!(
                    (cell(topo, "batched", kind).control_ratio_vs_unicast - 1.0).abs() < 1e-12,
                    "{topo}: batching must not change {kind}"
                );
            }
            // Delta clock encoding cuts the vector-clock-carrying
            // protocols (each write's clock differs from the writer's
            // previous one in a handful of entries)…
            for kind in [ProtocolKind::CausalFull, ProtocolKind::CausalPartial] {
                assert!(
                    cell(topo, "delta", kind).control_ratio_vs_unicast < 1.0,
                    "{topo}: delta must cut {kind}'s clock bytes"
                );
            }
            // …stacks with multicast + batching…
            let all_three = cell(topo, "multicast-batched-delta", ProtocolKind::CausalPartial);
            assert!(all_three.control_ratio_vs_unicast <= both.control_ratio_vs_unicast);
            // …and is a no-op for the protocols whose wire metadata is
            // O(1) per message (sequence numbers, not clocks).
            for kind in [
                ProtocolKind::PramPartial,
                ProtocolKind::Sequential,
                ProtocolKind::OpLog,
            ] {
                assert!(
                    (cell(topo, "delta", kind).control_ratio_vs_unicast - 1.0).abs() < 1e-12,
                    "{topo}: delta must not change {kind}"
                );
            }
        }
    }

    /// The large tier at a small-but-nontrivial size: full row set, every
    /// row oracle-checked (the sweep panics on a spot-check violation),
    /// and the delta wire never dearer than the dense one.
    #[test]
    fn scenario_matrix_large_is_oracle_checked_and_delta_never_dearer() {
        let n = 24;
        let rows = scenario_matrix_large(n, 2, 7);
        assert_eq!(
            rows.len(),
            standard_distributions().len() * LARGE_TIER_DELIVERIES.len() * ProtocolKind::ALL.len()
        );
        assert!(rows.iter().all(|r| r.processes == n));
        assert!(rows
            .iter()
            .all(|r| r.topology == "mesh" && r.fault == "none"));
        // Coordinates are unique and disjoint from the standard matrix
        // (different process count), so the baseline can hold both.
        let coords: std::collections::BTreeSet<String> =
            rows.iter().map(|r| r.coordinate()).collect();
        assert_eq!(coords.len(), rows.len());
        // Delta encoding only ever removes clock bytes from the wire.
        for row in rows.iter().filter(|r| r.delivery == "multicast-batched") {
            let delta = rows
                .iter()
                .find(|r| {
                    r.protocol == row.protocol
                        && r.distribution == row.distribution
                        && r.delivery == "multicast-batched-delta"
                })
                .unwrap();
            assert!(
                delta.control_bytes <= row.control_bytes,
                "{}/{}: delta {} > dense {}",
                row.protocol,
                row.distribution,
                delta.control_bytes,
                row.control_bytes
            );
        }
    }

    /// The E8 headline, pinned at 64 → 256 (the binary extends it to
    /// 1024): causal-partial's control bytes per op grow strictly slower
    /// than causal-full's under the batched wire, because batching
    /// amortizes the full vector clock over the records that accumulate
    /// per destination while causal-full pays a dense clock on every
    /// envelope. Asserted on the non-delta rows — delta encoding collapses
    /// both protocols' clock bytes to near-O(1) per record, which is the
    /// point of the delta rows but erases the growth gap this test pins.
    #[test]
    fn scaling_sweep_growth_orders_the_causal_protocols() {
        let rows = scaling_sweep(&[64, 256], 8, 11);
        assert_eq!(
            rows.len(),
            2 * LARGE_TIER_DELIVERIES.len() * ProtocolKind::ALL.len()
        );
        let cell = |n: usize, mode: &str, kind: ProtocolKind| {
            rows.iter()
                .find(|r| r.processes == n && r.delivery == mode && r.protocol == kind)
                .unwrap()
        };
        let growth = |kind: ProtocolKind| {
            let small = cell(64, "multicast-batched", kind).control_bytes_per_op;
            let big = cell(256, "multicast-batched", kind).control_bytes_per_op;
            assert!(small > 0.0);
            big / small
        };
        assert!(
            growth(ProtocolKind::CausalPartial) < growth(ProtocolKind::CausalFull),
            "causal-partial must grow strictly slower than causal-full: {} vs {}",
            growth(ProtocolKind::CausalPartial),
            growth(ProtocolKind::CausalFull)
        );
        // Every cell did real work and the throughput inputs are sane.
        for row in &rows {
            assert!(row.operations > 0 && row.events > 0 && row.messages > 0);
            assert!(row.events_per_sec() >= 0.0);
        }
        // Delta rows never spend more wire than their dense counterparts.
        for n in [64, 256] {
            for kind in ProtocolKind::ALL {
                assert!(
                    cell(n, "multicast-batched-delta", kind).control_bytes
                        <= cell(n, "multicast-batched", kind).control_bytes,
                    "{n}/{kind}"
                );
            }
        }
    }

    #[test]
    fn matrix_rows_round_trip_through_json() {
        let rows = scenario_matrix(4, 2, 5);
        for row in &rows {
            let parsed = ScenarioMatrixRow::from_json(&row.to_json()).unwrap();
            assert_eq!(parsed.coordinate(), row.coordinate());
            assert_eq!(parsed.messages, row.messages);
            assert_eq!(parsed.data_bytes, row.data_bytes);
            assert_eq!(parsed.control_bytes, row.control_bytes);
            assert_eq!(parsed.forwarded, row.forwarded);
            assert_eq!(parsed.virtual_nanos, row.virtual_nanos);
            assert_eq!(parsed.pool_hits, row.pool_hits);
            assert_eq!(parsed.pool_misses, row.pool_misses);
            assert_eq!(parsed.sweep_workers, row.sweep_workers);
        }
        // Array framing (trailing comma, whitespace) is tolerated; other
        // lines are not rows.
        let line = format!("  {},", rows[0].to_json());
        assert!(ScenarioMatrixRow::from_json(&line).is_some());
        assert!(ScenarioMatrixRow::from_json("[").is_none());
        assert!(ScenarioMatrixRow::from_json("]").is_none());
        // Rows recorded before the pool/worker columns existed still
        // parse, with the new columns defaulting to zero — the checked-in
        // baseline stays valid without regeneration.
        let legacy = line
            .replace(&format!(",\"pool_hits\":{}", rows[0].pool_hits), "")
            .replace(&format!(",\"pool_misses\":{}", rows[0].pool_misses), "")
            .replace(&format!(",\"sweep_workers\":{}", rows[0].sweep_workers), "");
        let parsed = ScenarioMatrixRow::from_json(&legacy).unwrap();
        assert_eq!(parsed.coordinate(), rows[0].coordinate());
        assert_eq!(parsed.control_bytes, rows[0].control_bytes);
        assert_eq!(parsed.pool_hits, 0);
        assert_eq!(parsed.pool_misses, 0);
        assert_eq!(parsed.sweep_workers, 0);
    }

    /// The sweep rows carry the scheduler's pool accounting: after warmup
    /// the event path recycles buffers, so hits dominate somewhere, and
    /// every row records the fan-out width it ran under.
    #[test]
    fn matrix_rows_report_pool_and_worker_columns() {
        let rows = scenario_matrix(5, 3, 9);
        let workers = rows[0].sweep_workers;
        assert!(workers >= 1);
        assert!(rows.iter().all(|r| r.sweep_workers == workers));
        assert!(rows.iter().any(|r| r.pool_hits > 0));
        // Pool accounting is part of the deterministic row payload: two
        // identical sweeps agree column for column.
        let again = scenario_matrix(5, 3, 9);
        for (a, b) in rows.iter().zip(&again) {
            assert_eq!(a.pool_hits, b.pool_hits, "{}", a.coordinate());
            assert_eq!(a.pool_misses, b.pool_misses, "{}", a.coordinate());
        }
    }

    /// E9 smoke: the threaded sweep produces one row per (thread count,
    /// protocol), with sane deterministic columns; wall-clock columns are
    /// only required to be nonzero.
    #[test]
    fn threaded_throughput_sweep_covers_every_protocol() {
        let rows = threaded_throughput_sweep(&[2, 4], 3, 7);
        assert_eq!(rows.len(), 2 * ProtocolKind::ALL.len());
        for row in &rows {
            assert!(row.operations > 0, "{}/{}", row.protocol, row.threads);
            assert!(row.simnet_events > 0);
            assert!(row.wall_nanos > 0 && row.simnet_wall_nanos > 0);
            assert!(row.ops_per_sec() > 0.0);
            assert!(row.simnet_events_per_sec() > 0.0);
        }
    }

    #[test]
    fn baseline_comparison_flags_regressions_but_not_improvements() {
        let rows = scenario_matrix(4, 2, 5);
        // Identical sweeps: clean.
        assert!(compare_to_baseline(&rows, &rows, 0.02).is_empty());

        // A 10% control-byte increase on one cell fails at 2% tolerance…
        let mut worse = rows.clone();
        worse[0].control_bytes = (worse[0].control_bytes.max(10) as f64 * 1.10) as u64;
        let diffs = compare_to_baseline(&rows, &worse, 0.02);
        assert_eq!(diffs.len(), 1);
        assert!(matches!(diffs[0], BaselineDiff::Regression { .. }));
        assert!(diffs[0].to_string().contains("REGRESSION"));
        // …but passes at 20% tolerance.
        assert!(compare_to_baseline(&rows, &worse, 0.20).is_empty());

        // Improvements never fail — but past the tolerance they are
        // reported, so a stale ledger shows.
        let mut better = rows.clone();
        for r in &mut better {
            r.control_bytes /= 2;
        }
        let diffs = compare_to_baseline(&rows, &better, 0.02);
        assert!(!diffs.is_empty() && diffs.iter().all(|d| !d.fails()));
        assert!(diffs[0].to_string().contains("IMPROVED"));
        let mut slightly = rows.clone();
        for r in &mut slightly {
            r.control_bytes -= r.control_bytes / 100;
        }
        assert!(compare_to_baseline(&rows, &slightly, 0.02).is_empty());

        // Shape changes are loud in both directions.
        let shrunk = &rows[1..];
        let diffs = compare_to_baseline(&rows, shrunk, 0.02);
        assert_eq!(diffs.len(), 1);
        assert!(matches!(diffs[0], BaselineDiff::Missing { .. }));
        let diffs = compare_to_baseline(shrunk, &rows, 0.02);
        assert_eq!(diffs.len(), 1);
        assert!(matches!(diffs[0], BaselineDiff::New { .. }));
    }
}
