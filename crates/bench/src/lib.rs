//! Experiment runners behind the report binaries: `efficiency` prints the
//! paper's tables E1–E8 and E10, `figures` regenerates its figures, and
//! `baseline` writes and checks the deterministic ledger
//! `BENCH_baseline.json`. Every number they print is exact; wall-clock
//! performance is measured only by the dsmbench workloads under `benchmark/`.
//!
//! Every deterministic sweep is a list of [`MatrixCell`]s — a workload
//! script under one [`ProtocolKind`] on one network — that [`run_cells`]
//! executes through the scenario engine ([`apps::Scenario`]). The ledger
//! ([`scenario_matrix`], [`scenario_matrix_large`]) turns the executed
//! cells into [`ScenarioMatrixRow`]s; the E-tables print them directly,
//! pricing each row against its reference run ([`Table`]), and E4 prints
//! [`BellmanFordRun`]s. There is no per-protocol code path in this crate.

#![warn(missing_docs)]

use apps::WorkloadOp;
use apps::{
    latency_label, parallel_map, run_script_faulted, standard_distributions, standard_faults,
    standard_grid, standard_topologies, CrashSchedule, DistributionFamily, FaultFamily, RunReport,
    Scenario, SettlePolicy, TopologyFamily, WorkloadFamily,
};
use apps::{run_bellman_ford, BellmanFordRun, Network};
use dsm::ProtocolKind;
use histories::{causal_spot_check, pram_spot_check, Distribution, VarId};
use serde::{Deserialize, Serialize};
use simnet::{DeliveryMode, ExecBackend, SimConfig};
use std::sync::Arc;

/// One cell of a sweep, ready to run: a workload script under one
/// protocol on one network, labelled with its coordinates. The ledger,
/// the large tier and the E-tables are all lists of these.
#[derive(Clone)]
pub struct MatrixCell {
    /// Protocol to run.
    pub kind: ProtocolKind,
    /// Distribution family label.
    pub distribution: String,
    /// Workload family label.
    pub workload: String,
    /// Latency model label.
    pub latency: String,
    /// Topology family label (`mesh` = direct sends).
    pub topology: String,
    /// Delivery-mode label.
    pub delivery: String,
    /// Fault-family label.
    pub fault: String,
    /// Which process replicates which variable.
    pub dist: Distribution,
    /// The workload script, shared by the cell's protocol siblings.
    ops: Arc<Vec<WorkloadOp>>,
    /// The network the script runs on.
    config: SimConfig,
    /// The scripted crash of the cell's fault family, if it has one.
    crash: Option<CrashSchedule>,
    /// Whether the run records its history.
    record: bool,
}

impl MatrixCell {
    /// Run the cell through the scenario engine.
    fn run(&self) -> RunReport {
        run_script_faulted(
            self.kind,
            &self.dist,
            &self.ops,
            self.config.clone(),
            self.record,
            self.crash,
        )
    }

    /// The cell's coordinate: protocol, distribution, workload, latency,
    /// topology, delivery and fault.
    fn coordinate(&self) -> [&str; 7] {
        [
            self.kind.name(),
            &self.distribution,
            &self.workload,
            &self.latency,
            &self.topology,
            &self.delivery,
            &self.fault,
        ]
    }
}

/// One cell per protocol of `kinds` for `scenario` on `config`: the
/// scenario supplies the distribution, the script, the crash schedule,
/// the recording flag and the labels; the caller supplies the network.
fn cells(scenario: &Scenario, kinds: &[ProtocolKind], config: SimConfig) -> Vec<MatrixCell> {
    let dist = scenario.build_distribution();
    let ops = Arc::new(scenario.generate_ops(&dist));
    let crash = scenario.faults.crash_schedule(&ops, scenario.processes);
    kinds
        .iter()
        .map(|&kind| MatrixCell {
            kind,
            distribution: scenario.distribution.label(),
            workload: scenario.workload.label().to_string(),
            latency: latency_label(&scenario.latency).to_string(),
            topology: scenario.topology.label().to_string(),
            delivery: scenario.delivery.label().to_string(),
            fault: scenario.faults.label().to_string(),
            dist: dist.clone(),
            ops: Arc::clone(&ops),
            config: config.clone(),
            crash,
            record: scenario.record,
        })
        .collect()
}

/// [`cells`] on the scenario's network seeded with the scenario's own
/// seed (the ledger's and the E-tables' convention;
/// [`Scenario::sim_config`] mixes the seed).
fn seeded_cells(scenario: &Scenario, kinds: &[ProtocolKind]) -> Vec<MatrixCell> {
    let config = SimConfig {
        seed: scenario.seed,
        ..scenario.sim_config()
    };
    cells(scenario, kinds, config)
}

/// Run every cell through the scenario engine on the scoped-thread
/// fan-out ([`apps::parallel_map`]). Each cell comes back with
/// its report, in input order, bit-identical to a sequential run.
pub fn run_cells(cells: Vec<MatrixCell>) -> Vec<(MatrixCell, RunReport)> {
    map_cells(cells, |cell, report| (cell, report))
}

/// [`run_cells`], handing each cell and its report to `f` in the worker
/// that ran it — so a sweep that keeps one row per cell drops each report
/// there instead of holding them all (E8's at n = 1024 triple peak memory).
pub fn map_cells<R: Send>(
    cells: Vec<MatrixCell>,
    f: impl Fn(MatrixCell, RunReport) -> R + Sync,
) -> Vec<R> {
    parallel_map(cells, |cell| {
        let report = cell.run();
        f(cell, report)
    })
}

/// The most nodes that handled metadata about any one variable of the
/// cell's distribution (E1's `max relevant` column).
pub fn max_relevant_nodes(cell: &MatrixCell, report: &RunReport) -> usize {
    (0..cell.dist.var_count())
        .map(|x| report.control.relevant_nodes(VarId(x)).len())
        .max()
        .unwrap_or(0)
}

/// E1/E2 at one point: the standard synthetic workload
/// (`ops_per_process` ops per process, 50% writes, a settle every 6 ops)
/// on `dist` under every protocol, on the default network.
pub fn efficiency_cells(dist: &Distribution, ops_per_process: usize, seed: u64) -> Vec<MatrixCell> {
    let scenario = Scenario {
        distribution: DistributionFamily::Custom(dist.clone()),
        processes: dist.process_count(),
        variables: dist.var_count(),
        ops_per_process,
        seed,
        ..Scenario::default()
    };
    cells(&scenario, &ProtocolKind::ALL, SimConfig::default())
}

/// An E-table whose rows are each priced against a reference run: the
/// row's own cell with the one coordinate the table varies moved to its
/// reference value. The script is the same in every cell of a table, so
/// a row's ratio isolates that coordinate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Table {
    /// E5, overlay routing: the standard synthetic workload under every
    /// protocol on every standard topology, against the same protocol on
    /// the full mesh — what relaying costs on the wire.
    Routed,
    /// E6, wire efficiency: the standard synthetic workload under every
    /// protocol and delivery mode on the star and the grid, against the
    /// same protocol on the unicast wire. The script settles once at the
    /// end: batching amortizes a clock over the records that accumulate
    /// *between* delivery rounds, and per-op settling would leave every
    /// batch at size one, costing exactly the unbatched wire.
    Delivery,
    /// E7, fault tolerance: a race-free (producer/consumer) workload under
    /// every protocol and fault family on the mesh, star and grid, against
    /// the same protocol fault-free — what retransmissions, duplicate
    /// copies and the crash-restart catch-up cost.
    Fault,
    /// E10, op-log vs sequencer: a race-free workload under both
    /// write-ordering protocols on the mesh, star and grid × the unicast
    /// wire and the full efficiency stack × every fault family, against the
    /// sequencer in the same cell. Both buy the same settled criterion
    /// ([`ProtocolKind::settled_criterion`]), so the ratio prices the shard
    /// log against the centralized sequencer.
    OpLog,
}

impl Table {
    /// The table's cells at `n` processes over `2n` variables, each
    /// replicated on two random processes; protocols innermost.
    pub fn cells(self, n: usize, ops_per_process: usize, seed: u64) -> Vec<MatrixCell> {
        use TopologyFamily::{FullMesh, Grid, Star};
        let uniform = WorkloadFamily::Uniform { write_ratio: 0.5 };
        let producer_consumer = WorkloadFamily::ProducerConsumer;
        let unicast = vec![DeliveryMode::UNICAST];
        let all = ProtocolKind::ALL.to_vec();
        let (workload, settle, topologies, deliveries, faults, kinds) = match self {
            Table::Routed => (
                uniform,
                SettlePolicy::Every(6),
                standard_topologies(),
                unicast,
                vec![FaultFamily::None],
                all,
            ),
            Table::Delivery => (
                uniform,
                SettlePolicy::AtEnd,
                vec![Star, Grid],
                DeliveryMode::ALL.to_vec(),
                vec![FaultFamily::None],
                all,
            ),
            Table::Fault => (
                producer_consumer,
                SettlePolicy::Every(6),
                vec![FullMesh, Star, Grid],
                unicast,
                standard_faults(),
                all,
            ),
            Table::OpLog => (
                producer_consumer,
                SettlePolicy::Every(6),
                vec![FullMesh, Star, Grid],
                vec![DeliveryMode::UNICAST, DeliveryMode::MULTICAST_BATCHED_DELTA],
                standard_faults(),
                vec![ProtocolKind::OpLog, ProtocolKind::Sequential],
            ),
        };
        let base = Scenario {
            distribution: DistributionFamily::Random { replicas: 2 },
            processes: n,
            variables: 2 * n,
            workload,
            ops_per_process,
            settle,
            seed,
            ..Scenario::default()
        };
        let mut cells = Vec::new();
        for topology in topologies {
            for &delivery in &deliveries {
                for &faults in &faults {
                    let scenario = Scenario {
                        topology: topology.clone(),
                        delivery,
                        faults,
                        ..base.clone()
                    };
                    cells.extend(seeded_cells(&scenario, &kinds));
                }
            }
        }
        cells
    }

    /// The report `runs[row]` is priced against. Panics if `runs` holds
    /// none (a table's cells always include their references).
    pub fn reference(self, runs: &[(MatrixCell, RunReport)], row: usize) -> &RunReport {
        let mut want = runs[row].0.coordinate();
        let (axis, value) = match self {
            Table::Routed => (4, TopologyFamily::FullMesh.label()),
            Table::Delivery => (5, DeliveryMode::UNICAST.label()),
            Table::Fault => (6, FaultFamily::None.label()),
            Table::OpLog => (0, ProtocolKind::Sequential.name()),
        };
        want[axis] = value;
        runs.iter()
            .find(|(cell, _)| cell.coordinate() == want)
            .map(|(_, report)| report)
            .unwrap_or_else(|| panic!("{self:?}: no reference for row {row}"))
    }

    /// `metric` of `runs[row]` divided by `metric` of its reference run
    /// (1.0 on the reference itself, and when the reference measured zero).
    pub fn ratio(
        self,
        runs: &[(MatrixCell, RunReport)],
        row: usize,
        metric: impl Fn(&RunReport) -> u64,
    ) -> f64 {
        let base = metric(self.reference(runs, row));
        if base == 0 {
            1.0
        } else {
            metric(&runs[row].1) as f64 / base as f64
        }
    }
}

/// Run the distributed Bellman-Ford (experiment E4) on a random reachable
/// network of `n` nodes under every protocol, each run paired with
/// whether it converged to the sequential reference's distances.
pub fn bellman_ford_point(n: usize, seed: u64) -> Vec<(BellmanFordRun, bool)> {
    let net = Network::random_reachable(n, 2 * n, 9, seed);
    let reference = apps::shortest_paths_reference(&net, 0);
    ProtocolKind::ALL
        .iter()
        .map(|&kind| {
            let run = run_bellman_ford(kind, &net, 0, SimConfig::default())
                .expect("node 0 exists in every network");
            let correct = run.converged && run.distances == reference;
            (run, correct)
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
        .map(|x| histories::relevant_processes(dist, VarId(x), max_hoop_len).len())
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
/// coordinate and its measured costs. Every column is deterministic, so
/// the rows [`ScenarioMatrixRow::to_json`] writes form the checked-in
/// ledger `BENCH_baseline.json`.
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
             \"forwarded\":{},\"drops\":{},\"duplicates\":{},\"virtual_nanos\":{}}}",
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
            self.virtual_nanos
        )
    }
}

/// Run the cells of a ledger tier: `check` sees each report, and each
/// cell becomes its row.
fn matrix_rows(
    cells: Vec<MatrixCell>,
    check: impl Fn(&MatrixCell, &RunReport) + Sync,
) -> Vec<ScenarioMatrixRow> {
    map_cells(cells, |cell, out| {
        check(&cell, &out);
        ScenarioMatrixRow {
            protocol: cell.kind.name().to_string(),
            processes: cell.dist.process_count(),
            distribution: cell.distribution,
            workload: cell.workload,
            latency: cell.latency,
            topology: cell.topology,
            delivery: cell.delivery,
            fault: cell.fault,
            messages: out.messages(),
            data_bytes: out.data_bytes(),
            control_bytes: out.control_bytes(),
            control_bytes_per_op: out.control_bytes_per_op(),
            forwarded: out.forwarded,
            drops: out.drops(),
            duplicates: out.duplicates(),
            virtual_nanos: out.virtual_time.as_nanos(),
        }
    })
}

/// The standard scenario matrix: every protocol at every simnet
/// coordinate of [`apps::standard_grid`], at `n` processes over
/// `2n` variables with a settle every 6 ops. This is the sweep space the
/// paper's efficiency argument lives in.
///
/// The rows are in sweep order, bit-identical to a sequential run. The
/// fault schedules are seeded, so fault rows are as reproducible as the
/// rest — the `baseline --check` CI gate covers them too.
pub fn scenario_matrix(n: usize, ops_per_process: usize, seed: u64) -> Vec<ScenarioMatrixRow> {
    let base = Scenario {
        processes: n,
        variables: 2 * n,
        ops_per_process,
        settle: SettlePolicy::Every(6),
        seed,
        ..Scenario::default()
    };
    let cells = standard_grid(&base, &[ExecBackend::Simnet])
        .iter()
        .flat_map(|scenario| seeded_cells(scenario, &ProtocolKind::ALL))
        .collect();
    matrix_rows(cells, |_, _| {})
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

/// The cells of the large tier and the E8 sweep: `distributions` at `n`
/// processes over `2n` variables under every protocol and both
/// [`LARGE_TIER_DELIVERIES`], on the direct mesh with one settle at the
/// end of a uniform script.
fn large_cells(
    n: usize,
    distributions: &[DistributionFamily],
    ops_per_process: usize,
    seed: u64,
    record: bool,
) -> Vec<MatrixCell> {
    let mut cells = Vec::new();
    for distribution in distributions {
        let scenario = Scenario {
            distribution: distribution.clone(),
            processes: n,
            variables: 2 * n,
            ops_per_process,
            settle: SettlePolicy::AtEnd,
            seed,
            record,
            ..Scenario::default()
        };
        // Both wire formats run one script: generating the full
        // distribution's takes about a second at n = 256.
        let script = seeded_cells(&scenario, &ProtocolKind::ALL);
        for delivery in LARGE_TIER_DELIVERIES {
            cells.extend(script.iter().map(|cell| MatrixCell {
                delivery: delivery.label().to_string(),
                // The ledger records the large tier's latency as `default`.
                latency: "default".to_string(),
                config: SimConfig {
                    delivery,
                    ..cell.config.clone()
                },
                ..cell.clone()
            }));
        }
    }
    cells
}

/// The `large` scenario tier: the standard distribution families at
/// `n = 64..1024` processes, under the two full wire-efficiency stacks
/// ([`LARGE_TIER_DELIVERIES`]), on the direct mesh with a single settle
/// at the end. 30 rows per `n` (3 distributions × 2 modes × 5 protocols).
///
/// Full-history consistency checking is super-linear in the history, so
/// the large tier swaps the exhaustive checker for the polynomial spot
/// checkers ([`histories::pram_spot_check`], [`histories::causal_spot_check`]):
/// every run still records its history and every row is oracle-checked —
/// a row only exists if its history passed the spot check for the
/// protocol's consistency criterion. Panics on a violation (the sweep is
/// an acceptance gate, not a probe).
///
/// Rows are in sweep order and bit-identical to a sequential run, like
/// [`scenario_matrix`]'s.
pub fn scenario_matrix_large(
    n: usize,
    ops_per_process: usize,
    seed: u64,
) -> Vec<ScenarioMatrixRow> {
    let cells = large_cells(n, &standard_distributions(), ops_per_process, seed, true);
    matrix_rows(cells, |cell, out| {
        let failure = match cell.kind {
            ProtocolKind::CausalFull | ProtocolKind::CausalPartial => {
                causal_spot_check(&out.history)
                    .err()
                    .map(|v| ("causal", format!("{v:?}")))
            }
            ProtocolKind::PramPartial | ProtocolKind::Sequential | ProtocolKind::OpLog => {
                pram_spot_check(&out.history)
                    .err()
                    .map(|v| ("PRAM", format!("{v:?}")))
            }
        };
        if let Some((criterion, violation)) = failure {
            panic!(
                "large-tier {criterion} spot check failed: {}/{}/{}/{n}: {violation}",
                cell.kind.name(),
                cell.distribution,
                cell.delivery
            );
        }
    })
}

/// The cells of the E8 scaling sweep: every protocol under both large-tier
/// wire formats at each size in `ns`, on the random(2) distribution with a
/// bulk-phase workload (one settle at the end, where batching and delta
/// encoding amortize). A tier-1 test pins causal-partial's control bytes
/// per op growing strictly slower than causal-full's.
pub fn scaling_cells(ns: &[usize], ops_per_process: usize, seed: u64) -> Vec<MatrixCell> {
    let random = [DistributionFamily::Random { replicas: 2 }];
    ns.iter()
        .flat_map(|&n| large_cells(n, &random, ops_per_process, seed, false))
        .collect()
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

#[cfg(test)]
mod tests {
    use super::*;
    use apps::{standard_latencies, standard_workloads};

    #[test]
    fn efficiency_sweep_orders_protocols_as_the_paper_predicts() {
        let dist = Distribution::random(8, 12, 2, 1);
        let runs = run_cells(efficiency_cells(&dist, 8, 5));
        assert_eq!(runs.len(), 5);
        let [pram, cpart, cfull, _, oplog] = [0, 1, 2, 3, 4].map(|i| &runs[i]);
        assert_eq!(pram.0.kind, ProtocolKind::PramPartial);
        assert_eq!(cpart.0.kind, ProtocolKind::CausalPartial);
        assert_eq!(cfull.0.kind, ProtocolKind::CausalFull);
        assert_eq!(oplog.0.kind, ProtocolKind::OpLog);
        assert!(pram.1.control_bytes() < cpart.1.control_bytes());
        assert!(pram.1.control_bytes() < cfull.1.control_bytes());
        let max_relevant =
            |(cell, report): &(MatrixCell, RunReport)| max_relevant_nodes(cell, report);
        // PRAM metadata never reaches more nodes than the replica set.
        assert!(max_relevant(pram) <= 3);
        // The op-log's append/echo/entry traffic stays between the shard
        // owner and the replicas — both inside C(x) — so its metadata
        // footprint matches PRAM's, not the sequencer's.
        assert!(max_relevant(oplog) <= 3);
        // Causal partial metadata reaches every node for some variable.
        assert_eq!(max_relevant(cpart), 8);
    }

    #[test]
    fn bellman_ford_point_is_correct_for_all_protocols() {
        for (run, correct) in bellman_ford_point(8, 3) {
            assert!(correct, "{}", run.report.protocol);
            assert!(run.report.messages() > 0);
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
            + (DeliveryMode::ALL.len() - 1)
            + (standard_faults().len() - 1);
        let per_sparse_cell = DeliveryMode::ALL.len() + (standard_faults().len() - 1);
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
        let runs = run_cells(Table::Fault.cells(8, 6, 3));
        // Mesh, star, grid × four fault families × five protocols.
        assert_eq!(
            runs.len(),
            3 * standard_faults().len() * ProtocolKind::ALL.len()
        );
        let at = |topo: &str, fault: &str, kind: ProtocolKind| {
            runs.iter()
                .position(|(c, _)| c.topology == topo && c.fault == fault && c.kind == kind)
                .unwrap()
        };
        let control = |row| Table::Fault.ratio(&runs, row, RunReport::control_bytes);
        let time = |row| Table::Fault.ratio(&runs, row, |r| r.virtual_time.as_nanos());
        for topo in ["mesh", "star", "grid"] {
            for kind in ProtocolKind::ALL {
                // The fault-free row is its own reference and is clean.
                let base = at(topo, "none", kind);
                assert!((control(base) - 1.0).abs() < 1e-12);
                let clean = &runs[base].1;
                assert_eq!(clean.drops() + clean.duplicates() + clean.crash_losses(), 0);
                // Drops force retransmissions: more control bytes and more
                // virtual time, never less.
                let lossy = at(topo, "lossy", kind);
                assert!(runs[lossy].1.drops() > 0, "{topo}/{kind}");
                assert!(control(lossy) >= 1.0);
                assert!(time(lossy) >= 1.0);
                // Duplicates pay wire bytes without touching delivery.
                let dup = at(topo, "duplicating", kind);
                assert!(runs[dup].1.duplicates() > 0, "{topo}/{kind}");
                assert!(control(dup) >= 1.0);
                // The crash window lost deliveries that recovery had to
                // re-fetch.
                let crash = at(topo, "crash-restart", kind);
                assert!(runs[crash].1.crash_losses() > 0, "{topo}/{kind}");
            }
        }
    }

    /// E10: the op-log beats the centralized sequencer on control bytes
    /// in every (topology, delivery, fault) cell — partial replication
    /// keeps its entries inside each variable's replica set while the
    /// sequencer broadcasts every ordered write to all nodes.
    #[test]
    fn op_log_vs_sequencer_sweep_shows_partial_replication_winning() {
        let runs = run_cells(Table::OpLog.cells(8, 6, 3));
        // Mesh, star, grid × two wire formats × four fault families, one
        // op-log row each.
        let rows: Vec<usize> = (0..runs.len())
            .filter(|&i| runs[i].0.kind == ProtocolKind::OpLog)
            .collect();
        assert_eq!(rows.len(), 3 * 2 * standard_faults().len());
        assert_eq!(runs.len(), 2 * rows.len());
        let coords: std::collections::BTreeSet<_> =
            rows.iter().map(|&i| runs[i].0.coordinate()).collect();
        assert_eq!(coords.len(), rows.len());
        for &row in &rows {
            let (cell, oplog) = &runs[row];
            let seq = Table::OpLog.reference(&runs, row);
            assert_eq!(seq.protocol, ProtocolKind::Sequential);
            assert!(oplog.messages() > 0 && seq.messages() > 0);
            assert!(oplog.virtual_time.as_nanos() > 0 && seq.virtual_time.as_nanos() > 0);
            assert!(
                oplog.control_bytes() < seq.control_bytes(),
                "{}/{}/{}: op-log {} >= sequencer {}",
                cell.topology,
                cell.delivery,
                cell.fault,
                oplog.control_bytes(),
                seq.control_bytes()
            );
            assert!(Table::OpLog.ratio(&runs, row, RunReport::control_bytes) < 1.0);
            assert!(Table::OpLog.ratio(&runs, row, |r| r.virtual_time.as_nanos()) > 0.0);
        }
    }

    #[test]
    fn routed_vs_mesh_sweep_quantifies_relay_overhead() {
        let runs = run_cells(Table::Routed.cells(8, 6, 3));
        assert_eq!(
            runs.len(),
            standard_topologies().len() * ProtocolKind::ALL.len()
        );
        for (row, (cell, report)) in runs.iter().enumerate() {
            let ratio = Table::Routed.ratio(&runs, row, RunReport::control_bytes);
            if cell.topology == "mesh" {
                assert_eq!(report.forwarded, 0);
                assert!((ratio - 1.0).abs() < 1e-12);
            } else {
                // Relaying can only add wire traffic, never remove it.
                assert!(ratio >= 1.0, "{}/{}", cell.topology, cell.kind);
            }
        }
        // Somewhere the overlay genuinely forwarded transit traffic.
        assert!(runs.iter().any(|(_, r)| r.forwarded > 0));
        // The paper's ordering survives routing: PRAM partial stays the
        // cheapest protocol on every topology.
        for family in standard_topologies() {
            let on = |k: ProtocolKind| {
                runs.iter()
                    .find(|(c, _)| c.topology == family.label() && c.kind == k)
                    .unwrap()
                    .1
                    .control_bytes()
            };
            assert!(on(ProtocolKind::PramPartial) < on(ProtocolKind::CausalPartial));
            assert!(on(ProtocolKind::PramPartial) < on(ProtocolKind::CausalFull));
        }
    }

    #[test]
    fn delivery_mode_sweep_quantifies_the_wire_savings() {
        let runs = run_cells(Table::Delivery.cells(8, 6, 3));
        // Star and grid × six modes × five protocols.
        assert_eq!(
            runs.len(),
            2 * DeliveryMode::ALL.len() * ProtocolKind::ALL.len()
        );
        let at = |topo: &str, mode: &str, kind: ProtocolKind| {
            runs.iter()
                .position(|(c, _)| c.topology == topo && c.delivery == mode && c.kind == kind)
                .unwrap()
        };
        // Each cell's control bytes against the unicast wire's.
        let ratio = |topo: &str, mode: &str, kind: ProtocolKind| {
            Table::Delivery.ratio(&runs, at(topo, mode, kind), RunReport::control_bytes)
        };
        for topo in ["star", "grid"] {
            for kind in ProtocolKind::ALL {
                // The baseline mode is its own reference…
                let base = at(topo, "unicast", kind);
                assert!((ratio(topo, "unicast", kind) - 1.0).abs() < 1e-12);
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
                    let r = ratio(topo, mode, kind);
                    assert!(r <= 1.0 + 1e-12, "{topo}/{mode}/{kind}: ratio {r}");
                    assert!(runs[at(topo, mode, kind)].1.messages() <= runs[base].1.messages());
                }
            }
            // The measured drops the wire layer exists for: tree
            // multicast cuts the broadcast-heavy protocols' control
            // bytes…
            for kind in [ProtocolKind::CausalFull, ProtocolKind::CausalPartial] {
                assert!(
                    ratio(topo, "multicast", kind) < 1.0,
                    "{topo}: multicast must cut {kind}'s broadcast bytes"
                );
            }
            // …with one instructive exception: the sequencer broadcasts
            // only from node 0, which on the star *is* the hub — its
            // broadcast tree is flat (one private edge per leaf), so
            // there is nothing to deduplicate there. On the grid the
            // corner-seated sequencer shares tree edges like everyone
            // else.
            let seq = ratio(topo, "multicast", ProtocolKind::Sequential);
            if topo == "star" {
                assert!((seq - 1.0).abs() < 1e-12);
            } else {
                assert!(seq < 1.0);
            }
            // …and batching cuts causal-partial's per-non-replica record
            // cost, independently and cumulatively.
            let batched = ratio(topo, "batched", ProtocolKind::CausalPartial);
            assert!(batched < 1.0);
            let both = ratio(topo, "multicast-batched", ProtocolKind::CausalPartial);
            assert!(both <= batched);
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
                    (ratio(topo, "batched", kind) - 1.0).abs() < 1e-12,
                    "{topo}: batching must not change {kind}"
                );
            }
            // Delta clock encoding cuts the vector-clock-carrying
            // protocols (each write's clock differs from the writer's
            // previous one in a handful of entries)…
            for kind in [ProtocolKind::CausalFull, ProtocolKind::CausalPartial] {
                assert!(
                    ratio(topo, "delta", kind) < 1.0,
                    "{topo}: delta must cut {kind}'s clock bytes"
                );
            }
            // …stacks with multicast + batching…
            let all_three = ratio(topo, "multicast-batched-delta", ProtocolKind::CausalPartial);
            assert!(all_three <= both);
            // …and is a no-op for the protocols whose wire metadata is
            // O(1) per message (sequence numbers, not clocks).
            for kind in [
                ProtocolKind::PramPartial,
                ProtocolKind::Sequential,
                ProtocolKind::OpLog,
            ] {
                assert!(
                    (ratio(topo, "delta", kind) - 1.0).abs() < 1e-12,
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
        let runs = run_cells(scaling_cells(&[64, 256], 8, 11));
        assert_eq!(
            runs.len(),
            2 * LARGE_TIER_DELIVERIES.len() * ProtocolKind::ALL.len()
        );
        let cell = |n: usize, mode: &str, kind: ProtocolKind| {
            &runs
                .iter()
                .find(|(c, _)| c.dist.process_count() == n && c.delivery == mode && c.kind == kind)
                .unwrap()
                .1
        };
        let growth = |kind: ProtocolKind| {
            let small = cell(64, "multicast-batched", kind).control_bytes_per_op();
            let big = cell(256, "multicast-batched", kind).control_bytes_per_op();
            assert!(small > 0.0);
            big / small
        };
        assert!(
            growth(ProtocolKind::CausalPartial) < growth(ProtocolKind::CausalFull),
            "causal-partial must grow strictly slower than causal-full: {} vs {}",
            growth(ProtocolKind::CausalPartial),
            growth(ProtocolKind::CausalFull)
        );
        // Every cell did real work.
        for (_, report) in &runs {
            assert!(report.operations > 0 && report.events > 0 && report.messages() > 0);
        }
        // Delta rows never spend more wire than their dense counterparts.
        for n in [64, 256] {
            for kind in ProtocolKind::ALL {
                assert!(
                    cell(n, "multicast-batched-delta", kind).control_bytes()
                        <= cell(n, "multicast-batched", kind).control_bytes(),
                    "{n}/{kind}"
                );
            }
        }
    }

    /// The ledger is a pure function of the code: two sweeps render the
    /// same bytes.
    #[test]
    fn matrix_rows_render_identically_across_runs() {
        let render = |rows: Vec<ScenarioMatrixRow>| -> Vec<String> {
            rows.iter().map(ScenarioMatrixRow::to_json).collect()
        };
        assert_eq!(
            render(scenario_matrix(5, 3, 9)),
            render(scenario_matrix(5, 3, 9))
        );
    }
}
