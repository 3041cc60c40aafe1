//! The four workloads, their seeded operation scripts and the script
//! oracle.
//!
//! A script is single-writer per variable (the writer of `x` is
//! `replicas_of(x)[x mod |C(x)|]`), so it is race-free: after a settle
//! every replica of every variable must hold the last value the script
//! wrote to it, under every protocol and on both backends. That is what
//! makes one script runnable under all five protocols and checkable
//! without a reference execution.

use histories::{Distribution, ProcId, VarId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use simnet::{DeliveryMode, ExecBackend, SimConfig, ThreadedMode, Topology};

/// `--seconds` value the per-workload round counts are sized for.
pub const REFERENCE_SECONDS: u64 = 10;

/// Seed of the variable distribution on the `sim-*` workloads. Fixed, not
/// taken from `--seed`: the control bytes a protocol pays per operation
/// depend on the share graph, so a per-seed distribution would move
/// `ctl_bytes_per_op` by far more than its bound between two runs of the
/// same commit. `--seed` drives the operation script.
const DISTRIBUTION_SEED: u64 = 0x5EED_D157;

/// Operations in one period of a script; the rounds of a run cycle
/// through the period.
const SCRIPT_OPS: usize = 1 << 16;

/// How the variables are laid out over the processes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// `Distribution::random(procs, vars, 2, DISTRIBUTION_SEED)`.
    RandomPairs,
    /// Two processes, four variables: x0→{p0}, x1→{p1}, x2,x3→{p0,p1}, so
    /// partial and full replication differ even at n = 2.
    ThreadPair,
}

/// One workload: the coordinates of a run, fixed on every commit.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (which layers it stresses).
    pub why: &'static str,
    /// Execution backend.
    pub backend: ExecBackend,
    /// Number of processes.
    pub procs: usize,
    /// Number of shared variables.
    pub vars: usize,
    /// Variable layout.
    pub layout: Layout,
    /// `true`: `Topology::grid_of(procs)` with overlay routing; `false`:
    /// full mesh, direct sends.
    pub grid: bool,
    /// Wire delivery mode.
    pub delivery: DeliveryMode,
    /// Writes per hundred operations (exact in every round).
    pub write_pct: usize,
    /// Operations per round (`K`): a round is `K` reads/writes, then one
    /// settle.
    pub ops_per_round: usize,
    /// Timed rounds per protocol at `--seconds 10`, sized so that the
    /// five protocols together take about ten seconds on a 2-core host.
    pub rounds: u64,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "sim-mesh-n8",
        why: "simnet, full mesh, n=8: small clocks and direct sends, so protocol handlers, \
              DynDsm dispatch and the unbounded protocol logs dominate; route, chan and \
              threaded do nothing",
        backend: ExecBackend::Simnet,
        procs: 8,
        vars: 16,
        layout: Layout::RandomPairs,
        grid: false,
        delivery: DeliveryMode::UNICAST,
        write_pct: 50,
        ops_per_round: 64,
        rounds: 40_000,
    },
    Spec {
        name: "sim-grid-n64",
        why: "simnet, routed 8x8 grid, n=64, multicast+batched+delta: 64-entry clocks, relays, \
              multicast splitting, deep event queue and pooled buffers; clock, route, event \
              and pool dominate",
        backend: ExecBackend::Simnet,
        procs: 64,
        vars: 128,
        layout: Layout::RandomPairs,
        grid: true,
        delivery: DeliveryMode::MULTICAST_BATCHED_DELTA,
        write_pct: 50,
        ops_per_round: 256,
        rounds: 400,
    },
    Spec {
        name: "thr-write-n2",
        why: "free-running threads, 2 workers + driver, 90% writes, K=512 = 4x ring capacity: \
              pipelined async posts and batched ring drains do the work; simnet's event queue \
              and router do none",
        backend: ExecBackend::Threaded(ThreadedMode::FreeRunning),
        procs: 2,
        vars: 4,
        layout: Layout::ThreadPair,
        grid: false,
        delivery: DeliveryMode::UNICAST,
        write_pct: 90,
        ops_per_round: 512,
        rounds: 4_000,
    },
    Spec {
        name: "thr-read-n2",
        why: "free-running threads, 2 workers + driver, 10% writes: every read is a \
              synchronous control-lane round trip, so a change that batches or delays posts \
              to speed thr-write-n2 shows here as read latency",
        backend: ExecBackend::Threaded(ThreadedMode::FreeRunning),
        procs: 2,
        vars: 4,
        layout: Layout::ThreadPair,
        grid: false,
        delivery: DeliveryMode::UNICAST,
        write_pct: 10,
        ops_per_round: 256,
        rounds: 4_000,
    },
];

impl Spec {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    /// Whether the workload runs on OS threads.
    pub fn is_threaded(&self) -> bool {
        self.backend.is_threaded()
    }

    /// The variable distribution.
    pub fn distribution(&self) -> Distribution {
        match self.layout {
            Layout::RandomPairs => {
                Distribution::random(self.procs, self.vars, 2, DISTRIBUTION_SEED)
            }
            Layout::ThreadPair => {
                let mut d = Distribution::new(2, 4);
                d.assign(ProcId(0), VarId(0));
                d.assign(ProcId(1), VarId(1));
                for x in [2, 3] {
                    d.assign(ProcId(0), VarId(x));
                    d.assign(ProcId(1), VarId(x));
                }
                d
            }
        }
    }

    /// The simulator configuration (topology, delivery mode, channel seed).
    pub fn sim_config(&self, seed: u64) -> SimConfig {
        SimConfig {
            seed,
            topology: self.grid.then(|| Topology::grid_of(self.procs)),
            delivery: self.delivery,
            ..SimConfig::default()
        }
    }

    /// Timed rounds per protocol for a run of `seconds`, divided by
    /// `divisor` (10 for a traced run, 50 for a smoke run). A fixed
    /// operation count, not a deadline: the same on every commit, so count
    /// metrics and peak memory compare exactly.
    pub fn timed_rounds(&self, seconds: u64, divisor: u64) -> u64 {
        (self.rounds * seconds / REFERENCE_SECONDS / divisor).max(1)
    }
}

/// Warm-up rounds run before `timed` timed rounds: ten per cent extra.
pub fn warmup_rounds(timed: u64) -> u64 {
    timed.div_ceil(10)
}

/// One scripted application operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// Issuing process.
    pub proc: ProcId,
    /// Variable accessed.
    pub var: VarId,
    /// Write (`true`) or read.
    pub write: bool,
}

/// The process that issues every write to `var`.
pub fn writer_of(dist: &Distribution, var: VarId) -> ProcId {
    let replicas: Vec<ProcId> = dist.replicas_of(var).into_iter().collect();
    replicas[var.index() % replicas.len()]
}

/// A seeded operation script: one period of rounds that a run cycles
/// through. Round `r` issues `round(r)`, and its `i`-th operation, if a
/// write, writes [`Script::value`]`(r, i)` — globally unique and
/// increasing, so reads can be range-checked and the final replica values
/// are known in advance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Script {
    ops: Vec<Op>,
    ops_per_round: usize,
    vars: usize,
}

impl Script {
    /// Generate the script of `spec` over `dist` from `seed`. Every round
    /// holds exactly `write_pct` per cent writes at shuffled positions;
    /// writes are spread evenly over the variables and reads uniformly; a
    /// write is issued by the variable's single writer and a read by a
    /// uniformly chosen replica.
    pub fn generate(spec: &Spec, dist: &Distribution, seed: u64) -> Script {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xD5B_E7C4);
        let k = spec.ops_per_round;
        let period = (SCRIPT_OPS / k).max(1);
        let writers: Vec<ProcId> = (0..spec.vars).map(|x| writer_of(dist, VarId(x))).collect();
        let replicas: Vec<Vec<ProcId>> = (0..spec.vars)
            .map(|x| dist.replicas_of(VarId(x)).into_iter().collect())
            .collect();
        let writes_per_round = k * spec.write_pct / 100;
        let mut is_write: Vec<bool> = (0..k).map(|i| i < writes_per_round).collect();
        // Written variables are dealt from a deck that is reshuffled when it
        // runs out, so every variable is written equally often (within one)
        // over the script, and two seeds differ only in the order.
        let mut write_deck: Vec<usize> = Vec::new();
        let mut ops = Vec::with_capacity(period * k);
        for _ in 0..period {
            is_write.shuffle(&mut rng);
            for &write in &is_write {
                let x = if write {
                    if write_deck.is_empty() {
                        write_deck.extend(0..spec.vars);
                        write_deck.shuffle(&mut rng);
                    }
                    write_deck.pop().expect("just refilled")
                } else {
                    rng.gen_range(0..spec.vars)
                };
                let proc = if write {
                    writers[x]
                } else {
                    replicas[x][rng.gen_range(0..replicas[x].len())]
                };
                ops.push(Op {
                    proc,
                    var: VarId(x),
                    write,
                });
            }
        }
        Script {
            ops,
            ops_per_round: k,
            vars: spec.vars,
        }
    }

    /// Operations per round.
    pub fn ops_per_round(&self) -> usize {
        self.ops_per_round
    }

    /// Rounds in one period.
    pub fn period(&self) -> u64 {
        (self.ops.len() / self.ops_per_round) as u64
    }

    /// The operations of round `r`.
    pub fn round(&self, r: u64) -> &[Op] {
        let start = (r % self.period()) as usize * self.ops_per_round;
        &self.ops[start..start + self.ops_per_round]
    }

    /// The value the `i`-th operation of round `r` writes.
    pub fn value(&self, r: u64, i: usize) -> i64 {
        (r * self.ops_per_round as u64 + i as u64 + 1) as i64
    }

    /// The oracle: the last value written to each variable by rounds
    /// `0..rounds` (0 = never written), indexed by variable.
    pub fn last_values(&self, rounds: u64) -> Vec<i64> {
        let mut last = vec![0i64; self.vars];
        let mut missing = self.vars;
        // Walk backwards; one period covers every variable the script
        // ever writes.
        for r in (rounds.saturating_sub(self.period())..rounds).rev() {
            for (i, op) in self.round(r).iter().enumerate().rev() {
                if op.write && last[op.var.index()] == 0 {
                    last[op.var.index()] = self.value(r, i);
                    missing -= 1;
                }
            }
            if missing == 0 {
                break;
            }
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variable_has_a_single_writer_that_replicates_it() {
        for spec in &SPECS {
            let dist = spec.distribution();
            let script = Script::generate(spec, &dist, 3);
            let mut writer = vec![None; spec.vars];
            for r in 0..script.period() {
                for op in script.round(r) {
                    assert!(dist.replicates(op.proc, op.var), "{}: {op:?}", spec.name);
                    if op.write {
                        let w = writer[op.var.index()].get_or_insert(op.proc);
                        assert_eq!(*w, op.proc, "{}: two writers for {}", spec.name, op.var);
                        assert_eq!(op.proc, writer_of(&dist, op.var));
                    }
                }
            }
        }
    }

    #[test]
    fn write_share_is_exact_in_every_round() {
        for spec in &SPECS {
            let script = Script::generate(spec, &spec.distribution(), 9);
            for r in 0..script.period() {
                let writes = script.round(r).iter().filter(|op| op.write).count();
                assert_eq!(writes, spec.ops_per_round * spec.write_pct / 100);
            }
        }
    }

    #[test]
    fn every_variable_is_written_equally_often() {
        for spec in &SPECS {
            let script = Script::generate(spec, &spec.distribution(), 13);
            let mut writes = vec![0usize; spec.vars];
            for r in 0..script.period() {
                for op in script.round(r).iter().filter(|op| op.write) {
                    writes[op.var.index()] += 1;
                }
            }
            let (min, max) = (writes.iter().min().unwrap(), writes.iter().max().unwrap());
            assert!(max - min <= 1, "{}: {writes:?}", spec.name);
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_script() {
        let spec = &SPECS[0];
        let dist = spec.distribution();
        assert_eq!(dist, spec.distribution());
        assert_eq!(
            Script::generate(spec, &dist, 5),
            Script::generate(spec, &dist, 5)
        );
        assert_ne!(
            Script::generate(spec, &dist, 5),
            Script::generate(spec, &dist, 6)
        );
    }

    #[test]
    fn oracle_matches_a_forward_replay() {
        let spec = &SPECS[2];
        let script = Script::generate(spec, &spec.distribution(), 1);
        for rounds in [1, 7, script.period() + 3] {
            let mut last = vec![0i64; spec.vars];
            for r in 0..rounds {
                for (i, op) in script.round(r).iter().enumerate() {
                    if op.write {
                        last[op.var.index()] = script.value(r, i);
                    }
                }
            }
            assert_eq!(script.last_values(rounds), last, "{rounds} rounds");
        }
    }

    #[test]
    fn op_log_writers_are_sometimes_the_shard_owner_and_sometimes_not() {
        let spec = &SPECS[0];
        let dist = spec.distribution();
        let owner_writes = (0..spec.vars)
            .filter(|&x| {
                dist.replicas_of(VarId(x)).into_iter().next() == Some(writer_of(&dist, VarId(x)))
            })
            .count();
        assert!(owner_writes > 0 && owner_writes < spec.vars);
    }

    #[test]
    fn round_counts_scale_with_seconds_and_divisor() {
        let spec = &SPECS[0];
        assert_eq!(spec.timed_rounds(10, 1), 40_000);
        assert_eq!(spec.timed_rounds(5, 1), 20_000);
        assert_eq!(spec.timed_rounds(10, 10), 4_000);
        assert_eq!(spec.timed_rounds(10, 50), 800);
        assert_eq!(SPECS[1].timed_rounds(1, 50), 1);
        assert_eq!(warmup_rounds(400), 40);
        assert_eq!(warmup_rounds(1), 1);
    }
}
