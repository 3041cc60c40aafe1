//! Blocked matrix product over the DSM — one of the *oblivious*
//! computations Lipton & Sandberg list as programmable on a PRAM memory
//! (paper §5, footnote 5): the data movement is independent of the data
//! values, every shared cell has a single writer, and readers only need
//! each writer's updates in program order.
//!
//! Layout: a *producer* process (`p0`) publishes the input matrices `A`
//! and `B` cell by cell and then raises a ready flag; `w` worker processes
//! each own a contiguous block of output rows, read the inputs they need,
//! and publish their block of `C = A·B`. Partial replication keeps each
//! worker's replica set to the inputs it actually reads plus its own output
//! block.

use crate::scenario::RunReport;
use dsm::{DsmError, DynDsm, ProtocolKind};
use histories::{Distribution, ProcId, Value, VarId};
use simnet::SimConfig;

/// A dense row-major matrix of `i64`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<i64>,
}

impl Matrix {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Build from a row-major vector (must have `rows * cols` entries):
    /// the tests' inputs.
    #[cfg(test)]
    fn from_vec(rows: usize, cols: usize, data: Vec<i64>) -> Self {
        assert_eq!(data.len(), rows * cols, "dimension mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Read entry `(i, j)`.
    pub(crate) fn get(&self, i: usize, j: usize) -> i64 {
        self.data[i * self.cols + j]
    }

    /// Write entry `(i, j)`.
    pub(crate) fn set(&mut self, i: usize, j: usize, v: i64) {
        self.data[i * self.cols + j] = v;
    }

    /// Sequential reference product, which the tests hold the distributed
    /// runs to.
    #[cfg(test)]
    fn multiply(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for j in 0..other.cols {
                let mut acc = 0i64;
                for k in 0..self.cols {
                    acc += self.get(i, k) * other.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }
}

/// Variable layout for an `n×n` product with `workers` workers: producer
/// variables are `A` cells, then `B` cells, then the ready flag, then `C`
/// cells.
struct Layout {
    n: usize,
}

impl Layout {
    fn a(&self, i: usize, j: usize) -> VarId {
        VarId(i * self.n + j)
    }
    fn b(&self, i: usize, j: usize) -> VarId {
        VarId(self.n * self.n + i * self.n + j)
    }
    fn ready(&self) -> VarId {
        VarId(2 * self.n * self.n)
    }
    fn c(&self, i: usize, j: usize) -> VarId {
        VarId(2 * self.n * self.n + 1 + i * self.n + j)
    }
}

fn worker_rows(n: usize, workers: usize, w: usize) -> std::ops::Range<usize> {
    let per = n.div_ceil(workers);
    let start = (w * per).min(n);
    let end = ((w + 1) * per).min(n);
    start..end
}

/// The variable distribution: the producer (process 0) replicates `A`, `B`
/// and the ready flag; worker `w` (process `w + 1`) additionally replicates
/// the rows of `A` it needs, all of `B`, the flag, and its block of `C`.
pub(crate) fn matrix_distribution(n: usize, workers: usize) -> Distribution {
    let layout = Layout { n };
    let mut dist = Distribution::new(workers + 1, 2 * n * n + 1 + n * n);
    let producer = ProcId(0);
    for i in 0..n {
        for j in 0..n {
            dist.assign(producer, layout.a(i, j));
            dist.assign(producer, layout.b(i, j));
        }
    }
    dist.assign(producer, layout.ready());
    for w in 0..workers {
        let p = ProcId(w + 1);
        dist.assign(p, layout.ready());
        for i in worker_rows(n, workers, w) {
            for j in 0..n {
                dist.assign(p, layout.a(i, j));
                dist.assign(p, layout.c(i, j));
            }
        }
        for i in 0..n {
            for j in 0..n {
                dist.assign(p, layout.b(i, j));
            }
        }
    }
    dist
}

/// Run the distributed product of `a` and `b` (both `n×n`) with `workers`
/// worker processes over the protocol selected by `kind`, returning the
/// product and the run's report. Matrices that are not square and of one
/// size, or zero workers, are [`DsmError::InvalidConfig`].
pub fn run_matrix_product(
    kind: ProtocolKind,
    a: &Matrix,
    b: &Matrix,
    workers: usize,
    config: SimConfig,
) -> Result<(Matrix, RunReport), DsmError> {
    let n = a.rows();
    if [a.cols(), b.rows(), b.cols()] != [n; 3] || workers == 0 {
        let reason = "the matrix product needs two n×n matrices and a worker".to_string();
        return Err(DsmError::InvalidConfig { reason });
    }
    let layout = Layout { n };
    let dist = matrix_distribution(n, workers);
    let mut dsm = DynDsm::try_with_config(kind, dist, config)?;
    dsm.disable_recording();
    let producer = ProcId(0);

    // Producer publishes the inputs in program order, then the flag.
    for i in 0..n {
        for j in 0..n {
            dsm.write(producer, layout.a(i, j), a.get(i, j))?;
            dsm.write(producer, layout.b(i, j), b.get(i, j))?;
        }
    }
    dsm.write(producer, layout.ready(), 1)?;
    dsm.try_settle()?;

    // Each worker observes the flag (PRAM: it then also holds every earlier
    // write of the producer), computes its block and publishes it.
    let mut product = Matrix::zeros(n, n);
    for w in 0..workers {
        let p = ProcId(w + 1);
        let flag = dsm.read(p, layout.ready())?;
        assert_eq!(flag, Value::Int(1), "flag must be visible after settle");
        for i in worker_rows(n, workers, w) {
            for j in 0..n {
                let mut acc = 0i64;
                for k in 0..n {
                    let input = "the producer's inputs are visible with its flag";
                    let aik = dsm.read(p, layout.a(i, k))?.as_int().expect(input);
                    let bkj = dsm.read(p, layout.b(k, j))?.as_int().expect(input);
                    acc += aik * bkj;
                }
                dsm.write(p, layout.c(i, j), acc)?;
                product.set(i, j, acc);
            }
        }
    }
    dsm.try_settle()?;
    Ok((product, RunReport::of(&dsm, 0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// `a·b` with `workers` workers under `kind` on the default network.
    fn multiply(kind: ProtocolKind, a: &Matrix, b: &Matrix, workers: usize) -> (Matrix, RunReport) {
        run_matrix_product(kind, a, b, workers, SimConfig::default()).unwrap()
    }

    fn random_matrix(n: usize, seed: u64) -> Matrix {
        let mut rng = SmallRng::seed_from_u64(seed);
        Matrix::from_vec(n, n, (0..n * n).map(|_| rng.gen_range(-9..=9)).collect())
    }

    #[test]
    fn sequential_reference_multiply() {
        let a = Matrix::from_vec(2, 2, vec![1, 2, 3, 4]);
        let b = Matrix::from_vec(2, 2, vec![5, 6, 7, 8]);
        let c = a.multiply(&b);
        assert_eq!(c, Matrix::from_vec(2, 2, vec![19, 22, 43, 50]));
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
    }

    #[test]
    fn distributed_product_matches_reference_on_pram_partial() {
        let a = random_matrix(5, 1);
        let b = random_matrix(5, 2);
        let (product, report) = multiply(ProtocolKind::PramPartial, &a, &b, 3);
        assert_eq!(product, a.multiply(&b));
        assert!(report.messages() > 0);
        assert!(report.operations > 0);
    }

    #[test]
    fn distributed_product_matches_reference_on_causal_full() {
        let a = random_matrix(4, 3);
        let b = random_matrix(4, 4);
        let (product, _) = multiply(ProtocolKind::CausalFull, &a, &b, 2);
        assert_eq!(product, a.multiply(&b));
    }

    #[test]
    fn single_worker_and_many_workers_agree() {
        let a = random_matrix(6, 5);
        let b = random_matrix(6, 6);
        let one = multiply(ProtocolKind::PramPartial, &a, &b, 1);
        let many = multiply(ProtocolKind::PramPartial, &a, &b, 6);
        assert_eq!(one.0, many.0);
    }

    #[test]
    fn partial_replication_cuts_control_bytes() {
        let a = random_matrix(6, 7);
        let b = random_matrix(6, 8);
        let pram = multiply(ProtocolKind::PramPartial, &a, &b, 3)
            .1
            .control_bytes();
        let full = multiply(ProtocolKind::CausalFull, &a, &b, 3)
            .1
            .control_bytes();
        assert!(pram < full, "pram {pram} vs causal-full {full}");
    }

    #[test]
    fn worker_row_partition_covers_all_rows_without_overlap() {
        for n in [1, 4, 7, 10] {
            for workers in [1, 2, 3, 5] {
                let mut seen = vec![false; n];
                for w in 0..workers {
                    for i in worker_rows(n, workers, w) {
                        assert!(!seen[i]);
                        seen[i] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "n={n} workers={workers}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dimensions_are_rejected() {
        Matrix::from_vec(2, 2, vec![1, 2, 3]);
    }
}
