//! Asynchronous iterative fixed-point computation (Jacobi-style) over the
//! DSM.
//!
//! The paper (§5) cites Sinha's observation that *totally asynchronous
//! iterative methods* converge even on memories weaker than PRAM. This
//! module solves a diagonally dominant linear system `x = M·x + b` by
//! fixed-point iteration in which each process owns one component of `x`,
//! publishes it through the shared memory, and reads its neighbours'
//! components from whatever (possibly stale) values its local replicas
//! hold. Because the iteration map is a contraction, convergence tolerates
//! the staleness — this is the workload that stresses *weak* consistency
//! rather than ordering.
//!
//! Values are fixed-point scaled integers (scale 1e6) so the shared
//! variables stay `i64` like everything else in the DSM.

use crate::scenario::RunReport;
use dsm::{DsmError, DynDsm, ProtocolKind};
use histories::{Distribution, ProcId, VarId};
use simnet::SimConfig;

/// Fixed-point scale for representing reals in shared `i64` variables.
pub(crate) const SCALE: i64 = 1_000_000;

/// A fixed-point iteration problem `x = M·x + b` with `‖M‖∞ < 1`.
#[derive(Clone, Debug, PartialEq)]
pub struct FixedPointProblem {
    /// Row-major iteration matrix `M` (n×n).
    pub m: Vec<f64>,
    /// The constant vector `b`.
    pub b: Vec<f64>,
}

impl FixedPointProblem {
    /// Number of unknowns.
    pub(crate) fn size(&self) -> usize {
        self.b.len()
    }

    /// Build a well-conditioned random problem: off-diagonal coefficients
    /// sum to at most `contraction < 1` per row.
    pub fn random(n: usize, contraction: f64, seed: u64) -> Self {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        assert!(n >= 1 && contraction > 0.0 && contraction < 1.0);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut m = vec![0.0; n * n];
        for i in 0..n {
            let mut weights: Vec<f64> = (0..n)
                .map(|j| if i == j { 0.0 } else { rng.gen_range(0.0..1.0) })
                .collect();
            let sum: f64 = weights.iter().sum();
            if sum > 0.0 {
                for w in &mut weights {
                    *w = *w / sum * contraction;
                }
            }
            for j in 0..n {
                m[i * n + j] = weights[j];
            }
        }
        let b = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        FixedPointProblem { m, b }
    }

    /// Sequential reference solution by synchronous iteration to
    /// tolerance, which the tests hold the distributed runs to.
    #[cfg(test)]
    fn reference_solution(&self, tolerance: f64, max_iters: usize) -> Vec<f64> {
        let n = self.size();
        let mut x = vec![0.0; n];
        for _ in 0..max_iters {
            let mut next = vec![0.0; n];
            for (i, next_i) in next.iter_mut().enumerate() {
                let mut acc = self.b[i];
                for (j, x_j) in x.iter().enumerate() {
                    acc += self.m[i * n + j] * x_j;
                }
                *next_i = acc;
            }
            let delta = x
                .iter()
                .zip(&next)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            x = next;
            if delta < tolerance {
                break;
            }
        }
        x
    }
}

/// Result of a distributed fixed-point run.
#[derive(Clone, Debug)]
pub struct JacobiRun {
    /// The computed solution (un-scaled back to `f64`).
    pub solution: Vec<f64>,
    /// Rounds of asynchronous iteration executed.
    pub rounds: usize,
    /// Whether the tolerance was reached.
    pub converged: bool,
    /// What the run cost: messages, bytes and operations.
    pub report: RunReport,
}

/// The distribution: component `x_j` is replicated on its owner `p_j` and
/// on every process `p_i` whose row has a non-zero coefficient `M[i][j]`.
pub(crate) fn jacobi_distribution(problem: &FixedPointProblem) -> Distribution {
    let n = problem.size();
    let mut dist = Distribution::new(n, n);
    for i in 0..n {
        dist.assign(ProcId(i), VarId(i));
        for j in 0..n {
            if problem.m[i * n + j] != 0.0 {
                dist.assign(ProcId(i), VarId(j));
            }
        }
    }
    dist
}

/// Run the asynchronous fixed-point iteration over the protocol selected
/// by `kind`.
///
/// `settle_every` controls how much staleness the run tolerates: in-flight
/// updates are only delivered every that-many rounds, so larger values mean
/// processes iterate on older neighbour values (the totally-asynchronous
/// regime). Convergence is declared when every component moves by less than
/// `tolerance` in a round *after* a full delivery. A `settle_every` of 0
/// is [`DsmError::InvalidConfig`].
pub fn run_jacobi(
    kind: ProtocolKind,
    problem: &FixedPointProblem,
    tolerance: f64,
    max_rounds: usize,
    settle_every: usize,
    config: SimConfig,
) -> Result<JacobiRun, DsmError> {
    let n = problem.size();
    if settle_every == 0 {
        let reason = "settle_every must be at least 1".to_string();
        return Err(DsmError::InvalidConfig { reason });
    }
    let dist = jacobi_distribution(problem);
    let mut dsm = DynDsm::try_with_config(kind, dist, config)?;
    dsm.disable_recording();

    // Initial estimates: 0.
    for i in 0..n {
        dsm.write(ProcId(i), VarId(i), 0)?;
    }
    dsm.try_settle()?;

    let mut current = vec![0.0f64; n];
    let mut rounds = 0;
    let mut converged = false;
    while rounds < max_rounds {
        rounds += 1;
        // Convergence may only be declared on rounds that consumed freshly
        // delivered neighbour values; otherwise a process iterating on
        // frozen inputs reaches a spurious local fixed point immediately.
        let fresh_inputs = rounds == 1 || (rounds - 1) % settle_every == 0;
        let mut max_delta: f64 = 0.0;
        for (i, current_i) in current.iter_mut().enumerate() {
            let mut acc = problem.b[i];
            for j in 0..n {
                let coeff = problem.m[i * n + j];
                if coeff != 0.0 {
                    let raw = dsm.read(ProcId(i), VarId(j))?.as_int().unwrap_or(0);
                    acc += coeff * (raw as f64 / SCALE as f64);
                }
            }
            max_delta = max_delta.max((acc - *current_i).abs());
            *current_i = acc;
            dsm.write(ProcId(i), VarId(i), (acc * SCALE as f64) as i64)?;
        }
        if rounds % settle_every == 0 {
            dsm.try_settle()?;
        }
        if fresh_inputs && max_delta < tolerance {
            converged = true;
            break;
        }
    }
    dsm.try_settle()?;
    Ok(JacobiRun {
        solution: current,
        rounds,
        converged,
        report: RunReport::of(&dsm, 0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Solve `p` to 1e-7 under `kind` on the default network.
    fn solve(
        kind: ProtocolKind,
        p: &FixedPointProblem,
        max_rounds: usize,
        settle_every: usize,
    ) -> JacobiRun {
        run_jacobi(
            kind,
            p,
            1e-7,
            max_rounds,
            settle_every,
            SimConfig::default(),
        )
        .unwrap()
    }

    fn close(a: &[f64], b: &[f64], eps: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < eps)
    }

    #[test]
    fn reference_solution_solves_the_fixed_point() {
        let p = FixedPointProblem::random(5, 0.5, 1);
        let x = p.reference_solution(1e-9, 500);
        // Check residual: x ≈ Mx + b.
        for i in 0..5 {
            let mut acc = p.b[i];
            for (j, x_j) in x.iter().enumerate() {
                acc += p.m[i * 5 + j] * x_j;
            }
            assert!((acc - x[i]).abs() < 1e-6, "component {i}");
        }
    }

    #[test]
    fn distributed_jacobi_converges_to_the_reference() {
        let p = FixedPointProblem::random(6, 0.5, 2);
        let reference = p.reference_solution(1e-9, 500);
        let run = solve(ProtocolKind::PramPartial, &p, 400, 1);
        assert!(run.converged, "should converge within the round budget");
        assert!(close(&run.solution, &reference, 1e-3));
        assert!(run.report.messages() > 0);
    }

    #[test]
    fn staleness_slows_but_does_not_break_convergence() {
        let p = FixedPointProblem::random(5, 0.4, 3);
        let reference = p.reference_solution(1e-9, 500);
        let fresh = solve(ProtocolKind::PramPartial, &p, 600, 1);
        let stale = solve(ProtocolKind::PramPartial, &p, 600, 4);
        assert!(fresh.converged && stale.converged);
        assert!(close(&stale.solution, &reference, 1e-3));
        assert!(stale.rounds >= fresh.rounds);
    }

    #[test]
    fn causal_full_and_pram_partial_agree() {
        let p = FixedPointProblem::random(4, 0.5, 4);
        let a = solve(ProtocolKind::PramPartial, &p, 400, 1);
        let b = solve(ProtocolKind::CausalFull, &p, 400, 1);
        assert!(a.converged && b.converged);
        assert!(close(&a.solution, &b.solution, 1e-3));
    }

    #[test]
    fn distribution_covers_rows_with_nonzero_coefficients() {
        let p = FixedPointProblem::random(5, 0.5, 5);
        let d = jacobi_distribution(&p);
        for i in 0..5 {
            assert!(d.replicates(ProcId(i), VarId(i)));
            for j in 0..5 {
                if p.m[i * 5 + j] != 0.0 {
                    assert!(d.replicates(ProcId(i), VarId(j)));
                }
            }
        }
    }
}
