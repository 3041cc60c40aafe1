//! Pipelined dynamic programming over the DSM: longest common subsequence.
//!
//! Dynamic programming is the second family of applications Lipton &
//! Sandberg cite as solvable on a PRAM memory (paper §5): the DP table is
//! filled in a wavefront where each row has a single writer and each
//! process reads only the row written by its predecessor in the pipeline.
//! Process `i` computes rows `i, i + p, i + 2p, …` of the LCS table and the
//! reader of row `r` is always the owner of row `r + 1`, so the variable
//! distribution keeps every row on exactly two processes.

use crate::scenario::RunReport;
use dsm::{DsmError, DynDsm, ProtocolKind};
use histories::{Distribution, ProcId, VarId};
use simnet::SimConfig;

/// Sequential reference LCS length, which the tests hold the distributed
/// runs to.
#[cfg(test)]
fn lcs_reference(a: &[u8], b: &[u8]) -> i64 {
    let mut prev = vec![0i64; b.len() + 1];
    let mut cur = vec![0i64; b.len() + 1];
    for &ca in a {
        for (j, &cb) in b.iter().enumerate() {
            cur[j + 1] = if ca == cb {
                prev[j] + 1
            } else {
                prev[j + 1].max(cur[j])
            };
        }
        std::mem::swap(&mut prev, &mut cur);
        cur.fill(0);
    }
    prev[b.len()]
}

/// Variable id of DP cell `(row, col)` in a table with `cols` columns
/// (row 0 is the all-zero boundary row and is not shared).
fn cell_var(cols: usize, row: usize, col: usize) -> VarId {
    VarId((row - 1) * (cols + 1) + col)
}

/// Counter variable signalling that `row` is complete.
fn row_done_var(rows: usize, cols: usize, row: usize) -> VarId {
    VarId(rows * (cols + 1) + row - 1)
}

/// The distribution: row `r` (and its completion flag) lives on its writer
/// (process `(r-1) mod p`) and on the writer of row `r + 1`.
pub(crate) fn lcs_distribution(rows: usize, cols: usize, procs: usize) -> Distribution {
    let mut dist = Distribution::new(procs, rows * (cols + 1) + rows);
    for row in 1..=rows {
        let owner = ProcId((row - 1) % procs);
        let reader = if row < rows {
            Some(ProcId(row % procs))
        } else {
            None
        };
        for col in 0..=cols {
            dist.assign(owner, cell_var(cols, row, col));
            if let Some(r) = reader {
                dist.assign(r, cell_var(cols, row, col));
            }
        }
        dist.assign(owner, row_done_var(rows, cols, row));
        if let Some(r) = reader {
            dist.assign(r, row_done_var(rows, cols, row));
        }
    }
    dist
}

/// Run the distributed LCS of `a` and `b` over `procs` processes using the
/// protocol selected by `kind`, returning the LCS length and the run's
/// report. An empty input or zero processes is [`DsmError::InvalidConfig`].
pub fn run_lcs(
    kind: ProtocolKind,
    a: &[u8],
    b: &[u8],
    procs: usize,
    config: SimConfig,
) -> Result<(i64, RunReport), DsmError> {
    if procs == 0 || a.is_empty() || b.is_empty() {
        let reason = "the LCS needs at least one process and two non-empty inputs".to_string();
        return Err(DsmError::InvalidConfig { reason });
    }
    let rows = a.len();
    let cols = b.len();
    let dist = lcs_distribution(rows, cols, procs);
    let mut dsm = DynDsm::try_with_config(kind, dist, config)?;
    dsm.disable_recording();

    // Rows are processed in order; each row's owner reads the previous row
    // from its local replicas (delivered because the previous owner wrote
    // and settled before the flag was observed).
    let mut last = 0i64;
    for row in 1..=rows {
        let owner = ProcId((row - 1) % procs);
        if row > 1 {
            // Wait for the previous row (spin on the completion flag).
            let flag = row_done_var(rows, cols, row - 1);
            let mut guard = 0;
            while dsm.read(owner, flag)?.as_int() != Some(1) {
                dsm.try_settle()?;
                guard += 1;
                assert!(guard < 4, "previous row must become visible");
            }
        }
        for col in 0..=cols {
            let value = if col == 0 {
                0
            } else {
                // Row 0 is the all-zero boundary: never shared, never read.
                let mut cell = |row, col| match row {
                    0 => Ok(0),
                    _ => dsm.read(owner, cell_var(cols, row, col)).map(|v| {
                        v.as_int()
                            .expect("cells are read only after they are written")
                    }),
                };
                let up = cell(row - 1, col)?;
                let up_left = cell(row - 1, col - 1)?;
                let left = cell(row, col - 1)?;
                if a[row - 1] == b[col - 1] {
                    up_left + 1
                } else {
                    up.max(left)
                }
            };
            dsm.write(owner, cell_var(cols, row, col), value)?;
            if row == rows && col == cols {
                last = value;
            }
        }
        dsm.write(owner, row_done_var(rows, cols, row), 1)?;
        dsm.try_settle()?;
    }
    Ok((last, RunReport::of(&dsm, 0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_lcs_known_cases() {
        assert_eq!(lcs_reference(b"ABCBDAB", b"BDCABA"), 4);
        assert_eq!(lcs_reference(b"AAAA", b"AA"), 2);
        assert_eq!(lcs_reference(b"ABC", b"XYZ"), 0);
        assert_eq!(lcs_reference(b"X", b"X"), 1);
    }

    #[test]
    fn distributed_lcs_matches_reference() {
        let a = b"ABCBDABXY";
        let b = b"BDCABAYX";
        let (length, report) =
            run_lcs(ProtocolKind::PramPartial, a, b, 3, SimConfig::default()).unwrap();
        assert_eq!(length, lcs_reference(a, b));
        assert!(report.messages() > 0);
    }

    #[test]
    fn distributed_lcs_single_process() {
        let a = b"GATTACA";
        let b = b"TAGACCA";
        let (length, _) =
            run_lcs(ProtocolKind::PramPartial, a, b, 1, SimConfig::default()).unwrap();
        assert_eq!(length, lcs_reference(a, b));
    }

    #[test]
    fn pram_partial_beats_causal_partial_on_control_bytes() {
        let a = b"ABCBDABAB";
        let b = b"BDCABABAB";
        let run = |kind| run_lcs(kind, a, b, 4, SimConfig::default()).unwrap();
        let (pram, causal) = (
            run(ProtocolKind::PramPartial),
            run(ProtocolKind::CausalPartial),
        );
        assert_eq!(pram.0, causal.0);
        assert!(pram.1.control_bytes() < causal.1.control_bytes());
    }

    #[test]
    fn distribution_keeps_each_row_on_at_most_two_processes() {
        let d = lcs_distribution(6, 5, 3);
        for row in 1..=6 {
            for col in 0..=5 {
                let replicas = d.replicas_of(cell_var(5, row, col));
                assert!(replicas.len() <= 2, "row {row} col {col}: {replicas:?}");
                assert!(replicas.contains(&ProcId((row - 1) % 3)));
            }
        }
    }
}
