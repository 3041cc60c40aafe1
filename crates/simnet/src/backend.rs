//! Execution-backend selection: discrete-event simulation vs real threads.
//!
//! Every experiment in this repository was originally driven by the
//! single-threaded discrete-event [`Simulator`](crate::sim::Simulator):
//! virtual time, deterministic tie-breaking, bit-identical reruns. That is
//! the right substrate for *wire accounting* (the paper's efficiency
//! argument is about control bytes, which wall-clock cannot perturb), but
//! it says nothing about how the protocols behave on real cores.
//!
//! [`ExecBackend`] names the two substrates a DSM runtime can execute on:
//!
//! * [`ExecBackend::Simnet`] — the discrete-event simulator. Virtual
//!   time, full fault/topology/routing support, deterministic.
//! * [`ExecBackend::Threaded`] — one OS thread per process, linked by
//!   the inbox fabric of [`chan`](crate::chan), with one lock per
//!   site (see [`threaded`](crate::threaded)). Two sub-modes:
//!   * [`ThreadedMode::Replay`] — an embedded simnet oracle decides the
//!     delivery order and the threads replay it step by step, so the run
//!     is differential-testable against pure simnet (same settled values,
//!     same histories, same control-record counts).
//!   * [`ThreadedMode::FreeRunning`] — no oracle; messages are handled in
//!     real arrival order for wall-clock throughput measurement. Settled
//!     values still converge on race-free workloads, but message
//!     interleaving (and therefore per-link statistics) is
//!     nondeterministic.

use serde::{Deserialize, Serialize};
use std::fmt;

/// How the threaded backend schedules message handling.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ThreadedMode {
    /// Replay the embedded simnet oracle's delivery order on real
    /// threads: deterministic, differential-testable against simnet.
    Replay,
    /// Handle messages in real arrival order: nondeterministic
    /// interleaving, real throughput.
    FreeRunning,
}

impl ThreadedMode {
    /// Stable label used in scenario labels and CLI flags.
    pub(crate) fn label(self) -> &'static str {
        match self {
            ThreadedMode::Replay => "threaded-replay",
            ThreadedMode::FreeRunning => "threaded-free",
        }
    }
}

/// Which execution substrate a DSM runtime drives its protocol nodes on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecBackend {
    /// The deterministic discrete-event simulator (the default).
    #[default]
    Simnet,
    /// One OS thread per process over the inbox fabric, one lock per
    /// site.
    Threaded(ThreadedMode),
}

impl ExecBackend {
    /// Every backend, in a stable order (useful for sweeps).
    pub const ALL: [ExecBackend; 3] = [
        ExecBackend::Simnet,
        ExecBackend::Threaded(ThreadedMode::Replay),
        ExecBackend::Threaded(ThreadedMode::FreeRunning),
    ];

    /// Stable label used in scenario labels and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            ExecBackend::Simnet => "simnet",
            ExecBackend::Threaded(mode) => mode.label(),
        }
    }

    /// Whether this backend runs protocol nodes on real OS threads.
    pub fn is_threaded(self) -> bool {
        matches!(self, ExecBackend::Threaded(_))
    }
}

impl fmt::Display for ExecBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        // Distinct labels: each names exactly one backend.
        let labels: std::collections::BTreeSet<_> =
            ExecBackend::ALL.iter().map(|b| b.label()).collect();
        assert_eq!(labels.len(), ExecBackend::ALL.len());
    }

    #[test]
    fn default_is_simnet() {
        assert_eq!(ExecBackend::default(), ExecBackend::Simnet);
        assert!(!ExecBackend::Simnet.is_threaded());
        assert!(ExecBackend::Threaded(ThreadedMode::Replay).is_threaded());
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(
            format!("{}", ExecBackend::Threaded(ThreadedMode::FreeRunning)),
            "threaded-free"
        );
    }
}
