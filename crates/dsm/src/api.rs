//! Public API types: protocol identifiers and errors.

use histories::{Criterion, ProcId, VarId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The Memory Consistency System protocols provided by this crate.
///
/// Every protocol issues *logical* sends — "this payload to these
/// processes" — and the [`simnet::Transport`] underneath decides how they
/// travel: direct links on a full mesh, BFS shortest-path relays on any
/// sparse connected topology ([`simnet::RoutingMode`]), and, under a
/// multicast [`simnet::DeliveryMode`], one envelope per broadcast-tree
/// edge for identical-payload fan-outs. No protocol below ever names a
/// physical link, so every variant here runs unmodified on every
/// topology and delivery mode the runtime supports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// Causal consistency with **full replication**: every node replicates
    /// every variable; each update carries the writer's vector clock and
    /// fans out to all other nodes in one multi-destination send (the
    /// classical Ahamad et al. style implementation; a multicast wire
    /// carries one copy per broadcast-tree edge).
    CausalFull,
    /// Causal consistency with **partial replication**: data updates fan
    /// out only to the replicas of the written variable, but — as the
    /// paper proves unavoidable — a dependency control record about every
    /// write still reaches every other node. Under a batching
    /// [`simnet::DeliveryMode`] those records are buffered per
    /// destination, piggybacked on the next update, and flushed in
    /// delta-encoded batches.
    CausalPartial,
    /// PRAM consistency with **partial replication**: per-writer FIFO
    /// sequence numbers, updates fanned out only to the replicas of the
    /// written variable. The efficient implementation Theorem 2 licenses —
    /// no metadata about `x` ever leaves `C(x)`, whatever the transport.
    PramPartial,
    /// Sequential consistency baseline: writers route requests to a
    /// sequencer (node 0), which totally orders all writes and fans the
    /// ordered stream out to every node (full replication). On a sparse
    /// topology both legs are relayed like any other logical send.
    Sequential,
    /// Shared operation log with **partial replication**: each variable
    /// shard is sequenced by its smallest-id replica (a flat-combining
    /// append/echo lane per writer), and the writer replays the
    /// sequenced entries to the shard's replicas in its own program
    /// order — replicas subscribe only to the log prefix touching their
    /// variables.
    OpLog,
}

impl ProtocolKind {
    /// All protocols, in the order used by benchmark tables (cheapest
    /// control cost first, per the paper's prediction).
    pub const ALL: [ProtocolKind; 5] = [
        ProtocolKind::PramPartial,
        ProtocolKind::CausalPartial,
        ProtocolKind::CausalFull,
        ProtocolKind::Sequential,
        ProtocolKind::OpLog,
    ];

    /// Short display name used in benchmark output.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::CausalFull => "causal-full",
            ProtocolKind::CausalPartial => "causal-partial",
            ProtocolKind::PramPartial => "pram-partial",
            ProtocolKind::Sequential => "sequential",
            ProtocolKind::OpLog => "op-log",
        }
    }

    /// Parse a [`ProtocolKind::name`] back into a kind.
    pub fn parse(name: &str) -> Option<ProtocolKind> {
        ProtocolKind::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Whether the protocol replicates every variable everywhere.
    pub fn is_fully_replicated(self) -> bool {
        matches!(self, ProtocolKind::CausalFull | ProtocolKind::Sequential)
    }

    /// The consistency criterion the protocol **always** guarantees: the
    /// strongest criterion of the paper's hierarchy its recorded
    /// histories satisfy on every workload, synchronized or not.
    ///
    /// Note the write-ordering protocols ([`ProtocolKind::Sequential`],
    /// [`ProtocolKind::OpLog`]): they totally order all *writes* (per
    /// system or per shard), but reads are wait-free against the local
    /// replica (like every protocol in this crate), so two processes may
    /// each read `⊥` for the other's in-flight write — a history no
    /// total order explains. Their always-guaranteed criterion is
    /// therefore PRAM; see [`ProtocolKind::settled_criterion`] for what
    /// the write order buys on settle-synchronized workloads.
    pub fn guaranteed_criterion(self) -> Criterion {
        match self {
            ProtocolKind::CausalFull | ProtocolKind::CausalPartial => Criterion::Causal,
            ProtocolKind::PramPartial | ProtocolKind::Sequential | ProtocolKind::OpLog => {
                Criterion::Pram
            }
        }
    }

    /// The consistency criterion the protocol reaches on
    /// **settle-synchronized** workloads (every operation separated from
    /// conflicting ones by a settle point, so no read races an in-flight
    /// write). The write-ordering protocols are sequentially consistent
    /// there: with the wait-free-read races gone, the total write order
    /// explains every history. The other protocols gain nothing from
    /// settling and keep their guaranteed criterion.
    pub fn settled_criterion(self) -> Criterion {
        match self {
            ProtocolKind::CausalFull | ProtocolKind::CausalPartial => Criterion::Causal,
            ProtocolKind::PramPartial => Criterion::Pram,
            ProtocolKind::Sequential | ProtocolKind::OpLog => Criterion::Sequential,
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors returned by the DSM runtime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DsmError {
    /// The application process tried to access a variable its MCS process
    /// does not replicate (only possible under partial replication).
    NotReplicated {
        /// The process that issued the access.
        proc: ProcId,
        /// The variable it tried to access.
        var: VarId,
    },
    /// A process id outside the configured system was used.
    UnknownProcess {
        /// The offending process id.
        proc: ProcId,
    },
    /// The process is crashed: it can issue no operations until it is
    /// restarted from its persisted snapshot (and a crash/restart call
    /// was itself invalid — crashing a crashed process, restarting a
    /// live one).
    Crashed {
        /// The crashed (or not-crashed, for an invalid restart) process.
        proc: ProcId,
    },
    /// The simulated network could not carry a message the operation
    /// produced (for example a direct send between non-neighbours on a
    /// sparse topology with routing disabled).
    Network(simnet::SendError),
    /// The deployment configuration was rejected at construction: a
    /// topology/distribution size mismatch, a disconnected topology under
    /// routing, or a fault plan whose scheduled crash windows would
    /// bypass DSM recovery.
    InvalidConfig {
        /// Human-readable reason the configuration was rejected.
        reason: String,
    },
    /// A worker thread of the threaded backend died (its node's handler
    /// panicked). The system is poisoned: every subsequent fallible
    /// operation reports the same dead worker.
    WorkerDied {
        /// The process whose worker thread died.
        proc: ProcId,
    },
    /// The operation (or configuration) is not available on the selected
    /// execution backend — for example crash/restart or fault plans on
    /// [`simnet::ExecBackend::Threaded`], which supports every delivery
    /// mode and topology but only fault-free runs for now.
    Unsupported {
        /// Human-readable description of the unsupported combination.
        reason: String,
    },
    /// The replica image handed to a restore was taken before the latest
    /// recovery-log cut: the peers have since dropped the entries its
    /// catch-up would ask for, so restoring it would leave the replica
    /// silently behind. Take a fresh image instead.
    StaleImage {
        /// The process the image was to be restored into.
        proc: ProcId,
        /// Cuts taken when the image was.
        image_cuts: u64,
        /// Cuts taken by now.
        system_cuts: u64,
    },
}

impl fmt::Display for DsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DsmError::NotReplicated { proc, var } => {
                write!(f, "process {proc} does not replicate variable {var}")
            }
            DsmError::UnknownProcess { proc } => write!(f, "unknown process {proc}"),
            DsmError::Crashed { proc } => {
                write!(
                    f,
                    "process {proc} crash/restart state does not allow this operation"
                )
            }
            DsmError::Network(e) => e.fmt(f),
            DsmError::WorkerDied { proc } => {
                write!(f, "worker thread for process {proc} died (handler panic)")
            }
            DsmError::InvalidConfig { reason } => f.write_str(reason),
            DsmError::Unsupported { reason } => {
                write!(f, "unsupported on this execution backend: {reason}")
            }
            DsmError::StaleImage {
                proc,
                image_cuts,
                system_cuts,
            } => write!(
                f,
                "stale replica image for process {proc}: taken at recovery-log cut \
                 {image_cuts}, the system is at cut {system_cuts} and its peers can no \
                 longer serve the catch-up"
            ),
        }
    }
}

impl std::error::Error for DsmError {}

impl From<simnet::SendError> for DsmError {
    fn from(e: simnet::SendError) -> Self {
        DsmError::Network(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_names_are_unique() {
        let names: std::collections::BTreeSet<&str> =
            ProtocolKind::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), ProtocolKind::ALL.len());
        assert_eq!(ProtocolKind::PramPartial.to_string(), "pram-partial");
    }

    #[test]
    fn names_round_trip_through_parse() {
        for kind in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(ProtocolKind::parse("nonsense"), None);
    }

    #[test]
    fn advertised_criteria() {
        assert_eq!(
            ProtocolKind::CausalFull.guaranteed_criterion(),
            Criterion::Causal
        );
        assert_eq!(
            ProtocolKind::CausalPartial.guaranteed_criterion(),
            Criterion::Causal
        );
        assert_eq!(
            ProtocolKind::PramPartial.guaranteed_criterion(),
            Criterion::Pram
        );
        // Wait-free local reads cap the write-ordering protocols'
        // *guaranteed* criterion at PRAM (see `guaranteed_criterion()`'s
        // doc); the total write order upgrades them to sequential
        // consistency at settle points.
        assert_eq!(
            ProtocolKind::Sequential.guaranteed_criterion(),
            Criterion::Pram
        );
        assert_eq!(ProtocolKind::OpLog.guaranteed_criterion(), Criterion::Pram);
        assert_eq!(
            ProtocolKind::Sequential.settled_criterion(),
            Criterion::Sequential
        );
        assert_eq!(
            ProtocolKind::OpLog.settled_criterion(),
            Criterion::Sequential
        );
        // Settling never weakens: the settled criterion is at least as
        // strong as the guaranteed one for every protocol.
        for kind in ProtocolKind::ALL {
            assert!(kind.settled_criterion() <= kind.guaranteed_criterion());
        }
    }

    #[test]
    fn replication_classification() {
        assert!(ProtocolKind::CausalFull.is_fully_replicated());
        assert!(ProtocolKind::Sequential.is_fully_replicated());
        assert!(!ProtocolKind::CausalPartial.is_fully_replicated());
        assert!(!ProtocolKind::PramPartial.is_fully_replicated());
        // The op-log subscribes replicas only to their own shard prefixes.
        assert!(!ProtocolKind::OpLog.is_fully_replicated());
    }

    #[test]
    fn error_messages_mention_ids() {
        let e = DsmError::NotReplicated {
            proc: ProcId(2),
            var: VarId(7),
        };
        assert!(e.to_string().contains("p2"));
        assert!(e.to_string().contains("x7"));
        let u = DsmError::UnknownProcess { proc: ProcId(9) };
        assert!(u.to_string().contains("p9"));
        let s = DsmError::StaleImage {
            proc: ProcId(3),
            image_cuts: 4,
            system_cuts: 6,
        };
        assert!(s.to_string().contains("p3"));
        assert!(s.to_string().contains("cut 4") && s.to_string().contains("cut 6"));
    }

    #[test]
    fn unsupported_error_names_the_backend() {
        let e = DsmError::Unsupported {
            reason: "crash/restart on the threaded backend".to_string(),
        };
        assert!(e.to_string().contains("execution backend"));
        assert!(e.to_string().contains("crash/restart"));
    }
}
