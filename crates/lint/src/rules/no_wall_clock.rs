//! `no-wall-clock`: library code must run on virtual time only.
//!
//! `std::time::Instant` / `SystemTime` reads leak host-machine timing
//! into what must be a fully deterministic simulation; all timing flows
//! through `simnet::SimTime`. Tests and examples are exempt, but
//! first-party lib and bin code is not; where a report deliberately
//! times the host (the `bench` crate's E8 and E9 sweeps), the allowlist
//! names the line and says why.
//!
//! One scoped exemption: the threaded execution backend hosts nodes on
//! real OS threads, where virtual time has no meaning across preemptive
//! scheduling — its stall watchdogs must read host time to bound
//! waiting. All of that reading is quarantined in one module,
//! `crates/simnet/src/threaded/clock.rs`, and only that module is
//! exempt: the rest of the backend (fabric, workers, transport) uses the
//! `Watchdog` it exports and stays lint-clean. Protocol-visible timing
//! still flows through the replayed simnet schedule, which is what the
//! differential tests pin.

use super::{diag_at, Exemption, Rule};
use crate::diag::Diagnostic;
use crate::source::{FileKind, SourceFile};

/// See module docs.
pub struct NoWallClock;

impl Rule for NoWallClock {
    fn name(&self) -> &'static str {
        "no-wall-clock"
    }

    fn description(&self) -> &'static str {
        "ban std::time::Instant/SystemTime in lib code; virtual SimTime only"
    }

    fn check(&self, file: &SourceFile) -> Vec<Diagnostic> {
        if !matches!(file.kind, FileKind::Lib | FileKind::Bin) {
            return Vec::new();
        }
        if self.is_exempt_path(&file.rel_path) {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (i, t) in file.toks.iter().enumerate() {
            if file.in_test[i] {
                continue;
            }
            if t.is_ident("Instant") || t.is_ident("SystemTime") {
                out.push(diag_at(
                    self.name(),
                    file,
                    i,
                    format!(
                        "wall-clock type `{}` in {} code; simulation timing must use virtual SimTime",
                        t.text,
                        kind_word(file.kind)
                    ),
                ));
            }
        }
        out
    }

    fn fixture_context(&self) -> (&'static str, &'static str, FileKind) {
        ("simnet", "crates/simnet/src/fixture.rs", FileKind::Lib)
    }

    fn exemption(&self) -> Option<Exemption> {
        Some(Exemption {
            path_prefixes: &["crates/simnet/src/threaded/clock"],
            why: "the threaded backend's clock module is the one place allowed to read \
                  host time: real OS threads have no virtual-time equivalent across \
                  preemptive scheduling, so its `Watchdog` bounds stall waits in wall \
                  time. Everything else in the backend uses that wrapper and stays \
                  under the lint (protocol-visible ordering is pinned to the simnet \
                  schedule by the replay differential tests instead)",
        })
    }
}

fn kind_word(kind: FileKind) -> &'static str {
    match kind {
        FileKind::Lib => "library",
        FileKind::Bin => "binary",
        FileKind::Test => "test",
        FileKind::Example => "example",
    }
}
