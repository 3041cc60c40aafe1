//! `no-unseeded-rng`: all randomness must derive from scenario seeds.
//!
//! `thread_rng()` and `SeedableRng::from_entropy()` pull entropy from
//! the OS, which breaks bit-for-bit reproducibility of sweeps and the
//! differential oracles. Every RNG in the workspace must be constructed
//! from an explicit seed carried by the scenario or fault plan. Unlike
//! `no-wall-clock`, this rule also covers integration tests and examples
//! (everything outside `#[cfg(test)]` items): the differential suites
//! and `BENCH_baseline.json` (regenerated and diffed under a 2% gate)
//! need reproducible inputs too.

use super::{diag_at, Rule};
use crate::diag::Diagnostic;
use crate::source::{FileKind, SourceFile};

/// See module docs.
pub struct NoUnseededRng;

impl Rule for NoUnseededRng {
    fn name(&self) -> &'static str {
        "no-unseeded-rng"
    }

    fn description(&self) -> &'static str {
        "ban thread_rng/from_entropy; randomness must come from scenario seeds"
    }

    fn check(&self, file: &SourceFile) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (i, t) in file.toks.iter().enumerate() {
            if file.in_test[i] {
                continue;
            }
            if t.is_ident("thread_rng") || t.is_ident("from_entropy") {
                out.push(diag_at(
                    self.name(),
                    file,
                    i,
                    format!(
                        "OS-entropy RNG `{}`; construct RNGs from explicit scenario/fault-plan seeds",
                        t.text
                    ),
                ));
            }
        }
        out
    }

    fn fixture_context(&self) -> (&'static str, &'static str, FileKind) {
        ("simnet", "crates/simnet/src/fixture.rs", FileKind::Lib)
    }
}
