//! The rule catalog.
//!
//! Each rule is a small struct implementing [`Rule`]: it inspects one
//! lexed [`SourceFile`] at a time and emits [`Diagnostic`]s. Rules are
//! deliberately stateless per file — cross-file invariants (layering,
//! wire accounting) are still expressible because each file carries its
//! crate name and repo-relative path.

use crate::diag::Diagnostic;
use crate::source::{FileKind, SourceFile};

mod crate_hygiene;
mod layering;
mod no_alloc_in_hot_path;
mod no_panic_in_delivery;
mod no_unordered_state;
mod no_unseeded_rng;
mod no_wall_clock;
mod wire_accounting;

pub use crate_hygiene::CrateHygiene;
pub use layering::Layering;
pub use no_alloc_in_hot_path::{NoAllocInHotPath, SYNC_PATH_FILE, SYNC_PATH_FNS};
pub use no_panic_in_delivery::{NoPanicInDelivery, DELIVERY_SCOPE};
pub use no_unordered_state::NoUnorderedState;
pub use no_unseeded_rng::NoUnseededRng;
pub use no_wall_clock::NoWallClock;
pub use wire_accounting::WireAccounting;

/// A scoped waiver baked into a rule: the invariant genuinely cannot
/// hold under these path prefixes, so the rule skips them entirely.
///
/// This is deliberately different from the allowlist. An allowlist entry
/// silences one diagnostic on one line (and goes stale when the line
/// moves); an exemption says the *rule does not apply* to a module, with
/// the reason carried in the rule itself and a mandatory `exempt.rs`
/// fixture pinning both sides of the boundary — the snippet must fire
/// under the rule's normal context and stay silent under the exempt
/// path. Growing the allowlist line-by-line for such a module would bury
/// the policy in dozens of entries that rot on every edit.
pub struct Exemption {
    /// Repo-relative path prefixes the rule skips (prefix match, so
    /// `crates/x/src/y` covers both `y.rs` and a `y/` directory).
    pub path_prefixes: &'static [&'static str],
    /// Why the invariant cannot hold there (shown by `--list`).
    pub why: &'static str,
}

/// A workspace invariant checked over lexed source files.
pub trait Rule {
    /// Stable kebab-case rule name (used in output and the allowlist).
    fn name(&self) -> &'static str;

    /// One-line description for `--list`.
    fn description(&self) -> &'static str;

    /// Check one file; return every violation found.
    fn check(&self, file: &SourceFile) -> Vec<Diagnostic>;

    /// The `(crate_name, rel_path, kind)` under which this rule's
    /// fixtures are lexed, chosen so the rule actually applies to them.
    fn fixture_context(&self) -> (&'static str, &'static str, FileKind);

    /// The context for one fixture file, by file name. Only a rule whose
    /// scope spans files it holds to different standards needs more than
    /// the one [`Rule::fixture_context`].
    fn fixture_context_for(&self, _case: &str) -> (&'static str, &'static str, FileKind) {
        self.fixture_context()
    }

    /// The rule's scoped waiver, if it has one (see [`Exemption`]).
    /// Rules with an exemption must ship an `exempt.rs` fixture; the
    /// fixture harness enforces both sides of the boundary.
    fn exemption(&self) -> Option<Exemption> {
        None
    }

    /// Whether `rel_path` falls under this rule's exemption. Rules call
    /// this first in `check` so the waiver applies identically in the
    /// workspace run, the fixture harness, and the `--rule` CLI mode.
    fn is_exempt_path(&self, rel_path: &str) -> bool {
        self.exemption()
            .map(|e| e.path_prefixes.iter().any(|p| rel_path.starts_with(p)))
            .unwrap_or(false)
    }
}

/// All rules, in the order they run and report.
pub fn catalog() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoWallClock),
        Box::new(NoUnseededRng),
        Box::new(NoUnorderedState),
        Box::new(Layering),
        Box::new(NoPanicInDelivery),
        Box::new(NoAllocInHotPath),
        Box::new(WireAccounting),
        Box::new(CrateHygiene),
    ]
}

/// Shared helper: emit a diagnostic for token index `i` in `file`.
pub(crate) fn diag_at(
    rule: &'static str,
    file: &SourceFile,
    tok_idx: usize,
    message: String,
) -> Diagnostic {
    let line = file.toks.get(tok_idx).map(|t| t.line).unwrap_or(1);
    Diagnostic {
        rule,
        path: file.rel_path.clone(),
        line,
        message,
        line_text: file.line_text(line).to_string(),
    }
}
