//! `no-alloc-in-hot-path`: the delivery spine must not allocate per
//! event.
//!
//! The arena wire path exists so that steady-state delivery reuses
//! pooled buffers (`simnet::pool::BufferPool`) and shared payloads
//! instead of hitting the allocator once per envelope — at the large
//! scenario tier (n = 64..1024) per-event allocation is the difference
//! between a sweep that completes and one that thrashes. Within the same
//! hot functions `no-panic-in-delivery` guards (the scope lists are
//! shared), this rule bans the three easy ways to reintroduce a
//! per-event allocation: `Box::new(..)`, `.to_vec()`, and the `vec![..]`
//! macro. It also bans building an ordered container per event —
//! `BTreeMap::new()` / `BTreeSet::new()`, or a `.collect()` into either:
//! that allocates a node per few entries and pays a tree walk per insert,
//! where the delivery spine indexes dense tables instead.
//! `Vec::with_capacity` at construction time and pool acquire/release
//! remain legal. Survivors live in the allowlist with a written
//! justification.
//!
//! The threaded backend's synchronous path ([`SYNC_PATH_FNS`] in
//! `crates/simnet/src/threaded/mod.rs`) is in scope too: a read there is
//! one lock on the local replica, run in place on the calling thread. On
//! top of the bans above, those functions may not build what the old
//! control-lane round trip was made of — a `mpsc::channel()` per call, an
//! `Arc::new` result slot, a `Box::new`-ed closure.

use super::no_panic_in_delivery::{protocol_fixture_context, scope_fns};
use super::{diag_at, Rule};
use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::source::{FileKind, SourceFile};

/// See module docs.
pub struct NoAllocInHotPath;

/// The file holding the threaded backend's synchronous path.
const SYNC_PATH_FILE: &str = "crates/simnet/src/threaded/mod.rs";

/// The synchronous path itself: the two public entry points, the
/// site-lock helper they share, and the in-place runner.
const SYNC_PATH_FNS: [&str; 4] = ["try_with_node", "try_query", "site", "invoke"];

/// Whether the tokens at `i` spell the path call `head::tail`.
fn is_path_call(file: &SourceFile, i: usize, head: &str, tail: &str) -> bool {
    let toks = &file.toks;
    i + 3 < toks.len()
        && toks[i].is_ident(head)
        && toks[i + 1].is_punct(':')
        && toks[i + 2].is_punct(':')
        && toks[i + 3].is_ident(tail)
}

/// Whether the statement around token `at` (bounded by `;`, or by the
/// body span `[start, end]`) calls `.collect` — so a `BTreeMap`/`BTreeSet`
/// named in it, as a `let` annotation or a turbofish, is what the
/// `.collect()` builds.
fn statement_collects(file: &SourceFile, start: usize, end: usize, at: usize) -> bool {
    let toks = &file.toks;
    let end = end.min(toks.len().saturating_sub(1));
    let first = (start..at)
        .rev()
        .find(|&j| toks[j].is_punct(';'))
        .map_or(start, |j| j + 1);
    let last = (at..=end).find(|&j| toks[j].is_punct(';')).unwrap_or(end);
    (first.max(1)..=last).any(|j| toks[j].is_ident("collect") && toks[j - 1].is_punct('.'))
}

impl Rule for NoAllocInHotPath {
    fn name(&self) -> &'static str {
        "no-alloc-in-hot-path"
    }

    fn description(&self) -> &'static str {
        "ban Box::new/.to_vec()/vec![ and BTreeMap/BTreeSet construction in delivery hot paths, plus mpsc::channel()/Arc::new on the threaded synchronous path"
    }

    fn check(&self, file: &SourceFile) -> Vec<Diagnostic> {
        let sync_path = file.rel_path == SYNC_PATH_FILE;
        let names = if sync_path {
            &SYNC_PATH_FNS[..]
        } else if let Some(names) = scope_fns(&file.rel_path) {
            names
        } else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (fn_name, start, end) in file.fn_body_spans(names) {
            for i in start..=end.min(file.toks.len().saturating_sub(1)) {
                let t = &file.toks[i];
                if t.kind != TokKind::Ident {
                    continue;
                }
                let prev_is_dot = i >= 1 && file.toks[i - 1].is_punct('.');
                let next_is_bang = i + 1 < file.toks.len() && file.toks[i + 1].is_punct('!');
                if sync_path && is_path_call(file, i, "mpsc", "channel") {
                    out.push(diag_at(
                        self.name(),
                        file,
                        i,
                        format!(
                            "`mpsc::channel()` per call in synchronous path `{fn_name}`; run the closure in place under the site lock"
                        ),
                    ));
                } else if sync_path && is_path_call(file, i, "Arc", "new") {
                    out.push(diag_at(
                        self.name(),
                        file,
                        i,
                        format!(
                            "`Arc::new` per call in synchronous path `{fn_name}`; return the result by value"
                        ),
                    ));
                } else if is_path_call(file, i, "Box", "new") {
                    out.push(diag_at(
                        self.name(),
                        file,
                        i,
                        format!(
                            "`Box::new` allocates per event in hot path `{fn_name}`; reuse a pooled buffer"
                        ),
                    ));
                } else if prev_is_dot && t.text == "to_vec" {
                    out.push(diag_at(
                        self.name(),
                        file,
                        i,
                        format!(
                            "`.to_vec()` copies per event in hot path `{fn_name}`; borrow or take a pooled buffer"
                        ),
                    ));
                } else if next_is_bang && t.text == "vec" {
                    out.push(diag_at(
                        self.name(),
                        file,
                        i,
                        format!(
                            "`vec![..]` allocates per event in hot path `{fn_name}`; acquire from the buffer pool"
                        ),
                    ));
                } else if t.text == "BTreeMap" || t.text == "BTreeSet" {
                    let constructed = is_path_call(file, i, &t.text, "new");
                    if constructed || statement_collects(file, start, end, i) {
                        out.push(diag_at(
                            self.name(),
                            file,
                            i,
                            format!(
                                "`{}` built per event in hot path `{fn_name}`; index a dense table instead",
                                t.text
                            ),
                        ));
                    }
                }
            }
        }
        out
    }

    fn fixture_context(&self) -> (&'static str, &'static str, FileKind) {
        ("simnet", "crates/simnet/src/sim.rs", FileKind::Lib)
    }

    fn fixture_context_for(&self, case: &str) -> (&'static str, &'static str, FileKind) {
        if case.ends_with("_sync_path.rs") {
            ("simnet", SYNC_PATH_FILE, FileKind::Lib)
        } else {
            protocol_fixture_context(case).unwrap_or_else(|| self.fixture_context())
        }
    }
}
