//! `no-panic-in-delivery`: message-delivery hot paths must not panic.
//!
//! A panic inside the delivery path tears down the whole simulation —
//! including every *other* node — which is exactly the failure mode the
//! fault layer exists to model gracefully. The functions listed in
//! [`DELIVERY_SCOPE`] form the delivery spine: the simulator's event pump
//! with the buffers it lends each callback and its fan-out sends, the
//! event queue with its fan-out entries and their hand-out, the channel
//! sampler, the overlay relay, every
//! protocol's `on_message`/`on_restart` handler and recovery-log
//! `checkpoint` (with the `cut` it calls — the runtime runs it on every
//! node at every all-up settle), the control ledger they charge, and the
//! replica kernel every delivery goes through: the dense `Store`'s
//! accessors, the causal receive path with its in-order check and the
//! clock scan behind it (`VectorClock::deliverable_from`), and the
//! per-write helpers of causal-partial's owed-record log. The relay's
//! multicast sort (`Router::sort_for_multicast`) runs per fan-out and is
//! in scope too.
//! Here only (see [`FLUSH_FNS`]), the protocols' batching flush joins
//! them: `on_timer` and the grouped `flush` decide what every
//! non-replica hears.
//! Within their bodies this rule
//! bans `.unwrap()` / `.expect()`, panicking macros, and slice
//! indexing (`debug_assert!` stays legal: it documents invariants and
//! compiles out of release builds). Survivors live in the allowlist
//! with a written justification.

use super::{diag_at, Rule};
use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::source::{FileKind, SourceFile};

/// See module docs.
pub struct NoPanicInDelivery;

/// The delivery-spine functions checked per file. Shared with
/// `no-alloc-in-hot-path`: the functions that must not panic are exactly
/// the per-event hot path that must not allocate either. Every pair must
/// name a function of the live tree (a self-check test holds it to
/// that), so an entry cannot silently check nothing.
pub const DELIVERY_SCOPE: [(&str, &[&str]); 10] = [
    (
        "crates/simnet/src/channel.rs",
        &["schedule", "transmit", "sample"],
    ),
    (
        "crates/simnet/src/sim.rs",
        &[
            "try_start",
            "invoke",
            "post",
            "step",
            "settle",
            "process_event",
            "lend_context",
            "handle_down_delivery",
            "flush_context",
            "send_many",
            "transmit",
            "set_down",
            "set_up",
            "is_down",
        ],
    ),
    (
        "crates/simnet/src/transport.rs",
        &["invoke", "post", "step", "settle"],
    ),
    (
        "crates/simnet/src/route.rs",
        &[
            "on_start",
            "on_message",
            "on_timer",
            "while_down",
            "with_inner",
            "split",
            "children_of",
            "subtree_span",
            "sort_for_multicast",
            "next_hop",
            "hop_count",
            "tree_parent",
            "tree_next_hop",
        ],
    ),
    (
        "crates/simnet/src/event.rs",
        &[
            "push",
            "push_fan_out",
            "shelve_walked_run",
            "pop",
            "hand_out",
            "pop_ready_into",
            "store",
        ],
    ),
    (
        "crates/dsm/src/control.rs",
        &[
            "track",
            "charge_sent",
            "charge_sent_n",
            "charge_received",
            "slot_mut",
        ],
    ),
    ("crates/dsm/src/clock.rs", &["deliverable_from"]),
    (
        "crates/dsm/src/protocol/store.rs",
        &["get", "insert", "update"],
    ),
    (
        "crates/dsm/src/protocol/owed.rs",
        &["push", "serve", "most_owed"],
    ),
    (
        "crates/dsm/src/protocol/causal.rs",
        &[
            "deliverable_at",
            "already_seen",
            "receive",
            "apply",
            "drain",
        ],
    ),
];

/// What every other protocol file (`crates/dsm/src/protocol/*.rs` but
/// `mod.rs`) has in scope.
const PROTOCOL_FNS: [&str; 4] = ["on_message", "on_restart", "checkpoint", "cut"];

/// The functions of [`DELIVERY_SCOPE`] (or [`PROTOCOL_FNS`]) checked in
/// the file at `rel_path`; `None` means the file is out of scope.
pub(crate) fn scope_fns(rel_path: &str) -> Option<&'static [&'static str]> {
    match DELIVERY_SCOPE.iter().find(|(path, _)| *path == rel_path) {
        Some(&(_, fns)) => Some(fns),
        None => is_protocol_file(rel_path).then_some(&PROTOCOL_FNS[..]),
    }
}

fn is_protocol_file(rel_path: &str) -> bool {
    rel_path.starts_with("crates/dsm/src/protocol/") && rel_path != "crates/dsm/src/protocol/mod.rs"
}

/// The protocols' batching flush: the timer that triggers it and the
/// grouped flush itself. It runs once per window, not once per event, and
/// builds its group list as it goes — so it must not panic, but stays out
/// of `no-alloc-in-hot-path` (which is why these names are not in
/// [`scope_fns`]).
const FLUSH_FNS: [&str; 2] = ["on_timer", "flush"];

const PANIC_MACROS: [&str; 7] = [
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

impl Rule for NoPanicInDelivery {
    fn name(&self) -> &'static str {
        "no-panic-in-delivery"
    }

    fn description(&self) -> &'static str {
        "ban unwrap/expect/panic!/slice-indexing in delivery hot paths"
    }

    fn check(&self, file: &SourceFile) -> Vec<Diagnostic> {
        let Some(names) = scope_fns(&file.rel_path) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut spans = file.fn_body_spans(names);
        if is_protocol_file(&file.rel_path) {
            spans.extend(file.fn_body_spans(&FLUSH_FNS));
        }
        for (fn_name, start, end) in spans {
            for i in start..=end.min(file.toks.len().saturating_sub(1)) {
                let t = &file.toks[i];
                match t.kind {
                    TokKind::Ident => {
                        let prev_is_dot = i >= 1 && file.toks[i - 1].is_punct('.');
                        let next_is_bang =
                            i + 1 < file.toks.len() && file.toks[i + 1].is_punct('!');
                        if prev_is_dot && (t.text == "unwrap" || t.text == "expect") {
                            out.push(diag_at(
                                self.name(),
                                file,
                                i,
                                format!(
                                    "`.{}()` in delivery hot path `{}`; return a typed error instead",
                                    t.text, fn_name
                                ),
                            ));
                        } else if next_is_bang && PANIC_MACROS.contains(&t.text.as_str()) {
                            out.push(diag_at(
                                self.name(),
                                file,
                                i,
                                format!(
                                    "`{}!` in delivery hot path `{}`; use debug_assert! or a typed error",
                                    t.text, fn_name
                                ),
                            ));
                        }
                    }
                    TokKind::Punct('[') => {
                        // Slice indexing: `[` directly after an expression
                        // (identifier, call, or another index). Array
                        // literals/types follow punctuation and don't match.
                        let indexes_expr = i >= 1
                            && matches!(
                                file.toks[i - 1].kind,
                                TokKind::Ident | TokKind::Punct(')') | TokKind::Punct(']')
                            );
                        if indexes_expr {
                            out.push(diag_at(
                                self.name(),
                                file,
                                i,
                                format!(
                                    "slice indexing in delivery hot path `{fn_name}`; use .get()/.get_mut() and handle the miss"
                                ),
                            ));
                        }
                    }
                    _ => {}
                }
            }
        }
        out
    }

    fn fixture_context(&self) -> (&'static str, &'static str, FileKind) {
        ("simnet", "crates/simnet/src/sim.rs", FileKind::Lib)
    }

    fn fixture_context_for(&self, case: &str) -> (&'static str, &'static str, FileKind) {
        scoped_fixture_context(case).unwrap_or_else(|| self.fixture_context())
    }
}

/// Fixture name suffixes (shared with `no-alloc-in-hot-path`, like the
/// scope lists) and the crate and file each fixture is lexed as:
/// `*_checkpoint.rs` and this rule's `*_flush.rs` pair as a protocol file,
/// where `checkpoint` and the batching flush are in scope; the rest as the
/// file whose scoped functions they exercise — the causal receive path
/// (`_kernel`), the dense store, the owed-record log, the clock scan, the
/// router's multicast sort and the event queue.
const FIXTURE_FILES: [(&str, &str, &str); 8] = [
    ("_checkpoint.rs", "dsm", "crates/dsm/src/protocol/op_log.rs"),
    ("_flush.rs", "dsm", "crates/dsm/src/protocol/op_log.rs"),
    ("_kernel.rs", "dsm", "crates/dsm/src/protocol/causal.rs"),
    ("_store.rs", "dsm", "crates/dsm/src/protocol/store.rs"),
    ("_owed.rs", "dsm", "crates/dsm/src/protocol/owed.rs"),
    ("_clock.rs", "dsm", "crates/dsm/src/clock.rs"),
    ("_route.rs", "simnet", "crates/simnet/src/route.rs"),
    ("_event.rs", "simnet", "crates/simnet/src/event.rs"),
];

/// The context a fixture named `case` is lexed in, if its suffix is one of
/// [`FIXTURE_FILES`].
pub(crate) fn scoped_fixture_context(case: &str) -> Option<(&'static str, &'static str, FileKind)> {
    (FIXTURE_FILES.iter())
        .find(|(suffix, _, _)| case.ends_with(suffix))
        .map(|&(_, krate, path)| (krate, path, FileKind::Lib))
}
