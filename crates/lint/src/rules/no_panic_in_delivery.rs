//! `no-panic-in-delivery`: message-delivery hot paths must not panic.
//!
//! A panic inside the delivery path tears down the whole simulation —
//! including every *other* node — which is exactly the failure mode the
//! fault layer exists to model gracefully. The functions listed in
//! [`scope_fns`] form the delivery spine: the simulator's event pump
//! and event queue, the channel sampler, the overlay relay, every
//! protocol's `on_message`/`on_restart` handler and recovery-log
//! `checkpoint` (with the `cut` it calls — the runtime runs it on every
//! node at every all-up settle), and the control ledger they charge.
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

/// The delivery-spine functions checked per file; `None` means the file
/// is out of scope for this rule. Shared with `no-alloc-in-hot-path`:
/// the functions that must not panic are exactly the per-event hot path
/// that must not allocate either.
pub(crate) fn scope_fns(rel_path: &str) -> Option<&'static [&'static str]> {
    match rel_path {
        "crates/simnet/src/channel.rs" => Some(&["schedule", "transmit", "sample"]),
        "crates/simnet/src/sim.rs" => Some(&[
            "try_start",
            "try_with_node",
            "try_step",
            "process_event",
            "recycled_context",
            "handle_down_delivery",
            "flush_context",
            "send_message",
            "set_down",
            "set_up",
            "is_down",
        ]),
        "crates/simnet/src/transport.rs" => {
            Some(&["try_with_node", "try_step", "try_run_until_quiescent"])
        }
        "crates/simnet/src/route.rs" => Some(&[
            "on_start",
            "on_message",
            "on_timer",
            "while_down",
            "with_inner",
            "split",
            "children_of",
            "subtree_span",
            "next_hop",
            "hop_count",
            "tree_parent",
            "tree_next_hop",
        ]),
        "crates/simnet/src/event.rs" => {
            Some(&["push", "pop", "pop_ready_into", "requeue", "store"])
        }
        "crates/dsm/src/control.rs" => {
            Some(&["track", "charge_sent", "charge_received", "slot_mut"])
        }
        _ => {
            is_protocol_file(rel_path).then_some(&["on_message", "on_restart", "checkpoint", "cut"])
        }
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
        protocol_fixture_context(case).unwrap_or_else(|| self.fixture_context())
    }
}

/// The context of the `*_checkpoint.rs` fixtures (shared with
/// `no-alloc-in-hot-path`, like the scope lists) and of this rule's
/// `*_flush.rs` pair: a protocol file, where `checkpoint` and the
/// batching flush are in scope.
pub(crate) fn protocol_fixture_context(
    case: &str,
) -> Option<(&'static str, &'static str, FileKind)> {
    (case.ends_with("_checkpoint.rs") || case.ends_with("_flush.rs")).then_some((
        "dsm",
        "crates/dsm/src/protocol/op_log.rs",
        FileKind::Lib,
    ))
}
