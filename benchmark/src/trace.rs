//! The traced run's recorder: a span around every call into `DynDsm`,
//! counter snapshots at round boundaries, log₂ histograms of every span,
//! and the chrome-trace writer.
//!
//! Spans are recorded from outside the system, around `DynDsm::write`,
//! `read` and `settle`. Timestamps are chained — the end of one call is
//! the start of the next — so a round costs one clock read per call, and
//! the calls tile the round: what is left over (`uncovered_ns`) is only
//! the driver's own bookkeeping between them.

use crate::run::{Counters, Observer};
use crate::stats::Log2Hist;
use dsm::{DynDsm, ProtocolKind};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// One whole round; parent of the other three.
    Round,
    /// One `DynDsm::write` call.
    Write,
    /// One `DynDsm::read` call.
    Read,
    /// The round's `DynDsm::settle` call.
    Settle,
}

impl SpanKind {
    /// Every kind, in histogram order.
    pub const ALL: [SpanKind; 4] = [
        SpanKind::Round,
        SpanKind::Write,
        SpanKind::Read,
        SpanKind::Settle,
    ];

    /// Name in the trace file.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Round => "round",
            SpanKind::Write => "write",
            SpanKind::Read => "read",
            SpanKind::Settle => "settle",
        }
    }
}

/// Parent id of a span that has none.
const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Its id is its index in [`Tracer::spans`].
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What it covers.
    pub kind: SpanKind,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// Id of the round span that caused it (`u32::MAX` for a round).
    pub parent: u32,
    /// Round id, shared by the spans of one round.
    pub round: u64,
}

/// The counters of a deployment at the end of one round.
#[derive(Clone, Copy, Debug)]
pub struct CounterSample {
    /// When, in nanoseconds since the trace epoch.
    pub at_ns: u64,
    /// The round that just ended.
    pub round: u64,
    /// Cumulative counters.
    pub counters: Counters,
}

/// Records the spans of one protocol's timed rounds.
pub struct Tracer {
    epoch: Instant,
    full_rounds: u64,
    rounds_seen: u64,
    round: u64,
    round_span: u32,
    round_start_ns: u64,
    last_ns: u64,
    covered_ns: u64,
    /// Full span records of the first `full_rounds` rounds.
    pub spans: Vec<Span>,
    /// Counter snapshots at the end of each of those rounds.
    pub samples: Vec<CounterSample>,
    /// Durations of every span of every round, by [`SpanKind::ALL`] index.
    hist: [Log2Hist; 4],
    /// Duration of every round, in nanoseconds.
    pub round_ns: Vec<u64>,
    /// Round time not inside any write, read or settle span, summed.
    pub uncovered_ns: u64,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`, keeping full records
    /// of the first `full_rounds` rounds (histograms cover all rounds).
    pub fn new(epoch: Instant, full_rounds: u64, ops_per_round: usize) -> Tracer {
        Tracer {
            epoch,
            full_rounds,
            rounds_seen: 0,
            round: 0,
            round_span: NO_PARENT,
            round_start_ns: 0,
            last_ns: 0,
            covered_ns: 0,
            spans: Vec::with_capacity(full_rounds as usize * (ops_per_round + 2)),
            samples: Vec::with_capacity(full_rounds as usize),
            hist: Default::default(),
            round_ns: Vec::new(),
            uncovered_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn recording_in_full(&self) -> bool {
        self.rounds_seen < self.full_rounds
    }

    /// Close the span that started at `last_ns` and ends now.
    fn close(&mut self, kind: SpanKind) -> u64 {
        let now = self.now_ns();
        let ns = now - self.last_ns;
        self.hist[kind as usize].record(ns);
        self.covered_ns += ns;
        if self.recording_in_full() {
            self.spans.push(Span {
                kind,
                start_ns: self.last_ns,
                end_ns: now,
                parent: self.round_span,
                round: self.round,
            });
        }
        self.last_ns = now;
        now
    }

    /// The histogram of `kind`.
    pub fn hist_of(&self, kind: SpanKind) -> &Log2Hist {
        &self.hist[kind as usize]
    }
}

impl Observer for Tracer {
    fn round_start(&mut self, r: u64) {
        let now = self.now_ns();
        self.round = r;
        self.round_start_ns = now;
        self.last_ns = now;
        self.covered_ns = 0;
        if self.recording_in_full() {
            self.round_span = self.spans.len() as u32;
            self.spans.push(Span {
                kind: SpanKind::Round,
                start_ns: now,
                end_ns: now,
                parent: NO_PARENT,
                round: r,
            });
        }
    }

    fn op_done(&mut self, write: bool) {
        self.close(if write {
            SpanKind::Write
        } else {
            SpanKind::Read
        });
    }

    fn round_done(&mut self, dsm: &DynDsm) {
        let now = self.close(SpanKind::Settle);
        let ns = now - self.round_start_ns;
        self.hist[SpanKind::Round as usize].record(ns);
        self.round_ns.push(ns);
        self.uncovered_ns += ns - self.covered_ns;
        if self.recording_in_full() {
            self.spans[self.round_span as usize].end_ns = now;
            // Read between rounds, so the cost is in no span.
            self.samples.push(CounterSample {
                at_ns: now,
                round: self.round,
                counters: Counters::read(dsm),
            });
        }
        self.rounds_seen += 1;
    }
}

fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Write the traces of a run as chrome-trace JSON (`chrome://tracing`,
/// Perfetto): one thread per protocol, an `X` event per span with its id,
/// parent id and round id, a `C` event per counter snapshot, and the
/// histograms of all spans under `otherData`.
pub fn write_chrome_trace(
    path: &Path,
    workload: &str,
    traces: &[(ProtocolKind, &Tracer)],
) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"dsmbench {workload}\"}}}}"
    )?;
    for (tid, (kind, tracer)) in traces.iter().enumerate() {
        let tid = tid + 1;
        write!(
            out,
            ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{kind}\"}}}}"
        )?;
        for (id, s) in tracer.spans.iter().enumerate() {
            write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"dsm\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{tid},\"args\":{{\"id\":{id},\"round\":{}",
                s.kind.name(),
                micros(s.start_ns),
                micros(s.end_ns - s.start_ns),
                s.round,
            )?;
            if s.parent != NO_PARENT {
                write!(out, ",\"parent\":{}", s.parent)?;
            }
            write!(out, "}}}}")?;
        }
        for c in &tracer.samples {
            let k = &c.counters;
            write!(
                out,
                ",\n{{\"name\":\"{kind} counters\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\"tid\":{tid},\"args\":{{\"round\":{},\"msgs\":{},\"ctl_bytes\":{},\"events\":{},\"forwarded\":{},\"pool_hits\":{},\"pool_misses\":{},\"full_stalls\":{},\"batches\":{},\"batched_msgs\":{}}}}}",
                micros(c.at_ns),
                c.round,
                k.msgs,
                k.ctl_bytes,
                k.events,
                k.forwarded,
                k.pool_hits,
                k.pool_misses,
                k.full_stalls,
                k.batches,
                k.batched_msgs,
            )?;
        }
    }
    write!(out, "\n],\"otherData\":{{\"histograms_ns\":{{")?;
    for (i, (kind, tracer)) in traces.iter().enumerate() {
        if i > 0 {
            write!(out, ",")?;
        }
        write!(out, "\n\"{kind}\":{{")?;
        for (j, span_kind) in SpanKind::ALL.into_iter().enumerate() {
            let h = tracer.hist_of(span_kind);
            if j > 0 {
                write!(out, ",")?;
            }
            write!(
                out,
                "\"{}\":{{\"count\":{},\"sum\":{},\"p50_below\":{},\"p99_below\":{}}}",
                span_kind.name(),
                h.count(),
                h.sum(),
                h.quantile_bound(0.5),
                h.quantile_bound(0.99),
            )?;
        }
        write!(out, "}}")?;
    }
    writeln!(out, "\n}}}}}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{Driver, Inputs};
    use crate::workload::SPECS;

    fn traced_rounds(rounds: u64, full: u64) -> (Tracer, usize) {
        let inputs = Inputs::generate(&SPECS[0], 5);
        let mut dsm = inputs
            .deploy(ProtocolKind::CausalPartial, inputs.spec.backend, false)
            .unwrap();
        let k = inputs.script.ops_per_round();
        let mut tracer = Tracer::new(Instant::now(), full, k);
        Driver::new(&inputs.script, inputs.spec.vars).rounds(&mut dsm, 0..rounds, &mut tracer);
        (tracer, k)
    }

    #[test]
    fn spans_tile_their_round_and_name_it_as_parent() {
        let (tracer, k) = traced_rounds(3, 2);
        // Two rounds in full: one round span + k ops + one settle each.
        assert_eq!(tracer.spans.len(), 2 * (k + 2));
        assert_eq!(tracer.samples.len(), 2);
        assert_eq!(tracer.round_ns.len(), 3);
        for (id, s) in tracer.spans.iter().enumerate() {
            if s.kind == SpanKind::Round {
                assert_eq!(s.parent, NO_PARENT);
                let children: Vec<&Span> = tracer
                    .spans
                    .iter()
                    .filter(|c| c.parent == id as u32)
                    .collect();
                assert_eq!(children.len(), k + 1);
                assert_eq!(children[0].start_ns, s.start_ns);
                assert_eq!(children[k].end_ns, s.end_ns);
                assert_eq!(children[k].kind, SpanKind::Settle);
                for pair in children.windows(2) {
                    assert_eq!(pair[0].end_ns, pair[1].start_ns);
                    assert_eq!(pair[0].round, s.round);
                }
            }
        }
        // Histograms cover every round, stored or not.
        assert_eq!(tracer.hist_of(SpanKind::Round).count(), 3);
        assert_eq!(tracer.hist_of(SpanKind::Settle).count(), 3);
        let ops = tracer.hist_of(SpanKind::Write).count() + tracer.hist_of(SpanKind::Read).count();
        assert_eq!(ops, 3 * k as u64);
        assert_eq!(tracer.uncovered_ns, 0);
    }

    #[test]
    fn the_trace_file_is_balanced_json_with_every_span() {
        let (tracer, _) = traced_rounds(2, 2);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        let path = dir.join("trace.json");
        write_chrome_trace(&path, "unit", &[(ProtocolKind::CausalPartial, &tracer)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(text.matches("\"ph\":\"X\"").count(), tracer.spans.len());
        assert_eq!(text.matches("\"ph\":\"C\"").count(), tracer.samples.len());
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
        assert!(text.contains("\"histograms_ns\""));
    }
}
