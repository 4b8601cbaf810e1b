//! Trace sinks: where emitted events go.

use std::collections::BTreeMap;
use std::io::{self, Write};

use eventsim::SimTime;

use crate::event::{DropWhy, RtoCauseCounts, TraceEvent};

/// A consumer of trace events.
///
/// Implementations must be cheap per-event; they run inline on the
/// simulation's hot paths whenever tracing is enabled.
pub trait TraceSink {
    /// Records one event at simulation time `t`.
    fn record(&mut self, t: SimTime, ev: &TraceEvent);

    /// Flushes buffered output, if any.
    fn flush(&mut self) {}
}

/// Aggregate counters maintained by [`CountingSink`], both globally and per
/// switch node.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct TraceCounts {
    /// Packets admitted to egress queues.
    pub enqueues: u64,
    /// Packets leaving egress queues.
    pub dequeues: u64,
    /// Color-threshold drops.
    pub drops_color: u64,
    /// Dynamic-threshold drops.
    pub drops_dt: u64,
    /// Buffer-overflow drops.
    pub drops_overflow: u64,
    /// Wire-corruption losses.
    pub drops_wire: u64,
    /// Frames destroyed on failed (down) links.
    pub drops_down: u64,
    /// Drops whose victim was a green (important) data packet.
    pub drops_green: u64,
    /// Packets CE-marked.
    pub ce_marked: u64,
    /// PFC PAUSE frames sent.
    pub pauses: u64,
    /// PFC RESUME frames sent.
    pub resumes: u64,
    /// Retransmission timeouts.
    pub timeouts: u64,
    /// Fast-retransmit (or NACK-recovery) entries.
    pub fast_retx: u64,
    /// Flows started.
    pub flows_started: u64,
    /// Flows finished.
    pub flows_finished: u64,
    /// Injected fault events (link down/up, degrade, storm start/end).
    pub faults: u64,
    /// Post-failure path re-pin attempts.
    pub reroutes: u64,
    /// RTO forensic attributions ([`TraceEvent::RtoForensic`]) — one per
    /// timeout when the producer ran the forensics pass.
    pub rto_forensics: u64,
}

impl TraceCounts {
    /// Sum of drops from all switch-local reasons (excludes wire losses).
    pub fn switch_drops(&self) -> u64 {
        self.drops_color + self.drops_dt + self.drops_overflow
    }

    fn absorb(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::Enqueue { .. } => self.enqueues += 1,
            TraceEvent::Dequeue { .. } => self.dequeues += 1,
            TraceEvent::Drop { why, green, .. } => {
                match why {
                    DropWhy::Color => self.drops_color += 1,
                    DropWhy::Dynamic => self.drops_dt += 1,
                    DropWhy::Overflow => self.drops_overflow += 1,
                    DropWhy::Wire => self.drops_wire += 1,
                    DropWhy::LinkDown => self.drops_down += 1,
                }
                if *green {
                    self.drops_green += 1;
                }
            }
            TraceEvent::CeMark { .. } => self.ce_marked += 1,
            TraceEvent::PfcXoff { .. } => self.pauses += 1,
            TraceEvent::PfcXon { .. } => self.resumes += 1,
            TraceEvent::Timeout { .. } => self.timeouts += 1,
            TraceEvent::FastRetx { .. } => self.fast_retx += 1,
            TraceEvent::FlowStart { .. } => self.flows_started += 1,
            TraceEvent::FlowEnd { .. } => self.flows_finished += 1,
            TraceEvent::Fault { .. } => self.faults += 1,
            TraceEvent::Reroute { .. } => self.reroutes += 1,
            TraceEvent::RtoForensic { .. } => self.rto_forensics += 1,
            _ => {}
        }
    }
}

/// Per-node aggregate: the same counters, scoped to one switch.
pub type NodeCounts = TraceCounts;

/// An aggregating sink: counts events without storing them.
///
/// This is the zero-allocation-per-event option; memory is proportional to
/// the number of distinct switch nodes seen, not the trace length.
#[derive(Default)]
pub struct CountingSink {
    /// Counters over the whole trace.
    pub totals: TraceCounts,
    /// Counters keyed by switch node id (only events that carry a node).
    pub per_node: BTreeMap<u32, NodeCounts>,
    /// Drop cross-tabulation: `(node, reason) -> count`. Every `Drop` event
    /// lands here, so summing a reason's column reproduces the per-reason
    /// total and summing a node's row reproduces that node's drop count.
    pub drop_matrix: BTreeMap<(u32, DropWhy), u64>,
    /// RTO root-cause counts accumulated from `RtoForensic` events.
    pub rto_causes: RtoCauseCounts,
    /// Total events seen, including variants not individually counted.
    pub events: u64,
}

impl CountingSink {
    fn node_of(ev: &TraceEvent) -> Option<u32> {
        match ev {
            TraceEvent::Enqueue { node, .. }
            | TraceEvent::Dequeue { node, .. }
            | TraceEvent::Drop { node, .. }
            | TraceEvent::CeMark { node, .. }
            | TraceEvent::PfcXoff { node, .. }
            | TraceEvent::PfcXon { node, .. }
            | TraceEvent::Fault { node, .. } => Some(*node),
            _ => None,
        }
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, _t: SimTime, ev: &TraceEvent) {
        self.events += 1;
        self.totals.absorb(ev);
        if let Some(node) = CountingSink::node_of(ev) {
            self.per_node.entry(node).or_default().absorb(ev);
        }
        match ev {
            TraceEvent::Drop { node, why, .. } => {
                *self.drop_matrix.entry((*node, *why)).or_default() += 1;
            }
            TraceEvent::RtoForensic { cause, .. } => self.rto_causes.bump(*cause),
            _ => {}
        }
    }
}

/// A JSON-lines sink writing one event per line, hand-rolled (no serde).
///
/// Generic over any [`Write`] so tests can trace into a `Vec<u8>` and the
/// CLI can trace into a `BufWriter<File>`.
pub struct JsonlSink<W: Write> {
    out: W,
    /// Lines written so far.
    pub lines: u64,
    /// First I/O error encountered, if any (subsequent writes are skipped).
    pub error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink {
            out,
            lines: 0,
            error: None,
        }
    }

    /// Consumes the sink and returns the writer (flushing it first).
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }

    /// Borrows the underlying writer.
    pub fn get_ref(&self) -> &W {
        &self.out
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, t: SimTime, ev: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        let mut line = ev.to_jsonl(t);
        line.push('\n');
        match self.out.write_all(line.as_bytes()) {
            Ok(()) => self.lines += 1,
            Err(e) => self.error = Some(e),
        }
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
    }
}

/// An in-memory JSONL sink whose buffer can be moved across threads.
///
/// This is the building block for parallel experiment execution: each
/// worker thread records its run into a private `BufferSink`, and the
/// coordinator concatenates the extracted byte buffers in a deterministic
/// order afterwards. Unlike the [`Tracer`](crate::Tracer) handle (which is
/// `Rc`-based and thread-local by design), `BufferSink` itself — and the
/// `Vec<u8>` taken out of it — is `Send`, so a run's trace can be produced
/// on one thread and folded on another.
///
/// The encoded bytes are exactly what a [`JsonlSink`] writing to a file
/// would produce, so concatenating buffers from several runs yields a
/// valid multi-run trace file.
pub struct BufferSink {
    inner: JsonlSink<Vec<u8>>,
}

impl Default for BufferSink {
    fn default() -> BufferSink {
        BufferSink::new()
    }
}

// Compile-time guarantee that worker threads can hand buffers back.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<BufferSink>();
};

impl BufferSink {
    /// An empty buffer sink.
    pub fn new() -> BufferSink {
        BufferSink {
            inner: JsonlSink::new(Vec::new()),
        }
    }

    /// Lines (= events) recorded so far.
    pub fn lines(&self) -> u64 {
        self.inner.lines
    }

    /// Takes the encoded bytes out, leaving the sink empty and reusable.
    pub fn take_bytes(&mut self) -> Vec<u8> {
        self.inner.lines = 0;
        std::mem::take(&mut self.inner.out)
    }

    /// Consumes the sink and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.inner.into_inner()
    }
}

impl TraceSink for BufferSink {
    fn record(&mut self, t: SimTime, ev: &TraceEvent) {
        self.inner.record(t, ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drop_ev(node: u32, why: DropWhy, green: bool) -> TraceEvent {
        TraceEvent::Drop {
            node,
            port: 0,
            flow: 1,
            seq: 0,
            why,
            green,
        }
    }

    #[test]
    fn counting_sink_buckets_by_reason_and_node() {
        let mut c = CountingSink::default();
        let t = SimTime::ZERO;
        c.record(t, &drop_ev(1, DropWhy::Color, false));
        c.record(t, &drop_ev(1, DropWhy::Dynamic, true));
        c.record(t, &drop_ev(2, DropWhy::Overflow, false));
        c.record(t, &drop_ev(2, DropWhy::Wire, false));
        c.record(t, &TraceEvent::PfcXoff { node: 2, port: 0 });
        c.record(t, &TraceEvent::Timeout { flow: 0, seq: 0 });
        assert_eq!(c.totals.drops_color, 1);
        assert_eq!(c.totals.drops_dt, 1);
        assert_eq!(c.totals.drops_overflow, 1);
        assert_eq!(c.totals.drops_wire, 1);
        assert_eq!(c.totals.drops_green, 1);
        assert_eq!(c.totals.switch_drops(), 3);
        assert_eq!(c.totals.pauses, 1);
        assert_eq!(c.totals.timeouts, 1);
        assert_eq!(c.events, 6);
        assert_eq!(c.per_node[&1].drops_color, 1);
        assert_eq!(c.per_node[&1].drops_dt, 1);
        assert_eq!(c.per_node[&2].drops_overflow, 1);
        assert_eq!(c.per_node[&2].pauses, 1);
        // Timeout has no node, so it only lands in totals.
        assert!(c.per_node.values().all(|n| n.timeouts == 0));
        // The drop matrix cross-tabulates every drop by (node, reason).
        assert_eq!(c.drop_matrix[&(1, DropWhy::Color)], 1);
        assert_eq!(c.drop_matrix[&(1, DropWhy::Dynamic)], 1);
        assert_eq!(c.drop_matrix[&(2, DropWhy::Overflow)], 1);
        assert_eq!(c.drop_matrix[&(2, DropWhy::Wire)], 1);
        assert_eq!(c.drop_matrix.values().sum::<u64>(), 4);
    }

    #[test]
    fn counting_sink_accumulates_rto_causes() {
        use crate::event::RtoCause;
        let mut c = CountingSink::default();
        let t = SimTime::ZERO;
        for (flow, cause) in [
            (0, RtoCause::Color),
            (1, RtoCause::Color),
            (2, RtoCause::AckLoss),
        ] {
            c.record(
                t,
                &TraceEvent::RtoForensic {
                    flow,
                    seq: 0,
                    cause,
                    node: 0,
                    port: 0,
                    root_at: t,
                },
            );
        }
        assert_eq!(c.totals.rto_forensics, 3);
        assert_eq!(c.rto_causes.get(RtoCause::Color), 2);
        assert_eq!(c.rto_causes.get(RtoCause::AckLoss), 1);
        assert_eq!(c.rto_causes.total(), 3);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(SimTime::from_ns(5), &drop_ev(3, DropWhy::Color, true));
        sink.record(
            SimTime::from_ns(9),
            &TraceEvent::PfcXon { node: 3, port: 2 },
        );
        assert_eq!(sink.lines, 2);
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let parsed: Vec<_> = text
            .lines()
            .map(|l| TraceEvent::from_jsonl(l).expect("parseable"))
            .collect();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, SimTime::from_ns(5));
        assert_eq!(parsed[1].1, TraceEvent::PfcXon { node: 3, port: 2 });
    }

    #[test]
    fn buffer_sink_matches_jsonl_encoding_and_crosses_threads() {
        let ev = drop_ev(3, DropWhy::Color, true);
        let mut jsonl = JsonlSink::new(Vec::new());
        jsonl.record(SimTime::from_ns(5), &ev);

        let mut buf = BufferSink::new();
        buf.record(SimTime::from_ns(5), &ev);
        assert_eq!(buf.lines(), 1);
        // Bytes extracted on another thread are identical to the direct
        // JsonlSink encoding; take_bytes leaves the sink reusable.
        let bytes = std::thread::spawn(move || buf.take_bytes()).join().unwrap();
        assert_eq!(bytes, jsonl.into_inner());
    }
}
