//! Server-side per-trace record store backing `GET /trace/<id>`.
//!
//! A [`TraceBuffer`] is a [`Collector`] that keeps only *traced*
//! records (those stamped with a [`TraceContext`], i.e. belonging to a
//! remote caller's query) and groups them by `trace_id`, so the obs
//! HTTP endpoint can hand a client exactly the spans its query caused
//! and nothing else. Untraced records — the server's own housekeeping —
//! pass through untouched (pair it with a ring via
//! [`TeeCollector`](crate::TeeCollector) if those are wanted too).
//!
//! Memory is bounded on two axes, both fixed at construction:
//!
//! * at most `max_traces` distinct traces are held; starting a new one
//!   beyond that evicts the *oldest-created* trace wholesale (queries
//!   are short-lived, so creation order ≈ staleness order, and whole-
//!   trace eviction never serves a half-true timeline);
//! * each trace holds at most `max_records` records; further records
//!   for that trace are counted and dropped (keeping the *earliest*
//!   records, which carry the handshake and phase structure).
//!
//! Both overflow counters are observable so a scrape can tell when a
//! fetched trace might be incomplete.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::collect::{Collector, Record};
use crate::context::TraceContext;
use crate::metrics::Counter;
use crate::span::{EventRecord, SpanRecord};

/// Bounded, trace-id-keyed record store. See the module docs for the
/// eviction policy.
pub struct TraceBuffer {
    max_traces: usize,
    max_records: usize,
    /// Registry mirrors of the internal overflow counts (see
    /// [`TraceBuffer::with_counters`]); `None` keeps them local-only.
    evicted_counter: Option<Arc<Counter>>,
    dropped_counter: Option<Arc<Counter>>,
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    /// Creation order, oldest first. Linear scan on insert/lookup —
    /// `max_traces` is small (default 64) and the hot path is one
    /// mutex + one scan of at most that many ids.
    traces: VecDeque<(u128, Vec<Record>)>,
    traces_evicted: u64,
    records_dropped: u64,
}

impl TraceBuffer {
    /// Default bounds: 64 traces × 4096 records.
    pub const DEFAULT_MAX_TRACES: usize = 64;
    /// See [`TraceBuffer::DEFAULT_MAX_TRACES`].
    pub const DEFAULT_MAX_RECORDS: usize = 4096;

    /// A buffer holding at most `max_traces` traces of at most
    /// `max_records` records each (both clamped to a minimum of 1).
    pub fn new(max_traces: usize, max_records: usize) -> Self {
        TraceBuffer {
            max_traces: max_traces.max(1),
            max_records: max_records.max(1),
            evicted_counter: None,
            dropped_counter: None,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Mirrors the overflow counts into registry counters so a metrics
    /// scrape can tell when a fetched trace might be incomplete:
    /// `evicted` tracks whole traces displaced by newer ones, `dropped`
    /// tracks records discarded because their trace was full.
    #[must_use]
    pub fn with_counters(mut self, evicted: Arc<Counter>, dropped: Arc<Counter>) -> Self {
        self.evicted_counter = Some(evicted);
        self.dropped_counter = Some(dropped);
        self
    }

    fn push(&self, trace: Option<TraceContext>, record: Record) {
        let Some(ctx) = trace else { return };
        let mut inner = self.inner.lock().expect("trace buffer lock");
        if let Some((_, records)) = inner.traces.iter_mut().find(|(id, _)| *id == ctx.trace_id) {
            if records.len() < self.max_records {
                records.push(record);
            } else {
                inner.records_dropped += 1;
                if let Some(c) = &self.dropped_counter {
                    c.inc();
                }
            }
            return;
        }
        if inner.traces.len() == self.max_traces {
            inner.traces.pop_front();
            inner.traces_evicted += 1;
            if let Some(c) = &self.evicted_counter {
                c.inc();
            }
        }
        inner.traces.push_back((ctx.trace_id, vec![record]));
    }

    /// The records of `trace_id`, in arrival order; `None` for an
    /// unknown (or evicted) trace.
    pub fn records(&self, trace_id: u128) -> Option<Vec<Record>> {
        self.inner
            .lock()
            .expect("trace buffer lock")
            .traces
            .iter()
            .find(|(id, _)| *id == trace_id)
            .map(|(_, records)| records.clone())
    }

    /// The records of `trace_id` rendered as JSONL (one record per
    /// line, trailing newline) — the `GET /trace/<id>` body.
    pub fn to_jsonl(&self, trace_id: u128) -> Option<String> {
        let records = self.records(trace_id)?;
        let mut out = String::new();
        for record in &records {
            let json = match record {
                Record::Span(s) => s.to_json(),
                Record::Event(e) => e.to_json(),
            };
            out.push_str(&json.render());
            out.push('\n');
        }
        Some(out)
    }

    /// Whole traces evicted so far to admit newer ones.
    pub fn traces_evicted(&self) -> u64 {
        self.inner.lock().expect("trace buffer lock").traces_evicted
    }

    /// Records dropped so far because their trace hit `max_records`.
    pub fn records_dropped(&self) -> u64 {
        self.inner
            .lock()
            .expect("trace buffer lock")
            .records_dropped
    }
}

impl Default for TraceBuffer {
    fn default() -> Self {
        TraceBuffer::new(Self::DEFAULT_MAX_TRACES, Self::DEFAULT_MAX_RECORDS)
    }
}

impl Collector for TraceBuffer {
    fn record_span(&self, span: SpanRecord) {
        self.push(span.trace, Record::Span(span));
    }

    fn record_event(&self, event: EventRecord) {
        self.push(event.trace, Record::Event(event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Phase;

    /// Ids of the held traces, oldest first.
    fn trace_ids(buf: &TraceBuffer) -> Vec<u128> {
        let inner = buf.inner.lock().unwrap();
        inner.traces.iter().map(|(id, _)| *id).collect()
    }

    fn traced_span(trace_id: u128, name: &str, start: u64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            phase: Some(Phase::ServerCompute),
            session: Some(1),
            batch: None,
            start_ns: start,
            end_ns: start + 10,
            trace: Some(TraceContext::new(trace_id, 0)),
        }
    }

    #[test]
    fn groups_by_trace_and_ignores_untraced() {
        let buf = TraceBuffer::new(4, 16);
        buf.record_span(traced_span(1, "a", 0));
        buf.record_span(traced_span(2, "b", 5));
        buf.record_span(traced_span(1, "c", 10));
        buf.record_span(SpanRecord {
            trace: None,
            ..traced_span(0, "housekeeping", 0)
        });
        buf.record_event(EventRecord {
            name: "ev".into(),
            session: None,
            at_ns: 1,
            detail: String::new(),
            trace: Some(TraceContext::new(2, 7)),
        });
        assert_eq!(trace_ids(&buf), vec![1, 2]);
        assert_eq!(buf.records(1).unwrap().len(), 2);
        assert_eq!(buf.records(2).unwrap().len(), 2);
        assert_eq!(buf.records(3), None);
    }

    #[test]
    fn evicts_oldest_trace_and_caps_records() {
        let buf = TraceBuffer::new(2, 2);
        buf.record_span(traced_span(1, "a", 0));
        buf.record_span(traced_span(2, "b", 0));
        buf.record_span(traced_span(3, "c", 0));
        assert_eq!(trace_ids(&buf), vec![2, 3], "trace 1 evicted");
        assert_eq!(buf.traces_evicted(), 1);
        buf.record_span(traced_span(2, "d", 1));
        buf.record_span(traced_span(2, "over", 2));
        assert_eq!(buf.records(2).unwrap().len(), 2, "earliest kept");
        assert_eq!(buf.records_dropped(), 1);
    }

    #[test]
    fn registry_counters_mirror_overflow_counts() {
        let registry = crate::Registry::new();
        let evicted = registry.counter("evicted", "");
        let dropped = registry.counter("dropped", "");
        let buf = TraceBuffer::new(1, 1).with_counters(Arc::clone(&evicted), Arc::clone(&dropped));
        buf.record_span(traced_span(1, "a", 0));
        buf.record_span(traced_span(1, "over", 1)); // trace 1 full
        buf.record_span(traced_span(2, "b", 0)); // evicts trace 1
        assert_eq!(evicted.get(), buf.traces_evicted());
        assert_eq!(dropped.get(), buf.records_dropped());
        assert_eq!(evicted.get(), 1);
        assert_eq!(dropped.get(), 1);
    }

    #[test]
    fn jsonl_rendering_is_line_per_record() {
        let buf = TraceBuffer::default();
        buf.record_span(traced_span(9, "fold", 0));
        buf.record_span(traced_span(9, "session", 20));
        let body = buf.to_jsonl(9).unwrap();
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = crate::json::JsonValue::parse(line).expect("valid JSON line");
            assert_eq!(
                v.get("trace_id").and_then(|t| t.as_str()),
                Some(TraceContext::new(9, 0).trace_id_hex().as_str())
            );
        }
        assert!(body.ends_with('\n'));
        assert_eq!(buf.to_jsonl(1), None);
    }
}
