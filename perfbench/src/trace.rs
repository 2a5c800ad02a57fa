//! The traced run's span tree. Each op is a root span carrying its op
//! id; the client spans of the op sit under it; the server's `session`
//! span is attached to the op that opened it (same client port when
//! known, otherwise the op it overlaps most), and every other server
//! span of that session (`server_compute`) sits under the session.
//! Spans stay in memory until the run ends and are then written as JSON
//! lines and as a Chrome trace.
//!
//! Spans the program records as phase totals (`server_compute`, and the
//! observed client's `encrypt_batch`, `wire_blocked` and `decrypt`) end
//! where they were recorded, so the self time of their parent is exact
//! only to that placement.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use pps_obs::{JsonValue, SpanRecord};

use crate::drive::Sample;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    Client,
    Server,
}

pub struct Span {
    pub name: String,
    pub side: Side,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The op this span belongs to, when known.
    pub op: Option<u64>,
    /// The server's session id (server spans).
    pub session: Option<u64>,
    /// Load thread of the op, for the Chrome view's lanes.
    pub lane: usize,
}

pub struct Timeline {
    pub spans: Vec<Span>,
    pub ops: usize,
}

/// Converts monotonic instants to the server tracer's nanosecond clock,
/// from one pair of readings taken together.
#[derive(Clone, Copy)]
pub struct Clock {
    pub instant: Instant,
    pub ns: u64,
}

impl Clock {
    fn ns(&self, at: Instant) -> u64 {
        let delta = if at >= self.instant {
            (at - self.instant).as_nanos() as i128
        } else {
            -((self.instant - at).as_nanos() as i128)
        };
        (i128::from(self.ns) + delta).max(0) as u64
    }
}

fn overlap(a: &Span, start: u64, end: u64) -> u64 {
    a.end_ns.min(end).saturating_sub(a.start_ns.max(start))
}

impl Timeline {
    pub fn assemble(
        samples: &[Sample],
        server: Vec<SpanRecord>,
        peer_ports: &HashMap<u64, u16>,
        clock: Clock,
    ) -> Timeline {
        let mut spans = Vec::new();
        let mut ops_by_port: HashMap<u16, Vec<usize>> = HashMap::new();
        let mut op_spans = Vec::new();
        for s in samples {
            let id = spans.len();
            spans.push(Span {
                name: "op".to_string(),
                side: Side::Client,
                start_ns: clock.ns(s.op.start),
                end_ns: clock.ns(s.op.end),
                parent: None,
                op: Some(s.index),
                session: None,
                lane: s.worker,
            });
            op_spans.push(id);
            if let Some(port) = s.op.port {
                ops_by_port.entry(port).or_default().push(id);
            }
            for c in &s.op.spans {
                spans.push(Span {
                    name: c.name.clone(),
                    side: Side::Client,
                    start_ns: clock.ns(c.start),
                    end_ns: clock.ns(c.end),
                    parent: Some(id),
                    op: Some(s.index),
                    session: None,
                    lane: s.worker,
                });
            }
        }

        let (sessions, others): (Vec<_>, Vec<_>) =
            server.into_iter().partition(|r| r.name == "session");
        let mut session_span = HashMap::new();
        for r in sessions {
            // Ops whose socket the benchmark opened are matched by port;
            // the others (`pps query` opens its own) by overlap alone.
            let candidates = match r.session.and_then(|s| peer_ports.get(&s)) {
                Some(port) if !ops_by_port.is_empty() => {
                    ops_by_port.get(port).map_or(&[][..], Vec::as_slice)
                }
                _ => op_spans.as_slice(),
            };
            let parent = candidates
                .iter()
                .copied()
                .map(|id| (overlap(&spans[id], r.start_ns, r.end_ns), id))
                .filter(|&(o, _)| o > 0)
                .max()
                .map(|(_, id)| id);
            if let Some(session) = r.session {
                session_span.insert(session, spans.len());
            }
            spans.push(Span {
                op: parent.and_then(|p| spans[p].op),
                lane: parent.map_or(0, |p| spans[p].lane),
                name: r.name,
                side: Side::Server,
                start_ns: r.start_ns,
                end_ns: r.end_ns,
                parent,
                session: r.session,
            });
        }
        for r in others {
            let parent = r.session.and_then(|s| session_span.get(&s).copied());
            spans.push(Span {
                op: parent.and_then(|p| spans[p].op),
                lane: parent.map_or(0, |p| spans[p].lane),
                name: r.name,
                side: Side::Server,
                start_ns: r.start_ns,
                end_ns: r.end_ns,
                parent,
                session: r.session,
            });
        }
        Timeline {
            spans,
            ops: samples.len(),
        }
    }

    /// Each span's self time in seconds: its duration minus the part of
    /// its interval that its children cover.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if a < b {
                    children[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut cover)| {
                cover.sort_unstable();
                let mut covered = 0u64;
                let mut reach = 0u64;
                for (a, b) in cover {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered) as f64 * 1e-9
            })
            .collect()
    }

    /// Self time of every span name, summed and divided by the op count:
    /// `(name, seconds per op, span count)`, in first-seen order.
    pub fn self_time_per_op(&self) -> Vec<(String, f64, usize)> {
        let mut table: Vec<(String, f64, usize)> = Vec::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            match table.iter_mut().find(|(name, _, _)| *name == s.name) {
                Some(row) => {
                    row.1 += t;
                    row.2 += 1;
                }
                None => table.push((s.name.clone(), t, 1)),
            }
        }
        let ops = self.ops.max(1) as f64;
        for row in &mut table {
            row.1 /= ops;
        }
        table
    }

    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Writes `<dir>/<workload>.jsonl` (one span per line) and
    /// `<dir>/<workload>.chrome.json` (loadable in `chrome://tracing` or
    /// Perfetto).
    pub fn write(&self, dir: &Path, workload: &str) -> Result<(), String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let side = |s: Side| match s {
            Side::Client => "client",
            Side::Server => "server",
        };
        let mut jsonl = String::new();
        let mut events = Vec::with_capacity(self.spans.len());
        for (id, s) in self.spans.iter().enumerate() {
            let line = JsonValue::object()
                .field("id", id)
                .field("name", s.name.as_str())
                .field("side", side(s.side))
                .field("start_ns", s.start_ns)
                .field("end_ns", s.end_ns)
                .field("parent", s.parent.map_or(JsonValue::Null, JsonValue::from))
                .field("op", s.op.map_or(JsonValue::Null, JsonValue::from))
                .field(
                    "session",
                    s.session.map_or(JsonValue::Null, JsonValue::from),
                );
            jsonl.push_str(&line.render());
            jsonl.push('\n');
            let mut args = JsonValue::object();
            if let Some(op) = s.op {
                args = args.field("op", op);
            }
            if let Some(session) = s.session {
                args = args.field("session", session);
            }
            events.push(
                JsonValue::object()
                    .field("name", s.name.as_str())
                    .field("cat", side(s.side))
                    .field("ph", "X")
                    .field("ts", s.start_ns as f64 / 1e3)
                    .field("dur", s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)
                    .field("pid", if s.side == Side::Client { 1u64 } else { 2 })
                    .field("tid", s.lane)
                    .field("args", args),
            );
        }
        let chrome = JsonValue::object()
            .field("traceEvents", JsonValue::Array(events))
            .field("displayTimeUnit", "ms");
        let write = |name: String, body: String| {
            let path = dir.join(name);
            std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))
        };
        write(format!("{workload}.jsonl"), jsonl)?;
        write(format!("{workload}.chrome.json"), chrome.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            side: Side::Client,
            start_ns,
            end_ns,
            parent,
            op: Some(0),
            session: None,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let timeline = Timeline {
            spans: vec![
                span("op", 0, 100, None),
                // Overlapping children cover 10..60 once, not twice.
                span("a", 10, 50, Some(0)),
                span("b", 30, 60, Some(0)),
                // A child running past its parent counts only inside it.
                span("c", 90, 130, Some(0)),
                span("d", 40, 45, Some(1)),
            ],
            ops: 1,
        };
        let ns = |s: f64| (s * 1e9).round() as u64;
        let got: Vec<u64> = timeline.self_times().into_iter().map(ns).collect();
        assert_eq!(got, vec![100 - 50 - 10, 35, 30, 40, 5]);
    }
}
