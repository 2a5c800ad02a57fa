//! Transport-layer observability: registry-backed wire counters and a
//! blocked-time wrapper.
//!
//! Two complementary views of the same traffic:
//!
//! * [`WireMetrics`] — process-wide *counters* (frames/bytes in both
//!   directions, timeouts) attached to a [`StreamWire`](crate::StreamWire)
//!   via [`StreamWire::set_metrics`](crate::StreamWire::set_metrics) and
//!   shared through a [`Registry`], so every connection a server accepts
//!   feeds the same `/metrics` series.
//! * [`TimedWire`] — a per-connection *stopwatch* that accumulates the
//!   time the caller spends blocked inside `send`/`recv`. For a client
//!   this is exactly the paper's communication component (which, over a
//!   real network, necessarily includes the server's compute while the
//!   client awaits the product — the client cannot see across the wire).

use std::sync::Arc;
use std::time::{Duration, Instant};

use pps_obs::{names, Counter, Registry};

use crate::error::TransportError;
use crate::frame::Frame;
use crate::wire::{TrafficStats, Wire};

/// Shared wire counters. Cloning shares the underlying atomics, so one
/// `WireMetrics` can be handed to every connection of a server and the
/// registry sees the aggregate.
#[derive(Clone)]
pub struct WireMetrics {
    /// Frames written.
    pub frames_sent: Arc<Counter>,
    /// Payload bytes written.
    pub bytes_sent: Arc<Counter>,
    /// Frames read.
    pub frames_received: Arc<Counter>,
    /// Payload bytes read.
    pub bytes_received: Arc<Counter>,
    /// Send/recv operations that failed with
    /// [`TransportError::TimedOut`] (socket timeout or recv deadline).
    pub timeouts: Arc<Counter>,
}

impl WireMetrics {
    /// Counters registered under the canonical `pps_wire_*` names.
    pub fn from_registry(registry: &Registry) -> Self {
        WireMetrics {
            frames_sent: registry
                .counter(names::WIRE_FRAMES_SENT_TOTAL, "frames written to the wire"),
            bytes_sent: registry.counter(
                names::WIRE_BYTES_SENT_TOTAL,
                "payload bytes written to the wire",
            ),
            frames_received: registry.counter(
                names::WIRE_FRAMES_RECEIVED_TOTAL,
                "frames read from the wire",
            ),
            bytes_received: registry.counter(
                names::WIRE_BYTES_RECEIVED_TOTAL,
                "payload bytes read from the wire",
            ),
            timeouts: registry.counter(
                names::WIRE_TIMEOUTS_TOTAL,
                "wire operations that hit a timeout or expired deadline",
            ),
        }
    }

    pub(crate) fn on_send(&self, frame: &Frame) {
        self.frames_sent.inc();
        self.bytes_sent.add(frame.payload.len() as u64);
    }

    pub(crate) fn on_recv(&self, frame: &Frame) {
        self.frames_received.inc();
        self.bytes_received.add(frame.payload.len() as u64);
    }

    pub(crate) fn on_error(&self, error: &TransportError) {
        if matches!(error, TransportError::TimedOut) {
            self.timeouts.inc();
        }
    }
}

/// Wraps any [`Wire`] and accumulates the time the caller spends
/// blocked in `send` and `recv` — the client-observable communication
/// phase. Timing costs two `Instant::now()` calls per operation, which
/// is noise next to a socket round trip.
pub struct TimedWire<W> {
    inner: W,
    blocked: Duration,
}

impl<W> TimedWire<W> {
    /// Wraps `inner` with a zeroed stopwatch.
    pub fn new(inner: W) -> Self {
        TimedWire {
            inner,
            blocked: Duration::ZERO,
        }
    }

    /// Total time blocked on the wire (send + recv) so far.
    pub fn blocked(&self) -> Duration {
        self.blocked
    }
}

impl<W: Wire> Wire for TimedWire<W> {
    fn send(&mut self, frame: Frame) -> Result<(), TransportError> {
        let start = Instant::now();
        let result = self.inner.send(frame);
        self.blocked += start.elapsed();
        result
    }

    fn recv(&mut self) -> Result<Frame, TransportError> {
        let start = Instant::now();
        let result = self.inner.recv();
        self.blocked += start.elapsed();
        result
    }

    fn stats(&self) -> TrafficStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpWire;

    #[test]
    fn wire_metrics_count_frames_bytes_and_timeouts() {
        let registry = Registry::new();
        let metrics = WireMetrics::from_registry(&registry);
        let (mut a, mut b) = TcpWire::pair_loopback().unwrap();
        a.set_metrics(metrics.clone());
        b.set_metrics(metrics.clone());
        a.send(Frame::new(1, vec![0; 100]).unwrap()).unwrap();
        a.send(Frame::new(2, vec![0; 50]).unwrap()).unwrap();
        let _ = b.recv().unwrap();
        let _ = b.recv().unwrap();
        assert_eq!(metrics.frames_sent.get(), 2);
        assert_eq!(metrics.bytes_sent.get(), 150);
        assert_eq!(metrics.frames_received.get(), 2);
        assert_eq!(metrics.bytes_received.get(), 150);
        assert_eq!(metrics.timeouts.get(), 0);

        b.set_read_timeout(Some(Duration::from_millis(30))).unwrap();
        assert_eq!(b.recv(), Err(TransportError::TimedOut));
        assert_eq!(metrics.timeouts.get(), 1);

        let text = registry.render_prometheus();
        assert!(text.contains("pps_wire_bytes_sent_total 150"));
        assert!(text.contains("pps_wire_timeouts_total 1"));
    }

    #[test]
    fn timed_wire_accumulates_blocked_time() {
        let (a, b) = TcpWire::pair_loopback().unwrap();
        let mut a = TimedWire::new(a);
        let mut b = TimedWire::new(b);
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            a.send(Frame::new(1, vec![7; 8]).unwrap()).unwrap();
            a
        });
        let _ = b.recv().unwrap();
        assert!(
            b.blocked() >= Duration::from_millis(40),
            "recv blocked across the peer's sleep: {:?}",
            b.blocked()
        );
        let a = sender.join().unwrap();
        assert!(a.blocked() < Duration::from_millis(40));
        assert_eq!(a.stats().messages_sent, 1);
    }

    #[test]
    fn timed_wire_times_failures_too() {
        let (_a, mut b) = TcpWire::pair_loopback().unwrap();
        b.set_read_timeout(Some(Duration::from_millis(40))).unwrap();
        let mut b = TimedWire::new(b);
        assert_eq!(b.recv(), Err(TransportError::TimedOut));
        assert!(b.blocked() >= Duration::from_millis(30));
    }
}
