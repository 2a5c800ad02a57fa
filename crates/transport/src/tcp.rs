//! A real TCP transport: the same [`Wire`] interface over a socket, so
//! the protocol state machines can be exercised over an actual network
//! stack (loopback in tests, any address in deployments).
//!
//! The simulated [`SimLink`](crate::SimLink) remains the measurement
//! vehicle — real loopback timing says nothing about a 56 Kbps modem —
//! but running the identical client/server code over TCP demonstrates
//! that nothing in the protocol depends on the in-memory transports.
//!
//! [`StreamWire`] is generic over any blocking byte stream so the exact
//! framing/error logic that runs over a [`TcpStream`] in production can
//! be driven over a [`FaultyStream`](crate::FaultyStream) in tests.
//! [`TcpWire`] is the `TcpStream` instantiation.
//!
//! # Failure model
//!
//! Every I/O error is classified rather than flattened:
//!
//! * `WouldBlock` / `TimedOut` (an expired `SO_RCVTIMEO`/`SO_SNDTIMEO`
//!   deadline) → [`TransportError::TimedOut`];
//! * EOF, connection reset/aborted, broken pipe →
//!   [`TransportError::Disconnected`];
//! * `Interrupted` (EINTR) is **retried**, never surfaced;
//! * anything else → [`TransportError::Io`] with the OS message.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use bytes::BytesMut;
use pps_obs::{real_clock, SharedClock};

use crate::error::TransportError;
use crate::frame::Frame;
use crate::obs::WireMetrics;
use crate::wire::{TrafficStats, Wire};

/// A framed, blocking wire over any byte stream (see [`TcpWire`]).
pub struct StreamWire<S> {
    stream: S,
    /// Receive reassembly buffer.
    buf: BytesMut,
    stats: TrafficStats,
    /// Absolute deadline checked between reads inside `recv`, so a
    /// peer trickling bytes mid-frame cannot dodge eviction by
    /// restarting the per-read socket timer with every byte.
    recv_deadline: Option<std::time::Instant>,
    /// Time source the deadline is checked against — the real clock
    /// unless a simulator injected a virtual one.
    clock: SharedClock,
    /// Optional shared counters (frames, bytes, timeouts) — see
    /// [`StreamWire::set_metrics`].
    metrics: Option<WireMetrics>,
}

impl<S: std::fmt::Debug> std::fmt::Debug for StreamWire<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamWire")
            .field("stream", &self.stream)
            .field("buffered", &self.buf.len())
            .field("stats", &self.stats)
            .field("recv_deadline", &self.recv_deadline)
            .field("metrics", &self.metrics.is_some())
            .finish()
    }
}

/// The production instantiation of [`StreamWire`]: framing over a real
/// [`TcpStream`].
pub type TcpWire = StreamWire<TcpStream>;

impl<S> StreamWire<S> {
    /// Wraps an established stream.
    pub fn new(stream: S) -> Self {
        StreamWire {
            stream,
            buf: BytesMut::new(),
            stats: TrafficStats::default(),
            recv_deadline: None,
            clock: real_clock(),
            metrics: None,
        }
    }

    /// Replaces the time source the receive deadline is checked against
    /// (see [`StreamWire::set_recv_deadline`]). Deadline `Instant`s must
    /// come from the same clock; the deterministic simulator injects a
    /// virtual clock here so transport deadlines expire in virtual time.
    pub fn set_clock(&mut self, clock: SharedClock) {
        self.clock = clock;
    }

    /// Attaches shared [`WireMetrics`] counters: every frame sent or
    /// received (and every timeout) is counted there in addition to the
    /// per-connection [`TrafficStats`]. Metrics are process-wide and
    /// survive the wire; stats die with it.
    pub fn set_metrics(&mut self, metrics: WireMetrics) {
        self.metrics = Some(metrics);
    }

    /// Shared access to the underlying stream.
    pub fn get_ref(&self) -> &S {
        &self.stream
    }

    /// Arms (or with `None` disarms) an absolute receive deadline.
    ///
    /// Unlike a socket read timeout — which a slow-loris peer resets by
    /// delivering one byte per interval — this deadline is checked
    /// before every read inside [`Wire::recv`], bounding the total time
    /// a single frame may take to arrive. Once it passes, `recv` fails
    /// with [`TransportError::TimedOut`] (frames already buffered are
    /// still delivered). A blocking read in progress is not interrupted,
    /// so eviction lags by at most the socket read timeout, if one is
    /// armed.
    pub fn set_recv_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.recv_deadline = deadline;
    }
}

impl StreamWire<TcpStream> {
    /// Connects to a listening peer.
    ///
    /// # Errors
    /// [`TransportError::Io`] on connection failure.
    pub fn connect(addr: &str) -> Result<Self, TransportError> {
        let stream = TcpStream::connect(addr).map_err(|e| classify_io(&e))?;
        stream.set_nodelay(true).map_err(|e| classify_io(&e))?;
        Ok(Self::new(stream))
    }

    /// Creates a connected pair over an ephemeral loopback port: binds a
    /// listener, connects to it, and accepts — all on this thread.
    ///
    /// # Errors
    /// [`TransportError::Io`] on any socket failure.
    pub fn pair_loopback() -> Result<(TcpWire, TcpWire), TransportError> {
        let io = |e: std::io::Error| classify_io(&e);
        let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
        let addr = listener.local_addr().map_err(io)?;
        let client = TcpStream::connect(addr).map_err(io)?;
        client.set_nodelay(true).map_err(io)?;
        let (server, _) = listener.accept().map_err(io)?;
        server.set_nodelay(true).map_err(io)?;
        Ok((TcpWire::new(client), TcpWire::new(server)))
    }

    /// Arms (or with `None` disarms) the socket read deadline: a `recv`
    /// that waits longer than `timeout` for bytes fails with
    /// [`TransportError::TimedOut`].
    ///
    /// # Errors
    /// [`TransportError::Io`] when the OS rejects the option
    /// (`Some(Duration::ZERO)` is invalid at the socket layer).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        self.stream
            .set_read_timeout(timeout)
            .map_err(|e| classify_io(&e))
    }

    /// Arms (or disarms) the socket write deadline, the mirror of
    /// [`StreamWire::set_read_timeout`] for `send`.
    ///
    /// # Errors
    /// [`TransportError::Io`] when the OS rejects the option.
    pub fn set_write_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        self.stream
            .set_write_timeout(timeout)
            .map_err(|e| classify_io(&e))
    }
}

/// Maps an OS I/O error to the transport taxonomy: expired socket
/// deadlines become [`TransportError::TimedOut`], peer-gone conditions
/// become [`TransportError::Disconnected`], and everything else keeps
/// its OS message as [`TransportError::Io`]. `Interrupted` never
/// reaches this function — the read/write loops retry it.
fn classify_io(e: &std::io::Error) -> TransportError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => TransportError::TimedOut,
        ErrorKind::UnexpectedEof
        | ErrorKind::ConnectionReset
        | ErrorKind::ConnectionAborted
        | ErrorKind::BrokenPipe
        | ErrorKind::NotConnected => TransportError::Disconnected,
        _ => TransportError::Io(e.to_string()),
    }
}

impl<S: Read + Write> Wire for StreamWire<S> {
    fn send(&mut self, frame: Frame) -> Result<(), TransportError> {
        let encoded = frame.encode();
        // `write_all` retries `Interrupted` internally; everything else
        // is classified, not flattened to Disconnected.
        self.stream
            .write_all(&encoded)
            .map_err(|e| self.note_error(classify_io(&e)))?;
        self.stats_record_send(&frame);
        Ok(())
    }

    fn recv(&mut self) -> Result<Frame, TransportError> {
        loop {
            if let Some(frame) = Frame::decode(&mut self.buf)? {
                self.stats_record_recv(&frame);
                return Ok(frame);
            }
            if let Some(deadline) = self.recv_deadline {
                if self.clock.now() >= deadline {
                    return Err(self.note_error(TransportError::TimedOut));
                }
            }
            let mut chunk = [0u8; 8192];
            let n = match self.stream.read(&mut chunk) {
                Ok(n) => n,
                // EINTR: a signal landed mid-read; the stream is intact.
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(self.note_error(classify_io(&e))),
            };
            if n == 0 {
                return Err(TransportError::Disconnected);
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    fn stats(&self) -> TrafficStats {
        self.stats.clone()
    }
}

impl<S> StreamWire<S> {
    fn stats_record_send(&mut self, f: &Frame) {
        self.stats.messages_sent += 1;
        self.stats.payload_bytes_sent += f.payload.len();
        self.stats.wire_bytes_sent += f.encoded_len();
        if let Some(metrics) = &self.metrics {
            metrics.on_send(f);
        }
    }

    fn stats_record_recv(&mut self, f: &Frame) {
        self.stats.messages_received += 1;
        self.stats.payload_bytes_received += f.payload.len();
        self.stats.wire_bytes_received += f.encoded_len();
        if let Some(metrics) = &self.metrics {
            metrics.on_recv(f);
        }
    }

    fn note_error(&self, error: TransportError) -> TransportError {
        if let Some(metrics) = &self.metrics {
            metrics.on_error(&error);
        }
        error
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_round_trip() {
        let (mut a, mut b) = TcpWire::pair_loopback().unwrap();
        a.send(Frame::new(7, vec![1, 2, 3]).unwrap()).unwrap();
        let got = b.recv().unwrap();
        assert_eq!(got.msg_type, 7);
        assert_eq!(&got.payload[..], &[1, 2, 3]);
        // And back.
        b.send(Frame::new(8, vec![9]).unwrap()).unwrap();
        assert_eq!(a.recv().unwrap().msg_type, 8);
    }

    #[test]
    fn multiple_frames_reassembled() {
        let (mut a, mut b) = TcpWire::pair_loopback().unwrap();
        for i in 0..20u8 {
            a.send(Frame::new(i, vec![i; i as usize]).unwrap()).unwrap();
        }
        for i in 0..20u8 {
            let f = b.recv().unwrap();
            assert_eq!(f.msg_type, i);
            assert_eq!(f.payload.len(), i as usize);
        }
    }

    #[test]
    fn large_frame() {
        let (mut a, mut b) = TcpWire::pair_loopback().unwrap();
        let payload = vec![0xabu8; 1 << 20]; // 1 MiB
        let t = std::thread::spawn(move || {
            a.send(Frame::new(1, payload).unwrap()).unwrap();
            a // keep alive until received
        });
        let got = b.recv().unwrap();
        assert_eq!(got.payload.len(), 1 << 20);
        let _ = t.join().unwrap();
    }

    #[test]
    fn disconnect_detected() {
        let (a, mut b) = TcpWire::pair_loopback().unwrap();
        drop(a);
        assert_eq!(b.recv(), Err(TransportError::Disconnected));
    }

    #[test]
    fn read_deadline_surfaces_as_timed_out_not_disconnected() {
        let (_a, mut b) = TcpWire::pair_loopback().unwrap();
        b.set_read_timeout(Some(Duration::from_millis(40))).unwrap();
        let start = std::time::Instant::now();
        assert_eq!(b.recv(), Err(TransportError::TimedOut));
        assert!(start.elapsed() >= Duration::from_millis(40));
        // The peer is still alive: disarm the deadline and communicate.
        b.set_read_timeout(None).unwrap();
        let mut a = _a;
        a.send(Frame::new(3, vec![1]).unwrap()).unwrap();
        assert_eq!(b.recv().unwrap().msg_type, 3);
    }

    #[test]
    fn timeout_midframe_preserves_partial_buffer() {
        let (a, mut b) = TcpWire::pair_loopback().unwrap();
        // Send only part of a frame's bytes, raw.
        let f = Frame::new(9, vec![7u8; 64]).unwrap();
        let encoded = f.encode();
        let mut raw = a.stream;
        raw.write_all(&encoded[..10]).unwrap();
        b.set_read_timeout(Some(Duration::from_millis(40))).unwrap();
        assert_eq!(b.recv(), Err(TransportError::TimedOut));
        // Completing the frame later still decodes it — the partial
        // prefix was retained across the timeout.
        raw.write_all(&encoded[10..]).unwrap();
        b.set_read_timeout(None).unwrap();
        assert_eq!(b.recv().unwrap(), f);
    }

    #[test]
    fn stats_counted() {
        let (mut a, mut b) = TcpWire::pair_loopback().unwrap();
        a.send(Frame::new(1, vec![0; 100]).unwrap()).unwrap();
        let _ = b.recv().unwrap();
        assert_eq!(a.stats().messages_sent, 1);
        assert_eq!(a.stats().payload_bytes_sent, 100);
        assert_eq!(b.stats().messages_received, 1);
    }

    #[test]
    fn connect_failure_is_io_error() {
        // Port 1 on loopback is essentially never listening.
        let r = TcpWire::connect("127.0.0.1:1");
        assert!(matches!(r, Err(TransportError::Io(_))));
    }

    #[test]
    fn classification_taxonomy() {
        use std::io::Error;
        assert_eq!(
            classify_io(&Error::from(ErrorKind::WouldBlock)),
            TransportError::TimedOut
        );
        assert_eq!(
            classify_io(&Error::from(ErrorKind::TimedOut)),
            TransportError::TimedOut
        );
        for k in [
            ErrorKind::UnexpectedEof,
            ErrorKind::ConnectionReset,
            ErrorKind::ConnectionAborted,
            ErrorKind::BrokenPipe,
            ErrorKind::NotConnected,
        ] {
            assert_eq!(
                classify_io(&Error::from(k)),
                TransportError::Disconnected,
                "{k:?}"
            );
        }
        assert!(matches!(
            classify_io(&Error::from(ErrorKind::PermissionDenied)),
            TransportError::Io(_)
        ));
    }

    #[test]
    fn recv_deadline_evicts_a_midframe_trickler() {
        // The peer feeds one byte every 10 ms — each read succeeds, so a
        // per-read socket timeout never fires — but the absolute recv
        // deadline must still cut the session off.
        let (a, mut b) = TcpWire::pair_loopback().unwrap();
        let encoded = Frame::new(3, vec![9u8; 64]).unwrap().encode();
        let trickler = std::thread::spawn(move || {
            for byte in encoded {
                if a.get_ref().write_all(&[byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        b.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        b.set_recv_deadline(Some(std::time::Instant::now() + Duration::from_millis(100)));
        let start = std::time::Instant::now();
        assert_eq!(b.recv().unwrap_err(), TransportError::TimedOut);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "eviction is bounded by deadline + one read timeout"
        );
        drop(b);
        trickler.join().unwrap();

        // A frame already sitting in the reassembly buffer is still
        // delivered after expiry: send two back to back so the first
        // recv's read slurps both, then expire the deadline.
        let (mut c, mut d) = TcpWire::pair_loopback().unwrap();
        c.send(Frame::new(5, vec![1, 2]).unwrap()).unwrap();
        c.send(Frame::new(6, vec![3]).unwrap()).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(d.recv().unwrap().msg_type, 5);
        d.set_recv_deadline(Some(std::time::Instant::now() - Duration::from_millis(1)));
        assert_eq!(d.recv().unwrap().msg_type, 6);
        assert_eq!(d.recv().unwrap_err(), TransportError::TimedOut);
    }
}
