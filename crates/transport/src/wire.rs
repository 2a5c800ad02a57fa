//! Wire abstractions: the [`Wire`] trait plus the in-memory [`SimLink`]
//! with virtual-clock accounting (used by the figure harnesses); the
//! socket implementation is [`StreamWire`](crate::StreamWire).

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::error::TransportError;
use crate::frame::Frame;
use crate::profile::LinkProfile;

/// Cumulative traffic counters for one wire endpoint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Messages sent from this endpoint.
    pub messages_sent: usize,
    /// Payload bytes sent (excluding frame headers).
    pub payload_bytes_sent: usize,
    /// Total encoded bytes sent (including frame headers).
    pub wire_bytes_sent: usize,
    /// Messages received by this endpoint.
    pub messages_received: usize,
    /// Payload bytes received.
    pub payload_bytes_received: usize,
    /// Total encoded bytes received.
    pub wire_bytes_received: usize,
}

impl TrafficStats {
    fn record_send(&mut self, f: &Frame) {
        self.messages_sent += 1;
        self.payload_bytes_sent += f.payload.len();
        self.wire_bytes_sent += f.encoded_len();
    }

    fn record_recv(&mut self, f: &Frame) {
        self.messages_received += 1;
        self.payload_bytes_received += f.payload.len();
        self.wire_bytes_received += f.encoded_len();
    }
}

/// A reliable, ordered, bidirectional message pipe.
pub trait Wire {
    /// Sends one frame to the peer.
    ///
    /// # Errors
    /// [`TransportError::Disconnected`] if the peer is gone.
    fn send(&mut self, frame: Frame) -> Result<(), TransportError>;

    /// Receives the next frame, blocking if the wire supports blocking.
    ///
    /// # Errors
    /// [`TransportError::Disconnected`] if the peer is gone and no
    /// messages remain; [`TransportError::Empty`] on an empty
    /// non-blocking wire.
    fn recv(&mut self) -> Result<Frame, TransportError>;

    /// Traffic counters for this endpoint.
    fn stats(&self) -> TrafficStats;
}

// ---------------------------------------------------------------------
// SimLink: same-thread simulated link with a virtual clock.
// ---------------------------------------------------------------------

/// Shared state of a simulated link.
struct SimShared {
    /// Messages in flight toward endpoint A.
    to_a: VecDeque<Frame>,
    /// Messages in flight toward endpoint B.
    to_b: VecDeque<Frame>,
    /// Virtual communication time accumulated over all messages.
    virtual_elapsed: Duration,
    /// Live endpoint count, for disconnect detection.
    endpoints: usize,
}

/// One endpoint of an in-memory simulated link.
///
/// `SimLink` is for *sequential* orchestration: the protocol driver
/// alternates between client and server in one thread, and the link
/// charges each message to a shared virtual clock according to its
/// [`LinkProfile`]. `recv` never blocks — an empty queue is a protocol
/// bug and surfaces as [`TransportError::Empty`].
pub struct SimLink {
    shared: Arc<Mutex<SimShared>>,
    profile: LinkProfile,
    /// True for the "A" endpoint.
    is_a: bool,
    stats: TrafficStats,
}

impl SimLink {
    /// Creates a connected pair of endpoints over `profile`.
    pub fn pair(profile: LinkProfile) -> (SimLink, SimLink) {
        let shared = Arc::new(Mutex::new(SimShared {
            to_a: VecDeque::new(),
            to_b: VecDeque::new(),
            virtual_elapsed: Duration::ZERO,
            endpoints: 2,
        }));
        let a = SimLink {
            shared: Arc::clone(&shared),
            profile: profile.clone(),
            is_a: true,
            stats: TrafficStats::default(),
        };
        let b = SimLink {
            shared,
            profile,
            is_a: false,
            stats: TrafficStats::default(),
        };
        (a, b)
    }

    /// Virtual communication time accumulated on this link so far
    /// (shared by both endpoints).
    pub fn virtual_elapsed(&self) -> Duration {
        self.shared.lock().virtual_elapsed
    }

    /// The link profile in effect.
    pub fn profile(&self) -> &LinkProfile {
        &self.profile
    }
}

impl Wire for SimLink {
    fn send(&mut self, frame: Frame) -> Result<(), TransportError> {
        let mut shared = self.shared.lock();
        if shared.endpoints < 2 {
            return Err(TransportError::Disconnected);
        }
        shared.virtual_elapsed += self.profile.message_time(frame.encoded_len());
        self.stats.record_send(&frame);
        if self.is_a {
            shared.to_b.push_back(frame);
        } else {
            shared.to_a.push_back(frame);
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Frame, TransportError> {
        let mut shared = self.shared.lock();
        let queue = if self.is_a {
            &mut shared.to_a
        } else {
            &mut shared.to_b
        };
        match queue.pop_front() {
            Some(f) => {
                self.stats.record_recv(&f);
                Ok(f)
            }
            None if shared.endpoints < 2 => Err(TransportError::Disconnected),
            None => Err(TransportError::Empty),
        }
    }

    fn stats(&self) -> TrafficStats {
        self.stats.clone()
    }
}

impl Drop for SimLink {
    fn drop(&mut self) {
        self.shared.lock().endpoints -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(t: u8, len: usize) -> Frame {
        Frame::new(t, vec![0u8; len]).unwrap()
    }

    #[test]
    fn simlink_delivers_in_order() {
        let (mut a, mut b) = SimLink::pair(LinkProfile::gigabit_lan());
        a.send(frame(1, 10)).unwrap();
        a.send(frame(2, 20)).unwrap();
        assert_eq!(b.recv().unwrap().msg_type, 1);
        assert_eq!(b.recv().unwrap().msg_type, 2);
        assert_eq!(b.recv(), Err(TransportError::Empty));
    }

    #[test]
    fn simlink_bidirectional() {
        let (mut a, mut b) = SimLink::pair(LinkProfile::gigabit_lan());
        a.send(frame(1, 1)).unwrap();
        b.send(frame(2, 2)).unwrap();
        assert_eq!(b.recv().unwrap().msg_type, 1);
        assert_eq!(a.recv().unwrap().msg_type, 2);
    }

    #[test]
    fn simlink_accumulates_virtual_time() {
        let profile = LinkProfile::modem_56k();
        let (mut a, mut b) = SimLink::pair(profile.clone());
        assert_eq!(a.virtual_elapsed(), Duration::ZERO);
        let f = frame(1, 128);
        let expect = profile.message_time(f.encoded_len());
        a.send(f).unwrap();
        assert_eq!(a.virtual_elapsed(), expect);
        assert_eq!(b.virtual_elapsed(), expect, "clock is shared");
        b.send(frame(2, 128)).unwrap();
        assert!(a.virtual_elapsed() > expect);
    }

    #[test]
    fn simlink_stats() {
        let (mut a, mut b) = SimLink::pair(LinkProfile::gigabit_lan());
        a.send(frame(1, 100)).unwrap();
        let _ = b.recv().unwrap();
        let sa = a.stats();
        assert_eq!(sa.messages_sent, 1);
        assert_eq!(sa.payload_bytes_sent, 100);
        assert!(sa.wire_bytes_sent > 100, "headers counted");
        let sb = b.stats();
        assert_eq!(sb.messages_received, 1);
        assert_eq!(sb.payload_bytes_received, 100);
    }

    #[test]
    fn simlink_disconnect() {
        let (mut a, b) = SimLink::pair(LinkProfile::gigabit_lan());
        drop(b);
        assert_eq!(a.send(frame(1, 1)), Err(TransportError::Disconnected));
        assert_eq!(a.recv(), Err(TransportError::Disconnected));
    }

    #[test]
    fn simlink_drains_before_disconnect_error() {
        let (mut a, mut b) = SimLink::pair(LinkProfile::gigabit_lan());
        a.send(frame(9, 1)).unwrap();
        drop(a);
        // The queued message is still deliverable.
        assert_eq!(b.recv().unwrap().msg_type, 9);
        assert_eq!(b.recv(), Err(TransportError::Disconnected));
    }
}
