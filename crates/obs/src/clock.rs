//! Injectable time sources: the [`Clock`] trait with a real
//! implementation ([`RealClock`]) and a virtual one ([`VirtualClock`]).
//!
//! Everything in the workspace that *waits* — transport receive
//! deadlines, retry backoff sleeps, session TTLs, admission-queue
//! deadlines — takes its notion of "now" (and its ability to sleep)
//! from a [`SharedClock`] instead of calling `Instant::now()` /
//! `thread::sleep` directly. Production code keeps the [`RealClock`]
//! default and behaves exactly as before; the deterministic simulator
//! (`pps-sim`) and wall-time-sensitive tests inject a [`VirtualClock`]
//! whose time advances only when told to, so a thousand-client chaos
//! campaign with minutes of simulated backoff runs in milliseconds and
//! replays bit-identically from a seed.
//!
//! # Why `Instant` and not a numeric tick
//!
//! A virtual clock still hands out real [`Instant`] values: it captures
//! one anchor `Instant` at construction and returns `anchor + offset`
//! where `offset` is the virtual elapsed time. All existing deadline
//! arithmetic (`+ Duration`, `saturating_duration_since`, comparisons)
//! works unchanged, provided the code under a virtual clock never mixes
//! in a raw `Instant::now()` — which is exactly the discipline the
//! [`Clock`] trait enforces at the call sites.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A source of monotonic time and the ability to wait on it.
pub trait Clock: Send + Sync + fmt::Debug {
    /// The current instant according to this clock.
    fn now(&self) -> Instant;

    /// Blocks (really or virtually) for `d`. A [`RealClock`] calls
    /// `thread::sleep`; a [`VirtualClock`] advances its own time and
    /// returns immediately.
    fn sleep(&self, d: Duration);

    /// Whether this clock's time passes without the host's wall clock —
    /// `true` for virtual clocks. Code that must bound a *real* wait
    /// (e.g. a condvar timeout computed against a deadline) can use this
    /// to avoid blocking a thread on time that will never pass by
    /// itself.
    fn is_virtual(&self) -> bool {
        false
    }
}

/// Shared handle to a [`Clock`]; cheap to clone and store in configs.
pub type SharedClock = Arc<dyn Clock>;

/// The production clock: `Instant::now()` and `thread::sleep`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealClock;

impl Clock for RealClock {
    fn now(&self) -> Instant {
        Instant::now()
    }

    fn sleep(&self, d: Duration) {
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

/// The process-wide [`RealClock`] handle, for defaulting config fields
/// without allocating a fresh `Arc` each time.
pub fn real_clock() -> SharedClock {
    static REAL: OnceLock<SharedClock> = OnceLock::new();
    Arc::clone(REAL.get_or_init(|| Arc::new(RealClock)))
}

/// A deterministic clock whose time advances only via
/// [`VirtualClock::advance`] (or its own [`Clock::sleep`]).
///
/// Handed out as an `Arc<VirtualClock>`, one instance can be shared by
/// every component of a simulation — client backoff, server TTLs,
/// deadline sweeps — so a single `advance` moves the whole world
/// forward coherently.
pub struct VirtualClock {
    anchor: Instant,
    offset_ns: AtomicU64,
    /// Total virtual time slept via [`Clock::sleep`], for tests that
    /// assert backoff schedules without burning wall time.
    slept_ns: AtomicU64,
}

impl fmt::Debug for VirtualClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VirtualClock")
            .field("elapsed", &self.elapsed())
            .finish()
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        Self::new()
    }
}

impl VirtualClock {
    /// A virtual clock at elapsed time zero.
    pub fn new() -> Self {
        VirtualClock {
            anchor: Instant::now(),
            offset_ns: AtomicU64::new(0),
            slept_ns: AtomicU64::new(0),
        }
    }

    /// Virtual time elapsed since construction.
    pub fn elapsed(&self) -> Duration {
        Duration::from_nanos(self.offset_ns.load(Ordering::SeqCst))
    }

    /// Advances virtual time by `d`.
    pub fn advance(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.offset_ns.fetch_add(ns, Ordering::SeqCst);
    }

    /// Advances virtual time to `elapsed` since construction (no-op if
    /// time is already past it — virtual time is monotone too).
    pub fn advance_to(&self, elapsed: Duration) {
        let target = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.offset_ns.fetch_max(target, Ordering::SeqCst);
    }

    /// Total virtual time spent in [`Clock::sleep`] on this clock.
    pub fn slept(&self) -> Duration {
        Duration::from_nanos(self.slept_ns.load(Ordering::SeqCst))
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Instant {
        self.anchor + self.elapsed()
    }

    fn sleep(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.slept_ns.fetch_add(ns, Ordering::SeqCst);
        self.advance(d);
    }

    fn is_virtual(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_tracks_wall_time() {
        let c = RealClock;
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
        assert!(!c.is_virtual());
    }

    #[test]
    fn real_clock_handle_is_shared() {
        assert!(Arc::ptr_eq(&real_clock(), &real_clock()));
    }

    #[test]
    fn virtual_clock_advances_only_on_demand() {
        let c = VirtualClock::new();
        let t0 = c.now();
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(c.now(), t0, "wall time must not leak in");
        c.advance(Duration::from_secs(5));
        assert_eq!(c.now() - t0, Duration::from_secs(5));
        assert!(c.is_virtual());
    }

    #[test]
    fn virtual_sleep_is_instant_and_recorded() {
        let c = VirtualClock::new();
        let wall = Instant::now();
        c.sleep(Duration::from_secs(3600));
        assert!(wall.elapsed() < Duration::from_secs(5), "no real wait");
        assert_eq!(c.slept(), Duration::from_secs(3600));
        assert_eq!(c.elapsed(), Duration::from_secs(3600));
    }

    #[test]
    fn advance_to_is_monotone() {
        let c = VirtualClock::new();
        c.advance_to(Duration::from_millis(10));
        c.advance_to(Duration::from_millis(5));
        assert_eq!(c.elapsed(), Duration::from_millis(10));
        c.advance_to(Duration::from_millis(20));
        assert_eq!(c.elapsed(), Duration::from_millis(20));
    }

    #[test]
    fn deadline_arithmetic_works_on_virtual_instants() {
        let c = VirtualClock::new();
        let deadline = c.now() + Duration::from_millis(100);
        assert!(c.now() < deadline);
        c.advance(Duration::from_millis(100));
        assert!(c.now() >= deadline);
        assert_eq!(deadline.saturating_duration_since(c.now()), Duration::ZERO);
    }
}
