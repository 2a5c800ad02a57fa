//! The server's session-resumption table: bounded, TTL-evicted storage
//! for mid-stream fold checkpoints.
//!
//! A serving runtime stores a session's [`FoldCheckpoint`] when the
//! session's connection ends before the product (the session *parks*,
//! [`crate::SessionFlow::park`]). When a client reconnects with
//! `Resume { session_id, .. }`, the checkpoint is *taken* (removed) from
//! the table — two connections can never fold forward from the same
//! snapshot concurrently — and stored again only if the resumed
//! connection parks in turn. A `Resume` that arrives before the old
//! connection has been seen to end finds nothing and is declined.
//!
//! The table is deliberately hostile-input-safe:
//!
//! * **Bounded**: at capacity, the entry closest to expiry is evicted,
//!   so a flood of abandoned sessions cannot grow memory without limit.
//! * **TTL-evicted**: entries expire after [`ResumptionConfig::ttl`];
//!   expired entries are pruned on every touch.
//! * **Unguessable IDs**: session IDs come from the process CSPRNG
//!   (ChaCha12), never sequentially, so a stranger cannot hijack a
//!   checkpoint by counting.
//! * **Poison-recovering**: the interior lock recovers from poison — a
//!   panicked session thread can never wedge resumption for everyone
//!   else.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use pps_obs::{real_clock, SharedClock};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::server::FoldCheckpoint;

/// Tuning for the [`SessionTable`].
#[derive(Clone, Copy, Debug)]
pub struct ResumptionConfig {
    /// Maximum simultaneously-stored checkpoints. At capacity the entry
    /// closest to expiry is evicted to make room.
    pub capacity: usize,
    /// How long a checkpoint survives after it is stored (the session
    /// parked) without a client resuming it.
    pub ttl: Duration,
}

impl Default for ResumptionConfig {
    fn default() -> Self {
        ResumptionConfig {
            capacity: 1024,
            ttl: Duration::from_secs(120),
        }
    }
}

struct Entry {
    checkpoint: FoldCheckpoint,
    expires: Instant,
}

struct Inner {
    map: HashMap<u64, Entry>,
    rng: StdRng,
}

/// Bounded, TTL-evicted map from session ID to [`FoldCheckpoint`]: the
/// checkpoints of parked sessions, those whose connection ended before
/// the product. A live session has no entry.
pub struct SessionTable {
    inner: Mutex<Inner>,
    config: ResumptionConfig,
    evicted: AtomicU64,
    clock: SharedClock,
}

impl SessionTable {
    /// Creates a table with the given bounds, seeding its ID generator
    /// from OS entropy.
    pub fn new(config: ResumptionConfig) -> Self {
        Self::with_parts(config, StdRng::from_entropy(), real_clock())
    }

    /// Creates a table whose session IDs come from `seed` and whose TTL
    /// clock is `clock`. **Simulation/test only**: seeded IDs are
    /// guessable, which defeats the hijack resistance `new` provides —
    /// but they make a whole campaign bit-reproducible, and a virtual
    /// clock lets TTL expiry be driven instead of waited out.
    pub fn deterministic(config: ResumptionConfig, seed: u64, clock: SharedClock) -> Self {
        Self::with_parts(config, StdRng::seed_from_u64(seed), clock)
    }

    fn with_parts(config: ResumptionConfig, rng: StdRng, clock: SharedClock) -> Self {
        SessionTable {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                rng,
            }),
            config,
            evicted: AtomicU64::new(0),
            clock,
        }
    }

    /// Number of checkpoints evicted so far (capacity pressure plus TTL
    /// expiry); a checkpoint taken by a `Resume` is not an eviction.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Live checkpoint count (after pruning expired entries).
    pub fn len(&self) -> usize {
        let mut inner = self.lock();
        let evicted = Self::prune(&mut inner, self.clock.now());
        self.evicted.fetch_add(evicted, Ordering::Relaxed);
        inner.map.len()
    }

    /// True when no checkpoint is currently stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Draws a fresh, unguessable, nonzero session ID that is not
    /// currently in use.
    pub fn allocate(&self) -> u64 {
        let mut inner = self.lock();
        loop {
            let id = inner.rng.next_u64();
            if id != 0 && !inner.map.contains_key(&id) {
                return id;
            }
        }
    }

    /// Stores (or refreshes) the checkpoint for `id`, restarting its
    /// TTL. At capacity, the entry closest to expiry is evicted first.
    pub fn store(&self, id: u64, checkpoint: FoldCheckpoint) {
        let now = self.clock.now();
        let mut inner = self.lock();
        let mut evicted = Self::prune(&mut inner, now);
        while inner.map.len() >= self.config.capacity && !inner.map.contains_key(&id) {
            let Some(oldest) = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.expires)
                .map(|(&id, _)| id)
            else {
                break;
            };
            inner.map.remove(&oldest);
            evicted += 1;
        }
        inner.map.insert(
            id,
            Entry {
                checkpoint,
                expires: now + self.config.ttl,
            },
        );
        drop(inner);
        self.evicted.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Takes (removes and returns) the checkpoint for `id`. Removal is
    /// what makes a grant exclusive: a second `Resume` for the same ID
    /// finds nothing until the resumed connection parks in turn.
    pub fn take(&self, id: u64) -> Option<FoldCheckpoint> {
        let mut inner = self.lock();
        let evicted = Self::prune(&mut inner, self.clock.now());
        let hit = inner.map.remove(&id).map(|e| e.checkpoint);
        drop(inner);
        self.evicted.fetch_add(evicted, Ordering::Relaxed);
        hit
    }

    /// Removes expired entries; returns how many were dropped.
    fn prune(inner: &mut Inner, now: Instant) -> u64 {
        let before = inner.map.len();
        inner.map.retain(|_, e| e.expires > now);
        (before - inner.map.len()) as u64
    }

    /// Locks the table, recovering from poison: the map and RNG are
    /// valid at every await-free point, so a panicked holder leaves
    /// nothing half-written worth dying over.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl Default for SessionTable {
    fn default() -> Self {
        Self::new(ResumptionConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Database;
    use crate::messages::{Hello, IndexBatch};
    use crate::ServerSession;
    use pps_crypto::PaillierKeypair;
    use rand::rngs::StdRng as TestRng;
    use rand::SeedableRng;

    fn checkpoint() -> FoldCheckpoint {
        let mut rng = TestRng::seed_from_u64(5150);
        let kp = PaillierKeypair::generate(128, &mut rng).unwrap();
        let db = Database::new(vec![1, 2, 3, 4]).unwrap();
        let mut s = ServerSession::new(&db);
        s.on_frame(
            &Hello {
                modulus: kp.public.n().clone(),
                total: 4,
                batch_size: 2,
                trace: None,
            }
            .encode()
            .unwrap(),
        )
        .unwrap();
        let cts = (0..2)
            .map(|i| kp.public.encrypt_u64(i % 2, &mut rng).unwrap())
            .collect();
        s.on_frame(
            &IndexBatch {
                seq: 0,
                ciphertexts: cts,
            }
            .encode(&kp.public)
            .unwrap(),
        )
        .unwrap();
        s.checkpoint().unwrap()
    }

    #[test]
    fn ids_are_nonzero_and_distinct() {
        let table = SessionTable::default();
        let ids: Vec<u64> = (0..64).map(|_| table.allocate()).collect();
        assert!(ids.iter().all(|&id| id != 0));
        let unique: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len());
    }

    #[test]
    fn take_is_exclusive() {
        let table = SessionTable::default();
        let cp = checkpoint();
        let id = table.allocate();
        table.store(id, cp);
        assert_eq!(table.len(), 1);
        assert!(table.take(id).is_some());
        assert!(table.take(id).is_none(), "second take finds nothing");
        assert_eq!(table.evicted(), 0, "takes are not evictions");
    }

    #[test]
    fn ttl_expires_checkpoints() {
        let table = SessionTable::new(ResumptionConfig {
            capacity: 8,
            ttl: Duration::from_millis(25),
        });
        let id = table.allocate();
        table.store(id, checkpoint());
        std::thread::sleep(Duration::from_millis(60));
        assert!(table.take(id).is_none(), "expired checkpoint is gone");
        assert_eq!(table.evicted(), 1);
    }

    #[test]
    fn capacity_evicts_the_entry_closest_to_expiry() {
        let table = SessionTable::new(ResumptionConfig {
            capacity: 2,
            ttl: Duration::from_secs(60),
        });
        let cp = checkpoint();
        let (a, b, c) = (table.allocate(), table.allocate(), table.allocate());
        table.store(a, cp.clone());
        std::thread::sleep(Duration::from_millis(5));
        table.store(b, cp.clone());
        std::thread::sleep(Duration::from_millis(5));
        table.store(c, cp);
        assert_eq!(table.len(), 2);
        assert_eq!(table.evicted(), 1);
        assert!(table.take(a).is_none(), "oldest was evicted");
        assert!(table.take(b).is_some());
        assert!(table.take(c).is_some());
    }

    #[test]
    fn restore_refreshes_instead_of_evicting() {
        let table = SessionTable::new(ResumptionConfig {
            capacity: 1,
            ttl: Duration::from_secs(60),
        });
        let cp = checkpoint();
        let id = table.allocate();
        table.store(id, cp.clone());
        // Re-storing the same session at capacity must not evict it.
        table.store(id, cp);
        assert_eq!(table.len(), 1);
        assert_eq!(table.evicted(), 0);
        assert!(table.take(id).is_some());
    }

    #[test]
    fn deterministic_table_replays_ids_and_expires_virtually() {
        use pps_obs::VirtualClock;
        use std::sync::Arc;

        let config = ResumptionConfig {
            capacity: 8,
            ttl: Duration::from_secs(120),
        };
        let a = SessionTable::deterministic(config, 7, Arc::new(VirtualClock::new()));
        let b = SessionTable::deterministic(config, 7, Arc::new(VirtualClock::new()));
        let ids_a: Vec<u64> = (0..16).map(|_| a.allocate()).collect();
        let ids_b: Vec<u64> = (0..16).map(|_| b.allocate()).collect();
        assert_eq!(ids_a, ids_b, "same seed, same ID sequence");

        // TTL expiry driven by the virtual clock — no wall waiting.
        let clock = Arc::new(VirtualClock::new());
        let table = SessionTable::deterministic(config, 9, clock.clone());
        let id = table.allocate();
        table.store(id, checkpoint());
        clock.advance(Duration::from_secs(119));
        assert_eq!(table.len(), 1, "one second short of the TTL");
        clock.advance(Duration::from_secs(2));
        assert!(table.take(id).is_none(), "expired in virtual time");
        assert_eq!(table.evicted(), 1);
    }
}
