//! Bounded, process-wide cache of per-database fold plans.
//!
//! A [`MultiExpPlan`](pps_bignum::MultiExpPlan) digit-decomposes every
//! database exponent once; the table then serves every fold against
//! that database. Building it is `O(n)` but not free (and at `n = 10⁵`
//! the table is ~800 KB), so the plan must be **built once and shared**
//! — across all concurrent TCP sessions, across the shard workers of a
//! partitioned deployment, and across sessions resumed from a
//! checkpoint. [`FoldPlanCache`] provides exactly that: a small LRU of
//! `Arc`-shared plans keyed by database identity.
//!
//! Identity is the `Arc<Database>` *allocation*, not the contents:
//! comparing contents would cost as much as rebuilding the plan, while
//! every component that shares a database already shares the `Arc`
//! (the TCP runtime clones one `Arc<Database>` into each connection
//! thread). Each entry holds a [`Weak`] back-reference and is only
//! considered live while `upgrade()` still yields **the same
//! allocation** (`Arc::ptr_eq`), so a dropped database can never alias
//! a new one that happens to reuse its address.

use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

use pps_bignum::MultiExpPlan;
use pps_obs::Gauge;

use crate::data::Database;
use crate::obs::FoldPlanObs;

/// Default number of distinct databases a cache retains plans for.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 8;

struct Entry {
    /// `Arc::as_ptr` of the database at insert time — the lookup key.
    key: usize,
    /// Liveness guard: the entry is valid only while this upgrades to
    /// the *same* allocation as the database being looked up.
    db: Weak<Database>,
    plan: Arc<MultiExpPlan>,
    /// The `pps_fold_plan_bytes` gauge of the registry that built the
    /// plan: it counts the table's bytes until the entry leaves the
    /// cache, whichever server's lookup sweeps or evicts it.
    bytes: Option<Arc<Gauge>>,
}

impl Entry {
    /// Returns the table's bytes to the gauge that counted them.
    fn release(&self) {
        if let Some(gauge) = &self.bytes {
            gauge.add(-(self.plan.table_bytes() as i64));
        }
    }
}

/// A bounded LRU cache mapping live `Arc<Database>` handles to their
/// shared [`MultiExpPlan`]s.
///
/// `get_or_build` returns the cached plan when the same database
/// (same `Arc` allocation) was seen before, and otherwise builds,
/// caches, and returns a new one, evicting the least-recently-used
/// entry once `capacity` distinct databases are held. All methods take
/// `&self`; the cache is internally synchronized and safe to share
/// behind an `Arc` from any number of threads.
pub struct FoldPlanCache {
    entries: Mutex<Vec<Entry>>,
    capacity: usize,
}

impl FoldPlanCache {
    /// An empty cache retaining plans for at most `capacity` databases.
    /// A capacity of 0 is treated as 1.
    pub fn new(capacity: usize) -> Self {
        FoldPlanCache {
            entries: Mutex::new(Vec::new()),
            capacity: capacity.max(1),
        }
    }

    /// The process-wide shared cache (capacity
    /// [`DEFAULT_PLAN_CACHE_CAPACITY`]). Every `TcpServer` uses this
    /// unless given its own cache, so co-hosted servers sharing one
    /// `Arc<Database>` also share one plan.
    pub fn global() -> &'static FoldPlanCache {
        static GLOBAL: std::sync::OnceLock<FoldPlanCache> = std::sync::OnceLock::new();
        GLOBAL.get_or_init(|| FoldPlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY))
    }

    /// The plan for `db`, building and caching it on first sight.
    ///
    /// When `obs` is provided, a build increments
    /// `pps_fold_plan_builds_total`, records its duration in
    /// `pps_fold_plan_build_seconds`, and adds the table's bytes to
    /// `pps_fold_plan_bytes`; a cache hit increments
    /// `pps_fold_plan_hits_total`. The bytes stay on the building
    /// registry's gauge until the entry is swept or evicted, whichever
    /// caller's lookup does it.
    pub fn get_or_build(&self, db: &Arc<Database>, obs: Option<&FoldPlanObs>) -> Arc<MultiExpPlan> {
        let key = Arc::as_ptr(db) as usize;
        let mut entries = self.entries.lock().expect("plan cache poisoned");

        // Drop entries whose database died; their address may be reused.
        entries.retain(|e| {
            let live = e.db.upgrade().is_some();
            if !live {
                e.release();
            }
            live
        });

        if let Some(pos) = entries
            .iter()
            .position(|e| e.key == key && e.db.upgrade().is_some_and(|live| Arc::ptr_eq(&live, db)))
        {
            let entry = entries.remove(pos);
            let plan = Arc::clone(&entry.plan);
            entries.push(entry); // move to most-recently-used
            if let Some(obs) = obs {
                obs.hits.inc();
            }
            return plan;
        }

        let start = Instant::now();
        let plan = Arc::new(MultiExpPlan::build(db.values()));
        let built = start.elapsed();
        if entries.len() >= self.capacity {
            entries.remove(0).release();
        }
        if let Some(obs) = obs {
            obs.builds.inc();
            obs.build_seconds.record_duration(built);
            obs.bytes.add(plan.table_bytes() as i64);
        }
        entries.push(Entry {
            key,
            db: Arc::downgrade(db),
            plan: Arc::clone(&plan),
            bytes: obs.map(|o| Arc::clone(&o.bytes)),
        });
        plan
    }

    /// Number of live cached plans (dead-database entries are counted
    /// until the next `get_or_build` sweeps them).
    pub fn len(&self) -> usize {
        self.entries.lock().expect("plan cache poisoned").len()
    }

    /// Whether the cache currently holds no plans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pps_obs::Registry;

    fn db(values: Vec<u64>) -> Arc<Database> {
        Arc::new(Database::new(values).unwrap())
    }

    #[test]
    fn second_lookup_is_a_hit_on_the_same_plan() {
        let cache = FoldPlanCache::new(4);
        let registry = Registry::new();
        let obs = FoldPlanObs::new(&registry);
        let d = db(vec![1, 2, 3]);
        let a = cache.get_or_build(&d, Some(&obs));
        let b = cache.get_or_build(&d, Some(&obs));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(obs.builds.get(), 1);
        assert_eq!(obs.hits.get(), 1);
        assert_eq!(obs.bytes.get(), a.table_bytes() as i64);
    }

    #[test]
    fn equal_contents_different_allocation_is_a_miss() {
        let cache = FoldPlanCache::new(4);
        let a = cache.get_or_build(&db(vec![5, 6]), None);
        let b = cache.get_or_build(&db(vec![5, 6]), None);
        assert!(!Arc::ptr_eq(&a, &b), "identity is the Arc, not contents");
    }

    #[test]
    fn dead_database_entry_is_swept_and_address_reuse_is_safe() {
        let cache = FoldPlanCache::new(4);
        let registry = Registry::new();
        let obs = FoldPlanObs::new(&registry);
        let d = db(vec![7, 8, 9]);
        let bytes = cache.get_or_build(&d, Some(&obs)).table_bytes();
        assert_eq!(obs.bytes.get(), bytes as i64);
        drop(d);
        // Next lookup sweeps the dead entry and releases its bytes.
        let fresh = db(vec![10, 11]);
        let plan = cache.get_or_build(&fresh, Some(&obs));
        assert_eq!(cache.len(), 1);
        assert_eq!(plan.rows(), 2);
        assert_eq!(obs.bytes.get(), plan.table_bytes() as i64);
        assert_eq!(obs.builds.get(), 2);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = FoldPlanCache::new(2);
        let registry = Registry::new();
        let obs = FoldPlanObs::new(&registry);
        let d1 = db(vec![1]);
        let d2 = db(vec![2, 2]);
        let d3 = db(vec![3, 3, 3]);
        let p1 = cache.get_or_build(&d1, Some(&obs));
        let p2 = cache.get_or_build(&d2, Some(&obs));
        // Touch d1 so d2 is the LRU entry when d3 arrives.
        cache.get_or_build(&d1, Some(&obs));
        let p3 = cache.get_or_build(&d3, Some(&obs));
        assert_eq!(cache.len(), 2);
        let expected = (p1.table_bytes() + p3.table_bytes()) as i64;
        assert_eq!(obs.bytes.get(), expected);
        drop(p2);
        // d2 was evicted: looking it up again rebuilds.
        cache.get_or_build(&d2, Some(&obs));
        assert_eq!(obs.builds.get(), 4);
    }

    #[test]
    fn bytes_are_released_on_the_registry_that_built_the_plan() {
        let cache = FoldPlanCache::new(4);
        let (reg_a, reg_b) = (Registry::new(), Registry::new());
        let (obs_a, obs_b) = (FoldPlanObs::new(&reg_a), FoldPlanObs::new(&reg_b));
        let a = db(vec![1, 2, 3, 4]);
        assert_eq!(cache.get_or_build(&a, Some(&obs_a)).table_bytes(), 4);
        drop(a);
        // B's lookup sweeps A's dead entry: the bytes leave A's gauge.
        let b = db(vec![5, 6]);
        let plan = cache.get_or_build(&b, Some(&obs_b));
        assert_eq!(obs_a.bytes.get(), 0);
        assert_eq!(obs_b.bytes.get(), plan.table_bytes() as i64);
        assert_eq!(plan.table_bytes(), 2);
    }

    #[test]
    fn global_cache_is_shared() {
        let d = db(vec![42, 43]);
        let a = FoldPlanCache::global().get_or_build(&d, None);
        let b = FoldPlanCache::global().get_or_build(&d, None);
        assert!(Arc::ptr_eq(&a, &b));
    }
}
