//! Scenario definitions: named, versioned campaign shapes.
//!
//! A [`Scenario`] fixes everything about a campaign except the seed:
//! the database, the population mix (how many clients of each
//! [`Behavior`](crate::actor::Behavior) class), the link profiles,
//! partition windows, fault dials, and server limits. `pps sim run
//! --scenario <name> --seed <s>` replays any of them bit-identically.

use std::time::Duration;

use pps_transport::LinkProfile;

/// How the population's link profiles are assigned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkMix {
    /// Everyone on the paper's gigabit LAN profile.
    Lan,
    /// Everyone on the paper's 56 Kbps modem profile.
    Modem,
    /// Clients alternate between the two profiles (even ids LAN, odd
    /// ids modem) — the mixed campaign exercises both media at once.
    Alternating,
}

impl LinkMix {
    /// The profile for client `id` under this mix.
    pub fn profile_for(self, id: usize) -> LinkProfile {
        match self {
            LinkMix::Lan => LinkProfile::gigabit_lan(),
            LinkMix::Modem => LinkProfile::modem_56k(),
            LinkMix::Alternating => {
                if id.is_multiple_of(2) {
                    LinkProfile::gigabit_lan()
                } else {
                    LinkProfile::modem_56k()
                }
            }
        }
    }
}

/// A network partition window: clients whose `id % stripe == residue`
/// lose the server between `start` and `end` (virtual time).
#[derive(Clone, Copy, Debug)]
pub struct PartitionWindow {
    /// Window start, virtual time since campaign start.
    pub start: Duration,
    /// Window end.
    pub end: Duration,
    /// Stripe modulus selecting affected clients.
    pub stripe: usize,
    /// Stripe residue selecting affected clients.
    pub residue: usize,
}

impl PartitionWindow {
    /// Whether this window cuts off client `id`.
    pub fn affects(&self, id: usize) -> bool {
        self.stripe > 0 && id % self.stripe == self.residue
    }
}

/// Population mix: counts per behavior class. Classes not exercised by
/// a scenario are zero.
#[derive(Clone, Copy, Debug, Default)]
pub struct Population {
    /// Clean protocol runs, checked against the plaintext oracle.
    pub honest: usize,
    /// Disconnect mid-stream, reconnect, resume from the checkpoint.
    pub churning: usize,
    /// Corrupt frame bytes (magic flips, length inflation, garbage).
    pub byzantine: usize,
    /// Send structurally invalid `Hello` frames.
    pub malformed_hello: usize,
    /// Send geometry-violating `ShardHello` frames.
    pub malformed_shard: usize,
    /// Replay a duplicate batch sequence number.
    pub replay_dup: usize,
    /// Skip a batch sequence number (gap).
    pub replay_gap: usize,
    /// Trickle a handshake byte-by-byte forever.
    pub slow_loris: usize,
}

impl Population {
    /// Total client count.
    pub fn total(&self) -> usize {
        self.honest
            + self.churning
            + self.byzantine
            + self.malformed_hello
            + self.malformed_shard
            + self.replay_dup
            + self.replay_gap
            + self.slow_loris
    }

    /// Scales every class by `target_total / total`, keeping at least
    /// one member of every class that was nonzero (so a small CI
    /// profile still exercises every behavior).
    pub fn scaled_to(&self, target_total: usize) -> Population {
        let total = self.total().max(1);
        let scale = |n: usize| {
            if n == 0 {
                0
            } else {
                (n * target_total / total).max(1)
            }
        };
        Population {
            honest: scale(self.honest),
            churning: scale(self.churning),
            byzantine: scale(self.byzantine),
            malformed_hello: scale(self.malformed_hello),
            malformed_shard: scale(self.malformed_shard),
            replay_dup: scale(self.replay_dup),
            replay_gap: scale(self.replay_gap),
            slow_loris: scale(self.slow_loris),
        }
    }
}

/// A named campaign shape. Fields not listed per-scenario use the
/// defaults in `Scenario::base`.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Registry name (`pps sim run --scenario <name>`).
    pub name: &'static str,
    /// One-line description for `pps sim list`.
    pub about: &'static str,
    /// Client population mix.
    pub population: Population,
    /// Link profile assignment.
    pub links: LinkMix,
    /// Database size (rows). Every client selects a deterministic
    /// subset of these rows.
    pub db_rows: usize,
    /// Indices per `IndexBatch`.
    pub batch_size: usize,
    /// Paillier key width for the campaign key pool (kept small — the
    /// sim measures protocol robustness, not crypto throughput).
    pub key_bits: usize,
    /// Checkpoint TTL for the server's resumption table.
    pub resume_ttl: Duration,
    /// Per-session virtual wall budget (evicts slow-loris flows).
    pub session_deadline: Option<Duration>,
    /// Concurrent-session cap; excess connections are refused and the
    /// client retries with backoff. `None` = unbounded.
    pub max_concurrent: Option<usize>,
    /// Partition windows.
    pub partitions: Vec<PartitionWindow>,
    /// Per-send reset probability, parts per million.
    pub drop_per_million: u32,
    /// Propagation jitter ceiling, parts per million of latency.
    pub jitter_per_million: u32,
    /// Number of 3-leg blinded shard groups (each leg queries one
    /// horizontal partition of the database through a shard-gated
    /// server; the oracle recombines the blinded partials).
    pub shard_groups: usize,
}

impl Scenario {
    fn base(name: &'static str, about: &'static str) -> Self {
        Scenario {
            name,
            about,
            population: Population::default(),
            links: LinkMix::Lan,
            db_rows: 24,
            batch_size: 6,
            key_bits: 128,
            resume_ttl: Duration::from_secs(120),
            session_deadline: Some(Duration::from_secs(30)),
            max_concurrent: None,
            partitions: Vec::new(),
            drop_per_million: 0,
            jitter_per_million: 0,
            shard_groups: 0,
        }
    }

    /// The full scenario registry, in matrix order.
    pub fn registry() -> Vec<Scenario> {
        vec![
            Scenario {
                population: Population {
                    honest: 64,
                    ..Population::default()
                },
                ..Scenario::base("clean_lan", "clean executions on the gigabit LAN profile")
            },
            Scenario {
                population: Population {
                    honest: 24,
                    ..Population::default()
                },
                links: LinkMix::Modem,
                ..Scenario::base(
                    "clean_modem",
                    "clean executions on the 56 Kbps modem profile",
                )
            },
            Scenario {
                population: Population {
                    honest: 40,
                    churning: 24,
                    ..Population::default()
                },
                ..Scenario::base(
                    "churn",
                    "clients disconnect mid-stream and resume from checkpoints",
                )
            },
            Scenario {
                population: Population {
                    honest: 32,
                    byzantine: 12,
                    malformed_hello: 8,
                    malformed_shard: 6,
                    replay_dup: 6,
                    replay_gap: 6,
                    ..Population::default()
                },
                ..Scenario::base(
                    "byzantine",
                    "frame corruption, malformed handshakes, and seq replays",
                )
            },
            Scenario {
                population: Population {
                    honest: 24,
                    slow_loris: 12,
                    ..Population::default()
                },
                session_deadline: Some(Duration::from_secs(2)),
                max_concurrent: Some(16),
                ..Scenario::base(
                    "slow_loris",
                    "byte-trickling floods against the session deadline",
                )
            },
            Scenario {
                population: Population {
                    honest: 48,
                    ..Population::default()
                },
                partitions: vec![PartitionWindow {
                    start: Duration::from_millis(200),
                    end: Duration::from_secs(3),
                    stripe: 2,
                    residue: 0,
                }],
                ..Scenario::base(
                    "partition",
                    "half the population loses the server, retries, resumes",
                )
            },
            Scenario {
                shard_groups: 4,
                ..Scenario::base(
                    "shard",
                    "3-leg blinded shard groups against shard-gated servers",
                )
            },
            Scenario {
                population: Population {
                    honest: 1200,
                    churning: 320,
                    byzantine: 160,
                    malformed_hello: 80,
                    malformed_shard: 40,
                    replay_dup: 60,
                    replay_gap: 60,
                    slow_loris: 80,
                },
                links: LinkMix::Alternating,
                db_rows: 12,
                batch_size: 4,
                session_deadline: Some(Duration::from_secs(20)),
                max_concurrent: Some(512),
                partitions: vec![PartitionWindow {
                    start: Duration::from_secs(1),
                    end: Duration::from_secs(6),
                    stripe: 5,
                    residue: 2,
                }],
                jitter_per_million: 100_000,
                ..Scenario::base(
                    "mixed",
                    "2k clients: churn + byzantine + partition on both link profiles",
                )
            },
        ]
    }

    /// Looks a scenario up by name.
    pub fn by_name(name: &str) -> Option<Scenario> {
        Scenario::registry().into_iter().find(|s| s.name == name)
    }

    /// This scenario with its population scaled to roughly
    /// `target_total` clients (the CI matrix's small profile).
    #[must_use]
    pub fn with_population(mut self, target_total: usize) -> Self {
        self.population = self.population.scaled_to(target_total);
        self
    }

    /// The database values: deterministic, small, and distinct enough
    /// that wrong sums cannot collide by accident.
    pub fn db_values(&self) -> Vec<u64> {
        (0..self.db_rows).map(|i| (i as u64) * 7 + 3).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let reg = Scenario::registry();
        for s in &reg {
            assert_eq!(Scenario::by_name(s.name).unwrap().name, s.name);
        }
        let mut names: Vec<_> = reg.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), reg.len());
    }

    #[test]
    fn scaling_keeps_every_nonzero_class() {
        let mixed = Scenario::by_name("mixed").unwrap();
        let small = mixed.clone().with_population(100);
        assert!(small.population.total() <= 120);
        assert!(small.population.byzantine >= 1);
        assert!(small.population.slow_loris >= 1);
        assert!(small.population.replay_gap >= 1);
    }

    #[test]
    fn partition_windows_stripe_the_population() {
        let w = PartitionWindow {
            start: Duration::ZERO,
            end: Duration::from_secs(1),
            stripe: 2,
            residue: 0,
        };
        assert!(w.affects(0));
        assert!(!w.affects(1));
    }
}
