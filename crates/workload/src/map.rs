//! A read-dominated transactional hash-map workload.
//!
//! The bank benchmark is update-heavy (every transfer writes two
//! accounts), so it cannot show what the seqlock read fast path buys on
//! the workloads it targets. This workload
//! models a cache/lookup service instead: a [`TMap`] whose operations are
//!
//! * **lookup** (default 90 %) — a short read-only transaction probing one
//!   bucket;
//! * **update** — a short transaction rewriting one key's value in place;
//! * **scan** (a small slice of the non-lookup share) — a long read-only
//!   transaction walking every bucket, checking that it observes each key
//!   exactly once (a consistent snapshot).
//!
//! The map is seeded with `keys` entries spread over `buckets` buckets by
//! the container's own hash routing; per-bucket `TVar`s mean lookups and
//! updates of keys in different buckets never conflict, and one compiled
//! driver serves every engine behind `Arc<dyn DynStm>`. The final report
//! carries a `consistent` flag: `false` if any committed scan saw a torn
//! map.

use std::sync::Arc;
use std::time::Duration;

use zstm_api::DynStm;
use zstm_collections::TMap;
use zstm_core::{RetryPolicy, TxKind, TxStats};
use zstm_util::{run_window, XorShift64};

/// Configuration of the read-dominated map workload.
#[derive(Clone, Debug)]
pub struct MapConfig {
    /// Number of buckets (transactional variables).
    pub buckets: usize,
    /// Number of distinct keys seeded into the map.
    pub keys: usize,
    /// Percentage of operations that are pure lookups.
    pub lookup_pct: u8,
    /// Percentage of the *non-lookup* operations that are full scans
    /// (long read-only transactions); the rest are updates.
    pub scan_pct: u8,
    /// Worker threads.
    pub threads: usize,
    /// Wall-clock measurement duration.
    pub duration: Duration,
    /// PRNG seed.
    pub seed: u64,
}

impl MapConfig {
    /// The default shape: 256 buckets, 1024 keys, 90 % lookups, scans on
    /// 10 % of the remaining operations.
    pub fn new(threads: usize) -> Self {
        Self {
            buckets: 256,
            keys: 1024,
            lookup_pct: 90,
            scan_pct: 10,
            threads,
            duration: Duration::from_millis(500),
            seed: 0x4d41,
        }
    }

    /// Scaled-down variant for tests.
    pub fn quick(threads: usize) -> Self {
        Self {
            buckets: 32,
            keys: 64,
            duration: Duration::from_millis(60),
            ..Self::new(threads)
        }
    }
}

/// Result of one map-workload run.
#[derive(Clone, Debug)]
pub struct MapReport {
    /// Name of the STM that was measured.
    pub stm: &'static str,
    /// Worker threads used.
    pub threads: usize,
    /// Measured wall-clock duration.
    pub elapsed: Duration,
    /// Committed lookup transactions.
    pub lookups: u64,
    /// Committed update transactions.
    pub updates: u64,
    /// Committed scan transactions.
    pub scans: u64,
    /// Committed operations per second (all kinds).
    pub ops_per_sec: f64,
    /// Merged per-thread statistics (abort breakdown etc.).
    pub stats: TxStats,
    /// `true` iff every committed scan observed each key exactly once.
    pub consistent: bool,
}

impl MapReport {
    /// Total committed operations.
    pub fn commits(&self) -> u64 {
        self.lookups + self.updates + self.scans
    }

    /// Fraction of attempts that aborted.
    pub fn abort_ratio(&self) -> f64 {
        self.stats.abort_ratio()
    }
}

/// Runs the read-dominated map workload against `stm` — the erased
/// facade, so one compiled driver serves every engine (same convention
/// as [`run_bank`](crate::run_bank)).
/// The map is a [`TMap<u64, u64>`]: each bucket is one bytes variable of
/// the facade, so the conflict granularity is the container's bucket, not
/// the whole map.
pub fn run_map(stm: &Arc<dyn DynStm>, config: &MapConfig) -> MapReport {
    let map: TMap<u64, u64> = TMap::new(&**stm, config.buckets);
    // Seed: key k with value k * 3, one transaction (a quiescent seed
    // cannot conflict; the single commit is noise in the final stats).
    // Runs on a short-lived thread so its context lease recycles when
    // the thread exits — the driver needs exactly `config.threads`
    // leased contexts, all consumed by the workers below.
    std::thread::scope(|scope| {
        let seed = scope.spawn(|| {
            stm.atomically(TxKind::Long, &RetryPolicy::unbounded(), |tx| {
                for k in 0..config.keys as u64 {
                    map.insert(tx, &k, &(k * 3))?;
                }
                Ok(())
            })
            .expect("unbounded seed transaction");
        });
        seed.join().expect("seed thread");
    });
    // Benchmark path: explicitly unbounded (see RetryPolicy::default's
    // cap); scans stay bounded so a starved long scan cannot hang a sweep.
    let short_policy = RetryPolicy::unbounded();
    let scan_policy = RetryPolicy::unbounded().with_max_attempts(200);

    let (workers, elapsed) = run_window(config.threads, config.duration, |t, window| {
        let mut rng = XorShift64::new(config.seed.wrapping_add(t as u64 * 104_729));
        let mut lookups = 0u64;
        let mut updates = 0u64;
        let mut scans = 0u64;
        let mut consistent = true;
        while window.is_open() {
            if rng.next_percent(config.lookup_pct) {
                let key = rng.next_range(config.keys as u64);
                let found = stm.atomically(TxKind::Short, &short_policy, |tx| map.get(tx, &key));
                if let Ok(found) = found {
                    consistent &= found.is_some();
                    lookups += 1;
                }
            } else if rng.next_percent(config.scan_pct) {
                let seen = stm.atomically(TxKind::Long, &scan_policy, |tx| map.len(tx));
                if let Ok(seen) = seen {
                    // Updates rewrite values in place, so a consistent
                    // snapshot always holds exactly `keys` entries.
                    consistent &= seen == config.keys;
                    scans += 1;
                }
            } else {
                let key = rng.next_range(config.keys as u64);
                let value = rng.next_u64();
                let replaced = stm.atomically(TxKind::Short, &short_policy, |tx| {
                    map.insert(tx, &key, &value)
                });
                if let Ok(replaced) = replaced {
                    // Every update targets a seeded key, so it must
                    // replace, never grow the map.
                    consistent &= replaced.is_some();
                    updates += 1;
                }
            }
        }
        (lookups, updates, scans, consistent)
    });

    let mut lookups = 0u64;
    let mut updates = 0u64;
    let mut scans = 0u64;
    let mut consistent = true;
    for (l, u, s, ok) in workers {
        lookups += l;
        updates += u;
        scans += s;
        consistent &= ok;
    }
    // Worker threads have exited, so their cached leases are back in the
    // facade's free pool and the harvest sees every counter.
    let stats: TxStats = stm.take_stats();
    let commits = lookups + updates + scans;
    MapReport {
        stm: stm.name(),
        threads: config.threads,
        elapsed,
        lookups,
        updates,
        scans,
        ops_per_sec: commits as f64 / elapsed.as_secs_f64(),
        stats,
        consistent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zstm_api::Stm;
    use zstm_core::StmConfig;
    use zstm_lsa::LsaStm;

    #[test]
    fn map_runs_on_lsa() {
        let config = MapConfig::quick(2);
        let stm: Arc<dyn DynStm> = Arc::new(Stm::new(LsaStm::new(StmConfig::new(config.threads))));
        let report = run_map(&stm, &config);
        assert!(report.lookups > 0);
        assert!(report.consistent, "lookups and scans must be consistent");
    }

    #[test]
    fn seeded_values_survive_the_rewrite() {
        // The seed rule (`k -> k * 3`) is part of the workload's contract:
        // lookups count on every key being present from the start.
        let config = MapConfig::quick(1);
        let stm: Arc<dyn DynStm> = Arc::new(Stm::new(LsaStm::new(StmConfig::new(2))));
        let map: TMap<u64, u64> = TMap::new(&*stm, config.buckets);
        stm.atomically(TxKind::Long, &RetryPolicy::unbounded(), |tx| {
            for k in 0..config.keys as u64 {
                map.insert(tx, &k, &(k * 3))?;
            }
            Ok(())
        })
        .expect("seed");
        let (len, spot) = stm
            .atomically(TxKind::Short, &RetryPolicy::unbounded(), |tx| {
                Ok((map.len(tx)?, map.get(tx, &21)?))
            })
            .expect("read");
        assert_eq!(len, config.keys);
        assert_eq!(spot, Some(63));
    }
}
