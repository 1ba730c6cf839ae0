use std::sync::Arc;
use std::time::Duration;

use zstm_api::{DynStm, DynVar};
use zstm_core::{RetryPolicy, TxKind, TxStats};
use zstm_util::{run_window, XorShift64};

/// Configuration of the random-array workload behind the plausible-clock,
/// contention-manager and certification figures: every transaction
/// touches `tx_size` random elements of an array of `objects` variables,
/// reading each and updating it with probability `write_pct`.
#[derive(Clone, Debug)]
pub struct ArrayConfig {
    /// Number of transactional variables.
    pub objects: usize,
    /// Accesses per transaction.
    pub tx_size: usize,
    /// Probability (percent) that an access also writes.
    pub write_pct: u8,
    /// Worker threads.
    pub threads: usize,
    /// Wall-clock measurement duration.
    pub duration: Duration,
    /// PRNG seed.
    pub seed: u64,
}

impl ArrayConfig {
    /// A moderate default: 256 objects, 4 accesses, 20 % writes.
    pub fn new(threads: usize) -> Self {
        Self {
            objects: 256,
            tx_size: 4,
            write_pct: 20,
            threads,
            duration: Duration::from_millis(500),
            seed: 0xa11a,
        }
    }

    /// Scaled-down variant for tests.
    pub fn quick(threads: usize) -> Self {
        Self {
            duration: Duration::from_millis(60),
            objects: 32,
            ..Self::new(threads)
        }
    }
}

/// Result of one array-workload run.
#[derive(Clone, Debug)]
pub struct ArrayReport {
    /// Name of the STM that was measured.
    pub stm: &'static str,
    /// Worker threads used.
    pub threads: usize,
    /// Measured wall-clock duration.
    pub elapsed: Duration,
    /// Committed transactions.
    pub commits: u64,
    /// Commits per second.
    pub commits_per_sec: f64,
    /// Merged per-thread statistics (abort breakdown etc.).
    pub stats: TxStats,
}

impl ArrayReport {
    /// Fraction of attempts that aborted.
    pub fn abort_ratio(&self) -> f64 {
        self.stats.abort_ratio()
    }
}

/// Runs the random-array workload against `stm` — the erased facade, so
/// one compiled driver serves every engine selected at runtime (same
/// convention as [`run_bank`](crate::run_bank) and every other workload
/// here). Leases `config.threads` logical threads from the facade's pool.
pub fn run_array(stm: &Arc<dyn DynStm>, config: &ArrayConfig) -> ArrayReport {
    let objects: Vec<DynVar> = (0..config.objects).map(|_| stm.new_i64(0)).collect();
    // Benchmark path: explicitly unbounded — under heavy contention the
    // observable outcome is throughput collapse, never RetryExhausted.
    let policy = RetryPolicy::unbounded();

    let (commits, elapsed) = run_window(config.threads, config.duration, |t, window| {
        let mut rng = XorShift64::new(config.seed.wrapping_add(t as u64 * 6271));
        let mut commits = 0u64;
        while window.is_open() {
            // Pre-draw the access pattern so the transaction body is
            // deterministic across retries.
            let picks: Vec<(usize, bool)> = (0..config.tx_size)
                .map(|_| {
                    (
                        rng.next_range(objects.len() as u64) as usize,
                        rng.next_percent(config.write_pct),
                    )
                })
                .collect();
            let result = stm.atomically(TxKind::Short, &policy, |tx| {
                for &(index, write) in &picks {
                    let value = tx.read_i64(&objects[index])?;
                    if write {
                        tx.write_i64(&objects[index], value + 1)?;
                    }
                }
                Ok(())
            });
            if result.is_ok() {
                commits += 1;
            }
        }
        commits
    });
    let commits: u64 = commits.into_iter().sum();
    // Worker threads have exited, so their cached leases are back in the
    // facade's free pool and the harvest sees every counter.
    let stats: TxStats = stm.take_stats();
    ArrayReport {
        stm: stm.name(),
        threads: config.threads,
        elapsed,
        commits,
        commits_per_sec: commits as f64 / elapsed.as_secs_f64(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zstm_api::Stm;
    use zstm_core::StmConfig;
    use zstm_cs::CsStm;
    use zstm_sstm::SStm;

    #[test]
    fn array_runs_on_cs_stm() {
        let config = ArrayConfig::quick(2);
        let stm: Arc<dyn DynStm> = Arc::new(Stm::new(CsStm::with_vector_clock(StmConfig::new(
            config.threads,
        ))));
        let report = run_array(&stm, &config);
        assert!(report.commits > 0);
        assert_eq!(report.stm, "cs");
        assert!(report.abort_ratio() < 1.0);
    }

    #[test]
    fn array_runs_on_plausible_cs_stm() {
        let config = ArrayConfig::quick(2);
        let stm: Arc<dyn DynStm> = Arc::new(Stm::new(CsStm::with_plausible_clock(
            StmConfig::new(config.threads),
            1,
        )));
        let report = run_array(&stm, &config);
        assert!(report.commits > 0);
    }

    #[test]
    fn array_runs_on_s_stm() {
        let config = ArrayConfig::quick(2);
        let stm: Arc<dyn DynStm> = Arc::new(Stm::new(SStm::with_vector_clock(StmConfig::new(
            config.threads,
        ))));
        let report = run_array(&stm, &config);
        assert!(report.commits > 0);
    }
}
