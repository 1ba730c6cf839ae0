//! The read-hotspot microbenchmark: every thread hammers **one** hot
//! transactional variable with short read-only transactions.
//!
//! This is the pure read-path stress the bank and map workloads cannot
//! produce (they spread accesses over many objects): a single cache-hot
//! variable read by every thread, so the per-read synchronization cost —
//! mutex vs lock-free publication — dominates the measurement. Thread 0
//! doubles as an occasional writer (one update transaction every
//! [`HotspotConfig::write_every`] operations) so the fast path also pays
//! its interference/fallback cost instead of benchmarking an immutable
//! object.
//!
//! The hot value is a `(u64, u64)` pair with the invariant
//! `pair.1 == pair.0 * 3`; every committed read checks it, so a torn
//! publication shows up as `consistent == false` rather than a silently
//! wrong number.
//!
//! Unlike every other workload in this crate, [`run_read_hotspot`] stays
//! **monomorphized** over [`TmFactory`] instead of taking the erased
//! `Arc<dyn DynStm>`: the measurement's whole point is the per-read cost
//! of the *engine's* read path — an erased wrapper would add a fixed
//! virtual-dispatch tax to the very quantity under test.

use std::sync::Arc;
use std::time::Duration;

use zstm_core::{atomically, RetryPolicy, TmFactory, TmThread, TmTx, TxKind, TxStats};
use zstm_util::run_window;

/// Configuration of the read-hotspot workload.
#[derive(Clone, Debug)]
pub struct HotspotConfig {
    /// Worker threads (all read; thread 0 also writes).
    pub threads: usize,
    /// Thread 0 commits one update transaction every `write_every`
    /// operations (`0` disables writes entirely).
    pub write_every: u64,
    /// Wall-clock measurement duration.
    pub duration: Duration,
}

impl HotspotConfig {
    /// The default shape: an update on the hot variable every 64 ops of
    /// thread 0.
    pub fn new(threads: usize) -> Self {
        Self {
            threads,
            write_every: 64,
            duration: Duration::from_millis(500),
        }
    }

    /// Scaled-down variant for tests.
    pub fn quick(threads: usize) -> Self {
        Self {
            duration: Duration::from_millis(60),
            ..Self::new(threads)
        }
    }
}

/// Result of one read-hotspot run.
#[derive(Clone, Debug)]
pub struct HotspotReport {
    /// Name of the STM that was measured.
    pub stm: &'static str,
    /// Worker threads used.
    pub threads: usize,
    /// Measured wall-clock duration.
    pub elapsed: Duration,
    /// Committed read transactions.
    pub reads: u64,
    /// Committed update transactions (thread 0).
    pub writes: u64,
    /// Committed read transactions per second — the figure's y value.
    pub reads_per_sec: f64,
    /// Merged per-thread statistics (abort breakdown etc.).
    pub stats: TxStats,
    /// `true` iff every committed read observed the pair invariant.
    pub consistent: bool,
}

/// Runs the read-hotspot workload against `stm`. Registers
/// `config.threads` logical threads.
pub fn run_read_hotspot<F: TmFactory>(stm: &Arc<F>, config: &HotspotConfig) -> HotspotReport {
    let hot = stm.new_var((0u64, 0u64));
    // Benchmark path: explicitly unbounded (see RetryPolicy::default's cap).
    let policy = RetryPolicy::unbounded();

    let (workers, elapsed) = run_window(config.threads, config.duration, |t, window| {
        let mut thread = stm.register_thread();
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut consistent = true;
        let mut op = 0u64;
        while window.is_open() {
            op += 1;
            if t == 0 && config.write_every != 0 && op % config.write_every == 0 {
                let committed = atomically(&mut thread, TxKind::Short, &policy, |tx| {
                    let (n, _) = tx.read(&hot)?;
                    tx.write(&hot, (n + 1, (n + 1) * 3))
                });
                if committed.is_ok() {
                    writes += 1;
                }
            } else {
                let seen = atomically(&mut thread, TxKind::Short, &policy, |tx| tx.read(&hot));
                if let Ok((n, check)) = seen {
                    consistent &= check == n * 3;
                    reads += 1;
                }
            }
        }
        (reads, writes, consistent, thread.take_stats())
    });

    let mut reads = 0u64;
    let mut writes = 0u64;
    let mut consistent = true;
    let mut stats = TxStats::new();
    for (r, w, ok, thread_stats) in workers {
        reads += r;
        writes += w;
        consistent &= ok;
        stats.merge(&thread_stats);
    }
    HotspotReport {
        stm: stm.name(),
        threads: config.threads,
        elapsed,
        reads,
        writes,
        reads_per_sec: reads as f64 / elapsed.as_secs_f64(),
        stats,
        consistent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zstm_core::StmConfig;
    use zstm_cs::CsStm;
    use zstm_lsa::LsaStm;
    use zstm_sstm::SStm;
    use zstm_tl2::Tl2Stm;
    use zstm_z::ZStm;

    fn assert_hot<F: TmFactory>(stm: Arc<F>) {
        let report = run_read_hotspot(&stm, &HotspotConfig::quick(2));
        assert!(report.reads > 0, "{}: no reads committed", report.stm);
        assert!(report.consistent, "{}: torn hot read", report.stm);
    }

    #[test]
    fn hotspot_runs_on_every_stm() {
        assert_hot(Arc::new(LsaStm::new(StmConfig::new(2))));
        assert_hot(Arc::new(Tl2Stm::new(StmConfig::new(2))));
        assert_hot(Arc::new(CsStm::with_vector_clock(StmConfig::new(2))));
        assert_hot(Arc::new(SStm::with_vector_clock(StmConfig::new(2))));
        assert_hot(Arc::new(ZStm::new(StmConfig::new(2))));
    }
}
