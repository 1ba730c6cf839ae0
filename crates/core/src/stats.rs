use core::fmt;

use crate::{AbortReason, TxKind};

/// Per-thread transaction statistics.
///
/// Every [`crate::TmThread`] owns one of these and updates it without
/// synchronization; the workload harness merges the per-thread values after
/// the measurement interval. Commits and aborts are broken down by
/// [`TxKind`] because the paper's evaluation plots long (Compute-Total) and
/// short (transfer) throughput separately.
///
/// # Examples
///
/// ```
/// use zstm_core::{AbortReason, TxKind, TxStats};
///
/// let mut stats = TxStats::default();
/// stats.record_commit(TxKind::Short);
/// stats.record_abort(TxKind::Long, AbortReason::ReadValidation);
/// assert_eq!(stats.commits(TxKind::Short), 1);
/// assert_eq!(stats.total_aborts(), 1);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct TxStats {
    commits_short: u64,
    commits_long: u64,
    aborts_short: u64,
    aborts_long: u64,
    aborts_by_reason: [u64; AbortReason::ALL.len()],
    reads: u64,
    writes: u64,
    retries_exhausted: u64,
    condvar_parks: u64,
    waker_parks: u64,
}

impl TxStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a committed transaction of the given kind.
    pub fn record_commit(&mut self, kind: TxKind) {
        match kind {
            TxKind::Short => self.commits_short += 1,
            TxKind::Long => self.commits_long += 1,
        }
    }

    /// Records an aborted transaction attempt.
    pub fn record_abort(&mut self, kind: TxKind, reason: AbortReason) {
        match kind {
            TxKind::Short => self.aborts_short += 1,
            TxKind::Long => self.aborts_long += 1,
        }
        self.aborts_by_reason[reason.index()] += 1;
    }

    /// Records a transactional read.
    pub fn record_read(&mut self) {
        self.reads += 1;
    }

    /// Records a transactional write.
    pub fn record_write(&mut self) {
        self.writes += 1;
    }

    /// Records an atomic block that gave up after exhausting its retries.
    pub fn record_retry_exhausted(&mut self) {
        self.retries_exhausted += 1;
    }

    /// Records a blocked retry parking an **OS thread** (on its parker's
    /// condvar) at the commit notifier: the synchronous `Stm::atomically`.
    pub fn record_condvar_park(&mut self) {
        self.condvar_parks += 1;
    }

    /// Records a blocked retry suspending a **task** by registering a
    /// [`std::task::Waker`] on the commit notifier (the
    /// `Stm::atomically_async` shape). The OS thread is released back to
    /// the executor instead of sleeping.
    pub fn record_waker_park(&mut self) {
        self.waker_parks += 1;
    }

    /// Commits of the given kind.
    pub fn commits(&self, kind: TxKind) -> u64 {
        match kind {
            TxKind::Short => self.commits_short,
            TxKind::Long => self.commits_long,
        }
    }

    /// Total commits across kinds.
    pub fn total_commits(&self) -> u64 {
        self.commits_short + self.commits_long
    }

    /// Aborted attempts of the given kind.
    pub fn aborts(&self, kind: TxKind) -> u64 {
        match kind {
            TxKind::Short => self.aborts_short,
            TxKind::Long => self.aborts_long,
        }
    }

    /// Total aborted attempts.
    pub fn total_aborts(&self) -> u64 {
        self.aborts_short + self.aborts_long
    }

    /// Aborts attributed to `reason`.
    pub fn aborts_for(&self, reason: AbortReason) -> u64 {
        self.aborts_by_reason[reason.index()]
    }

    /// Attempts that rolled back with [`AbortReason::Retry`] — i.e. blocked
    /// waiting for other transactions rather than losing a conflict.
    ///
    /// Queue-style benchmarks report this *block rate* separately from the
    /// conflict rate ([`TxStats::conflict_aborts`]): a bounded queue that is
    /// frequently empty or full blocks a lot without any contention being
    /// wrong.
    pub fn blocking_retries(&self) -> u64 {
        self.aborts_for(AbortReason::Retry)
    }

    /// Aborts injected by the online SSI certification layer
    /// (`zstm-certify`) — i.e. attempts the engine's native criterion
    /// would have committed but full serializability certification
    /// rejected. The certify benchmark reports this count separately so
    /// the *price of serializability* is attributable.
    pub fn certification_aborts(&self) -> u64 {
        self.aborts_for(AbortReason::Certification)
    }

    /// Aborted attempts that were *not* blocking retries: conflicts,
    /// kills, snapshot failures — and also voluntary
    /// [`AbortReason::Explicit`] aborts (user-requested aborts, rolled
    /// back panics); subtract [`TxStats::aborts_for`]`(Explicit)` for a
    /// pure conflict count in workloads that abort explicitly.
    pub fn conflict_aborts(&self) -> u64 {
        self.total_aborts() - self.blocking_retries()
    }

    /// Transactional reads performed.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Transactional writes performed.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Atomic blocks that exhausted their retry budget.
    pub fn retries_exhausted(&self) -> u64 {
        self.retries_exhausted
    }

    /// Blocked retries that parked an OS thread on its condvar (see
    /// [`TxStats::record_condvar_park`]).
    ///
    /// Together with [`TxStats::waker_parks`] this splits the *park
    /// mechanism*; [`TxStats::blocking_retries`] counts the blocked
    /// attempts themselves (one attempt can park at most once, but one
    /// whose registration the notifier refused does not park at all, so
    /// `condvar_parks + waker_parks <= blocking_retries`).
    pub fn condvar_parks(&self) -> u64 {
        self.condvar_parks
    }

    /// Blocked retries that suspended a task by registering a waker (see
    /// [`TxStats::record_waker_park`]).
    pub fn waker_parks(&self) -> u64 {
        self.waker_parks
    }

    /// Every time a blocked retry actually suspended, by either mechanism.
    pub fn total_parks(&self) -> u64 {
        self.condvar_parks + self.waker_parks
    }

    /// Fraction of attempts that aborted, in `[0, 1]`; zero when idle.
    pub fn abort_ratio(&self) -> f64 {
        let attempts = self.total_commits() + self.total_aborts();
        if attempts == 0 {
            0.0
        } else {
            self.total_aborts() as f64 / attempts as f64
        }
    }

    /// Accumulates `other` into `self` (for merging per-thread stats).
    pub fn merge(&mut self, other: &TxStats) {
        self.commits_short += other.commits_short;
        self.commits_long += other.commits_long;
        self.aborts_short += other.aborts_short;
        self.aborts_long += other.aborts_long;
        for (mine, theirs) in self
            .aborts_by_reason
            .iter_mut()
            .zip(other.aborts_by_reason.iter())
        {
            *mine += theirs;
        }
        self.reads += other.reads;
        self.writes += other.writes;
        self.retries_exhausted += other.retries_exhausted;
        self.condvar_parks += other.condvar_parks;
        self.waker_parks += other.waker_parks;
    }
}

impl fmt::Debug for TxStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut by_reason = f.debug_struct("TxStats");
        by_reason
            .field("commits_short", &self.commits_short)
            .field("commits_long", &self.commits_long)
            .field("aborts_short", &self.aborts_short)
            .field("aborts_long", &self.aborts_long)
            .field("reads", &self.reads)
            .field("writes", &self.writes);
        for reason in AbortReason::ALL {
            let count = self.aborts_for(reason);
            if count > 0 {
                by_reason.field(reason.label(), &count);
            }
        }
        by_reason.finish()
    }
}

impl std::iter::Sum for TxStats {
    fn sum<I: Iterator<Item = TxStats>>(iter: I) -> Self {
        let mut total = TxStats::default();
        for stats in iter {
            total.merge(&stats);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commits_and_aborts_split_by_kind() {
        let mut stats = TxStats::new();
        stats.record_commit(TxKind::Short);
        stats.record_commit(TxKind::Short);
        stats.record_commit(TxKind::Long);
        stats.record_abort(TxKind::Long, AbortReason::ZonePassed);
        assert_eq!(stats.commits(TxKind::Short), 2);
        assert_eq!(stats.commits(TxKind::Long), 1);
        assert_eq!(stats.total_commits(), 3);
        assert_eq!(stats.aborts(TxKind::Long), 1);
        assert_eq!(stats.aborts_for(AbortReason::ZonePassed), 1);
    }

    #[test]
    fn blocking_retries_counted_separately_from_conflicts() {
        let mut stats = TxStats::new();
        stats.record_abort(TxKind::Short, AbortReason::Retry);
        stats.record_abort(TxKind::Short, AbortReason::Retry);
        stats.record_abort(TxKind::Short, AbortReason::WriteConflict);
        assert_eq!(stats.aborts_for(AbortReason::Retry), 2);
        assert_eq!(stats.blocking_retries(), 2);
        assert_eq!(stats.conflict_aborts(), 1);
        assert_eq!(stats.total_aborts(), 3);
        // Merging preserves the split.
        let mut merged = TxStats::new();
        merged.merge(&stats);
        merged.merge(&stats);
        assert_eq!(merged.blocking_retries(), 4);
        assert_eq!(merged.conflict_aborts(), 2);
        // And the Debug breakdown lists the retry reason.
        assert!(format!("{stats:?}").contains("retry"));
    }

    #[test]
    fn park_mechanisms_counted_separately_and_merged() {
        let mut stats = TxStats::new();
        stats.record_condvar_park();
        stats.record_condvar_park();
        stats.record_waker_park();
        assert_eq!(stats.condvar_parks(), 2);
        assert_eq!(stats.waker_parks(), 1);
        assert_eq!(stats.total_parks(), 3);
        let mut merged = TxStats::new();
        merged.merge(&stats);
        merged.merge(&stats);
        assert_eq!(merged.condvar_parks(), 4);
        assert_eq!(merged.waker_parks(), 2);
        let summed: TxStats = [stats.clone(), stats].into_iter().sum();
        assert_eq!(summed.total_parks(), 6);
    }

    #[test]
    fn certification_aborts_counted_separately() {
        let mut stats = TxStats::new();
        stats.record_abort(TxKind::Short, AbortReason::Certification);
        stats.record_abort(TxKind::Short, AbortReason::WriteConflict);
        assert_eq!(stats.certification_aborts(), 1);
        assert_eq!(stats.conflict_aborts(), 2);
        assert!(format!("{stats:?}").contains("certification"));
    }

    #[test]
    fn abort_ratio_handles_idle() {
        let stats = TxStats::new();
        assert_eq!(stats.abort_ratio(), 0.0);
    }

    #[test]
    fn abort_ratio_is_fractional() {
        let mut stats = TxStats::new();
        stats.record_commit(TxKind::Short);
        stats.record_abort(TxKind::Short, AbortReason::WriteConflict);
        assert!((stats.abort_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn merge_and_sum_accumulate_everything() {
        let mut a = TxStats::new();
        a.record_commit(TxKind::Short);
        a.record_read();
        a.record_retry_exhausted();
        let mut b = TxStats::new();
        b.record_abort(TxKind::Short, AbortReason::Killed);
        b.record_write();

        let total: TxStats = [a.clone(), b.clone()].into_iter().sum();
        assert_eq!(total.total_commits(), 1);
        assert_eq!(total.total_aborts(), 1);
        assert_eq!(total.reads(), 1);
        assert_eq!(total.writes(), 1);
        assert_eq!(total.retries_exhausted(), 1);

        a.merge(&b);
        assert_eq!(a, total);
    }

    #[test]
    fn debug_lists_active_reasons_only() {
        let mut stats = TxStats::new();
        stats.record_abort(TxKind::Short, AbortReason::ZoneCross);
        let repr = format!("{stats:?}");
        assert!(repr.contains("zone-cross"));
        assert!(!repr.contains("precedence-cycle"));
    }
}
