use zstm_util::Backoff;

use crate::{Abort, AbortReason, RetryExhausted, TmThread, TmTx, TxKind, TxStats};

/// Retry policy for [`atomically`]: **how many** attempts an atomic block
/// gets ([`with_max_attempts`](Self::with_max_attempts)). Between attempts
/// a conflicting block pays spin backoff ([`RetryBudget::pause`]); liveness
/// under contention is the contention manager's, as in the paper.
///
/// # Examples
///
/// ```
/// use zstm_core::RetryPolicy;
///
/// let policy = RetryPolicy::default().with_max_attempts(100);
/// assert_eq!(policy.max_attempts(), 100);
/// assert_eq!(RetryPolicy::unbounded().max_attempts(), u64::MAX);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    max_attempts: u64,
}

impl RetryPolicy {
    /// Effectively unbounded retries (the benchmark default: throughput
    /// collapse, not failure, is the observable outcome the paper plots).
    pub fn unbounded() -> Self {
        Self {
            max_attempts: u64::MAX,
        }
    }

    /// Limits the number of attempts per atomic block.
    pub fn with_max_attempts(mut self, attempts: u64) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Maximum number of attempts per atomic block.
    pub fn max_attempts(&self) -> u64 {
        self.max_attempts
    }
}

impl Default for RetryPolicy {
    /// The default policy **caps attempts at 1 000 000** (with backoff).
    ///
    /// That bound exists so tests and interactive use fail loudly instead
    /// of hanging when an atomic block can never commit; it is *not*
    /// unbounded. Benchmark and figure-reproduction paths use
    /// [`RetryPolicy::unbounded`] explicitly — there, throughput collapse
    /// (not failure) is the observable outcome the paper plots, and a
    /// silent cap would turn heavy contention into spurious
    /// [`RetryExhausted`] errors.
    fn default() -> Self {
        Self {
            max_attempts: 1_000_000,
        }
    }
}

/// What an atomic block has spent of its [`RetryPolicy`], and how it paces
/// itself between attempts: the arithmetic [`atomically`] and the
/// `zstm-api` block share, so a budget means the same thing at the raw SPI,
/// on a parked thread and in a future.
///
/// Two rules live here. **A failed round spends one attempt, and the
/// budget is checked before any wait** ([`spend`](Self::spend)): the last
/// attempt's failure is reported at once, never after a pause nobody will
/// benefit from. **A conflict pauses for one round of spin backoff**
/// ([`pause`](Self::pause)), which starts over every [`BURST`](Self::BURST)
/// rounds so long waits do not grow without bound under persistent
/// contention.
pub struct RetryBudget {
    policy: RetryPolicy,
    attempts: u64,
    backoff: Backoff,
}

impl RetryBudget {
    /// Rounds of spin backoff after which the exponential schedule starts
    /// over — and the number of rounds a driver that shares its thread (an
    /// executor poll) runs before giving the thread back.
    pub const BURST: u64 = 64;

    /// A fresh budget: nothing spent.
    pub fn new(policy: &RetryPolicy) -> Self {
        Self {
            policy: *policy,
            attempts: 0,
            backoff: Backoff::new(),
        }
    }

    /// Whether the policy caps the attempts at all
    /// ([`RetryPolicy::unbounded`] does not).
    pub fn is_bounded(&self) -> bool {
        self.policy.max_attempts != u64::MAX
    }

    /// Spends one attempt on a round that failed with `reason`.
    ///
    /// # Errors
    ///
    /// Returns [`RetryExhausted`] — counted in `stats` — when that was the
    /// policy's last attempt.
    pub fn spend(
        &mut self,
        reason: AbortReason,
        stats: &mut TxStats,
    ) -> Result<(), RetryExhausted> {
        self.attempts += 1;
        if self.attempts >= self.policy.max_attempts {
            return Err(self.exhausted(reason, stats));
        }
        Ok(())
    }

    /// Ends the block short of its budget (a bounded block that blocked and
    /// saw nothing change): the error for the attempts made so far, counted
    /// in `stats` like a spent budget.
    pub fn exhausted(&self, reason: AbortReason, stats: &mut TxStats) -> RetryExhausted {
        stats.record_retry_exhausted();
        RetryExhausted::new(self.attempts, reason)
    }

    /// The pause between a conflicting attempt and the next: one round of
    /// spin backoff.
    pub fn pause(&mut self) {
        self.backoff.spin();
        if self.backoff.rounds() % Self::BURST == 0 {
            self.backoff.reset();
        }
    }

    /// Ends the conflict streak (the round blocked instead of conflicting):
    /// the next [`pause`](Self::pause) starts from the shortest backoff.
    pub fn relax(&mut self) {
        self.backoff.reset();
    }
}

/// Runs `body` as a transaction of kind `kind` on `thread`, retrying on
/// aborts according to `policy`.
///
/// This is the **low-level, engine-facing retry loop**: it needs an
/// explicitly registered [`TmThread`] and always spin-retries (with
/// backoff). The `zstm-api` front end's `Stm::atomically` wraps the same
/// engine calls but leases thread contexts transparently and *parks* on
/// [`AbortReason::Retry`] instead of spinning; prefer it in application
/// code and keep this function for harnesses that script logical threads
/// by hand (the deterministic scenario drivers, the engines' own tests).
/// An [`AbortReason::Retry`] abort is treated here like any other abort:
/// the body is immediately re-run.
///
/// The body receives the active transaction handle and must propagate
/// [`Abort`] errors from reads and writes with `?`. Returning `Ok` leads to
/// a commit attempt; a failed commit restarts the body as a fresh
/// transaction (the paper's model: an aborted transaction is re-executed).
///
/// # Errors
///
/// Returns [`RetryExhausted`] when `policy.max_attempts()` attempts all
/// aborted; the thread's [`TxStats::retries_exhausted`] counts it.
///
/// # Examples
///
/// See the crate-level documentation; every STM crate's tests use this
/// function.
pub fn atomically<Th, F, R>(
    thread: &mut Th,
    kind: TxKind,
    policy: &RetryPolicy,
    mut body: F,
) -> Result<R, RetryExhausted>
where
    Th: TmThread,
    F: FnMut(&mut Th::Tx<'_>) -> Result<R, Abort>,
{
    let mut budget = RetryBudget::new(policy);
    loop {
        let mut tx = thread.begin(kind);
        let reason = match body(&mut tx) {
            Ok(result) => match tx.commit() {
                Ok(()) => return Ok(result),
                Err(abort) => abort.reason(),
            },
            Err(abort) => {
                tx.rollback(abort.reason());
                abort.reason()
            }
        };
        budget.spend(reason, thread.stats_mut())?;
        budget.pause();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_last_attempt_fails_at_once_and_is_counted() {
        let mut stats = TxStats::new();
        let mut budget = RetryBudget::new(&RetryPolicy::default().with_max_attempts(2));
        assert!(budget.is_bounded());
        assert!(budget.spend(AbortReason::Explicit, &mut stats).is_ok());
        assert_eq!(stats.retries_exhausted(), 0);
        let err = budget
            .spend(AbortReason::WriteConflict, &mut stats)
            .expect_err("second of two attempts");
        assert_eq!(
            (err.attempts(), err.last_reason()),
            (2, AbortReason::WriteConflict)
        );
        assert_eq!(stats.retries_exhausted(), 1);
        assert!(!RetryBudget::new(&RetryPolicy::unbounded()).is_bounded());
    }
}
