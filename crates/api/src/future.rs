//! Async atomic blocks: [`TxFuture`] and [`TryTxFuture`], the executor-poll
//! driver of the atomic block (see [`crate::block`] for the block itself).
//!
//! The future suspends the *task*, never the OS thread: each poll leases
//! an engine context from the owning [`Stm`]'s pool, runs rounds **to
//! completion synchronously**, and only if every alternative of a round
//! ended in [`Tx::retry`] registers the task's [`Waker`](std::task::Waker)
//! on the commit notifier and returns `Pending` — releasing the executor
//! thread to run other tasks. That is what lets many transactional tasks
//! multiplex over a few worker threads (see `zstm_util::exec`).
//!
//! Attempts are deliberately non-suspending — the body cannot `.await`:
//! engine transaction handles ([`TmTx`](zstm_core::TmTx)) are `&mut`
//! borrows of the leased per-thread context and are not `Send`, so a
//! transaction cannot be carried across an await point onto another
//! worker. Suspension happens *between* rounds, which is exactly where
//! the synchronous driver parks its thread; both carry out the steps of
//! one [`Block`], so a budget, a pause and the no-lost-wakeup argument
//! are the same in either shape (the epoch is captured before the round,
//! and a registration against a stale epoch is refused — another round
//! runs instead).
//!
//! This driver differs from the synchronous one only in how it waits: an
//! idle limit is a timed wake (`zstm_util::exec::wake_at`), and after
//! [`RetryBudget::BURST`] rounds in one poll it wakes itself and returns
//! `Pending`, so one contended block cannot starve its worker.
//!
//! Cancellation is the normal async story: dropping a pending future
//! deregisters its waker, so abandoned futures leak no notifier slots. A
//! future dropped *mid-attempt* (an unwinding executor worker) rolls the
//! engine transaction back as the attempt is dropped — the same guarantee
//! panicking synchronous bodies have.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::Instant;

use zstm_core::{Abort, RetryBudget, RetryExhausted, RetryPolicy, TmFactory, TmThread, TxKind};

use zstm_util::exec::wake_at;

use crate::block::{Block, Step, UNBOUNDED};
use crate::notify::WakerKey;
use crate::tx::Tx;
use crate::Stm;

/// One alternative of an async atomic block. Boxed so `or_else` chains of
/// differently-typed closures fit one future type; `Send` so the future
/// can be spawned onto a multi-threaded executor.
type AltBody<'a, F, R> = Box<dyn FnMut(&mut Tx<'_, F>) -> Result<R, Abort> + Send + 'a>;

/// The future of an async atomic block.
///
/// Created by [`Stm::atomically_async`] /
/// [`Stm::atomically_or_else_async`]; resolves to the committed body's
/// result. The retry loop is unbounded, like [`Stm::atomically`].
///
/// # Examples
///
/// ```
/// use zstm_api::Stm;
/// use zstm_core::{StmConfig, TxKind};
/// use zstm_util::exec::block_on;
/// use zstm_z::ZStm;
///
/// let stm = Stm::new(ZStm::new(StmConfig::new(2)));
/// let balance = stm.new_tvar(10i64);
/// let v = block_on(stm.atomically_async(TxKind::Short, move |tx| {
///     tx.modify(&balance, |b| *b += 5)?;
///     tx.read(&balance)
/// }));
/// assert_eq!(v, 15);
/// ```
#[must_use = "futures do nothing unless polled"]
pub struct TxFuture<'a, F: TmFactory, R> {
    inner: TryTxFuture<'a, F, R>,
}

impl<'a, F: TmFactory, R> TxFuture<'a, F, R> {
    pub(crate) fn new(stm: Stm<F>, kind: TxKind, alternatives: Vec<AltBody<'a, F, R>>) -> Self {
        Self {
            inner: TryTxFuture::new(stm, kind, RetryPolicy::unbounded(), alternatives),
        }
    }
}

// All fields are `Unpin`, so the future is too — `poll` can use
// `Pin::get_mut` without any unsafe projection.
impl<F: TmFactory, R> Future for TxFuture<'_, F, R> {
    type Output = R;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<R> {
        Pin::new(&mut self.get_mut().inner)
            .poll(cx)
            .map(|result| result.expect(UNBOUNDED))
    }
}

/// The future of a **budgeted** async atomic block: [`TxFuture`] with an
/// explicit [`RetryPolicy`], resolving `Err(RetryExhausted)` when the
/// budget runs out instead of retrying forever.
///
/// Created by [`Stm::try_atomically_async`]. Every round the block runs —
/// including re-runs after a blocking retry's wakeup — counts against the
/// budget. A bounded block suspended on an idle system gives up after
/// [`BLOCKED_IDLE_LIMIT`](crate::BLOCKED_IDLE_LIMIT), exactly like
/// [`Stm::try_atomically`].
#[must_use = "futures do nothing unless polled"]
pub struct TryTxFuture<'a, F: TmFactory, R> {
    stm: Stm<F>,
    kind: TxKind,
    /// The block's state across polls (the budget spans them).
    block: Block,
    alternatives: Vec<AltBody<'a, F, R>>,
    /// The suspension the previous poll ended in, if any.
    parked: Option<Parked>,
    done: bool,
}

/// A suspension: the waker registration and — for a bounded block — when
/// its idle limit runs out.
struct Parked {
    key: WakerKey,
    idle_deadline: Option<Instant>,
}

impl<'a, F: TmFactory, R> TryTxFuture<'a, F, R> {
    pub(crate) fn new(
        stm: Stm<F>,
        kind: TxKind,
        policy: RetryPolicy,
        alternatives: Vec<AltBody<'a, F, R>>,
    ) -> Self {
        Self {
            stm,
            kind,
            block: Block::new(&policy),
            alternatives,
            parked: None,
            done: false,
        }
    }
}

impl<F: TmFactory, R> Future for TryTxFuture<'_, F, R> {
    type Output = Result<R, RetryExhausted>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        assert!(!this.done, "transaction future polled after completion");
        let notifier = this.stm.notifier();
        let waker = cx.waker();
        // A poll with a live registration means the wake came from
        // somewhere else (the idle limit's timer, a select-style
        // composition). Remove the old waker first: the task may have
        // migrated workers, making the stored waker stale.
        let silent = (this.parked.take())
            .is_some_and(|parked| notifier.lapsed(parked.key, parked.idle_deadline));
        let polled = this.stm.with_thread(|thread| {
            if silent {
                return Poll::Ready(Err(this.block.idle(thread.stats_mut())));
            }
            for _ in 0..RetryBudget::BURST {
                let step = this
                    .block
                    .round(&this.stm, thread, this.kind, &mut this.alternatives);
                match step {
                    Step::Committed(result) => return Poll::Ready(Ok(result)),
                    Step::Exhausted(exhausted) => return Poll::Ready(Err(exhausted)),
                    Step::Conflict => {}
                    Step::Blocked { seen, reads, limit } => {
                        // A refusal means a commit raced the registration:
                        // what the round missed is visible now, so run
                        // another — within this poll's burst, or a steady
                        // stream of unrelated commits would keep the
                        // worker from its other tasks.
                        if let Some(key) = notifier.register_waker(seen, reads, waker) {
                            thread.stats_mut().record_waker_park();
                            let idle_deadline = limit
                                .map(|limit| Instant::now() + limit)
                                .inspect(|&deadline| wake_at(deadline, waker.clone()));
                            this.parked = Some(Parked { key, idle_deadline });
                            return Poll::Pending;
                        }
                    }
                }
            }
            // Not suspended — being fair to co-tasks. Re-poll as soon as
            // the executor comes back around.
            waker.wake_by_ref();
            Poll::Pending
        });
        this.done = polled.is_ready();
        polled
    }
}

/// Cancellation: dropping a suspended future removes its waker from the
/// notifier so the slot is reclaimed. (A commit racing this drop may have
/// already consumed the registration — `deregister_waker` is
/// generation-checked, so the stale key is a no-op.)
impl<F: TmFactory, R> Drop for TryTxFuture<'_, F, R> {
    fn drop(&mut self) {
        if let Some(parked) = self.parked.take() {
            self.stm.notifier().deregister_waker(parked.key);
        }
    }
}

impl<F: TmFactory> Stm<F> {
    /// Runs `body` as an **async** transaction: the returned future
    /// resolves once an attempt commits, suspending the task (not the OS
    /// thread) whenever the body [`retries`](Tx::retry).
    ///
    /// Each attempt runs synchronously within one executor poll on a
    /// context leased from this handle's pool — bodies cannot `.await`
    /// (see [`TxFuture`] for why) — so the body
    /// closure is ordinary synchronous code, identical to what
    /// [`Stm::atomically`] takes, plus `Send` so the future can be
    /// spawned. Conflict aborts re-run within the same poll (bounded, then
    /// the poll yields); only blocking retries suspend.
    ///
    /// Dropping the future before it resolves cancels the atomic block:
    /// nothing was committed, and any registered wakeup is deregistered.
    pub fn atomically_async<'a, R>(
        &self,
        kind: TxKind,
        body: impl FnMut(&mut Tx<'_, F>) -> Result<R, Abort> + Send + 'a,
    ) -> TxFuture<'a, F, R> {
        TxFuture::new(self.clone(), kind, vec![Box::new(body)])
    }

    /// [`Stm::atomically_async`] with an explicit retry budget: resolves
    /// `Err(`[`RetryExhausted`]`)` once `policy.max_attempts()` rounds all
    /// failed to commit.
    ///
    /// This is the overload-protection entry point: a server puts each
    /// request's transaction behind a bounded policy so a conflict
    /// livelock degrades to a clean error carrying the last
    /// [`AbortReason`](zstm_core::AbortReason) instead of retrying
    /// forever.
    pub fn try_atomically_async<'a, R>(
        &self,
        kind: TxKind,
        policy: RetryPolicy,
        body: impl FnMut(&mut Tx<'_, F>) -> Result<R, Abort> + Send + 'a,
    ) -> TryTxFuture<'a, F, R> {
        TryTxFuture::new(self.clone(), kind, policy, vec![Box::new(body)])
    }

    /// Async [`Stm::atomically_or_else`]: `first` falling through to
    /// `second` when it retries, suspending the task only when **both**
    /// alternatives block, resolving once either commits.
    pub fn atomically_or_else_async<'a, R>(
        &self,
        kind: TxKind,
        first: impl FnMut(&mut Tx<'_, F>) -> Result<R, Abort> + Send + 'a,
        second: impl FnMut(&mut Tx<'_, F>) -> Result<R, Abort> + Send + 'a,
    ) -> TxFuture<'a, F, R> {
        TxFuture::new(self.clone(), kind, vec![Box::new(first), Box::new(second)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use zstm_core::StmConfig;
    use zstm_lsa::LsaStm;
    use zstm_util::exec::{block_on, ThreadPool};
    use zstm_z::ZStm;

    #[test]
    fn block_on_drives_a_simple_async_transaction() {
        let stm = Stm::new(ZStm::new(StmConfig::new(1)));
        let var = stm.new_tvar(1i64);
        let v = {
            let var = var.clone();
            block_on(stm.atomically_async(TxKind::Short, move |tx| {
                tx.modify(&var, |v| *v *= 2)?;
                tx.read(&var)
            }))
        };
        assert_eq!(v, 2);
        assert_eq!(stm.take_stats().total_commits(), 1);
    }

    #[test]
    fn async_waiter_suspends_and_wakes_on_commit() {
        let stm = Stm::new(LsaStm::new(StmConfig::new(2)));
        let gate = stm.new_tvar(0i64);
        let pool = ThreadPool::new(1);
        let waiter = {
            let (stm, gate) = (stm.clone(), gate.clone());
            pool.spawn(async move {
                stm.atomically_async(TxKind::Short, move |tx| {
                    let g = tx.read(&gate)?;
                    if g == 0 {
                        return tx.retry();
                    }
                    Ok(g)
                })
                .await
            })
        };
        // Wait until the task actually registered its waker (suspended).
        while stm.notifier().registered_wakers() == 0 {
            std::thread::yield_now();
        }
        stm.atomically(TxKind::Short, |tx| tx.write(&gate, 9));
        let woken = zstm_util::run_with_deadline(
            "async_waiter_suspends_and_wakes_on_commit",
            std::time::Duration::from_secs(30),
            move || waiter.join(),
        );
        assert_eq!(woken, 9);
        // Stop the executor so its worker thread returns the cached lease
        // (and its stats) to the pool before harvesting.
        drop(pool);
        let stats = stm.take_stats();
        assert!(stats.waker_parks() >= 1, "the waiter must have suspended");
        assert_eq!(
            stats.condvar_parks(),
            0,
            "no OS thread parked anywhere in this test"
        );
    }

    #[test]
    fn dropping_a_suspended_future_deregisters_its_waker() {
        let stm = Stm::new(ZStm::new(StmConfig::new(2)));
        let gate = stm.new_tvar(0i64);
        let mut future = {
            let gate = gate.clone();
            stm.atomically_async(TxKind::Short, move |tx| {
                let g = tx.read(&gate)?;
                if g == 0 {
                    return tx.retry();
                }
                Ok(g)
            })
        };
        // Drive one poll by hand so the future suspends.
        let noop = noop_waker();
        let mut cx = Context::from_waker(&noop);
        assert!(Pin::new(&mut future).poll(&mut cx).is_pending());
        assert_eq!(stm.notifier().registered_wakers(), 1);
        drop(future);
        assert_eq!(
            stm.notifier().registered_wakers(),
            0,
            "cancellation must release the waker slot"
        );
        // And the lease went back to the pool: a fresh transaction works.
        assert_eq!(stm.atomically(TxKind::Short, |tx| tx.read(&gate)), 0);
    }

    fn noop_waker() -> std::task::Waker {
        struct Noop;
        impl std::task::Wake for Noop {
            fn wake(self: Arc<Self>) {}
        }
        std::task::Waker::from(Arc::new(Noop))
    }

    #[test]
    fn budgeted_future_commits_like_the_unbounded_one() {
        let stm = Stm::new(ZStm::new(StmConfig::new(1)));
        let var = stm.new_tvar(20i64);
        let policy = zstm_core::RetryPolicy::default().with_max_attempts(8);
        let v = {
            let var = var.clone();
            block_on(stm.try_atomically_async(TxKind::Short, policy, move |tx| {
                tx.modify(&var, |v| *v += 1)?;
                tx.read(&var)
            }))
        };
        assert_eq!(v, Ok(21));
    }

    #[test]
    fn budgeted_future_exhausts_on_persistent_aborts_and_records_it() {
        use zstm_core::{Abort, AbortReason};
        let stm = Stm::new(ZStm::new(StmConfig::new(1)));
        let policy = zstm_core::RetryPolicy::default().with_max_attempts(5);
        let err = block_on(stm.try_atomically_async(TxKind::Short, policy, move |_tx| {
            Err::<(), _>(Abort::new(AbortReason::Explicit))
        }))
        .unwrap_err();
        assert_eq!(err.attempts(), 5);
        assert_eq!(err.last_reason(), AbortReason::Explicit);
        assert_eq!(stm.take_stats().retries_exhausted(), 1);
    }

    #[test]
    fn bounded_blocking_retry_drains_within_fallback_ticks() {
        // A budget of 2 on a block that always retries: the first round
        // suspends, and when its idle limit passes with no commit
        // anywhere the block gives up. The future must resolve even
        // though nothing ever happens (this is what bounds a bounded
        // blocking block server-side).
        let stm = Stm::new(ZStm::new(StmConfig::new(1)));
        let gate = stm.new_tvar(0i64);
        let policy = zstm_core::RetryPolicy::default().with_max_attempts(2);
        let err = {
            let gate = gate.clone();
            block_on(stm.try_atomically_async(TxKind::Short, policy, move |tx| {
                let g = tx.read(&gate)?;
                if g == 0 {
                    return tx.retry();
                }
                Ok(g)
            }))
        }
        .unwrap_err();
        assert_eq!(err.last_reason(), zstm_core::AbortReason::Retry);
        assert_eq!(
            stm.notifier().registered_wakers(),
            0,
            "an exhausted future must leave no waker behind"
        );
    }
}
