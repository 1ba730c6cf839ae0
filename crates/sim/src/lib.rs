//! Deterministic schedule driver for the `zstm` STMs.
//!
//! A [`Schedule`] scripts, per logical thread, a sequence of transactions
//! (each a list of reads and writes over a shared object pool) plus a
//! global *interleaving*: the exact order in which threads take steps.
//! [`run_schedule`] replays the schedule against any STM implementing
//! [`zstm_core::TmFactory`] one step at a time, so racy
//! interleavings become reproducible test cases.
//!
//! Combined with [`zstm_history`]'s checkers this turns into a
//! property-based consistency test: generate random schedules, run them,
//! and assert the STM's claimed criterion on the recorded history
//! (see `tests/random_schedules.rs` at the workspace root). [`fuzz`] holds
//! the matrix of recorded engine configurations and the criterion each
//! promises, which every such check runs on. When a random
//! schedule fails, [`minimize_schedule`] delta-debugs it down to a locally
//! minimal reproducer before it is reported. [`claims`] holds the seeded
//! schedules whose commit and abort counts pin the paper's claims about
//! who commits (`tests/paper_claims.rs`).
//!
//! [`Op::ReadRetry`] scripts the API layer's blocking guard ("retry while
//! this object is zero") so retry semantics can be pinned under exact
//! interleavings; the driver records such attempts in
//! [`Outcome::retried`] and the merged [`Outcome::stats`].
//!
//! Every logical thread is a future polled on the caller's thread, and
//! one poll is one step: before any scripted step, one poll per thread,
//! in thread order, begins that thread's first transaction, and a commit
//! step also begins the thread's next one. So the interleaving — where
//! each `begin` falls included — is exactly the scripted one.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use zstm_core::{StmConfig, TxKind};
//! use zstm_sim::{run_schedule, Op, Schedule, TxScript};
//! use zstm_lsa::LsaStm;
//!
//! let schedule = Schedule {
//!     objects: 2,
//!     threads: vec![
//!         vec![TxScript {
//!             kind: TxKind::Short,
//!             ops: vec![Op::Read(0), Op::Write(1)],
//!         }],
//!         vec![TxScript {
//!             kind: TxKind::Short,
//!             ops: vec![Op::Read(1), Op::Write(0)],
//!         }],
//!     ],
//!     // Interleave the two transactions step by step.
//!     interleaving: vec![0, 1, 0, 1, 0, 1],
//! };
//! let stm = Arc::new(LsaStm::new(StmConfig::new(2)));
//! let outcome = run_schedule(&stm, &schedule);
//! assert_eq!(outcome.attempted, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod claims;
pub mod fuzz;

use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use zstm_core::{AbortReason, TmFactory, TmThread, TmTx, TxKind, TxStats};

/// One scripted transactional operation over the shared object pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Read object `i`.
    Read(usize),
    /// Write object `i` (the driver supplies a unique value).
    Write(usize),
    /// Read object `i` and, if its value is zero, end the transaction
    /// with a blocking retry ([`AbortReason::Retry`]) — the scripted
    /// equivalent of the API layer's `tx.retry()` guard ("wait until this
    /// object has been written"). The driver rolls the transaction back
    /// with the retry reason at its next step and counts it in
    /// [`Outcome::retried`]; it does **not** re-run the script (the point
    /// of the sim is to observe exactly the scripted attempt).
    ReadRetry(usize),
}

/// One scripted transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxScript {
    /// Short or long.
    pub kind: TxKind,
    /// Operations in program order; the transaction commits after the
    /// last one.
    pub ops: Vec<Op>,
}

/// A complete scripted execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Size of the shared object pool (objects are `i64` variables).
    pub objects: usize,
    /// Per logical thread: the transactions it runs, in order.
    pub threads: Vec<Vec<TxScript>>,
    /// Which thread takes the next step, taken modulo the thread count. A
    /// *step* is one operation or the commit that follows a transaction's
    /// last operation (and begins the thread's next transaction). Extra
    /// entries for finished threads are skipped; if the interleaving ends
    /// early, remaining work is driven round-robin.
    pub interleaving: Vec<usize>,
}

impl Schedule {
    /// Total number of steps the schedule needs (ops + one commit per
    /// transaction).
    pub fn total_steps(&self) -> usize {
        self.threads
            .iter()
            .flatten()
            .map(|tx| tx.ops.len() + 1)
            .sum()
    }

    /// Steps required by thread `t`.
    pub fn steps_of(&self, t: usize) -> usize {
        self.threads[t].iter().map(|tx| tx.ops.len() + 1).sum()
    }
}

/// Enumerates **every** interleaving of the given per-thread step counts
/// (all multiset permutations), enabling exhaustive systematic concurrency
/// testing of small schedules.
///
/// The count is `(Σ steps)! / Π steps!` — keep the schedules tiny (e.g.
/// two transactions of ≤3 operations give at most a few hundred
/// interleavings).
///
/// # Examples
///
/// ```
/// use zstm_sim::enumerate_interleavings;
///
/// let all = enumerate_interleavings(&[2, 1]);
/// assert_eq!(all, vec![
///     vec![0, 0, 1],
///     vec![0, 1, 0],
///     vec![1, 0, 0],
/// ]);
/// ```
pub fn enumerate_interleavings(steps: &[usize]) -> Vec<Vec<usize>> {
    fn go(remaining: &mut [usize], current: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if remaining.iter().all(|&r| r == 0) {
            out.push(current.clone());
            return;
        }
        for thread in 0..remaining.len() {
            if remaining[thread] > 0 {
                remaining[thread] -= 1;
                current.push(thread);
                go(remaining, current, out);
                current.pop();
                remaining[thread] += 1;
            }
        }
    }
    let mut remaining = steps.to_vec();
    let mut out = Vec::new();
    go(&mut remaining, &mut Vec::new(), &mut out);
    out
}

/// What happened when a schedule ran.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Transactions attempted (each script is attempted exactly once — the
    /// driver does not retry aborted transactions, so the recorded history
    /// matches the script).
    pub attempted: usize,
    /// Transactions that committed.
    pub committed: usize,
    /// Transactions that aborted (at an operation or at commit).
    pub aborted: usize,
    /// The subset of `aborted` that ended in a blocking retry
    /// ([`Op::ReadRetry`] observing zero).
    pub retried: usize,
    /// Values read, per thread, in program order (committed and aborted
    /// transactions both contribute; useful for result checking).
    pub reads: Vec<Vec<i64>>,
    /// Per-thread statistics merged across every logical thread, so tests
    /// can assert the abort-reason breakdown (e.g. retries counted under
    /// [`AbortReason::Retry`]).
    pub stats: TxStats,
}

/// Replays `schedule` against `stm`, driving the scripted interleaving
/// step by step on the caller's thread.
///
/// The STM must be configured for at least `schedule.threads.len()`
/// logical threads. Aborted transactions are *not* retried: the point is
/// to observe exactly the scripted attempt. A doomed attempt rolls back
/// at its thread's next step, and the thread's later steps go on to its
/// next script.
///
/// # Panics
///
/// An engine panic unwinds through this call with its own message.
pub fn run_schedule<F: TmFactory>(stm: &Arc<F>, schedule: &Schedule) -> Outcome {
    let objects: Vec<F::Var<i64>> = (0..schedule.objects.max(1))
        .map(|_| stm.new_var(0i64))
        .collect();
    let mut threads: Vec<_> = schedule
        .threads
        .iter()
        .map(|scripts| {
            let future = run_thread(stm.register_thread(), scripts, &objects);
            (Box::pin(future), None)
        })
        .collect();
    let waker = Waker::from(Arc::new(Unwoken));
    let mut cx = Context::from_waker(&waker);

    // Set-up: one poll per thread, in thread order, begins its first
    // transaction.
    for thread in &mut threads {
        step(thread, &mut cx);
    }
    let count = threads.len().max(1);
    for &t in &schedule.interleaving {
        if let Some(thread) = threads.get_mut(t % count) {
            step(thread, &mut cx);
        }
    }
    // Finish any remaining work round-robin so every script completes.
    while threads.iter().any(|(_, done)| done.is_none()) {
        for thread in &mut threads {
            step(thread, &mut cx);
        }
    }

    let mut outcome = Outcome::default();
    for (_, done) in threads {
        let thread = done.expect("the round-robin tail finishes every thread");
        outcome.attempted += thread.attempted;
        outcome.committed += thread.committed;
        outcome.aborted += thread.aborted;
        outcome.retried += thread.retried;
        outcome.reads.extend(thread.reads);
        outcome.stats.merge(&thread.stats);
    }
    outcome
}

/// The driver polls every thread itself, so a wake has nothing to do.
struct Unwoken;

impl Wake for Unwoken {
    fn wake(self: Arc<Self>) {}
}

/// One step of one logical thread: a single poll, unless it has finished.
fn step<T: Future>((thread, done): &mut (Pin<Box<T>>, Option<T::Output>), cx: &mut Context<'_>) {
    if done.is_none() {
        if let Poll::Ready(outcome) = thread.as_mut().poll(cx) {
            *done = Some(outcome);
        }
    }
}

/// The step boundary: `Pending` the first time it is polled, `Ready` the
/// second, so each poll runs a thread from one boundary to the next.
fn boundary() -> impl Future<Output = ()> {
    let mut reached = false;
    poll_fn(move |_| {
        if std::mem::replace(&mut reached, true) {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    })
}

/// One logical thread's scripts. Its [`Outcome`] holds one `reads` entry.
async fn run_thread<T: TmThread>(
    mut thread: T,
    scripts: &[TxScript],
    objects: &[<T::Factory as TmFactory>::Var<i64>],
) -> Outcome {
    let mut reads = Vec::new();
    let mut outcome = Outcome::default();
    let mut value = 1_000 * (thread.thread_id().slot() as i64 + 1);
    for script in scripts {
        outcome.attempted += 1;
        let mut tx = thread.begin(script.kind);
        // `Some(reason)` once the attempt is doomed; the reason is used
        // for the rollback so statistics attribute it correctly (a
        // `ReadRetry` that saw zero dooms with `Retry`).
        let mut doomed = None;
        for op in &script.ops {
            boundary().await;
            doomed = match *op {
                Op::Write(i) => {
                    value += 1;
                    let write = tx.write(&objects[i % objects.len()], value);
                    write.err().map(|abort| abort.reason())
                }
                Op::Read(i) | Op::ReadRetry(i) => match tx.read(&objects[i % objects.len()]) {
                    Ok(v) => {
                        reads.push(v);
                        (v == 0 && *op == Op::ReadRetry(i)).then_some(AbortReason::Retry)
                    }
                    Err(abort) => Some(abort.reason()),
                },
            };
            if doomed.is_some() {
                break;
            }
        }
        // The commit (or rollback) step.
        boundary().await;
        match doomed {
            Some(reason) => {
                tx.rollback(reason);
                outcome.aborted += 1;
                outcome.retried += usize::from(reason == AbortReason::Retry);
            }
            None => match tx.commit() {
                Ok(()) => outcome.committed += 1,
                Err(_) => outcome.aborted += 1,
            },
        }
    }
    outcome.reads.push(reads);
    outcome.stats = thread.take_stats();
    outcome
}

/// Shrinks a failing [`Schedule`] by delta debugging.
///
/// `fails` must return `true` for any schedule that still reproduces the
/// failure (typically: run it and check the violated property). Starting
/// from `schedule` — which should itself fail — the minimizer greedily
/// tries to
///
/// 1. remove whole transactions,
/// 2. remove single operations inside the remaining transactions, and
/// 3. remove interleaving entries (ddmin-style chunks, then singles;
///    always safe because [`run_schedule`] drives leftover work
///    round-robin),
///
/// re-testing after every candidate edit and keeping it only if the
/// failure persists, until no single edit makes progress. The result is a
/// locally minimal reproducer: dropping any one transaction, operation or
/// interleaving entry makes the failure disappear.
///
/// The number of logical threads is preserved (emptied threads keep an
/// empty script vector) so the schedule stays valid for the same
/// `StmConfig`.
///
/// # Examples
///
/// ```
/// use zstm_core::TxKind;
/// use zstm_sim::{minimize_schedule, Op, Schedule, TxScript};
///
/// let bloated = Schedule {
///     objects: 2,
///     threads: vec![vec![
///         TxScript { kind: TxKind::Short, ops: vec![Op::Read(0), Op::Read(1)] },
///         TxScript { kind: TxKind::Short, ops: vec![Op::Write(1)] },
///     ]],
///     interleaving: vec![0; 5],
/// };
/// // "Fails" whenever any write op is present — the minimal reproducer is
/// // a single one-op transaction.
/// let minimal = minimize_schedule(&bloated, &mut |s| {
///     s.threads.iter().flatten().any(|tx| {
///         tx.ops.iter().any(|op| matches!(op, Op::Write(_)))
///     })
/// });
/// let ops: usize = minimal.threads.iter().flatten().map(|tx| tx.ops.len()).sum();
/// assert_eq!(ops, 1);
/// assert!(minimal.interleaving.is_empty());
/// ```
pub fn minimize_schedule(
    schedule: &Schedule,
    fails: &mut dyn FnMut(&Schedule) -> bool,
) -> Schedule {
    let mut best = schedule.clone();
    if !fails(&best) {
        return best;
    }
    loop {
        let mut improved = false;

        // Pass 1: drop whole transactions.
        'txs: loop {
            for t in 0..best.threads.len() {
                for i in 0..best.threads[t].len() {
                    let mut candidate = best.clone();
                    candidate.threads[t].remove(i);
                    if fails(&candidate) {
                        best = candidate;
                        improved = true;
                        continue 'txs;
                    }
                }
            }
            break;
        }

        // Pass 2: drop single operations.
        'ops: loop {
            for t in 0..best.threads.len() {
                for i in 0..best.threads[t].len() {
                    for o in 0..best.threads[t][i].ops.len() {
                        let mut candidate = best.clone();
                        candidate.threads[t][i].ops.remove(o);
                        if fails(&candidate) {
                            best = candidate;
                            improved = true;
                            continue 'ops;
                        }
                    }
                }
            }
            break;
        }

        // Pass 3: ddmin over the interleaving — chunks halving down to
        // single entries.
        let mut chunk = best.interleaving.len().div_ceil(2).max(1);
        while chunk >= 1 {
            let mut start = 0;
            while start < best.interleaving.len() {
                let end = (start + chunk).min(best.interleaving.len());
                let mut candidate = best.clone();
                candidate.interleaving.drain(start..end);
                if fails(&candidate) {
                    best = candidate;
                    improved = true;
                    // Re-test the same offset against the shrunk list.
                } else {
                    start = end;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }

        if !improved {
            return best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zstm_core::StmConfig;
    use zstm_lsa::LsaStm;
    use zstm_z::ZStm;

    fn rmw(kind: TxKind, obj: usize) -> TxScript {
        TxScript {
            kind,
            ops: vec![Op::Read(obj), Op::Write(obj)],
        }
    }

    #[test]
    fn serial_schedule_commits_everything() {
        let schedule = Schedule {
            objects: 2,
            threads: vec![
                vec![rmw(TxKind::Short, 0), rmw(TxKind::Short, 1)],
                vec![rmw(TxKind::Short, 0)],
            ],
            // Thread 0 completes both transactions, then thread 1 runs.
            interleaving: vec![0, 0, 0, 0, 0, 0, 1, 1, 1],
        };
        let stm = Arc::new(LsaStm::new(StmConfig::new(2)));
        let outcome = run_schedule(&stm, &schedule);
        assert_eq!(outcome.attempted, 3);
        assert_eq!(outcome.committed, 3);
        assert_eq!(outcome.aborted, 0);
    }

    #[test]
    fn interleaved_rmw_conflict_aborts_exactly_one() {
        // Two read-modify-writes of the same object, fully interleaved:
        // reads first, then writes — at most one can commit under any of
        // our STMs (single writer + validation).
        let schedule = Schedule {
            objects: 1,
            threads: vec![
                vec![TxScript {
                    kind: TxKind::Short,
                    ops: vec![Op::Read(0), Op::Write(0)],
                }],
                vec![TxScript {
                    kind: TxKind::Short,
                    ops: vec![Op::Read(0), Op::Write(0)],
                }],
            ],
            interleaving: vec![0, 1, 0, 1, 0, 1],
        };
        let stm = Arc::new(LsaStm::new(StmConfig::new(2)));
        let outcome = run_schedule(&stm, &schedule);
        assert_eq!(outcome.attempted, 2);
        assert_eq!(outcome.committed, 1, "lost update must be prevented");
        assert_eq!(outcome.aborted, 1);
    }

    #[test]
    fn long_and_short_zone_interaction_on_z() {
        // A long transaction scans both objects while a short updates one
        // in its zone — the exact Figure 4 T5 pattern.
        let schedule = Schedule {
            objects: 2,
            threads: vec![
                vec![TxScript {
                    kind: TxKind::Long,
                    ops: vec![Op::Read(0), Op::Read(1)],
                }],
                vec![TxScript {
                    kind: TxKind::Short,
                    ops: vec![Op::Read(0), Op::Write(0)],
                }],
            ],
            // L reads 0; S reads+writes 0 (joining the zone) and commits;
            // L reads 1 and commits.
            interleaving: vec![0, 1, 1, 1, 0, 0],
        };
        let stm = Arc::new(ZStm::new(StmConfig::new(2)));
        let outcome = run_schedule(&stm, &schedule);
        assert_eq!(outcome.committed, 2, "both must commit under Z-STM");
    }

    #[test]
    fn short_interleaving_is_padded_round_robin() {
        let schedule = Schedule {
            objects: 1,
            threads: vec![vec![rmw(TxKind::Short, 0)]],
            interleaving: vec![], // entirely driven by the round-robin tail
        };
        let stm = Arc::new(LsaStm::new(StmConfig::new(1)));
        let outcome = run_schedule(&stm, &schedule);
        assert_eq!(outcome.committed, 1);
    }

    #[test]
    fn read_retry_blocks_on_zero_and_passes_on_written() {
        // Thread 1 guards on object 0 (retry while zero); thread 0 writes
        // it. Writer-commits-first: the guard sees the value and commits.
        let write_then_guard = Schedule {
            objects: 1,
            threads: vec![
                vec![TxScript {
                    kind: TxKind::Short,
                    ops: vec![Op::Write(0)],
                }],
                vec![TxScript {
                    kind: TxKind::Short,
                    ops: vec![Op::ReadRetry(0)],
                }],
            ],
            interleaving: vec![0, 0, 1, 1],
        };
        let stm = Arc::new(LsaStm::new(StmConfig::new(2)));
        let outcome = run_schedule(&stm, &write_then_guard);
        assert_eq!(outcome.committed, 2);
        assert_eq!(outcome.retried, 0);
        assert_eq!(outcome.stats.blocking_retries(), 0);

        // Guard-first: the guard reads zero and ends in a blocking retry,
        // attributed to AbortReason::Retry in the statistics.
        let guard_then_write = Schedule {
            objects: 1,
            threads: vec![
                vec![TxScript {
                    kind: TxKind::Short,
                    ops: vec![Op::Write(0)],
                }],
                vec![TxScript {
                    kind: TxKind::Short,
                    ops: vec![Op::ReadRetry(0)],
                }],
            ],
            interleaving: vec![1, 1, 0, 0],
        };
        let stm = Arc::new(LsaStm::new(StmConfig::new(2)));
        let outcome = run_schedule(&stm, &guard_then_write);
        assert_eq!(outcome.committed, 1, "only the writer commits");
        assert_eq!(outcome.retried, 1);
        assert_eq!(outcome.aborted, 1);
        assert_eq!(outcome.stats.blocking_retries(), 1);
        assert_eq!(outcome.stats.conflict_aborts(), 0);
    }

    #[test]
    fn minimizer_prunes_to_a_local_minimum() {
        // A bloated schedule; the "failure" is: some transaction still
        // performs a ReadRetry on object 0 *and* thread 0 still has a
        // write. The minimum is one ReadRetry op and one Write op.
        let bloated = Schedule {
            objects: 3,
            threads: vec![
                vec![
                    TxScript {
                        kind: TxKind::Short,
                        ops: vec![Op::Write(0), Op::Write(1), Op::Read(2)],
                    },
                    TxScript {
                        kind: TxKind::Short,
                        ops: vec![Op::Read(1)],
                    },
                ],
                vec![TxScript {
                    kind: TxKind::Long,
                    ops: vec![Op::Read(2), Op::ReadRetry(0), Op::Read(1)],
                }],
            ],
            interleaving: vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
        };
        let fails = |s: &Schedule| {
            let has_guard = s
                .threads
                .iter()
                .flatten()
                .any(|tx| tx.ops.contains(&Op::ReadRetry(0)));
            let has_write = s.threads.first().is_some_and(|txs| {
                txs.iter()
                    .any(|tx| tx.ops.iter().any(|op| matches!(op, Op::Write(_))))
            });
            has_guard && has_write
        };
        let minimal = minimize_schedule(&bloated, &mut { fails });
        assert!(fails(&minimal), "minimizer must preserve the failure");
        let total_ops: usize = minimal
            .threads
            .iter()
            .flatten()
            .map(|tx| tx.ops.len())
            .sum();
        assert_eq!(total_ops, 2, "one write + one guard survive: {minimal:?}");
        assert!(minimal.interleaving.is_empty());
        assert_eq!(minimal.threads.len(), 2, "thread count is preserved");
    }

    #[test]
    fn minimizer_returns_passing_schedules_untouched() {
        let schedule = Schedule {
            objects: 1,
            threads: vec![vec![rmw(TxKind::Short, 0)]],
            interleaving: vec![0, 0, 0],
        };
        let minimal = minimize_schedule(&schedule, &mut |_| false);
        assert_eq!(minimal.interleaving, schedule.interleaving);
        assert_eq!(minimal.threads.len(), 1);
    }

    #[test]
    fn minimizer_shrinks_a_real_conflict_reproducer() {
        // Property under test: "at most one of two interleaved RMWs on the
        // same object commits". Pad the failing schedule with unrelated
        // reads and extra interleaving, then shrink against a real STM
        // run.
        let bloated = Schedule {
            objects: 2,
            threads: vec![
                vec![TxScript {
                    kind: TxKind::Short,
                    ops: vec![Op::Read(1), Op::Read(0), Op::Write(0)],
                }],
                vec![TxScript {
                    kind: TxKind::Short,
                    ops: vec![Op::Read(0), Op::Write(0), Op::Read(1)],
                }],
            ],
            interleaving: vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
        };
        let mut fails = |s: &Schedule| {
            let stm = Arc::new(LsaStm::new(StmConfig::new(2)));
            run_schedule(&stm, s).aborted >= 1
        };
        assert!(fails(&bloated), "the bloated schedule reproduces");
        let minimal = minimize_schedule(&bloated, &mut fails);
        let total_ops: usize = minimal
            .threads
            .iter()
            .flatten()
            .map(|tx| tx.ops.len())
            .sum();
        assert!(
            total_ops <= 3,
            "conflict needs at most read+write vs write: {minimal:?}"
        );
    }

    #[test]
    fn enumerator_counts_multiset_permutations() {
        // (2+2)! / (2! 2!) = 6
        assert_eq!(enumerate_interleavings(&[2, 2]).len(), 6);
        // (3+2)! / (3! 2!) = 10
        assert_eq!(enumerate_interleavings(&[3, 2]).len(), 10);
        // Each interleaving uses exactly the right step counts.
        for inter in enumerate_interleavings(&[2, 3]) {
            assert_eq!(inter.iter().filter(|&&t| t == 0).count(), 2);
            assert_eq!(inter.iter().filter(|&&t| t == 1).count(), 3);
        }
    }

    fn tx(kind: TxKind, op: Op) -> TxScript {
        TxScript {
            kind,
            ops: vec![op],
        }
    }

    #[test]
    fn a_long_transaction_begins_at_set_up_not_after_a_racing_commit() {
        // T1's long transaction begins in the set-up poll, before T0's
        // write commits, so its snapshot never holds the write.
        let schedule = Schedule {
            objects: 1,
            threads: vec![
                vec![tx(TxKind::Short, Op::Write(0))],
                vec![tx(TxKind::Long, Op::Read(0))],
            ],
            interleaving: vec![0, 0, 1, 1],
        };
        for _ in 0..100 {
            let stm = Arc::new(LsaStm::new(StmConfig::new(2)));
            let outcome = run_schedule(&stm, &schedule);
            assert_eq!(outcome.reads[1], vec![0]);
        }
    }

    #[test]
    fn a_commit_step_begins_the_next_transaction() {
        // T0's commit step begins its long transaction, so T1's later
        // commit is outside the long snapshot: it reads T0's own write.
        let schedule = Schedule {
            objects: 1,
            threads: vec![
                vec![
                    tx(TxKind::Short, Op::Write(0)),
                    tx(TxKind::Long, Op::Read(0)),
                ],
                vec![tx(TxKind::Short, Op::Write(0))],
            ],
            interleaving: vec![0, 0, 1, 1, 0, 0],
        };
        let stm = Arc::new(LsaStm::new(StmConfig::new(2)));
        let outcome = run_schedule(&stm, &schedule);
        assert_eq!(outcome.committed, 3);
        assert_eq!(outcome.reads[0], vec![1001]);
    }

    #[test]
    fn reads_are_collected_per_thread() {
        let schedule = Schedule {
            objects: 1,
            threads: vec![vec![TxScript {
                kind: TxKind::Short,
                ops: vec![Op::Read(0), Op::Read(0)],
            }]],
            interleaving: vec![0, 0, 0],
        };
        let stm = Arc::new(LsaStm::new(StmConfig::new(1)));
        let outcome = run_schedule(&stm, &schedule);
        assert_eq!(outcome.reads.len(), 1);
        assert_eq!(outcome.reads[0], vec![0, 0]);
    }
}
