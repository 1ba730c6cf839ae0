//! The atomic block, written once: one round over the alternatives and
//! what it came to.
//!
//! A round ends in one [`Step`]: *committed*, *conflict*, *blocked on
//! these channels since epoch e*, or *exhausted*
//! (ARCHITECTURE.md, *The API layer*: the machine and the two drivers).
//!
//! [`Block::round`] is the only place that decides; the two drivers —
//! `Stm::run_alternatives` (thread parker) and
//! [`TryTxFuture`](crate::TryTxFuture)'s `poll` (task waker,
//! `exec::wake_at` for the idle limit) — only carry out a [`Step`] in
//! their own idiom. The rules, each stated once:
//!
//! 1. **A failed round spends one attempt, and the budget is checked
//!    before any wait.** A block on its last attempt never parks or backs
//!    off first ([`RetryBudget::spend`]).
//! 2. **A round in which every alternative retried registers on the
//!    channels those alternatives read (all 64 for one that read nothing)
//!    — unless the notifier's epoch has left the value captured before the
//!    round's first read**: a commit the round could have missed moved it,
//!    the registration is refused and another round runs at once. A park
//!    is counted iff the registration was accepted.
//! 3. **Only a bounded policy puts an idle limit on that park, and a
//!    silent limit ends the block with `Retry`** — silent meaning *no wake
//!    reached this registration for [`BLOCKED_IDLE_LIMIT`]*: the deadline
//!    passed **and** `deregister_waker(key)` found it still registered
//!    (`Notifier::lapsed`, both drivers), whatever was committed elsewhere
//!    — re-running could not observe anything new. An unbounded block is
//!    woken by a commit to its channels (or `notify()`), nothing else.
//! 4. **A conflict pays one round of spin backoff** that starts over every
//!    64 rounds ([`RetryBudget::pause`]) — **and the async driver yields
//!    instead of pausing past 64 rounds**: it runs at most
//!    [`RetryBudget::BURST`] rounds per poll.

use std::time::Duration;

use zstm_core::{
    Abort, AbortReason, RetryBudget, RetryExhausted, RetryPolicy, TmFactory, TmThread, TmTx,
    TxKind, TxStats,
};

use crate::tx::Tx;
use crate::Stm;

/// How long a **bounded** block stays parked with no wake reaching it before
/// it gives up with [`AbortReason::Retry`] (rule 3 of the block: a budget
/// of a million rounds must not mean a day of parking on an idle system).
/// Unbounded blocks have no limit of any kind.
pub const BLOCKED_IDLE_LIMIT: Duration = Duration::from_millis(100);

/// What the unbounded entry points say when they unwrap a block's result.
pub(crate) const UNBOUNDED: &str = "unbounded retry loop cannot exhaust";

/// What one round came to — everything a driver needs to know.
pub(crate) enum Step<R> {
    /// An alternative committed (the waiters on what it wrote already
    /// notified).
    Committed(R),
    /// An alternative, or its commit, aborted for a real reason. Spin
    /// backoff is already paid: the next round may run at once.
    Conflict,
    /// Every alternative retried: unless the notifier's epoch is no longer
    /// `seen`, suspend until a commit to one of the channels `reads`, for
    /// at most `limit` if there is one — and if that runs out in
    /// silence, the block ends with [`Block::idle`].
    Blocked {
        seen: u64,
        reads: u64,
        limit: Option<Duration>,
    },
    /// The budget is spent.
    Exhausted(RetryExhausted),
}

/// The state of one atomic block across its rounds (and, in a future,
/// across polls).
pub(crate) struct Block {
    budget: RetryBudget,
}

impl Block {
    pub(crate) fn new(policy: &RetryPolicy) -> Self {
        Self {
            budget: RetryBudget::new(policy),
        }
    }

    /// Runs the alternatives left to right as fresh transactions on
    /// `thread`, falling through on [`AbortReason::Retry`] and stopping at
    /// the first genuine abort (aborts restart the composition, they do
    /// not fall through), and applies the rules of the module docs to the
    /// outcome.
    ///
    /// Generic over the alternative representation (`&mut dyn FnMut`
    /// slices from the sync driver, boxed closures owned by the future) so
    /// neither driver re-collects its alternatives.
    pub(crate) fn round<F: TmFactory, R, B>(
        &mut self,
        stm: &Stm<F>,
        thread: &mut F::Thread,
        kind: TxKind,
        alternatives: &mut [B],
    ) -> Step<R>
    where
        B: FnMut(&mut Tx<'_, F>) -> Result<R, Abort>,
    {
        debug_assert!(!alternatives.is_empty());
        let notifier = stm.notifier();
        // Rule 2: any write this round could miss bumps the epoch after
        // this point.
        let seen = notifier.epoch();
        let mut reads = 0;
        let reason = 'round: {
            for body in alternatives.iter_mut() {
                let mut tx = Tx::new(thread.begin(kind), stm.instance_id());
                let outcome = body(&mut tx);
                let (read, writes) = (tx.reads, tx.writes);
                let raw = tx.into_raw();
                match outcome {
                    Ok(result) => match raw.commit() {
                        Ok(()) => {
                            if writes != 0 {
                                notifier.notify_channels(writes);
                            }
                            return Step::Committed(result);
                        }
                        Err(abort) => break 'round abort.reason(),
                    },
                    Err(abort) => {
                        raw.rollback(abort.reason());
                        if abort.reason() != AbortReason::Retry {
                            break 'round abort.reason();
                        }
                        // A retry that read nothing waits for anything.
                        reads |= if read == 0 { !0 } else { read };
                    }
                }
            }
            AbortReason::Retry
        };
        // Rule 1.
        if let Err(exhausted) = self.budget.spend(reason, thread.stats_mut()) {
            return Step::Exhausted(exhausted);
        }
        if reason == AbortReason::Retry {
            self.budget.relax();
            // Rule 3.
            let limit = self.budget.is_bounded().then_some(BLOCKED_IDLE_LIMIT);
            Step::Blocked { seen, reads, limit }
        } else {
            // Rule 4.
            self.budget.pause();
            Step::Conflict
        }
    }

    /// Rule 3's ending: the idle limit of a [`Step::Blocked`] ran out with
    /// the registration still in place.
    pub(crate) fn idle(&self, stats: &mut TxStats) -> RetryExhausted {
        self.budget.exhausted(AbortReason::Retry, stats)
    }
}

#[cfg(test)]
mod tests {
    //! One script of body outcomes, both drivers: whatever the block
    //! decides, a parked thread and a suspended task must report the same
    //! result, the same error and the same statistics.

    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use zstm_core::{Abort, AbortReason, RetryPolicy, StmConfig, TxKind, TxStats};
    use zstm_lsa::LsaStm;
    use zstm_util::exec::block_on;
    use zstm_util::run_with_deadline;

    use crate::{DynAsyncBody, DynStm, DynVar, Stm, BLOCKED_IDLE_LIMIT};

    /// What one run of an alternative does.
    #[derive(Clone, Copy, Debug)]
    enum Act {
        /// Reads, then aborts for a real reason.
        Conflict,
        /// Retries with nothing else going on: the block parks.
        Retry,
        /// Reads, then retries: the block parks on the variable's channel.
        ReadRetry,
        /// Retries while "another writer commits" (a notify from inside
        /// the body, after the round captured its epoch): the park returns
        /// at once, the registration is refused.
        RetryWoken,
        /// Writes the value and commits.
        Commit(i64),
    }
    use Act::{Commit, Conflict, ReadRetry, Retry, RetryWoken};

    /// What a block came to: the committed value, or
    /// `RetryExhausted { attempts, last_reason }`.
    type Outcome = Result<i64, (u64, AbortReason)>;

    struct Case {
        name: &'static str,
        policy: RetryPolicy,
        /// Per alternative, the outcome of each of its runs in order.
        alternatives: &'static [&'static [Act]],
        expect: Outcome,
        /// Times the block actually suspended.
        parks: u64,
        /// Whether, from the block's first park on, another thread commits
        /// to a variable the block never touches every millisecond.
        noise: bool,
    }

    fn bounded(attempts: u64) -> RetryPolicy {
        RetryPolicy::default().with_max_attempts(attempts)
    }

    fn cases() -> Vec<Case> {
        vec![
            Case {
                name: "commits first time",
                policy: RetryPolicy::unbounded(),
                alternatives: &[&[Commit(1)]],
                expect: Ok(1),
                parks: 0,
                noise: false,
            },
            Case {
                name: "conflicts, then commits",
                policy: RetryPolicy::unbounded(),
                alternatives: &[&[Conflict, Conflict, Conflict, Commit(2)]],
                expect: Ok(2),
                parks: 0,
                noise: false,
            },
            Case {
                name: "a burst of conflicts longer than one poll",
                policy: bounded(150),
                alternatives: &[&[Conflict; 150]],
                expect: Err((150, AbortReason::Explicit)),
                parks: 0,
                noise: false,
            },
            Case {
                name: "woken retries and a conflict, unbounded",
                policy: RetryPolicy::unbounded(),
                alternatives: &[&[RetryWoken, Conflict, RetryWoken, Commit(3)]],
                expect: Ok(3),
                parks: 0,
                noise: false,
            },
            Case {
                name: "budget spent on conflicts",
                policy: bounded(3),
                alternatives: &[&[Conflict, Conflict, Conflict]],
                expect: Err((3, AbortReason::Explicit)),
                parks: 0,
                noise: false,
            },
            Case {
                name: "budget spent on a retry: the last attempt never parks",
                policy: bounded(2),
                alternatives: &[&[Conflict, Retry]],
                expect: Err((2, AbortReason::Retry)),
                parks: 0,
                noise: false,
            },
            Case {
                name: "a budget of one never parks",
                policy: bounded(1),
                alternatives: &[&[Retry]],
                expect: Err((1, AbortReason::Retry)),
                parks: 0,
                noise: false,
            },
            Case {
                name: "bounded, blocked on an idle system: one idle limit",
                policy: bounded(1_000),
                alternatives: &[&[Conflict, Retry]],
                expect: Err((2, AbortReason::Retry)),
                parks: 1,
                noise: false,
            },
            Case {
                // Rule 3 counts wakes that reach the registration, not
                // commits: the epoch moves a hundred times meanwhile.
                name: "bounded, blocked while unrelated commits go on: one idle limit",
                policy: bounded(1_000),
                alternatives: &[&[Conflict, ReadRetry]],
                expect: Err((2, AbortReason::Retry)),
                parks: 1,
                noise: true,
            },
            Case {
                name: "or_else falls through to the second alternative",
                policy: RetryPolicy::unbounded(),
                alternatives: &[&[Retry], &[Commit(5)]],
                expect: Ok(5),
                parks: 0,
                noise: false,
            },
            Case {
                name: "or_else: a conflict in the first restarts the composition",
                policy: bounded(4),
                alternatives: &[&[Conflict, Retry, Commit(6)], &[RetryWoken]],
                expect: Ok(6),
                parks: 0,
                noise: false,
            },
            Case {
                name: "or_else: both blocked, bounded and idle",
                policy: bounded(5),
                alternatives: &[&[Retry, Retry], &[RetryWoken, Retry]],
                expect: Err((2, AbortReason::Retry)),
                parks: 1,
                noise: false,
            },
            Case {
                name: "or_else: a conflict in the second is the last reason",
                policy: bounded(2),
                alternatives: &[&[Retry, Retry], &[Conflict, Conflict]],
                expect: Err((2, AbortReason::Explicit)),
                parks: 0,
                noise: false,
            },
        ]
    }

    /// The scripted alternatives of `case` as erased bodies over `var`.
    fn bodies(case: &Case, stm: &Arc<dyn DynStm>, var: &DynVar) -> Vec<DynAsyncBody> {
        case.alternatives
            .iter()
            .map(|&script| {
                let (stm, var, runs) = (Arc::clone(stm), var.clone(), AtomicUsize::new(0));
                Box::new(move |tx: &mut dyn crate::DynTx| {
                    let run = runs.fetch_add(1, Ordering::Relaxed);
                    match *script.get(run).expect("the block ran past its script") {
                        Conflict => {
                            tx.read_i64(&var)?;
                            Err(Abort::new(AbortReason::Explicit))
                        }
                        Retry => Err(tx.retry()),
                        ReadRetry => {
                            tx.read_i64(&var)?;
                            Err(tx.retry())
                        }
                        RetryWoken => {
                            stm.notify_retries();
                            Err(tx.retry())
                        }
                        Commit(value) => tx.write_i64(&var, value),
                    }
                }) as DynAsyncBody
            })
            .collect()
    }

    /// Everything `TxStats` counts except the two park counters.
    fn apart_from_parks(stats: &TxStats) -> Vec<u64> {
        let mut counters = vec![
            stats.commits(TxKind::Short),
            stats.commits(TxKind::Long),
            stats.aborts(TxKind::Short),
            stats.aborts(TxKind::Long),
            stats.reads(),
            stats.writes(),
            stats.retries_exhausted(),
        ];
        counters.extend(AbortReason::ALL.map(|reason| stats.aborts_for(reason)));
        counters
    }

    /// Runs `case` on a fresh engine through one driver; returns what the
    /// block came to, the value it left behind, and the statistics.
    fn run(case: &Case, asynchronous: bool) -> (Outcome, i64, TxStats) {
        let typed = Stm::new(LsaStm::new(StmConfig::new(2)));
        let stm: Arc<dyn DynStm> = Arc::new(typed.clone());
        let (var, other) = (stm.new_i64(0), stm.new_i64(0));
        let stop = Arc::new(AtomicBool::new(false));
        let noise = case.noise.then(|| {
            let (stm, stop) = (Arc::clone(&stm), Arc::clone(&stop));
            std::thread::spawn(move || {
                while typed.notifier().registered_wakers() == 0 {
                    std::thread::yield_now();
                }
                while !stop.load(Ordering::SeqCst) {
                    stm.atomically(TxKind::Short, &RetryPolicy::unbounded(), |tx| {
                        tx.write_i64(&other, 1)
                    })
                    .expect("unbounded");
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        });
        let mut bodies = bodies(case, &stm, &var);
        let result = if asynchronous {
            block_on(stm.try_atomically_async_dyn(TxKind::Short, case.policy, bodies))
        } else {
            match &mut bodies[..] {
                [only] => stm.atomically_dyn(TxKind::Short, &case.policy, only),
                [first, second] => stm.or_else_dyn(TxKind::Short, &case.policy, first, second),
                _ => unreachable!("scripts have one or two alternatives"),
            }
        };
        // The noise thread still holds its context: these are the block's.
        let stats = stm.take_stats();
        stop.store(true, Ordering::SeqCst);
        if let Some(noise) = noise {
            noise.join().expect("noise thread finished");
        }
        let left = stm
            .atomically(TxKind::Short, &RetryPolicy::unbounded(), |tx| {
                tx.read_i64(&var)
            })
            .expect("unbounded");
        let outcome = result
            .map(|()| left)
            .map_err(|e| (e.attempts(), e.last_reason()));
        (outcome, left, stats)
    }

    #[test]
    fn both_drivers_carry_out_the_same_block() {
        for case in cases() {
            let (name, expect, parks) = (case.name, case.expect, case.parks);
            let (sync, asynchronous) =
                run_with_deadline(name, Duration::from_secs(20), move || {
                    (run(&case, false), run(&case, true))
                });
            assert_eq!(sync.0, expect, "{name}: outcome");
            assert_eq!(asynchronous.0, expect, "{name}: async outcome");
            assert_eq!(sync.1, asynchronous.1, "{name}: value left behind");
            assert_eq!(
                apart_from_parks(&sync.2),
                apart_from_parks(&asynchronous.2),
                "{name}: statistics apart from the park counters"
            );
            let suspensions = |stats: &TxStats| (stats.condvar_parks(), stats.waker_parks());
            assert_eq!(suspensions(&sync.2), (parks, 0), "{name}");
            assert_eq!(suspensions(&asynchronous.2), (0, parks), "{name}");
        }
    }

    #[test]
    fn a_spent_budget_is_noticed_before_any_wait_on_both_drivers() {
        // Rule 1 as a time: neither driver sits out an idle limit on its
        // last attempt.
        let policy = bounded(1);
        let scripts: [(&[&[Act]], AbortReason); 2] = [
            (&[&[Retry]], AbortReason::Retry),
            (&[&[Conflict]], AbortReason::Explicit),
        ];
        for (alternatives, reason) in scripts {
            for asynchronous in [false, true] {
                let case = Case {
                    name: "last attempt",
                    policy,
                    alternatives,
                    expect: Err((1, reason)),
                    parks: 0,
                    noise: false,
                };
                let started = Instant::now();
                let (outcome, _, stats) = run(&case, asynchronous);
                assert_eq!(outcome, case.expect);
                assert!(started.elapsed() < BLOCKED_IDLE_LIMIT, "{reason} waited");
                assert_eq!(stats.total_parks(), case.parks);
                assert_eq!(stats.retries_exhausted(), 1);
            }
        }
    }
}
