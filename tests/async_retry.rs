//! The async-transaction suite: `Stm::atomically_async` semantics on
//! **all five** engines, driven by the offline executor
//! (`zstm_util::exec`) with more tasks than worker threads.
//!
//! Mirrors `tests/retry_blocking.rs` for the suspending shape: a woken
//! waiter observes the write that woke it, async `or_else` falls through
//! on retry, dropping a suspended future cancels cleanly (waker slot
//! released, nothing wedged), waiters *suspend* rather than busy-poll
//! (park-not-spin bound), a bounded block gives up on an idle system, and
//! a writer that bypasses the `Stm` handle wakes nobody until someone
//! calls `notify()` for it. Nothing but a commit (or that call) ends an
//! unbounded suspension, so every waiter runs under a deadline: a lost
//! wakeup is a failure carrying the test's name.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use zstm::prelude::*;
use zstm::util::exec::{block_on, ThreadPool};
use zstm::util::run_with_deadline;

/// Fresh erased handles of every engine, sized for `threads` logical
/// threads.
fn all_engines(threads: usize) -> Vec<Arc<dyn DynStm>> {
    vec![
        Arc::new(Stm::new(LsaStm::new(StmConfig::new(threads)))),
        Arc::new(Stm::new(Tl2Stm::new(StmConfig::new(threads)))),
        Arc::new(Stm::new(CsStm::with_vector_clock(StmConfig::new(threads)))),
        Arc::new(Stm::new(SStm::with_vector_clock(StmConfig::new(threads)))),
        Arc::new(Stm::new(ZStm::new(StmConfig::new(threads)))),
    ]
}

/// Runs `scenario` on every engine, each under a deadline: a scenario
/// takes well under a second, so a waiter that is never woken fails with
/// the test's and the engine's name.
fn on_all_engines(threads: usize, scenario: impl Fn(Arc<dyn DynStm>) + Send + Sync + 'static) {
    let current = std::thread::current();
    let test = current.name().unwrap_or("async_retry");
    let scenario = Arc::new(scenario);
    for stm in all_engines(threads) {
        let scenario = Arc::clone(&scenario);
        let name = format!("{test} [{}]", stm.name());
        run_with_deadline(&name, Duration::from_secs(30), move || scenario(stm));
    }
}

include!("support/selective_wakeups.rs");

selective_wakeup_tests! {
    true;
    lsa_commit_wakes_the_waiters_that_read_what_it_wrote: "lsa", LsaStm::new;
    tl2_commit_wakes_the_waiters_that_read_what_it_wrote: "tl2", Tl2Stm::new;
    cs_commit_wakes_the_waiters_that_read_what_it_wrote: "cs", CsStm::with_vector_clock;
    s_stm_commit_wakes_the_waiters_that_read_what_it_wrote: "s-stm", SStm::with_vector_clock;
    z_stm_commit_wakes_the_waiters_that_read_what_it_wrote: "z-stm", ZStm::new;
}

fn noop_waker() -> Waker {
    struct Noop;
    impl std::task::Wake for Noop {
        fn wake(self: Arc<Self>) {}
    }
    Waker::from(Arc::new(Noop))
}

#[test]
fn woken_async_waiters_observe_the_write_with_more_tasks_than_workers() {
    // Three waiter tasks over ONE worker thread: only possible because a
    // suspended transaction releases its worker. The writer commits from
    // the driver thread; every waiter must observe its value.
    on_all_engines(3, |stm| {
        let gate = stm.new_i64(0);
        let pool = ThreadPool::new(1);
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let (stm, gate) = (Arc::clone(&stm), gate.clone());
                pool.spawn(async move {
                    stm.atomically_async(TxKind::Short, move |tx| {
                        let g = tx.read_i64(&gate)?;
                        if g == 0 {
                            return Err(tx.retry());
                        }
                        Ok(g)
                    })
                    .await
                })
            })
            .collect();
        // Give the tasks time to run their first attempt and suspend.
        std::thread::sleep(Duration::from_millis(30));
        stm.atomically(TxKind::Short, &RetryPolicy::unbounded(), |tx| {
            tx.write_i64(&gate, 7)
        })
        .expect("write commits");
        for waiter in waiters {
            assert_eq!(
                waiter.join(),
                7,
                "{}: woken waiter must see the write",
                stm.name()
            );
        }
        drop(pool);
        let stats = stm.take_stats();
        assert!(
            stats.waker_parks() >= 1,
            "{}: the waiters must have suspended",
            stm.name()
        );
        assert_eq!(
            stats.condvar_parks(),
            0,
            "{}: async waiters must never park an OS thread",
            stm.name()
        );
    });
}

#[test]
fn async_or_else_falls_through_on_retry_and_discards_first_alternative_effects() {
    on_all_engines(2, |stm| {
        let a = stm.new_i64(0);
        let b = stm.new_i64(0);
        let got = {
            let (a, b) = (a.clone(), b.clone());
            block_on(stm.atomically_or_else_async(
                TxKind::Short,
                move |tx| {
                    // Writes, then blocks: the write must be rolled back
                    // before the second alternative runs.
                    tx.write_i64(&a, 99)?;
                    Err(tx.retry())
                },
                move |tx| {
                    tx.write_i64(&b, 42)?;
                    Ok(42)
                },
            ))
        };
        assert_eq!(got, 42, "{}", stm.name());
        let (va, vb) = stm
            .atomically(TxKind::Short, &RetryPolicy::unbounded(), |tx| {
                Ok((tx.read_i64(&a)?, tx.read_i64(&b)?))
            })
            .expect("read back");
        assert_eq!(
            va,
            0,
            "{}: first alternative's write must be discarded",
            stm.name()
        );
        assert_eq!(vb, 42, "{}", stm.name());
    });
}

#[test]
fn async_or_else_with_both_blocking_suspends_until_either_can_proceed() {
    on_all_engines(3, |stm| {
        let left = stm.new_i64(0);
        let right = stm.new_i64(0);
        let pool = ThreadPool::new(1);
        let waiter = {
            let (stm, left, right) = (Arc::clone(&stm), left.clone(), right.clone());
            pool.spawn(async move {
                stm.atomically_or_else_async(
                    TxKind::Short,
                    move |tx| {
                        let v = tx.read_i64(&left)?;
                        if v == 0 {
                            return Err(tx.retry());
                        }
                        Ok(("left", v))
                    },
                    move |tx| {
                        let v = tx.read_i64(&right)?;
                        if v == 0 {
                            return Err(tx.retry());
                        }
                        Ok(("right", v))
                    },
                )
                .await
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        stm.atomically(TxKind::Short, &RetryPolicy::unbounded(), |tx| {
            tx.write_i64(&right, 5)
        })
        .expect("write commits");
        assert_eq!(waiter.join(), ("right", 5), "{}", stm.name());
    });
}

/// Typed-front-end scenario shared by all five engines: a suspended
/// future is dropped; the waker slot must be released, the rolled-back
/// attempt's write must be invisible, and the lease must be back in the
/// pool.
fn drop_cancellation_on<F: TmFactory>(stm: Stm<F>, name: &str) {
    let gate = stm.new_tvar(0i64);
    let side_effect = stm.new_tvar(0i64);
    let mut future = {
        let (gate, side_effect) = (gate.clone(), side_effect.clone());
        stm.atomically_async(TxKind::Short, move |tx| {
            // A write *before* the retry: rolled back with the attempt,
            // so cancellation must leave no trace of it.
            tx.write(&side_effect, 666)?;
            let g = tx.read(&gate)?;
            if g == 0 {
                return tx.retry();
            }
            Ok(g)
        })
    };
    let waker = noop_waker();
    let mut cx = Context::from_waker(&waker);
    assert!(
        matches!(Pin::new(&mut future).poll(&mut cx), Poll::Pending),
        "{name}: the gate is closed, the future must suspend"
    );
    assert_eq!(
        stm.notifier().registered_wakers(),
        1,
        "{name}: suspension registers exactly one waker"
    );
    drop(future);
    assert_eq!(
        stm.notifier().registered_wakers(),
        0,
        "{name}: cancellation must release the waker slot"
    );
    // Nothing is wedged: writes commit promptly and the cancelled
    // attempt's write is invisible.
    stm.atomically(TxKind::Short, |tx| tx.write(&gate, 1));
    let (g, s) = stm.atomically(TxKind::Short, |tx| {
        Ok((tx.read(&gate)?, tx.read(&side_effect)?))
    });
    assert_eq!(g, 1, "{name}");
    assert_eq!(s, 0, "{name}: rolled-back write must be invisible");
    let stats = stm.take_stats();
    assert!(stats.waker_parks() >= 1, "{name}");
}

#[test]
fn dropping_a_suspended_future_cancels_cleanly_on_all_five() {
    drop_cancellation_on(Stm::new(LsaStm::new(StmConfig::new(2))), "lsa");
    drop_cancellation_on(Stm::new(Tl2Stm::new(StmConfig::new(2))), "tl2");
    drop_cancellation_on(Stm::new(CsStm::with_vector_clock(StmConfig::new(2))), "cs");
    drop_cancellation_on(
        Stm::new(SStm::with_vector_clock(StmConfig::new(2))),
        "s-stm",
    );
    drop_cancellation_on(Stm::new(ZStm::new(StmConfig::new(2))), "z");
}

#[test]
fn panicking_async_body_rolls_back_via_the_tx_drop_path() {
    // A body that panics mid-attempt unwinds through the executor poll;
    // the engine transaction rolls back through Tx::drop, so the written
    // variable is not wedged behind a ghost reservation.
    let stm = Stm::new(LsaStm::new(StmConfig::new(2)));
    let var = stm.new_tvar(0i64);
    let pool = ThreadPool::new(1);
    let handle = {
        let (stm, var) = (stm.clone(), var.clone());
        pool.spawn(async move {
            stm.atomically_async(TxKind::Short, move |tx| {
                tx.write(&var, 666)?;
                panic!("async body blows up mid-attempt");
                #[allow(unreachable_code)]
                Ok(())
            })
            .await
        })
    };
    let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle.join()));
    assert!(joined.is_err(), "the task must have panicked");
    // The reservation was rolled back: this write succeeds promptly.
    stm.atomically(TxKind::Short, |tx| tx.write(&var, 1));
    assert_eq!(stm.atomically(TxKind::Short, |tx| tx.read(&var)), 1);
}

#[test]
fn suspended_waiters_park_not_spin() {
    // One item every 15 ms from the driver: a busy-polling consumer task
    // would burn thousands of attempts per gap; a suspended one re-runs
    // only on commits.
    run_with_deadline(
        "suspended_waiters_park_not_spin",
        Duration::from_secs(30),
        park_not_spin,
    );
}

fn park_not_spin() {
    let stm: Arc<dyn DynStm> = Arc::new(Stm::new(LsaStm::new(StmConfig::new(3))));
    let items = stm.new_i64(0);
    let taken = stm.new_i64(0);
    let pool = ThreadPool::new(1);
    let consumer = {
        let (stm, items, taken) = (Arc::clone(&stm), items.clone(), taken.clone());
        pool.spawn(async move {
            let mut got = 0u64;
            while got < 6 {
                let (items, taken) = (items.clone(), taken.clone());
                stm.atomically_async(TxKind::Short, move |tx| {
                    let available = tx.read_i64(&items)?;
                    let consumed = tx.read_i64(&taken)?;
                    if consumed >= available {
                        return Err(tx.retry());
                    }
                    tx.write_i64(&taken, consumed + 1)
                })
                .await;
                got += 1;
            }
            got
        })
    };
    for _ in 0..6 {
        std::thread::sleep(Duration::from_millis(15));
        stm.atomically(TxKind::Short, &RetryPolicy::unbounded(), |tx| {
            let v = tx.read_i64(&items)?;
            tx.write_i64(&items, v + 1)
        })
        .expect("producer commits");
    }
    assert_eq!(consumer.join(), 6);
    drop(pool);
    let stats = stm.take_stats();
    // ~90 ms of emptiness. A busy-polling consumer racks up retry aborts
    // by the thousand; suspension bounds it to one per commit. The bound
    // is generous (50x) to stay robust on loaded CI boxes.
    assert!(
        stats.blocking_retries() < 350,
        "suspended consumer must not spin-burn: {} blocking retries",
        stats.blocking_retries()
    );
    assert!(stats.waker_parks() >= 1, "the consumer must have suspended");
    assert_eq!(stats.condvar_parks(), 0);
}

#[test]
fn async_ping_pong_loses_no_wakeups_on_one_worker() {
    // Two tasks hand a token back and forth purely via suspended retries,
    // multiplexed on a single worker thread. Every round needs a wakeup
    // in each direction, and a lost one is never made up for: its task
    // stays suspended and the deadline of `on_all_engines` names this
    // test.
    const ROUNDS: i64 = 1_000;
    on_all_engines(2, |stm| {
        let token = stm.new_i64(0);
        let pool = ThreadPool::new(1);
        let started = Instant::now();
        let ponger = {
            let (stm, token) = (Arc::clone(&stm), token.clone());
            pool.spawn(async move {
                for _ in 0..ROUNDS {
                    let token = token.clone();
                    stm.atomically_async(TxKind::Short, move |tx| {
                        let t = tx.read_i64(&token)?;
                        if t != 1 {
                            return Err(tx.retry());
                        }
                        tx.write_i64(&token, 0)
                    })
                    .await;
                }
            })
        };
        let pinger = {
            let (stm, token) = (Arc::clone(&stm), token.clone());
            pool.spawn(async move {
                for _ in 0..ROUNDS {
                    let token = token.clone();
                    stm.atomically_async(TxKind::Short, move |tx| {
                        let t = tx.read_i64(&token)?;
                        if t != 0 {
                            return Err(tx.retry());
                        }
                        tx.write_i64(&token, 1)
                    })
                    .await;
                }
            })
        };
        pinger.join();
        ponger.join();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "{}: ping-pong took {:?}",
            stm.name(),
            started.elapsed()
        );
        let final_token = stm
            .atomically(TxKind::Short, &RetryPolicy::unbounded(), |tx| {
                tx.read_i64(&token)
            })
            .expect("read");
        assert_eq!(final_token, 0, "{}: every round completed", stm.name());
    });
}

#[test]
fn a_raw_spi_commit_wakes_nobody_until_notify_is_called() {
    run_with_deadline(
        "a_raw_spi_commit_wakes_nobody_until_notify_is_called",
        Duration::from_secs(30),
        raw_spi_commit_then_notify,
    );
}

fn raw_spi_commit_then_notify() {
    // The writer goes around the Stm handle entirely (raw engine SPI), so
    // it never bumps the commit notifier, and no timer stands in for it:
    // the suspended waiter stays suspended until someone says `notify()`.
    let stm = Stm::new(LsaStm::new(StmConfig::new(3)));
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
    // Let the waiter suspend, then commit through the raw SPI.
    while stm.notifier().registered_wakers() == 0 {
        std::thread::yield_now();
    }
    let epoch_before = stm.notifier().epoch();
    {
        let factory = Arc::clone(stm.factory());
        let mut raw_thread = factory.register_thread();
        atomically(
            &mut raw_thread,
            TxKind::Short,
            &RetryPolicy::unbounded(),
            |tx| tx.write(gate.raw(), 42),
        )
        .expect("raw-SPI write commits");
    }
    assert_eq!(
        stm.notifier().epoch(),
        epoch_before,
        "a raw-SPI commit does not bump the notifier"
    );
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        stm.notifier().registered_wakers(),
        1,
        "nothing woke the waiter: still registered"
    );
    // The way out for code that mixes the two: say so.
    stm.notifier().notify();
    assert_eq!(waiter.join(), 42, "one notify resolves the waiter");
    assert_eq!(stm.notifier().registered_wakers(), 0);
}

#[test]
fn a_bounded_async_block_gives_up_after_one_idle_limit() {
    // 1 000 attempts on a guard nothing will ever change: the block must
    // not spend them one idle limit at a time (100 s) but give up after
    // the first silent one, as the synchronous driver does.
    let (err, stats) = run_with_deadline(
        "a_bounded_async_block_gives_up_after_one_idle_limit",
        Duration::from_secs(5),
        || {
            let stm = Stm::new(LsaStm::new(StmConfig::new(1)));
            let gate = stm.new_tvar(0i64);
            let policy = RetryPolicy::default().with_max_attempts(1_000);
            let err = block_on(stm.try_atomically_async(TxKind::Short, policy, move |tx| {
                if tx.read(&gate)? == 0 {
                    return tx.retry();
                }
                Ok(())
            }))
            .expect_err("the guard never opens");
            assert_eq!(stm.notifier().registered_wakers(), 0);
            (err, stm.take_stats())
        },
    );
    assert_eq!(err.last_reason(), AbortReason::Retry);
    assert_eq!(err.attempts(), 1, "one round, one silent idle limit");
    assert_eq!(stats.retries_exhausted(), 1);
    assert_eq!(stats.waker_parks(), 1);
}
