//! Composable-blocking semantics of the `Stm` front end on **all five**
//! engines: woken waiters observe the write that woke them, `or_else`
//! falls through on retry but propagates real aborts, retries are counted
//! separately in the statistics, and the conservative notifier loses no
//! wakeups under a ping-pong stress. Nothing but a commit ends an
//! unbounded park, so every scenario runs under a deadline: a lost wakeup
//! is a failure carrying the test's and the engine's name.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use zstm::prelude::*;
use zstm::util::run_with_deadline;

/// Runs `check` against a fresh `Stm` handle of every engine, each under
/// a deadline (a scenario takes well under a second, so a lost wakeup —
/// which parks its waiter for good — or a wait cycle fails with the
/// test's and the engine's name). The scenarios only need `i64`
/// variables, so the type-erased [`DynStm`] view fits (and doubles as
/// coverage for the erased facade).
fn on_all_factories(
    threads: usize,
    check: impl Fn(&'static str, &dyn DynStm) + Send + Sync + 'static,
) {
    let config = || StmConfig::new(threads);
    let engines: [(&'static str, Arc<dyn DynStm>); 5] = [
        ("lsa", Arc::new(Stm::new(LsaStm::new(config())))),
        ("tl2", Arc::new(Stm::new(Tl2Stm::new(config())))),
        ("cs", Arc::new(Stm::new(CsStm::with_vector_clock(config())))),
        (
            "s-stm",
            Arc::new(Stm::new(SStm::with_vector_clock(config()))),
        ),
        ("z", Arc::new(Stm::new(ZStm::new(config())))),
    ];
    let current = std::thread::current();
    let test = current.name().unwrap_or("retry_blocking");
    let check = Arc::new(check);
    for (name, stm) in engines {
        let check = Arc::clone(&check);
        run_with_deadline(
            &format!("{test} [{name}]"),
            Duration::from_secs(30),
            move || check(name, &*stm),
        );
    }
}

include!("support/selective_wakeups.rs");

selective_wakeup_tests! {
    false;
    lsa_commit_wakes_the_waiters_that_read_what_it_wrote: "lsa", LsaStm::new;
    tl2_commit_wakes_the_waiters_that_read_what_it_wrote: "tl2", Tl2Stm::new;
    cs_commit_wakes_the_waiters_that_read_what_it_wrote: "cs", CsStm::with_vector_clock;
    s_stm_commit_wakes_the_waiters_that_read_what_it_wrote: "s-stm", SStm::with_vector_clock;
    z_stm_commit_wakes_the_waiters_that_read_what_it_wrote: "z-stm", ZStm::new;
}

#[test]
fn woken_waiter_sees_the_write() {
    on_all_factories(2, |name, stm| {
        let gate = stm.new_i64(0);
        let policy = RetryPolicy::unbounded();
        let barrier = Arc::new(Barrier::new(2));
        let observed = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                barrier.wait();
                stm.atomically(TxKind::Short, &policy, |tx| {
                    let g = tx.read_i64(&gate)?;
                    if g == 0 {
                        return Err(tx.retry());
                    }
                    Ok(g)
                })
                .expect("unbounded")
            });
            barrier.wait();
            // Give the waiter time to run its first attempt and park.
            std::thread::sleep(Duration::from_millis(30));
            stm.atomically(TxKind::Short, &policy, |tx| tx.write_i64(&gate, 7))
                .expect("write commits");
            waiter.join().expect("waiter finished")
        });
        assert_eq!(observed, 7, "{name}: woken waiter must see the write");
        let stats = stm.take_stats();
        assert!(
            stats.blocking_retries() >= 1,
            "{name}: the waiter must have blocked at least once"
        );
    });
}

#[test]
fn or_else_falls_through_on_retry_and_discards_first_alternative_effects() {
    on_all_factories(1, |name, stm| {
        let a = stm.new_i64(0);
        let b = stm.new_i64(0);
        let policy = RetryPolicy::unbounded();
        let got = stm
            .atomically_or_else(
                TxKind::Short,
                &policy,
                |tx| {
                    // Writes, then blocks: the write must be rolled back
                    // before the second alternative runs.
                    tx.write_i64(&a, 99)?;
                    Err(tx.retry())
                },
                |tx| {
                    tx.write_i64(&b, 42)?;
                    Ok(42)
                },
            )
            .expect("second alternative commits");
        assert_eq!(got, 42, "{name}");
        let (va, vb) = stm
            .atomically(TxKind::Short, &policy, |tx| {
                Ok((tx.read_i64(&a)?, tx.read_i64(&b)?))
            })
            .expect("read back");
        assert_eq!(va, 0, "{name}: first alternative's write must be discarded");
        assert_eq!(vb, 42, "{name}");
    });
}

#[test]
fn or_else_propagates_real_aborts_without_falling_through() {
    on_all_factories(1, |name, stm| {
        let second_runs = AtomicU64::new(0);
        let err = stm
            .atomically_or_else(
                TxKind::Short,
                &RetryPolicy::default().with_max_attempts(3),
                |_tx| -> Result<(), Abort> {
                    // A genuine abort, not a blocking retry.
                    Err(Abort::new(AbortReason::Explicit))
                },
                |_tx| {
                    second_runs.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                },
            )
            .expect_err("always-aborting first alternative exhausts the budget");
        assert_eq!(err.last_reason(), AbortReason::Explicit, "{name}");
        assert_eq!(
            second_runs.load(Ordering::Relaxed),
            0,
            "{name}: a real abort must restart the composition, not fall through"
        );
    });
}

#[test]
fn both_alternatives_retrying_parks_until_either_can_proceed() {
    on_all_factories(2, |name, stm| {
        let left = stm.new_i64(0);
        let right = stm.new_i64(0);
        let policy = RetryPolicy::unbounded();
        let barrier = Arc::new(Barrier::new(2));
        let got = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                barrier.wait();
                stm.atomically_or_else(
                    TxKind::Short,
                    &policy,
                    |tx| {
                        let v = tx.read_i64(&left)?;
                        if v == 0 {
                            return Err(tx.retry());
                        }
                        Ok(("left", v))
                    },
                    |tx| {
                        let v = tx.read_i64(&right)?;
                        if v == 0 {
                            return Err(tx.retry());
                        }
                        Ok(("right", v))
                    },
                )
                .expect("unbounded")
            });
            barrier.wait();
            std::thread::sleep(Duration::from_millis(30));
            stm.atomically(TxKind::Short, &policy, |tx| tx.write_i64(&right, 5))
                .expect("write commits");
            waiter.join().expect("waiter finished")
        });
        assert_eq!(got, ("right", 5), "{name}");
    });
}

#[test]
fn no_lost_wakeup_under_ping_pong_handoff() {
    // Two threads hand a token back and forth purely via blocking
    // retries. Every round needs a wakeup in each direction, and a lost
    // one is never made up for: its waiter stays parked and the deadline
    // of `on_all_factories` names this test.
    const ROUNDS: i64 = 1_000;
    on_all_factories(2, |name, stm| {
        let token = stm.new_i64(0);
        let policy = RetryPolicy::unbounded();
        let started = Instant::now();
        std::thread::scope(|scope| {
            let ponger = scope.spawn(|| {
                for _ in 0..ROUNDS {
                    stm.atomically(TxKind::Short, &policy, |tx| {
                        let t = tx.read_i64(&token)?;
                        if t != 1 {
                            return Err(tx.retry());
                        }
                        tx.write_i64(&token, 0)
                    })
                    .expect("unbounded");
                }
            });
            for _ in 0..ROUNDS {
                stm.atomically(TxKind::Short, &policy, |tx| {
                    let t = tx.read_i64(&token)?;
                    if t != 0 {
                        return Err(tx.retry());
                    }
                    tx.write_i64(&token, 1)
                })
                .expect("unbounded");
            }
            ponger.join().expect("ponger finished");
        });
        // 2 000 handoffs of a few microseconds each: seconds here mean the
        // wake path has stopped being a wake path.
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "{name}: ping-pong took {:?}",
            started.elapsed()
        );
        let final_token = stm
            .atomically(TxKind::Short, &policy, |tx| tx.read_i64(&token))
            .expect("read");
        assert_eq!(final_token, 0, "{name}: every round completed");
    });
}

#[test]
fn retry_aborts_count_under_the_retry_reason_only() {
    on_all_factories(2, |name, stm| {
        let gate = stm.new_i64(0);
        let policy = RetryPolicy::unbounded();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                stm.atomically(TxKind::Short, &policy, |tx| {
                    let g = tx.read_i64(&gate)?;
                    if g == 0 {
                        return Err(tx.retry());
                    }
                    Ok(g)
                })
                .expect("unbounded")
            });
            std::thread::sleep(Duration::from_millis(20));
            stm.atomically(TxKind::Short, &policy, |tx| tx.write_i64(&gate, 1))
                .expect("write");
            waiter.join().expect("waiter");
        });
        let stats = stm.take_stats();
        assert!(stats.blocking_retries() >= 1, "{name}");
        assert_eq!(
            stats.aborts_for(AbortReason::Retry),
            stats.blocking_retries(),
            "{name}: blocking_retries is exactly the Retry reason counter"
        );
        assert_eq!(stats.total_commits(), 2, "{name}: waiter + writer");
    });
}
