//! Composable atomic front end for the `zstm` engines.
//!
//! The five STMs expose a deliberately low-level SPI
//! ([`TmFactory`](zstm_core::TmFactory) / [`TmThread`](zstm_core::TmThread)
//! / [`TmTx`](zstm_core::TmTx)): explicit logical-thread registration,
//! `&mut` transaction handles, spin-retry loops. That is what the
//! deterministic paper-figure harnesses need — and nothing an application
//! wants to write. This crate layers the user-facing API on top, changing
//! **no engine code**:
//!
//! * [`Stm`] — a cheap-clone runtime handle that owns the factory and
//!   leases per-OS-thread contexts transparently (thread-local lease pool;
//!   user code never calls `register_thread`);
//! * [`TVar`] — shareable typed variable handles with
//!   [`read`](Tx::read)/[`write`](Tx::write)/[`modify`](Tx::modify)
//!   helpers on the [`Tx`] handle;
//! * composable blocking — [`Tx::retry`] parks the atomic block on the
//!   `Stm`'s commit notifier (woken by a commit to what the block read)
//!   instead of spinning, and [`Stm::atomically_or_else`] composes
//!   alternatives that fall through on retry;
//! * [`DynStm`]/[`DynTx`] — an object-safe erased facade over `i64` and
//!   byte-string variables, so harnesses select an engine at runtime
//!   without monomorphizing every driver five times.
//!
//! # Quickstart
//!
//! ```
//! use zstm_api::Stm;
//! use zstm_core::{StmConfig, TxKind};
//! use zstm_z::ZStm;
//!
//! let stm = Stm::new(ZStm::new(StmConfig::new(2)));
//! let checking = stm.new_tvar(100i64);
//! let savings = stm.new_tvar(400i64);
//!
//! // A short update transaction: all or nothing, retried on conflicts.
//! stm.atomically(TxKind::Short, |tx| {
//!     let c = tx.read(&checking)?;
//!     tx.write(&checking, c - 50)?;
//!     tx.modify(&savings, |s| *s += 50)
//! });
//!
//! // Blocking: withdraw 40 as soon as the balance covers it. The guard
//! // holds here (50 ≥ 40); when it does not, `tx.retry()` parks the
//! // thread until a writer of `checking` commits instead of spinning.
//! let observed = stm.atomically(TxKind::Short, |tx| {
//!     let c = tx.read(&checking)?;
//!     if c < 40 {
//!         return tx.retry();
//!     }
//!     tx.write(&checking, c - 40)?;
//!     Ok(c)
//! });
//! assert_eq!(observed, 50);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod erased;
mod future;
mod notify;
mod stm;
mod tvar;
mod tx;

pub use block::BLOCKED_IDLE_LIMIT;
pub use erased::{DynAsyncBody, DynBody, DynStm, DynTryFuture, DynTx, DynVar};
pub use future::{TryTxFuture, TxFuture};
pub use notify::{Notifier, WakerKey};
pub use stm::Stm;
pub use tvar::TVar;
pub use tx::Tx;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use zstm_core::{Abort, AbortReason, RetryPolicy, StmConfig, TxKind};
    use zstm_lsa::LsaStm;
    use zstm_z::ZStm;

    #[test]
    fn lease_pool_recycles_contexts_across_thread_exits() {
        // Config allows 2 logical threads; 6 sequential OS threads all run
        // transactions because exited threads return their contexts.
        let stm = Stm::new(LsaStm::new(StmConfig::new(2)));
        let counter = stm.new_tvar(0i64);
        for _ in 0..6 {
            let (stm, counter) = (stm.clone(), counter.clone());
            std::thread::spawn(move || {
                stm.atomically(TxKind::Short, |tx| tx.modify(&counter, |c| *c += 1));
            })
            .join()
            .expect("worker finished");
        }
        let total = stm.atomically(TxKind::Short, |tx| tx.read(&counter));
        assert_eq!(total, 6);
    }

    #[test]
    fn nested_atomically_leases_a_second_context() {
        let stm = Stm::new(LsaStm::new(StmConfig::new(2)));
        let a = stm.new_tvar(1i64);
        let b = stm.new_tvar(2i64);
        let sum = stm.atomically(TxKind::Short, |tx| {
            let x = tx.read(&a)?;
            // A nested independent transaction on the same OS thread.
            let y = stm.atomically(TxKind::Short, |tx2| tx2.read(&b));
            Ok(x + y)
        });
        assert_eq!(sum, 3);
    }

    #[test]
    fn take_stats_harvests_every_cached_lease_after_nesting() {
        // A nested atomically leaves TWO leases cached on this thread;
        // take_stats must flush and count both.
        let stm = Stm::new(LsaStm::new(StmConfig::new(2)));
        let a = stm.new_tvar(0i64);
        let b = stm.new_tvar(0i64);
        stm.atomically(TxKind::Short, |tx| {
            tx.modify(&a, |v| *v += 1)?;
            stm.atomically(TxKind::Short, |tx2| tx2.modify(&b, |v| *v += 1));
            Ok(())
        });
        let stats = stm.take_stats();
        assert_eq!(
            stats.total_commits(),
            2,
            "both the outer and the nested context's commits are harvested"
        );
        // And both slots are usable by fresh concurrent threads again.
        let (s1, s2) = (stm.clone(), stm.clone());
        let t1 = std::thread::spawn(move || {
            let v = s1.new_tvar(0i64);
            s1.atomically(TxKind::Short, |tx| tx.read(&v));
        });
        let t2 = std::thread::spawn(move || {
            let v = s2.new_tvar(0i64);
            s2.atomically(TxKind::Short, |tx| tx.read(&v));
        });
        t1.join().expect("first recycled slot");
        t2.join().expect("second recycled slot");
    }

    #[test]
    fn stats_snapshot_keeps_what_a_context_did_before_it_was_leased_again() {
        use std::sync::mpsc;
        // One context in all: every thread below takes turns on it.
        let stm = Stm::new(LsaStm::new(StmConfig::new(1)));
        let counter = stm.new_tvar(0i64);
        stm.atomically(TxKind::Short, |tx| tx.modify(&counter, |c| *c += 1));
        assert_eq!(
            stm.stats().total_commits(),
            0,
            "still in this thread's cache"
        );
        assert_eq!(stm.leased_contexts(), 1, "and a snapshot leaves it there");
        stm.flush_local();
        assert_eq!(stm.stats().total_commits(), 1);
        assert_eq!(stm.stats().total_commits(), 1, "a snapshot resets nothing");

        let (leased, is_leased) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let holder = {
            let (stm, counter) = (stm.clone(), counter.clone());
            std::thread::spawn(move || {
                stm.atomically(TxKind::Short, |tx| tx.modify(&counter, |c| *c += 1));
                leased.send(()).expect("report the lease");
                let _ = released.recv();
            })
        };
        is_leased.recv().expect("holder committed");
        assert_eq!(stm.leased_contexts(), 1);
        assert_eq!(
            stm.stats().total_commits(),
            1,
            "the holder's own commit is not in yet, the earlier one is not lost"
        );
        drop(release);
        holder.join().expect("holder thread");
        assert_eq!(stm.leased_contexts(), 0);
        assert_eq!(stm.stats().total_commits(), 2);
        assert_eq!(stm.take_stats().total_commits(), 2);
        assert_eq!(stm.stats().total_commits(), 0);
    }

    #[test]
    fn dropped_stm_leases_are_evicted_from_long_lived_threads() {
        // A long-lived thread using short-lived Stm instances must not pin
        // their factories through the TLS lease cache forever.
        let stm1 = Stm::new(LsaStm::new(StmConfig::new(1)));
        let var = stm1.new_tvar(0i64);
        stm1.atomically(TxKind::Short, |tx| tx.read(&var));
        let weak = Arc::downgrade(stm1.factory());
        drop(var);
        drop(stm1);
        // The cache still holds stm1's lease. The sweep runs when a thread
        // checks a context out, which this thread does for stm2's first
        // transaction — not on every transaction's put-back.
        let stm2 = Stm::new(LsaStm::new(StmConfig::new(1)));
        let var2 = stm2.new_tvar(0i64);
        stm2.atomically(TxKind::Short, |tx| tx.read(&var2));
        assert!(
            weak.upgrade().is_none(),
            "dropped Stm's factory must be released by the lease sweep"
        );
    }

    #[test]
    fn exhausting_concurrent_leases_panics_with_context() {
        let stm = Stm::new(LsaStm::new(StmConfig::new(1)));
        let var = stm.new_tvar(0i64);
        // First lease goes to this thread and stays cached.
        let _ = stm.atomically(TxKind::Short, |tx| tx.read(&var));
        let stm2 = stm.clone();
        let err = std::thread::spawn(move || {
            let var2 = stm2.new_tvar(0i64);
            stm2.atomically(TxKind::Short, |tx| tx.read(&var2));
        })
        .join()
        .expect_err("second concurrent OS thread must fail cleanly");
        let message = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            message.contains("logical threads are leased"),
            "panic message should explain the lease exhaustion: {message}"
        );
        // After flushing our cached lease the slot is reusable.
        stm.flush_local();
        let stm3 = stm.clone();
        let var3 = var.clone();
        std::thread::spawn(move || {
            stm3.atomically(TxKind::Short, |tx| tx.modify(&var3, |v| *v += 1));
        })
        .join()
        .expect("slot recycled after flush");
    }

    #[test]
    fn try_atomically_reports_exhaustion_reason() {
        let stm = Stm::new(ZStm::new(StmConfig::new(1)));
        let err = stm
            .try_atomically(
                TxKind::Short,
                &RetryPolicy::default().with_max_attempts(3),
                |_tx: &mut Tx<'_, ZStm>| -> Result<(), Abort> {
                    Err(Abort::new(AbortReason::Explicit))
                },
            )
            .expect_err("always-aborting body exhausts");
        assert_eq!(err.attempts(), 3);
        assert_eq!(err.last_reason(), AbortReason::Explicit);
    }

    #[test]
    fn bounded_retry_budget_cannot_block_forever() {
        let stm = Stm::new(LsaStm::new(StmConfig::new(1)));
        let gate = stm.new_tvar(0i64);
        let started = std::time::Instant::now();
        let err = stm
            .try_atomically(
                TxKind::Short,
                &RetryPolicy::default().with_max_attempts(1_000_000),
                |tx| {
                    let g = tx.read(&gate)?;
                    if g == 0 {
                        return tx.retry();
                    }
                    Ok(g)
                },
            )
            .expect_err("nothing ever commits, budget must expire");
        assert_eq!(err.last_reason(), AbortReason::Retry);
        assert!(stm.take_stats().blocking_retries() >= 1);
        // The whole point of a bounded policy: fail loudly (one idle
        // limit), not after budget x 100 ms of parking.
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "bounded blocking retry must give up fast on an idle system"
        );
    }

    #[test]
    fn a_write_through_the_raw_handle_wakes_parked_retries() {
        use zstm_core::TmTx;
        let stm = Stm::new(LsaStm::new(StmConfig::new(1)));
        let var = stm.new_tvar(0i64);
        let before = stm.notifier().epoch();
        stm.atomically(TxKind::Short, |tx| tx.read(&var));
        assert_eq!(
            stm.notifier().epoch(),
            before,
            "a read-only commit wakes nobody"
        );
        stm.atomically(TxKind::Short, |tx| tx.raw().write(var.raw(), 1));
        assert_eq!(
            stm.notifier().epoch(),
            before + 1,
            "a commit that went through Tx::raw() must bump the notifier"
        );
        assert_eq!(stm.atomically(TxKind::Short, |tx| tx.read(&var)), 1);
    }

    #[test]
    fn erased_facade_round_trips_i64_and_bytes() {
        let stm: Arc<dyn DynStm> = Arc::new(Stm::new(ZStm::new(StmConfig::new(1))));
        let n = stm.new_i64(41);
        let s = stm.new_bytes(b"abc".to_vec());
        let policy = RetryPolicy::unbounded();
        let (v, bytes) = stm
            .atomically(TxKind::Short, &policy, |tx| {
                let v = tx.read_i64(&n)? + 1;
                tx.write_i64(&n, v)?;
                let mut b = tx.read_bytes(&s)?;
                b.push(b'd');
                tx.write_bytes(&s, b.clone())?;
                Ok((v, b))
            })
            .expect("commits");
        assert_eq!(v, 42);
        assert_eq!(bytes, b"abcd");
        assert_eq!(stm.name(), "z-stm");
        assert!(stm.take_stats().total_commits() >= 1);
    }

    #[test]
    #[should_panic(expected = "different DynStm instance")]
    fn dynvar_type_confusion_panics() {
        let lsa: Arc<dyn DynStm> = Arc::new(Stm::new(LsaStm::new(StmConfig::new(1))));
        let z: Arc<dyn DynStm> = Arc::new(Stm::new(ZStm::new(StmConfig::new(1))));
        let var = lsa.new_i64(0);
        let _ = z.atomically(TxKind::Short, &RetryPolicy::unbounded(), |tx| {
            tx.read_i64(&var)
        });
    }

    #[test]
    #[should_panic(expected = "different DynStm instance")]
    fn dynvar_instance_confusion_panics_even_for_the_same_engine_type() {
        // Two instances of the SAME engine type: the concrete-type
        // downcast would succeed, silently mixing two unrelated clocks —
        // the instance-id tag must catch it.
        let a: Arc<dyn DynStm> = Arc::new(Stm::new(ZStm::new(StmConfig::new(1))));
        let b: Arc<dyn DynStm> = Arc::new(Stm::new(ZStm::new(StmConfig::new(1))));
        let var = a.new_i64(0);
        let _ = b.atomically(TxKind::Short, &RetryPolicy::unbounded(), |tx| {
            tx.read_i64(&var)
        });
    }

    #[test]
    fn panicking_body_rolls_back_and_releases_reservations() {
        // A panic unwinding out of a body must not leave the written
        // variable reserved by a ghost transaction: later writers through
        // a fresh lease must still commit.
        let stm = Stm::new(LsaStm::new(StmConfig::new(2)));
        let var = stm.new_tvar(0i64);
        let (stm2, var2) = (stm.clone(), var.clone());
        let panicked = std::thread::spawn(move || {
            stm2.atomically(TxKind::Short, |tx| {
                tx.write(&var2, 666)?;
                panic!("body blows up mid-transaction");
                #[allow(unreachable_code)]
                Ok(())
            });
        })
        .join();
        assert!(panicked.is_err(), "the body must have panicked");
        // The reservation was rolled back: this write succeeds promptly.
        stm.atomically(TxKind::Short, |tx| tx.write(&var, 1));
        let v = stm.atomically(TxKind::Short, |tx| tx.read(&var));
        assert_eq!(v, 1, "aborted panic write must be invisible");
        let stats = stm.take_stats();
        assert_eq!(
            stats.aborts_for(AbortReason::Explicit),
            1,
            "the panicked attempt is recorded as an explicit abort"
        );
    }
}
