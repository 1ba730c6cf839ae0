//! Failure injection: transactions that die mid-flight (their OS thread
//! disappears while they hold write reservations) must not wedge the
//! system — contention managers eventually steal the abandoned
//! reservations.

use std::sync::Arc;

use zstm::core::{CmPolicy, StmConfig, TmFactory, TmThread, TmTx, TxKind};
use zstm::prelude::*;

/// A transaction acquires write reservations and its thread then vanishes
/// without committing or rolling back. Later transactions must still make
/// progress (the Active descriptor is killable by any contention manager).
#[test]
fn abandoned_active_reservation_is_stolen_lsa() {
    let stm = Arc::new(LsaStm::new(StmConfig::new(2)));
    let var = stm.new_var(0i64);
    {
        // Simulate thread death: begin, reserve, drop everything without
        // rollback (mem::forget would leak; dropping the Tx without
        // calling commit/rollback models a stuck-but-alive tx whose owner
        // never returns — its descriptor stays Active).
        let mut dead_thread = stm.register_thread();
        let mut tx = dead_thread.begin(TxKind::Short);
        tx.write(&var, 666).expect("reserve");
        std::mem::forget(tx);
        std::mem::forget(dead_thread);
    }
    // A new transaction conflicts with the abandoned reservation; the
    // Polite contention manager waits briefly, then kills it.
    let mut thread = stm.register_thread();
    let value = atomically(&mut thread, TxKind::Short, &RetryPolicy::default(), |tx| {
        let v = tx.read(&var)?;
        tx.write(&var, v + 1)?;
        tx.read(&var)
    })
    .expect("progress despite the abandoned reservation");
    assert_eq!(value, 1, "the abandoned write must not be visible");
}

#[test]
fn abandoned_reservation_is_stolen_by_long_tx_z() {
    let stm = Arc::new(ZStm::new(StmConfig::new(2)));
    let var = stm.new_var(7i64);
    {
        let mut dead_thread = stm.register_thread();
        let mut tx = dead_thread.begin(TxKind::Short);
        tx.write(&var, 666).expect("reserve");
        std::mem::forget(tx);
        std::mem::forget(dead_thread);
    }
    let mut thread = stm.register_thread();
    let value = atomically(&mut thread, TxKind::Long, &RetryPolicy::default(), |tx| {
        tx.read(&var)
    })
    .expect("long transaction arbitrates the abandoned writer away");
    assert_eq!(value, 7);
}

#[test]
fn abandoned_reservation_is_stolen_cs() {
    let mut config = StmConfig::new(2);
    config.cm(CmPolicy::Karma);
    let stm = Arc::new(CsStm::with_vector_clock(config));
    let var = stm.new_var(1i64);
    {
        let mut dead_thread = stm.register_thread();
        let mut tx = dead_thread.begin(TxKind::Short);
        tx.write(&var, 666).expect("reserve");
        std::mem::forget(tx);
        std::mem::forget(dead_thread);
    }
    let mut thread = stm.register_thread();
    let value = atomically(&mut thread, TxKind::Short, &RetryPolicy::default(), |tx| {
        let v = tx.read(&var)?;
        tx.write(&var, v * 2)?;
        tx.read(&var)
    })
    .expect("karma eventually out-waits the dead reservation");
    assert_eq!(value, 2);
}

/// Killed transactions must observe their own death at the next access:
/// every subsequent operation returns `Killed`, and the retry loop starts
/// a fresh attempt that succeeds.
#[test]
fn killed_transaction_fails_fast_and_retry_recovers() {
    let mut config = StmConfig::new(2);
    config.cm(CmPolicy::Aggressive);
    let stm = Arc::new(LsaStm::new(config));
    let var = stm.new_var(0i64);
    let other = stm.new_var(0i64);
    let mut victim_thread = stm.register_thread();
    let mut killer_thread = stm.register_thread();

    let mut victim = victim_thread.begin(TxKind::Short);
    victim.write(&var, 1).expect("victim reserves");

    // The aggressive killer steals the reservation, killing the victim.
    atomically(
        &mut killer_thread,
        TxKind::Short,
        &RetryPolicy::default(),
        |tx| tx.write(&var, 2),
    )
    .expect("killer commits");

    let err = victim.read(&other).expect_err("victim is dead");
    assert_eq!(err.reason(), zstm::core::AbortReason::Killed);
    victim.rollback(err.reason());

    // The victim's thread retries and wins eventually.
    let v = atomically(
        &mut victim_thread,
        TxKind::Short,
        &RetryPolicy::default(),
        |tx| {
            let v = tx.read(&var)?;
            tx.write(&var, v + 10)?;
            tx.read(&var)
        },
    )
    .expect("retry succeeds");
    assert_eq!(v, 12);
}

/// Explicit user aborts roll everything back on every STM.
#[test]
fn explicit_aborts_leave_no_trace() {
    fn check<F: TmFactory>(stm: Arc<F>) {
        let var = stm.new_var(5i64);
        let mut thread = stm.register_thread();
        let result = atomically(
            &mut thread,
            TxKind::Short,
            &RetryPolicy::default().with_max_attempts(3),
            |tx| {
                tx.write(&var, 999)?;
                Err::<(), _>(zstm::core::Abort::new(zstm::core::AbortReason::Explicit))
            },
        );
        assert!(result.is_err());
        let v = atomically(&mut thread, TxKind::Short, &RetryPolicy::default(), |tx| {
            tx.read(&var)
        })
        .expect("read");
        assert_eq!(v, 5);
    }
    check(Arc::new(LsaStm::new(StmConfig::new(1))));
    check(Arc::new(Tl2Stm::new(StmConfig::new(1))));
    check(Arc::new(CsStm::with_vector_clock(StmConfig::new(1))));
    check(Arc::new(SStm::with_vector_clock(StmConfig::new(1))));
    check(Arc::new(ZStm::new(StmConfig::new(1))));
}

/// Retry exhaustion is reported, not hung: a transaction that can never
/// commit gives up after the configured number of attempts.
#[test]
fn retry_exhaustion_reports_reason() {
    let stm = Arc::new(LsaStm::new(StmConfig::new(1)));
    let mut thread = stm.register_thread();
    let err = atomically(
        &mut thread,
        TxKind::Short,
        &RetryPolicy::default().with_max_attempts(5),
        |_tx| Err::<(), _>(zstm::core::Abort::new(zstm::core::AbortReason::Explicit)),
    )
    .expect_err("always aborts");
    assert_eq!(err.attempts(), 5);
    assert_eq!(err.last_reason(), zstm::core::AbortReason::Explicit);
}
