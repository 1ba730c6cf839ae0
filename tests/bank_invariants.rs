//! The bank benchmark's money-conservation invariant on every STM, in
//! both Compute-Total modes.

use std::sync::Arc;
use std::time::Duration;

use zstm::core::StmConfig;
use zstm::prelude::*;
use zstm::util::run_with_deadline;
use zstm::workload::{run_bank, BankConfig, BankReport, LongMode};

fn quick(threads: usize, mode: LongMode) -> BankConfig {
    let mut config = BankConfig::quick(threads);
    config.duration = Duration::from_millis(150);
    config.long_mode = mode;
    config
}

/// [`run_bank`] under a deadline: the run is 150 ms of work plus joins,
/// so a worker that never finishes fails with the engine's name.
fn bank(stm: &Arc<dyn DynStm>, config: &BankConfig) -> BankReport {
    let (stm, config) = (Arc::clone(stm), config.clone());
    let name = format!("bank invariants [{}]", stm.name());
    run_with_deadline(&name, Duration::from_secs(30), move || {
        run_bank(&stm, &config)
    })
}

#[test]
fn lsa_bank_readonly_totals() {
    let config = quick(3, LongMode::ReadOnly);
    let stm: Arc<dyn DynStm> = Arc::new(Stm::new(LsaStm::new(StmConfig::new(config.threads + 1))));
    let report = bank(&stm, &config);
    assert!(report.conserved);
    assert!(report.transfer_commits > 0);
    assert!(
        report.total_commits > 0,
        "read-only Compute-Total must commit under LSA (Figure 6)"
    );
}

#[test]
fn lsa_noreadsets_bank_readonly_totals() {
    let config = quick(3, LongMode::ReadOnly);
    let mut stm_config = StmConfig::new(config.threads + 1);
    stm_config.readonly_readsets(false);
    let stm: Arc<dyn DynStm> = Arc::new(Stm::new(LsaStm::new(stm_config)));
    let report = bank(&stm, &config);
    assert!(report.conserved);
    assert!(report.total_commits > 0);
    assert_eq!(report.stm, "lsa-noreadsets");
}

#[test]
fn tl2_bank() {
    let config = quick(3, LongMode::ReadOnly);
    let stm: Arc<dyn DynStm> = Arc::new(Stm::new(Tl2Stm::new(StmConfig::new(config.threads + 1))));
    let report = bank(&stm, &config);
    assert!(report.conserved);
    assert!(report.transfer_commits > 0);
}

#[test]
fn cs_bank() {
    let config = quick(3, LongMode::ReadOnly);
    let stm: Arc<dyn DynStm> = Arc::new(Stm::new(CsStm::with_vector_clock(StmConfig::new(
        config.threads + 1,
    ))));
    let report = bank(&stm, &config);
    assert!(report.conserved);
    assert!(report.transfer_commits > 0);
}

#[test]
fn s_stm_bank() {
    let config = quick(3, LongMode::ReadOnly);
    let stm: Arc<dyn DynStm> = Arc::new(Stm::new(SStm::with_vector_clock(StmConfig::new(
        config.threads + 1,
    ))));
    let report = bank(&stm, &config);
    assert!(report.conserved);
    assert!(report.transfer_commits > 0);
}

#[test]
fn z_bank_readonly_totals() {
    let config = quick(3, LongMode::ReadOnly);
    let stm: Arc<dyn DynStm> = Arc::new(Stm::new(ZStm::new(StmConfig::new(config.threads + 1))));
    let report = bank(&stm, &config);
    assert!(report.conserved);
    assert!(report.total_commits > 0);
}

#[test]
fn z_bank_update_totals_sustains() {
    let config = quick(3, LongMode::Update);
    let stm: Arc<dyn DynStm> = Arc::new(Stm::new(ZStm::new(StmConfig::new(config.threads + 1))));
    let report = bank(&stm, &config);
    assert!(report.conserved);
    assert!(
        report.total_commits > 0,
        "Z-STM sustains update Compute-Total (Figure 7): {report:?}"
    );
}

#[test]
fn lsa_bank_update_totals_conserves_even_when_starved() {
    // LSA may or may not commit update Compute-Total transactions under
    // contention (Figure 7 shows ~0 throughput at scale) — but money must
    // be conserved regardless.
    let config = quick(3, LongMode::Update);
    let stm: Arc<dyn DynStm> = Arc::new(Stm::new(LsaStm::new(StmConfig::new(config.threads + 1))));
    let report = bank(&stm, &config);
    assert!(report.conserved);
    assert!(report.transfer_commits > 0);
}

#[test]
fn figure7_separation_deterministic_schedule() {
    // The mechanism behind Figure 7, as a deterministic interleaving
    // instead of a wall-clock throughput race (which measures scheduler
    // behaviour more than the algorithms on small or single-core boxes;
    // the throughput shape itself is enforced in release mode by the
    // bench-smoke CI gate via `check_baselines`).
    //
    // Schedule: an update Compute-Total starts, reads one account, and a
    // transfer touching that account plus a not-yet-read one tries to
    // commit mid-flight.
    use zstm::core::{AbortReason, TmThread, TmTx};

    // LSA: the transfer commits, and at commit time the long transaction's
    // read of account 0 has a successor older than its commit stamp — the
    // read validation that makes LSA's update Compute-Totals collapse.
    let stm = Arc::new(LsaStm::new(StmConfig::new(2)));
    let accounts: Vec<_> = (0..4).map(|_| stm.new_var(100i64)).collect();
    let out = stm.new_var(0i64);
    let mut p0 = stm.register_thread();
    let mut p1 = stm.register_thread();
    let mut long = p0.begin(TxKind::Long);
    let mut sum = long.read(&accounts[0]).expect("long reads first account");
    atomically(&mut p1, TxKind::Short, &RetryPolicy::default(), |tx| {
        let a = tx.read(&accounts[0])?;
        let b = tx.read(&accounts[1])?;
        tx.write(&accounts[0], a - 1)?;
        tx.write(&accounts[1], b + 1)
    })
    .expect("mid-flight transfer commits under LSA");
    for account in &accounts[1..] {
        sum += long
            .read(account)
            .expect("multi-version reads stay consistent");
    }
    assert_eq!(sum, 400, "the snapshot itself is consistent");
    long.write(&out, sum).expect("reserve the output");
    let err = long
        .commit()
        .expect_err("LSA: the mid-flight transfer dooms the update Compute-Total");
    assert_eq!(err.reason(), AbortReason::ReadValidation);

    // Z-STM: the same schedule commits the long transaction — the transfer
    // cannot cross from the freshly stamped zone back into the old one and
    // aborts instead (Algorithm 3 lines 16–22).
    let stm = Arc::new(ZStm::new(StmConfig::new(2)));
    let accounts: Vec<_> = (0..4).map(|_| stm.new_var(100i64)).collect();
    let out = stm.new_var(0i64);
    let mut p0 = stm.register_thread();
    let mut p1 = stm.register_thread();
    let mut long = p0.begin(TxKind::Long);
    let mut sum = long.read(&accounts[0]).expect("long stamps account 0");
    let transfer = atomically(
        &mut p1,
        TxKind::Short,
        &RetryPolicy::default().with_max_attempts(5),
        |tx| {
            let a = tx.read(&accounts[0])?;
            let b = tx.read(&accounts[1])?;
            tx.write(&accounts[0], a - 1)?;
            tx.write(&accounts[1], b + 1)
        },
    );
    assert!(
        transfer.is_err(),
        "Z-STM: the transfer must not cross the active zone"
    );
    for account in &accounts[1..] {
        sum += long.read(account).expect("zone-protected reads");
    }
    long.write(&out, sum).expect("reserve the output");
    long.commit()
        .expect("Z-STM: the update Compute-Total sustains (Figure 7)");
    assert_eq!(sum, 400);
}
