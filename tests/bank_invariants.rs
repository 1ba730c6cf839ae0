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
    // contention (on a fair schedule it commits none, Figure 7's claim in
    // `paper_claims.rs`) — but money must be conserved regardless.
    let config = quick(3, LongMode::Update);
    let stm: Arc<dyn DynStm> = Arc::new(Stm::new(LsaStm::new(StmConfig::new(config.threads + 1))));
    let report = bank(&stm, &config);
    assert!(report.conserved);
    assert!(report.transfer_commits > 0);
}
