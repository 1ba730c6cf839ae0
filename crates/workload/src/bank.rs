use std::sync::Arc;
use std::time::Duration;

use zstm_api::{DynStm, DynVar};
use zstm_core::{RetryPolicy, TxKind, TxStats};
use zstm_util::{run_window, XorShift64};

/// Whether Compute-Total transactions are read-only (Figure 6) or update
/// private transactional state (Figure 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LongMode {
    /// Compute-Total only reads the accounts.
    ReadOnly,
    /// Compute-Total additionally writes the sum to a private (but
    /// transactional) variable, making it an update transaction.
    Update,
}

/// Configuration of the bank micro-benchmark (Section 5.5 of the paper).
#[derive(Clone, Debug)]
pub struct BankConfig {
    /// Number of accounts (the paper uses 1 000).
    pub accounts: usize,
    /// Initial balance per account.
    pub initial_balance: i64,
    /// Worker threads (the paper sweeps 1, 2, 8, 16, 32).
    pub threads: usize,
    /// Wall-clock measurement duration.
    pub duration: Duration,
    /// Percentage of Compute-Total transactions on the mixed thread
    /// (thread 0); the paper uses 20 %.
    pub total_pct: u8,
    /// Read-only or update Compute-Total.
    pub long_mode: LongMode,
    /// Attempts per Compute-Total before the harness gives up on that
    /// instance (bounded so that an STM unable to commit long transactions
    /// shows ~0 throughput instead of hanging, matching the paper's
    /// "LSA-STM is not able to execute them anymore").
    pub long_attempts: u64,
    /// PRNG seed.
    pub seed: u64,
}

impl BankConfig {
    /// The paper's configuration: 1 000 accounts, 20 % Compute-Total on
    /// the mixed thread, read-only Compute-Total.
    pub fn paper(threads: usize) -> Self {
        Self {
            accounts: 1_000,
            initial_balance: 1_000,
            threads,
            duration: Duration::from_secs(2),
            total_pct: 20,
            long_mode: LongMode::ReadOnly,
            long_attempts: 200,
            seed: 0x5eed,
        }
    }

    /// A scaled-down configuration for unit tests and smoke benches.
    pub fn quick(threads: usize) -> Self {
        Self {
            accounts: 64,
            initial_balance: 100,
            threads,
            duration: Duration::from_millis(100),
            total_pct: 20,
            long_mode: LongMode::ReadOnly,
            long_attempts: 100,
            seed: 0x5eed,
        }
    }

    /// Switches Compute-Total to the update variant (Figure 7).
    pub fn with_update_totals(mut self) -> Self {
        self.long_mode = LongMode::Update;
        self
    }
}

/// Result of one bank-benchmark run; the two throughput numbers are the
/// series plotted in the paper's Figures 6 and 7.
#[derive(Clone, Debug)]
pub struct BankReport {
    /// Name of the STM that was measured.
    pub stm: &'static str,
    /// Worker threads used.
    pub threads: usize,
    /// Measured wall-clock duration.
    pub elapsed: Duration,
    /// Committed transfer transactions.
    pub transfer_commits: u64,
    /// Committed Compute-Total transactions.
    pub total_commits: u64,
    /// Compute-Total instances that exhausted their attempt budget.
    pub totals_given_up: u64,
    /// Transfers per second.
    pub transfers_per_sec: f64,
    /// Compute-Total transactions per second.
    pub totals_per_sec: f64,
    /// Merged per-thread statistics.
    pub stats: TxStats,
    /// `true` iff a final audit found the money conserved and every
    /// committed Compute-Total observed the correct sum.
    pub conserved: bool,
}

/// Runs the bank micro-benchmark against a runtime-selected STM.
///
/// Thread 0 is the paper's mixed thread (80 % transfers, 20 %
/// Compute-Total); the remaining threads only transfer. The driver goes
/// through the type-erased [`DynStm`] facade — one compiled driver serves
/// all five engines, and thread contexts are leased from the handle's
/// pool instead of being registered by hand. Configure the STM for at least
/// `config.threads + 1` logical threads (the workers plus the driver's
/// final audit).
///
/// # Panics
///
/// Panics if a transfer permanently fails to commit (transfers are
/// expected to succeed under every STM in this workspace).
pub fn run_bank(stm: &Arc<dyn DynStm>, config: &BankConfig) -> BankReport {
    let accounts: Vec<DynVar> = (0..config.accounts)
        .map(|_| stm.new_i64(config.initial_balance))
        .collect();
    let expected_total = config.initial_balance * config.accounts as i64;
    // Benchmark path: explicitly unbounded (see RetryPolicy::default's
    // cap); the long policy stays bounded by config.long_attempts.
    let transfer_policy = RetryPolicy::unbounded();
    let long_policy = RetryPolicy::default().with_max_attempts(config.long_attempts);

    let (workers, elapsed) = run_window(config.threads, config.duration, |t, window| {
        // The mixed thread's private transactional output variable
        // (the paper: "update transactions that write to private but
        // transactional state").
        let private_total = stm.new_i64(0);
        let mut rng = XorShift64::new(config.seed.wrapping_add(t as u64 * 7919));
        let mut transfer_commits = 0u64;
        let mut total_commits = 0u64;
        let mut totals_given_up = 0u64;
        let mut sums_ok = true;
        while window.is_open() {
            let is_total = t == 0 && rng.next_percent(config.total_pct);
            if is_total {
                let result = stm.atomically(TxKind::Long, &long_policy, |tx| {
                    let mut sum = 0i64;
                    for account in accounts.iter() {
                        sum += tx.read_i64(account)?;
                    }
                    if config.long_mode == LongMode::Update {
                        tx.write_i64(&private_total, sum)?;
                    }
                    Ok(sum)
                });
                match result {
                    Ok(sum) => {
                        total_commits += 1;
                        sums_ok &= sum == expected_total;
                    }
                    Err(_) => totals_given_up += 1,
                }
            } else {
                let from = rng.next_range(accounts.len() as u64) as usize;
                let to = rng.next_range(accounts.len() as u64) as usize;
                if from == to {
                    continue;
                }
                stm.atomically(TxKind::Short, &transfer_policy, |tx| {
                    let a = tx.read_i64(&accounts[from])?;
                    let b = tx.read_i64(&accounts[to])?;
                    tx.write_i64(&accounts[from], a - 1)?;
                    tx.write_i64(&accounts[to], b + 1)
                })
                .expect("transfers must eventually commit");
                transfer_commits += 1;
            }
        }
        (transfer_commits, total_commits, totals_given_up, sums_ok)
    });

    let mut transfer_commits = 0u64;
    let mut total_commits = 0u64;
    let mut totals_given_up = 0u64;
    let mut sums_ok = true;
    for (transfers, totals, given_up, ok) in workers {
        transfer_commits += transfers;
        total_commits += totals;
        totals_given_up += given_up;
        sums_ok &= ok;
    }

    // Final audit on a quiescent system (the exited workers' leases are
    // back in the pool, so the driver leases freely).
    let audited = stm
        .atomically(TxKind::Long, &RetryPolicy::unbounded(), |tx| {
            let mut sum = 0i64;
            for account in accounts.iter() {
                sum += tx.read_i64(account)?;
            }
            Ok(sum)
        })
        .map(|sum| sum == expected_total)
        .unwrap_or(false);

    // Pool-harvested statistics: every worker's context returned to the
    // pool on thread exit, so this sees all of them (plus the audit).
    let stats: TxStats = stm.take_stats();

    let secs = elapsed.as_secs_f64();
    BankReport {
        stm: stm.name(),
        threads: config.threads,
        elapsed,
        transfer_commits,
        total_commits,
        totals_given_up,
        transfers_per_sec: transfer_commits as f64 / secs,
        totals_per_sec: total_commits as f64 / secs,
        stats,
        conserved: audited && sums_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zstm_api::Stm;
    use zstm_core::StmConfig;
    use zstm_lsa::LsaStm;
    use zstm_tl2::Tl2Stm;
    use zstm_z::ZStm;

    fn quick(threads: usize) -> BankConfig {
        let mut config = BankConfig::quick(threads);
        config.duration = Duration::from_millis(80);
        config
    }

    #[test]
    fn bank_on_z_stm_conserves_and_commits_totals() {
        let config = quick(2);
        let stm: Arc<dyn DynStm> =
            Arc::new(Stm::new(ZStm::new(StmConfig::new(config.threads + 1))));
        let report = run_bank(&stm, &config);
        assert!(report.conserved);
        assert!(report.transfer_commits > 0);
        assert_eq!(report.stm, "z-stm");
    }

    #[test]
    fn bank_on_lsa_conserves() {
        let config = quick(2);
        let stm: Arc<dyn DynStm> =
            Arc::new(Stm::new(LsaStm::new(StmConfig::new(config.threads + 1))));
        let report = run_bank(&stm, &config);
        assert!(report.conserved);
        assert!(report.transfer_commits > 0);
        // The pool harvest sees every worker's stats plus the audit.
        assert!(report.stats.total_commits() >= report.transfer_commits);
    }

    #[test]
    fn bank_on_tl2_conserves() {
        let config = quick(2);
        let stm: Arc<dyn DynStm> =
            Arc::new(Stm::new(Tl2Stm::new(StmConfig::new(config.threads + 1))));
        let report = run_bank(&stm, &config);
        assert!(report.conserved);
    }

    #[test]
    fn update_totals_on_z_stm_still_commit() {
        let config = quick(2).with_update_totals();
        let stm: Arc<dyn DynStm> =
            Arc::new(Stm::new(ZStm::new(StmConfig::new(config.threads + 1))));
        let report = run_bank(&stm, &config);
        assert!(report.conserved);
        assert!(
            report.total_commits > 0,
            "Z-STM must sustain update Compute-Total (Figure 7)"
        );
    }
}
