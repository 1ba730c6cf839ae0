//! `bank_z_long`: the operations of the paper's Figure 7 on Z-STM — long
//! update Compute-Total transactions among short transfers, through
//! `Arc<dyn DynStm>`, from one thread.
//!
//! Primary class: transfer. Secondary class: Compute-Total.
//!
//! One thread, not the figure's several: two threads that contend keep both
//! of the machine's CPUs busy, every preemption of one stalls the other, and
//! ten runs of the same code then spread a quarter of their median (see
//! README.md, *What changed since the first check*). What a thread pays for
//! a long transaction and for the short ones around it repeats; how two
//! threads fare against each other on a shared host does not, and is left
//! to `repro_figures`, which gates its shape and not its numbers.

use std::sync::Arc;

use zstm_api::{DynStm, DynVar, Stm};
use zstm_core::{RetryPolicy, StmConfig, TxKind, TxStats};
use zstm_util::XorShift64;
use zstm_z::ZStm;

use super::{distinct_pair, hash_streams, stream_rng, warm_up_count, Finish, Workload};
use crate::harness::{self, Strides, WindowOut, Worker, PRIMARY, SECONDARY};
use crate::trace::{self, Tracer};

const ACCOUNTS: usize = 1_000;
const INITIAL_BALANCE: i64 = 1_000;
const EXPECTED_TOTAL: i64 = ACCOUNTS as i64 * INITIAL_BALANCE;
/// One operation in this many is a Compute-Total, which makes the two
/// classes about equal shares of the run: a total reads every account and
/// costs a few hundred transfers.
const TOTAL_ONE_IN: u64 = 200;
/// Attempts a Compute-Total gets before it counts as failed.
const LONG_ATTEMPTS: u64 = 200;
const WARM_UP_TRANSFERS: u64 = 200_000;

enum Op {
    Transfer { from: usize, to: usize },
    Total,
}

pub struct BankWorker {
    stm: Arc<dyn DynStm>,
    accounts: Arc<Vec<DynVar>>,
    /// The Compute-Total's private (but transactional) output variable: what
    /// makes it an *update* transaction.
    private_total: DynVar,
    rng: XorShift64,
    /// Off during warm-up, which is counted in transfers.
    totals: bool,
    op: Op,
    wrong_totals: u64,
}

impl Worker for BankWorker {
    fn thread_name(&self) -> String {
        "bank-mixed".to_string()
    }

    fn sample_strides(&self) -> Strides {
        // A transfer is a fraction of a microsecond; a total is tens.
        [16, 1]
    }

    fn trace_strides(&self) -> Strides {
        // A traced total alone records a thousand read spans.
        [64, 8]
    }

    fn draw(&mut self) -> usize {
        if self.totals && self.rng.next_range(TOTAL_ONE_IN) == 0 {
            self.op = Op::Total;
            return SECONDARY;
        }
        let (from, to) = distinct_pair(&mut self.rng, ACCOUNTS);
        self.op = Op::Transfer { from, to };
        PRIMARY
    }

    fn run(&mut self, tracer: Option<&Tracer>) -> bool {
        match self.op {
            Op::Transfer { from, to } => {
                let (from, to) = (&self.accounts[from], &self.accounts[to]);
                trace::atomically(
                    &*self.stm,
                    TxKind::Short,
                    &RetryPolicy::unbounded(),
                    tracer,
                    |tx| {
                        let a = tx.read_i64(from)?;
                        let b = tx.read_i64(to)?;
                        tx.write_i64(from, a - 1)?;
                        tx.write_i64(to, b + 1)
                    },
                )
                .is_ok()
            }
            Op::Total => {
                let policy = RetryPolicy::default().with_max_attempts(LONG_ATTEMPTS);
                let sum = trace::atomically(&*self.stm, TxKind::Long, &policy, tracer, |tx| {
                    let mut sum = 0i64;
                    for account in self.accounts.iter() {
                        sum += tx.read_i64(account)?;
                    }
                    tx.write_i64(&self.private_total, sum)?;
                    Ok(sum)
                });
                match sum {
                    Ok(sum) => {
                        self.wrong_totals += u64::from(sum != EXPECTED_TOTAL);
                        true
                    }
                    Err(_) => false,
                }
            }
        }
    }
}

pub struct Bank {
    stm: Arc<dyn DynStm>,
    accounts: Arc<Vec<DynVar>>,
    worker: [BankWorker; 1],
    input_hash: u64,
}

impl Workload for Bank {
    const NAME: &'static str = "bank_z_long";
    type Worker = BankWorker;
    type Inputs = u64;

    fn generate(seed: u64) -> u64 {
        seed
    }

    fn setup(&seed: &u64, smoke: bool) -> Self {
        // The worker, this thread's audit, and one to spare.
        let stm: Arc<dyn DynStm> = Arc::new(Stm::new(ZStm::new(StmConfig::new(3))));
        let accounts: Arc<Vec<DynVar>> = Arc::new(
            (0..ACCOUNTS)
                .map(|_| stm.new_i64(INITIAL_BALANCE))
                .collect(),
        );
        let mut worker = [BankWorker {
            stm: Arc::clone(&stm),
            accounts: Arc::clone(&accounts),
            private_total: stm.new_i64(0),
            rng: stream_rng(seed, Self::NAME, 0),
            totals: false,
            op: Op::Total,
            wrong_totals: 0,
        }];
        let input_hash = hash_streams(std::iter::once(&worker[0].rng));
        let failed = harness::warm_up(&mut worker, warm_up_count(WARM_UP_TRANSFERS, smoke));
        assert_eq!(failed, 0, "warm-up transfers must commit");
        worker[0].totals = true;
        Bank {
            stm,
            accounts,
            worker,
            input_hash,
        }
    }

    fn input_hash(&self) -> u64 {
        self.input_hash
    }

    fn workers(&mut self) -> &mut [BankWorker] {
        &mut self.worker
    }

    fn take_stats(&mut self) -> Option<TxStats> {
        Some(self.stm.take_stats())
    }

    fn finish(self, _traced: Option<&WindowOut>) -> Finish {
        let balance = self
            .stm
            .atomically(TxKind::Long, &RetryPolicy::unbounded(), |tx| {
                let mut sum = 0i64;
                for account in self.accounts.iter() {
                    sum += tx.read_i64(account)?;
                }
                Ok(sum)
            })
            .expect("unbounded audit commits");
        let wrong_totals = self.worker[0].wrong_totals;
        let audit = if balance != EXPECTED_TOTAL {
            Err(format!("balances sum to {balance}, not {EXPECTED_TOTAL}"))
        } else if wrong_totals > 0 {
            Err(format!(
                "{wrong_totals} committed Compute-Totals saw a wrong sum"
            ))
        } else {
            Ok(())
        };
        Finish {
            audit,
            layers: Vec::new(),
        }
    }
}
