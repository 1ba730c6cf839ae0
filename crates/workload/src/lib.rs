//! Workloads and measurement harness for the `zstm` benchmarks.
//!
//! The centrepiece is the paper's **bank micro-benchmark** (Section 5.5):
//!
//! * *transfer* — a short update transaction withdrawing from one account
//!   and depositing to another;
//! * *Compute-Total* — a long transaction summing all accounts, either
//!   read-only (Figure 6) or additionally updating private transactional
//!   state (Figure 7);
//! * 1 000 accounts; one *mixed* thread runs 80 % transfers / 20 %
//!   Compute-Total, every other thread runs only transfers.
//!
//! [`run_bank`] drives a runtime-selected STM (any engine behind the
//! type-erased [`DynStm`](zstm_api::DynStm) facade) for a fixed wall-clock
//! duration and returns a [`BankReport`] with the same two series the
//! paper plots: Compute-Total throughput and transfer throughput.
//!
//! [`run_array`] is a smaller random read/write workload used by the
//! figures that illustrate the plausible-clock and contention-manager
//! claims (the claims themselves are exact counts in
//! `tests/paper_claims.rs`) and by the certification-cost figure.
//!
//! [`run_map`] is a **read-dominated** bucketed-map workload (90 %
//! lookups by default, with occasional updates and long consistent
//! scans) — the scenario the seqlock read fast path and the sharded time
//! base are built for; the bank benchmark's transfers are update-heavy
//! and cannot show either.
//!
//! All three measure one fixed wall-clock window through
//! [`zstm_util::run_window`]; [`Series`] and [`print_table`] are the
//! figure table's rows.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use std::time::Duration;
//! use zstm_api::{DynStm, Stm};
//! use zstm_core::StmConfig;
//! use zstm_workload::{run_bank, BankConfig, LongMode};
//! use zstm_z::ZStm;
//!
//! let mut config = BankConfig::quick(2);
//! config.duration = Duration::from_millis(50);
//! // One extra logical thread for the harness's final audit.
//! let stm: Arc<dyn DynStm> = Arc::new(Stm::new(ZStm::new(StmConfig::new(3))));
//! let report = run_bank(&stm, &config);
//! assert!(report.conserved, "transfers must conserve money");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod bank;
mod map;
mod report;

pub use array::{run_array, ArrayConfig, ArrayReport};
pub use bank::{run_bank, BankConfig, BankReport, LongMode};
pub use map::{run_map, MapConfig, MapReport};
pub use report::{print_table, Series};
