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
//! ablation benchmarks (contention managers, plausible-clock sizes, time
//! bases).
//!
//! [`run_map`] is a **read-dominated** bucketed-map workload (90 %
//! lookups by default, with occasional updates and long consistent
//! scans) — the scenario the seqlock read fast path and the sharded time
//! base are built for; the bank benchmark's transfers are update-heavy
//! and cannot show either.
//!
//! [`run_graph`] exercises the **collections layer** end to end: a graph
//! whose adjacency lives in a [`TMap`](zstm_collections::TMap) with a
//! per-node in-degree secondary index in a second `TMap`, updated in the
//! *same* transaction as every atomic edge move; long audit transactions
//! recompute the index from scratch and flag any divergence.
//!
//! [`run_read_hotspot`] is the pure read-path stress: every thread
//! hammers one hot variable with short read-only transactions, so the
//! per-read synchronization cost (mutex vs lock-free publication)
//! dominates — the workload behind the read-hotspot figure.
//!
//! [`run_queue`] is the first **blocking** workload: a bounded
//! producer/consumer ring in which empty/full conditions park on
//! `tx.retry()` instead of spinning. It runs over the type-erased
//! [`DynStm`](zstm_api::DynStm) facade, so one driver serves all five
//! engines selected at runtime.
//!
//! [`run_queue_async`] is the same ring with **async transactions**:
//! producer/consumer *tasks* multiplexed over a small
//! [`zstm_util::exec::ThreadPool`], suspending (waker registration on the
//! commit notifier) instead of parking OS threads — the `tasks > workers`
//! sweep behind the async-queue figure.
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
mod graph;
mod hotspot;
mod list;
mod map;
mod queue;
mod report;

pub use array::{run_array, ArrayConfig, ArrayReport};
pub use bank::{run_bank, BankConfig, BankReport, LongMode};
pub use graph::{run_graph, GraphConfig, GraphReport, TxGraph};
pub use hotspot::{run_read_hotspot, HotspotConfig, HotspotReport};
pub use list::TxList;
pub use map::{run_map, MapConfig, MapReport};
pub use queue::{
    run_queue, run_queue_async, QueueAsyncConfig, QueueConfig, QueueLoad, QueueReport,
};
pub use report::{print_table, Series};
