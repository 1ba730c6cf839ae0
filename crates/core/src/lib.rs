//! Shared STM framework for the `zstm` workspace.
//!
//! The paper's algorithms (LSA-STM, CS-STM, S-STM, Z-STM) share a large
//! amount of machinery that this crate factors out:
//!
//! * [`TxShared`] — the DSTM-style transaction descriptor whose atomic
//!   status word is every STM's commit point;
//! * [`ThreadCtx`]/[`Attempt`] — the transaction shell around it: slot
//!   claim, statistics, carried karma and the start / aborted / committed
//!   transitions, written once for all five engines;
//! * [`cell::VersionedCell`] — the versioned object under LSA/Z, CS and
//!   S-STM: reservation, promotion, seqlock read, settle-under-lock;
//! * [`CmPolicy::resolve`] — the contention manager: the classic policies
//!   as one value, invoked from the `arbitrate`/`conflict` hooks of
//!   Algorithms 1–3;
//! * [`TxStats`] — per-thread commit/abort accounting split by
//!   [`TxKind`], matching the paper's separate long/short throughput plots;
//! * [`EventSink`]/[`TxEvent`] — the event stream consumed by the
//!   consistency checkers in `zstm-history`;
//! * the [`TmFactory`]/[`TmThread`]/[`TmTx`] traits plus the
//!   [`atomically`] retry loop, which let one workload harness drive all
//!   five STMs.
//!
//! # Examples
//!
//! Running a transaction against any STM implementing the traits (here
//! LSA-STM; swap in any of the five engines):
//!
//! ```
//! use std::sync::Arc;
//! use zstm_core::{atomically, RetryPolicy, StmConfig, TmFactory, TmThread, TmTx, TxKind};
//! use zstm_lsa::LsaStm;
//!
//! let stm = Arc::new(LsaStm::new(StmConfig::new(2)));
//! let var = stm.new_var(0i64);
//! let mut thread = stm.register_thread();
//! let value = atomically(&mut thread, TxKind::Short, &RetryPolicy::default(), |tx| {
//!     let v = tx.read(&var)?;
//!     tx.write(&var, v + 1)?;
//!     Ok(v + 1)
//! })?;
//! assert_eq!(value, 1);
//! # Ok::<(), zstm_core::RetryExhausted>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attempt;
pub mod cell;
mod cm;
mod config;
mod error;
mod events;
mod ids;
mod kind;
mod marker;
mod retry;
mod stats;
mod traits;
mod tx;

pub use attempt::{Attempt, LastRecord, ThreadCtx, TxSets, WriteEntry, RETAINED_SET_CAPACITY};
pub use cm::{CmPolicy, Resolution};
pub use config::StmConfig;
pub use error::{Abort, AbortReason, RetryExhausted};
pub use events::{EventSink, NullSink, TxEvent, TxEventKind, VersionSeq};
pub use ids::{ObjId, ThreadId, TxId};
pub use kind::{AccessMode, TxKind};
pub use marker::AutoMarker;
pub use retry::{atomically, RetryBudget, RetryPolicy};
pub use stats::TxStats;
pub use traits::{TmFactory, TmThread, TmTx, TxValue};
pub use tx::{TxShared, TxStatus};
