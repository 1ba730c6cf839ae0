//! # zstm — From Causal to z-Linearizable Transactional Memory
//!
//! A from-scratch Rust reproduction of Riegel, Sturzrehm, Felber & Fetzer,
//! *"From Causal to z-Linearizable Transactional Memory"* (PODC 2007):
//! five software transactional memories sharing one API, the time bases
//! they are built on, consistency checkers for every guarantee the paper
//! discusses, and the paper's bank benchmark.
//!
//! | module | STM | consistency guarantee |
//! |--------|-----|----------------------|
//! | [`lsa`] | LSA-STM (multi-version lazy snapshot) | linearizability (opacity) |
//! | [`tl2`] | TL2-style single-version | linearizability |
//! | [`cs`]  | CS-STM over vector/plausible clocks | causal serializability |
//! | [`sstm`] | S-STM with precedence graph | serializability |
//! | [`z`]   | **Z-STM** (the paper's contribution) | **z-linearizability** |
//!
//! All five implement [`TmFactory`](core::TmFactory) /
//! [`TmThread`](core::TmThread) / [`TmTx`](core::TmTx), so workloads are
//! generic over the STM. The [`history`] module records executions and
//! checks them against the claimed criterion; [`workload`] contains the
//! paper's bank micro-benchmark.
//!
//! ## Quickstart
//!
//! The [`api`] front end handles thread registration, retry loops and
//! blocking; user code creates one [`Stm`](api::Stm) handle and shares
//! [`TVar`](api::TVar)s:
//!
//! ```
//! use zstm::prelude::*;
//!
//! // The paper's contribution: a z-linearizable STM.
//! let stm = Stm::new(ZStm::new(StmConfig::new(2)));
//! let account = stm.new_tvar(100i64);
//!
//! // Short transactions are plain LSA underneath:
//! stm.atomically(TxKind::Short, |tx| tx.modify(&account, |b| *b -= 30));
//!
//! // Long transactions use zone-based optimistic timestamp ordering and
//! // keep no read sets:
//! let balance = stm.atomically(TxKind::Long, |tx| tx.read(&account));
//! assert_eq!(balance, 70);
//!
//! // Composable blocking: park until the balance reaches 100 — woken by
//! // the deposit committing on another thread.
//! let deposit = {
//!     let (stm, account) = (stm.clone(), account.clone());
//!     std::thread::spawn(move || {
//!         stm.atomically(TxKind::Short, |tx| tx.modify(&account, |b| *b += 30))
//!     })
//! };
//! let rich = stm.atomically(TxKind::Short, |tx| {
//!     let b = tx.read(&account)?;
//!     if b < 100 {
//!         return tx.retry();
//!     }
//!     Ok(b)
//! });
//! deposit.join().unwrap();
//! assert_eq!(rich, 100);
//! ```
//!
//! Atomic blocks are also available as futures —
//! [`Stm::atomically_async`](api::Stm::atomically_async) suspends the
//! *task* (waker registration on the commit notifier) instead of parking
//! the OS thread, driven by the offline executor in [`util::exec`] — and
//! the engine-level SPI (explicit [`TmThread`](core::TmThread) contexts
//! and the [`core::atomically`] spin-retry loop) remains available for
//! harnesses that script logical threads deterministically.
//!
//! See `ARCHITECTURE.md` for how the crates fit together, `DESIGN.md`
//! for the paper-to-code guide (per-STM algorithm/figure mapping), and
//! `README.md` for the reproduced figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Time bases: the shared counter of LSA, TL2 and Z-STM, and the vector or
/// plausible (REV) clock of CS-STM and S-STM. Re-export of [`zstm_clock`].
pub mod clock {
    pub use zstm_clock::*;
}

/// The shared STM framework: traits, contention managers, statistics,
/// events. Re-export of [`zstm_core`].
pub mod core {
    pub use zstm_core::*;
}

/// The composable atomic front end: `Stm` runtime handle, shareable
/// `TVar`s, blocking `retry`/`or_else`, and the type-erased `DynStm`
/// facade. Re-export of [`zstm_api`].
pub mod api {
    pub use zstm_api::*;
}

/// LSA-STM, the multi-version baseline. Re-export of [`zstm_lsa`].
pub mod lsa {
    pub use zstm_lsa::*;
}

/// TL2-style single-version baseline. Re-export of [`zstm_tl2`].
pub mod tl2 {
    pub use zstm_tl2::*;
}

/// CS-STM: causal serializability over vector time. Re-export of
/// [`zstm_cs`].
pub mod cs {
    pub use zstm_cs::*;
}

/// S-STM: full serializability with visible reads and a precedence graph.
/// Re-export of [`zstm_sstm`].
pub mod sstm {
    pub use zstm_sstm::*;
}

/// Z-STM: the paper's z-linearizable STM. Re-export of [`zstm_z`].
pub mod z {
    pub use zstm_z::*;
}

/// Online SSI certification: wrap any engine in a commit-time
/// serializability certifier. Re-export of [`zstm_certify`].
pub mod certify {
    pub use zstm_certify::*;
}

/// Transactional containers (`TMap`, `TSet`, `TQueue`, `TDeque`) over
/// the erased facade: per-bucket conflict granularity and composable
/// blocking pops. Re-export of [`zstm_collections`].
pub mod collections {
    pub use zstm_collections::*;
}

/// The TCP network front end: wire protocol (see `PROTOCOL.md`), server,
/// scripted client and chaos-socket fault injection. Re-export of
/// [`zstm_server`].
pub mod server {
    pub use zstm_server::*;
}

/// History recording and consistency checkers. Re-export of
/// [`zstm_history`].
pub mod history {
    pub use zstm_history::*;
}

/// Workloads and the measurement harness. Re-export of [`zstm_workload`].
pub mod workload {
    pub use zstm_workload::*;
}

/// Low-level utilities. Re-export of [`zstm_util`].
pub mod util {
    pub use zstm_util::*;
}

/// The items almost every user needs.
pub mod prelude {
    pub use zstm_api::{DynStm, DynTx, DynVar, Stm, TVar, Tx};
    pub use zstm_certify::CertifiedFactory;
    pub use zstm_clock::{RevClock, ScalarClock, TimeBase};
    pub use zstm_collections::{Codec, TDeque, TMap, TQueue, TSet};
    pub use zstm_core::{
        atomically, Abort, AbortReason, CmPolicy, RetryExhausted, RetryPolicy, StmConfig,
        TmFactory, TmThread, TmTx, TxKind,
    };
    pub use zstm_cs::CsStm;
    pub use zstm_lsa::LsaStm;
    pub use zstm_sstm::SStm;
    pub use zstm_tl2::Tl2Stm;
    pub use zstm_z::ZStm;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::Arc;

    #[test]
    fn facade_builds_every_stm() {
        let _ = Arc::new(LsaStm::new(StmConfig::new(1)));
        let _ = Arc::new(Tl2Stm::new(StmConfig::new(1)));
        let _ = Arc::new(CsStm::with_vector_clock(StmConfig::new(1)));
        let _ = Arc::new(SStm::with_vector_clock(StmConfig::new(1)));
        let _ = Arc::new(ZStm::new(StmConfig::new(1)));
    }
}
