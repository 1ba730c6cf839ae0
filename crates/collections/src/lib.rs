//! Transactional containers for the `zstm` engines.
//!
//! The paper's STMs operate on scalar variables, and structure built
//! over them by hand means byte-packed buckets and rings in every
//! caller. This crate provides the typed containers instead, built
//! **only** on the `zstm-api` facade (no engine code is touched):
//!
//! * [`TMap<K, V>`] — a hash map over **per-bucket** variables, so
//!   transactions on keys in different buckets never conflict (the
//!   conflict-granularity axis the `collections` figure measures), with
//!   a fixed-fanout design note on why it never splits buckets;
//! * [`TSet<T>`] — membership over `TMap<T, ()>`;
//! * [`TQueue<T>`] / [`TDeque<T>`] — bounded rings whose empty/full
//!   conditions *park* on `tx.retry()` instead of spinning;
//! * [`Codec`] — the byte encoding contract that lets typed keys and
//!   values live inside the facade's `i64`/bytes variables.
//!
//! Everything takes `&dyn DynStm` at construction and `&mut dyn DynTx`
//! per operation. Since every typed `Stm<F>` *is* a [`DynStm`] and every
//! `Tx<'_, F>` *is* a [`DynTx`] (unsized coercion at the call site), one
//! container implementation serves typed code, runtime-selected engines
//! and SSI-certified factories alike.
//!
//! # Cross-container atomicity
//!
//! Operations are plain calls inside one transaction body, so a single
//! transaction can span any number of containers — move an item from a
//! queue into a map and update a set, all-or-nothing:
//!
//! ```
//! use std::sync::Arc;
//! use zstm_api::{DynStm, Stm};
//! use zstm_collections::{TMap, TQueue, TSet};
//! use zstm_core::{RetryPolicy, StmConfig, TxKind};
//! use zstm_lsa::LsaStm;
//!
//! let stm: Arc<dyn DynStm> = Arc::new(Stm::new(LsaStm::new(StmConfig::new(1))));
//! let inbox: TQueue<u64> = TQueue::new(&*stm, 8);
//! let store: TMap<u64, u64> = TMap::new(&*stm, 16);
//! let seen: TSet<u64> = TSet::new(&*stm, 16);
//! let policy = RetryPolicy::unbounded();
//!
//! stm.atomically(TxKind::Short, &policy, |tx| inbox.push(tx, &7)).unwrap();
//! // One transaction over three containers: pop, file, mark. A blocked
//! // pop parks the whole composition until a push commits.
//! stm.atomically(TxKind::Short, &policy, |tx| {
//!     let item = inbox.pop(tx)?;
//!     store.insert(tx, &item, &(item * item))?;
//!     seen.insert(tx, &item)?;
//!     Ok(())
//! })
//! .unwrap();
//! ```
//!
//! [`DynStm`]: zstm_api::DynStm
//! [`DynTx`]: zstm_api::DynTx

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod map;
mod queue;
mod set;

pub use codec::Codec;
pub use map::TMap;
pub use queue::{TDeque, TQueue};
pub use set::TSet;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use zstm_api::{DynStm, Stm, Tx};
    use zstm_core::{RetryPolicy, StmConfig, TxKind};
    use zstm_lsa::LsaStm;

    #[test]
    fn typed_tx_handles_drive_the_containers_directly() {
        // The containers take `&mut dyn DynTx`; a typed `Tx<'_, F>` must
        // coerce without any adapter.
        let stm = Stm::new(LsaStm::new(StmConfig::new(1)));
        let dyn_stm: &dyn DynStm = &stm;
        let map: TMap<u64, u64> = TMap::new(dyn_stm, 4);
        let sum = stm.atomically(TxKind::Short, |tx: &mut Tx<'_, LsaStm>| {
            map.insert(tx, &1, &10)?;
            map.insert(tx, &2, &20)?;
            let a = map.get(tx, &1)?.unwrap_or(0);
            let b = map.get(tx, &2)?.unwrap_or(0);
            Ok(a + b)
        });
        assert_eq!(sum, 30);
    }

    #[test]
    fn a_failed_transaction_leaves_no_partial_cross_container_effects() {
        let stm: Arc<dyn DynStm> = Arc::new(Stm::new(LsaStm::new(StmConfig::new(1))));
        let queue: TQueue<u64> = TQueue::new(&*stm, 2);
        let map: TMap<u64, u64> = TMap::new(&*stm, 4);
        let policy = RetryPolicy::unbounded();
        // The map insert happens, then the pop of an empty queue retries:
        // the bounded attempt exhausts and the insert must be rolled back
        // with it.
        let err = stm.atomically(
            TxKind::Short,
            &RetryPolicy::unbounded().with_max_attempts(2),
            |tx| {
                map.insert(tx, &1, &1)?;
                let v = queue.pop(tx)?;
                Ok(v)
            },
        );
        assert!(err.is_err(), "empty queue pop exhausts the bounded budget");
        let len = stm
            .atomically(TxKind::Short, &policy, |tx| map.len(tx))
            .unwrap();
        assert_eq!(len, 0, "aborted transaction's insert must be invisible");
    }
}
