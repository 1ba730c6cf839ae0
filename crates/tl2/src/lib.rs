//! A TL2-style single-version time-based STM (after Dice, Shalev & Shavit,
//! the paper's reference \[2\]).
//!
//! The paper describes TL2 as "optimized towards providing a lean STM and
//! decreasing overheads as much as possible; only one version is maintained
//! per object and no validity extensions are performed". This crate
//! implements that design point as an extra baseline:
//!
//! * each object carries a versioned write-lock word (version number plus
//!   lock bit),
//! * reads are invisible and validated against the transaction's *read
//!   version* `rv` sampled from the global clock at start — a version newer
//!   than `rv` aborts the transaction immediately (no snapshot extension,
//!   no old versions),
//! * writes are buffered in the transaction and applied at commit under
//!   short per-object locks,
//! * commit: lock write set → acquire write version `wv` → validate read
//!   set → apply and unlock with `wv`.
//!
//! # The mutex-free read path
//!
//! The value is published as a *version-stamped* pair `(wv, value)` in a
//! lock-free [`zstm_util::ArcCell`], installed before the lock word is
//! released with `wv`. A read samples the word (spinning past a locked
//! word), looks at the published pair under its attempt's epoch pin — no
//! lock, no reference count, nothing written — and accepts it iff
//! the pair's stamp equals the sampled word's version: publication order
//! guarantees the pair can only run *ahead* of an unlocked word, so a
//! matching stamp proves the value is exactly the one the sampled version
//! installed — the classic sample→value→resample dance collapses to
//! sample→load→stamp-compare with no `Mutex` anywhere.
//!
//! Compared with `zstm_lsa::LsaStm` this trades abort rate (long
//! transactions almost never survive) for per-access cost, which is exactly
//! the trade-off the paper motivates z-linearizability with.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use zstm_core::{atomically, RetryPolicy, StmConfig, TmFactory, TmThread, TmTx, TxKind};
//! use zstm_tl2::Tl2Stm;
//!
//! # fn main() -> Result<(), zstm_core::RetryExhausted> {
//! let stm = Arc::new(Tl2Stm::new(StmConfig::new(1)));
//! let var = stm.new_var(10i64);
//! let mut thread = stm.register_thread();
//! let seen = atomically(&mut thread, TxKind::Short, &RetryPolicy::default(), |tx| {
//!     let v = tx.read(&var)?;
//!     tx.write(&var, v * 2)?;
//!     Ok(v)
//! })?;
//! assert_eq!(seen, 10);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use zstm_clock::{ScalarClock, TimeBase};
use zstm_core::{
    Abort, AbortReason, Attempt, LastRecord, ObjId, StmConfig, ThreadCtx, TmFactory, TmThread,
    TmTx, TxEventKind, TxId, TxKind, TxSets, TxValue, VersionSeq,
};
use zstm_util::{ArcCell, Backoff, Held, Shared, Strong};

const LOCK_BIT: u64 = 1;

/// How many backoff rounds a read or commit spins on a locked word before
/// giving up and aborting.
const LOCK_PATIENCE: u64 = 64;

/// A committed value together with the commit stamp that installed it, so
/// readers can validate a lock-free load against the sampled lock word.
struct Stamped<T> {
    version: u64,
    value: T,
}

struct VarShared<T> {
    id: ObjId,
    /// `(version << 1) | lock_bit`; `version` is the commit stamp of the
    /// last writer.
    word: AtomicU64,
    /// The version-stamped published value; stored (under the lock bit)
    /// *before* the word is released with the new version, loaded without
    /// any lock by readers.
    value: ArcCell<Stamped<T>>,
    /// Dense per-object version sequence for recorded histories.
    seq: AtomicU64,
}

impl<T: TxValue> VarShared<T> {
    fn word(&self) -> u64 {
        self.word.load(Ordering::Acquire)
    }

    fn is_locked(word: u64) -> bool {
        word & LOCK_BIT != 0
    }

    fn version(word: u64) -> u64 {
        word >> 1
    }

    fn try_lock(&self) -> bool {
        let word = self.word();
        if Self::is_locked(word) {
            return false;
        }
        self.word
            .compare_exchange(word, word | LOCK_BIT, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    fn unlock_with(&self, version: u64) {
        self.word.store(version << 1, Ordering::Release);
    }

    fn unlock_unchanged(&self) {
        let word = self.word();
        debug_assert!(Self::is_locked(word));
        self.word.store(word & !LOCK_BIT, Ordering::Release);
    }
}

/// Type-erased commit operations on a write-set entry.
trait WriteOp: Send {
    fn obj_id(&self) -> ObjId;
    fn try_lock(&self) -> bool;
    fn unlock_unchanged(&self);
    /// Applies the buffered value and unlocks with `wv`; returns the dense
    /// version sequence installed (for history events).
    fn apply_and_unlock(&self, wv: u64) -> VersionSeq;
    fn as_any(&self) -> &dyn Any;
}

struct WriteEntry<T: TxValue> {
    var: Held<VarShared<T>>,
    value: T,
}

impl<T: TxValue> WriteOp for WriteEntry<T> {
    fn obj_id(&self) -> ObjId {
        self.var.id
    }

    fn try_lock(&self) -> bool {
        self.var.try_lock()
    }

    fn unlock_unchanged(&self) {
        self.var.unlock_unchanged();
    }

    fn apply_and_unlock(&self, wv: u64) -> VersionSeq {
        self.var.value.store(Strong::new(Stamped {
            version: wv,
            value: self.value.clone(),
        }));
        let seq = self.var.seq.fetch_add(1, Ordering::AcqRel) + 1;
        self.var.unlock_with(wv);
        seq
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A variable as a read-set entry re-checks it at commit.
trait LockWord: Send + Sync {
    /// The current lock word.
    fn word(&self) -> u64;
}

impl<T: TxValue> LockWord for VarShared<T> {
    fn word(&self) -> u64 {
        self.word()
    }
}

/// Type-erased read-set entry.
struct ReadEntry {
    obj: ObjId,
    /// Lock-word version observed at read time.
    version: u64,
    var: Held<dyn LockWord>,
}

/// A thread's read set and buffered writes.
type Sets = TxSets<ReadEntry, Box<dyn WriteOp>>;

/// A transactional variable managed by [`Tl2Stm`]. Cheap to clone.
#[derive(Clone)]
pub struct Tl2Var<T: TxValue> {
    shared: Shared<VarShared<T>>,
}

impl<T: TxValue> Tl2Var<T> {
    /// The object's id in recorded histories.
    pub fn id(&self) -> ObjId {
        self.shared.id
    }
}

impl<T: TxValue> std::fmt::Debug for Tl2Var<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tl2Var")
            .field("id", &self.shared.id)
            .field("version", &VarShared::<T>::version(self.shared.word()))
            .finish()
    }
}

/// The TL2-style STM instance. See the crate documentation.
pub struct Tl2Stm {
    config: StmConfig,
    clock: ScalarClock,
    registered: AtomicUsize,
}

impl Tl2Stm {
    /// Creates a TL2 STM over the classic shared-counter time base.
    pub fn new(config: StmConfig) -> Self {
        Self {
            config,
            clock: ScalarClock::new(),
            registered: AtomicUsize::new(0),
        }
    }

    /// The configuration this STM was built with.
    pub fn config(&self) -> &StmConfig {
        &self.config
    }
}

impl TmFactory for Tl2Stm {
    type Var<T: TxValue> = Tl2Var<T>;
    type Thread = Tl2Thread;

    fn new_var<T: TxValue>(&self, init: T) -> Tl2Var<T> {
        Tl2Var {
            shared: Shared::new(VarShared {
                id: ObjId::fresh(),
                word: AtomicU64::new(0),
                value: ArcCell::new(Strong::new(Stamped {
                    version: 0,
                    value: init,
                })),
                seq: AtomicU64::new(0),
            }),
        }
    }

    fn var_id<T: TxValue>(var: &Tl2Var<T>) -> ObjId {
        var.id()
    }

    fn var_handles<T: TxValue>(var: &Tl2Var<T>) -> usize {
        Shared::handles(&var.shared)
    }

    fn register_thread(self: &Arc<Self>) -> Tl2Thread {
        Tl2Thread {
            ctx: ThreadCtx::claim(&self.registered, &self.config),
            stm: Arc::clone(self),
            last: None,
            sets: Sets::default(),
        }
    }

    fn max_threads(&self) -> Option<usize> {
        Some(self.config.threads())
    }

    fn name(&self) -> &'static str {
        "tl2"
    }
}

/// Per-logical-thread context of [`Tl2Stm`].
pub struct Tl2Thread {
    stm: Arc<Tl2Stm>,
    ctx: ThreadCtx,
    /// The record of the thread's last attempt, for the next to reuse.
    last: LastRecord,
    /// The running transaction's read set and buffered writes.
    sets: Sets,
}

impl TmThread for Tl2Thread {
    type Factory = Tl2Stm;
    type Tx<'a> = Tl2Tx<'a>;

    fn begin(&mut self, kind: TxKind) -> Tl2Tx<'_> {
        let attempt = Attempt::start(&mut self.ctx, &mut self.last, kind, |tx| tx);
        let clock = &self.stm.clock;
        let rv = clock.now(attempt.slot());
        Tl2Tx {
            attempt,
            clock,
            rv,
            sets: &mut self.sets,
        }
    }

    fn ctx(&self) -> &ThreadCtx {
        &self.ctx
    }

    fn ctx_mut(&mut self) -> &mut ThreadCtx {
        &mut self.ctx
    }
}

/// An active TL2 transaction.
pub struct Tl2Tx<'a> {
    attempt: Attempt<'a>,
    clock: &'a ScalarClock,
    /// Read version: reads of versions newer than this abort.
    rv: u64,
    sets: &'a mut Sets,
}

/// However the transaction ends, the sets it filled go back to the thread
/// empty (the attempt itself aborts from its own `Drop`: nothing is locked
/// outside `commit`).
impl Drop for Tl2Tx<'_> {
    fn drop(&mut self) {
        self.sets.give_back();
    }
}

impl TmTx for Tl2Tx<'_> {
    type Factory = Tl2Stm;

    fn read_with<T: TxValue, R>(
        &mut self,
        var: &Tl2Var<T>,
        mut f: impl FnMut(&T) -> R,
    ) -> Result<R, Abort> {
        self.attempt.stats_mut().record_read();
        // Read-your-own-write from the buffer: the attempt's own, lent in
        // place.
        let id = var.shared.id;
        if let Some(entry) = self.sets.writes.iter().find(|w| w.obj_id() == id) {
            if let Some(typed) = entry.as_any().downcast_ref::<WriteEntry<T>>() {
                return Ok(f(&typed.value));
            }
        }
        let mut backoff = Backoff::new();
        let mut rounds = 0u64;
        loop {
            let pre = var.shared.word();
            if VarShared::<T>::is_locked(pre) {
                rounds += 1;
                if rounds > LOCK_PATIENCE {
                    return Err(self.attempt.tx().doom(AbortReason::WriteConflict));
                }
                backoff.spin();
                continue;
            }
            // The value is lent under the attempt's pin, and only when its
            // stamp is the one this read may return.
            let (version, value) = var.shared.value.read(self.attempt.pin(), |stamped| {
                let wanted =
                    stamped.version == VarShared::<T>::version(pre) && stamped.version <= self.rv;
                (stamped.version, wanted.then(|| f(&stamped.value)))
            });
            if version != VarShared::<T>::version(pre) {
                // Publication order (value before word) means the pair can
                // only run ahead of an unlocked word: a commit landed
                // between the sample and the load. Resample.
                rounds += 1;
                if rounds > LOCK_PATIENCE {
                    return Err(self.attempt.tx().doom(AbortReason::ReadValidation));
                }
                backoff.spin();
                continue;
            }
            // The stamp matches the sampled word, so `value` is exactly the
            // value version `pre` installed — no resample needed, and no
            // lock was taken anywhere on this path.
            let Some(value) = value else {
                // Newer than `rv`, and TL2 performs no snapshot extension:
                // abort immediately.
                return Err(self.attempt.tx().doom(AbortReason::ReadValidation));
            };
            self.sets.reads.push(ReadEntry {
                obj: id,
                version,
                var: Held::new(&var.shared, self.attempt.pin()).map(|var| var as _),
            });
            self.attempt.record(TxEventKind::Read {
                obj: id,
                version: var.shared.seq.load(Ordering::Acquire),
            });
            return Ok(value);
        }
    }

    fn write<T: TxValue>(&mut self, var: &Tl2Var<T>, value: T) -> Result<(), Abort> {
        self.attempt.stats_mut().record_write();
        let id = var.shared.id;
        // Last write wins: replace any earlier buffered write to this var.
        self.sets.writes.retain(|w| w.obj_id() != id);
        self.sets.writes.push(Box::new(WriteEntry {
            var: Held::new(&var.shared, self.attempt.pin()),
            value,
        }));
        Ok(())
    }

    fn commit(mut self) -> Result<(), Abort> {
        if self.sets.writes.is_empty() {
            // Read-only: reads were individually validated against rv and
            // rv-consistency makes them a snapshot at rv.
            if !self.attempt.tx().commit_unreserved() {
                return Err(self.attempt.aborted(AbortReason::Killed));
            }
            self.attempt.committed(None);
            return Ok(());
        }
        if !self.attempt.tx().begin_commit() {
            return Err(self.attempt.aborted(AbortReason::Killed));
        }
        // Phase 1: lock the write set in id order — so what is locked is
        // always a prefix of it (TL2 aborts on lock-acquisition failure
        // after bounded spinning).
        self.sets.writes.sort_by_key(|w| w.obj_id());
        for (locked, entry) in self.sets.writes.iter().enumerate() {
            let mut backoff = Backoff::new();
            let mut ok = false;
            for _ in 0..LOCK_PATIENCE {
                if entry.try_lock() {
                    ok = true;
                    break;
                }
                backoff.spin();
            }
            if !ok {
                let held = &self.sets.writes[..locked];
                held.iter().for_each(|entry| entry.unlock_unchanged());
                return Err(self.attempt.aborted(AbortReason::WriteConflict));
            }
        }
        // Phase 2: write version.
        let wv = self.clock.commit_stamp(self.attempt.slot());
        self.attempt.tx().set_commit_ct(wv);
        // Phase 3: validate the read set (skippable iff wv == rv + 1, the
        // classic TL2 fast path: nobody committed in between).
        if wv != self.rv + 1 {
            let Sets { reads, writes } = &*self.sets;
            let valid = reads.iter().all(|entry| {
                let word = entry.var.word();
                let locked_by_other = word & LOCK_BIT != 0
                    && writes
                        .binary_search_by_key(&entry.obj, |w| w.obj_id())
                        .is_err();
                !locked_by_other && (word >> 1) == entry.version
            });
            if !valid {
                writes.iter().for_each(|entry| entry.unlock_unchanged());
                return Err(self.attempt.aborted(AbortReason::ReadValidation));
            }
        }
        // Phase 4: apply and unlock with wv. The status flip makes the
        // transaction irrevocable first.
        self.attempt.tx().finish_commit();
        for entry in &self.sets.writes {
            let (obj, version) = (entry.obj_id(), entry.apply_and_unlock(wv));
            self.attempt.record(TxEventKind::Write { obj, version });
        }
        self.attempt.committed(None);
        Ok(())
    }

    fn rollback(mut self, reason: AbortReason) {
        self.attempt.aborted(reason);
    }

    fn id(&self) -> TxId {
        self.attempt.tx().id()
    }

    fn kind(&self) -> TxKind {
        self.attempt.tx().kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zstm_core::{atomically, RetryPolicy};

    include!("../../../tests/support/attempt_endings.rs");

    fn stm(threads: usize) -> Arc<Tl2Stm> {
        Arc::new(Tl2Stm::new(StmConfig::new(threads)))
    }

    #[test]
    fn read_and_increment() {
        let stm = stm(1);
        let var = stm.new_var(0i64);
        let mut thread = stm.register_thread();
        for _ in 0..5 {
            atomically(&mut thread, TxKind::Short, &RetryPolicy::default(), |tx| {
                let v = tx.read(&var)?;
                tx.write(&var, v + 1)
            })
            .expect("commit");
        }
        let v = atomically(&mut thread, TxKind::Short, &RetryPolicy::default(), |tx| {
            tx.read(&var)
        })
        .expect("commit");
        assert_eq!(v, 5);
    }

    #[test]
    fn read_your_own_write() {
        let stm = stm(1);
        let var = stm.new_var(1i64);
        let mut thread = stm.register_thread();
        let seen = atomically(&mut thread, TxKind::Short, &RetryPolicy::default(), |tx| {
            tx.write(&var, 7)?;
            tx.read(&var)
        })
        .expect("commit");
        assert_eq!(seen, 7);
    }

    #[test]
    fn overwritten_writes_last_value_wins() {
        let stm = stm(1);
        let var = stm.new_var(0i64);
        let mut thread = stm.register_thread();
        atomically(&mut thread, TxKind::Short, &RetryPolicy::default(), |tx| {
            tx.write(&var, 1)?;
            tx.write(&var, 2)?;
            tx.write(&var, 3)
        })
        .expect("commit");
        let v = atomically(&mut thread, TxKind::Short, &RetryPolicy::default(), |tx| {
            tx.read(&var)
        })
        .expect("commit");
        assert_eq!(v, 3);
    }

    #[test]
    fn stale_read_fails_validation() {
        let stm = stm(2);
        let var = stm.new_var(0i64);
        let out = stm.new_var(0i64);
        let mut t0 = stm.register_thread();
        let mut t1 = stm.register_thread();

        let mut tx0 = t0.begin(TxKind::Short);
        let v = tx0.read(&var).expect("read");
        // t1 commits an update to var; tx0's rv predates it.
        atomically(&mut t1, TxKind::Short, &RetryPolicy::default(), |tx| {
            tx.write(&var, 9)
        })
        .expect("commit");
        tx0.write(&out, v + 1).expect("buffered");
        let err = tx0.commit().expect_err("validation must fail");
        assert_eq!(err.reason(), AbortReason::ReadValidation);
    }

    #[test]
    fn reads_newer_than_rv_abort_immediately() {
        let stm = stm(2);
        let var = stm.new_var(0i64);
        let mut t0 = stm.register_thread();
        let mut t1 = stm.register_thread();

        let mut tx0 = t0.begin(TxKind::Short);
        atomically(&mut t1, TxKind::Short, &RetryPolicy::default(), |tx| {
            tx.write(&var, 1)
        })
        .expect("commit");
        let err = tx0.read(&var).expect_err("no extension in TL2");
        assert_eq!(err.reason(), AbortReason::ReadValidation);
        tx0.rollback(err.reason());
    }

    #[test]
    fn concurrent_transfers_conserve_money() {
        let stm = stm(5);
        let accounts: Arc<Vec<Tl2Var<i64>>> =
            Arc::new((0..16).map(|_| stm.new_var(100i64)).collect());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let stm = Arc::clone(&stm);
                let accounts = Arc::clone(&accounts);
                let mut thread = stm.register_thread();
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let from = ((i * 7 + t * 3) % 16) as usize;
                        let to = ((i * 13 + t * 5) % 16) as usize;
                        if from == to {
                            continue;
                        }
                        atomically(&mut thread, TxKind::Short, &RetryPolicy::default(), |tx| {
                            let a = tx.read(&accounts[from])?;
                            let b = tx.read(&accounts[to])?;
                            tx.write(&accounts[from], a - 1)?;
                            tx.write(&accounts[to], b + 1)
                        })
                        .expect("transfer commits");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker panicked");
        }
        let mut checker = stm.register_thread();
        let total = atomically(&mut checker, TxKind::Long, &RetryPolicy::default(), |tx| {
            let mut sum = 0i64;
            for acc in accounts.iter() {
                sum += tx.read(acc)?;
            }
            Ok(sum)
        })
        .expect("sum commits");
        assert_eq!(total, 1600);
    }

    #[test]
    fn stats_accumulate() {
        let stm = stm(1);
        let var = stm.new_var(0i64);
        let mut thread = stm.register_thread();
        atomically(&mut thread, TxKind::Short, &RetryPolicy::default(), |tx| {
            let v = tx.read(&var)?;
            tx.write(&var, v + 1)
        })
        .expect("commit");
        assert_eq!(thread.stats().total_commits(), 1);
        assert_eq!(thread.stats().reads(), 1);
        assert_eq!(thread.stats().writes(), 1);
    }

    #[test]
    fn sets_go_back_to_the_thread_empty_however_the_transaction_ends() {
        let stm = stm(2);
        let vars: Vec<_> = (0..5_000).map(|_| stm.new_var(0i64)).collect();
        let (mut thread, mut rival) = (stm.register_thread(), stm.register_thread());
        drive_every_ending::<Tl2Stm>(&mut thread, &mut rival, &vars, |ending, thread| {
            assert_sets_idle(ending, thread.sets.usage());
        });
    }
}
