//! The LSA-STM runtime: snapshot-interval transactions over [`VarCore`]
//! objects.

use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

use zstm_clock::{ScalarClock, TimeBase};
use zstm_core::{
    Abort, AbortReason, LastRecord, ObjId, StmConfig, ThreadCtx, TmFactory, TmThread, TmTx,
    TxEventKind, TxId, TxKind, TxValue,
};

use zstm_util::Shared;

use crate::engine::VarCore;
use crate::snapshot::{Snapshot, SnapshotState};

/// A transactional variable managed by [`LsaStm`].
///
/// Cheap to clone (it shares the underlying object); clones refer to the
/// same transactional state.
#[derive(Clone)]
pub struct LsaVar<T: TxValue> {
    core: Shared<VarCore<T>>,
}

impl<T: TxValue> LsaVar<T> {
    /// The object's id in recorded histories.
    pub fn id(&self) -> ObjId {
        self.core.id()
    }

    /// Number of retained committed versions (diagnostics).
    pub fn version_count(&self) -> usize {
        self.core.version_count()
    }
}

impl<T: TxValue> std::fmt::Debug for LsaVar<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LsaVar").field("core", &self.core).finish()
    }
}

/// The Lazy Snapshot Algorithm STM (the paper's baseline, from its
/// reference \[8\]).
///
/// * multi-version objects with a bounded history
///   ([`StmConfig::max_versions`](zstm_core::StmConfig)),
/// * invisible reads with a consistent snapshot maintained *during*
///   execution: every read returns the newest version valid at the
///   transaction's snapshot time `ub`, and reads that would need a newer
///   version lazily *extend* the snapshot by revalidating the read set,
/// * eager write acquisition with contention management (single writer per
///   object),
/// * commit-time validation of update transactions at a fresh commit stamp
///   from the time base.
///
/// The `readonly_readsets` configuration flag selects between plain LSA-STM
/// (read-only transactions maintain and validate read sets) and the
/// optimized "LSA-STM (no readsets)" variant of Figure 6, which serves long
/// read-only transactions from the version history at a fixed snapshot time
/// with no per-read bookkeeping.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use zstm_core::{atomically, RetryPolicy, StmConfig, TmFactory, TmThread, TmTx, TxKind};
/// use zstm_lsa::LsaStm;
///
/// # fn main() -> Result<(), zstm_core::RetryExhausted> {
/// let stm = Arc::new(LsaStm::new(StmConfig::new(1)));
/// let counter = stm.new_var(0i64);
/// let mut thread = stm.register_thread();
/// atomically(&mut thread, TxKind::Short, &RetryPolicy::default(), |tx| {
///     let v = tx.read(&counter)?;
///     tx.write(&counter, v + 1)
/// })?;
/// # Ok(())
/// # }
/// ```
pub struct LsaStm<B: TimeBase = ScalarClock> {
    config: StmConfig,
    clock: B,
    registered: AtomicUsize,
}

impl LsaStm<ScalarClock> {
    /// Creates an LSA-STM over the classic shared-counter time base.
    pub fn new(config: StmConfig) -> Self {
        Self::with_clock(config, ScalarClock::new())
    }
}

impl<B: TimeBase> LsaStm<B> {
    /// Creates an LSA-STM over an explicit time base (e.g. the sharded
    /// clock).
    pub fn with_clock(config: StmConfig, clock: B) -> Self {
        Self {
            config,
            clock,
            registered: AtomicUsize::new(0),
        }
    }

    /// The configuration this STM was built with.
    pub fn config(&self) -> &StmConfig {
        &self.config
    }

    /// Current value of the time base (diagnostics).
    pub fn now(&self) -> u64 {
        self.clock.now(0)
    }
}

impl<B: TimeBase> TmFactory for LsaStm<B> {
    type Var<T: TxValue> = LsaVar<T>;
    type Thread = LsaThread<B>;

    fn new_var<T: TxValue>(&self, init: T) -> LsaVar<T> {
        LsaVar {
            core: Shared::new(VarCore::new(
                init,
                self.config.max_versions_per_object(),
                Arc::clone(self.config.sink()),
            )),
        }
    }

    fn var_id<T: TxValue>(var: &LsaVar<T>) -> ObjId {
        var.id()
    }

    fn var_handles<T: TxValue>(var: &LsaVar<T>) -> usize {
        Shared::handles(&var.core)
    }

    fn register_thread(self: &Arc<Self>) -> LsaThread<B> {
        LsaThread {
            ctx: ThreadCtx::claim(&self.registered, &self.config),
            stm: Arc::clone(self),
            last: None,
            long_upgrade_seen: false,
            snapshot: SnapshotState::default(),
        }
    }

    fn max_threads(&self) -> Option<usize> {
        Some(self.config.threads())
    }

    fn name(&self) -> &'static str {
        if self.config.readonly_uses_readsets() {
            "lsa"
        } else {
            "lsa-noreadsets"
        }
    }
}

/// Per-logical-thread context of [`LsaStm`].
pub struct LsaThread<B: TimeBase = ScalarClock> {
    stm: Arc<LsaStm<B>>,
    ctx: ThreadCtx,
    /// The record of the thread's last attempt, for the next to reuse.
    last: LastRecord,
    /// Set once a snapshot-mode long transaction tried to write; future
    /// long transactions on this thread run with read sets (the paper's
    /// "automatic marking based on past behaviors").
    long_upgrade_seen: bool,
    /// The running transaction's snapshot time and read and write sets.
    snapshot: SnapshotState,
}

impl<B: TimeBase> TmThread for LsaThread<B> {
    type Factory = LsaStm<B>;
    type Tx<'a> = LsaTx<'a, B>;

    #[inline]
    fn begin(&mut self, kind: TxKind) -> LsaTx<'_, B> {
        let stm = &*self.stm;
        let snapshot_only =
            kind.is_long() && !stm.config.readonly_uses_readsets() && !self.long_upgrade_seen;
        LsaTx {
            core: Snapshot::begin(
                &mut self.ctx,
                &mut self.last,
                &mut self.snapshot,
                &stm.clock,
                stm.config.cm_policy(),
                kind,
            ),
            upgrade: snapshot_only.then_some(&mut self.long_upgrade_seen),
        }
    }

    fn ctx(&self) -> &ThreadCtx {
        &self.ctx
    }

    fn ctx_mut(&mut self) -> &mut ThreadCtx {
        &mut self.ctx
    }
}

/// An active LSA transaction: a [`Snapshot`], plus the "no readsets" mode
/// of long read-only transactions.
pub struct LsaTx<'a, B: TimeBase = ScalarClock> {
    core: Snapshot<'a, B>,
    /// `Some` while the attempt runs in "no readsets" mode: the thread's
    /// `long_upgrade_seen`, to raise should it write after all.
    upgrade: Option<&'a mut bool>,
}

impl<B: TimeBase> TmTx for LsaTx<'_, B> {
    type Factory = LsaStm<B>;

    #[inline]
    fn read_with<T: TxValue, R>(
        &mut self,
        var: &LsaVar<T>,
        f: impl FnMut(&T) -> R,
    ) -> Result<R, Abort> {
        self.core.attempt.on_read()?;
        if self.upgrade.is_none() {
            return self.core.open_read(&var.core, f);
        }
        // "No readsets" mode: serve the read from the version history at
        // the fixed snapshot time, with no bookkeeping at all.
        let ub = self.core.ub();
        let attempt = &self.core.attempt;
        let hit = var.core.read_at(attempt.pin(), Some(attempt.rec()), ub, f);
        let hit = hit.ok_or_else(|| attempt.tx().doom(AbortReason::SnapshotUnavailable))?;
        attempt.record(TxEventKind::Read {
            obj: var.core.id(),
            version: hit.seq,
        });
        Ok(hit.value)
    }

    #[inline]
    fn write<T: TxValue>(&mut self, var: &LsaVar<T>, value: T) -> Result<(), Abort> {
        if let Some(long_upgrade_seen) = &mut self.upgrade {
            self.core.attempt.tx().check_alive()?;
            // A "read-only" long transaction turned out to update state:
            // restart it with read sets (and remember the lesson).
            **long_upgrade_seen = true;
            return Err(self.core.attempt.tx().doom(AbortReason::Explicit));
        }
        self.core.attempt.on_write()?;
        self.core.open_write(&var.core, value)
    }

    #[inline]
    fn commit(mut self) -> Result<(), Abort> {
        self.core.commit(None)
    }

    #[inline]
    fn rollback(mut self, reason: AbortReason) {
        self.core.abort(reason);
    }

    fn id(&self) -> TxId {
        self.core.attempt.tx().id()
    }

    fn kind(&self) -> TxKind {
        self.core.attempt.tx().kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use zstm_core::{atomically, RetryPolicy};

    include!("../../../tests/support/attempt_endings.rs");

    fn stm(threads: usize) -> Arc<LsaStm> {
        Arc::new(LsaStm::new(StmConfig::new(threads)))
    }

    #[test]
    fn read_initial_value() {
        let stm = stm(1);
        let var = stm.new_var(41i64);
        let mut thread = stm.register_thread();
        let got = atomically(&mut thread, TxKind::Short, &RetryPolicy::default(), |tx| {
            tx.read(&var)
        })
        .expect("commit");
        assert_eq!(got, 41);
    }

    #[test]
    fn increment_round_trip() {
        let stm = stm(1);
        let var = stm.new_var(0i64);
        let mut thread = stm.register_thread();
        for _ in 0..10 {
            atomically(&mut thread, TxKind::Short, &RetryPolicy::default(), |tx| {
                let v = tx.read(&var)?;
                tx.write(&var, v + 1)
            })
            .expect("commit");
        }
        let got = atomically(&mut thread, TxKind::Short, &RetryPolicy::default(), |tx| {
            tx.read(&var)
        })
        .expect("commit");
        assert_eq!(got, 10);
    }

    #[test]
    fn read_your_own_write_inside_tx() {
        let stm = stm(1);
        let var = stm.new_var(1i64);
        let mut thread = stm.register_thread();
        let observed = atomically(&mut thread, TxKind::Short, &RetryPolicy::default(), |tx| {
            tx.write(&var, 99)?;
            tx.read(&var)
        })
        .expect("commit");
        assert_eq!(observed, 99);
    }

    #[test]
    fn aborted_writes_are_invisible() {
        let stm = stm(1);
        let var = stm.new_var(5i64);
        let mut thread = stm.register_thread();
        let tx_result = atomically(
            &mut thread,
            TxKind::Short,
            &RetryPolicy::default().with_max_attempts(1),
            |tx| {
                tx.write(&var, 666)?;
                Err::<(), Abort>(Abort::new(AbortReason::Explicit))
            },
        );
        assert!(tx_result.is_err());
        let got = atomically(&mut thread, TxKind::Short, &RetryPolicy::default(), |tx| {
            tx.read(&var)
        })
        .expect("commit");
        assert_eq!(got, 5);
    }

    #[test]
    fn concurrent_transfers_conserve_money() {
        let stm = stm(5); // 4 workers + 1 checker thread
        let accounts: Arc<Vec<LsaVar<i64>>> =
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
    fn long_readonly_snapshot_mode_commits_under_contention() {
        let mut config = StmConfig::new(3);
        config.readonly_readsets(false);
        let stm = Arc::new(LsaStm::new(config));
        let accounts: Arc<Vec<LsaVar<i64>>> =
            Arc::new((0..8).map(|_| stm.new_var(10i64)).collect());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..2)
            .map(|t| {
                let stm = Arc::clone(&stm);
                let accounts = Arc::clone(&accounts);
                let stop = Arc::clone(&stop);
                let mut thread = stm.register_thread();
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let from = ((i * 7 + t) % 8) as usize;
                        let to = ((i * 5 + t + 1) % 8) as usize;
                        if from != to {
                            let _ = atomically(
                                &mut thread,
                                TxKind::Short,
                                &RetryPolicy::default(),
                                |tx| {
                                    let a = tx.read(&accounts[from])?;
                                    let b = tx.read(&accounts[to])?;
                                    tx.write(&accounts[from], a - 1)?;
                                    tx.write(&accounts[to], b + 1)
                                },
                            );
                        }
                        i += 1;
                    }
                })
            })
            .collect();
        let mut reader = stm.register_thread();
        for _ in 0..50 {
            let sum = atomically(&mut reader, TxKind::Long, &RetryPolicy::default(), |tx| {
                let mut sum = 0i64;
                for acc in accounts.iter() {
                    sum += tx.read(acc)?;
                }
                Ok(sum)
            })
            .expect("read-only long tx commits");
            assert_eq!(sum, 80, "snapshot must be consistent");
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().expect("writer panicked");
        }
    }

    #[test]
    fn snapshot_mode_upgrade_on_write_retries_with_readsets() {
        let mut config = StmConfig::new(1);
        config.readonly_readsets(false);
        let stm = Arc::new(LsaStm::new(config));
        let var = stm.new_var(0i64);
        let mut thread = stm.register_thread();
        // A long transaction that writes: first attempt aborts (upgrade),
        // the retry runs with read sets and succeeds.
        atomically(&mut thread, TxKind::Long, &RetryPolicy::default(), |tx| {
            let v = tx.read(&var)?;
            tx.write(&var, v + 1)
        })
        .expect("upgraded long tx commits");
        let got = atomically(&mut thread, TxKind::Short, &RetryPolicy::default(), |tx| {
            tx.read(&var)
        })
        .expect("commit");
        assert_eq!(got, 1);
        assert!(thread.long_upgrade_seen);
    }

    #[test]
    fn stats_track_commits_and_aborts() {
        let stm = stm(1);
        let var = stm.new_var(0i64);
        let mut thread = stm.register_thread();
        atomically(&mut thread, TxKind::Short, &RetryPolicy::default(), |tx| {
            let v = tx.read(&var)?;
            tx.write(&var, v + 1)
        })
        .expect("commit");
        let _ = atomically(
            &mut thread,
            TxKind::Short,
            &RetryPolicy::default().with_max_attempts(2),
            |tx| {
                tx.read(&var)?;
                Err::<(), Abort>(Abort::new(AbortReason::Explicit))
            },
        );
        let stats = thread.take_stats();
        assert_eq!(stats.total_commits(), 1);
        assert_eq!(stats.total_aborts(), 2);
        assert_eq!(stats.aborts_for(AbortReason::Explicit), 2);
        assert_eq!(stats.retries_exhausted(), 1, "the spent budget is counted");
        assert_eq!(thread.stats().total_commits(), 0, "take_stats resets");
    }

    #[test]
    fn version_history_is_bounded() {
        let mut config = StmConfig::new(1);
        config.max_versions(3);
        let stm = Arc::new(LsaStm::new(config));
        let var = stm.new_var(0i64);
        let mut thread = stm.register_thread();
        for i in 0..10 {
            atomically(&mut thread, TxKind::Short, &RetryPolicy::default(), |tx| {
                tx.write(&var, i)
            })
            .expect("commit");
        }
        assert!(var.version_count() <= 3);
    }

    #[test]
    fn write_write_conflict_is_arbitrated() {
        // Two interleaved transactions from one OS thread, two logical
        // threads: the second writer triggers the contention manager.
        let mut config = StmConfig::new(2);
        config.cm(zstm_core::CmPolicy::Aggressive);
        let stm = Arc::new(LsaStm::new(config));
        let var = stm.new_var(0i64);
        let mut t0 = stm.register_thread();
        let mut t1 = stm.register_thread();

        let mut tx0 = t0.begin(TxKind::Short);
        tx0.write(&var, 1).expect("first write");
        // Aggressive CM: tx1 kills tx0 and steals the object.
        let mut tx1 = t1.begin(TxKind::Short);
        tx1.write(&var, 2).expect("steal");
        tx1.commit().expect("tx1 commits");
        // tx0 is dead; its commit must fail.
        assert!(tx0.commit().is_err());

        let mut t0 = t0;
        let got = atomically(&mut t0, TxKind::Short, &RetryPolicy::default(), |tx| {
            tx.read(&var)
        })
        .expect("commit");
        assert_eq!(got, 2);
    }

    #[test]
    fn first_committer_wins_on_read_write_conflict() {
        let stm = stm(2);
        let var = stm.new_var(0i64);
        let other = stm.new_var(0i64);
        let mut t0 = stm.register_thread();
        let mut t1 = stm.register_thread();

        // tx0 reads var, then tx1 updates var and commits first.
        let mut tx0 = t0.begin(TxKind::Short);
        let v = tx0.read(&var).expect("read");
        let mut tx1 = t1.begin(TxKind::Short);
        tx1.write(&var, 7).expect("write");
        tx1.commit().expect("tx1 commits first");
        // tx0 now writes something based on the stale read: validation
        // must abort it.
        tx0.write(&other, v + 1).expect("write other");
        let err = tx0.commit().expect_err("stale read must fail validation");
        assert_eq!(err.reason(), AbortReason::ReadValidation);
    }

    #[test]
    fn sets_go_back_to_the_thread_empty_however_the_transaction_ends() {
        let stm = stm(2);
        let vars: Vec<_> = (0..5_000).map(|_| stm.new_var(0i64)).collect();
        let (mut thread, mut rival) = (stm.register_thread(), stm.register_thread());
        drive_every_ending::<LsaStm>(&mut thread, &mut rival, &vars, |ending, thread| {
            assert_sets_idle(ending, thread.snapshot.sets());
        });
    }
}
