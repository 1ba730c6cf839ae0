//! Z-STM — the z-linearizable STM of the paper's Section 5 (Algorithms 2
//! and 3), the paper's primary contribution.
//!
//! **z-linearizability** weakens linearizability just enough to let long
//! transactions through: (1) the set of long transactions is linearizable,
//! (2) the short transactions between two long transactions — a *time
//! zone* — are linearizable, (3) the set of all transactions is
//! serializable, and (4) the serialization order observes each thread's own
//! execution order.
//!
//! The implementation combines:
//!
//! * **Long transactions** — ordered by an optimistic timestamp-ordering
//!   scheme (the paper's reference \[11\]): each long transaction draws a
//!   unique *zone number* `T.zc` from the global zone counter `ZC`
//!   (Algorithm 2 line 3). Opening an object stamps the object's zone
//!   counter `o.zc` with `T.zc` (monotonically); a long transaction finding
//!   `o.zc` already above its own number has been *passed* and aborts
//!   (lines 6/20). Commit is a single check-and-flip: the transaction
//!   commits iff its zone number still exceeds the global commit counter
//!   `CT`, which it then raises (lines 24–26). Long transactions keep **no
//!   read set and no write set bookkeeping for validation** — the paper's
//!   headline efficiency claim.
//! * **Short transactions** — plain LSA extended with the zone rules of
//!   Algorithm 3. "Plain LSA" is meant literally: a short transaction is a
//!   [`zstm_lsa::snapshot::Snapshot`], the transaction [`zstm_lsa::LsaStm`]
//!   runs, and where the algorithm says `OpenLSA` and `CommitLSA` the code
//!   calls its `open_read`/`open_write` and `commit`. In front of them: the
//!   first object opened determines the transaction's zone (lines 6–15,
//!   with the thread-order rule via the per-thread `LZC`), and opening an
//!   object from a *different, still-active* zone is a conflict that delays
//!   or aborts the transaction (lines 16–22) — this is what prevents a
//!   short transaction from "crossing the path" of an active long
//!   transaction. Without long transactions every zone is 0 and Z-STM *is*
//!   LSA-STM (`tests/lsa_equivalence.rs`).
//!
//! Long transactions use the same `Snapshot` for its descriptor, its write
//! set and the two halves of its update commit; they never fill its read
//! set and keep nothing per open.
//!
//! # The short mark
//!
//! The paper assumes a transaction opens each object once; this code does
//! not, and between a long transaction's two opens of an object a short of
//! its zone may have opened it too. So a short whose zone was still active
//! when it adopted it (`T.zc > CT`) raises the object's mark `o.szc` to
//! its zone on every admitted open. A zone-`z` short can only open an
//! object already stamped `z`, so a mark `≥ T.zc` (a later zone's marks
//! may cover ours) aborts the long transaction after a read of an object
//! it has not reserved (`SnapshotUnavailable`) and after a new
//! reservation (`WriteConflict`).
//!
//! The second check pairs with a short reader's wait for a long writer
//! (`VarCore::arbitrate_long_writer`): the short marks, fences, then looks
//! at the writer bit; the long reserves, fences, then looks at the mark.
//! With `SeqCst` fences one of them sees the other: the short waits the
//! long writer out, or the long transaction aborts. A repeated read needs
//! no fence: it sees a newer version only through the commit that
//! published it, and that short marked before it reserved.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use zstm_core::{atomically, RetryPolicy, StmConfig, TmFactory, TmThread, TmTx, TxKind};
//! use zstm_z::ZStm;
//!
//! # fn main() -> Result<(), zstm_core::RetryExhausted> {
//! let stm = Arc::new(ZStm::new(StmConfig::new(2)));
//! let accounts: Vec<_> = (0..4).map(|_| stm.new_var(100i64)).collect();
//! let mut thread = stm.register_thread();
//! // A long transaction computing the total balance:
//! let total = atomically(&mut thread, TxKind::Long, &RetryPolicy::default(), |tx| {
//!     let mut sum = 0;
//!     for account in &accounts {
//!         sum += tx.read(account)?;
//!     }
//!     Ok(sum)
//! })?;
//! assert_eq!(total, 400);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use zstm_clock::{ScalarClock, TimeBase};
use zstm_core::{
    Abort, AbortReason, LastRecord, ObjId, StmConfig, ThreadCtx, TmFactory, TmThread, TmTx,
    TxEventKind, TxId, TxKind, TxValue,
};
use zstm_lsa::engine::VarCore;
use zstm_lsa::snapshot::{Snapshot, SnapshotState};
use zstm_util::{Backoff, CachePadded, Shared};

/// Rounds a short transaction waits on a cross-zone conflict before
/// aborting (the "CM delays/aborts T" of Algorithm 3 line 18).
const ZONE_PATIENCE: u64 = 8;

/// A transactional variable managed by [`ZStm`]. Cheap to clone.
#[derive(Clone)]
pub struct ZVar<T: TxValue> {
    core: Shared<VarCore<T>>,
}

impl<T: TxValue> ZVar<T> {
    /// The object's id in recorded histories.
    pub fn id(&self) -> ObjId {
        self.core.id()
    }

    /// The object's current zone counter `o.zc` (diagnostics).
    pub fn zc(&self) -> u64 {
        self.core.zc()
    }

    /// Snapshot of the retained committed versions (tests, diagnostics).
    #[doc(hidden)]
    pub fn versions_for_test(&self) -> Vec<zstm_lsa::engine::Version<T>> {
        self.core.versions_snapshot()
    }
}

impl<T: TxValue> std::fmt::Debug for ZVar<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ZVar").field("core", &self.core).finish()
    }
}

/// The z-linearizable STM (Section 5). See the crate docs.
pub struct ZStm<B: TimeBase = ScalarClock> {
    config: StmConfig,
    clock: B,
    /// `ZC`: the global zone counter long transactions draw from.
    zone_counter: CachePadded<AtomicU64>,
    /// `CT`: zone number of the last committed long transaction.
    commit_counter: CachePadded<AtomicU64>,
    registered: AtomicUsize,
}

impl ZStm<ScalarClock> {
    /// Creates a Z-STM whose short transactions use the classic
    /// shared-counter time base.
    pub fn new(config: StmConfig) -> Self {
        Self::with_clock(config, ScalarClock::new())
    }
}

impl<B: TimeBase> ZStm<B> {
    /// Creates a Z-STM over an explicit time base for short transactions
    /// (Section 5.2 recommends real-time stamps to parallelize the time
    /// base; here, the sharded clock).
    pub fn with_clock(config: StmConfig, clock: B) -> Self {
        Self {
            config,
            clock,
            zone_counter: CachePadded::new(AtomicU64::new(0)),
            commit_counter: CachePadded::new(AtomicU64::new(0)),
            registered: AtomicUsize::new(0),
        }
    }

    /// The configuration this STM was built with.
    pub fn config(&self) -> &StmConfig {
        &self.config
    }

    /// Current value of the commit counter `CT` (diagnostics).
    pub fn ct(&self) -> u64 {
        self.commit_counter.load(Ordering::Acquire)
    }

    /// Current value of the zone counter `ZC` (diagnostics).
    pub fn zc(&self) -> u64 {
        self.zone_counter.load(Ordering::Acquire)
    }

    /// `true` if any long transaction may still be active, i.e. the active
    /// interval `AI = (CT, ZC]` is non-empty.
    pub fn has_active_zone(&self) -> bool {
        self.ct() < self.zc()
    }
}

impl<B: TimeBase> TmFactory for ZStm<B> {
    type Var<T: TxValue> = ZVar<T>;
    type Thread = ZThread<B>;

    fn new_var<T: TxValue>(&self, init: T) -> ZVar<T> {
        ZVar {
            core: Shared::new(VarCore::new(
                init,
                self.config.max_versions_per_object(),
                Arc::clone(self.config.sink()),
            )),
        }
    }

    fn var_id<T: TxValue>(var: &ZVar<T>) -> ObjId {
        var.id()
    }

    fn var_handles<T: TxValue>(var: &ZVar<T>) -> usize {
        Shared::handles(&var.core)
    }

    fn register_thread(self: &Arc<Self>) -> ZThread<B> {
        ZThread {
            ctx: ThreadCtx::claim(&self.registered, &self.config),
            stm: Arc::clone(self),
            last: None,
            lzc: 0,
            snapshot: SnapshotState::default(),
        }
    }

    fn max_threads(&self) -> Option<usize> {
        Some(self.config.threads())
    }

    fn name(&self) -> &'static str {
        "z-stm"
    }
}

/// Per-logical-thread context of [`ZStm`].
pub struct ZThread<B: TimeBase = ScalarClock> {
    stm: Arc<ZStm<B>>,
    ctx: ThreadCtx,
    /// The record of the thread's last attempt, for the next to reuse.
    last: LastRecord,
    /// `LZC_p`: the last zone this thread committed in (Section 5.4's
    /// thread-order rule).
    lzc: u64,
    /// The running transaction's LSA read set (short transactions only;
    /// long transactions keep none) and write set.
    snapshot: SnapshotState,
}

impl<B: TimeBase> ZThread<B> {
    /// The thread's `LZC` value (diagnostics, tests).
    pub fn lzc(&self) -> u64 {
        self.lzc
    }
}

impl<B: TimeBase> TmThread for ZThread<B> {
    type Factory = ZStm<B>;
    type Tx<'a> = ZTx<'a, B>;

    #[inline]
    fn begin(&mut self, kind: TxKind) -> ZTx<'_, B> {
        let stm = &*self.stm;
        let lsa = Snapshot::begin(
            &mut self.ctx,
            &mut self.last,
            &mut self.snapshot,
            &stm.clock,
            stm.config.cm_policy(),
            kind,
        );
        let zc = if kind.is_long() {
            // Algorithm 2 line 3: T.zc ← ZC++ (pre-incremented so zone 0
            // means "no zone yet" for short transactions).
            stm.zone_counter.fetch_add(1, Ordering::AcqRel) + 1
        } else {
            0
        };
        ZTx {
            lsa,
            stm,
            lzc: &mut self.lzc,
            zc,
            zone_set: kind.is_long(),
            marks: false,
        }
    }

    fn ctx(&self) -> &ThreadCtx {
        &self.ctx
    }

    fn ctx_mut(&mut self) -> &mut ThreadCtx {
        &mut self.ctx
    }
}

/// An active Z-STM transaction (long or short; the kind fixed at
/// [`TmThread::begin`] selects between Algorithm 2 and Algorithm 3).
pub struct ZTx<'a, B: TimeBase = ScalarClock> {
    /// The LSA transaction underneath. A short transaction *is* one, with
    /// the zone check in front of its opens; a long transaction uses its
    /// descriptor, its write set and the two halves of its update commit,
    /// and never its read set.
    lsa: Snapshot<'a, B>,
    stm: &'a ZStm<B>,
    /// The thread's `LZC_p`.
    lzc: &'a mut u64,
    /// `T.zc`: zone number (long: reserved at start; short: adopted at the
    /// first open).
    zc: u64,
    /// Whether `zc` has been set. The paper uses `T.zc = 0` as the "not
    /// yet" sentinel (Algorithm 3 line 2), but zone 0 — the epoch before
    /// any long transaction — is also a legitimate zone value, so a short
    /// transaction that adopted zone 0 would re-run the first-open branch
    /// on every open and silently skip the cross-zone conflict check. An
    /// explicit flag closes that hole.
    zone_set: bool,
    /// Whether this short transaction marks what it opens: its zone was
    /// still active when it adopted it (crate docs, *The short mark*).
    marks: bool,
}

impl<B: TimeBase> ZTx<'_, B> {
    /// The transaction's zone number (tests, diagnostics).
    pub fn zone(&self) -> u64 {
        self.zc
    }

    fn doom(&self, reason: AbortReason) -> Abort {
        self.lsa.attempt.tx().doom(reason)
    }

    /// Algorithm 3 lines 6–22: zone admission for short transactions, and
    /// the short mark of an admitted open (crate docs). Returns the object
    /// zone counter value the admission was based on so the caller can
    /// detect a concurrent stamp (see [`ZTx::write`]).
    fn open_short_zone<T: TxValue>(&mut self, core: &VarCore<T>) -> Result<u64, Abort> {
        let admitted_zc = if !self.zone_set {
            // Opening the first object: it determines our zone (lines 6–15).
            let o_zc = core.zc();
            let ct = self.stm.ct();
            if o_zc < *self.lzc {
                // The object is from an older zone than the one this
                // thread last committed in.
                if *self.lzc > ct {
                    // That zone is still active: moving "backwards" would
                    // violate the thread-order rule (property 4).
                    return Err(self.doom(AbortReason::ZoneCross));
                }
                self.zc = ct;
            } else {
                self.zc = o_zc;
            }
            self.zone_set = true;
            self.marks = self.zc > ct;
            o_zc
        } else {
            let mut backoff = Backoff::new();
            let mut rounds = 0u64;
            loop {
                let o_zc = core.zc();
                if self.zc == o_zc {
                    break o_zc;
                }
                let ct = self.stm.ct();
                if self.zc <= ct && o_zc <= ct {
                    // Both zones are in the past: proceed at CT. Moving
                    // forward puts us after the long transactions that
                    // committed since our zone, so what we read must not
                    // predate them.
                    if self.zc < ct && !self.lsa.reads_still_newest() {
                        return Err(self.doom(AbortReason::ZoneCross));
                    }
                    self.zc = ct;
                    self.marks = false;
                    break o_zc;
                }
                // One of the zones belongs to a potentially active long
                // transaction: delay briefly (it may commit), then abort.
                rounds += 1;
                if rounds > ZONE_PATIENCE {
                    return Err(self.doom(AbortReason::ZoneCross));
                }
                backoff.spin();
            }
        };
        if self.marks {
            core.mark_short_open(self.zc);
        }
        Ok(admitted_zc)
    }

    /// Algorithm 2, `Open` in read mode: atomically stamp the zone,
    /// arbitrate any pending writer and read the version current at stamp
    /// time. No read set is kept; a repeated open that a short of our zone
    /// may have overtaken aborts (crate docs, *The short mark*).
    fn read_long<T: TxValue, R>(
        &mut self,
        core: &VarCore<T>,
        f: impl FnMut(&T) -> R,
    ) -> Result<R, Abort> {
        // Our own reservation serves our tentative value, and a short that
        // opened the object since we reserved it waits for us.
        let own_reservation = core.reserved_by(self.lsa.attempt.rec());
        let attempt = &self.lsa.attempt;
        let hit = core.open_long_read(attempt.pin(), attempt.rec(), self.zc, self.lsa.cm, f)?;
        if !own_reservation && core.short_opened_in(self.zc) {
            return Err(self.doom(AbortReason::SnapshotUnavailable));
        }
        self.lsa.attempt.record(TxEventKind::Read {
            obj: core.id(),
            version: hit.seq,
        });
        Ok(hit.value)
    }

    /// Algorithm 2, `Open` in write mode: atomic stamp + reservation, and
    /// no short of our zone may have opened the object before it.
    fn write_long<T: TxValue>(&mut self, core: &Shared<VarCore<T>>, value: T) -> Result<(), Abort> {
        if core.reserve_long(self.lsa.attempt.rec(), self.zc, value, self.lsa.cm)? {
            self.lsa.push_write(core);
            // The other half of the short reader's mark-then-writer-bit.
            fence(Ordering::SeqCst);
            if core.short_opened_in(self.zc) {
                return Err(self.doom(AbortReason::WriteConflict));
            }
        }
        Ok(())
    }

    /// Algorithm 2 lines 24–27.
    fn commit_long(&mut self) -> Result<(), Abort> {
        // The commit stamp is for the versions this transaction installs
        // (the LSA substrate of short transactions validates against them).
        self.lsa.begin_commit()?;
        // Line 24: commit only if T.zc > CT; line 26: CT ← T.zc.
        let prev_ct = self.stm.commit_counter.fetch_max(self.zc, Ordering::AcqRel);
        if prev_ct >= self.zc {
            return Err(self.lsa.abort(AbortReason::ZoneCommitRace));
        }
        // Line 25: the flip that publishes the transaction's updates.
        self.lsa.publish(Some(self.zc));
        // Line 27: LZC_p ← T.zc.
        *self.lzc = self.zc;
        Ok(())
    }
}

impl<B: TimeBase> TmTx for ZTx<'_, B> {
    type Factory = ZStm<B>;

    #[inline]
    fn read_with<T: TxValue, R>(
        &mut self,
        var: &ZVar<T>,
        f: impl FnMut(&T) -> R,
    ) -> Result<R, Abort> {
        self.lsa.attempt.on_read()?;
        if self.kind().is_long() {
            return self.read_long(&var.core, f);
        }
        // Algorithm 3: zone admission, then OpenLSA. (Reads need no
        // post-admission re-check: committed versions are immutable and
        // update transactions are revalidated at commit time; only writes
        // can escape a long transaction's pinned snapshot.)
        self.open_short_zone(&var.core)?;
        // Long transactions use visible writes and no read set: a short
        // reader must not slip "behind" an active long writer (it would
        // read the pre-long version and serialize before the long
        // transaction, breaking the zone order if it also updates objects
        // the long transaction read). Wait the long writer out first; a
        // long writer this misses sees our mark and aborts.
        var.core
            .arbitrate_long_writer(self.lsa.attempt.rec(), self.lsa.cm)?;
        self.lsa.open_read(&var.core, f)
    }

    #[inline]
    fn write<T: TxValue>(&mut self, var: &ZVar<T>, value: T) -> Result<(), Abort> {
        self.lsa.attempt.on_write()?;
        if self.kind().is_long() {
            return self.write_long(&var.core, value);
        }
        let admitted_zc = self.open_short_zone(&var.core)?;
        self.lsa.open_write(&var.core, value)?;
        // The paper's Openshort runs the zone check and the LSA open as one
        // atomic step. The admission check above and the reservation are
        // separate here, so a long transaction may have stamped (and read)
        // the object in the window — in which case this write would escape
        // the long transaction's snapshot. Re-check and abort if so; a
        // stamp arriving after the reservation is handled by the long
        // transaction's open-time arbitration instead.
        if var.core.zc() != admitted_zc {
            return Err(self.doom(AbortReason::ZoneCross));
        }
        Ok(())
    }

    #[inline]
    fn commit(mut self) -> Result<(), Abort> {
        if self.kind().is_long() {
            return self.commit_long();
        }
        // Algorithm 3 lines 25–29: CommitLSA decides; LZC is updated on
        // success.
        self.lsa.commit(Some(self.zc))?;
        if self.zone_set {
            *self.lzc = (*self.lzc).max(self.zc);
        }
        Ok(())
    }

    #[inline]
    fn rollback(mut self, reason: AbortReason) {
        self.lsa.abort(reason);
    }

    fn id(&self) -> TxId {
        self.lsa.attempt.tx().id()
    }

    fn kind(&self) -> TxKind {
        self.lsa.attempt.tx().kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zstm_core::{atomically, RetryPolicy};

    include!("../../../tests/support/attempt_endings.rs");

    fn stm(threads: usize) -> Arc<ZStm> {
        Arc::new(ZStm::new(StmConfig::new(threads)))
    }

    #[test]
    fn short_tx_read_and_increment() {
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
    fn long_tx_reads_its_own_write() {
        // Regression: the repeated-open check used to compare the
        // tentative read's `base + 1` against the recorded base and
        // abort `SnapshotUnavailable` deterministically — an unbounded
        // long transaction mixing reads and writes on one object (any
        // TMap read-modify-write seed) then retried forever.
        let stm = stm(1);
        let var = stm.new_var(1i64);
        let mut thread = stm.register_thread();
        let seen = atomically(&mut thread, TxKind::Long, &RetryPolicy::default(), |tx| {
            let v = tx.read(&var)?;
            tx.write(&var, v + 10)?;
            let tentative = tx.read(&var)?;
            tx.write(&var, tentative * 2)?;
            tx.read(&var)
        })
        .expect("read-your-own-write long transaction commits");
        assert_eq!(seen, 22);
        let committed = atomically(&mut thread, TxKind::Short, &RetryPolicy::default(), |tx| {
            tx.read(&var)
        })
        .expect("commit");
        assert_eq!(committed, 22);
    }

    #[test]
    fn long_tx_reserves_zone_and_raises_ct() {
        let stm = stm(1);
        let var = stm.new_var(7i64);
        let mut thread = stm.register_thread();
        assert_eq!(stm.zc(), 0);
        atomically(&mut thread, TxKind::Long, &RetryPolicy::default(), |tx| {
            tx.read(&var)
        })
        .expect("long commit");
        assert_eq!(stm.zc(), 1);
        assert_eq!(stm.ct(), 1);
        assert_eq!(thread.lzc(), 1);
        assert_eq!(var.zc(), 1);
    }

    #[test]
    fn long_update_transaction_installs_versions() {
        let stm = stm(1);
        let var = stm.new_var(0i64);
        let mut thread = stm.register_thread();
        atomically(&mut thread, TxKind::Long, &RetryPolicy::default(), |tx| {
            let v = tx.read(&var)?;
            tx.write(&var, v + 10)
        })
        .expect("long update commits");
        let v = atomically(&mut thread, TxKind::Short, &RetryPolicy::default(), |tx| {
            tx.read(&var)
        })
        .expect("commit");
        assert_eq!(v, 10);
    }

    #[test]
    fn passed_long_transaction_aborts() {
        let stm = stm(2);
        let o1 = stm.new_var(0i64);
        let o2 = stm.new_var(0i64);
        let mut p0 = stm.register_thread();
        let mut p1 = stm.register_thread();

        // L1 draws zone 1, L2 draws zone 2. L2 stamps o2 first; when L1
        // reaches o2 it has been passed and must abort (Algorithm 2 line 20).
        let mut l1 = p0.begin(TxKind::Long);
        let mut l2 = p1.begin(TxKind::Long);
        assert_eq!(l1.zone(), 1);
        assert_eq!(l2.zone(), 2);
        l1.read(&o1).expect("L1 stamps o1");
        l2.read(&o2).expect("L2 stamps o2");
        l2.read(&o1).expect("L2 passes L1 on o1");
        let err = l1.read(&o2).expect_err("L1 was passed");
        assert_eq!(err.reason(), AbortReason::ZonePassed);
        l1.rollback(err.reason());
        l2.commit().expect("L2 commits");
    }

    #[test]
    fn long_transactions_commit_in_zone_order() {
        let stm = stm(2);
        let o1 = stm.new_var(0i64);
        let o2 = stm.new_var(0i64);
        let mut p0 = stm.register_thread();
        let mut p1 = stm.register_thread();

        // Disjoint long transactions: L1 (zone 1), L2 (zone 2). L2 commits
        // first, raising CT to 2; L1's commit check T.zc > CT fails.
        let mut l1 = p0.begin(TxKind::Long);
        let mut l2 = p1.begin(TxKind::Long);
        l1.read(&o1).expect("L1");
        l2.read(&o2).expect("L2");
        l2.commit().expect("L2 commits, CT = 2");
        let err = l1.commit().expect_err("L1 violates timestamp order");
        assert_eq!(err.reason(), AbortReason::ZoneCommitRace);
    }

    #[test]
    fn short_transaction_adopts_zone_of_first_object() {
        let stm = stm(2);
        let o1 = stm.new_var(0i64);
        let o2 = stm.new_var(0i64);
        let mut p0 = stm.register_thread();
        let mut p1 = stm.register_thread();

        let mut long = p0.begin(TxKind::Long);
        long.read(&o1).expect("long stamps o1 with zone 1");

        // A short transaction whose first object is long-stamped joins
        // zone 1; it may then update o1 (already read by the long tx).
        let mut short = p1.begin(TxKind::Short);
        let v = short.read(&o1).expect("joins zone 1");
        assert_eq!(short.zone(), 1);
        short.write(&o1, v + 1).expect("update inside the zone");
        short.commit().expect("short commits in zone 1");

        // The long transaction still commits: its snapshot of o1 was taken
        // before the short's update.
        long.read(&o2).expect("long continues");
        long.commit().expect("long commits");
    }

    #[test]
    fn short_transaction_cannot_cross_active_long() {
        let stm = stm(2);
        let o1 = stm.new_var(0i64);
        let o2 = stm.new_var(0i64);
        let mut p0 = stm.register_thread();
        let mut p1 = stm.register_thread();

        let mut long = p0.begin(TxKind::Long);
        long.read(&o2).expect("long stamps o2 with zone 1");

        // Short starts in the old zone (o1 untouched, zc 0) and then tries
        // to open o2, which belongs to the active zone 1: conflict.
        let mut short = p1.begin(TxKind::Short);
        short.read(&o1).expect("old zone");
        let err = short.read(&o2).expect_err("cannot cross the active long");
        assert_eq!(err.reason(), AbortReason::ZoneCross);
        short.rollback(err.reason());

        long.read(&o1).expect("long reads o1");
        long.commit().expect("long commits");

        // After the long committed, the same access pattern succeeds.
        let sum = atomically(&mut p1, TxKind::Short, &RetryPolicy::default(), |tx| {
            Ok(tx.read(&o1)? + tx.read(&o2)?)
        })
        .expect("commit");
        assert_eq!(sum, 0);
    }

    #[test]
    fn thread_order_rule_blocks_backward_crossing() {
        // Section 5: "a thread could execute T3 and then T5 but not T5 and
        // then T4" — after committing in an active long transaction's zone,
        // a thread must not start a short transaction in an older zone.
        let stm = stm(2);
        let o_in_zone = stm.new_var(0i64);
        let o_old = stm.new_var(0i64);
        let mut p0 = stm.register_thread();
        let mut p1 = stm.register_thread();

        let mut long = p0.begin(TxKind::Long);
        long.read(&o_in_zone).expect("long stamps o_in_zone");

        // p1 commits a short transaction inside zone 1 (T5-like).
        let mut t5 = p1.begin(TxKind::Short);
        let v = t5.read(&o_in_zone).expect("join zone 1");
        t5.write(&o_in_zone, v + 1).expect("update");
        t5.commit().expect("commit in zone 1");
        assert_eq!(p1.lzc(), 1);

        // p1 now starts a short transaction on an old-zone object (T4-like)
        // while the long transaction is still active: forbidden.
        let mut t4 = p1.begin(TxKind::Short);
        let err = t4.read(&o_old).expect_err("backward crossing");
        assert_eq!(err.reason(), AbortReason::ZoneCross);
        t4.rollback(err.reason());

        long.commit().expect("long commits");

        // Once the zone is closed the access is fine.
        atomically(&mut p1, TxKind::Short, &RetryPolicy::default(), |tx| {
            tx.read(&o_old)
        })
        .expect("commit after zone closed");
    }

    #[test]
    fn long_update_tx_sustains_against_concurrent_transfers() {
        // The Figure 7 scenario in miniature: an updating Compute-Total
        // style long transaction must commit while transfers run.
        let stm = stm(3);
        let accounts: Arc<Vec<ZVar<i64>>> = Arc::new((0..32).map(|_| stm.new_var(10i64)).collect());
        let total_out = stm.new_var(0i64);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let workers: Vec<_> = (0..2)
            .map(|t| {
                let stm = Arc::clone(&stm);
                let accounts = Arc::clone(&accounts);
                let stop = Arc::clone(&stop);
                let mut thread = stm.register_thread();
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let from = ((i * 7 + t) % 32) as usize;
                        let to = ((i * 13 + t + 1) % 32) as usize;
                        if from != to {
                            let _ = atomically(
                                &mut thread,
                                TxKind::Short,
                                &RetryPolicy::default().with_max_attempts(1_000),
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
        let mut thread = stm.register_thread();
        for _ in 0..20 {
            let total = atomically(&mut thread, TxKind::Long, &RetryPolicy::default(), |tx| {
                let mut sum = 0i64;
                for account in accounts.iter() {
                    sum += tx.read(account)?;
                }
                tx.write(&total_out, sum)?;
                Ok(sum)
            })
            .expect("long update transaction commits under load");
            assert_eq!(total, 320, "zone snapshot must be consistent");
        }
        stop.store(true, Ordering::Relaxed);
        for w in workers {
            w.join().expect("worker panicked");
        }
    }

    #[test]
    fn money_is_conserved_across_kinds() {
        let stm = stm(4);
        let accounts: Arc<Vec<ZVar<i64>>> =
            Arc::new((0..16).map(|_| stm.new_var(100i64)).collect());
        let handles: Vec<_> = (0..3)
            .map(|t| {
                let stm = Arc::clone(&stm);
                let accounts = Arc::clone(&accounts);
                let mut thread = stm.register_thread();
                std::thread::spawn(move || {
                    for i in 0..300u64 {
                        if i % 20 == 19 {
                            // Occasional long audit.
                            let total = atomically(
                                &mut thread,
                                TxKind::Long,
                                &RetryPolicy::default(),
                                |tx| {
                                    let mut sum = 0i64;
                                    for account in accounts.iter() {
                                        sum += tx.read(account)?;
                                    }
                                    Ok(sum)
                                },
                            )
                            .expect("audit commits");
                            assert_eq!(total, 1600);
                        } else {
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
            for account in accounts.iter() {
                sum += tx.read(account)?;
            }
            Ok(sum)
        })
        .expect("sum commits");
        assert_eq!(total, 1600);
    }

    /// A long transaction on `p0` reads `o`; a short one on `p1` joins its
    /// zone, updates `o` and commits. Returns the long transaction.
    fn long_read_then_short_update<'a>(
        p0: &'a mut ZThread,
        p1: &mut ZThread,
        o: &ZVar<i64>,
    ) -> ZTx<'a> {
        let mut long = p0.begin(TxKind::Long);
        let seen = long.read(o).expect("the long stamps and reads o");
        let mut short = p1.begin(TxKind::Short);
        assert_eq!(short.read(o).expect("joins the long's zone"), seen);
        short.write(o, seen + 1).expect("update inside the zone");
        short
            .commit()
            .expect("the short commits behind the long's open");
        long
    }

    #[test]
    fn a_repeated_long_read_must_sit_on_the_version_of_the_first() {
        let stm = stm(2);
        let o = stm.new_var(0i64);
        let (mut p0, mut p1) = (stm.register_thread(), stm.register_thread());
        let mut long = long_read_then_short_update(&mut p0, &mut p1, &o);
        let err = long.read(&o).expect_err("o moved under the long");
        assert_eq!(err.reason(), AbortReason::SnapshotUnavailable);
    }

    #[test]
    fn a_long_write_must_build_on_the_version_it_read() {
        let stm = stm(2);
        let o = stm.new_var(0i64);
        let (mut p0, mut p1) = (stm.register_thread(), stm.register_thread());
        let mut long = long_read_then_short_update(&mut p0, &mut p1, &o);
        let err = long.write(&o, 7).expect_err("a post-stamp version slid in");
        assert_eq!(err.reason(), AbortReason::WriteConflict);
        long.rollback(err.reason());
        let mut check = p1.begin(TxKind::Short);
        assert_eq!(
            check.read(&o).expect("read"),
            1,
            "the short's update stands"
        );
    }

    #[test]
    fn a_zone_reader_stops_the_long_write_upgrade() {
        // `tests/corpus/ci_seed_1_z.rs` by hand: a short joins the long
        // transaction's zone through `o`, reads its version from before the
        // long one's write and updates `p`, which the long one read. Both
        // committing would order each before the other.
        let stm = stm(2);
        let (o, p) = (stm.new_var(0i64), stm.new_var(0i64));
        let (mut p0, mut p1) = (stm.register_thread(), stm.register_thread());
        let mut long = p0.begin(TxKind::Long);
        long.read(&o).expect("the long stamps o");
        long.read(&p).expect("the long stamps p");
        let mut short = p1.begin(TxKind::Short);
        assert_eq!(short.read(&o).expect("joins the long's zone"), 0);
        short.write(&p, 1).expect("update inside the zone");
        short.commit().expect("the short commits");
        let err = long.write(&o, 7).expect_err("a zone reader saw o first");
        assert_eq!(err.reason(), AbortReason::WriteConflict);
    }

    #[test]
    fn a_long_cut_short_leaves_no_opens_to_the_next_one() {
        let stm = stm(2);
        let o = stm.new_var(0i64);
        let other = stm.new_var(0i64);
        let (mut p0, mut p1) = (stm.register_thread(), stm.register_thread());
        let update = |thread: &mut ZThread| {
            atomically(thread, TxKind::Short, &RetryPolicy::default(), |tx| {
                let v = tx.read(&o)?;
                tx.write(&o, v + 1)
            })
            .expect("update commits");
        };

        // Aborted mid-scan, with `o` opened on version 0.
        let mut long = p0.begin(TxKind::Long);
        long.read(&o).expect("read");
        long.read(&other).expect("read");
        long.rollback(AbortReason::Explicit);
        update(&mut p1);
        // The update marked `o` with the aborted long's zone, which no later
        // long transaction draws: this open is a first one.
        let mut long = p0.begin(TxKind::Long);
        assert_eq!(long.read(&o).expect("a first open"), 1);
        long.commit().expect("commit");

        // Unwound mid-scan, with `o` opened on version 1.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut long = p0.begin(TxKind::Long);
            long.read(&o).expect("read");
            panic!("the body blows up after its reads");
        }));
        assert!(unwound.is_err());
        update(&mut p1);
        let mut long = p0.begin(TxKind::Long);
        assert_eq!(long.read(&o).expect("a first open"), 2);
        long.write(&o, 10).expect("builds on what it read");
        long.commit().expect("commit");
    }

    #[test]
    fn sets_go_back_to_the_thread_empty_however_the_transaction_ends() {
        let stm = stm(2);
        let vars: Vec<_> = (0..5_000).map(|_| stm.new_var(0i64)).collect();
        let (mut thread, mut rival) = (stm.register_thread(), stm.register_thread());
        drive_every_ending::<ZStm>(&mut thread, &mut rival, &vars, |ending, thread| {
            assert_sets_idle(ending, thread.snapshot.sets());
        });
    }
}
