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
//! * **Short transactions** — plain LSA (same engine as
//!   [`zstm_lsa::LsaStm`]) extended with the zone rules of Algorithm 3: the
//!   first object opened determines the transaction's zone (lines 6–15,
//!   with the thread-order rule via the per-thread `LZC`), and opening an
//!   object from a *different, still-active* zone is a conflict that delays
//!   or aborts the transaction (lines 16–22) — this is what prevents a
//!   short transaction from "crossing the path" of an active long
//!   transaction.
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

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use zstm_clock::{ScalarClock, TimeBase};
use zstm_core::{
    Abort, AbortReason, ContentionManager, ObjId, StmConfig, ThreadId, TmFactory, TmThread, TmTx,
    TxEventKind, TxId, TxKind, TxShared, TxStats, TxValue, VersionSeq,
};
use zstm_lsa::engine::{DynObject, HistoryGap, VarCore};
use zstm_util::{Backoff, CachePadded};

/// Rounds a short transaction waits on a cross-zone conflict before
/// aborting (the "CM delays/aborts T" of Algorithm 3 line 18).
const ZONE_PATIENCE: u64 = 8;

/// A transactional variable managed by [`ZStm`]. Cheap to clone.
pub struct ZVar<T: TxValue> {
    core: Arc<VarCore<T>>,
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

impl<T: TxValue> Clone for ZVar<T> {
    fn clone(&self) -> Self {
        Self {
            core: Arc::clone(&self.core),
        }
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
    cm: Arc<dyn ContentionManager>,
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
    /// base).
    pub fn with_clock(config: StmConfig, clock: B) -> Self {
        let cm = config.cm_policy().build();
        Self {
            config,
            clock,
            cm,
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
            core: Arc::new(VarCore::new(
                init,
                self.config.max_versions_per_object(),
                Arc::clone(self.config.sink()),
            )),
        }
    }

    fn register_thread(self: &Arc<Self>) -> ZThread<B> {
        let slot = self.registered.fetch_add(1, Ordering::Relaxed);
        assert!(
            slot < self.config.threads(),
            "more threads registered than configured ({})",
            self.config.threads()
        );
        ZThread {
            stm: Arc::clone(self),
            id: ThreadId::new(slot),
            stats: TxStats::new(),
            lzc: 0,
            pending_karma: 0,
            reads: Vec::new(),
            writes: Vec::new(),
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
    id: ThreadId,
    stats: TxStats,
    /// `LZC_p`: the last zone this thread committed in (Section 5.4's
    /// thread-order rule).
    lzc: u64,
    pending_karma: u64,
    /// The running transaction's LSA read set (short transactions only;
    /// long transactions keep none) and write set. As in `zstm-lsa` they
    /// live in the thread so that their buffers outlast the transaction;
    /// [`ZTx`]'s `Drop` empties them, so an idle thread pins no variable.
    reads: Vec<ReadEntry>,
    writes: Vec<Arc<dyn DynObject>>,
}

/// Entries a read or write set keeps allocated between transactions (see
/// `zstm-lsa`: what one large transaction grew beyond this is given back
/// when it ends).
const RETAINED_SET_CAPACITY: usize = 1024;

impl<B: TimeBase> ZThread<B> {
    /// The thread's `LZC` value (diagnostics, tests).
    pub fn lzc(&self) -> u64 {
        self.lzc
    }
}

impl<B: TimeBase> TmThread for ZThread<B> {
    type Factory = ZStm<B>;
    type Tx<'a> = ZTx<'a, B>;

    fn begin(&mut self, kind: TxKind) -> ZTx<'_, B> {
        let karma = std::mem::take(&mut self.pending_karma);
        let shared = Arc::new(TxShared::start(self.id, kind, karma));
        let stm = &*self.stm;
        shared.record(&**stm.config.sink(), TxEventKind::Begin);
        let zc = if kind.is_long() {
            // Algorithm 2 line 3: T.zc ← ZC++ (pre-incremented so zone 0
            // means "no zone yet" for short transactions).
            stm.zone_counter.fetch_add(1, Ordering::AcqRel) + 1
        } else {
            0
        };
        let slack = stm.clock.snapshot_slack();
        let ub = stm.clock.now(self.id.slot()).saturating_sub(slack);
        ZTx {
            thread: self,
            shared,
            zc,
            zone_set: kind.is_long(),
            ub,
            long_opened: HashMap::new(),
        }
    }

    fn thread_id(&self) -> ThreadId {
        self.id
    }

    fn stats(&self) -> &TxStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> Option<&mut TxStats> {
        Some(&mut self.stats)
    }

    fn take_stats(&mut self) -> TxStats {
        std::mem::take(&mut self.stats)
    }
}

struct ReadEntry {
    obj: Arc<dyn DynObject>,
    seq: VersionSeq,
}

/// An active Z-STM transaction (long or short; the kind fixed at
/// [`TmThread::begin`] selects between Algorithm 2 and Algorithm 3).
pub struct ZTx<'a, B: TimeBase = ScalarClock> {
    thread: &'a mut ZThread<B>,
    shared: Arc<TxShared>,
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
    /// LSA snapshot time (short transactions only).
    ub: u64,
    /// Long transactions: objects opened so far with the version sequence
    /// fixed at first open. Not a read set — it is never validated at
    /// commit; it only serves repeated opens consistently and detects
    /// post-stamp interlopers on read-then-write patterns (the paper
    /// assumes open-once).
    long_opened: HashMap<ObjId, VersionSeq>,
}

/// However the transaction ends — commit, abort, or a panic unwinding
/// through its body — the sets it filled go back to the thread empty.
impl<B: TimeBase> Drop for ZTx<'_, B> {
    fn drop(&mut self) {
        let ZThread { reads, writes, .. } = &mut *self.thread;
        reads.clear();
        reads.shrink_to(RETAINED_SET_CAPACITY);
        writes.clear();
        writes.shrink_to(RETAINED_SET_CAPACITY);
    }
}

impl<B: TimeBase> ZTx<'_, B> {
    fn stm(&self) -> &ZStm<B> {
        &self.thread.stm
    }

    /// The transaction's zone number (tests, diagnostics).
    pub fn zone(&self) -> u64 {
        self.zc
    }

    fn record(&self, event: TxEventKind) {
        self.shared.record(&**self.stm().config.sink(), event);
    }

    fn abort_with(&self, reason: AbortReason) -> Abort {
        self.shared.abort();
        Abort::new(reason)
    }

    fn finish_abort(self, reason: AbortReason) {
        self.shared.abort();
        for obj in &self.thread.writes {
            obj.release_dyn(&self.shared);
        }
        self.thread.pending_karma = self.shared.karma();
        self.thread.stats.record_abort(self.shared.kind(), reason);
        self.record(TxEventKind::Abort { reason });
    }

    /// Algorithm 3 lines 6–22: zone admission for short transactions.
    /// Returns the object zone counter value the admission was based on so
    /// the caller can detect a concurrent stamp (see [`ZTx::write`]).
    fn open_short_zone<T: TxValue>(&mut self, core: &VarCore<T>) -> Result<u64, Abort> {
        let stm = &*self.thread.stm;
        if !self.zone_set {
            // Opening the first object: it determines our zone (lines 6–15).
            let o_zc = core.zc();
            let lzc = self.thread.lzc;
            if o_zc < lzc {
                // The object is from an older zone than the one this
                // thread last committed in.
                if lzc > stm.commit_counter.load(Ordering::Acquire) {
                    // That zone is still active: moving "backwards" would
                    // violate the thread-order rule (property 4).
                    return Err(self.abort_with(AbortReason::ZoneCross));
                }
                self.zc = stm.commit_counter.load(Ordering::Acquire);
            } else {
                self.zc = o_zc;
            }
            self.zone_set = true;
            return Ok(o_zc);
        }
        let mut backoff = Backoff::new();
        let mut rounds = 0u64;
        loop {
            let o_zc = core.zc();
            if self.zc == o_zc {
                return Ok(o_zc);
            }
            let ct = stm.commit_counter.load(Ordering::Acquire);
            if self.zc <= ct && o_zc <= ct {
                // Both zones are in the past: safe to proceed at CT.
                self.zc = ct;
                return Ok(o_zc);
            }
            // One of the zones belongs to a potentially active long
            // transaction: delay briefly (it may commit), then abort.
            rounds += 1;
            if rounds > ZONE_PATIENCE {
                return Err(self.abort_with(AbortReason::ZoneCross));
            }
            backoff.spin();
        }
    }

    /// LSA snapshot extension (short transactions).
    fn extend_snapshot(&mut self) -> u64 {
        let slack = self.stm().clock.snapshot_slack();
        let mut new_ub = self
            .stm()
            .clock
            .now(self.thread.id.slot())
            .saturating_sub(slack)
            .max(self.ub);
        for entry in &self.thread.reads {
            match entry.obj.successor_ct_dyn(&self.shared, entry.seq) {
                Ok(None) => {}
                Ok(Some(succ_ct)) => new_ub = new_ub.min(succ_ct.saturating_sub(1)),
                Err(HistoryGap::Pruned) => new_ub = new_ub.min(self.ub),
            }
        }
        self.ub = new_ub.max(self.ub);
        self.ub
    }

    fn commit_long(self) -> Result<(), Abort> {
        // Enter the commit protocol first: the LSA engine's validation
        // relies on the invariant that a commit stamp is only drawn by
        // transactions in the `Committing` state (an `Active` writer is
        // guaranteed to install with a *later* stamp than any concurrent
        // validator's).
        if !self.shared.begin_commit() {
            self.finish_abort(AbortReason::Killed);
            return Err(Abort::new(AbortReason::Killed));
        }
        // Commit time for the versions this transaction installs (the LSA
        // substrate of short transactions validates against these).
        let ct_stamp = self.stm().clock.commit_stamp(self.thread.id.slot());
        self.shared.set_commit_ct(ct_stamp);
        // Algorithm 2 line 24: commit only if T.zc > CT; line 26: CT ← T.zc.
        let prev_ct = self
            .stm()
            .commit_counter
            .fetch_max(self.zc, Ordering::AcqRel);
        if prev_ct >= self.zc {
            self.finish_abort(AbortReason::ZoneCommitRace);
            return Err(Abort::new(AbortReason::ZoneCommitRace));
        }
        // Line 25: the flip that publishes the transaction's updates.
        self.shared.finish_commit();
        for obj in &self.thread.writes {
            obj.promote_dyn(&self.shared);
        }
        // Line 27: LZC_p ← T.zc.
        self.thread.lzc = self.zc;
        self.thread.pending_karma = 0;
        self.thread.stats.record_commit(TxKind::Long);
        self.record(TxEventKind::Commit {
            zone: Some(self.zc),
        });
        Ok(())
    }

    fn commit_short(self) -> Result<(), Abort> {
        // Algorithm 3 lines 25–29: CommitLSA decides; LZC is updated on
        // success. The LSA commit logic mirrors zstm-lsa.
        if self.thread.writes.is_empty() {
            if !self.shared.try_commit_directly() {
                self.finish_abort(AbortReason::Killed);
                return Err(Abort::new(AbortReason::Killed));
            }
            if self.zone_set {
                self.thread.lzc = self.thread.lzc.max(self.zc);
            }
            self.thread.pending_karma = 0;
            self.thread.stats.record_commit(TxKind::Short);
            self.record(TxEventKind::Commit {
                zone: Some(self.zc),
            });
            return Ok(());
        }
        if !self.shared.begin_commit() {
            self.finish_abort(AbortReason::Killed);
            return Err(Abort::new(AbortReason::Killed));
        }
        let ct = self.stm().clock.commit_stamp(self.thread.id.slot());
        self.shared.set_commit_ct(ct);
        let valid = self
            .thread
            .reads
            .iter()
            .all(|entry| entry.obj.validate_read_dyn(&self.shared, entry.seq, ct));
        if !valid {
            self.finish_abort(AbortReason::ReadValidation);
            return Err(Abort::new(AbortReason::ReadValidation));
        }
        self.shared.finish_commit();
        for obj in &self.thread.writes {
            obj.promote_dyn(&self.shared);
        }
        if self.zone_set {
            self.thread.lzc = self.thread.lzc.max(self.zc);
        }
        self.thread.pending_karma = 0;
        self.thread.stats.record_commit(TxKind::Short);
        self.record(TxEventKind::Commit {
            zone: Some(self.zc),
        });
        Ok(())
    }
}

impl<B: TimeBase> TmTx for ZTx<'_, B> {
    type Factory = ZStm<B>;

    fn read<T: TxValue>(&mut self, var: &ZVar<T>) -> Result<T, Abort> {
        self.shared.check_alive()?;
        self.thread.stats.record_read();
        self.shared.add_karma(1);

        if self.shared.kind().is_long() {
            // Algorithm 2, Open in read mode: atomically stamp the zone,
            // arbitrate any pending writer and read the version current at
            // stamp time. No read set is kept; repeated opens of the same
            // object are served from the first open's version (the paper
            // assumes each object is opened exactly once).
            let obj_id = var.core.id();
            // Read-your-own-write: if we already hold the reservation,
            // the open below serves our tentative value at `base + 1`.
            // The repeated-open check must keep comparing *base* —
            // `long_opened` records the committed version each open sits
            // on, and our own pending write is not a post-stamp intruder.
            let own_reservation = var.core.reserved_by(&self.shared);
            let hit = var
                .core
                .open_long_read(&self.shared, self.zc, self.stm().cm.as_ref())?;
            let opened_seq = if own_reservation {
                hit.seq - 1
            } else {
                hit.seq
            };
            match self.long_opened.get(&obj_id).copied() {
                Some(seq) if opened_seq != seq => {
                    // A post-stamp transaction slid a version in between:
                    // our earlier open no longer matches.
                    return Err(self.abort_with(AbortReason::SnapshotUnavailable));
                }
                Some(_) => {}
                None => {
                    self.long_opened.insert(obj_id, opened_seq);
                }
            }
            self.record(TxEventKind::Read {
                obj: obj_id,
                version: hit.seq,
            });
            return Ok(hit.value);
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
        // the long transaction read). Wait the long writer out first.
        var.core
            .arbitrate_long_writer(&self.shared, self.stm().cm.as_ref())?;
        let mut hit = var.core.read_at(Some(&self.shared), self.ub);
        if hit.as_ref().is_none_or(|h| !h.is_latest) {
            let ub = self.extend_snapshot();
            let fresh = var.core.read_at(Some(&self.shared), ub);
            if fresh.is_some() {
                hit = fresh;
            }
        }
        let hit = hit.ok_or_else(|| self.abort_with(AbortReason::SnapshotUnavailable))?;
        self.thread.reads.push(ReadEntry {
            obj: Arc::clone(&var.core) as Arc<dyn DynObject>,
            seq: hit.seq,
        });
        self.record(TxEventKind::Read {
            obj: var.core.id(),
            version: hit.seq,
        });
        Ok(hit.value)
    }

    fn write<T: TxValue>(&mut self, var: &ZVar<T>, value: T) -> Result<(), Abort> {
        self.shared.check_alive()?;
        self.thread.stats.record_write();
        self.shared.add_karma(1);
        if self.shared.kind().is_long() {
            // Algorithm 2, Open in write mode: atomic stamp + reservation.
            let obj_id = var.core.id();
            let newly_reserved = !var.core.reserved_by(&self.shared);
            let base_seq =
                var.core
                    .reserve_long(&self.shared, self.zc, value, self.stm().cm.as_ref())?;
            match self.long_opened.get(&obj_id).copied() {
                Some(read_seq) if read_seq != base_seq => {
                    // Read-then-write: a post-stamp transaction committed a
                    // version between our read and this write.
                    return Err(self.abort_with(AbortReason::WriteConflict));
                }
                Some(_) => {}
                None => {
                    self.long_opened.insert(obj_id, base_seq);
                }
            }
            if newly_reserved {
                self.thread
                    .writes
                    .push(Arc::clone(&var.core) as Arc<dyn DynObject>);
            }
            return Ok(());
        }
        let admitted_zc = self.open_short_zone(&var.core)?;
        if var
            .core
            .reserve(&self.shared, value, self.stm().cm.as_ref())?
        {
            self.thread
                .writes
                .push(Arc::clone(&var.core) as Arc<dyn DynObject>);
        }
        // The paper's Openshort runs the zone check and the LSA open as one
        // atomic step. The admission check above and the reservation are
        // separate here, so a long transaction may have stamped (and read)
        // the object in the window — in which case this write would escape
        // the long transaction's snapshot. Re-check and abort if so; a
        // stamp arriving after the reservation is handled by the long
        // transaction's open-time arbitration instead.
        if var.core.zc() != admitted_zc {
            return Err(self.abort_with(AbortReason::ZoneCross));
        }
        Ok(())
    }

    fn commit(self) -> Result<(), Abort> {
        if self.shared.kind().is_long() {
            self.commit_long()
        } else {
            self.commit_short()
        }
    }

    fn rollback(self, reason: AbortReason) {
        self.finish_abort(reason);
    }

    fn id(&self) -> TxId {
        self.shared.id()
    }

    fn kind(&self) -> TxKind {
        self.shared.kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zstm_core::{atomically, RetryPolicy};

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

    #[test]
    fn sets_go_back_to_the_thread_empty_however_the_transaction_ends() {
        let stm = stm(1);
        let vars: Vec<_> = (0..4 * RETAINED_SET_CAPACITY)
            .map(|_| stm.new_var(0i64))
            .collect();
        let mut thread = stm.register_thread();
        let idle = |thread: &ZThread| (thread.reads.len(), thread.writes.len());

        let mut tx = thread.begin(TxKind::Short);
        tx.read(&vars[0]).expect("read");
        tx.write(&vars[1], 1).expect("write");
        tx.commit().expect("commit");
        assert_eq!(idle(&thread), (0, 0), "after a commit");
        assert!(
            thread.reads.capacity() > 0 && thread.writes.capacity() > 0,
            "the buffers stay for the next transaction"
        );

        let mut tx = thread.begin(TxKind::Short);
        tx.read(&vars[0]).expect("read");
        tx.write(&vars[1], 2).expect("write");
        tx.rollback(AbortReason::Explicit);
        assert_eq!(idle(&thread), (0, 0), "after an abort");

        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut tx = thread.begin(TxKind::Short);
            tx.read(&vars[0]).expect("read");
            panic!("the body blows up after its reads");
        }));
        assert!(unwound.is_err());
        assert_eq!(idle(&thread), (0, 0), "after a panic in the body");

        // One scan of a large heap does not leave its read set behind.
        let mut tx = thread.begin(TxKind::Short);
        for var in &vars {
            tx.read(var).expect("read");
        }
        tx.commit().expect("commit");
        assert_eq!(idle(&thread), (0, 0), "after a large transaction");
        assert!(thread.reads.capacity() <= RETAINED_SET_CAPACITY);
    }
}
