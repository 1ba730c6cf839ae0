//! The LSA snapshot transaction: the paper's `OpenLSA` and `CommitLSA`.
//!
//! [`Snapshot`] is one transaction attempt over [`VarCore`] objects — the
//! snapshot time `ub`, the read and write sets, open-for-read with lazy
//! snapshot extension, open-for-write, and commit-time validation at a
//! fresh stamp. [`LsaStm`](crate::LsaStm) runs it as is; Z-STM's short
//! transactions (Algorithm 3) wrap zone admission around the same
//! [`Snapshot::open_read`], [`Snapshot::open_write`] and
//! [`Snapshot::commit`], and its long transactions reuse the descriptor,
//! the write set and the two halves of the update commit.
//!
//! The read and write sets name their variables by [`Held`]: an open takes
//! no count of the variable's [`Shared`] handle, and the end of the attempt
//! gives none back (counted entries would cost a transfer — two reads, two
//! writes — eight locked instructions). The attempt's pin keeps
//! every variable in the sets alive until the attempt ends, whoever drops
//! its last handle meanwhile (`zstm_util`'s `arc_cell` module docs).
//!
//! `begin`, the opens and `commit` are `#[inline(always)]`: their two
//! callers (`LsaTx`, `ZTx`) are one-line forwards, and a call boundary
//! there is measurable on `map_zipf_lsa` and `bank_z_long`.

use zstm_clock::TimeBase;
use zstm_core::{
    Abort, AbortReason, Attempt, CmPolicy, LastRecord, ThreadCtx, TxEventKind, TxKind, TxSets,
    TxShared, TxValue, VersionSeq, WriteEntry,
};
use zstm_util::{Held, Shared};

use crate::engine::{DynObject, HistoryGap, VarCore};

struct ReadEntry {
    obj: Held<dyn DynObject>,
    seq: VersionSeq,
}

/// What a thread keeps for its [`Snapshot`]s: the running one's snapshot
/// time and its read and write sets ([`TxSets`]: a `Snapshot` fills them
/// and its `Drop` gives them back empty). One struct, so that the
/// transaction handle holds one reference to it.
#[derive(Default)]
pub struct SnapshotState {
    /// Snapshot time: every read-set entry is valid at `ub`.
    ub: u64,
    sets: TxSets<ReadEntry, Held<dyn WriteEntry<TxShared>>>,
}

impl SnapshotState {
    /// [`TxSets::usage`] of the sets (tests).
    pub fn sets(&self) -> [(usize, usize); 2] {
        self.sets.usage()
    }
}

/// One LSA transaction attempt (module docs).
pub struct Snapshot<'a, B: TimeBase> {
    /// Descriptor, access prologues, events.
    pub attempt: Attempt<'a>,
    state: &'a mut SnapshotState,
    clock: &'a B,
    /// The policy that arbitrates this attempt's conflicts.
    pub cm: CmPolicy,
}

/// However the transaction ends — dropped raw it is rolled back first —
/// the sets it filled go back to the thread empty.
impl<B: TimeBase> Drop for Snapshot<'_, B> {
    #[inline]
    fn drop(&mut self) {
        if self.attempt.is_open() {
            self.abort(AbortReason::Explicit);
        }
        self.state.sets.give_back();
    }
}

impl<'a, B: TimeBase> Snapshot<'a, B> {
    /// Starts an attempt whose snapshot time is "now", its record in the
    /// allocation of the thread's `last` one when it can.
    #[inline(always)]
    pub fn begin(
        ctx: &'a mut ThreadCtx,
        last: &'a mut LastRecord,
        state: &'a mut SnapshotState,
        clock: &'a B,
        cm: CmPolicy,
        kind: TxKind,
    ) -> Self {
        let attempt = Attempt::start(ctx, last, kind, |tx| tx);
        state.ub = clock.now(attempt.slot());
        Self {
            attempt,
            state,
            clock,
            cm,
        }
    }

    /// The snapshot time.
    #[inline]
    pub fn ub(&self) -> u64 {
        self.state.ub
    }

    /// Attempts to extend the snapshot time to "now" by revalidating the
    /// read set; returns the new snapshot time (which may equal the old
    /// one if some entry's validity already ended).
    fn extend_snapshot(&mut self) -> u64 {
        let ub = self.state.ub;
        let mut new_ub = self.clock.now(self.attempt.slot()).max(ub);
        for entry in &self.state.sets.reads {
            match entry.obj.successor_ct(Some(self.attempt.rec()), entry.seq) {
                Ok(None) => {}
                Ok(Some(succ_ct)) => new_ub = new_ub.min(succ_ct.saturating_sub(1)),
                // Successor pruned: we cannot prove validity past the
                // current snapshot time.
                Err(HistoryGap::Pruned) => new_ub = new_ub.min(ub),
            }
        }
        self.state.ub = new_ub.max(ub);
        self.state.ub
    }

    /// `true` iff every version this attempt read is still the newest of
    /// its object (one `successor_ct` per read-set entry): the snapshot
    /// holds now, after whatever committed since it was taken.
    pub fn reads_still_newest(&self) -> bool {
        let me = Some(self.attempt.rec());
        let newest = |entry: &ReadEntry| entry.obj.successor_ct(me, entry.seq) == Ok(None);
        self.state.sets.reads.iter().all(newest)
    }

    /// `OpenLSA` in read mode: the newest version valid at the snapshot
    /// time, extending the snapshot when that is not the latest one, lent
    /// to `f` (`TmTx::read_with`), and a read-set entry for it.
    ///
    /// # Errors
    ///
    /// [`AbortReason::SnapshotUnavailable`] when no retained version is
    /// valid at the snapshot time.
    #[inline(always)]
    pub fn open_read<T: TxValue, R>(
        &mut self,
        core: &Shared<VarCore<T>>,
        mut f: impl FnMut(&T) -> R,
    ) -> Result<R, Abort> {
        let (pin, me) = (self.attempt.pin(), Some(self.attempt.rec()));
        let mut hit = core.read_at(pin, me, self.state.ub, &mut f);
        // Short and update transactions strive to read the *latest* version
        // (anything older is doomed at commit-time validation); long
        // read-only transactions are content with any version valid at the
        // snapshot time — that is the entire point of multi-versioning, and
        // skipping the extension here is what keeps plain LSA-STM's
        // Compute-Total at the paper's "slightly slower than Z-STM" rather
        // than quadratic.
        let wants_latest =
            !self.attempt.tx().kind().is_long() || !self.state.sets.writes.is_empty();
        if hit.as_ref().is_none_or(|h| wants_latest && !h.is_latest) {
            let ub = self.extend_snapshot();
            let fresh = core.read_at(self.attempt.pin(), Some(self.attempt.rec()), ub, &mut f);
            if fresh.is_some() {
                hit = fresh;
            }
        }
        let hit = hit.ok_or_else(|| self.attempt.tx().doom(AbortReason::SnapshotUnavailable))?;
        let obj = Held::new(core, self.attempt.pin()).map(|core| core as &dyn DynObject);
        self.state.sets.reads.push(ReadEntry { obj, seq: hit.seq });
        self.attempt.record(TxEventKind::Read {
            obj: core.id(),
            version: hit.seq,
        });
        Ok(hit.value)
    }

    /// `OpenLSA` in write mode: acquires (or refreshes) the writer
    /// reservation through the contention manager.
    ///
    /// # Errors
    ///
    /// See [`VarCore::reserve`].
    #[inline(always)]
    pub fn open_write<T: TxValue>(
        &mut self,
        core: &Shared<VarCore<T>>,
        value: T,
    ) -> Result<(), Abort> {
        if core.reserve(self.attempt.rec(), value, self.cm)? {
            self.push_write(core);
        }
        Ok(())
    }

    /// Enters `core`, freshly reserved by this transaction, into the write
    /// set, to be released on abort and promoted on commit.
    #[inline]
    pub fn push_write<T: TxValue>(&mut self, core: &Shared<VarCore<T>>) {
        let entry = Held::new(core, self.attempt.pin()).map(|core| core as &dyn WriteEntry<_>);
        self.state.sets.writes.push(entry);
    }

    /// Rolls the attempt back: reservations released, abort counted.
    pub fn abort(&mut self, reason: AbortReason) -> Abort {
        self.attempt.release_all(&self.state.sets.writes);
        self.attempt.aborted(reason)
    }

    /// First half of an update commit: enters the commit protocol and
    /// draws the commit stamp ([`Snapshot::publish`] is the second half).
    /// A stamp is only ever drawn in `Committing` — validation relies on
    /// an `Active` writer installing with a *later* stamp than any
    /// concurrent validator's.
    ///
    /// # Errors
    ///
    /// [`AbortReason::Killed`] (rolled back) if the attempt was killed.
    #[inline]
    pub fn begin_commit(&mut self) -> Result<u64, Abort> {
        if !self.attempt.tx().begin_commit() {
            return Err(self.abort(AbortReason::Killed));
        }
        let ct = self.clock.commit_stamp(self.attempt.slot());
        self.attempt.tx().set_commit_ct(ct);
        Ok(ct)
    }

    /// Second half of an update commit: the status flip that publishes
    /// the write set, and its eager promotion.
    #[inline]
    pub fn publish(&mut self, zone: Option<u64>) {
        self.attempt.publish(&self.state.sets.writes, zone);
    }

    /// `CommitLSA`. `zone` is what the `Commit` event carries (Z-STM's
    /// zone; `None` for LSA-STM).
    ///
    /// # Errors
    ///
    /// [`AbortReason::ReadValidation`] or [`AbortReason::Killed`]; the
    /// attempt is rolled back.
    #[inline(always)]
    pub fn commit(&mut self, zone: Option<u64>) -> Result<(), Abort> {
        let me = self.attempt.rec();
        if self.state.sets.writes.is_empty() {
            // Read-only: the snapshot is consistent at `ub` by
            // construction. Plain LSA-STM still walks the read set (the
            // bookkeeping the paper's Figure 6 measures; a failure cannot
            // happen while the snapshot invariant holds).
            let valid = self.state.sets.reads.iter().all(|entry| {
                match entry.obj.successor_ct(Some(me), entry.seq) {
                    Ok(None) => true,
                    Ok(Some(succ_ct)) => succ_ct > self.state.ub,
                    Err(HistoryGap::Pruned) => false,
                }
            });
            if !valid {
                return Err(self.abort(AbortReason::ReadValidation));
            }
            if !me.commit_unreserved() {
                return Err(self.abort(AbortReason::Killed));
            }
            self.attempt.committed(zone);
            return Ok(());
        }
        let ct = self.begin_commit()?;
        // Every read version must still be valid at `ct` (no successor
        // with a smaller commit time).
        let me = self.attempt.rec();
        let valid = self
            .state
            .sets
            .reads
            .iter()
            .all(|entry| entry.obj.validate_read(me, entry.seq, ct));
        if !valid {
            return Err(self.abort(AbortReason::ReadValidation));
        }
        self.publish(zone);
        Ok(())
    }
}
