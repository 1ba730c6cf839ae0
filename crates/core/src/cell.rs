//! The one versioned cell under LSA/Z-STM, CS-STM and S-STM.
//!
//! The paper builds its STMs as deltas on one object protocol: a single
//! *writer reservation* arbitrated by the contention manager (Algorithm 1
//! lines 10–13), tentative values *promoted* to committed versions once
//! the writer's status flips ("updates become visible to other transactions
//! when the update transaction's status changes from active to committed",
//! Section 5.4), and readers validating against a version sequence.
//! [`VersionedCell`] is that protocol, written once; an engine supplies a
//! [`CellProtocol`] — its owner record, its published version payload and
//! its private locked state — and keeps only its paper algorithm.
//!
//! # Publication and the fast read
//!
//! The cell is a [`Guarded`]: the newest committed version is a published
//! pointer that anyone may read lock-free and only the cell lock's holder
//! can replace, beside the reservation and engine state under the lock.
//! That pointer is the version's **one owner**: a promotion *builds* the
//! next version ([`CellProtocol::promote`]), *publishes* it, hands the
//! displaced version — its only count, [`Retired`] in the current epoch — to
//! [`CellProtocol::retire`] (LSA moves it into its history, whose
//! promotions later rebuild pruned versions in place once
//! [`Retired::reclaim`] allows; the default drops it, which frees it or
//! leaves it in the thread's limbo), and stores the word. Under the lock,
//! [`CellGuard::current`](zstm_util::Guard::current) borrows the newest
//! version without a pin or a count, because only `publish(&mut guard)`
//! swaps it.
//!
//! Next to it the cell keeps `meta`, an atomic word `newest committed seq
//! << 1 | writer present`, and `owner`, the [`TxId`] of the reservation's
//! holder (0 for none). All three change only under the lock — version,
//! then owner, then word — so whoever saw a word also sees (at least) its
//! version. [`VersionedCell::read_fast`] is a seqlock read — word, version,
//! word — that succeeds only when the whole window saw no reservation and
//! no promotion; then the published version is what the settled lock would
//! have returned. The reader never owns that version: it copies what it
//! needs out of it — or lends the value to the caller's
//! [`TmTx::read_with`](crate::TmTx::read_with) closure, which runs inside
//! the window — under its attempt's epoch [`Pin`], which keeps a version
//! a promotion displaces inside the window from being rewritten or freed
//! until the reader's thread catches its pin up or unpins — the publication
//! itself never waits (the reader then finds the writer bit or the new word
//! and reports `Raced`).
//! The one tolerated A-B-A is a reservation taken and dropped *aborted*
//! inside the window: it never changes committed state. Everything else
//! falls back to [`VersionedCell::lock_settled`], which every contended
//! access takes.
//!
//! [`VersionedCell::is_still_newest_for`] answers a committer's "no
//! successor, and no writer pending but me" from the two words alone — the
//! argument is at the function; [`VersionedCell::is_still_newest`] is the
//! form left for a caller that is still `Active`.
//!
//! # Who may spin on whom
//!
//! `lock_settled` cleans dead reservations, promotes committed ones, and leaves
//! `Active` ones to the caller. A foreign writer in its commit protocol
//! (`Committing`, no longer killable) is waited out **only if the caller's
//! wait rule says so** — the rule is an argument because it is the whole
//! deadlock-freedom argument:
//!
//! | engine · path | waits on a foreign `Committing` writer when | why no cycle |
//! |---|---|---|
//! | LSA/Z, CS, S · read, reserve, Z long open | always ([`always`]) | the waiter is `Active`; a committing transaction never waits on an active one |
//! | LSA/Z · commit validation | its `commit_ct` is unset or `< my_ct` | scalar stamps are totally ordered |
//! | CS · commit validation | its published stamp ≺ mine (or is not published yet) | ≺ is a strict partial order |
//! | S · commit validation (CS's `successor`, which also names the rw-edge's writer) | as CS (S-STM publishes its stamp before `begin_commit`, and the final stamp only grows); any other `Committing` reservation counts as no successor yet | as CS; the rw edge me→W is added by W itself, whose `overwritten` drains the reader list that already holds me |
//!
//! One wait is outside the table: an LSA/Z promotion that rebuilds a pruned
//! version in place waits, under the cell lock, for the threads pinned
//! before that version's retirement
//! ([`Retired::reclaim_patiently`]). It closes no cycle: the threads it
//! waits for catch their pins up at their next read or backoff round,
//! wait on this cell's lock unpinned, or end their attempt, and past some
//! 20 ms it gives up and allocates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use zstm_util::{Backoff, Guard, Guarded, Pin, Retired, Strong};

use crate::{
    Abort, AbortReason, CmPolicy, EventSink, ObjId, Resolution, TxEventKind, TxId, TxShared,
    TxStatus, VersionSeq, WriteEntry,
};

/// Bit of the `meta` word set while a writer reservation exists (active,
/// committing, committed-but-unpromoted, or dead).
const WRITER_BIT: u64 = 1;

/// A transaction record that can own a reservation: the plain descriptor,
/// or an engine's wrapper around it (CS/S-STM add the vector stamp).
pub trait TxRecord: Send + Sync + 'static {
    /// The descriptor whose status word decides the reservation's fate.
    fn tx(&self) -> &TxShared;
}

impl TxRecord for TxShared {
    #[inline]
    fn tx(&self) -> &TxShared {
        self
    }
}

/// What an engine plugs into a [`VersionedCell`]. The instance lives in
/// the cell ([`VersionedCell::protocol`]) and holds the engine's per-object
/// lock-free state (Z-STM's zone counter, S-STM's reader slots).
pub trait CellProtocol: Send + Sync + Sized + 'static {
    /// Owner record of a reservation.
    type Rec: TxRecord;
    /// Tentative value held by a reservation.
    type Value: Send;
    /// Published committed version.
    type Version: Send + Sync + 'static;
    /// The engine's private state under the cell lock.
    type State: Send;
    /// Ordering of `meta` loads. Not a knob: S-STM's `SeqCst` is one side
    /// of its Dekker race with reader-slot announcements.
    const META_LOAD: Ordering = Ordering::Acquire;
    /// Ordering of `meta` stores (see [`CellProtocol::META_LOAD`]).
    const META_STORE: Ordering = Ordering::Release;

    /// Dense per-object sequence number of `version` (the initial one is 0).
    fn seq(version: &Self::Version) -> VersionSeq;

    /// Builds the version `writer` (committed) installs over `current`
    /// from its tentative value, with sequence `seq(current) + 1`, and
    /// updates the engine's history in `state`. Runs under the cell lock.
    fn promote(
        &self,
        state: &mut Self::State,
        current: &Self::Version,
        writer: &Self::Rec,
        tentative: Self::Value,
    ) -> Strong<Self::Version>;

    /// Receives the version a promotion just displaced, [`Retired`]: the
    /// cell's own, only count of it, which readers pinned before the
    /// promotion may still look at. Runs under the cell lock. The default
    /// drops it (freed once no such reader is left).
    fn retire(&self, _state: &mut Self::State, _displaced: Retired<Self::Version>) {}
}

/// Wait rule: wait out every foreign committing writer. Only for callers
/// that are themselves still `Active` (first row of the module table).
pub fn always<R>(_: &R) -> bool {
    true
}

/// The part of a [`VersionedCell`] under the cell lock.
pub struct Locked<P: CellProtocol> {
    writer: Option<(Strong<P::Rec>, P::Value)>,
    /// The engine's private state.
    pub state: P::State,
}

/// The held lock of a [`VersionedCell`]: dereferences to [`Locked`], and
/// `current()` is the newest committed version.
pub type CellGuard<'a, P> = Guard<'a, <P as CellProtocol>::Version, Locked<P>>;

impl<P: CellProtocol> Locked<P> {
    /// The owner of the reservation, if one exists.
    pub fn writer(&self) -> Option<&Strong<P::Rec>> {
        self.writer.as_ref().map(|(rec, _)| rec)
    }

    /// `me`'s tentative value, if `me` holds the reservation
    /// (read-your-own-writes).
    pub fn tentative_of(&self, me: &Strong<P::Rec>) -> Option<&P::Value> {
        match &self.writer {
            Some((rec, value)) if Strong::ptr_eq(rec, me) => Some(value),
            _ => None,
        }
    }

    /// Mutable [`Locked::tentative_of`] (a rewrite of an object `me`
    /// already reserved).
    pub fn tentative_mut(&mut self, me: &Strong<P::Rec>) -> Option<&mut P::Value> {
        match &mut self.writer {
            Some((rec, value)) if Strong::ptr_eq(rec, me) => Some(value),
            _ => None,
        }
    }
}

/// Outcome of [`VersionedCell::read_fast`].
pub enum FastRead<R> {
    /// The window was quiescent: this is what the caller extracted from
    /// the newest committed version.
    Hit(R),
    /// Not attempted, or given up before or by the hook: nothing to undo.
    Declined,
    /// The hook ran and the word changed afterwards: the caller undoes
    /// whatever the hook did.
    Raced,
}

/// Outcome of one [`VersionedCell::arbitrate`] round.
pub enum Arbitration {
    /// The opponent was killed and its reservation dropped.
    Won,
    /// The contention manager ruled against the caller, which is aborted.
    Lost(Abort),
    /// Back off and settle again: the policy said wait, or the opponent
    /// reached its commit protocol before it could be killed.
    Wait,
}

/// One transactional object: newest committed version, at most one writer
/// reservation, and the engine's state. See the module docs.
pub struct VersionedCell<P: CellProtocol> {
    id: ObjId,
    sink: Arc<dyn EventSink>,
    /// [`EventSink::enabled`] of `sink`, asked once.
    recording: bool,
    meta: AtomicU64,
    /// Raw [`TxId`] of the reservation's holder, 0 for none.
    owner: AtomicU64,
    inner: Guarded<P::Version, Locked<P>>,
    protocol: P,
}

impl<P: CellProtocol> VersionedCell<P> {
    /// Creates a cell whose initial version (sequence 0) is `initial`.
    pub fn new(
        protocol: P,
        initial: Strong<P::Version>,
        state: P::State,
        sink: Arc<dyn EventSink>,
    ) -> Self {
        debug_assert_eq!(P::seq(&initial), 0);
        Self {
            id: ObjId::fresh(),
            recording: sink.enabled(),
            sink,
            meta: AtomicU64::new(0),
            owner: AtomicU64::new(0),
            inner: Guarded::new(
                initial,
                Locked {
                    writer: None,
                    state,
                },
            ),
            protocol,
        }
    }

    /// This object's id (used in recorded histories).
    pub fn id(&self) -> ObjId {
        self.id
    }

    /// The engine's protocol instance.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Re-derives the owner and the word from the locked state; called
    /// under the lock after every change to the reservation or the
    /// committed version. The owner first: the word's store releases it.
    fn publish_meta(&self, inner: &CellGuard<'_, P>) {
        let (owner, writer) = match inner.writer() {
            Some(rec) => (rec.tx().id().as_u64(), WRITER_BIT),
            None => (0, 0),
        };
        self.owner.store(owner, Ordering::Relaxed);
        self.meta
            .store(P::seq(inner.current()) << 1 | writer, P::META_STORE);
    }

    /// `true` iff a reservation exists (one word load).
    pub fn has_writer(&self) -> bool {
        self.meta.load(P::META_LOAD) & WRITER_BIT != 0
    }

    /// `true` iff no reservation exists and version `seq` is still the
    /// newest: at this instant it has no successor and none is pending.
    /// One caller is left, LSA's successor lookup for a snapshot extension
    /// (and the read-only commit walk): it is still `Active`, and may have
    /// no record at all, so the `Committing` argument of
    /// [`VersionedCell::is_still_newest_for`] does not hold for it — its
    /// own reservation can be killed under it. Every commit-time
    /// validation (LSA/Z, CS, S) asks that form instead.
    pub fn is_still_newest(&self, seq: VersionSeq) -> bool {
        let meta = self.meta.load(P::META_LOAD);
        meta & WRITER_BIT == 0 && meta >> 1 <= seq
    }

    /// [`VersionedCell::is_still_newest`] for a transaction `me` that is
    /// `Committing`: version `seq` has no successor, and the only writer
    /// that may be pending is `me` itself — without taking the lock.
    ///
    /// Why `owner == me` can be trusted here. `me` is read from `owner`
    /// only if `me` installed a reservation in this cell: every store of
    /// the owner derives it from the locked reservation, and the
    /// speculative bit of [`VersionedCell::reserve_quiescent`] stores none.
    /// A reservation leaves the cell when its holder is killed, releases it
    /// (aborting), or has committed and is promoted; a `Committing`
    /// transaction is unkillable and has done none of these, so `me` still
    /// holds it, no foreign writer is pending, and only `me` can install the
    /// next version. `me` installed it from this thread, so this thread's
    /// load of the word is at least that fresh (coherence: no ordering
    /// beyond `Relaxed` is needed to read one's own store), and since the
    /// installation the newest sequence has not moved: `meta >> 1` is the
    /// sequence the lock would show.
    pub fn is_still_newest_for(&self, me: TxId, seq: VersionSeq) -> bool {
        let meta = self.meta.load(P::META_LOAD);
        meta >> 1 <= seq
            && (meta & WRITER_BIT == 0 || self.owner.load(Ordering::Relaxed) == me.as_u64())
    }

    /// Seqlock read of the newest committed version (module docs), under
    /// the caller's attempt's `pin`. `between` runs after the version is
    /// found to match the word and before `extract` copies out of it what
    /// the caller needs — S-STM announces its visible read there, Z-STM's
    /// long open stamps the zone — and may give up by returning `false`.
    /// Both look at the version in place (no reference count is taken), so
    /// neither may settle or publish; the word is sampled again after the
    /// window. Always inlined, as the pinned read under it is
    /// (`zstm_util::arc_cell`, *One inlined window*).
    #[inline(always)]
    pub fn read_fast<R>(
        &self,
        pin: &Pin,
        between: impl FnOnce(&P::Version) -> bool,
        extract: impl FnOnce(&P::Version) -> R,
    ) -> FastRead<R> {
        let before = self.meta.load(P::META_LOAD);
        if before & WRITER_BIT != 0 {
            return FastRead::Declined;
        }
        let extracted = self.inner.read(pin, |published| {
            // The cell may run ahead of a stale word sample.
            (P::seq(published) << 1 == before && between(published)).then(|| extract(published))
        });
        match extracted {
            None => FastRead::Declined,
            Some(_) if self.meta.load(P::META_LOAD) != before => FastRead::Raced,
            Some(extracted) => FastRead::Hit(extracted),
        }
    }

    /// [`VersionedCell::read_fast`] with nothing in between.
    pub fn read_latest_fast<R>(
        &self,
        pin: &Pin,
        extract: impl FnOnce(&P::Version) -> R,
    ) -> Option<R> {
        match self.read_fast(pin, |_| true, extract) {
            FastRead::Hit(extracted) => Some(extracted),
            FastRead::Declined | FastRead::Raced => None,
        }
    }

    /// Plain lock, nothing settled: for diagnostics, and for the owner of
    /// the reservation, who has nobody to settle.
    pub fn lock(&self) -> CellGuard<'_, P> {
        self.inner.lock()
    }

    /// Locks the cell with a *settled* reservation: dead ones are dropped,
    /// committed ones promoted, `me`'s own and `Active` foreign ones left
    /// alone, and a foreign `Committing` one is waited out iff `wait_on`
    /// says so (the module table lists every rule in use).
    pub fn lock_settled(
        &self,
        me: Option<&Strong<P::Rec>>,
        wait_on: impl Fn(&P::Rec) -> bool,
    ) -> CellGuard<'_, P> {
        let mut backoff = Backoff::new();
        loop {
            let mut guard = self.inner.lock();
            let wait = match guard.writer() {
                None => false,
                Some(w) if me.is_some_and(|m| Strong::ptr_eq(m, w)) => false,
                Some(w) => match w.tx().status() {
                    TxStatus::Active => false,
                    TxStatus::Aborted => {
                        guard.writer = None;
                        self.publish_meta(&guard);
                        false
                    }
                    TxStatus::Committed => {
                        self.promote_locked(&mut guard);
                        false
                    }
                    TxStatus::Committing => wait_on(w),
                },
            };
            if !wait {
                return guard;
            }
            drop(guard);
            backoff.spin();
        }
    }

    /// Promotes the committed writer's tentative value to the newest
    /// version — build, publish, retire the displaced one, word — and
    /// emits its `Write` event (here, so lazily promoted reservations are
    /// not lost from recorded histories).
    fn promote_locked(&self, inner: &mut CellGuard<'_, P>) {
        let Some((writer, tentative)) = inner.writer.take() else {
            return;
        };
        debug_assert_eq!(writer.tx().status(), TxStatus::Committed);
        let (current, locked) = inner.split();
        let version = self
            .protocol
            .promote(&mut locked.state, current, &writer, tentative);
        let seq = P::seq(&version);
        debug_assert_eq!(seq, P::seq(current) + 1);
        // The version first, the word second: a reader that saw the new
        // word also sees (at least) the new version.
        let displaced = inner.publish(version);
        self.protocol.retire(&mut inner.state, displaced);
        self.publish_meta(inner);
        if self.recording {
            let obj = self.id;
            writer
                .tx()
                .record(&*self.sink, TxEventKind::Write { obj, version: seq });
        }
    }

    /// Installs `me`'s reservation into the empty slot of a settled cell.
    pub fn install(&self, inner: &mut CellGuard<'_, P>, me: &Strong<P::Rec>, value: P::Value) {
        debug_assert!(inner.writer.is_none());
        inner.writer = Some((Strong::clone(me), value));
        self.publish_meta(inner);
    }

    /// One contention-manager round against the foreign writer of a settled
    /// cell (Algorithm 1 lines 10–13).
    pub fn arbitrate(
        &self,
        inner: &mut CellGuard<'_, P>,
        me: &P::Rec,
        cm: CmPolicy,
        round: u64,
    ) -> Arbitration {
        let opponent = inner.writer().expect("a foreign writer to arbitrate").tx();
        match cm.resolve(me.tx(), opponent, round) {
            Resolution::AbortOther if opponent.try_kill() => {
                inner.writer = None;
                self.publish_meta(inner);
                Arbitration::Won
            }
            Resolution::AbortOther | Resolution::Wait => Arbitration::Wait,
            Resolution::AbortSelf => Arbitration::Lost(me.tx().doom(AbortReason::WriteConflict)),
        }
    }

    /// Acquires (or refreshes) `me`'s reservation with tentative `value`,
    /// arbitrating write/write conflicts through the contention manager,
    /// whose round count starts at `first_round` (Z-STM's long open
    /// saturates it: a policy that would wait escalates instead). `settled`
    /// sees the newest committed version each time the cell is settled
    /// (Algorithm 1 line 8 applies to writes as well) and may veto the
    /// write. Returns `true` iff the reservation is new.
    ///
    /// # Errors
    ///
    /// [`AbortReason::WriteConflict`] if the contention manager rules
    /// against `me`; [`AbortReason::Killed`] if `me` was killed; whatever
    /// `settled` returns.
    pub fn reserve(
        &self,
        me: &Strong<P::Rec>,
        value: P::Value,
        cm: CmPolicy,
        first_round: u64,
        mut settled: impl FnMut(&P::Version) -> Result<(), Abort>,
    ) -> Result<bool, Abort> {
        let mut round = first_round;
        let mut backoff = Backoff::new();
        loop {
            me.tx().check_alive()?;
            let mut guard = self.lock_settled(Some(me), always);
            settled(guard.current())?;
            if let Some(tentative) = guard.tentative_mut(me) {
                *tentative = value;
                return Ok(false);
            }
            if guard.writer.is_some() {
                match self.arbitrate(&mut guard, me, cm, round) {
                    Arbitration::Won => {}
                    Arbitration::Lost(abort) => return Err(abort),
                    Arbitration::Wait => {
                        drop(guard);
                        me.tx().set_waiting(true);
                        backoff.spin();
                        me.tx().set_waiting(false);
                        round = round.saturating_add(1);
                        continue;
                    }
                }
            }
            self.install(&mut guard, me, value);
            return Ok(true);
        }
    }

    /// Optimistic reserve of a quiescent cell (Z-STM's long write open):
    /// one compare-and-swap of the writer bit turns every fast reader
    /// away, `between` runs (the zone stamp), and one plain lock
    /// acquisition installs the reservation after checking that no
    /// locked-path writer or promotion raced in. Returns the sequence of
    /// the version the reservation sits on. On a lost race, when `between`
    /// returned `false`, or when `me` is no longer active, `value` is
    /// handed back and the word is re-derived from the locked state, so it
    /// ends exactly as the locked protocol would leave it.
    pub fn reserve_quiescent(
        &self,
        me: &Strong<P::Rec>,
        value: P::Value,
        between: impl FnOnce() -> bool,
    ) -> Result<VersionSeq, P::Value> {
        let before = self.meta.load(P::META_LOAD);
        if before & WRITER_BIT != 0
            || self
                .meta
                .compare_exchange(before, before | WRITER_BIT, Ordering::SeqCst, P::META_LOAD)
                .is_err()
        {
            return Err(value);
        }
        let proceed = between();
        let mut guard = self.inner.lock();
        let seq = P::seq(guard.current());
        if proceed && guard.writer.is_none() && seq << 1 == before && me.tx().is_active() {
            self.install(&mut guard, me, value);
            return Ok(seq);
        }
        self.publish_meta(&guard);
        Err(value)
    }

    /// Returns `true` if `me` currently holds the reservation.
    pub fn reserved_by(&self, me: &Strong<P::Rec>) -> bool {
        self.has_writer() && self.inner.lock().tentative_of(me).is_some()
    }
}

impl<P: CellProtocol> WriteEntry<P::Rec> for VersionedCell<P> {
    fn release(&self, me: &Strong<P::Rec>) {
        let mut guard = self.inner.lock();
        if guard.tentative_of(me).is_some() {
            guard.writer = None;
            self.publish_meta(&guard);
        }
    }

    /// Eager: the committer calls this right after its status flip so
    /// readers rarely have to promote on their way in.
    fn promote(&self, me: &Strong<P::Rec>) {
        let mut guard = self.inner.lock();
        if guard.tentative_of(me).is_some() && me.tx().is_committed() {
            self.promote_locked(&mut guard);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;

    use super::*;
    use crate::{CmPolicy, NullSink, ThreadId, TxKind};

    /// The smallest protocol: a version is `(seq, value)`; instead of a
    /// history, every displaced version as it was retired.
    struct Plain;

    type Displaced = Vec<Retired<(VersionSeq, i64)>>;

    impl CellProtocol for Plain {
        type Rec = TxShared;
        type Value = i64;
        type Version = (VersionSeq, i64);
        type State = Displaced;

        fn seq(version: &(VersionSeq, i64)) -> VersionSeq {
            version.0
        }

        fn promote(
            &self,
            _: &mut Displaced,
            current: &(VersionSeq, i64),
            _: &TxShared,
            tentative: i64,
        ) -> Strong<(VersionSeq, i64)> {
            Strong::new((current.0 + 1, tentative))
        }

        fn retire(&self, displaced: &mut Displaced, version: Retired<(VersionSeq, i64)>) {
            displaced.push(version);
        }
    }

    /// Reclaims `retired`, waiting out the pins of tests running beside.
    fn reclaimed(mut retired: Retired<(VersionSeq, i64)>) -> Strong<(VersionSeq, i64)> {
        loop {
            match retired.reclaim() {
                Ok(arc) => return arc,
                Err(back) => retired = back,
            }
            std::thread::yield_now();
        }
    }

    fn cell() -> VersionedCell<Plain> {
        VersionedCell::new(Plain, Strong::new((0, 0)), Vec::new(), Arc::new(NullSink))
    }

    fn owner(cell: &VersionedCell<Plain>) -> u64 {
        cell.owner.load(Ordering::Relaxed)
    }

    fn tx() -> Strong<TxShared> {
        Strong::new(TxShared::start(ThreadId::new(0), TxKind::Short, 0))
    }

    fn reserve(
        cell: &VersionedCell<Plain>,
        me: &Strong<TxShared>,
        value: i64,
        cm: CmPolicy,
    ) -> bool {
        cell.reserve(me, value, cm, 0, |_| Ok(())).expect("reserve")
    }

    /// Reserves and drives `me` to `Committing`.
    fn committing(cell: &VersionedCell<Plain>, value: i64) -> Strong<TxShared> {
        let me = tx();
        assert!(reserve(cell, &me, value, CmPolicy::Aggressive));
        assert!(me.begin_commit());
        me
    }

    fn commit(cell: &VersionedCell<Plain>, value: i64) {
        let me = committing(cell, value);
        me.finish_commit();
        cell.promote(&me);
    }

    fn latest(cell: &VersionedCell<Plain>) -> (VersionSeq, i64) {
        *cell.lock_settled(None, always).current()
    }

    /// The fast read of the whole version.
    fn published(cell: &VersionedCell<Plain>) -> Option<(VersionSeq, i64)> {
        cell.read_latest_fast(&zstm_util::pin(), |version| *version)
    }

    #[test]
    fn fast_read_declines_while_reserved() {
        let cell = cell();
        let me = tx();
        assert!(reserve(&cell, &me, 7, CmPolicy::Polite));
        // Writer bit set: the slow path must serve read-your-own-writes.
        assert!(published(&cell).is_none());
        assert!(!cell.is_still_newest(0));
        assert_eq!(
            cell.lock_settled(Some(&me), always).tentative_of(&me),
            Some(&7),
            "own tentative value under the lock"
        );
        assert!(
            !reserve(&cell, &me, 8, CmPolicy::Polite),
            "a rewrite is no new reservation"
        );
        cell.release(&me);
        assert_eq!(published(&cell), Some((0, 0)));
        assert!(cell.is_still_newest(0));
    }

    #[test]
    fn fast_read_notices_a_promotion_inside_its_window() {
        let cell = Arc::new(cell());
        let pin = zstm_util::pin();
        let raced = cell.read_fast(
            &pin,
            |seen| {
                assert_eq!(*seen, (0, 0));
                let writer = committing(&cell, 1);
                writer.finish_commit();
                // The promotion publishes into the cell this window reads,
                // from a thread of its own (a reader's own thread never
                // publishes inside its window). It does not wait for the
                // window; the version it displaces waits for our pin.
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    cell.promote(&writer);
                    let mut guard = cell.lock();
                    let seen = guard.state.pop().expect("retired");
                    let seen = seen.reclaim().expect_err("the reader's pin holds it");
                    guard.state.push(seen);
                })
                .join()
                .expect("promoter panicked");
                true
            },
            |seen| *seen,
        );
        assert!(
            matches!(raced, FastRead::Raced),
            "the second sample must show the writer or its version"
        );
        drop(pin);
        assert_eq!(published(&cell), Some((1, 1)));
        assert!(!cell.is_still_newest(0), "version 0 has a successor now");
        let (mut asked, mut extracted) = (false, false);
        let declined = cell.read_fast(
            &zstm_util::pin(),
            |_| {
                asked = true;
                false
            },
            |_| extracted = true,
        );
        assert!(asked && !extracted && matches!(declined, FastRead::Declined));
    }

    #[test]
    fn reservation_aborted_inside_the_window_is_tolerated() {
        // The one A-B-A the seqlock admits: it never changes committed
        // state, so the read still serves the committed value.
        let cell = cell();
        commit(&cell, 5);
        let hit = cell.read_fast(
            &zstm_util::pin(),
            |_| {
                let doomed = tx();
                assert!(reserve(&cell, &doomed, 6, CmPolicy::Polite));
                doomed.abort();
                cell.release(&doomed);
                true
            },
            |seen| *seen,
        );
        assert!(matches!(hit, FastRead::Hit((1, 5))));
    }

    #[test]
    fn version_is_published_before_the_word() {
        // Whoever saw a word must find at least that version in the cell,
        // at every instant of a run of commits.
        let cell = Arc::new(cell());
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let (cell, stop) = (Arc::clone(&cell), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut last = 0;
                while !stop.load(Ordering::Relaxed) {
                    let word = cell.meta.load(Ordering::Acquire);
                    let (seq, value) = *cell.inner.load();
                    assert!(seq >= word >> 1, "word {word} ahead of version {seq}");
                    assert_eq!(value, seq as i64, "value matches its version");
                    assert!(seq >= last, "versions went backwards");
                    last = seq;
                }
            })
        };
        for i in 1..=300 {
            commit(&cell, i);
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().expect("reader panicked");
        assert_eq!(latest(&cell), (300, 300));
    }

    #[test]
    fn every_version_has_one_owner() {
        // The published pointer owns the newest version and `retire`
        // receives the displaced one's only count, commit after commit,
        // whether the committer or the next settler promotes: reclaimed,
        // each is the last count of its version.
        let cell = cell();
        for i in 1..=6 {
            if i % 2 == 0 {
                commit(&cell, i);
            } else {
                committing(&cell, i).finish_commit();
                assert_eq!(latest(&cell), (i as u64, i));
            }
            let published = cell.inner.load();
            assert_eq!(*published, (i as u64, i));
            assert_eq!(Strong::count(&published), 2, "the cell's and ours");
        }
        let displaced = std::mem::take(&mut cell.lock().state);
        let counts: Vec<_> = displaced
            .into_iter()
            .map(|version| Strong::count(&reclaimed(version)))
            .collect();
        assert_eq!(counts, [1; 6], "each displaced version's count");
    }

    #[test]
    fn a_committer_knows_its_own_reservation_without_the_lock() {
        zstm_util::run_with_deadline(
            "own reservation under a held lock [cell]",
            std::time::Duration::from_secs(30),
            || {
                let cell = cell();
                commit(&cell, 1);
                let me = committing(&cell, 2);
                let stranger = tx();
                // Nobody can answer through the lock now.
                let guard = cell.lock();
                assert!(cell.is_still_newest_for(me.id(), 1));
                assert!(
                    cell.is_still_newest_for(me.id(), 2),
                    "its own write, read back"
                );
                assert!(
                    !cell.is_still_newest_for(me.id(), 0),
                    "version 0 was overwritten"
                );
                assert!(
                    !cell.is_still_newest_for(stranger.id(), 1),
                    "a foreign writer"
                );
                assert!(!cell.is_still_newest(1));
                drop(guard);
                me.finish_commit();
                cell.promote(&me);
                assert!(
                    cell.is_still_newest_for(stranger.id(), 2),
                    "no writer at all"
                );
                assert!(
                    !cell.is_still_newest_for(me.id(), 1),
                    "promoted: a successor"
                );
            },
        );
    }

    #[test]
    fn the_owner_word_names_the_reservation_holder_and_nobody_else() {
        let cell = cell();
        assert_eq!(owner(&cell), 0);
        let first = tx();
        assert!(reserve(&cell, &first, 1, CmPolicy::Aggressive));
        assert_eq!(owner(&cell), first.id().as_u64());
        cell.release(&first);
        assert_eq!(owner(&cell), 0, "released");
        // Killed in `arbitrate`: the slot is empty until the winner installs.
        assert!(reserve(&cell, &first, 1, CmPolicy::Aggressive));
        {
            let mut guard = cell.lock_settled(None, always);
            let round = cell.arbitrate(&mut guard, &tx(), CmPolicy::Aggressive, 0);
            assert!(matches!(round, Arbitration::Won));
        }
        assert_eq!(owner(&cell), 0, "killed");
        commit(&cell, 2);
        assert_eq!(owner(&cell), 0, "promoted");
        // The speculative writer bit is nobody's: while the hook of a
        // quiescent reserve runs, the bit is set and the word is not.
        let me = tx();
        let refused = cell.reserve_quiescent(&me, 3, || {
            assert!(cell.has_writer());
            assert_eq!(owner(&cell), 0);
            assert!(!cell.is_still_newest_for(me.id(), 1));
            false
        });
        assert_eq!(refused, Err(3));
        assert_eq!(owner(&cell), 0, "refused");
        assert_eq!(cell.reserve_quiescent(&me, 3, || true), Ok(1));
        assert_eq!(owner(&cell), me.id().as_u64());
    }

    #[test]
    fn settle_drops_dead_reservations_and_promotes_committed_ones() {
        let cell = cell();
        let dead = tx();
        assert!(reserve(&cell, &dead, 1, CmPolicy::Polite));
        dead.abort();
        assert!(cell.has_writer(), "cleaned lazily, not by the abort");
        assert_eq!(latest(&cell), (0, 0));
        assert!(!cell.has_writer());
        // No eager promotion: whoever settles next promotes.
        let done = committing(&cell, 9);
        done.finish_commit();
        assert_eq!(latest(&cell), (1, 9));
        assert!(!cell.reserved_by(&done));
        cell.promote(&done); // nothing left to promote
        assert_eq!(latest(&cell), (1, 9));
    }

    #[test]
    fn a_committing_writer_cannot_be_killed_and_is_waited_out_only_by_rule() {
        let cell = Arc::new(cell());
        let writer = committing(&cell, 5);
        {
            let mut guard = cell.lock_settled(None, |_| false);
            assert!(guard.writer().is_some(), "left in place like an active one");
            assert_eq!(*guard.current(), (0, 0));
            // Wait: even `AbortOther` loses to the commit protocol.
            let round = cell.arbitrate(&mut guard, &tx(), CmPolicy::Aggressive, 0);
            assert!(matches!(round, Arbitration::Wait), "try_kill must lose");
            assert_eq!(writer.status(), TxStatus::Committing);
        }
        let (seen, result) = mpsc::channel();
        let reader = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                let asked = AtomicBool::new(false);
                let value = *cell
                    .lock_settled(None, |_| {
                        if !asked.swap(true, Ordering::Relaxed) {
                            seen.send(()).expect("main waits");
                        }
                        true
                    })
                    .current();
                value
            })
        };
        // The reader has met the committing writer and is waiting on it.
        result.recv().expect("reader reached the rule");
        writer.finish_commit();
        assert_eq!(reader.join().expect("reader panicked"), (1, 5));
    }

    #[test]
    fn contention_manager_decides_write_write_conflicts() {
        let cell = cell();
        let first = tx();
        assert!(reserve(&cell, &first, 1, CmPolicy::Aggressive));
        // AbortOther: the attacker kills the owner and takes the slot.
        let second = tx();
        assert!(reserve(&cell, &second, 2, CmPolicy::Aggressive));
        assert_eq!(first.status(), TxStatus::Aborted);
        assert!(cell.reserved_by(&second) && !cell.reserved_by(&first));
        // AbortSelf: the attacker is aborted, the owner keeps the slot.
        let third = tx();
        let suicide = CmPolicy::Suicide;
        let err = cell
            .reserve(&third, 3, suicide, 0, |_| Ok(()))
            .expect_err("suicide loses");
        assert_eq!(err.reason(), AbortReason::WriteConflict);
        assert_eq!(third.status(), TxStatus::Aborted);
        assert!(cell.reserved_by(&second));
        // A killed transaction cannot reserve, and the hook can veto.
        let err = cell
            .reserve(&first, 4, suicide, 0, |_| Ok(()))
            .expect_err("killed");
        assert_eq!(err.reason(), AbortReason::Killed);
        let fourth = tx();
        let veto = |_: &(VersionSeq, i64)| Err(Abort::new(AbortReason::Explicit));
        let err = cell
            .reserve(&fourth, 4, suicide, 0, veto)
            .expect_err("vetoed");
        assert_eq!(err.reason(), AbortReason::Explicit);
    }

    #[test]
    fn quiescent_reserve_claims_or_hands_the_value_back() {
        let cell = cell();
        let me = tx();
        assert_eq!(cell.reserve_quiescent(&me, 1, || true), Ok(0));
        assert!(cell.reserved_by(&me));
        // Reserved: the claim declines without running the hook.
        let other = tx();
        assert_eq!(cell.reserve_quiescent(&other, 2, || unreachable!()), Err(2));
        cell.release(&me);
        // Refused by the hook: the speculative bit must not leak.
        assert_eq!(cell.reserve_quiescent(&other, 2, || false), Err(2));
        assert!(!cell.has_writer() && published(&cell).is_some());
        // A promotion between the claim and the lock: fall back.
        let raced = cell.reserve_quiescent(&other, 2, || {
            // (The locked path ignores the speculative bit.)
            let rival = tx();
            assert!(reserve(&cell, &rival, 3, CmPolicy::Polite));
            assert!(rival.begin_commit());
            rival.finish_commit();
            cell.promote(&rival);
            true
        });
        assert_eq!(raced, Err(2));
        assert_eq!(published(&cell), Some((1, 3)));
    }
}
