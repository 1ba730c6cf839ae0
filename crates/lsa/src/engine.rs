//! The multi-version object underneath LSA-STM and Z-STM.
//!
//! Each transactional variable owns a [`VarCore`]: a
//! [`zstm_core::cell::VersionedCell`] — newest committed version, at most
//! one writer reservation, seqlock fast read, settle-under-lock, all
//! documented there — whose engine state is what LSA and Z-STM add to it: a
//! bounded list of committed versions for snapshot reads (Section 4.1) and
//! the per-object zone counter `o.zc` with the long-transaction opens of
//! Algorithm 2. The cell owns the newest version; the list holds the ones
//! *behind* it, each moved in when a promotion displaces it, so a version
//! has one owner at a time and a variable never overwritten has no list.
//!
//! # A version keeps its value only while it can be read
//!
//! A snapshot read (Section 4.1) needs a version behind the newest only for
//! an attempt that was already running when that version was displaced:
//! one that starts later reads the clock after the displacing commit. So
//! the history keeps a displaced version's *value* only while such an
//! attempt may still run, and *trims* it otherwise — drops the value
//! (`Version::value` becomes `None`) and keeps the allocation. What
//! decides it is the pin slots' outer words (`zstm_util::arc_cell`, *A
//! displaced value's readers*): [`ArcCell::swap`](zstm_util::ArcCell::swap)'s
//! one scan records on the [`Retired`] whether an attempt pinned at or
//! before the displacement — on another thread, or nested on the
//! committing one — was running ([`Retired::is_wanted`]). Each promotion
//! then trims under the cell lock, oldest first, every version that is no
//! longer wanted, once [`Retired::get_mut`] says it is reclaimable and the
//! history's alone, and it stops at the first it must keep; it asks the pin
//! slots again ([`Readers`]) only when the oldest version that has its
//! value was wanted at its retirement, so a write with no reader running
//! costs the one scan the swap made. The versions that keep their values
//! are therefore the newest ones, and every lookup — [`VarCore::read_at`],
//! [`DynObject::successor_ct`], the long open's re-pin — stops at the
//! newest trimmed version as at a pruned one
//! ([`AbortReason::SnapshotUnavailable`], [`HistoryGap::Pruned`]), never
//! reaching an older version past it. With no attempt running, a variable
//! keeps no value behind its newest version; `max_versions` stays the
//! bound. Only values with drop glue are trimmed: a value that owns nothing
//! beyond its version (an `i64`) frees nothing when dropped, and trimming
//! it would cost every write a cache miss on the displaced version's count
//! for no memory.
//!
//! The argument. An attempt pins before it reads the clock for its
//! snapshot. One whose outer word the scan finds after the displacement's
//! epoch, or finds not yet stored, pinned after the displacing swap, so
//! its snapshot is at or after the displacing commit time and a lookup of
//! it never asks for the displaced version; the committing attempt's own
//! pin is its own, and it reads no more of its snapshot. Were that wrong,
//! the price is a snapshot aborted as pruned, not a wrong read: a lookup
//! stops at a trimmed version, and a value is only dropped once no reader
//! that saw it published can still be looking at it.
//!
//! # The history reuses what it prunes
//!
//! The list holds each version as it was [`Retired`] from the published
//! pointer, trimmed or not. Once the list is full — values and trimmed
//! versions together — every promotion prunes its oldest version to make
//! room for the one it displaces, and builds the new version in the pruned
//! one's allocation: a trimmed version at once, one that still has its
//! value once [`Retired::reclaim_patiently`] says no thread pinned before
//! its retirement still is (it waits for the threads in the way to catch
//! their pins up, as the writer of a hazard-pointer scheme waits out its
//! readers), and in both cases only when [`unique_mut`] says the list held
//! its only count (outside tests nothing clones a version; the check keeps
//! the rule safe if something does). So a warm variable promotes without
//! allocating, under concurrent readers too, and warm-up allocates one
//! version per commit until the list holds `max_versions - 1`, as it did
//! before values were trimmed. A thread pinned and not reading for longer
//! than that wait (a transaction body blocked on something else) costs one
//! fresh allocation; the pruned version is freed once it unpins. A reader
//! never sees a rewrite: a version is only rewritten once reclaimed, and a
//! reader that finds it published again reads the new version whole (the
//! republish argument is in `zstm_util::arc_cell`); the fast read's `seq`
//! check then declines it unless it is the version the reader's word
//! names.
//!
//! # The long-write fast reserve
//!
//! Z-STM's `Openlong` in write mode ([`VarCore::reserve_long`]) first
//! tries the cell's `reserve_quiescent`: a compare-and-swap of the writer
//! bit claims an uncontended object against every optimistic path, the
//! zone stamp lands, and one plain lock acquisition installs the
//! reservation — falling back to the full `open_long_settle` arbitration
//! when anything raced.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;

use zstm_core::cell::{always, Arbitration, CellGuard, CellProtocol, FastRead, VersionedCell};
use zstm_core::{
    Abort, AbortReason, CmPolicy, EventSink, ObjId, TxShared, TxValue, VersionSeq, WriteEntry,
};
use zstm_util::{unique_mut, Backoff, Pin, Readers, Retired, Strong};

/// One committed version of an object.
#[derive(Clone, Debug)]
pub struct Version<T> {
    /// The committed value; `None` once the history trimmed it, when no
    /// running attempt could still look the version up (module docs). The
    /// published version always has it.
    pub value: Option<T>,
    /// Commit time of the transaction that installed this version. The
    /// validity of the version is `[ct, succ.ct)` where `succ` is the next
    /// version (Section 4.1).
    pub ct: u64,
    /// Dense per-object sequence number; the initial version is 0.
    pub seq: VersionSeq,
}

/// Why a version-history lookup could not produce an answer.
///
/// Returned by [`DynObject::successor_ct`]; callers treat a gap as "assume the
/// worst" (the snapshot cannot be proven valid past its current time).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HistoryGap {
    /// The requested version's successor fell out of the bounded history
    /// ([`zstm_core::StmConfig::max_versions`] versions are retained per
    /// object), so its commit time is unknown.
    Pruned,
}

impl<T> Version<T> {
    /// This version as a read hit: `f` applied to its value in place.
    #[inline(always)]
    fn hit<R>(&self, is_latest: bool, f: impl FnOnce(&T) -> R) -> ReadHit<R> {
        let value = self.value.as_ref();
        ReadHit {
            value: f(value.expect("a lookup stops at a trimmed version")),
            seq: self.seq,
            ct: self.ct,
            is_latest,
        }
    }
}

impl std::fmt::Display for HistoryGap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistoryGap::Pruned => f.write_str("successor version pruned from bounded history"),
        }
    }
}

impl std::error::Error for HistoryGap {}

/// What LSA/Z-STM keep per object beside the cell: the history bound,
/// Z-STM's zone counter `o.zc` (Algorithm 2 lines 6–7) and its short mark
/// `o.szc` (zero-cost for LSA).
struct MultiVersion<T> {
    /// Versions kept behind the newest: `max_versions - 1`.
    history: usize,
    zc: AtomicU64,
    szc: AtomicU64,
    value: PhantomData<T>,
}

/// The committed versions behind the cell's current one, oldest first,
/// each as it was [`Retired`]; `ct` and `seq` strictly increase and the
/// back is the current version's predecessor. At most `max_versions - 1`
/// are kept.
struct History<T: TxValue> {
    versions: VecDeque<Retired<Version<T>>>,
    /// How many of the newest versions still have their values; the older
    /// ones are trimmed (module docs). Counted, so that a promotion finds
    /// the oldest with a value without looking at the trimmed ones.
    readable: usize,
}

impl<T: TxValue> History<T> {
    /// Takes the oldest version out, to make room.
    fn prune(&mut self) -> Option<Retired<Version<T>>> {
        let pruned = self.versions.pop_front()?;
        self.readable = self.readable.min(self.versions.len());
        Some(pruned)
    }

    /// Drops the values of the versions no running attempt can look up any
    /// more, oldest first, and keeps their allocations for `promote` to
    /// reuse (module docs). Asks the pin slots again only for a version
    /// that was wanted at its retirement, once, and stops at the first
    /// version it must keep, so the versions that keep their values stay
    /// the newest. A value without drop glue is kept: it owns nothing
    /// beyond the version, so dropping it would free nothing.
    fn trim(&mut self) {
        if !std::mem::needs_drop::<T>() {
            return;
        }
        let first = self.versions.len() - self.readable;
        let mut readers = None;
        for version in self.versions.range_mut(first..) {
            if version.is_wanted()
                && version.still_wanted(*readers.get_or_insert_with(Readers::scan))
            {
                return;
            }
            match Retired::get_mut(version) {
                Some(unshared) => unshared.value = None,
                None => return,
            }
            self.readable -= 1;
        }
    }
}

/// Capacity the history is given on the first displaced version.
const MAX_HISTORY_RESERVE: usize = 16;

impl<T: TxValue> CellProtocol for MultiVersion<T> {
    type Rec = TxShared;
    type Value = T;
    type Version = Version<T>;
    type State = History<T>;

    fn seq(version: &Version<T>) -> VersionSeq {
        version.seq
    }

    /// A full history makes room for the version this promotion displaces
    /// by pruning its oldest, and the new version goes into that one's
    /// allocation once it is reclaimable and the history was its only
    /// holder (module docs).
    fn promote(
        &self,
        history: &mut History<T>,
        current: &Version<T>,
        writer: &TxShared,
        tentative: T,
    ) -> Strong<Version<T>> {
        let ct = writer.commit_ct();
        debug_assert!(
            current.ct < ct,
            "commit times must increase along the version list"
        );
        let version = Version {
            value: Some(tentative),
            ct,
            seq: current.seq + 1,
        };
        let full = history.versions.len() == self.history;
        let Some(pruned) = full.then(|| history.prune()).flatten() else {
            return Strong::new(version);
        };
        if let Ok(mut pruned) = pruned.reclaim_patiently() {
            if let Some(unshared) = unique_mut(&mut pruned) {
                *unshared = version;
                return pruned;
            }
        }
        Strong::new(version)
    }

    fn retire(&self, history: &mut History<T>, displaced: Retired<Version<T>>) {
        if self.history == 0 {
            return;
        }
        let versions = &mut history.versions;
        if versions.capacity() == 0 {
            versions.reserve_exact(self.history.min(MAX_HISTORY_RESERVE));
        }
        // `promote` made room: the history takes the version without
        // growing.
        debug_assert!(versions.len() < self.history);
        versions.push_back(displaced);
        history.readable += 1;
        history.trim();
    }
}

/// The retained committed versions of a locked cell that still have their
/// values, newest first: a lookup stops at the newest trimmed version, and
/// never reaches an older one past it.
fn newest_first<'g, T: TxValue>(
    guard: &'g CellGuard<'_, MultiVersion<T>>,
) -> impl Iterator<Item = &'g Version<T>> {
    let behind = guard.state.versions.iter().rev();
    let behind = behind.map(|version| &**version);
    std::iter::once(guard.current())
        .chain(behind)
        .take_while(|version| version.value.is_some())
}

/// Outcome of a versioned read: what the reader made of the chosen
/// version's value, and which version it was.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadHit<R> {
    /// What the reader's closure returned for the chosen version's value.
    pub value: R,
    /// Sequence number of the chosen version.
    pub seq: VersionSeq,
    /// Commit time of the chosen version.
    pub ct: u64,
    /// `true` if the chosen version is the newest committed one.
    pub is_latest: bool,
}

impl<T> ReadHit<T> {
    /// Lends the value a locked path cloned to `f`, once the lock is gone.
    fn lend<R>(self, f: impl FnOnce(&T) -> R) -> ReadHit<R> {
        ReadHit {
            value: f(&self.value),
            seq: self.seq,
            ct: self.ct,
            is_latest: self.is_latest,
        }
    }
}

/// LSA/Z's commit-time wait rule for a foreign committing writer `w`:
/// wait iff its commit time is smaller than `my_ct` (its outcome decides
/// the verdict) or not stored yet (a two-instruction window after
/// `begin_commit`). Writers with larger commit times cannot invalidate a
/// snapshot at `my_ct`; waiting only on smaller ones makes concurrent
/// validations acyclic, so two committing transactions that read each
/// other's write sets cannot deadlock.
fn commits_before(my_ct: u64) -> impl Fn(&TxShared) -> bool {
    move |w| {
        let w_ct = w.commit_ct();
        w_ct == 0 || w_ct < my_ct
    }
}

/// The shared core of one transactional variable.
///
/// `VarCore` keeps a bounded version history for multi-version reads over
/// the cell's single-writer reservation, and carries the per-object zone
/// counter `o.zc` used by Z-STM.
pub struct VarCore<T: TxValue> {
    cell: VersionedCell<MultiVersion<T>>,
}

impl<T: TxValue> VarCore<T> {
    /// Creates a core whose initial version is `init` at time 0, seq 0.
    pub fn new(init: T, max_versions: usize, sink: Arc<dyn EventSink>) -> Self {
        let initial = Strong::new(Version {
            value: Some(init),
            ct: 0,
            seq: 0,
        });
        let history = History {
            versions: VecDeque::new(),
            readable: 0,
        };
        let protocol = MultiVersion {
            history: max_versions.max(1) - 1,
            zc: AtomicU64::new(0),
            szc: AtomicU64::new(0),
            value: PhantomData,
        };
        Self {
            cell: VersionedCell::new(protocol, initial, history, sink),
        }
    }

    /// This object's id (used in recorded histories).
    pub fn id(&self) -> ObjId {
        self.cell.id()
    }

    /// Reads the per-object zone counter `o.zc`.
    pub fn zc(&self) -> u64 {
        self.cell.protocol().zc.load(Ordering::Acquire)
    }

    /// Reads `o.zc` for a short writer that has just reserved the object,
    /// with a read-modify-write that changes nothing. A long open stamps
    /// `o.zc` (an `Acquire` read-modify-write) and then looks at the meta
    /// word without the lock, so the two sides are a store-buffering pair:
    /// reservation word, then `o.zc`, against stamp, then word. A plain
    /// load could read `o.zc` from before the stamp while the word store
    /// is still on its way, the stamper could miss the reservation, and
    /// both would go on. This one is `Release` and heads a release
    /// sequence that every later stamp continues, since every write of
    /// `o.zc` is a read-modify-write: either it reads the stamp, or the
    /// stamper acquires it, and with it the reservation's word store.
    pub fn zc_after_reserve(&self) -> u64 {
        self.cell.protocol().zc.fetch_add(0, Ordering::AcqRel)
    }

    /// Monotonically raises `o.zc` to `zc` (Algorithm 2 line 7). Returns
    /// the previous value.
    pub fn raise_zc(&self, zc: u64) -> u64 {
        self.cell.protocol().zc.fetch_max(zc, Ordering::AcqRel)
    }

    /// Raises the short mark `o.szc` to `zc`, storing only when it changes
    /// so a hot line stays clean, then fences: the mark is ordered before
    /// the caller's look at the writer bit (Z-STM's crate docs).
    pub fn mark_short_open(&self, zc: u64) {
        let szc = &self.cell.protocol().szc;
        if szc.load(Ordering::Relaxed) < zc {
            szc.fetch_max(zc, Ordering::Relaxed);
        }
        fence(Ordering::SeqCst);
    }

    /// `true` if a short transaction of zone `zc` or a later one marked
    /// this object ([`VarCore::mark_short_open`]).
    pub fn short_opened_in(&self, zc: u64) -> bool {
        self.cell.protocol().szc.load(Ordering::Relaxed) >= zc
    }

    /// `me`'s own tentative write as a read result (read-your-own-writes).
    fn own_write(
        guard: &CellGuard<'_, MultiVersion<T>>,
        me: Option<&Strong<TxShared>>,
        ct: u64,
    ) -> Option<ReadHit<T>> {
        let tentative = guard.tentative_of(me?)?;
        Some(ReadHit {
            value: tentative.clone(),
            seq: guard.current().seq + 1,
            ct,
            is_latest: true,
        })
    }

    /// Reads the newest version with `ct <= ub`, lending its value to `f`:
    /// in place, the lock-free way under `pin`, when it can; otherwise a
    /// clone made under the lock, after the lock (`TmTx::read_with`).
    ///
    /// Returns `None` when every retained version is newer than `ub` (the
    /// bounded history has been pruned past the snapshot time).
    pub fn read_at<R>(
        &self,
        pin: &Pin,
        me: Option<&Strong<TxShared>>,
        ub: u64,
        mut f: impl FnMut(&T) -> R,
    ) -> Option<ReadHit<R>> {
        // Fast path: quiescent object whose newest version is inside the
        // snapshot. A reservation held by `me` keeps the writer bit set, so
        // read-your-own-writes always takes the slow path.
        let inside = |v: &Version<T>| (v.ct <= ub).then(|| v.hit(true, &mut f));
        if let Some(hit) = self.cell.read_latest_fast(pin, inside).flatten() {
            return Some(hit);
        }
        self.read_at_locked(me, ub).map(|hit| hit.lend(f))
    }

    /// [`VarCore::read_at`]'s locked path: the chosen value cloned under
    /// the lock — a version of the history is not the pin's to keep once
    /// the lock is gone.
    fn read_at_locked(&self, me: Option<&Strong<TxShared>>, ub: u64) -> Option<ReadHit<T>> {
        let guard = self.cell.lock_settled(me, always);
        if let Some(own) = Self::own_write(&guard, me, ub) {
            return Some(own);
        }
        let newest_seq = guard.current().seq;
        let hit = newest_first(&guard).find(|v| v.ct <= ub);
        hit.map(|v| v.hit(v.seq == newest_seq, T::clone))
    }

    /// Commit time of the direct successor of version `seq` among the
    /// retained versions of the locked cell.
    fn successor_in(
        guard: &CellGuard<'_, MultiVersion<T>>,
        seq: VersionSeq,
    ) -> Result<Option<u64>, HistoryGap> {
        if guard.current().seq <= seq {
            return Ok(None);
        }
        newest_first(guard)
            .find(|v| v.seq == seq + 1)
            .map(|v| Some(v.ct))
            .ok_or(HistoryGap::Pruned)
    }

    /// Acquires (or refreshes) this transaction's writer reservation with
    /// tentative value `value`, arbitrating write/write conflicts through
    /// the contention manager (Algorithm 1 lines 10–13). Returns `true`
    /// iff the reservation is new.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if the contention manager rules against `me`, or
    /// if `me` was killed while waiting.
    pub fn reserve(&self, me: &Strong<TxShared>, value: T, cm: CmPolicy) -> Result<bool, Abort> {
        self.cell.reserve(me, value, cm, 0, |_| Ok(()))
    }

    /// Stamps the zone (Algorithm 2 lines 6–7); aborts `me` if a long
    /// transaction with a higher zone already stamped the object.
    fn stamp_zone(&self, me: &TxShared, zc: u64) -> Result<(), Abort> {
        if self.raise_zc(zc) > zc {
            return Err(me.doom(AbortReason::ZonePassed));
        }
        Ok(())
    }

    /// Atomic long-transaction open in read mode (Algorithm 2 lines 5–18):
    /// raises `o.zc` to `zc` (aborting if passed by a higher zone),
    /// arbitrates any pending writer, and returns the version that was
    /// current at stamp time.
    ///
    /// The paper's `Openlong` executes atomically and always ends with the
    /// long transaction winning the arbitration ("T won", line 10), which
    /// guarantees that no short transaction adopting the freshly stamped
    /// zone can commit *between* the stamp and the read. We reproduce that
    /// with a single lock hold in the common case; when the conflicting
    /// writer is already in its commit protocol (unkillable), we wait it
    /// out and then read exactly the version determined by its outcome —
    /// any later version was installed by a post-stamp transaction that
    /// must serialize after us.
    ///
    /// Contention-manager policies are consulted with a saturated round
    /// count: a policy that would wait instead escalates to aborting the
    /// short opponent, matching the paper's pro-long arbitration at
    /// long-open time.
    ///
    /// # Errors
    ///
    /// [`AbortReason::ZonePassed`] if a long transaction with a higher
    /// zone already stamped the object; [`AbortReason::WriteConflict`] if
    /// the contention manager rules against `me`;
    /// [`AbortReason::SnapshotUnavailable`] if the stamped version was
    /// pruned while waiting; [`AbortReason::Killed`] if `me` was killed.
    ///
    /// The chosen value is lent to `f` as [`VarCore::read_at`] lends it.
    #[inline(always)]
    pub fn open_long_read<R>(
        &self,
        pin: &Pin,
        me: &Strong<TxShared>,
        zc: u64,
        cm: CmPolicy,
        mut f: impl FnMut(&T) -> R,
    ) -> Result<ReadHit<R>, Abort> {
        // Seqlock fast path with the stamp *inside* the validated window:
        // the word and the published version are sampled before the stamp,
        // so a conflict detected at that point leaves the object unstamped
        // and falls through to the locked protocol unchanged. Success means
        // no reservation existed anywhere in the window and the newest
        // version did not change — so there was no writer to arbitrate,
        // and nothing post-stamp slipped in (that would need a reservation
        // bit and a promotion bump, both of which the re-check catches).
        let mut stamped = Ok(());
        let stamp = |_: &Version<T>| {
            stamped = self.stamp_zone(me, zc);
            stamped.is_ok()
        };
        let fast = self
            .cell
            .read_fast(pin, stamp, |published| published.hit(true, &mut f));
        stamped?;
        match fast {
            FastRead::Hit(hit) => return Ok(hit),
            FastRead::Declined => {}
            FastRead::Raced => {
                // The object changed in the instants after the stamp
                // landed. Re-pinning under the lock now could mistake a
                // post-stamp commit for the stamp-time version (post-stamp
                // short transactions of the freshly stamped zone must stay
                // invisible to us), so abort instead of guessing — the
                // retry draws a fresh zone and re-reads.
                return Err(me.doom(AbortReason::SnapshotUnavailable));
            }
        }
        self.open_long_read_locked(me, zc, cm)
            .map(|hit| hit.lend(f))
    }

    /// [`VarCore::open_long_read`] once the fast read declined, out of
    /// line so that the fast path inlines into the caller: one lock hold
    /// covers stamp and read when no conflicting writer is present (the
    /// common case by far), the settle loop the rest.
    #[cold]
    fn open_long_read_locked(
        &self,
        me: &Strong<TxShared>,
        zc: u64,
        cm: CmPolicy,
    ) -> Result<ReadHit<T>, Abort> {
        let pin = {
            let guard = self.cell.lock_settled(Some(me), always);
            self.stamp_zone(me, zc)?;
            if let Some(own) = Self::own_write(&guard, Some(me), u64::MAX) {
                return Ok(own);
            }
            match guard.writer() {
                None => return Ok(guard.current().hit(true, T::clone)),
                // Conflict: remember the stamp-time pin for the slow path
                // (the stamp has already been placed, so anything
                // committing from here on is post-stamp).
                Some(w) => Some((guard.current().seq, Some(Strong::clone(w)))),
            }
        };
        let allowed_seq = self.open_long_settle(me, zc, cm, pin)?;
        let guard = self.cell.lock_settled(Some(me), always);
        if let Some(own) = Self::own_write(&guard, Some(me), u64::MAX) {
            return Ok(own);
        }
        let newest_seq = guard.current().seq;
        let target = allowed_seq.min(newest_seq);
        let hit = newest_first(&guard).find(|v| v.seq == target);
        match hit {
            Some(v) => Ok(v.hit(v.seq == newest_seq, T::clone)),
            None => Err(me.doom(AbortReason::SnapshotUnavailable)),
        }
    }

    /// Atomic long-transaction open in write mode: raises the zone counter
    /// like [`VarCore::open_long_read`] and acquires the writer
    /// reservation. Returns `true` iff the reservation is new.
    ///
    /// The uncontended case is the cell's `reserve_quiescent` with the
    /// zone stamp in between — exactly `open_long_settle` with an empty
    /// pin: the object was quiescent from before the stamp until after the
    /// reservation, so the newest committed version at that instant is the
    /// boundary the long transaction may build on, and post-stamp commits
    /// are impossible once the reservation is installed (single-writer
    /// rule).
    ///
    /// # Errors
    ///
    /// Same as [`VarCore::open_long_read`], plus
    /// [`AbortReason::WriteConflict`] when a post-stamp transaction
    /// committed a newer version before the reservation could be taken
    /// (the long transaction would overwrite a successor that must
    /// serialize after it).
    pub fn reserve_long(
        &self,
        me: &Strong<TxShared>,
        zc: u64,
        value: T,
        cm: CmPolicy,
    ) -> Result<bool, Abort> {
        let mut stamped = Ok(());
        let claimed = self.cell.reserve_quiescent(me, value, || {
            stamped = self.stamp_zone(me, zc);
            stamped.is_ok()
        });
        stamped?;
        let value = match claimed {
            Ok(_) => return Ok(true),
            Err(value) => value,
        };
        let allowed_seq = self.open_long_settle(me, zc, cm, None)?;
        // Saturated rounds: a writer that cannot be killed reached its
        // commit protocol; settling again lets the check below decide.
        self.cell.reserve(me, value, cm, u64::MAX, |newest| {
            if newest.seq > allowed_seq {
                // A post-stamp transaction committed in between: it must
                // serialize after us, so we cannot overwrite its version.
                return Err(me.doom(AbortReason::WriteConflict));
            }
            Ok(())
        })
    }

    /// Shared prefix of the long-open paths: stamps the zone and resolves
    /// any *pre-stamp* writer, returning the highest version sequence the
    /// long transaction is allowed to observe (versions beyond it were
    /// committed by post-stamp transactions that serialize after it).
    ///
    /// The boundary is pinned at the first post-settlement visit — the
    /// stamp moment: `newest_seq` at that instant, plus one if the writer
    /// reservation that existed *at that instant* goes on to commit.
    /// Writers that appear later reserved after the stamp, belong to the
    /// freshly stamped zone, and must serialize after the long
    /// transaction, so they never extend the boundary.
    fn open_long_settle(
        &self,
        me: &Strong<TxShared>,
        zc: u64,
        cm: CmPolicy,
        // (newest version at stamp time, writer present at stamp time)
        mut pin: Option<(VersionSeq, Option<Strong<TxShared>>)>,
    ) -> Result<VersionSeq, Abort> {
        let mut backoff = Backoff::new();
        loop {
            me.check_alive()?;
            let mut guard = self.cell.lock_settled(Some(me), always);
            self.stamp_zone(me, zc)?;
            let (pin_seq, pin_writer) = pin.get_or_insert_with(|| {
                let writer = guard.writer().filter(|w| !Strong::ptr_eq(w, me));
                (guard.current().seq, writer.cloned())
            });
            let boundary =
                *pin_seq + u64::from(pin_writer.as_ref().is_some_and(|w| w.is_committed()));
            match guard.writer() {
                // A post-stamp writer serializes after us and its tentative
                // value is invisible to us — ignore it. The pre-stamp
                // writer (if any) is terminal by now, since its reservation
                // slot has been taken over.
                Some(w) if pin_writer.as_ref().is_some_and(|p| Strong::ptr_eq(p, w)) => {}
                _ => return Ok(boundary),
            }
            // The pre-stamp writer: the paper's Openlong always ends with
            // the long transaction winning, so consult the contention
            // manager with a saturated round count.
            let pin_seq = *pin_seq;
            match self.cell.arbitrate(&mut guard, me, cm, u64::MAX) {
                Arbitration::Won => return Ok(pin_seq),
                Arbitration::Lost(abort) => return Err(abort),
                // Mid-commit (unkillable) or already finished: settling
                // again waits it out, and its outcome fixes the boundary.
                Arbitration::Wait => {
                    drop(guard);
                    backoff.spin();
                }
            }
        }
    }

    /// Arbitrates away a foreign *long* writer reservation without
    /// reserving the object for `me`.
    ///
    /// Z-STM long transactions use **visible writes** and keep no read
    /// set: a short transaction that read the pre-long version of a
    /// long-write-reserved object would serialize *before* the long
    /// transaction, which is inconsistent with the zone order if the same
    /// short also updates objects the long transaction already read
    /// (found by schedule fuzzing; see `z_regression_read_of_long_reserved`
    /// in `tests/corpus/read_of_long_reserved_z.rs`). Short readers therefore wait out — or, per
    /// the contention manager, kill — an active long writer before
    /// reading. Short writers are unaffected: LSA's commit-time
    /// validation orders them correctly.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if the contention manager rules against `me`, or
    /// if `me` was killed while waiting.
    pub fn arbitrate_long_writer(&self, me: &Strong<TxShared>, cm: CmPolicy) -> Result<(), Abort> {
        // Fast path: no reservation at all, hence nothing to arbitrate —
        // the dominant case for short readers on read-mostly workloads.
        if !self.cell.has_writer() {
            return Ok(());
        }
        let mut round = 0u64;
        let mut backoff = Backoff::new();
        loop {
            me.check_alive()?;
            let mut guard = self.cell.lock_settled(Some(me), always);
            match guard.writer() {
                Some(w) if !Strong::ptr_eq(w, me) && w.kind().is_long() => {}
                _ => return Ok(()),
            }
            match self.cell.arbitrate(&mut guard, me, cm, round) {
                Arbitration::Won => return Ok(()),
                Arbitration::Lost(abort) => return Err(abort),
                Arbitration::Wait => {}
            }
            drop(guard);
            me.set_waiting(true);
            backoff.spin();
            me.set_waiting(false);
            round += 1;
        }
    }

    /// Returns `true` if `me` currently holds the writer reservation.
    pub fn reserved_by(&self, me: &Strong<TxShared>) -> bool {
        self.cell.reserved_by(me)
    }

    /// Number of committed versions a lookup can still read, the newest
    /// included (for tests and diagnostics).
    pub fn version_count(&self) -> usize {
        newest_first(&self.cell.lock()).count()
    }

    /// Snapshot of the committed versions a lookup can still read, oldest
    /// first (tests, diagnostics).
    pub fn versions_snapshot(&self) -> Vec<Version<T>> {
        let mut versions: Vec<_> = newest_first(&self.cell.lock()).cloned().collect();
        versions.reverse();
        versions
    }
}

impl<T: TxValue> std::fmt::Debug for VarCore<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.cell.lock();
        f.debug_struct("VarCore")
            .field("id", &self.id())
            .field("zc", &self.zc())
            .field("versions", &newest_first(&inner).count())
            .field("reserved", &inner.writer().is_some())
            .finish()
    }
}

/// What a read-set entry answers about the version it recorded, behind a
/// type-erased view of its [`VarCore`] so heterogeneous read sets can hold
/// objects of different value types (a write-set entry is a [`WriteEntry`]
/// instead: it is only ever released or promoted).
pub trait DynObject: Send + Sync {
    /// Commit time of the successor of version `seq`, if one is known.
    ///
    /// Returns `Ok(None)` when `seq` is still the newest version,
    /// `Ok(Some(ct))` when the direct successor is retained, and
    /// `Err(`[`HistoryGap::Pruned`]`)` when the successor has been pruned
    /// (the caller must assume the worst). The caller is still `Active`.
    fn successor_ct(
        &self,
        me: Option<&Strong<TxShared>>,
        seq: VersionSeq,
    ) -> Result<Option<u64>, HistoryGap>;

    /// Commit-time validation of a read of version `seq` against commit
    /// time `my_ct`: returns `true` iff the version is still valid at
    /// `my_ct` (no successor with `ct <= my_ct` exists or can appear).
    /// Waits by the `commits_before` rule.
    fn validate_read(&self, me: &Strong<TxShared>, seq: VersionSeq, my_ct: u64) -> bool;
}

impl<T: TxValue> DynObject for VarCore<T> {
    fn successor_ct(
        &self,
        me: Option<&Strong<TxShared>>,
        seq: VersionSeq,
    ) -> Result<Option<u64>, HistoryGap> {
        // No pending writer and `seq` (still) newest: no successor exists
        // at this instant — the linearization point of the lookup.
        if self.cell.is_still_newest(seq) {
            return Ok(None);
        }
        Self::successor_in(&self.cell.lock_settled(me, always), seq)
    }

    fn validate_read(&self, me: &Strong<TxShared>, seq: VersionSeq, my_ct: u64) -> bool {
        // No pending writer but `me` (we are `Committing`) and `seq` still
        // newest — nothing can retroactively install a successor with a
        // smaller commit time, because any future committer (`Active`
        // writers included) draws its stamp after ours.
        if self.cell.is_still_newest_for(me.id(), seq) {
            return true;
        }
        let guard = self.cell.lock_settled(Some(me), commits_before(my_ct));
        match Self::successor_in(&guard, seq) {
            Ok(None) => true,
            Ok(Some(succ_ct)) => succ_ct > my_ct,
            // Successor pruned: its commit time is unknown, assume the
            // worst.
            Err(HistoryGap::Pruned) => false,
        }
    }
}

impl<T: TxValue> WriteEntry<TxShared> for VarCore<T> {
    fn release(&self, me: &Strong<TxShared>) {
        self.cell.release(me);
    }

    fn promote(&self, me: &Strong<TxShared>) {
        self.cell.promote(me);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zstm_core::{CmPolicy, NullSink, ThreadId, TxKind, TxStatus};

    include!("../tests/support/pinned_reader.rs");

    fn sink() -> Arc<dyn EventSink> {
        Arc::new(NullSink)
    }

    fn tx() -> Strong<TxShared> {
        Strong::new(TxShared::start(ThreadId::new(0), TxKind::Short, 0))
    }

    fn latest(core: &VarCore<i64>) -> ReadHit<i64> {
        core.read_at(&zstm_util::pin(), None, u64::MAX, i64::clone)
            .expect("the newest version is always retained")
    }

    fn commit_write(core: &VarCore<i64>, value: i64, ct: u64) {
        let me = tx();
        let cm = CmPolicy::Aggressive;
        core.reserve(&me, value, cm).expect("reserve");
        assert!(me.begin_commit());
        me.set_commit_ct(ct);
        me.finish_commit();
        core.promote(&me);
    }

    #[test]
    fn initial_version_is_time_zero() {
        let core = VarCore::new(7i64, 4, sink());
        let hit = latest(&core);
        assert_eq!(hit.value, 7);
        assert_eq!(hit.seq, 0);
        assert_eq!(hit.ct, 0);
        assert!(hit.is_latest);
    }

    #[test]
    fn committed_writes_append_versions() {
        with_a_reader(|| {
            let core = VarCore::new(0i64, 4, sink());
            commit_write(&core, 1, 10);
            commit_write(&core, 2, 20);
            let hit = latest(&core);
            assert_eq!((hit.value, hit.seq, hit.ct), (2, 2, 20));
            assert_eq!(core.version_count(), 3);
        });
    }

    #[test]
    fn read_at_selects_version_valid_at_snapshot_time() {
        with_a_reader(|| {
            let core = VarCore::new(0i64, 4, sink());
            commit_write(&core, 1, 10);
            commit_write(&core, 2, 20);
            let hit = core
                .read_at(&zstm_util::pin(), None, 15, i64::clone)
                .expect("version at 15");
            assert_eq!((hit.value, hit.seq), (1, 1));
            assert!(!hit.is_latest);
            let old = core
                .read_at(&zstm_util::pin(), None, 0, i64::clone)
                .expect("initial version");
            assert_eq!(old.seq, 0);
        });
    }

    #[test]
    fn pruning_bounds_history_and_fails_old_snapshots() {
        with_a_reader(|| {
            let core = VarCore::new(0i64, 2, sink());
            for i in 1..=5 {
                commit_write(&core, i, i as u64 * 10);
            }
            assert_eq!(core.version_count(), 2);
            assert!(
                core.read_at(&zstm_util::pin(), None, 5, i64::clone)
                    .is_none(),
                "time 5 pruned away"
            );
            assert!(core
                .read_at(&zstm_util::pin(), None, 50, i64::clone)
                .is_some());
        });
    }

    #[test]
    fn successor_ct_distinguishes_open_known_and_pruned() {
        with_a_reader(|| {
            let core = VarCore::new(0i64, 2, sink());
            commit_write(&core, 1, 10);
            // seq 1 is newest: open validity.
            assert_eq!(core.successor_ct(None, 1), Ok(None));
            // seq 0's successor is seq 1 at ct 10.
            assert_eq!(core.successor_ct(None, 0), Ok(Some(10)));
            commit_write(&core, 2, 20);
            commit_write(&core, 3, 30);
            // seq 0 and its successor are pruned now.
            assert_eq!(core.successor_ct(None, 0), Err(HistoryGap::Pruned));
        });
    }

    #[test]
    fn history_retains_max_versions_counting_the_newest() {
        with_a_reader(|| {
            for max_versions in [1usize, 2, 4] {
                let core = VarCore::new(0i64, max_versions, sink());
                assert_eq!(core.version_count(), 1);
                assert_eq!(
                    core.cell.lock().state.versions.capacity(),
                    0,
                    "no history yet"
                );
                let mut capacity = None;
                for i in 1..=6u64 {
                    commit_write(&core, i as i64, i * 10);
                    assert_eq!(core.version_count(), max_versions.min(i as usize + 1));
                    // Allocated once, on the first displaced version kept.
                    let now = core.cell.lock().state.versions.capacity();
                    assert_eq!(*capacity.get_or_insert(now), now);
                    assert_eq!(now == 0, max_versions == 1);
                }
                // Oldest first, ending in the newest.
                let seqs: Vec<_> = core.versions_snapshot().iter().map(|v| v.seq).collect();
                let oldest = 7 - max_versions as u64;
                assert_eq!(seqs, (oldest..=6).collect::<Vec<_>>());
                // Every retained version answers at its own time, nothing older.
                for seq in oldest..=6 {
                    let hit = core
                        .read_at(&zstm_util::pin(), None, seq * 10 + 5, i64::clone)
                        .expect("retained");
                    assert_eq!((hit.seq, hit.is_latest), (seq, seq == 6));
                }
                assert!(
                    core.read_at(&zstm_util::pin(), None, oldest * 10 - 1, i64::clone)
                        .is_none(),
                    "pruned"
                );
                // The newest has no successor, it is its predecessor's, and a
                // successor that fell out of the history is a gap.
                assert_eq!(core.successor_ct(None, 6), Ok(None));
                assert_eq!(core.successor_ct(None, 5), Ok(Some(60)));
                for seq in 0..5 {
                    let known = seq + 1 >= oldest;
                    let expected = known.then_some(Some((seq + 1) * 10));
                    assert_eq!(
                        core.successor_ct(None, seq),
                        expected.ok_or(HistoryGap::Pruned)
                    );
                }
            }
        });
    }

    #[test]
    fn a_lookup_stops_at_a_trimmed_version() {
        // Trimming keeps the versions that have their values the newest, so
        // no history holds a trimmed version in front of one with a value;
        // the lookups do not lean on that. With one trimmed by hand in the
        // middle, a snapshot at its time is pruned, and does not fall
        // through to the version before it.
        let core = VarCore::new(0i64, 8, sink());
        with_a_reader(|| (1..=4).for_each(|i| commit_write(&core, i, i as u64 * 10)));
        let trimmed = Version {
            value: None,
            ct: 20,
            seq: 2,
        };
        let cell = zstm_util::ArcCell::new(Strong::new(trimmed.clone()));
        core.cell.lock().state.versions[2] = cell.swap(Strong::new(trimmed));
        let seq_at = |ub| {
            core.read_at(&zstm_util::pin(), None, ub, i64::clone)
                .map(|hit| hit.seq)
        };
        assert_eq!((seq_at(35), seq_at(25), seq_at(15)), (Some(3), None, None));
        assert_eq!(core.successor_ct(None, 2), Ok(Some(30)));
        assert_eq!(core.successor_ct(None, 1), Err(HistoryGap::Pruned));
        assert_eq!(core.version_count(), 2);
    }

    #[test]
    fn a_committer_validates_what_it_reserved_without_the_lock() {
        zstm_util::run_with_deadline(
            "validate_read under a held lock [lsa]",
            std::time::Duration::from_secs(30),
            || {
                let core = VarCore::new(0i64, 4, sink());
                commit_write(&core, 1, 10);
                let me = tx();
                let cm = CmPolicy::Aggressive;
                core.reserve(&me, 2, cm).expect("reserve");
                assert!(me.begin_commit());
                me.set_commit_ct(20);
                {
                    // Read and written by the committer: answered from the
                    // owner word, with the cell's lock held elsewhere.
                    let _held = core.cell.lock();
                    assert!(core.validate_read(&me, 1, 20));
                }
                // A read behind the newest goes the locked way and gets
                // the locked answer: the successor's commit time decides.
                assert!(!core.validate_read(&me, 0, 20));
                // A foreign reservation is not mine: settled under the lock.
                let other = tx();
                assert!(other.begin_commit());
                other.set_commit_ct(5);
                assert!(core.validate_read(&other, 1, 5));
                assert!(core.validate_read(&other, 0, 5), "successor at 10 > 5");
            },
        );
    }

    #[test]
    fn read_your_own_write() {
        let core = VarCore::new(0i64, 4, sink());
        let me = tx();
        let cm = CmPolicy::Polite;
        core.reserve(&me, 42, cm).expect("reserve");
        let hit = core
            .read_at(&zstm_util::pin(), Some(&me), u64::MAX, i64::clone)
            .expect("own write");
        assert_eq!((hit.value, hit.seq), (42, 1));
        let snap = core
            .read_at(&zstm_util::pin(), Some(&me), 0, i64::clone)
            .expect("own write visible");
        assert_eq!(snap.value, 42);
    }

    proptest::proptest! {
        /// No two committing transactions wait on each other: with both
        /// stamps stored (validation starts after `set_commit_ct`), at
        /// most one of them sees the other's as smaller.
        #[test]
        fn commit_wait_rule_is_acyclic(ct_a in 1u64..40, ct_b in 1u64..40) {
            let (a, b) = (tx(), tx());
            a.set_commit_ct(ct_a);
            b.set_commit_ct(ct_b);
            let (a_waits, b_waits) = (commits_before(ct_a)(&b), commits_before(ct_b)(&a));
            proptest::prop_assert!(!(a_waits && b_waits));
            proptest::prop_assert_eq!(a_waits, ct_b < ct_a);
        }
    }

    #[test]
    fn zone_counter_is_monotonic() {
        let core = VarCore::new(0i64, 4, sink());
        assert_eq!(core.zc(), 0);
        assert_eq!(core.raise_zc(5), 0);
        assert_eq!(core.raise_zc(3), 5, "fetch_max keeps the maximum");
        assert_eq!(core.zc(), 5);
    }

    #[test]
    fn the_short_mark_only_rises() {
        let core = VarCore::new(0i64, 4, sink());
        assert!(core.short_opened_in(0) && !core.short_opened_in(1));
        core.mark_short_open(3);
        core.mark_short_open(2);
        assert!(core.short_opened_in(3) && !core.short_opened_in(4));
    }

    #[test]
    fn uncontended_long_reserve_takes_the_fast_path() {
        let core = VarCore::new(0i64, 4, sink());
        commit_write(&core, 1, 10);
        let me = tx();
        let cm = CmPolicy::Polite;
        // Quiescent object: the fast claim installs a new reservation.
        assert!(core.reserve_long(&me, 5, 7, cm).expect("reserve"));
        assert!(core.reserved_by(&me));
        assert!(!core.reserve_long(&me, 5, 7, cm).expect("refresh"));
        assert_eq!(core.zc(), 5, "fast path must stamp the zone");
        // Fast readers decline while the reservation holds.
        assert!(core
            .cell
            .read_latest_fast(&zstm_util::pin(), |_| ())
            .is_none());
        // Commit and check the tentative value landed.
        assert!(me.begin_commit());
        me.set_commit_ct(20);
        me.finish_commit();
        core.promote(&me);
        assert_eq!(latest(&core).value, 7);
    }

    #[test]
    fn contended_long_reserve_falls_back_to_arbitration() {
        let core = VarCore::new(0i64, 4, sink());
        let short = tx();
        let long = tx();
        let aggressive = CmPolicy::Aggressive;
        core.reserve(&short, 1, aggressive).expect("short");
        // The writer bit is set, so the fast claim declines and the settled
        // arbitration kills the short opponent (pro-long policy).
        let new = core
            .reserve_long(&long, 3, 9, aggressive)
            .expect("long wins arbitration");
        assert!(new);
        assert_eq!(short.status(), TxStatus::Aborted);
        assert!(core.reserved_by(&long));
    }

    #[test]
    fn passed_fast_long_reserve_aborts_and_restores_meta() {
        let core = VarCore::new(0i64, 4, sink());
        core.raise_zc(8);
        let me = tx();
        let cm = CmPolicy::Polite;
        let err = core
            .reserve_long(&me, 5, 1, cm)
            .expect_err("zone 5 was passed by zone 8");
        assert_eq!(err.reason(), AbortReason::ZonePassed);
        // The speculative writer bit must not leak: fast reads work again.
        assert!(core
            .cell
            .read_latest_fast(&zstm_util::pin(), |_| ())
            .is_some());
    }
}
