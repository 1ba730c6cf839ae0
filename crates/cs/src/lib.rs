//! CS-STM — the causally serializable STM of the paper's Algorithm 1,
//! generic over the causal time base (exact vector clocks or plausible REV
//! clocks, Section 4.3).
//!
//! The algorithm is [`CsTx`], one method per step (S-STM, which "works along
//! the same lines", calls the same methods the way Z-STM calls LSA's
//! `Snapshot`, and plugs what Section 4.2 adds to an object in as a
//! [`Tracking`]):
//!
//! * **Start** ([`CsTx::begin`], line 3) — the tentative commit timestamp
//!   `T.ct` starts from the thread's vector clock `VC_p`, the timestamp of
//!   the last transaction it committed;
//! * **Open** ([`CsTx::open_read`], [`CsTx::open_write`], lines 8–13) —
//!   every access joins the accessed version's timestamp into `T.ct`
//!   (element-wise maximum); writes acquire the single writer reservation,
//!   arbitrated by the contention manager; reads are invisible and return
//!   the current committed version (old ones are not kept, footnote 1);
//! * **Validate** ([`CsTx::validate`], lines 20–26) — no version `vᵢ` in the
//!   read set has a successor with `vᵢ₊₁.ct ≺ T.ct`: the transaction
//!   would both causally follow the overwrite (its timestamp dominates
//!   it) and precede it (it read the overwritten version);
//! * **Commit** ([`CsTx::publish`], lines 29–31) — an atomic
//!   get-and-increment on the thread's (possibly shared) clock entry, and
//!   the thread remembers `T.ct` as its new `VC_p`.
//!
//! Because timestamps are only partially ordered, transactions that touch
//! disjoint objects commit *unordered* — this is what lets the long
//! transaction of the paper's Figure 1 commit where a single-clock TBTM
//! must abort it (see `tests/paper_figures.rs` at the workspace root).
//!
//! With a plausible clock (`r < n` entries) some concurrent transactions
//! appear ordered and abort unnecessarily, but correctness is preserved —
//! exactly the accuracy/size trade-off of Section 4.3.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use zstm_clock::RevClock;
//! use zstm_core::{atomically, RetryPolicy, StmConfig, TmFactory, TmThread, TmTx, TxKind};
//! use zstm_cs::CsStm;
//!
//! # fn main() -> Result<(), zstm_core::RetryExhausted> {
//! // Vector clock with one entry per thread:
//! let stm = Arc::new(CsStm::new(StmConfig::new(2), RevClock::vector(2)));
//! let var = stm.new_var(0i64);
//! let mut thread = stm.register_thread();
//! atomically(&mut thread, TxKind::Short, &RetryPolicy::default(), |tx| {
//!     let v = tx.read(&var)?;
//!     tx.write(&var, v + 1)
//! })?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use zstm_clock::{CausalStamp, CausalTimeBase, ClockOrd, RevClock};
use zstm_core::cell::{always, CellProtocol, TxRecord, VersionedCell};
use zstm_core::{
    Abort, AbortReason, Attempt, LastRecord, ObjId, StmConfig, ThreadCtx, TmFactory, TmThread,
    TmTx, TxEventKind, TxId, TxKind, TxSets, TxShared, TxValue, VersionSeq, WriteEntry,
};
use zstm_util::sync::Mutex;
use zstm_util::{Held, Pin, Shared};

/// Transaction record shared through object reservations: the generic
/// descriptor plus the (vector) commit timestamp, which is published just
/// before the transaction enters its commit protocol.
pub struct StampRec<S> {
    shared: TxShared,
    stamp: Mutex<Option<S>>,
}

impl<S: Clone> StampRec<S> {
    /// Wraps a fresh descriptor (used by CS-STM and S-STM).
    pub fn new(shared: TxShared) -> Self {
        Self {
            shared,
            stamp: Mutex::new(None),
        }
    }

    /// The plain transaction descriptor.
    pub fn shared(&self) -> &TxShared {
        &self.shared
    }

    /// The committing/committed timestamp, if already published.
    pub fn stamp(&self) -> Option<S> {
        self.stamp.lock().clone()
    }

    /// Publishes the (tentative or final) commit timestamp so concurrent
    /// validators can compare against it.
    pub fn publish_stamp(&self, stamp: S) {
        *self.stamp.lock() = Some(stamp);
    }
}

impl<S: Send + 'static> TxRecord for StampRec<S> {
    fn tx(&self) -> &TxShared {
        &self.shared
    }
}

/// The commit-time wait rule of CS-STM's and S-STM's validation for a
/// foreign committing writer `w`: wait iff its published stamp precedes
/// `my_ct` — only those can affect the caller's verdict — or is not
/// published yet (a short window). A published stamp that does not
/// precede `my_ct` is ignored: the final stamp only grows, so it cannot
/// precede `my_ct` either. Both parties published before `begin_commit`,
/// and ≺ is a strict partial order, so the wait relation is acyclic.
pub fn stamp_precedes<S: CausalStamp>(my_ct: &S) -> impl Fn(&StampRec<S>) -> bool + '_ {
    move |w| w.stamp().is_none_or(|theirs| theirs.precedes(my_ct))
}

/// Verdict of the validation successor test (Algorithm 1 line 22) given
/// the timestamp of the read version's *direct* successor — timestamps
/// along a version chain strictly increase, so a successor preceding
/// `my_ct` exists iff the direct one does. `my_ct` is the pre-increment
/// tentative timestamp, so a successor the transaction causally follows
/// satisfies `succ.ct ⪯ my_ct` (equality occurs when the successor is the
/// newest stamp joined): only `After`/`Concurrent` successors leave a
/// valid causal serialization. `None` means the successor's timestamp fell
/// out of the bounded history: assume the worst.
pub fn successor_allows<S: CausalStamp>(succ_ct: Option<&S>, my_ct: &S) -> bool {
    succ_ct.is_some_and(|ct| matches!(ct.causal_cmp(my_ct), ClockOrd::After | ClockOrd::Concurrent))
}

/// What an engine tracks per object besides Algorithm 1's stamps. `()` —
/// CS-STM — tracks nothing; S-STM implements Section 4.2's visible reads.
pub trait Tracking<S: CausalStamp>: Send + Sync + Sized + 'static {
    /// Carried by every version besides its stamp.
    type Extra: Copy + Send + Sync + 'static;
    /// Kept under the cell lock about the current version.
    type State: Default + Send;
    /// Orderings of the cell word's loads and stores
    /// ([`CellProtocol::META_LOAD`]).
    const META: (Ordering, Ordering) = (Ordering::Acquire, Ordering::Release);

    /// `me`'s lock-free read of a quiescent object under its attempt's
    /// `pin`: `open` applied to the newest version, or `None` — take the
    /// lock.
    fn read_fast<T: TxValue, R>(
        cell: &Cell<T, S, Self>,
        pin: &Pin,
        _me: &Arc<StampRec<S>>,
        open: impl FnOnce(&Published<T, S, Self::Extra>) -> R,
    ) -> Option<R> {
        cell.read_latest_fast(pin, open)
    }

    /// `me` reads the current version under the settled lock.
    fn on_read(&self, _state: &mut Self::State, _me: &Arc<StampRec<S>>) {}

    /// `writer` (committed) overwrites the current version: what the new
    /// one carries, and `state` reset for it.
    fn on_promote(&self, state: &mut Self::State, writer: &StampRec<S>) -> Self::Extra;

    /// The live readers of the current version, for the owner of the
    /// reservation on it.
    fn readers(&self, _state: &mut Self::State) -> Vec<Arc<StampRec<S>>> {
        Vec::new()
    }
}

impl<S: CausalStamp> Tracking<S> for () {
    type Extra = ();
    type State = ();

    fn on_promote(&self, _: &mut (), _: &StampRec<S>) {}
}

/// The committed version of a variable (old ones are not kept, matching
/// the paper's footnote 1): value, commit timestamp, dense sequence number
/// and what the engine's [`Tracking`] adds.
#[allow(missing_docs)]
pub struct Published<T, S, X> {
    pub value: T,
    pub ct: S,
    pub seq: VersionSeq,
    pub extra: X,
}

/// The cell protocol of the causal pair.
pub struct Causal<T, S, K> {
    /// The engine's lock-free per-object state.
    pub tracking: K,
    max_history: usize,
    types: PhantomData<(T, S)>,
}

/// The protocol's side of the locked cell.
pub struct Kept<S: CausalStamp, K: Tracking<S>> {
    /// Timestamps of recent versions `(seq, ct, extra)`, oldest first, for
    /// the validation successor test; bounded by the STM's `max_versions`.
    history: VecDeque<(VersionSeq, S, K::Extra)>,
    tracked: K::State,
}

impl<T: TxValue, S: CausalStamp, K: Tracking<S>> CellProtocol for Causal<T, S, K> {
    type Rec = StampRec<S>;
    type Value = T;
    type Version = Published<T, S, K::Extra>;
    type State = Kept<S, K>;
    const META_LOAD: Ordering = K::META.0;
    const META_STORE: Ordering = K::META.1;

    fn seq(version: &Self::Version) -> VersionSeq {
        version.seq
    }

    fn promote(
        &self,
        kept: &mut Kept<S, K>,
        current: &Self::Version,
        writer: &StampRec<S>,
        tentative: T,
    ) -> Arc<Self::Version> {
        let overwritten = (current.seq, current.ct.clone(), current.extra);
        kept.history.push_back(overwritten);
        while kept.history.len() > self.max_history {
            kept.history.pop_front();
        }
        let ct = writer.stamp();
        Arc::new(Published {
            value: tentative,
            ct: ct.expect("committed writers have published stamps"),
            seq: current.seq + 1,
            extra: self.tracking.on_promote(&mut kept.tracked, writer),
        })
    }
}

/// The cell of a variable of the causal pair.
pub type Cell<T, S, K> = VersionedCell<Causal<T, S, K>>;

/// A variable as a read-set or write-set entry sees it: type-erased, so
/// heterogeneous sets can hold objects of different value types.
pub trait CausalObject<S, X>: WriteEntry<StampRec<S>> {
    /// What became of version `seq`, which `me` read, as `me`'s commit at
    /// the tentative stamp `my_ct` must see it: `Ok(None)` — nothing yet
    /// (still newest, or only a reservation pending); `Ok(Some(extra))` —
    /// overwritten by a successor the validation admits, which carries
    /// `extra`; `Err(())` — validation fails (line 22): the successor is
    /// `⪯ my_ct`, or its stamp fell out of the bounded history.
    #[allow(clippy::result_unit_err)]
    fn successor(&self, me: &Arc<StampRec<S>>, seq: VersionSeq, my_ct: &S)
        -> Result<Option<X>, ()>;

    /// For an object `me` reserved: `extra` of the version it is about to
    /// overwrite, and that version's live readers.
    fn overwritten(&self, me: &Arc<StampRec<S>>) -> (X, Vec<Arc<StampRec<S>>>);
}

impl<T: TxValue, S: CausalStamp, K: Tracking<S>> CausalObject<S, K::Extra> for Cell<T, S, K> {
    fn successor(
        &self,
        me: &Arc<StampRec<S>>,
        seq: VersionSeq,
        my_ct: &S,
    ) -> Result<Option<K::Extra>, ()> {
        // `seq` still newest and no writer pending but `me`: no successor
        // exists at this instant. The cell's argument for trusting
        // `owner == me` holds on both engines: `me` is `Committing` — it
        // reserved before `begin_commit`, and nobody kills a `Committing`
        // owner — and a reservation of its own is no successor (the rw
        // edge S-STM would chase is the one the writer, `me`, adds itself).
        if self.is_still_newest_for(me.shared.id(), seq) {
            return Ok(None);
        }
        // A foreign committing writer is waited out only if its stamp
        // precedes ours; any other one's reservation is no successor yet.
        let guard = self.lock_settled(Some(me), stamp_precedes(my_ct));
        let current = guard.current();
        if current.seq <= seq {
            return Ok(None);
        }
        let (succ_ct, extra) = if current.seq == seq + 1 {
            (&current.ct, current.extra)
        } else {
            let mut history = guard.state.history.iter();
            let (_, ct, extra) = history.find(|(s, ..)| *s == seq + 1).ok_or(())?;
            (ct, *extra)
        };
        successor_allows(Some(succ_ct), my_ct)
            .then_some(Some(extra))
            .ok_or(())
    }

    fn overwritten(&self, me: &Arc<StampRec<S>>) -> (K::Extra, Vec<Arc<StampRec<S>>>) {
        // `me` holds the reservation: there is nothing to settle.
        debug_assert!(self.reserved_by(me));
        let mut guard = self.lock();
        let readers = self.protocol().tracking.readers(&mut guard.state.tracked);
        (guard.current().extra, readers)
    }
}

/// A transactional variable of the causal pair, over its cell's protocol.
/// Cheap to clone.
pub struct CausalVar<P: CellProtocol> {
    /// The variable's cell.
    pub shared: Shared<VersionedCell<P>>,
}

impl<P: CellProtocol> Clone for CausalVar<P> {
    fn clone(&self) -> Self {
        Self {
            shared: Shared::clone(&self.shared),
        }
    }
}

impl<P: CellProtocol> CausalVar<P> {
    /// The object's id in recorded histories.
    pub fn id(&self) -> ObjId {
        self.shared.id()
    }
}

impl<P: CellProtocol> std::fmt::Debug for CausalVar<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CausalVar").field("id", &self.id()).finish()
    }
}

/// A transactional variable managed by [`CsStm`].
pub type CsVar<T, C> = CausalVar<Causal<T, <C as CausalTimeBase>::Stamp, ()>>;

/// The causally serializable STM (Algorithm 1). See the crate docs.
pub struct CsStm<C: CausalTimeBase = RevClock> {
    config: StmConfig,
    clock: C,
    registered: AtomicUsize,
}

impl<C: CausalTimeBase> CsStm<C> {
    /// Creates a CS-STM over the given causal time base.
    ///
    /// # Panics
    ///
    /// Panics if the clock serves fewer slots than the configured thread
    /// count.
    pub fn new(config: StmConfig, clock: C) -> Self {
        assert!(
            clock.slots() >= config.threads(),
            "clock has {} slots for {} threads",
            clock.slots(),
            config.threads()
        );
        Self {
            config,
            clock,
            registered: AtomicUsize::new(0),
        }
    }

    /// [`CsStm::new`] under the name the scalar-clocked STMs use, so
    /// factories can be built uniformly (e.g. `CsStm::with_clock(config,
    /// ShardedClock::new(n))`, since scalar time bases implement
    /// [`CausalTimeBase`] under the total order of their stamps).
    pub fn with_clock(config: StmConfig, clock: C) -> Self {
        Self::new(config, clock)
    }

    /// The configuration this STM was built with.
    pub fn config(&self) -> &StmConfig {
        &self.config
    }

    /// The underlying causal time base.
    pub fn clock(&self) -> &C {
        &self.clock
    }

    /// A new variable tracked by `tracking`: `value` as version 0, at the
    /// zero stamp.
    pub fn new_causal_var<T: TxValue, K: Tracking<C::Stamp>>(
        &self,
        value: T,
        tracking: K,
        extra: K::Extra,
    ) -> CausalVar<Causal<T, C::Stamp, K>> {
        let protocol = Causal {
            tracking,
            max_history: self.config.max_versions_per_object(),
            types: PhantomData,
        };
        let initial = Arc::new(Published {
            value,
            ct: self.clock.zero(),
            seq: 0,
            extra,
        });
        let kept = Kept {
            history: VecDeque::new(),
            tracked: K::State::default(),
        };
        let sink = Arc::clone(self.config.sink());
        let shared = Shared::new(VersionedCell::new(protocol, initial, kept, sink));
        CausalVar { shared }
    }

    /// Claims the next thread slot: the thread's context and its
    /// Algorithm 1 state.
    pub fn claim_thread<X>(&self) -> (ThreadCtx, CausalState<C::Stamp, X>) {
        let state = CausalState {
            vc: self.clock.zero(),
            ct: self.clock.zero(),
            sets: TxSets::default(),
        };
        (ThreadCtx::claim(&self.registered, &self.config), state)
    }
}

impl CsStm<RevClock> {
    /// Convenience constructor: CS-STM over an exact vector clock with one
    /// entry per configured thread.
    pub fn with_vector_clock(config: StmConfig) -> Self {
        let threads = config.threads();
        Self::new(config, RevClock::vector(threads))
    }

    /// Convenience constructor: CS-STM over a plausible REV clock with `r`
    /// entries shared by the configured threads (Section 4.3).
    pub fn with_plausible_clock(config: StmConfig, r: usize) -> Self {
        let threads = config.threads();
        Self::new(config, RevClock::new(threads, r.min(threads)))
    }
}

impl<C: CausalTimeBase> TmFactory for CsStm<C> {
    type Var<T: TxValue> = CsVar<T, C>;
    type Thread = CsThread<C>;

    fn new_var<T: TxValue>(&self, init: T) -> CsVar<T, C> {
        self.new_causal_var(init, (), ())
    }

    fn var_id<T: TxValue>(var: &CsVar<T, C>) -> ObjId {
        var.id()
    }

    fn var_handles<T: TxValue>(var: &CsVar<T, C>) -> usize {
        Shared::handles(&var.shared)
    }

    fn register_thread(self: &Arc<Self>) -> CsThread<C> {
        let (ctx, state) = self.claim_thread();
        let stm = Arc::clone(self);
        CsThread {
            stm,
            ctx,
            last: None,
            state,
        }
    }

    fn max_threads(&self) -> Option<usize> {
        Some(self.config.threads())
    }

    fn name(&self) -> &'static str {
        "cs"
    }
}

struct ReadEntry<S, X> {
    obj: Held<dyn CausalObject<S, X>>,
    seq: VersionSeq,
    /// `extra` of the version read.
    extra: X,
}

/// What a thread keeps for its [`CsTx`]s: `VC_p`, and the running
/// attempt's `T.ct` and read and write sets.
pub struct CausalState<S, X> {
    /// `VC_p`: timestamp of the last transaction committed by this thread.
    vc: S,
    /// `T.ct`: the tentative commit timestamp (Algorithm 1 line 3/8).
    ct: S,
    sets: TxSets<ReadEntry<S, X>, Held<dyn CausalObject<S, X>>>,
}

impl<S, X> CausalState<S, X> {
    /// [`TxSets::usage`] of the sets (tests).
    pub fn sets(&self) -> [(usize, usize); 2] {
        self.sets.usage()
    }
}

/// Per-logical-thread context of [`CsStm`].
pub struct CsThread<C: CausalTimeBase> {
    stm: Arc<CsStm<C>>,
    ctx: ThreadCtx,
    /// The record of the thread's last attempt, for the next to reuse.
    last: LastRecord<StampRec<C::Stamp>>,
    state: CausalState<C::Stamp, ()>,
}

impl<C: CausalTimeBase> CsThread<C> {
    /// The thread's current vector clock `VC_p` (diagnostics, tests).
    pub fn vc(&self) -> &C::Stamp {
        &self.state.vc
    }
}

impl<C: CausalTimeBase> TmThread for CsThread<C> {
    type Factory = CsStm<C>;
    type Tx<'a> = CsTx<'a, C>;

    fn begin(&mut self, kind: TxKind) -> CsTx<'_, C> {
        CsTx::begin(
            &mut self.ctx,
            &mut self.last,
            &mut self.state,
            &self.stm,
            kind,
        )
    }

    fn ctx(&self) -> &ThreadCtx {
        &self.ctx
    }

    fn ctx_mut(&mut self) -> &mut ThreadCtx {
        &mut self.ctx
    }
}

/// One attempt of Algorithm 1 — as it is, an active CS-STM transaction —
/// over objects whose versions carry `X`.
pub struct CsTx<'a, C: CausalTimeBase, X: Copy + Send + Sync + 'static = ()> {
    /// Descriptor, access prologues, events.
    pub attempt: Attempt<'a, StampRec<C::Stamp>>,
    state: &'a mut CausalState<C::Stamp, X>,
    stm: &'a CsStm<C>,
}

/// However the transaction ends — dropped raw (a panic unwinding through
/// the body) it gives up its reservations and aborts first — the sets it
/// filled go back to the thread empty.
impl<C: CausalTimeBase, X: Copy + Send + Sync> Drop for CsTx<'_, C, X> {
    fn drop(&mut self) {
        if self.attempt.is_open() {
            self.abort(AbortReason::Explicit);
        }
        self.state.sets.give_back();
    }
}

impl<'a, C: CausalTimeBase, X: Copy + Send + Sync> CsTx<'a, C, X> {
    /// Starts an attempt: `T.ct ← VC_p` (line 3). Its record goes into the
    /// allocation of the thread's `last` one when it can.
    pub fn begin(
        ctx: &'a mut ThreadCtx,
        last: &'a mut LastRecord<StampRec<C::Stamp>>,
        state: &'a mut CausalState<C::Stamp, X>,
        stm: &'a CsStm<C>,
        kind: TxKind,
    ) -> Self {
        let attempt = Attempt::start(ctx, last, kind, StampRec::new);
        state.ct.clone_from(&state.vc);
        Self {
            attempt,
            state,
            stm,
        }
    }

    /// Line 8: `T.ct ← max(T.ct, ct)`.
    pub fn join(&mut self, ct: &C::Stamp) {
        self.state.ct.join(ct);
    }

    /// The write set.
    pub fn writes(&self) -> &[Held<dyn CausalObject<C::Stamp, X>>] {
        &self.state.sets.writes
    }

    /// `Open` in read mode: joins the version's stamp (line 8), lends its
    /// value to `f` (`TmTx::read_with`) and enters it into the read set;
    /// the caller's own tentative value is served from its reservation.
    /// Fails only as [`AbortReason::Killed`].
    pub fn open_read<T: TxValue, K: Tracking<C::Stamp, Extra = X>, R>(
        &mut self,
        var: &CausalVar<Causal<T, C::Stamp, K>>,
        mut f: impl FnMut(&T) -> R,
    ) -> Result<R, Abort> {
        self.attempt.on_read()?;
        let me = self.attempt.rec();
        let ct = &mut self.state.ct;
        // A quiescent object needs no lock. A reservation held by this
        // transaction keeps the writer bit set, so read-your-own-write
        // always reaches the settled path. (A fast read that races has
        // joined the stamp of a version the settled path then finds again
        // or finds overwritten; stamps grow along an object's versions, so
        // the second join covers the first.)
        let fast = K::read_fast(&var.shared, self.attempt.pin(), me, |version| {
            ct.join(&version.ct);
            (version.seq, version.extra, f(&version.value))
        });
        let (seq, extra, value) = match fast {
            Some(opened) => opened,
            None => {
                // Cloned under the lock, lent after it.
                let (seq, extra, value) = {
                    let mut guard = var.shared.lock_settled(Some(me), always);
                    if let Some(own) = guard.tentative_of(me) {
                        let own = own.clone();
                        drop(guard);
                        return Ok(f(&own));
                    }
                    let tracking = &var.shared.protocol().tracking;
                    tracking.on_read(&mut guard.state.tracked, me);
                    let current = guard.current();
                    ct.join(&current.ct);
                    (current.seq, current.extra, current.value.clone())
                };
                (seq, extra, f(&value))
            }
        };
        let obj = Held::new(&var.shared, self.attempt.pin()).map(|cell| cell as _);
        self.state.sets.reads.push(ReadEntry { obj, seq, extra });
        self.attempt.record(TxEventKind::Read {
            obj: var.id(),
            version: seq,
        });
        Ok(value)
    }

    /// `Open` in write mode: acquires (or refreshes) the single writer
    /// reservation, arbitrated by the contention manager (lines 10–13).
    /// Line 8 applies to writes as well: the current version is joined.
    /// Fails as [`VersionedCell::reserve`] does.
    pub fn open_write<T: TxValue, K: Tracking<C::Stamp, Extra = X>>(
        &mut self,
        var: &CausalVar<Causal<T, C::Stamp, K>>,
        value: T,
    ) -> Result<(), Abort> {
        self.attempt.on_write()?;
        let ct = &mut self.state.ct;
        let join = |current: &Published<T, C::Stamp, X>| {
            ct.join(&current.ct);
            Ok(())
        };
        let me = self.attempt.rec();
        if var
            .shared
            .reserve(me, value, self.stm.config.cm_policy(), 0, join)?
        {
            let obj = Held::new(&var.shared, self.attempt.pin()).map(|cell| cell as _);
            self.state.sets.writes.push(obj);
        }
        Ok(())
    }

    /// Rolls the attempt back: reservations released, abort counted.
    pub fn abort(&mut self, reason: AbortReason) -> Abort {
        self.attempt.release_all(&self.state.sets.writes);
        self.attempt.aborted(reason)
    }

    /// First half of a commit. Publishes the pre-increment timestamp so
    /// concurrent validators can compare against it, enters the commit
    /// protocol (or aborts as [`AbortReason::Killed`]) and validates
    /// (lines 20–26): no read version has a successor whose timestamp
    /// precedes `T.ct` (or aborts as [`AbortReason::ReadValidation`]).
    /// `passed` sees every read that holds: the `extra` of the version read
    /// and, if it has been overwritten since, of its direct successor.
    pub fn validate(&mut self, mut passed: impl FnMut(X, Option<X>)) -> Result<(), Abort> {
        let (me, ct) = (self.attempt.rec(), &self.state.ct);
        me.publish_stamp(ct.clone());
        if !me.shared.begin_commit() {
            return Err(self.abort(AbortReason::Killed));
        }
        let valid = self.state.sets.reads.iter().all(|entry| {
            let successor = entry.obj.successor(me, entry.seq, ct);
            successor.map(|s| passed(entry.extra, s)).is_ok()
        });
        if !valid {
            return Err(self.abort(AbortReason::ReadValidation));
        }
        Ok(())
    }

    /// Commit epilogue of a validated attempt. An update transaction
    /// increments its thread's component with a get-and-increment on the
    /// (possibly shared) clock entry and republishes (line 29; read-only
    /// ones need no increment, footnote to line 29); then the status flip
    /// and the eager promotion of the write set — `Write` events are
    /// emitted by the promotion itself, which may also happen lazily on
    /// another thread — and `VC_p ← T.ct` (line 31).
    pub fn publish(&mut self) {
        let CausalState { vc, ct, sets } = &mut *self.state;
        if !sets.writes.is_empty() {
            self.stm.clock.advance(self.attempt.slot(), ct);
            self.attempt.rec().publish_stamp(ct.clone());
        }
        self.attempt.publish(&sets.writes, None);
        std::mem::swap(vc, ct);
    }
}

impl<C: CausalTimeBase> TmTx for CsTx<'_, C> {
    type Factory = CsStm<C>;

    fn read_with<T: TxValue, R>(
        &mut self,
        var: &CsVar<T, C>,
        f: impl FnMut(&T) -> R,
    ) -> Result<R, Abort> {
        self.open_read(var, f)
    }

    fn write<T: TxValue>(&mut self, var: &CsVar<T, C>, value: T) -> Result<(), Abort> {
        self.open_write(var, value)
    }

    fn commit(mut self) -> Result<(), Abort> {
        self.validate(|(), _| {})?;
        self.publish();
        Ok(())
    }

    fn rollback(mut self, reason: AbortReason) {
        self.abort(reason);
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
    use proptest::prelude::*;
    use zstm_clock::{CausalTimeBase, RevStamp};
    use zstm_core::{atomically, CmPolicy, RetryPolicy, ThreadId, TxShared};

    include!("../../../tests/support/attempt_endings.rs");
    include!("../../../tests/support/causal_figures.rs");

    fn vector_stm(threads: usize) -> Arc<CsStm> {
        Arc::new(CsStm::with_vector_clock(StmConfig::new(threads)))
    }

    /// Two stamps of a three-thread vector clock after a random run of
    /// commits (`who` advances its slot, optionally after joining the
    /// other's stamp): ordered, concurrent and equal pairs all occur.
    fn stamp_pair(steps: &[(bool, usize, bool)]) -> (RevStamp, RevStamp) {
        let clock = RevClock::vector(3);
        let (mut a, mut b) = (clock.zero(), clock.zero());
        for &(first, slot, join) in steps {
            let (me, other) = if first { (&mut a, &b) } else { (&mut b, &a) };
            if join {
                me.join(other);
            }
            clock.advance(slot, me);
        }
        (a, b)
    }

    fn committing(stamp: &RevStamp) -> StampRec<RevStamp> {
        let rec = StampRec::new(TxShared::start(ThreadId::new(0), TxKind::Short, 0));
        rec.publish_stamp(stamp.clone());
        assert!(rec.shared().begin_commit());
        rec
    }

    proptest! {
        /// No two committing transactions wait on each other (this is
        /// also S-STM's `validate` rule).
        #[test]
        fn commit_wait_rule_is_acyclic(
            steps in proptest::collection::vec((any::<bool>(), 0usize..3, any::<bool>()), 0..12),
        ) {
            let (ct_a, ct_b) = stamp_pair(&steps);
            let (a, b) = (committing(&ct_a), committing(&ct_b));
            let (a_waits, b_waits) = (stamp_precedes(&ct_a)(&b), stamp_precedes(&ct_b)(&a));
            prop_assert!(!(a_waits && b_waits), "{ct_a:?} and {ct_b:?} wait on each other");
            prop_assert_eq!(a_waits, ct_b.precedes(&ct_a));
        }
    }

    #[test]
    fn a_committer_validates_what_it_reserved_without_the_lock() {
        zstm_util::run_with_deadline(
            "validate under a held lock [cs]",
            std::time::Duration::from_secs(30),
            || {
                let stm = vector_stm(1);
                let var = stm.new_var(0i64);
                let stamp = stm.clock().zero();
                let me = Arc::new(StampRec::new(TxShared::start(
                    ThreadId::new(0),
                    TxKind::Short,
                    0,
                )));
                let cm = CmPolicy::Polite;
                let reserved = var.shared.reserve(&me, 1, cm, 0, |_| Ok(()));
                assert_eq!(reserved.ok(), Some(true));
                me.publish_stamp(stamp.clone());
                assert!(me.shared().begin_commit());
                let _held = var.shared.lock();
                assert_eq!(var.shared.successor(&me, 0, &stamp), Ok(None));
            },
        );
    }

    #[test]
    fn read_and_increment() {
        let stm = vector_stm(1);
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
    fn timestamps_grow_along_commits() {
        let stm = vector_stm(1);
        let var = stm.new_var(0i64);
        let mut thread = stm.register_thread();
        let before = thread.vc().clone();
        atomically(&mut thread, TxKind::Short, &RetryPolicy::default(), |tx| {
            tx.write(&var, 1)
        })
        .expect("commit");
        assert!(before.precedes(thread.vc()));
    }

    #[test]
    fn figure_1_schedule_commits_under_cs() {
        // A single-clock TBTM aborts TL; CS-STM with vector clocks commits
        // all three because T1 ∥ T2.
        figure_1_schedule(&vector_stm(3)).expect("TL commits under causal serializability");
    }

    #[test]
    fn figure_3_left_schedule_aborts() {
        let err = figure_3_left_schedule(&vector_stm(2)).expect_err("T1 precedes and follows T2");
        assert_eq!(err.reason(), AbortReason::ReadValidation);
    }

    #[test]
    fn disjoint_writers_are_concurrent() {
        let stm = vector_stm(2);
        let a = stm.new_var(0i64);
        let b = stm.new_var(0i64);
        let mut p0 = stm.register_thread();
        let mut p1 = stm.register_thread();
        atomically(&mut p0, TxKind::Short, &RetryPolicy::default(), |tx| {
            tx.write(&a, 1)
        })
        .expect("commit");
        atomically(&mut p1, TxKind::Short, &RetryPolicy::default(), |tx| {
            tx.write(&b, 1)
        })
        .expect("commit");
        use zstm_clock::ClockOrd;
        assert_eq!(
            p0.vc().causal_cmp(p1.vc()),
            ClockOrd::Concurrent,
            "disjoint commits must stay unordered under vector time"
        );
    }

    #[test]
    fn plausible_clock_r1_orders_disjoint_writers() {
        let stm = Arc::new(CsStm::with_plausible_clock(StmConfig::new(2), 1));
        let a = stm.new_var(0i64);
        let b = stm.new_var(0i64);
        let mut p0 = stm.register_thread();
        let mut p1 = stm.register_thread();
        atomically(&mut p0, TxKind::Short, &RetryPolicy::default(), |tx| {
            tx.write(&a, 1)
        })
        .expect("commit");
        atomically(&mut p1, TxKind::Short, &RetryPolicy::default(), |tx| {
            tx.write(&b, 1)
        })
        .expect("commit");
        assert!(
            p0.vc().causal_cmp(p1.vc()).is_ordered(),
            "r = 1 degenerates to a single clock: everything is ordered"
        );
    }

    #[test]
    fn figure_1_schedule_aborts_under_plausible_r1() {
        // The schedule that commits under vector clocks aborts with a
        // single shared clock entry: r = 1 totally orders T1 before T2, so
        // TL's read of the pre-T1 versions can no longer be serialized —
        // the "unnecessary abort" cost of plausible clocks (Section 4.3).
        let stm = Arc::new(CsStm::with_plausible_clock(StmConfig::new(3), 1));
        let err = figure_1_schedule(&stm).expect_err("r = 1 falsely orders T1 ≺ T2 ≺ TL");
        assert_eq!(err.reason(), AbortReason::ReadValidation);
    }

    #[test]
    fn sets_go_back_to_the_thread_empty_however_the_transaction_ends() {
        let stm = vector_stm(2);
        let vars: Vec<_> = (0..5_000).map(|_| stm.new_var(0i64)).collect();
        let (mut thread, mut rival) = (stm.register_thread(), stm.register_thread());
        drive_every_ending::<CsStm>(&mut thread, &mut rival, &vars, |ending, thread| {
            assert_sets_idle(ending, thread.state.sets());
        });
    }

    #[test]
    fn concurrent_transfers_conserve_money() {
        let stm = vector_stm(5);
        let accounts: Arc<Vec<CsVar<i64, RevClock>>> =
            Arc::new((0..16).map(|_| stm.new_var(100i64)).collect());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let stm = Arc::clone(&stm);
                let accounts = Arc::clone(&accounts);
                let mut thread = stm.register_thread();
                std::thread::spawn(move || {
                    for i in 0..300u64 {
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
}
