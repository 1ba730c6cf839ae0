//! CS-STM — the causally serializable STM of the paper's Algorithm 1,
//! generic over the causal time base (exact vector clocks or plausible REV
//! clocks, Section 4.3).
//!
//! The algorithm, line for line:
//!
//! * **Start** — the tentative commit timestamp `T.ct` is initialized from
//!   the thread's vector clock `VC_p`, i.e. the timestamp of the last
//!   transaction committed by this thread (line 3);
//! * **Open** — every access joins the accessed version's timestamp into
//!   `T.ct` (element-wise maximum, line 8); writes acquire the single
//!   writer reservation, arbitrated by the contention manager
//!   (lines 10–13); reads are invisible and return the current committed
//!   version (old versions are not kept, matching the paper's footnote 1);
//! * **Validate** — at commit, for every version `vᵢ` in the read set the
//!   transaction checks that no successor `vᵢ₊₁` exists with
//!   `vᵢ₊₁.ct ≺ T.ct` (line 22): such a successor would mean the
//!   transaction both causally follows the overwrite (its timestamp
//!   dominates it) and precedes it (it read the overwritten version);
//! * **Commit** — on success the thread's component of the vector clock is
//!   incremented with an atomic get-and-increment on the (possibly shared)
//!   clock entry and the thread remembers `T.ct` as its new `VC_p`
//!   (lines 29–31).
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
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

use zstm_clock::{CausalStamp, CausalTimeBase, ClockOrd, RevClock};
use zstm_core::cell::{always, CellProtocol, TxRecord, VersionedCell};
use zstm_core::{
    Abort, AbortReason, Attempt, ContentionManager, ObjId, StmConfig, ThreadCtx, TmFactory,
    TmThread, TmTx, TxEventKind, TxId, TxKind, TxShared, TxValue, VersionSeq, WriteEntry,
};
use zstm_util::sync::Mutex;

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

/// The committed version of a [`CsVar`] (old ones are not kept, matching
/// the paper's footnote 1).
struct Published<T, S> {
    value: T,
    ct: S,
    seq: VersionSeq,
}

/// CS-STM's side of the cell: timestamps of recent versions `(seq, ct)`,
/// oldest first, for the validation successor test; bounded by the STM's
/// `max_versions`.
struct Causal<T, S> {
    max_history: usize,
    types: PhantomData<(T, S)>,
}

impl<T: TxValue, S: CausalStamp> CellProtocol for Causal<T, S> {
    type Rec = StampRec<S>;
    type Value = T;
    type Version = Published<T, S>;
    type State = VecDeque<(VersionSeq, S)>;

    fn seq(version: &Published<T, S>) -> VersionSeq {
        version.seq
    }

    fn promote(
        &self,
        ct_history: &mut Self::State,
        current: &Published<T, S>,
        writer: &StampRec<S>,
        tentative: T,
    ) -> Arc<Published<T, S>> {
        ct_history.push_back((current.seq, current.ct.clone()));
        while ct_history.len() > self.max_history {
            ct_history.pop_front();
        }
        Arc::new(Published {
            value: tentative,
            ct: writer
                .stamp()
                .expect("committed writers have published stamps"),
            seq: current.seq + 1,
        })
    }
}

type Cell<T, S> = VersionedCell<Causal<T, S>>;

/// A transactional variable managed by [`CsStm`]. Cheap to clone.
pub struct CsVar<T: TxValue, C: CausalTimeBase> {
    shared: Arc<Cell<T, C::Stamp>>,
}

impl<T: TxValue, C: CausalTimeBase> Clone for CsVar<T, C> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T: TxValue, C: CausalTimeBase> CsVar<T, C> {
    /// The object's id in recorded histories.
    pub fn id(&self) -> ObjId {
        self.shared.id()
    }
}

impl<T: TxValue, C: CausalTimeBase> std::fmt::Debug for CsVar<T, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsVar").field("id", &self.id()).finish()
    }
}

/// The causally serializable STM (Algorithm 1). See the crate docs.
pub struct CsStm<C: CausalTimeBase = RevClock> {
    config: StmConfig,
    clock: C,
    cm: Arc<dyn ContentionManager>,
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
        let cm = config.cm_policy().build();
        Self {
            config,
            clock,
            cm,
            registered: AtomicUsize::new(0),
        }
    }

    /// The configuration this STM was built with.
    pub fn config(&self) -> &StmConfig {
        &self.config
    }

    /// The underlying causal time base.
    pub fn clock(&self) -> &C {
        &self.clock
    }
}

impl<C: CausalTimeBase> CsStm<C> {
    /// Creates a CS-STM over an explicit causal time base — the same
    /// constructor shape as the scalar-clocked STMs, so factories can be
    /// built uniformly (e.g. `CsStm::with_clock(config,
    /// ShardedClock::new(n))`, since scalar time bases implement
    /// [`CausalTimeBase`] under the total order of their stamps).
    ///
    /// # Panics
    ///
    /// Panics if the clock serves fewer slots than the configured threads.
    pub fn with_clock(config: StmConfig, clock: C) -> Self {
        Self::new(config, clock)
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
        let protocol = Causal {
            max_history: self.config.max_versions_per_object(),
            types: PhantomData,
        };
        let initial = Arc::new(Published {
            value: init,
            ct: self.clock.zero(),
            seq: 0,
        });
        let sink = Arc::clone(self.config.sink());
        CsVar {
            shared: Arc::new(VersionedCell::new(protocol, initial, VecDeque::new(), sink)),
        }
    }

    fn register_thread(self: &Arc<Self>) -> CsThread<C> {
        CsThread {
            ctx: ThreadCtx::claim(&self.registered, &self.config),
            stm: Arc::clone(self),
            vc: self.clock.zero(),
        }
    }

    fn max_threads(&self) -> Option<usize> {
        Some(self.config.threads())
    }

    fn name(&self) -> &'static str {
        "cs"
    }
}

/// Per-logical-thread context of [`CsStm`].
pub struct CsThread<C: CausalTimeBase> {
    stm: Arc<CsStm<C>>,
    ctx: ThreadCtx,
    /// `VC_p`: timestamp of the last transaction committed by this thread.
    vc: C::Stamp,
}

impl<C: CausalTimeBase> CsThread<C> {
    /// The thread's current vector clock `VC_p` (diagnostics, tests).
    pub fn vc(&self) -> &C::Stamp {
        &self.vc
    }
}

impl<C: CausalTimeBase> TmThread for CsThread<C> {
    type Factory = CsStm<C>;
    type Tx<'a> = CsTx<'a, C>;

    fn begin(&mut self, kind: TxKind) -> CsTx<'_, C> {
        let ct = self.vc.clone();
        CsTx {
            attempt: Attempt::start(&mut self.ctx, kind, StampRec::new),
            stm: &self.stm,
            vc: &mut self.vc,
            ct,
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }

    fn ctx(&self) -> &ThreadCtx {
        &self.ctx
    }

    fn ctx_mut(&mut self) -> &mut ThreadCtx {
        &mut self.ctx
    }
}

/// Type-erased validation of a read-set entry at commit.
trait CsObject<S>: Send + Sync {
    /// Validation (Algorithm 1 line 22): `true` iff version `seq` has no
    /// successor whose timestamp precedes `my_ct`.
    fn validate(&self, me: &Arc<StampRec<S>>, seq: VersionSeq, my_ct: &S) -> bool;
}

impl<T: TxValue, S: CausalStamp> CsObject<S> for Cell<T, S> {
    fn validate(&self, me: &Arc<StampRec<S>>, seq: VersionSeq, my_ct: &S) -> bool {
        // No pending writer but `me` (we are `Committing`) and `seq` still
        // current: no successor exists at this instant.
        if self.is_still_newest_for(me.shared.id(), seq) {
            return true;
        }
        let guard = self.lock_settled(Some(me), stamp_precedes(my_ct));
        let current = guard.current();
        if current.seq <= seq {
            return true;
        }
        let direct = if current.seq == seq + 1 {
            Some(&current.ct)
        } else {
            let known = guard.state.iter().find(|(s, _)| *s == seq + 1);
            known.map(|(_, ct)| ct)
        };
        successor_allows(direct, my_ct)
    }
}

struct ReadEntry<S> {
    obj: Arc<dyn CsObject<S>>,
    seq: VersionSeq,
}

/// An active CS-STM transaction.
pub struct CsTx<'a, C: CausalTimeBase> {
    attempt: Attempt<'a, StampRec<C::Stamp>>,
    stm: &'a CsStm<C>,
    /// The thread's `VC_p`.
    vc: &'a mut C::Stamp,
    /// `T.ct`: the tentative commit timestamp (Algorithm 1 line 3/8).
    ct: C::Stamp,
    reads: Vec<ReadEntry<C::Stamp>>,
    writes: Vec<Arc<dyn WriteEntry<StampRec<C::Stamp>>>>,
}

/// Dropped without commit or rollback — a panic unwinding through the
/// body — the attempt gives up its reservations before it aborts.
impl<C: CausalTimeBase> Drop for CsTx<'_, C> {
    fn drop(&mut self) {
        if self.attempt.is_open() {
            self.abort(AbortReason::Explicit);
        }
    }
}

impl<C: CausalTimeBase> CsTx<'_, C> {
    fn abort(&mut self, reason: AbortReason) -> Abort {
        self.attempt.release_all(&self.writes);
        self.attempt.aborted(reason)
    }

    /// The current tentative commit timestamp (tests, diagnostics).
    pub fn tentative_ct(&self) -> &C::Stamp {
        &self.ct
    }
}

impl<C: CausalTimeBase> TmTx for CsTx<'_, C> {
    type Factory = CsStm<C>;

    fn read<T: TxValue>(&mut self, var: &CsVar<T, C>) -> Result<T, Abort> {
        self.attempt.on_read()?;
        let me = self.attempt.rec();
        // Line 8: T.ct ← max(T.ct, vi.ct), then the value copied out.
        let ct = &mut self.ct;
        let mut open = |version: &Published<T, C::Stamp>| {
            ct.join(&version.ct);
            (version.seq, version.value.clone())
        };
        // A quiescent object needs no lock. A reservation held by this
        // transaction keeps the writer bit set, so read-your-own-write
        // always reaches the settled path. (A fast read that races has
        // joined the stamp of a version the settled path then finds again
        // or finds overwritten; stamps grow along an object's versions, so
        // the second join covers the first.)
        let (seq, value) = match var.shared.read_latest_fast(&mut open) {
            Some(opened) => opened,
            None => {
                let guard = var.shared.lock_settled(Some(me), always);
                if let Some(own) = guard.tentative_of(me) {
                    return Ok(own.clone());
                }
                open(guard.current())
            }
        };
        self.reads.push(ReadEntry {
            obj: Arc::clone(&var.shared) as Arc<dyn CsObject<C::Stamp>>,
            seq,
        });
        self.attempt.record(TxEventKind::Read {
            obj: var.id(),
            version: seq,
        });
        Ok(value)
    }

    fn write<T: TxValue>(&mut self, var: &CsVar<T, C>, value: T) -> Result<(), Abort> {
        self.attempt.on_write()?;
        let ct = &mut self.ct;
        // Line 8 applies to writes as well: join the current version.
        let join = |current: &Published<T, C::Stamp>| {
            ct.join(&current.ct);
            Ok(())
        };
        let me = self.attempt.rec();
        if var.shared.reserve(me, value, &*self.stm.cm, 0, join)? {
            self.writes.push(Arc::clone(&var.shared) as _);
        }
        Ok(())
    }

    fn commit(mut self) -> Result<(), Abort> {
        let me = self.attempt.rec();
        // Publish the pre-increment timestamp so concurrent validators can
        // compare against it, then enter the commit protocol.
        me.publish_stamp(self.ct.clone());
        if !me.shared.begin_commit() {
            return Err(self.abort(AbortReason::Killed));
        }
        // Validate (Algorithm 1 lines 20–26 / 28).
        let valid = self
            .reads
            .iter()
            .all(|entry| entry.obj.validate(me, entry.seq, &self.ct));
        if !valid {
            return Err(self.abort(AbortReason::ReadValidation));
        }
        if self.writes.is_empty() {
            // Read-only transactions need no timestamp increment (footnote
            // to line 29).
            me.shared.finish_commit();
            self.vc.join(&self.ct);
            self.attempt.committed(None);
            return Ok(());
        }
        // Line 29: increment p's component with a get-and-increment on the
        // (possibly shared) clock entry, republish, and flip.
        self.stm.clock.advance(self.attempt.slot(), &mut self.ct);
        me.publish_stamp(self.ct.clone());
        // The flip and the eager promotion; Write events are emitted by
        // the promotion itself (it may also happen lazily on another
        // thread).
        self.attempt.publish(&self.writes, None);
        // Line 31: VC_p ← T.ct.
        *self.vc = self.ct.clone();
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
    use zstm_clock::RevStamp;
    use zstm_core::{atomically, RetryPolicy, ThreadId};

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
                let reserved = var.shared.reserve(&me, 1, &*stm.cm, 0, |_| Ok(()));
                assert_eq!(reserved.ok(), Some(true));
                me.publish_stamp(stamp.clone());
                assert!(me.shared().begin_commit());
                let _held = var.shared.lock();
                assert!(var.shared.validate(&me, 0, &stamp));
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
        // Paper Figure 1: T1 writes {o1, o2}; T2 writes {o3}; the long TL
        // reads o1, o2 before T1's commit and o3 after T2's commit, then
        // writes o4. A single-clock TBTM aborts TL; CS-STM with vector
        // clocks commits all three because T1 ∥ T2.
        let stm = vector_stm(3);
        let o1 = stm.new_var(0i64);
        let o2 = stm.new_var(0i64);
        let o3 = stm.new_var(0i64);
        let o4 = stm.new_var(0i64);
        let mut p1 = stm.register_thread();
        let mut p2 = stm.register_thread();
        let mut p3 = stm.register_thread();

        // TL starts and reads o1, o2 (pre-update versions).
        let mut tl = p3.begin(TxKind::Long);
        tl.read(&o1).expect("read o1");
        tl.read(&o2).expect("read o2");

        // T1 commits updates to o1, o2 — after TL read them.
        let mut t1 = p1.begin(TxKind::Short);
        t1.write(&o1, 1).expect("w o1");
        t1.write(&o2, 1).expect("w o2");
        t1.commit().expect("T1 commits");

        // T2 commits an update to o3.
        let mut t2 = p2.begin(TxKind::Short);
        t2.write(&o3, 1).expect("w o3");
        t2.commit().expect("T2 commits");

        // TL reads o3 (T2's version) and writes o4: serialization
        // T2 → TL → T1 is causally fine; CS-STM commits TL.
        tl.read(&o3).expect("read o3");
        tl.write(&o4, 1).expect("w o4");
        tl.commit()
            .expect("TL commits under causal serializability");
    }

    #[test]
    fn figure_3_left_schedule_aborts() {
        // Paper Figure 3 (T1's case): T1 reads o3, then T2 (which causally
        // follows T1's... precedes T1's commit) overwrites o3 and commits
        // with a timestamp that precedes T1's commit timestamp because T1
        // later joins a version that causally follows T2. T1 must abort.
        let stm = vector_stm(2);
        let o1 = stm.new_var(0i64);
        let o3 = stm.new_var(0i64);
        let mut p1 = stm.register_thread();
        let mut p2 = stm.register_thread();

        // T1 reads o3 early.
        let mut t1 = p1.begin(TxKind::Short);
        t1.read(&o3).expect("read o3");

        // T2 overwrites o3 and also writes o1, then commits.
        let mut t2 = p2.begin(TxKind::Short);
        t2.write(&o3, 2).expect("w o3");
        t2.write(&o1, 2).expect("w o1");
        t2.commit().expect("T2 commits");

        // T1 now reads o1 — T2's version — so T2.ct ≺ T1.ct, yet T1 read
        // the o3 version T2 overwrote: validation fails.
        t1.read(&o1).expect("read o1");
        t1.write(&o1, 3).expect("w o1");
        let err = t1.commit().expect_err("T1 both precedes and follows T2");
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
        // The same Figure 1 schedule that commits under vector clocks (see
        // figure_1_schedule_commits_under_cs) aborts with a single shared
        // clock entry: r = 1 totally orders T1 before T2, so TL's read of
        // the pre-T1 versions can no longer be serialized — the
        // "unnecessary abort" cost of plausible clocks (Section 4.3).
        let stm = Arc::new(CsStm::with_plausible_clock(StmConfig::new(3), 1));
        let o1 = stm.new_var(0i64);
        let o2 = stm.new_var(0i64);
        let o3 = stm.new_var(0i64);
        let o4 = stm.new_var(0i64);
        let mut p1 = stm.register_thread();
        let mut p2 = stm.register_thread();
        let mut p3 = stm.register_thread();

        let mut tl = p3.begin(TxKind::Long);
        tl.read(&o1).expect("read o1");
        tl.read(&o2).expect("read o2");

        let mut t1 = p1.begin(TxKind::Short);
        t1.write(&o1, 1).expect("w o1");
        t1.write(&o2, 1).expect("w o2");
        t1.commit().expect("T1 commits");

        let mut t2 = p2.begin(TxKind::Short);
        t2.write(&o3, 1).expect("w o3");
        t2.commit().expect("T2 commits");

        tl.read(&o3).expect("read o3");
        tl.write(&o4, 1).expect("w o4");
        let err = tl
            .commit()
            .expect_err("r = 1 falsely orders T1 ≺ T2 ≺ TL and must abort TL");
        assert_eq!(err.reason(), AbortReason::ReadValidation);
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
