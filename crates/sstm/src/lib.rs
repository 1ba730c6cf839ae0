//! S-STM — the serializable STM of the paper's Section 4.2.
//!
//! S-STM "works along the same lines as CS-STM, with the major following
//! differences":
//!
//! 1. **Visible reads** — a reading transaction atomically inserts itself
//!    into a *reader list* associated with the version it reads;
//! 2. **Precedence tracking** — commit timestamps carry knowledge of the
//!    transactions that were reading the overwritten versions, allowing the
//!    construction of a partial precedence graph of transactions at
//!    runtime. At commit, a transaction makes sure its timestamp dominates
//!    every *committed* reader of the versions it overwrites, and a
//!    conflict is declared "if we detect a cycle, i.e., an active
//!    transaction causally precedes another active transaction and
//!    conversely".
//!
//! The paper omits its implementation details "as they are quite
//! intricate", relying on CAS + helping. This reproduction implements the
//! described design with one documented substitution (`ARCHITECTURE.md`, design notes): the
//! precedence graph is maintained under a global mutex taken only during
//! the short commit step (execution, reads and writes stay concurrent), and
//! instead of helping, readers wait out transactions that are in their
//! commit protocol — the same effect as the paper's "a transaction that
//! cannot progress ... helps that transaction commit", minus the wasted
//! duplicated work.
//!
//! The precedence graph records, for committed and active transactions:
//! * `W → r` when `r` read a version written by `W` (wr edges),
//! * `W₁ → W₂` when `W₂` overwrote a version written by `W₁` (ww edges),
//! * `r → W` when `W` overwrote a version that `r` read (rw
//!   anti-dependency edges — the ones invisible reads cannot see and the
//!   reason CS-STM admits non-serializable schedules like Figure 2).
//!
//! A commit is allowed iff adding its edges leaves the graph acyclic, which
//! is precisely commit-time conflict-serializability certification.
//! Committed nodes are pruned once no live transaction predates them, which
//! bounds the graph by the number of transactions in flight.
//!
//! # The visible fast read
//!
//! Objects are [`zstm_core::cell::VersionedCell`]s; a quiescent one is
//! read without its lock through the cell's seqlock read, with one extra
//! step for the *visible* part, placed between the two samples of the
//! cell's word: **announce the read** by inserting the transaction record
//! into a lock-free [`zstm_util::ArcSlots`] reader slot. An unchanged word
//! then means the whole window was quiescent and the registration is
//! ordered before any future reservation (writers drain the slots into the
//! locked reader list under their own lock, after publishing the writer
//! bit — a Dekker race resolved with sequentially consistent orderings on
//! both sides, which is why this engine's cell word is `SeqCst`).
//!
//! On any interference the reader withdraws its slot (a concurrent drain
//! may have collected it already — that only leaves a spurious rw edge,
//! which is conservative, never an unsound one) and falls back to the
//! locked path.
//!
//! # Who waits during commit
//!
//! The paper does not say what a committing transaction does when it
//! meets another one's reservation on a version it read. `successor`
//! waits only for writers whose published stamp precedes its own
//! ([`zstm_cs::stamp_precedes`]); waiting unconditionally — what this
//! crate did before — deadlocks two committers that each read what the
//! other writes. `DESIGN.md` (deliberate deviations) has the argument.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use zstm_clock::RevClock;
//! use zstm_core::{atomically, RetryPolicy, StmConfig, TmFactory, TmThread, TmTx, TxKind};
//! use zstm_sstm::SStm;
//!
//! # fn main() -> Result<(), zstm_core::RetryExhausted> {
//! let stm = Arc::new(SStm::with_vector_clock(StmConfig::new(2)));
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

use std::collections::{HashMap, HashSet, VecDeque};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use zstm_clock::{CausalStamp, CausalTimeBase, RevClock};
use zstm_core::cell::{always, CellProtocol, FastRead, VersionedCell};
use zstm_core::{
    Abort, AbortReason, Attempt, ContentionManager, ObjId, StmConfig, ThreadCtx, TmFactory,
    TmThread, TmTx, TxEventKind, TxId, TxKind, TxStatus, TxValue, VersionSeq, WriteEntry,
};
use zstm_cs::{stamp_precedes, successor_allows, StampRec};
use zstm_util::sync::Mutex;
use zstm_util::ArcSlots;

// ---------------------------------------------------------------------------
// Precedence graph
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Node {
    succs: HashSet<TxId>,
    committed: bool,
    commit_epoch: u64,
}

/// The partial precedence graph of active and recently committed
/// transactions (Section 4.2).
#[derive(Default)]
struct PrecGraph {
    nodes: HashMap<TxId, Node>,
    /// Start epoch of every live (uncommitted, unaborted) transaction.
    active: HashMap<TxId, u64>,
    epoch: u64,
}

impl PrecGraph {
    fn begin(&mut self, tx: TxId) {
        self.epoch += 1;
        self.active.insert(tx, self.epoch);
        self.nodes.entry(tx).or_default();
    }

    fn abort(&mut self, tx: TxId) {
        self.active.remove(&tx);
        self.nodes.remove(&tx);
        for node in self.nodes.values_mut() {
            node.succs.remove(&tx);
        }
    }

    fn add_edge(&mut self, from: TxId, to: TxId) {
        if from == to {
            return;
        }
        // A missing endpoint is a pruned transaction: everything concurrent
        // with it has finished, so it cannot lie on a new cycle — drop the
        // edge instead of resurrecting the node.
        if !self.nodes.contains_key(&to) {
            return;
        }
        if let Some(node) = self.nodes.get_mut(&from) {
            node.succs.insert(to);
        }
    }

    /// Depth-first search: is `target` reachable from `start`?
    fn reaches(&self, start: TxId, target: TxId) -> bool {
        let mut stack: Vec<TxId> = match self.nodes.get(&start) {
            Some(node) => node.succs.iter().copied().collect(),
            None => return false,
        };
        let mut seen: HashSet<TxId> = stack.iter().copied().collect();
        while let Some(current) = stack.pop() {
            if current == target {
                return true;
            }
            if let Some(node) = self.nodes.get(&current) {
                for &next in &node.succs {
                    if seen.insert(next) {
                        stack.push(next);
                    }
                }
            }
        }
        false
    }

    /// Marks `tx` committed and prunes unreachable history.
    ///
    /// A committed node is prunable only when **both** hold:
    ///
    /// 1. no live transaction began before it committed — so no *new*
    ///    edge into it can ever be added (incoming edges are rw edges
    ///    from readers of versions it overwrote, all of whom were active
    ///    at its commit, or ww/wr edges fixed at commits); and
    /// 2. it has no incoming edge from a remaining node — otherwise a
    ///    future commit could still close a cycle *through* it (a
    ///    committed reader pointing at it while a live transaction later
    ///    reads its still-current version; found by proptest, see
    ///    `s_stm_regression_pruned_node_cycle`).
    ///
    /// Removing a node with in-degree 0 may expose its successors, so
    /// pruning iterates to a fixpoint; along a committed chain this
    /// cascades from the oldest node and keeps the graph bounded by the
    /// transactions in flight.
    fn commit_and_prune(&mut self, tx: TxId) {
        self.active.remove(&tx);
        self.epoch += 1;
        let epoch = self.epoch;
        if let Some(node) = self.nodes.get_mut(&tx) {
            node.committed = true;
            node.commit_epoch = epoch;
        }
        let min_active = self.active.values().copied().min().unwrap_or(u64::MAX);
        loop {
            let mut indegree: HashMap<TxId, usize> = self.nodes.keys().map(|&id| (id, 0)).collect();
            for node in self.nodes.values() {
                for succ in &node.succs {
                    if let Some(count) = indegree.get_mut(succ) {
                        *count += 1;
                    }
                }
            }
            let dead: Vec<TxId> = self
                .nodes
                .iter()
                .filter(|(id, n)| n.committed && n.commit_epoch < min_active && indegree[*id] == 0)
                .map(|(&id, _)| id)
                .collect();
            if dead.is_empty() {
                break;
            }
            for id in &dead {
                self.nodes.remove(id);
            }
        }
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }
}

// ---------------------------------------------------------------------------
// Objects
// ---------------------------------------------------------------------------

/// Number of lock-free visible-reader slots per variable; readers that
/// find every slot busy register under the lock instead.
const READER_SLOTS: usize = 16;

/// The committed version of an [`SVar`].
struct Published<T, S> {
    value: T,
    ct: S,
    seq: VersionSeq,
    /// Transaction that wrote this version (`None` for the initial one).
    writer: Option<TxId>,
}

/// S-STM's state under the cell lock.
struct Tracked<S> {
    /// Recent overwritten versions: (seq, ct, writer).
    history: VecDeque<(VersionSeq, S, Option<TxId>)>,
    /// Visible readers of the *current* version.
    readers: Vec<Arc<StampRec<S>>>,
}

/// S-STM's side of the cell.
struct Visible<T, S> {
    max_history: usize,
    /// Lock-free visible-reader announcements; drained into
    /// `Tracked::readers` under the cell lock whenever a writer collects
    /// or retires readers.
    reader_slots: ArcSlots<StampRec<S>>,
    value: PhantomData<T>,
}

impl<T, S: Clone> Visible<T, S> {
    /// Drains the lock-free reader announcements into the locked reader
    /// list (dedup by record identity, dropping aborted readers).
    fn collect_readers(&self, readers: &mut Vec<Arc<StampRec<S>>>) {
        for reader in self.reader_slots.drain() {
            if reader.shared().status() != TxStatus::Aborted
                && !readers.iter().any(|r| Arc::ptr_eq(r, &reader))
            {
                readers.push(reader);
            }
        }
    }
}

impl<T: TxValue, S: CausalStamp> CellProtocol for Visible<T, S> {
    type Rec = StampRec<S>;
    type Value = T;
    type Version = Published<T, S>;
    type State = Tracked<S>;
    // One side of the Dekker race with reader-slot announcements.
    const META_LOAD: Ordering = Ordering::SeqCst;
    const META_STORE: Ordering = Ordering::SeqCst;

    fn seq(version: &Published<T, S>) -> VersionSeq {
        version.seq
    }

    fn promote(
        &self,
        state: &mut Tracked<S>,
        current: &Published<T, S>,
        writer: &StampRec<S>,
        tentative: T,
    ) -> Arc<Published<T, S>> {
        state
            .history
            .push_back((current.seq, current.ct.clone(), current.writer));
        while state.history.len() > self.max_history {
            state.history.pop_front();
        }
        // Retire the overwritten version's readers. Slot announcements
        // left at this point are in-flight fast reads that will fail their
        // revalidation (the writer bit has been set since the reservation),
        // so dropping them loses no edge; the committing writer collected
        // the real readers in `overwrite_info` before flipping its status.
        drop(self.reader_slots.drain());
        state.readers.clear();
        Arc::new(Published {
            value: tentative,
            ct: writer
                .stamp()
                .expect("committed writers have published stamps"),
            seq: current.seq + 1,
            writer: Some(writer.shared().id()),
        })
    }
}

type Cell<T, S> = VersionedCell<Visible<T, S>>;

/// A transactional variable managed by [`SStm`]. Cheap to clone.
pub struct SVar<T: TxValue, C: CausalTimeBase> {
    shared: Arc<Cell<T, C::Stamp>>,
}

impl<T: TxValue, C: CausalTimeBase> Clone for SVar<T, C> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T: TxValue, C: CausalTimeBase> SVar<T, C> {
    /// The object's id in recorded histories.
    pub fn id(&self) -> ObjId {
        self.shared.id()
    }
}

impl<T: TxValue, C: CausalTimeBase> std::fmt::Debug for SVar<T, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SVar").field("id", &self.id()).finish()
    }
}

/// Lock-free visible read of a quiescent object: the cell's seqlock read
/// with the reader-slot announcement in between (module docs) and `open`
/// copying out of the version. `None` means "contended or slots full —
/// take the locked path".
fn read_fast<T: TxValue, S: CausalStamp, R>(
    cell: &Cell<T, S>,
    me: &Arc<StampRec<S>>,
    open: impl FnOnce(&Published<T, S>) -> R,
) -> Option<R> {
    let slots = &cell.protocol().reader_slots;
    let mut slot = None;
    let announce = |_: &Published<T, S>| {
        slot = slots.try_insert(Arc::clone(me)).ok();
        slot.is_some()
    };
    match cell.read_fast(announce, open) {
        // Quiescent window: any writer that reserves from here on stores
        // the writer bit *before* draining the slots, so it must observe
        // this announcement.
        FastRead::Hit(opened) => Some(opened),
        FastRead::Declined => None,
        FastRead::Raced => {
            // Interference after the announcement. A concurrent drain may
            // already have collected the slot — then the collector keeps a
            // spurious (conservative) rw edge; otherwise withdraw it.
            slots.try_remove(slot.expect("the hook announced"), me);
            None
        }
    }
}

/// Type-erased object operations for the commit path.
trait SObject<S>: WriteEntry<StampRec<S>> {
    /// What became of version `seq`, which `me` read, as `me`'s commit at
    /// `my_ct` must see it: `Ok(None)` — nothing yet (still newest, or
    /// only a reservation whose owner adds the rw edge itself);
    /// `Ok(Some(w))` — overwritten by the concurrent writer `w` (rw edge
    /// me → w); `Err(())` — CS-style validation fails: the successor is
    /// `⪯ my_ct`, or its stamp fell out of the bounded history.
    fn successor(
        &self,
        me: &Arc<StampRec<S>>,
        seq: VersionSeq,
        my_ct: &S,
    ) -> Result<Option<TxId>, ()>;
    /// For a written object: writer of the current version plus the
    /// current readers (live records).
    fn overwrite_info(&self, me: &Arc<StampRec<S>>) -> (Option<TxId>, Vec<Arc<StampRec<S>>>);
}

impl<T: TxValue, S: CausalStamp> SObject<S> for Cell<T, S> {
    fn successor(
        &self,
        me: &Arc<StampRec<S>>,
        seq: VersionSeq,
        my_ct: &S,
    ) -> Result<Option<TxId>, ()> {
        // No pending writer and `seq` still current: no successor exists
        // at this instant, hence no rw edge to chase.
        if self.is_still_newest(seq) {
            return Ok(None);
        }
        // A foreign committing writer is waited out only if its stamp
        // precedes ours (module docs); any other one's reservation is no
        // successor yet, and that writer adds the rw edge itself.
        let guard = self.lock_settled(Some(me), stamp_precedes(my_ct));
        let current = guard.current();
        if current.seq <= seq {
            return Ok(None);
        }
        let (succ_ct, writer) = if current.seq == seq + 1 {
            (&current.ct, current.writer)
        } else {
            let known = guard.state.history.iter().find(|(s, _, _)| *s == seq + 1);
            known.map(|(_, ct, writer)| (ct, *writer)).ok_or(())?
        };
        if successor_allows(Some(succ_ct), my_ct) {
            Ok(writer)
        } else {
            Err(())
        }
    }

    fn overwrite_info(&self, me: &Arc<StampRec<S>>) -> (Option<TxId>, Vec<Arc<StampRec<S>>>) {
        // `me` holds the reservation: there is nothing to settle.
        debug_assert!(self.reserved_by(me));
        let mut guard = self.lock();
        // Pull in the lock-free announcements: every fast read that
        // succeeded before our reservation published the writer bit is
        // visible here (Dekker argument in the module docs).
        let readers = &mut guard.state.readers;
        self.protocol().collect_readers(readers);
        // Lazily drop aborted readers while we are here.
        readers.retain(|r| r.shared().status() != TxStatus::Aborted);
        let readers = readers.clone();
        (guard.current().writer, readers)
    }
}

// ---------------------------------------------------------------------------
// STM
// ---------------------------------------------------------------------------

/// The serializable STM (Section 4.2). See the crate docs.
pub struct SStm<C: CausalTimeBase = RevClock> {
    config: StmConfig,
    clock: C,
    cm: Arc<dyn ContentionManager>,
    graph: Mutex<PrecGraph>,
    registered: AtomicUsize,
}

impl<C: CausalTimeBase> SStm<C> {
    /// Creates an S-STM over the given causal time base.
    ///
    /// # Panics
    ///
    /// Panics if the clock serves fewer slots than the configured threads.
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
            graph: Mutex::new(PrecGraph::default()),
            registered: AtomicUsize::new(0),
        }
    }

    /// The configuration this STM was built with.
    pub fn config(&self) -> &StmConfig {
        &self.config
    }

    /// Number of transactions currently tracked in the precedence graph
    /// (diagnostics: shows the pruning at work).
    pub fn graph_len(&self) -> usize {
        self.graph.lock().len()
    }
}

impl<C: CausalTimeBase> SStm<C> {
    /// Creates an S-STM over an explicit causal time base — the same
    /// constructor shape as the scalar-clocked STMs (scalar time bases
    /// such as `zstm_clock::ShardedClock` implement `CausalTimeBase`
    /// under the total order of their stamps).
    ///
    /// # Panics
    ///
    /// Panics if the clock serves fewer slots than the configured threads.
    pub fn with_clock(config: StmConfig, clock: C) -> Self {
        Self::new(config, clock)
    }
}

impl SStm<RevClock> {
    /// Convenience constructor: S-STM over an exact vector clock.
    pub fn with_vector_clock(config: StmConfig) -> Self {
        let threads = config.threads();
        Self::new(config, RevClock::vector(threads))
    }
}

impl<C: CausalTimeBase> TmFactory for SStm<C> {
    type Var<T: TxValue> = SVar<T, C>;
    type Thread = SThread<C>;

    fn new_var<T: TxValue>(&self, init: T) -> SVar<T, C> {
        let protocol = Visible {
            max_history: self.config.max_versions_per_object(),
            reader_slots: ArcSlots::new(READER_SLOTS),
            value: PhantomData,
        };
        let initial = Arc::new(Published {
            value: init,
            ct: self.clock.zero(),
            seq: 0,
            writer: None,
        });
        let state = Tracked {
            history: VecDeque::new(),
            readers: Vec::new(),
        };
        let sink = Arc::clone(self.config.sink());
        SVar {
            shared: Arc::new(VersionedCell::new(protocol, initial, state, sink)),
        }
    }

    fn register_thread(self: &Arc<Self>) -> SThread<C> {
        SThread {
            ctx: ThreadCtx::claim(&self.registered, &self.config),
            stm: Arc::clone(self),
            vc: self.clock.zero(),
        }
    }

    fn max_threads(&self) -> Option<usize> {
        Some(self.config.threads())
    }

    fn name(&self) -> &'static str {
        "s-stm"
    }
}

/// Per-logical-thread context of [`SStm`].
pub struct SThread<C: CausalTimeBase> {
    stm: Arc<SStm<C>>,
    ctx: ThreadCtx,
    vc: C::Stamp,
}

impl<C: CausalTimeBase> TmThread for SThread<C> {
    type Factory = SStm<C>;
    type Tx<'a> = STx<'a, C>;

    fn begin(&mut self, kind: TxKind) -> STx<'_, C> {
        let attempt = Attempt::start(&mut self.ctx, kind, StampRec::new);
        self.stm.graph.lock().begin(attempt.tx().id());
        let ct = self.vc.clone();
        STx {
            attempt,
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

struct ReadEntry<S> {
    obj: Arc<dyn SObject<S>>,
    seq: VersionSeq,
    version_writer: Option<TxId>,
}

/// An active S-STM transaction.
pub struct STx<'a, C: CausalTimeBase> {
    attempt: Attempt<'a, StampRec<C::Stamp>>,
    stm: &'a SStm<C>,
    /// The thread's `VC_p`.
    vc: &'a mut C::Stamp,
    ct: C::Stamp,
    reads: Vec<ReadEntry<C::Stamp>>,
    writes: Vec<Arc<dyn SObject<C::Stamp>>>,
}

/// Dropped without commit or rollback — a panic unwinding through the
/// body — the attempt is rolled back, which also takes its node out of
/// the precedence graph (a ghost node would pin pruning forever).
impl<C: CausalTimeBase> Drop for STx<'_, C> {
    fn drop(&mut self) {
        if self.attempt.is_open() {
            self.abort(AbortReason::Explicit);
        }
    }
}

impl<C: CausalTimeBase> STx<'_, C> {
    fn abort(&mut self, reason: AbortReason) -> Abort {
        self.attempt.release_all(&self.writes);
        self.stm.graph.lock().abort(self.attempt.tx().id());
        self.attempt.aborted(reason)
    }
}

impl<C: CausalTimeBase> TmTx for STx<'_, C> {
    type Factory = SStm<C>;

    fn read<T: TxValue>(&mut self, var: &SVar<T, C>) -> Result<T, Abort> {
        self.attempt.on_read()?;
        let me = self.attempt.rec();
        let ct = &mut self.ct;
        let mut open = |version: &Published<T, C::Stamp>| {
            ct.join(&version.ct);
            (version.seq, version.writer, version.value.clone())
        };
        // A reservation held by this transaction keeps the writer bit
        // set, so read-your-own-write always reaches the locked path. (A
        // fast read that races has joined the stamp of a version the
        // locked path then finds again or finds overwritten; stamps grow
        // along an object's versions, so the second join covers the first.)
        let (seq, version_writer, value) = match read_fast(&var.shared, me, &mut open) {
            Some(opened) => opened,
            None => {
                let mut guard = var.shared.lock_settled(Some(me), always);
                // Reclaim the slot array while we hold the lock anyway:
                // committed readers park their announcements until a
                // writer collects them, so a rarely-written object would
                // otherwise exhaust its slots permanently and pin the fast
                // path in its fallback. Moving the entries into the locked
                // reader list preserves every edge and frees the slots for
                // subsequent fast reads.
                var.shared
                    .protocol()
                    .collect_readers(&mut guard.state.readers);
                if let Some(own) = guard.tentative_of(me) {
                    return Ok(own.clone());
                }
                // Visible read: register in the version's reader list.
                let readers = &mut guard.state.readers;
                if !readers.iter().any(|r| Arc::ptr_eq(r, me)) {
                    readers.push(Arc::clone(me));
                }
                open(guard.current())
            }
        };
        self.reads.push(ReadEntry {
            obj: Arc::clone(&var.shared) as Arc<dyn SObject<C::Stamp>>,
            seq,
            version_writer,
        });
        self.attempt.record(TxEventKind::Read {
            obj: var.id(),
            version: seq,
        });
        Ok(value)
    }

    fn write<T: TxValue>(&mut self, var: &SVar<T, C>, value: T) -> Result<(), Abort> {
        self.attempt.on_write()?;
        let ct = &mut self.ct;
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
        let my_id = me.shared().id();
        me.publish_stamp(self.ct.clone());
        if !me.shared().begin_commit() {
            return Err(self.abort(AbortReason::Killed));
        }

        // Gather this transaction's edges and the committed readers whose
        // timestamps the new versions must dominate.
        let mut edges: Vec<(TxId, TxId)> = Vec::new();
        let mut committed_reader_stamps: Vec<C::Stamp> = Vec::new();
        for entry in &self.reads {
            // wr edge: version writer → me.
            if let Some(writer) = entry.version_writer {
                edges.push((writer, my_id));
            }
            // CS-style timestamp validation (catches the causal violations
            // cheaply, before touching the graph), which leaves only
            // successors by *concurrent* writers: rw edge me → writer.
            match entry.obj.successor(me, entry.seq, &self.ct) {
                Ok(None) => {}
                Ok(Some(writer)) => edges.push((my_id, writer)),
                Err(()) => return Err(self.abort(AbortReason::ReadValidation)),
            }
        }
        for obj in &self.writes {
            let (prev_writer, readers) = obj.overwrite_info(me);
            // ww edge: previous writer → me.
            if let Some(writer) = prev_writer {
                edges.push((writer, my_id));
            }
            for reader in readers {
                if Arc::ptr_eq(&reader, me) {
                    continue;
                }
                // rw edge: reader of the overwritten version → me.
                edges.push((reader.shared().id(), my_id));
                // "The timestamp of the transaction is larger than that of
                // any committed transaction that causally precedes" — join
                // committed readers' timestamps.
                if reader.shared().is_committed() {
                    if let Some(stamp) = reader.stamp() {
                        committed_reader_stamps.push(stamp);
                    }
                }
            }
        }

        // Cycle check under the graph lock: all new edges are incident to
        // this transaction, so any new cycle passes through it.
        {
            let mut graph = self.stm.graph.lock();
            for &(from, to) in &edges {
                graph.add_edge(from, to);
            }
            if graph.reaches(my_id, my_id) {
                drop(graph);
                return Err(self.abort(AbortReason::PrecedenceCycle));
            }
            graph.commit_and_prune(my_id);
        }

        for stamp in &committed_reader_stamps {
            self.ct.join(stamp);
        }
        if !self.writes.is_empty() {
            self.stm.clock.advance(self.attempt.slot(), &mut self.ct);
        }
        me.publish_stamp(self.ct.clone());
        // The flip and the eager promotion; Write events are emitted by
        // the promotion itself (it may also happen lazily on another
        // thread).
        self.attempt.publish(&self.writes, None);
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
    use zstm_clock::RevStamp;
    use zstm_core::{atomically, RetryPolicy, ThreadId, TxShared};
    use zstm_util::run_with_deadline;

    fn stm(threads: usize) -> Arc<SStm> {
        Arc::new(SStm::with_vector_clock(StmConfig::new(threads)))
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
    fn write_skew_is_rejected() {
        // The canonical non-serializable schedule CS-STM admits:
        // T1: r(x) w(y), T2: r(y) w(x), interleaved. One must abort.
        let stm = stm(2);
        let x = stm.new_var(0i64);
        let y = stm.new_var(0i64);
        let mut p0 = stm.register_thread();
        let mut p1 = stm.register_thread();

        let mut t1 = p0.begin(TxKind::Short);
        let vx = t1.read(&x).expect("r x");
        let mut t2 = p1.begin(TxKind::Short);
        let vy = t2.read(&y).expect("r y");
        t1.write(&y, vx + 1).expect("w y");
        t2.write(&x, vy + 1).expect("w x");

        let r1 = t1.commit();
        let r2 = t2.commit();
        assert!(
            r1.is_ok() ^ r2.is_ok(),
            "exactly one of the write-skew transactions commits: {r1:?} {r2:?}"
        );
        let loser = if r1.is_err() { r1 } else { r2 };
        assert_eq!(
            loser.expect_err("loser").reason(),
            AbortReason::PrecedenceCycle
        );
    }

    #[test]
    fn figure_2_second_imposer_aborts() {
        // Paper Figure 2: T1 w(o1) w(o2); T2 w(o3); T3 r(o3) w(o2);
        // TL r(o1) r(o2) r(o3) w(o4). T3 and TL impose incompatible orders
        // between T1 and T2; the first of them to commit wins, the other
        // aborts (Section 4.2: "the first transaction of TL or T3 that
        // commits will order T1 and T2; the other one will abort").
        let stm = stm(4);
        let o1 = stm.new_var(0i64);
        let o2 = stm.new_var(0i64);
        let o3 = stm.new_var(0i64);
        let o4 = stm.new_var(0i64);
        let mut p1 = stm.register_thread();
        let mut p2 = stm.register_thread();
        let mut p3 = stm.register_thread();
        let mut pl = stm.register_thread();

        // TL reads o1, o2 before T1 commits.
        let mut tl = pl.begin(TxKind::Long);
        tl.read(&o1).expect("r o1");
        tl.read(&o2).expect("r o2");

        // T3 reads o3 before T2 commits.
        let mut t3 = p3.begin(TxKind::Short);
        t3.read(&o3).expect("r o3");

        // T1 commits o1, o2.
        let mut t1 = p1.begin(TxKind::Short);
        t1.write(&o1, 1).expect("w o1");
        t1.write(&o2, 1).expect("w o2");
        t1.commit().expect("T1 commits");

        // T2 commits o3.
        let mut t2 = p2.begin(TxKind::Short);
        t2.write(&o3, 1).expect("w o3");
        t2.commit().expect("T2 commits");

        // T3 writes o2 (over T1's version) and commits: orders T1 → T3 → T2.
        t3.write(&o2, 2).expect("w o2");
        t3.commit().expect("T3 commits first");

        // TL reads o3 (T2's version) and writes o4: needs T2 → TL → T1,
        // i.e. the opposite order — must abort.
        tl.read(&o3).expect("r o3");
        tl.write(&o4, 1).expect("w o4");
        let err = tl
            .commit()
            .expect_err("TL must abort under serializability");
        assert_eq!(err.reason(), AbortReason::PrecedenceCycle);
    }

    /// Reserves `var` for a fresh record of thread `slot` whose stamp is
    /// one commit of that thread, and drives it past `begin_commit()`.
    fn committing_writer(
        clock: &RevClock,
        slot: usize,
        var: &SVar<i64, RevClock>,
    ) -> (Arc<StampRec<RevStamp>>, RevStamp) {
        let rec = Arc::new(StampRec::new(TxShared::start(
            ThreadId::new(slot),
            TxKind::Short,
            0,
        )));
        let cm = zstm_core::CmPolicy::Polite.build();
        let fresh = var.shared.reserve(&rec, 1, cm.as_ref(), 0, |_| Ok(()));
        assert!(fresh.expect("uncontended reserve"));
        let mut stamp = clock.zero();
        clock.advance(slot, &mut stamp);
        rec.publish_stamp(stamp.clone());
        assert!(rec.shared().begin_commit());
        (rec, stamp)
    }

    #[test]
    fn committers_reading_each_others_writes_do_not_wait() {
        // The queue deadlock, without threads or history: a producer
        // committing with `tail` reserved validates its read of `head`
        // while a consumer committing with `head` reserved validates its
        // read of `tail`. Their stamps are concurrent, so neither may wait
        // for the other (before the wait rule each spun on the other's
        // `Committing` reservation forever).
        let stm = stm(2);
        let (head, tail) = (stm.new_var(0i64), stm.new_var(0i64));
        let clock = RevClock::vector(2);
        let (producer, producer_ct) = committing_writer(&clock, 0, &tail);
        let (consumer, consumer_ct) = committing_writer(&clock, 1, &head);
        assert!(producer_ct.concurrent_with(&consumer_ct));
        let limit = std::time::Duration::from_secs(2);
        let verdicts = run_with_deadline("commit wait cycle [s-stm]", limit, move || {
            (
                head.shared.successor(&producer, 0, &producer_ct),
                tail.shared.successor(&consumer, 0, &consumer_ct),
            )
        });
        // Version 0 is still newest on both: each passes, chases no rw
        // edge itself, and the precedence graph settles the write skew.
        assert_eq!(verdicts, (Ok(None), Ok(None)));
    }

    proptest::proptest! {
        /// A committing S-STM transaction meets foreign reservations in
        /// `successor` only, under CS-STM's rule: for no two stamps do two
        /// of them wait on each other.
        #[test]
        fn commit_wait_rules_are_acyclic(
            a_commits in 0usize..4,
            b_commits in 0usize..4,
            b_saw_a in proptest::prelude::any::<bool>(),
        ) {
            let clock = RevClock::vector(2);
            let (mut ct_a, mut ct_b) = (clock.zero(), clock.zero());
            (0..a_commits).for_each(|_| clock.advance(0, &mut ct_a));
            if b_saw_a {
                ct_b.join(&ct_a);
            }
            (0..b_commits).for_each(|_| clock.advance(1, &mut ct_b));
            let committing = |ct: &RevStamp| {
                let rec = StampRec::new(TxShared::start(ThreadId::new(0), TxKind::Short, 0));
                rec.publish_stamp(ct.clone());
                rec
            };
            let (a, b) = (committing(&ct_a), committing(&ct_b));
            let (a_waits, b_waits) = (stamp_precedes(&ct_a)(&b), stamp_precedes(&ct_b)(&a));
            proptest::prop_assert!(!(a_waits && b_waits));
        }
    }

    #[test]
    fn reader_slots_are_reclaimed_on_fallback() {
        // Committed read-only transactions park announcements in the
        // lock-free reader slots; without reclamation on the fallback
        // path, a never-written object would exhaust them permanently.
        let stm = stm(1);
        let var = stm.new_var(0i64);
        let mut thread = stm.register_thread();
        for _ in 0..(READER_SLOTS * 2 + 2) {
            atomically(&mut thread, TxKind::Short, &RetryPolicy::default(), |tx| {
                tx.read(&var)
            })
            .expect("read commits");
        }
        // The last slots-full read fell back and drained the array, so a
        // fresh announcement must find room again.
        let probe = Arc::new(StampRec::new(TxShared::start(
            ThreadId::new(0),
            TxKind::Short,
            0,
        )));
        assert!(
            var.shared.protocol().reader_slots.try_insert(probe).is_ok(),
            "reader slots permanently exhausted by committed readers"
        );
    }

    #[test]
    fn graph_is_pruned() {
        let stm = stm(1);
        let var = stm.new_var(0i64);
        let mut thread = stm.register_thread();
        for _ in 0..100 {
            atomically(&mut thread, TxKind::Short, &RetryPolicy::default(), |tx| {
                let v = tx.read(&var)?;
                tx.write(&var, v + 1)
            })
            .expect("commit");
        }
        assert!(
            stm.graph_len() <= 4,
            "graph must not grow without bound: {}",
            stm.graph_len()
        );
    }

    #[test]
    fn concurrent_transfers_conserve_money() {
        let stm = stm(4);
        let accounts: Arc<Vec<SVar<i64, RevClock>>> =
            Arc::new((0..8).map(|_| stm.new_var(100i64)).collect());
        let handles: Vec<_> = (0..3)
            .map(|t| {
                let stm = Arc::clone(&stm);
                let accounts = Arc::clone(&accounts);
                let mut thread = stm.register_thread();
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let from = ((i * 7 + t * 3) % 8) as usize;
                        let to = ((i * 13 + t * 5) % 8) as usize;
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
        assert_eq!(total, 800);
    }
}
