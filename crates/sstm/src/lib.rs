//! S-STM — the serializable STM of the paper's Section 4.2.
//!
//! S-STM "works along the same lines as CS-STM, with the major following
//! differences" — and so does this crate: the stamp protocol (tentative
//! timestamp, join at every open, validation against direct successors,
//! the advance-and-publish epilogue, the commit wait rule) is
//! [`zstm_cs::CsTx`], which [`STx`] calls. What is written here is what
//! the section adds — [`Visible`], plugged into CS-STM's objects, for the
//! first difference, and the precedence graph around [`STx`]'s commit for
//! the second:
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

use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use zstm_clock::{CausalStamp, CausalTimeBase, RevClock};
use zstm_core::cell::FastRead;
use zstm_core::{
    Abort, AbortReason, LastRecord, ObjId, StmConfig, ThreadCtx, TmFactory, TmThread, TmTx, TxId,
    TxKind, TxStatus, TxValue,
};
use zstm_cs::{Causal, CausalState, CausalVar, Cell, CsStm, CsTx, Published, StampRec, Tracking};
use zstm_util::sync::Mutex;
use zstm_util::{ArcSlots, Pin, Shared};

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
    ///    `s_stm_regression_pruned_node_cycle` in
    ///    `tests/corpus/pruned_node_cycle_s_stm.rs`).
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

/// What S-STM tracks per object: versions carry the transaction that wrote
/// them (`None` for the initial one), and the locked cell the visible
/// readers of the *current* version.
pub struct Visible<S> {
    /// Lock-free visible-reader announcements; drained into the locked
    /// reader list whenever a writer collects or retires readers.
    reader_slots: ArcSlots<StampRec<S>>,
}

impl<S: CausalStamp> Visible<S> {
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

impl<S: CausalStamp> Tracking<S> for Visible<S> {
    type Extra = Option<TxId>;
    type State = Vec<Arc<StampRec<S>>>;
    // One side of the Dekker race with reader-slot announcements.
    const META: (Ordering, Ordering) = (Ordering::SeqCst, Ordering::SeqCst);

    /// The cell's seqlock read with the reader-slot announcement in
    /// between (module docs). `None` means "contended or slots full".
    fn read_fast<T: TxValue, R>(
        cell: &Cell<T, S, Self>,
        pin: &Pin,
        me: &Arc<StampRec<S>>,
        open: impl FnOnce(&Published<T, S, Option<TxId>>) -> R,
    ) -> Option<R> {
        let slots = &cell.protocol().tracking.reader_slots;
        let mut slot = None;
        let announce = |_: &_| {
            slot = slots.try_insert(Arc::clone(me)).ok();
            slot.is_some()
        };
        match cell.read_fast(pin, announce, open) {
            // Quiescent window: any writer that reserves from here on
            // stores the writer bit *before* draining the slots, so it
            // must observe this announcement.
            FastRead::Hit(opened) => Some(opened),
            FastRead::Declined => None,
            FastRead::Raced => {
                // Interference after the announcement. A concurrent drain
                // may already have collected the slot — then the collector
                // keeps a spurious (conservative) rw edge; otherwise
                // withdraw it.
                slots.try_remove(slot.expect("the hook announced"), me);
                None
            }
        }
    }

    /// Visible read: `me` registers in the version's reader list — and
    /// reclaims the slot array while the lock is held anyway: committed
    /// readers park their announcements until a writer collects them, so a
    /// rarely-written object would otherwise exhaust its slots permanently
    /// and pin the fast path in its fallback. Moving the entries into the
    /// locked reader list preserves every edge and frees the slots for
    /// subsequent fast reads.
    fn on_read(&self, readers: &mut Self::State, me: &Arc<StampRec<S>>) {
        self.collect_readers(readers);
        if !readers.iter().any(|r| Arc::ptr_eq(r, me)) {
            readers.push(Arc::clone(me));
        }
    }

    /// Retires the overwritten version's readers. Slot announcements left
    /// at this point are in-flight fast reads that will fail their
    /// revalidation (the writer bit has been set since the reservation),
    /// so dropping them loses no edge; the committing writer collected the
    /// real readers ([`Tracking::readers`]) before flipping its status.
    fn on_promote(&self, readers: &mut Self::State, writer: &StampRec<S>) -> Option<TxId> {
        drop(self.reader_slots.drain());
        readers.clear();
        Some(writer.shared().id())
    }

    /// Pulls in the lock-free announcements first: every fast read that
    /// succeeded before the caller's reservation published the writer bit
    /// is visible here (Dekker argument in the module docs).
    fn readers(&self, readers: &mut Self::State) -> Vec<Arc<StampRec<S>>> {
        self.collect_readers(readers);
        // Lazily drop aborted readers while we are here.
        readers.retain(|r| r.shared().status() != TxStatus::Aborted);
        readers.clone()
    }
}

/// A transactional variable managed by [`SStm`].
pub type SVar<T, C> =
    CausalVar<Causal<T, <C as CausalTimeBase>::Stamp, Visible<<C as CausalTimeBase>::Stamp>>>;

// ---------------------------------------------------------------------------
// STM
// ---------------------------------------------------------------------------

/// The serializable STM (Section 4.2). See the crate docs.
pub struct SStm<C: CausalTimeBase = RevClock> {
    /// Configuration, time base, contention manager and thread slots — the
    /// factory half of CS-STM, as it is.
    cs: CsStm<C>,
    graph: Mutex<PrecGraph>,
}

impl<C: CausalTimeBase> SStm<C> {
    /// Creates an S-STM over the given causal time base.
    ///
    /// # Panics
    ///
    /// Panics if the clock serves fewer slots than the configured threads.
    pub fn new(config: StmConfig, clock: C) -> Self {
        Self {
            cs: CsStm::new(config, clock),
            graph: Mutex::default(),
        }
    }

    /// [`SStm::new`] under the name the scalar-clocked STMs use (scalar
    /// time bases such as `zstm_clock::ShardedClock` implement
    /// `CausalTimeBase` under the total order of their stamps).
    pub fn with_clock(config: StmConfig, clock: C) -> Self {
        Self::new(config, clock)
    }

    /// The configuration this STM was built with.
    pub fn config(&self) -> &StmConfig {
        self.cs.config()
    }

    /// Number of transactions currently tracked in the precedence graph
    /// (diagnostics: shows the pruning at work).
    pub fn graph_len(&self) -> usize {
        self.graph.lock().len()
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
        let reader_slots = ArcSlots::new(READER_SLOTS);
        self.cs.new_causal_var(init, Visible { reader_slots }, None)
    }

    fn var_id<T: TxValue>(var: &SVar<T, C>) -> ObjId {
        var.id()
    }

    fn var_handles<T: TxValue>(var: &SVar<T, C>) -> usize {
        Shared::handles(&var.shared)
    }

    fn register_thread(self: &Arc<Self>) -> SThread<C> {
        let (ctx, state) = self.cs.claim_thread();
        let stm = Arc::clone(self);
        SThread {
            stm,
            ctx,
            last: None,
            state,
        }
    }

    fn max_threads(&self) -> Option<usize> {
        Some(self.config().threads())
    }

    fn name(&self) -> &'static str {
        "s-stm"
    }
}

/// Per-logical-thread context of [`SStm`].
pub struct SThread<C: CausalTimeBase> {
    stm: Arc<SStm<C>>,
    ctx: ThreadCtx,
    /// The record of the thread's last attempt, for the next to reuse.
    last: LastRecord<StampRec<C::Stamp>>,
    state: CausalState<C::Stamp, Option<TxId>>,
}

impl<C: CausalTimeBase> TmThread for SThread<C> {
    type Factory = SStm<C>;
    type Tx<'a> = STx<'a, C>;

    fn begin(&mut self, kind: TxKind) -> STx<'_, C> {
        let SStm { cs, graph } = &*self.stm;
        let causal = CsTx::begin(&mut self.ctx, &mut self.last, &mut self.state, cs, kind);
        graph.lock().begin(causal.attempt.tx().id());
        STx { causal, graph }
    }

    fn ctx(&self) -> &ThreadCtx {
        &self.ctx
    }

    fn ctx_mut(&mut self) -> &mut ThreadCtx {
        &mut self.ctx
    }
}

/// An active S-STM transaction: Algorithm 1 plus its node in the
/// precedence graph.
pub struct STx<'a, C: CausalTimeBase> {
    causal: CsTx<'a, C, Option<TxId>>,
    graph: &'a Mutex<PrecGraph>,
}

/// However the attempt ended short of a commit — validation, a cycle, a
/// rollback, or dropped raw by a panic unwinding through the body (the
/// `CsTx` inside then rolls itself back) — its node leaves the
/// precedence graph: a ghost node would pin pruning forever.
impl<C: CausalTimeBase> Drop for STx<'_, C> {
    fn drop(&mut self) {
        let tx = self.causal.attempt.tx();
        if !tx.is_committed() {
            self.graph.lock().abort(tx.id());
        }
    }
}

impl<C: CausalTimeBase> TmTx for STx<'_, C> {
    type Factory = SStm<C>;

    fn read_with<T: TxValue, R>(
        &mut self,
        var: &SVar<T, C>,
        f: impl FnMut(&T) -> R,
    ) -> Result<R, Abort> {
        self.causal.open_read(var, f)
    }

    fn write<T: TxValue>(&mut self, var: &SVar<T, C>, value: T) -> Result<(), Abort> {
        self.causal.open_write(var, value)
    }

    fn commit(mut self) -> Result<(), Abort> {
        let my_id = self.causal.attempt.tx().id();

        // Gather this transaction's edges and the committed readers whose
        // timestamps the new versions must dominate. The timestamp
        // validation comes first (it catches the causal violations cheaply,
        // before touching the graph) and leaves, per read, a wr edge
        // version writer → me and, where a concurrent writer has
        // overwritten the version since, an rw edge me → writer.
        let mut edges: Vec<(TxId, TxId)> = Vec::new();
        self.causal.validate(|version_writer, successor| {
            edges.extend(version_writer.map(|writer| (writer, my_id)));
            edges.extend(successor.flatten().map(|writer| (my_id, writer)));
        })?;
        let me = self.causal.attempt.rec();
        let mut committed_reader_stamps: Vec<C::Stamp> = Vec::new();
        for obj in self.causal.writes() {
            let (prev_writer, readers) = obj.overwritten(me);
            // ww edge: previous writer → me.
            edges.extend(prev_writer.map(|writer| (writer, my_id)));
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
                    committed_reader_stamps.extend(reader.stamp());
                }
            }
        }

        // Cycle check under the graph lock: all new edges are incident to
        // this transaction, so any new cycle passes through it.
        {
            let mut graph = self.graph.lock();
            for &(from, to) in &edges {
                graph.add_edge(from, to);
            }
            if graph.reaches(my_id, my_id) {
                drop(graph);
                return Err(self.causal.abort(AbortReason::PrecedenceCycle));
            }
            graph.commit_and_prune(my_id);
        }

        for stamp in &committed_reader_stamps {
            self.causal.join(stamp);
        }
        self.causal.publish();
        Ok(())
    }

    fn rollback(mut self, reason: AbortReason) {
        self.causal.abort(reason);
    }

    fn id(&self) -> TxId {
        self.causal.attempt.tx().id()
    }

    fn kind(&self) -> TxKind {
        self.causal.attempt.tx().kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zstm_clock::RevStamp;
    use zstm_core::{atomically, RetryPolicy, ThreadId, TxShared};
    use zstm_cs::{stamp_precedes, CausalObject};
    use zstm_util::run_with_deadline;

    include!("../../../tests/support/attempt_endings.rs");
    include!("../../../tests/support/causal_figures.rs");

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
    fn figure_1_and_figure_3_left_end_as_under_cs() {
        // Algorithm 1 is CS-STM's: what its validation admits (Figure 1 is
        // serializable, T2 → TL → T1) and refuses (Figure 3) it does here.
        figure_1_schedule(&stm(3)).expect("TL commits");
        let err = figure_3_left_schedule(&stm(2)).expect_err("T1 precedes and follows T2");
        assert_eq!(err.reason(), AbortReason::ReadValidation);
    }

    #[test]
    fn sets_go_back_to_the_thread_empty_however_the_transaction_ends() {
        let stm = stm(2);
        let vars: Vec<_> = (0..5_000).map(|_| stm.new_var(0i64)).collect();
        let (mut thread, mut rival) = (stm.register_thread(), stm.register_thread());
        drive_every_ending::<SStm>(&mut thread, &mut rival, &vars, |ending, thread| {
            assert_sets_idle(ending, thread.state.sets());
        });
        assert!(stm.graph_len() <= 4, "{} nodes left", stm.graph_len());
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
        let cm = zstm_core::CmPolicy::Polite;
        let fresh = var.shared.reserve(&rec, 1, cm, 0, |_| Ok(()));
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
            var.shared
                .protocol()
                .tracking
                .reader_slots
                .try_insert(probe)
                .is_ok(),
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
