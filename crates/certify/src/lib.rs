//! Online serializability certification over the engine SPI.
//!
//! The paper's engines trade full serializability for throughput: CS-STM
//! only guarantees causal serializability and Z-STM z-linearizability. The
//! repository checks those claims *offline* with the `zstm-history`
//! checkers; this crate makes full serializability a *live* commit-time
//! criterion so the price of the stronger guarantee becomes measurable.
//!
//! [`CertifiedFactory`] wraps any [`TmFactory`] and implements the same
//! trait, so a certified engine drops into `Stm<F>`, `DynStm`, the
//! workloads and the benches unchanged. It runs an SSI-style certifier in
//! the spirit of Cahill's serializable snapshot isolation (the
//! `serializable_snapshot_isolation.tla` spec referenced in SNIPPETS.md):
//!
//! * every read leaves a **SIREAD-style mark** `(reader, version)` on the
//!   variable, which *persists after the reader commits*;
//! * every transaction carries `in_conflict` / `out_conflict` flags that
//!   are set for each dependency edge (wr, ww, rw-antidependency) between
//!   **concurrent** transactions;
//! * a transaction whose commit would leave it — or an already-committed
//!   transaction — with *both* flags set (Cahill's dangerous structure:
//!   a pivot with an incoming and an outgoing conflict) is rolled back
//!   through the normal engine path with [`AbortReason::Certification`].
//!
//! Unlike Cahill's SampleSort-era implementation, which flags
//! conservatively from lock tables, this certifier knows the *exact*
//! version each read observed: it taps the engine's [`EventSink`] stream
//! (forwarding every event to the user's sink untouched) and serializes
//! begins, reads and commits under one certifier mutex, so it maintains a
//! precise version→writer map per variable and only flags real MVSG edges.
//! That exactness is what keeps benign single-antidependency schedules
//! abort-free; the remaining false positives are inherent to the flag
//! abstraction (a dangerous structure need not close a cycle) — see
//! DESIGN.md for the deliberate deviations.
//!
//! Soundness sketch: every MVSG edge `A → B` between committed
//! transactions either points forward in real time (`A` committed before
//! `B` began — certification seqs are assigned under the same mutex as
//! engine commits, so the order is exact) or connects concurrent
//! transactions and sets `A.out_conflict` and `B.in_conflict`. A cycle
//! cannot consist of forward edges alone, and any concurrent edge inside a
//! cycle forces a both-flagged pivot; the commit rules guarantee no
//! transaction commits both-flagged and no committed transaction ever
//! *becomes* both-flagged — so certified histories are serializable.
//!
//! ```
//! use std::sync::Arc;
//!
//! use zstm_certify::CertifiedFactory;
//! use zstm_core::{atomically, RetryPolicy, StmConfig, TmFactory, TmTx, TxKind};
//! use zstm_lsa::LsaStm;
//!
//! let stm = Arc::new(CertifiedFactory::new(StmConfig::new(1), LsaStm::new));
//! let var = stm.new_var(41i64);
//! let mut thread = stm.register_thread();
//! let policy = RetryPolicy::default();
//! let value = atomically(&mut thread, TxKind::Short, &policy, |tx| {
//!     let v = tx.read(&var)?;
//!     tx.write(&var, v + 1)?;
//!     Ok(v + 1)
//! })
//! .unwrap();
//! assert_eq!(value, 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use zstm_core::{
    Abort, AbortReason, EventSink, ObjId, StmConfig, ThreadCtx, TmFactory, TmThread, TmTx, TxEvent,
    TxEventKind, TxId, TxKind, TxValue, VersionSeq,
};
use zstm_util::sync::Mutex;

/// Certifier-internal identifier of one transaction attempt.
type Ticket = u64;

/// Event-stream tap: captures the exact version of each read for the
/// certifier while forwarding the unmodified stream to the user's sink
/// (so a `Recorder` installed in the [`StmConfig`] still sees everything).
struct TapSink {
    forward: Arc<dyn EventSink>,
    reads: Mutex<Vec<VersionSeq>>,
}

impl TapSink {
    fn clear_reads(&self) {
        self.reads.lock().clear();
    }

    fn last_read(&self) -> Option<VersionSeq> {
        self.reads.lock().pop()
    }
}

impl EventSink for TapSink {
    fn enabled(&self) -> bool {
        // Always on: the certifier needs the read versions even when the
        // user recorded nothing.
        true
    }

    fn record(&self, event: TxEvent) {
        if let TxEventKind::Read { version, .. } = event.event {
            self.reads.lock().push(version);
        }
        if self.forward.enabled() {
            self.forward.record(event);
        }
    }
}

/// Per-transaction certifier record. Kept after commit until no live
/// transaction is concurrent with it (the flags of such a transaction can
/// no longer change, and only concurrent edges consult them).
struct TxInfo {
    begin_seq: u64,
    commit_seq: Option<u64>,
    in_conflict: bool,
    out_conflict: bool,
}

/// Per-variable certifier state.
#[derive(Default)]
struct VarMarks {
    /// Number of leading writer entries dropped by [`CertState::collect`]
    /// (their commits predate every live transaction's begin, so they can
    /// only ever form forward edges).
    pruned: u64,
    /// `(writer, commit_seq)` of version `pruned + i + 1` at index `i`;
    /// version 0 is the initial value, written by no transaction. Commit
    /// seqs ascend, because versions are installed in commit order under
    /// the certifier mutex.
    writers: Vec<(Ticket, u64)>,
    /// SIREAD-style marks `(reader, version read)`. Persist after the
    /// reader commits; scrubbed when the reader aborts or is collected.
    sireads: Vec<(Ticket, VersionSeq)>,
}

impl VarMarks {
    fn latest(&self) -> VersionSeq {
        self.pruned + self.writers.len() as u64
    }

    /// The committed writer of version `version` (1-based), unless pruned.
    fn writer_of(&self, version: VersionSeq) -> Option<(Ticket, u64)> {
        if version <= self.pruned {
            None
        } else {
            self.writers
                .get((version - self.pruned - 1) as usize)
                .copied()
        }
    }
}

/// Dependency edges a commit would add to the multi-version serialization
/// graph, as flag installations: `into_me` are edge *sources* (they gain
/// `out_conflict`), `out_of_me` are edge *targets* (they gain
/// `in_conflict`).
struct Edges {
    into_me: Vec<Ticket>,
    out_of_me: Vec<Ticket>,
}

/// Certifier bookkeeping shared by all threads of one factory, guarded by
/// a single mutex: every certified begin, read and commit runs under it,
/// which both serializes the version counters exactly and makes the
/// commit-seq order identical to the engine's commit order.
#[derive(Default)]
struct CertState {
    next_seq: u64,
    next_ticket: Ticket,
    txns: HashMap<Ticket, TxInfo>,
    vars: HashMap<u64, VarMarks>,
}

impl CertState {
    fn tick(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    fn begin_tx(&mut self) -> Ticket {
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        let begin_seq = self.tick();
        self.txns.insert(
            ticket,
            TxInfo {
                begin_seq,
                commit_seq: None,
                in_conflict: false,
                out_conflict: false,
            },
        );
        ticket
    }

    /// Whether `ticket` overlaps a transaction that began at `my_begin`:
    /// still active, or committed after that begin. Collected transactions
    /// committed before every live begin, hence are never concurrent.
    fn concurrent_with(&self, ticket: Ticket, my_begin: u64) -> bool {
        match self.txns.get(&ticket) {
            None => false,
            Some(info) => info.commit_seq.is_none_or(|c| c > my_begin),
        }
    }

    /// Records one read: leaves the SIREAD mark and the read-time-visible
    /// edges (the edges whose *other* endpoint committed first; the rest
    /// are discovered at that endpoint's later commit via the mark).
    fn note_read(&mut self, local: &mut TxLocal, var: u64, version: VersionSeq) {
        if local.writes.contains(&var) {
            // Read of the transaction's own tentative write.
            return;
        }
        let me = local.ticket;
        let my_begin = self.txns[&me].begin_seq;
        let marks = self.vars.entry(var).or_default();
        let latest = marks.latest();
        if version > latest + 1 {
            // Unknown future version; defensive (engines never serve one
            // beyond a single visible write reservation).
            return;
        }
        if !marks.sireads.iter().any(|&(t, v)| t == me && v == version) {
            marks.sireads.push((me, version));
            local.read_vars.push(var);
        }
        // wr edge in: the committed writer of the version read, when
        // concurrent. (`version == latest + 1` is another transaction's
        // still-tentative visible write — the wr edge is installed at that
        // writer's commit instead, through the mark above.)
        if version >= 1 && version <= latest {
            if let Some((writer, committed)) = marks.writer_of(version) {
                if writer != me && committed > my_begin {
                    local.wr_in.push(writer);
                }
            }
        }
        // rw edge out: the read is already stale — the next version's
        // writer committed before this read, so that writer's own commit
        // could not see the mark. (The fresh-read case is discovered at
        // the overwriter's commit.)
        if version < latest {
            if let Some((writer, _)) = marks.writer_of(version + 1) {
                if writer != me {
                    local.rw_out.push(writer);
                }
            }
        }
    }

    /// Commit-time certification: computes the edges this commit would add
    /// and applies the two flag rules. `Err(())` means the dangerous
    /// structure must be broken by aborting the acting transaction.
    fn certify(&self, local: &TxLocal) -> Result<Edges, ()> {
        let me = local.ticket;
        let info = &self.txns[&me];
        let my_begin = info.begin_seq;
        let mut into_me: Vec<Ticket> = local.wr_in.clone();
        let mut out_of_me: Vec<Ticket> = local.rw_out.clone();
        for &var in &local.writes {
            if let Some(marks) = self.vars.get(&var) {
                let latest = marks.latest();
                for &(reader, version) in &marks.sireads {
                    if reader == me {
                        continue;
                    }
                    if version == latest && self.concurrent_with(reader, my_begin) {
                        // rw in: the reader's snapshot is overwritten by me.
                        into_me.push(reader);
                    } else if version == latest + 1 {
                        // wr out: the reader already observed my tentative
                        // version (engines with visible long writes).
                        out_of_me.push(reader);
                    }
                }
                // ww in: the immediately preceding writer, when concurrent.
                if let Some(&(writer, committed)) = marks.writers.last() {
                    if writer != me && committed > my_begin {
                        into_me.push(writer);
                    }
                }
            }
        }
        // Rule 1: never commit both-flagged (I would be the pivot).
        let my_in = info.in_conflict || !into_me.is_empty();
        let my_out = info.out_conflict || !out_of_me.is_empty();
        if my_in && my_out {
            return Err(());
        }
        // Rule 2: never let a *committed* transaction become both-flagged —
        // its abort window is gone, so the acting transaction aborts
        // instead. (A still-active counterpart may become both-flagged; it
        // will fail rule 1 at its own commit.)
        for &ticket in &into_me {
            if let Some(other) = self.txns.get(&ticket) {
                if other.commit_seq.is_some() && other.in_conflict {
                    return Err(());
                }
            }
        }
        for &ticket in &out_of_me {
            if let Some(other) = self.txns.get(&ticket) {
                if other.commit_seq.is_some() && other.out_conflict {
                    return Err(());
                }
            }
        }
        Ok(Edges { into_me, out_of_me })
    }

    /// Installs a successful commit: new versions, commit seq, and the
    /// certified flag mutations on both edge endpoints.
    fn finish_commit(&mut self, local: &TxLocal, edges: Edges) {
        let me = local.ticket;
        let commit_seq = self.tick();
        for &var in &local.writes {
            self.vars
                .entry(var)
                .or_default()
                .writers
                .push((me, commit_seq));
        }
        let info = self.txns.get_mut(&me).expect("committing tx is tracked");
        info.commit_seq = Some(commit_seq);
        if !edges.into_me.is_empty() {
            info.in_conflict = true;
        }
        if !edges.out_of_me.is_empty() {
            info.out_conflict = true;
        }
        for ticket in edges.into_me {
            if let Some(other) = self.txns.get_mut(&ticket) {
                other.out_conflict = true;
            }
        }
        for ticket in edges.out_of_me {
            if let Some(other) = self.txns.get_mut(&ticket) {
                other.in_conflict = true;
            }
        }
        self.collect();
    }

    /// Erases an aborted transaction: its marks never became visible
    /// dependencies, so they are scrubbed entirely.
    fn forget(&mut self, local: &TxLocal) {
        let me = local.ticket;
        for &var in &local.read_vars {
            if let Some(marks) = self.vars.get_mut(&var) {
                marks.sireads.retain(|&(t, _)| t != me);
            }
        }
        self.txns.remove(&me);
        self.collect();
    }

    /// Flag lifetime after commit: a committed transaction's record (and
    /// its SIREAD marks) must survive while any live transaction overlaps
    /// it — later commits still consult the flags. Once every live
    /// transaction began after its commit, only forward edges can ever
    /// reach it, so the record is garbage; ancient writer entries are
    /// pruned the same way (keeping the version numbering via `pruned`).
    fn collect(&mut self) {
        let horizon = self
            .txns
            .values()
            .filter(|t| t.commit_seq.is_none())
            .map(|t| t.begin_seq)
            .min();
        let dead: Vec<Ticket> = self
            .txns
            .iter()
            .filter(|(_, t)| t.commit_seq.is_some_and(|c| horizon.is_none_or(|h| c < h)))
            .map(|(&ticket, _)| ticket)
            .collect();
        if dead.is_empty() {
            return;
        }
        for marks in self.vars.values_mut() {
            marks.sireads.retain(|(t, _)| !dead.contains(t));
            let cut = match horizon {
                None => marks.writers.len(),
                Some(h) => marks.writers.iter().take_while(|&&(_, c)| c < h).count(),
            };
            if cut > 0 {
                marks.writers.drain(..cut);
                marks.pruned += cut as u64;
            }
        }
        for ticket in &dead {
            self.txns.remove(ticket);
        }
    }
}

/// State shared by every thread of one [`CertifiedFactory`].
struct CertShared {
    state: Mutex<CertState>,
    tap: Arc<TapSink>,
    next_var: AtomicU64,
}

/// An engine wrapped with online SSI certification.
///
/// Implements [`TmFactory`] by delegating to the inner engine and running
/// the certifier around every transaction; see the crate docs for the
/// protocol. Built with [`CertifiedFactory::new`], which installs the
/// event-stream tap into the engine's [`StmConfig`] before construction.
pub struct CertifiedFactory<F: TmFactory> {
    inner: Arc<F>,
    shared: Arc<CertShared>,
}

impl<F: TmFactory> CertifiedFactory<F> {
    /// Builds the inner engine from `config` (with the certifier's event
    /// tap chained in front of the configured sink) and wraps it.
    ///
    /// ```
    /// use zstm_certify::CertifiedFactory;
    /// use zstm_core::{StmConfig, TmFactory};
    /// use zstm_lsa::LsaStm;
    ///
    /// let certified = CertifiedFactory::new(StmConfig::new(4), LsaStm::new);
    /// assert_eq!(certified.name(), "certified-lsa");
    /// ```
    pub fn new(config: StmConfig, build: impl FnOnce(StmConfig) -> F) -> Self {
        let tap = Arc::new(TapSink {
            forward: Arc::clone(config.sink()),
            reads: Mutex::new(Vec::new()),
        });
        let mut config = config;
        config.event_sink(Arc::clone(&tap) as Arc<dyn EventSink>);
        let inner = Arc::new(build(config));
        Self {
            inner,
            shared: Arc::new(CertShared {
                state: Mutex::new(CertState::default()),
                tap,
                next_var: AtomicU64::new(0),
            }),
        }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &Arc<F> {
        &self.inner
    }

    #[doc(hidden)]
    pub fn footprint(&self) -> (usize, usize, usize) {
        let state = self.shared.state.lock();
        let sireads = state.vars.values().map(|m| m.sireads.len()).sum();
        let writers = state.vars.values().map(|m| m.writers.len()).sum();
        (state.txns.len(), sireads, writers)
    }
}

/// Transactional variable of a certified engine: the inner engine's var
/// plus a certifier-assigned identity.
pub struct CertVar<F: TmFactory, T: TxValue> {
    inner: F::Var<T>,
    id: u64,
}

impl<F: TmFactory, T: TxValue> CertVar<F, T> {
    /// The wrapped engine variable.
    pub fn inner(&self) -> &F::Var<T> {
        &self.inner
    }
}

/// Per-logical-thread context of a certified engine.
pub struct CertifiedThread<F: TmFactory> {
    inner: F::Thread,
    shared: Arc<CertShared>,
}

/// An active certified transaction.
///
/// Reads and commits run under the certifier mutex; holding it across the
/// inner engine call is deadlock-free because every contention-management
/// policy stops waiting on an active opponent within 16 + its karma rounds
/// ([`zstm_core::CmPolicy::resolve`]; the property test
/// `every_policy_stops_waiting_within_its_bound` in `zstm-core`'s `cm`
/// module checks it), so an engine operation blocked on a thread that is
/// itself parked on the certifier mutex terminates with an abort.
pub struct CertifiedTx<'a, F: TmFactory> {
    inner: Option<<F::Thread as TmThread>::Tx<'a>>,
    shared: Arc<CertShared>,
    local: TxLocal,
}

struct TxLocal {
    ticket: Ticket,
    /// Concurrent committed writers whose versions this tx read (wr in).
    wr_in: Vec<Ticket>,
    /// Committed overwriters of versions this tx read stale (rw out).
    rw_out: Vec<Ticket>,
    /// Vars carrying this tx's SIREAD marks (scrubbed on abort).
    read_vars: Vec<u64>,
    /// Distinct vars written.
    writes: Vec<u64>,
}

impl TxLocal {
    fn new(ticket: Ticket) -> Self {
        Self {
            ticket,
            wr_in: Vec::new(),
            rw_out: Vec::new(),
            read_vars: Vec::new(),
            writes: Vec::new(),
        }
    }
}

impl<F: TmFactory> TmFactory for CertifiedFactory<F> {
    type Var<T: TxValue> = CertVar<F, T>;
    type Thread = CertifiedThread<F>;

    fn new_var<T: TxValue>(&self, init: T) -> CertVar<F, T> {
        CertVar {
            inner: self.inner.new_var(init),
            id: self.shared.next_var.fetch_add(1, Ordering::Relaxed),
        }
    }

    fn var_id<T: TxValue>(var: &CertVar<F, T>) -> ObjId {
        F::var_id(&var.inner)
    }

    fn var_handles<T: TxValue>(var: &CertVar<F, T>) -> usize {
        F::var_handles(&var.inner)
    }

    fn register_thread(self: &Arc<Self>) -> CertifiedThread<F> {
        CertifiedThread {
            inner: self.inner.register_thread(),
            shared: Arc::clone(&self.shared),
        }
    }

    fn max_threads(&self) -> Option<usize> {
        self.inner.max_threads()
    }

    fn name(&self) -> &'static str {
        match self.inner.name() {
            "lsa" => "certified-lsa",
            "lsa-noreadsets" => "certified-lsa-noreadsets",
            "tl2" => "certified-tl2",
            "cs" => "certified-cs",
            "s-stm" => "certified-s-stm",
            "z-stm" => "certified-z-stm",
            _ => "certified",
        }
    }
}

impl<F: TmFactory> TmThread for CertifiedThread<F> {
    type Factory = CertifiedFactory<F>;
    type Tx<'a> = CertifiedTx<'a, F>;

    fn begin(&mut self, kind: TxKind) -> CertifiedTx<'_, F> {
        let shared = Arc::clone(&self.shared);
        // Hold the certifier mutex across the engine begin so the begin
        // seq is exact w.r.t. engine commit order (concurrency decisions
        // stay precise, not merely conservative).
        let mut state = shared.state.lock();
        let ticket = state.begin_tx();
        let inner = self.inner.begin(kind);
        drop(state);
        CertifiedTx {
            inner: Some(inner),
            shared,
            local: TxLocal::new(ticket),
        }
    }

    fn ctx(&self) -> &ThreadCtx {
        self.inner.ctx()
    }

    fn ctx_mut(&mut self) -> &mut ThreadCtx {
        self.inner.ctx_mut()
    }
}

impl<F: TmFactory> TmTx for CertifiedTx<'_, F> {
    type Factory = CertifiedFactory<F>;

    fn read<T: TxValue>(&mut self, var: &CertVar<F, T>) -> Result<T, Abort> {
        let shared = Arc::clone(&self.shared);
        let mut state = shared.state.lock();
        shared.tap.clear_reads();
        let result = self
            .inner
            .as_mut()
            .expect("transaction finished")
            .read(&var.inner);
        if result.is_ok() {
            if let Some(version) = shared.tap.last_read() {
                state.note_read(&mut self.local, var.id, version);
            }
        }
        result
    }

    fn write<T: TxValue>(&mut self, var: &CertVar<F, T>, value: T) -> Result<(), Abort> {
        // No certifier state is touched: versions are installed at commit,
        // and the write set is tx-local. The engine synchronizes itself.
        let result = self
            .inner
            .as_mut()
            .expect("transaction finished")
            .write(&var.inner, value);
        if result.is_ok() && !self.local.writes.contains(&var.id) {
            self.local.writes.push(var.id);
        }
        result
    }

    fn commit(mut self) -> Result<(), Abort> {
        let inner = self.inner.take().expect("transaction finished");
        let shared = Arc::clone(&self.shared);
        let mut state = shared.state.lock();
        match state.certify(&self.local) {
            Err(()) => {
                state.forget(&self.local);
                drop(state);
                // The engine's rollback path records the abort in the
                // thread stats and emits the Abort event — certification
                // aborts flow through the existing machinery unchanged.
                inner.rollback(AbortReason::Certification);
                Err(Abort::new(AbortReason::Certification))
            }
            Ok(edges) => match inner.commit() {
                Ok(()) => {
                    state.finish_commit(&self.local, edges);
                    Ok(())
                }
                Err(abort) => {
                    state.forget(&self.local);
                    Err(abort)
                }
            },
        }
    }

    fn rollback(mut self, reason: AbortReason) {
        let inner = self.inner.take().expect("transaction finished");
        {
            let mut state = self.shared.state.lock();
            state.forget(&self.local);
        }
        inner.rollback(reason);
    }

    fn id(&self) -> TxId {
        self.inner.as_ref().expect("transaction finished").id()
    }

    fn kind(&self) -> TxKind {
        self.inner.as_ref().expect("transaction finished").kind()
    }
}

impl<F: TmFactory> Drop for CertifiedTx<'_, F> {
    fn drop(&mut self) {
        // Commit and rollback take the inner tx out first; a certified tx
        // dropped raw (leaked attempt) must still scrub its marks. The
        // engine transaction then rolls itself back as the field drops.
        if self.inner.is_some() {
            let mut state = self.shared.state.lock();
            state.forget(&self.local);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zstm_core::atomically;
    use zstm_core::RetryPolicy;
    use zstm_cs::CsStm;
    use zstm_history::{check_serializable, Recorder};
    use zstm_lsa::LsaStm;

    #[test]
    fn values_flow_through_certification() {
        let stm = Arc::new(CertifiedFactory::new(StmConfig::new(1), LsaStm::new));
        let var = stm.new_var(0i64);
        let mut thread = stm.register_thread();
        let policy = RetryPolicy::default();
        for i in 1..=10 {
            let value = atomically(&mut thread, TxKind::Short, &policy, |tx| {
                let v = tx.read(&var)?;
                tx.write(&var, v + 1)?;
                Ok(v + 1)
            })
            .unwrap();
            assert_eq!(value, i);
        }
        assert_eq!(thread.take_stats().certification_aborts(), 0);
    }

    #[test]
    fn name_maps_to_certified_variant() {
        let lsa = CertifiedFactory::new(StmConfig::new(1), LsaStm::new);
        assert_eq!(lsa.name(), "certified-lsa");
        let cs = CertifiedFactory::new(StmConfig::new(1), CsStm::with_vector_clock);
        assert_eq!(cs.name(), "certified-cs");
        assert_eq!(lsa.max_threads(), Some(1));
    }

    /// Write skew on CS-STM: both transactions commit under the native
    /// causal criterion; the certifier must abort exactly the second
    /// committer (the pivot of the dangerous structure).
    #[test]
    fn write_skew_aborts_exactly_one() {
        let stm = Arc::new(CertifiedFactory::new(
            StmConfig::new(2),
            CsStm::with_vector_clock,
        ));
        let x = stm.new_var(0i64);
        let y = stm.new_var(0i64);
        let mut t0 = stm.register_thread();
        let mut t1 = stm.register_thread();

        let mut a = t0.begin(TxKind::Short);
        let mut b = t1.begin(TxKind::Short);
        let ax = a.read(&x).unwrap();
        let ay = a.read(&y).unwrap();
        let bx = b.read(&x).unwrap();
        let by = b.read(&y).unwrap();
        a.write(&x, ax + ay + 1).unwrap();
        b.write(&y, bx + by + 1).unwrap();
        a.commit().expect("first committer passes certification");
        let err = b.commit().expect_err("second committer is the pivot");
        assert_eq!(err.reason(), AbortReason::Certification);
        assert_eq!(t1.take_stats().certification_aborts(), 1);
        assert_eq!(t0.take_stats().certification_aborts(), 0);
    }

    /// A single rw antidependency is not a dangerous structure: the
    /// exact-edge certifier must not abort either transaction.
    #[test]
    fn benign_single_antidependency_commits() {
        let stm = Arc::new(CertifiedFactory::new(
            StmConfig::new(2),
            CsStm::with_vector_clock,
        ));
        let x = stm.new_var(0i64);
        let mut t0 = stm.register_thread();
        let mut t1 = stm.register_thread();

        let mut reader = t0.begin(TxKind::Short);
        let _ = reader.read(&x).unwrap();
        let mut writer = t1.begin(TxKind::Short);
        writer.write(&x, 7).unwrap();
        writer.commit().expect("writer commits");
        reader
            .commit()
            .expect("stale reader commits: one edge, no pivot");
        assert_eq!(t0.take_stats().certification_aborts(), 0);
        assert_eq!(t1.take_stats().certification_aborts(), 0);
    }

    /// Fekete et al.'s read-only anomaly: the read-only transaction makes
    /// the history non-serializable even though no two writers conflict.
    /// The certifier must abort the both-flagged pivot.
    #[test]
    fn read_only_anomaly_aborts_pivot() {
        let stm = Arc::new(CertifiedFactory::new(
            StmConfig::new(3),
            CsStm::with_vector_clock,
        ));
        let x = stm.new_var(0i64);
        let y = stm.new_var(0i64);
        let mut ta = stm.register_thread();
        let mut tb = stm.register_thread();
        let mut tc = stm.register_thread();

        // T1 snapshots x and y, will write x last.
        let mut t1 = ta.begin(TxKind::Short);
        let t1x = t1.read(&x).unwrap();
        let _ = t1.read(&y).unwrap();
        // T2 updates y and commits first.
        let mut t2 = tb.begin(TxKind::Short);
        let t2y = t2.read(&y).unwrap();
        t2.write(&y, t2y + 10).unwrap();
        t2.commit().expect("T2 commits");
        // T3 (read-only) begins after T2's commit and sees its update.
        let mut t3 = tc.begin(TxKind::Short);
        let _ = t3.read(&x).unwrap();
        let t3y = t3.read(&y).unwrap();
        assert_eq!(t3y, 10);
        t3.commit().expect("read-only T3 commits");
        // T1 now closes the dangerous structure: rw T1->T2 and rw T3->T1.
        t1.write(&x, t1x - 5).unwrap();
        let err = t1.commit().expect_err("T1 is the both-flagged pivot");
        assert_eq!(err.reason(), AbortReason::Certification);
    }

    /// The user's sink still sees the full event stream through the tap,
    /// and the recorded certified history is serializable.
    #[test]
    fn tap_forwards_events_to_recorder() {
        let recorder = Arc::new(Recorder::new());
        let mut config = StmConfig::new(2);
        config.event_sink(Arc::clone(&recorder) as Arc<dyn EventSink>);
        let stm = Arc::new(CertifiedFactory::new(config, CsStm::with_vector_clock));
        let x = stm.new_var(0i64);
        let y = stm.new_var(0i64);
        let mut t0 = stm.register_thread();
        let mut t1 = stm.register_thread();

        let mut a = t0.begin(TxKind::Short);
        let mut b = t1.begin(TxKind::Short);
        let _ = a.read(&y).unwrap();
        let _ = b.read(&x).unwrap();
        a.write(&x, 1).unwrap();
        b.write(&y, 1).unwrap();
        a.commit().expect("first committer passes");
        assert!(b.commit().is_err());

        let history = recorder.history();
        assert_eq!(history.committed().count(), 1);
        assert!(history.find_dirty_read().is_none());
        check_serializable(&history).expect("certified history is serializable");
    }

    /// Flag lifetime: once no live transaction overlaps them, committed
    /// records, SIREAD marks and ancient writer entries are collected.
    #[test]
    fn certifier_state_is_collected() {
        let stm = Arc::new(CertifiedFactory::new(StmConfig::new(1), LsaStm::new));
        let var = stm.new_var(0i64);
        let mut thread = stm.register_thread();
        let policy = RetryPolicy::default();
        for _ in 0..50 {
            atomically(&mut thread, TxKind::Short, &policy, |tx| {
                let v = tx.read(&var)?;
                tx.write(&var, v + 1)
            })
            .unwrap();
        }
        let (txns, sireads, writers) = stm.footprint();
        assert_eq!(txns, 0, "committed records outlived the GC horizon");
        assert_eq!(sireads, 0, "SIREAD marks leaked");
        assert_eq!(writers, 0, "writer history leaked");
    }
}
