use std::sync::Arc;

use crate::{Abort, AbortReason, ObjId, ThreadCtx, ThreadId, TxId, TxKind, TxStats};

/// Values that can live in transactional variables.
///
/// Reads return owned clones (invisible reads hand out snapshots, so the
/// caller must own the data), hence `Clone`; versions are shared between
/// threads, hence `Send + Sync`. Implemented automatically for every
/// suitable type.
pub trait TxValue: Clone + Send + Sync + 'static {}

impl<T: Clone + Send + Sync + 'static> TxValue for T {}

/// One STM instance: a factory for transactional variables and per-thread
/// contexts.
///
/// Each of the five STMs (LSA, TL2, CS, S, Z) implements this trait, which
/// is what lets a single workload/benchmark harness drive all of them. The
/// factory is shared behind an [`Arc`]; variables and threads borrow it
/// internally.
///
/// This trait trio ([`TmFactory`] / [`TmThread`] / [`TmTx`]) is the
/// **engine SPI**: the contract an STM engine implements. Application code
/// normally goes through the `zstm-api` front end (`Stm`, `TVar`,
/// `Stm::atomically`), which layers transparent thread leasing, composable
/// blocking (`retry`/`or_else`) and a type-erased facade on top of these
/// traits without the engines having to know.
pub trait TmFactory: Send + Sync + Sized + 'static {
    /// STM-specific transactional variable holding a `T`.
    ///
    /// The `'static` bound lets var handles be type-erased (boxed as
    /// `dyn Any`) by the runtime-selectable facade of the API layer; every
    /// engine's var is an `Arc`-shaped handle, so the bound costs nothing.
    type Var<T: TxValue>: Send + Sync + 'static;
    /// STM-specific per-logical-thread context.
    type Thread: TmThread<Factory = Self>;

    /// Creates a transactional variable with the given initial value (the
    /// initial version has version sequence 0).
    fn new_var<T: TxValue>(&self, init: T) -> Self::Var<T>;

    /// The id of the object behind `var`, the same for every clone of the
    /// handle (`zstm-api` derives the variable's wake channel from it).
    fn var_id<T: TxValue>(var: &Self::Var<T>) -> ObjId;

    /// Live handles of the variable behind `var`: its clones, wrapped or
    /// not. A read or write set holds none (diagnostics, tests).
    fn var_handles<T: TxValue>(var: &Self::Var<T>) -> usize;

    /// Registers the next logical thread and returns its context.
    ///
    /// # Panics
    ///
    /// Implementations may panic when more threads are registered than the
    /// STM was configured for.
    fn register_thread(self: &Arc<Self>) -> Self::Thread;

    /// Number of logical threads this STM was configured for, if bounded.
    ///
    /// The API layer's lease pool uses this to fail fast (with a clear
    /// message) instead of tripping the [`TmFactory::register_thread`]
    /// assertion when more OS threads run transactions concurrently than
    /// the STM supports. `None` means "not statically bounded"; the
    /// default.
    fn max_threads(&self) -> Option<usize> {
        None
    }

    /// Short name of the STM ("lsa", "z", ...) used in reports.
    fn name(&self) -> &'static str;
}

/// Per-logical-thread context of an STM.
///
/// Logical threads are explicit objects rather than OS-thread-locals so a
/// deterministic scenario driver can own several of them and interleave
/// their transactions from a single OS thread (how the paper's figures are
/// replayed as tests). A `TmThread` must still only be used by one OS
/// thread at a time (`&mut self` everywhere).
pub trait TmThread: Send + 'static {
    /// The owning factory type.
    type Factory: TmFactory;
    /// Active-transaction handle borrowing this context.
    type Tx<'a>: TmTx<Factory = Self::Factory>
    where
        Self: 'a;

    /// Starts a transaction of the given kind.
    fn begin(&mut self, kind: TxKind) -> Self::Tx<'_>;

    /// The shared per-thread bookkeeping (id, statistics, carried karma);
    /// every engine keeps one [`ThreadCtx`] and hands it out here, and the
    /// accessors below are provided from this pair.
    fn ctx(&self) -> &ThreadCtx;

    /// Mutable [`TmThread::ctx`].
    fn ctx_mut(&mut self) -> &mut ThreadCtx;

    /// This context's logical thread id.
    fn thread_id(&self) -> ThreadId {
        self.ctx().id()
    }

    /// Statistics accumulated by this thread so far.
    fn stats(&self) -> &TxStats {
        &self.ctx().stats
    }

    /// Mutable access to this thread's statistics, for layers *above* the
    /// engine that account work against the same per-thread counters —
    /// the `zstm-api` retry loop records condvar vs waker parks here.
    fn stats_mut(&mut self) -> &mut TxStats {
        &mut self.ctx_mut().stats
    }

    /// Takes the accumulated statistics, leaving zeroes behind.
    fn take_stats(&mut self) -> TxStats {
        std::mem::take(self.stats_mut())
    }
}

/// An active transaction.
///
/// Reads and writes return `Err(Abort)` when the transaction must restart;
/// user code propagates the error with `?` and the [`crate::atomically`]
/// loop retries. After an `Err`, the transaction is already doomed: the
/// only valid next step is [`TmTx::rollback`] (which the retry loop does).
///
/// Dropping a transaction that neither committed nor rolled back — a panic
/// unwinding through the body — **is** a rollback with
/// [`AbortReason::Explicit`]: every engine releases what the attempt held
/// and counts the abort, so no layer above needs a drop guard of its own.
pub trait TmTx {
    /// The owning factory type.
    type Factory: TmFactory;

    /// Reads the variable, returning a snapshot of its value.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if no consistent version can be provided.
    fn read<T: TxValue>(&mut self, var: &<Self::Factory as TmFactory>::Var<T>) -> Result<T, Abort>;

    /// Writes the variable (buffered or tentative until commit).
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on write conflicts resolved against this
    /// transaction.
    fn write<T: TxValue>(
        &mut self,
        var: &<Self::Factory as TmFactory>::Var<T>,
        value: T,
    ) -> Result<(), Abort>;

    /// Attempts to commit.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if validation fails; the transaction is rolled
    /// back.
    fn commit(self) -> Result<(), Abort>;

    /// Abandons the transaction, releasing every resource it holds.
    fn rollback(self, reason: AbortReason);

    /// This attempt's id.
    fn id(&self) -> TxId;

    /// The transaction's short/long classification.
    fn kind(&self) -> TxKind;
}
