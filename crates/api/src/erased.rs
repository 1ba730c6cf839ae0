//! The object-safe erased facade: select an STM at runtime.
//!
//! [`TmFactory`] cannot be a trait object (generic associated types), so a
//! driver that picks one of the five engines from a CLI flag would have to
//! be monomorphized five times. [`DynStm`] erases the factory behind an
//! object-safe trait over `i64` and byte-string variables — enough for the
//! workload harnesses and figure drivers — while delegating to the typed
//! [`Stm`] front end underneath, so leasing, parking and `or_else` all
//! work identically.
//!
//! A byte-string variable holds an immutable shared payload, `Arc<[u8]>`,
//! as the engine's value type. [`DynTx::read_bytes_with`] lends the bytes
//! of the version the read chose to a closure — in place, under the
//! attempt's epoch pin, with no reference count taken
//! ([`TmTx::read_with`](zstm_core::TmTx::read_with)) — and
//! [`DynTx::write_shared`] installs a payload as is;
//! [`DynTx::read_bytes`]/[`DynTx::write_bytes`] are the same accesses plus
//! a copy out of or into a `Vec<u8>`.
//!
//! ```
//! use std::sync::Arc;
//! use zstm_api::{DynStm, Stm};
//! use zstm_core::{RetryPolicy, StmConfig, TxKind};
//! use zstm_lsa::LsaStm;
//! use zstm_tl2::Tl2Stm;
//!
//! let engines: Vec<Arc<dyn DynStm>> = vec![
//!     Arc::new(Stm::new(LsaStm::new(StmConfig::new(1)))),
//!     Arc::new(Stm::new(Tl2Stm::new(StmConfig::new(1)))),
//! ];
//! for stm in engines {
//!     let var = stm.new_i64(40);
//!     let v = stm
//!         .atomically(TxKind::Short, &RetryPolicy::unbounded(), |tx| {
//!             let v = tx.read_i64(&var)? + 2;
//!             tx.write_i64(&var, v)?;
//!             Ok(v)
//!         })
//!         .unwrap();
//!     assert_eq!(v, 42);
//! }
//! ```

use std::any::Any;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;

use zstm_core::{Abort, AbortReason, RetryExhausted, RetryPolicy, TmFactory, TxKind, TxStats};

use crate::block::UNBOUNDED;
use crate::{Stm, TVar, TryTxFuture, Tx};

/// A type-erased transaction body (the object-safe spelling of the typed
/// closures).
pub type DynBody<'a> = dyn FnMut(&mut dyn DynTx) -> Result<(), Abort> + 'a;

/// A type-erased **async** transaction body: `Send + 'static` (unlike
/// [`DynBody`]) because the future that owns it may be spawned onto a
/// multi-threaded executor. The body itself stays synchronous — attempts
/// never suspend (see [`TxFuture`](crate::TxFuture)); only the *block*
/// does, between attempts.
pub type DynAsyncBody = Box<dyn FnMut(&mut dyn DynTx) -> Result<(), Abort> + Send + 'static>;

/// The boxed future returned by the object-safe async entry point
/// ([`DynStm::try_atomically_async_dyn`]): resolves with the
/// [`RetryExhausted`] error when the policy's budget runs out.
pub type DynTryFuture = Pin<Box<dyn Future<Output = Result<(), RetryExhausted>> + Send + 'static>>;

/// A type-erased transactional variable handle.
///
/// Created by [`DynStm::new_i64`] / [`DynStm::new_bytes`] and only usable
/// with the `DynStm` *instance* that created it — the handle carries both
/// its concrete type and its origin's instance id, so using it under a
/// different engine type **or** a different instance of the same type
/// panics instead of silently mixing two STMs' clocks.
#[derive(Clone)]
pub struct DynVar {
    inner: Arc<dyn Any + Send + Sync>,
    /// Instance id of the `Stm` that created this var.
    stm_id: u64,
}

impl DynVar {
    fn new<F: TmFactory, T: zstm_core::TxValue>(var: TVar<F, T>, stm_id: u64) -> Self {
        Self {
            inner: Arc::new(var),
            stm_id,
        }
    }

    fn downcast<F: TmFactory, T: zstm_core::TxValue>(&self, stm_id: u64) -> &TVar<F, T> {
        assert_eq!(
            self.stm_id, stm_id,
            "DynVar used with a different DynStm instance than the one that created it"
        );
        self.inner
            .downcast_ref::<TVar<F, T>>()
            .expect("DynVar used with the DynStm (and value type) that created it")
    }
}

impl std::fmt::Debug for DynVar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynVar").finish_non_exhaustive()
    }
}

/// Object-safe view of an active transaction, over `i64` and byte-string
/// variables. A byte-string read that only inspects the bytes lends them
/// ([`DynTx::read_bytes_with`], or `map_bytes` on `dyn DynTx`): no copy
/// and no reference count.
pub trait DynTx {
    /// Reads an `i64` variable.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if the engine cannot provide a consistent value.
    fn read_i64(&mut self, var: &DynVar) -> Result<i64, Abort>;

    /// Writes an `i64` variable.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflicts resolved against this transaction.
    fn write_i64(&mut self, var: &DynVar, value: i64) -> Result<(), Abort>;

    /// Reads a byte-string variable into a vector the caller owns.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if the engine cannot provide a consistent value.
    fn read_bytes(&mut self, var: &DynVar) -> Result<Vec<u8>, Abort>;

    /// Writes a byte-string variable.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflicts resolved against this transaction.
    fn write_bytes(&mut self, var: &DynVar, value: Vec<u8>) -> Result<(), Abort>;

    /// Reads a byte-string variable by lending its bytes to `f`, without
    /// copying them: what a caller that only inspects the bytes wants;
    /// [`read_bytes`](Self::read_bytes) is this plus a copy into a vector
    /// the caller owns. [`Tx`] lends the committed (or this transaction's
    /// own tentative) payload itself, with
    /// [`TmTx::read_with`](zstm_core::TmTx::read_with)'s contract: `f` may
    /// run more than once, and only its last run saw the version the read
    /// returns — so `f` should only compute what the caller keeps. On `Ok`
    /// it has run at least once.
    ///
    /// The default goes through `read_bytes`, so a wrapper that
    /// implements only the required methods stays correct (and pays the
    /// copy).
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if the engine cannot provide a consistent value.
    fn read_bytes_with(&mut self, var: &DynVar, f: &mut dyn FnMut(&[u8])) -> Result<(), Abort> {
        f(&self.read_bytes(var)?);
        Ok(())
    }

    /// Writes a byte-string variable from an already shared payload, which
    /// becomes the variable's value as is (no copy). The default goes
    /// through [`write_bytes`](Self::write_bytes).
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflicts resolved against this transaction.
    fn write_shared(&mut self, var: &DynVar, value: Arc<[u8]>) -> Result<(), Abort> {
        self.write_bytes(var, value.to_vec())
    }

    /// The blocking-retry abort: `return Err(tx.retry());` parks the
    /// atomic block until another transaction commits writes (exactly
    /// [`Tx::retry`]).
    fn retry(&self) -> Abort;

    /// The transaction's short/long classification.
    fn kind(&self) -> TxKind;
}

impl dyn DynTx + '_ {
    /// Typed-return convenience over [`DynTx::read_bytes_with`]: what `f`
    /// made of the bytes the read settled on.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if the engine cannot provide a consistent value.
    pub fn map_bytes<R>(
        &mut self,
        var: &DynVar,
        mut f: impl FnMut(&[u8]) -> R,
    ) -> Result<R, Abort> {
        let mut out = None;
        self.read_bytes_with(var, &mut |bytes| out = Some(f(bytes)))?;
        Ok(out.expect("a read that returns Ok lent its bytes"))
    }
}

impl<F: TmFactory> DynTx for Tx<'_, F> {
    fn read_i64(&mut self, var: &DynVar) -> Result<i64, Abort> {
        let stm_id = self.stm_id;
        self.read(var.downcast::<F, i64>(stm_id))
    }

    fn write_i64(&mut self, var: &DynVar, value: i64) -> Result<(), Abort> {
        let stm_id = self.stm_id;
        self.write(var.downcast::<F, i64>(stm_id), value)
    }

    fn read_bytes(&mut self, var: &DynVar) -> Result<Vec<u8>, Abort> {
        let stm_id = self.stm_id;
        self.read_with(var.downcast::<F, Arc<[u8]>>(stm_id), |bytes| bytes.to_vec())
    }

    fn write_bytes(&mut self, var: &DynVar, value: Vec<u8>) -> Result<(), Abort> {
        self.write_shared(var, Arc::from(value))
    }

    fn read_bytes_with(&mut self, var: &DynVar, f: &mut dyn FnMut(&[u8])) -> Result<(), Abort> {
        let stm_id = self.stm_id;
        self.read_with(var.downcast::<F, Arc<[u8]>>(stm_id), |bytes| f(bytes))
    }

    fn write_shared(&mut self, var: &DynVar, value: Arc<[u8]>) -> Result<(), Abort> {
        let stm_id = self.stm_id;
        self.write(var.downcast::<F, Arc<[u8]>>(stm_id), value)
    }

    fn retry(&self) -> Abort {
        Abort::new(AbortReason::Retry)
    }

    fn kind(&self) -> TxKind {
        Tx::kind(self)
    }
}

/// Object-safe view of an [`Stm`] handle: runtime-selectable engines for
/// the workload harnesses and figure drivers.
///
/// Implemented by every `Stm<F>`; obtain one with
/// `Arc::new(Stm::new(...)) as Arc<dyn DynStm>`. The convenience methods
/// with typed return values (`atomically`, `atomically_or_else`) live on
/// the trait object itself via the inherent `impl dyn DynStm`.
pub trait DynStm: Send + Sync {
    /// Short name of the underlying engine ("lsa", "z-stm", ...).
    fn name(&self) -> &'static str;

    /// Creates a type-erased `i64` variable.
    fn new_i64(&self, init: i64) -> DynVar;

    /// Creates a type-erased byte-string variable.
    fn new_bytes(&self, init: Vec<u8>) -> DynVar;

    /// Object-safe [`Stm::try_atomically`]: runs `body` (over the erased
    /// transaction view) until commit or budget exhaustion, with blocking
    /// [`DynTx::retry`] support.
    ///
    /// # Errors
    ///
    /// Returns [`RetryExhausted`] when `policy.max_attempts()` rounds all
    /// failed.
    fn atomically_dyn(
        &self,
        kind: TxKind,
        policy: &RetryPolicy,
        body: &mut DynBody<'_>,
    ) -> Result<(), RetryExhausted>;

    /// Object-safe [`Stm::try_atomically_or_else`]: `first` falling
    /// through to `second` on retry, parking only when both block.
    ///
    /// # Errors
    ///
    /// Returns [`RetryExhausted`] when the budget runs out.
    fn or_else_dyn(
        &self,
        kind: TxKind,
        policy: &RetryPolicy,
        first: &mut DynBody<'_>,
        second: &mut DynBody<'_>,
    ) -> Result<(), RetryExhausted>;

    /// The object-safe async atomic block: the returned future runs the
    /// `alternatives` (one for [`Stm::atomically_async`], two for
    /// [`Stm::atomically_or_else_async`]; left to right, falling through
    /// on [`DynTx::retry`]) until one commits or `policy`'s budget is
    /// spent. The task suspends — its waker registered on the commit
    /// notifier — only when every alternative blocks. With
    /// [`RetryPolicy::unbounded`] the future never resolves `Err`.
    /// Dropping it cancels the block and deregisters any pending wakeup.
    ///
    /// # Panics
    ///
    /// Panics if `alternatives` is empty.
    fn try_atomically_async_dyn(
        &self,
        kind: TxKind,
        policy: RetryPolicy,
        alternatives: Vec<DynAsyncBody>,
    ) -> DynTryFuture;

    /// Takes the statistics accumulated by every pooled context (see
    /// [`Stm::take_stats`]).
    fn take_stats(&self) -> TxStats;

    /// The same statistics without resetting them (see [`Stm::stats`]).
    fn stats(&self) -> TxStats;

    /// Returns the calling OS thread's cached engine contexts to the pool
    /// (see [`Stm::flush_local`]): what a thread that runs a transaction
    /// now and then calls so that it occupies no context in between.
    fn flush_local(&self);

    /// Engine contexts currently out of the pool (see
    /// [`Stm::leased_contexts`]).
    fn leased_contexts(&self) -> usize;

    /// Wakes every transaction currently parked in a blocking or async
    /// retry by bumping the commit notifier, exactly as a committing
    /// writer would. Woken transactions re-run their bodies; ones whose
    /// condition still does not hold park again.
    ///
    /// This is the shutdown hook for long-lived blocking services (the
    /// `zstm-server` `WAIT` command): flip an external stop flag the
    /// retrying bodies observe, then `notify_retries()` so parked
    /// transactions re-run and see it.
    fn notify_retries(&self);
}

impl<F: TmFactory> DynStm for Stm<F> {
    fn name(&self) -> &'static str {
        Stm::name(self)
    }

    fn new_i64(&self, init: i64) -> DynVar {
        DynVar::new(self.new_tvar(init), self.instance_id())
    }

    fn new_bytes(&self, init: Vec<u8>) -> DynVar {
        DynVar::new(
            self.new_tvar::<Arc<[u8]>>(Arc::from(init)),
            self.instance_id(),
        )
    }

    fn atomically_dyn(
        &self,
        kind: TxKind,
        policy: &RetryPolicy,
        body: &mut DynBody<'_>,
    ) -> Result<(), RetryExhausted> {
        self.try_atomically(kind, policy, |tx| body(tx))
    }

    fn or_else_dyn(
        &self,
        kind: TxKind,
        policy: &RetryPolicy,
        first: &mut DynBody<'_>,
        second: &mut DynBody<'_>,
    ) -> Result<(), RetryExhausted> {
        self.try_atomically_or_else(kind, policy, |tx| first(tx), |tx| second(tx))
    }

    fn try_atomically_async_dyn(
        &self,
        kind: TxKind,
        policy: RetryPolicy,
        alternatives: Vec<DynAsyncBody>,
    ) -> DynTryFuture {
        assert!(!alternatives.is_empty(), "an atomic block needs a body");
        let alternatives = alternatives
            .into_iter()
            .map(|mut body| Box::new(move |tx: &mut Tx<'_, F>| body(tx)) as _)
            .collect();
        Box::pin(TryTxFuture::new(self.clone(), kind, policy, alternatives))
    }

    fn take_stats(&self) -> TxStats {
        Stm::take_stats(self)
    }

    fn stats(&self) -> TxStats {
        Stm::stats(self)
    }

    fn flush_local(&self) {
        Stm::flush_local(self);
    }

    fn leased_contexts(&self) -> usize {
        Stm::leased_contexts(self)
    }

    fn notify_retries(&self) {
        self.notifier().notify();
    }
}

impl dyn DynStm + '_ {
    /// Typed-return convenience over [`DynStm::atomically_dyn`].
    ///
    /// # Errors
    ///
    /// Returns [`RetryExhausted`] when the policy's budget runs out.
    pub fn atomically<R>(
        &self,
        kind: TxKind,
        policy: &RetryPolicy,
        mut body: impl FnMut(&mut dyn DynTx) -> Result<R, Abort>,
    ) -> Result<R, RetryExhausted> {
        let mut out = None;
        self.atomically_dyn(kind, policy, &mut |tx| {
            out = Some(body(tx)?);
            Ok(())
        })?;
        Ok(out.expect("committed body stored its result"))
    }

    /// Typed-return convenience over [`DynStm::or_else_dyn`].
    ///
    /// # Errors
    ///
    /// Returns [`RetryExhausted`] when the policy's budget runs out.
    pub fn atomically_or_else<R>(
        &self,
        kind: TxKind,
        policy: &RetryPolicy,
        mut first: impl FnMut(&mut dyn DynTx) -> Result<R, Abort>,
        mut second: impl FnMut(&mut dyn DynTx) -> Result<R, Abort>,
    ) -> Result<R, RetryExhausted> {
        let out = std::cell::RefCell::new(None);
        self.or_else_dyn(
            kind,
            policy,
            &mut |tx| {
                *out.borrow_mut() = Some(first(tx)?);
                Ok(())
            },
            &mut |tx| {
                *out.borrow_mut() = Some(second(tx)?);
                Ok(())
            },
        )?;
        Ok(out
            .into_inner()
            .expect("committed alternative stored its result"))
    }

    /// Typed-return convenience over [`DynStm::try_atomically_async_dyn`]
    /// with an unbounded policy: an `await`-able atomic block on a
    /// runtime-selected engine.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use zstm_api::{DynStm, Stm};
    /// use zstm_core::{StmConfig, TxKind};
    /// use zstm_lsa::LsaStm;
    /// use zstm_util::exec::block_on;
    ///
    /// let stm: Arc<dyn DynStm> = Arc::new(Stm::new(LsaStm::new(StmConfig::new(1))));
    /// let var = stm.new_i64(41);
    /// let v = block_on(stm.atomically_async(TxKind::Short, move |tx| {
    ///     let v = tx.read_i64(&var)? + 1;
    ///     tx.write_i64(&var, v)?;
    ///     Ok(v)
    /// }));
    /// assert_eq!(v, 42);
    /// ```
    pub fn atomically_async<R: Send + 'static>(
        &self,
        kind: TxKind,
        body: impl FnMut(&mut dyn DynTx) -> Result<R, Abort> + Send + 'static,
    ) -> impl Future<Output = R> + Send + 'static {
        let slot = ResultSlot::new();
        let alternatives = vec![slot.filled_by(body)];
        let block = self.try_atomically_async_dyn(kind, RetryPolicy::unbounded(), alternatives);
        async move { slot.after(block).await.expect(UNBOUNDED) }
    }

    /// Typed-return convenience over [`DynStm::try_atomically_async_dyn`]:
    /// an `await`-able **budgeted** atomic block on a runtime-selected
    /// engine, resolving `Err(RetryExhausted)` when the budget runs out.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    /// use zstm_api::{DynStm, Stm};
    /// use zstm_core::{AbortReason, RetryPolicy, StmConfig, TxKind};
    /// use zstm_lsa::LsaStm;
    /// use zstm_util::exec::block_on;
    ///
    /// let stm: Arc<dyn DynStm> = Arc::new(Stm::new(LsaStm::new(StmConfig::new(1))));
    /// let policy = RetryPolicy::default().with_max_attempts(3);
    /// let err = block_on(stm.try_atomically_async(TxKind::Short, policy, move |tx| {
    ///     Err::<(), _>(tx.retry())
    /// }))
    /// .unwrap_err();
    /// assert_eq!(err.last_reason(), AbortReason::Retry);
    /// ```
    pub fn try_atomically_async<R: Send + 'static>(
        &self,
        kind: TxKind,
        policy: RetryPolicy,
        body: impl FnMut(&mut dyn DynTx) -> Result<R, Abort> + Send + 'static,
    ) -> impl Future<Output = Result<R, RetryExhausted>> + Send + 'static {
        let slot = ResultSlot::new();
        let alternatives = vec![slot.filled_by(body)];
        slot.after(self.try_atomically_async_dyn(kind, policy, alternatives))
    }

    /// Typed-return async `or_else`: [`DynStm::try_atomically_async_dyn`]
    /// with two alternatives and an unbounded policy.
    pub fn atomically_or_else_async<R: Send + 'static>(
        &self,
        kind: TxKind,
        first: impl FnMut(&mut dyn DynTx) -> Result<R, Abort> + Send + 'static,
        second: impl FnMut(&mut dyn DynTx) -> Result<R, Abort> + Send + 'static,
    ) -> impl Future<Output = R> + Send + 'static {
        let slot = ResultSlot::new();
        let alternatives = vec![slot.filled_by(first), slot.filled_by(second)];
        let block = self.try_atomically_async_dyn(kind, RetryPolicy::unbounded(), alternatives);
        async move { slot.after(block).await.expect(UNBOUNDED) }
    }
}

/// Where the erased async bodies of one block — which return `()` — leave
/// the typed result of the alternative that committed.
struct ResultSlot<R>(Arc<zstm_util::sync::Mutex<Option<R>>>);

impl<R: Send + 'static> ResultSlot<R> {
    fn new() -> Self {
        Self(Arc::new(zstm_util::sync::Mutex::new(None)))
    }

    /// `body`, erased: its result goes into the slot.
    fn filled_by(
        &self,
        mut body: impl FnMut(&mut dyn DynTx) -> Result<R, Abort> + Send + 'static,
    ) -> DynAsyncBody {
        let slot = Arc::clone(&self.0);
        Box::new(move |tx| {
            *slot.lock() = Some(body(tx)?);
            Ok(())
        })
    }

    /// The typed outcome of `block`, whose alternatives fill this slot.
    async fn after(self, block: DynTryFuture) -> Result<R, RetryExhausted> {
        block.await?;
        Ok(self
            .0
            .lock()
            .take()
            .expect("committed async body stored its result"))
    }
}
