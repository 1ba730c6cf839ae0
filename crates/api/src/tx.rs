//! The transaction handle passed to `Stm::atomically` bodies.

use zstm_core::{Abort, AbortReason, TmFactory, TmThread, TmTx, TxId, TxKind, TxValue};

use crate::TVar;

/// Shorthand for the engine-level transaction type of factory `F`.
pub(crate) type RawTx<'t, F> = <<F as TmFactory>::Thread as TmThread>::Tx<'t>;

/// An active transaction of the [`Stm`](crate::Stm) front end.
///
/// Wraps the engine's [`TmTx`] handle with [`TVar`]-typed accessors,
/// composable blocking ([`Tx::retry`]) and the read and write tracking the
/// commit notifier needs. Bodies receive `&mut Tx` and propagate [`Abort`]
/// with `?`:
///
/// ```
/// use zstm_api::Stm;
/// use zstm_core::{StmConfig, TxKind};
/// use zstm_z::ZStm;
///
/// let stm = Stm::new(ZStm::new(StmConfig::new(1)));
/// let acc = stm.new_tvar(10i64);
/// let v = stm.atomically(TxKind::Short, |tx| {
///     let v = tx.read(&acc)?;
///     tx.write(&acc, v + 5)?;
///     Ok(v + 5)
/// });
/// assert_eq!(v, 15);
/// ```
pub struct Tx<'t, F: TmFactory> {
    /// The engine transaction. Dropped without commit or rollback — a
    /// panic unwinding through the body — it rolls itself back.
    inner: RawTx<'t, F>,
    /// Notifier channels of the variables read and written so far.
    pub(crate) reads: u64,
    pub(crate) writes: u64,
    /// Id of the owning [`Stm`](crate::Stm) instance, so the erased
    /// facade can reject `DynVar`s from a different instance of the same
    /// engine type.
    pub(crate) stm_id: u64,
}

impl<'t, F: TmFactory> Tx<'t, F> {
    pub(crate) fn new(raw: RawTx<'t, F>, stm_id: u64) -> Self {
        Self {
            inner: raw,
            reads: 0,
            writes: 0,
            stm_id,
        }
    }

    pub(crate) fn into_raw(self) -> RawTx<'t, F> {
        self.inner
    }

    /// The engine-level transaction, for interop with raw `F::Var`s.
    ///
    /// Handing it out counts as reading and writing every variable: what
    /// the caller does with it is invisible from here, and a commit that
    /// wrote without telling the notifier would leave parked retries
    /// asleep. Its commit wakes whoever is parked, any commit its retry.
    pub fn raw(&mut self) -> &mut RawTx<'t, F> {
        (self.reads, self.writes) = (!0, !0);
        &mut self.inner
    }

    /// Reads the variable, returning a snapshot of its value.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if the engine cannot provide a consistent value;
    /// propagate it with `?` and the retry loop re-runs the body.
    pub fn read<T: TxValue>(&mut self, var: &TVar<F, T>) -> Result<T, Abort> {
        self.reads |= var.channel;
        self.inner.read(&var.var)
    }

    /// Reads the variable by lending its value to `f` instead of cloning
    /// it, and returns what `f` made of it ([`TmTx::read_with`]: `f` sees
    /// the committed version in place, may run more than once, and only
    /// the result for the version the read settles on is returned).
    ///
    /// # Errors
    ///
    /// As [`Tx::read`].
    pub fn read_with<T: TxValue, R>(
        &mut self,
        var: &TVar<F, T>,
        f: impl FnMut(&T) -> R,
    ) -> Result<R, Abort> {
        self.reads |= var.channel;
        self.inner.read_with(&var.var, f)
    }

    /// Writes the variable (buffered or tentative until commit).
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on write conflicts resolved against this
    /// transaction.
    pub fn write<T: TxValue>(&mut self, var: &TVar<F, T>, value: T) -> Result<(), Abort> {
        self.writes |= var.channel;
        self.inner.write(&var.var, value)
    }

    /// Reads, applies `f` in place, and writes back.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if the read or the write aborts.
    pub fn modify<T: TxValue>(
        &mut self,
        var: &TVar<F, T>,
        f: impl FnOnce(&mut T),
    ) -> Result<(), Abort> {
        let mut value = self.read(var)?;
        f(&mut value);
        self.write(var, value)
    }

    /// Blocks the atomic block until the world changes.
    ///
    /// Returning `tx.retry()` from a body rolls the attempt back with
    /// [`AbortReason::Retry`] and parks the thread on the owning
    /// [`Stm`](crate::Stm)'s commit notifier; the body is re-run after a
    /// writer of something this round read commits (of anything, if it read
    /// nothing; there are 64 wake channels, so now and then of something
    /// else). Inside an [`Stm::atomically_or_else`](crate::Stm::atomically_or_else)
    /// first alternative, a retry falls through to the second alternative
    /// instead of parking.
    ///
    /// # Errors
    ///
    /// Always returns `Err` — the retry abort to propagate with `return`
    /// or `?`.
    pub fn retry<R>(&self) -> Result<R, Abort> {
        Err(Abort::new(AbortReason::Retry))
    }

    /// This attempt's id.
    pub fn id(&self) -> TxId {
        self.inner.id()
    }

    /// The transaction's short/long classification.
    pub fn kind(&self) -> TxKind {
        self.inner.kind()
    }
}
