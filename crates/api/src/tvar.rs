//! Shareable typed transactional variables.

use std::sync::Arc;

use zstm_core::{TmFactory, TxValue};

/// A shareable, cheap-to-clone handle to a transactional variable of the
/// STM `F` holding a `T`.
///
/// `TVar`s are created with [`Stm::new_tvar`](crate::Stm::new_tvar) and
/// read/written inside [`Stm::atomically`](crate::Stm::atomically) bodies
/// through the [`Tx`](crate::Tx) handle. Cloning shares the underlying
/// variable (an `Arc` bump), so handles can be captured by worker-thread
/// closures freely.
///
/// # Examples
///
/// ```
/// use zstm_api::Stm;
/// use zstm_core::{StmConfig, TxKind};
/// use zstm_lsa::LsaStm;
///
/// let stm = Stm::new(LsaStm::new(StmConfig::new(1)));
/// let balance = stm.new_tvar(100i64);
/// let snapshot = balance.clone(); // same variable
/// stm.atomically(TxKind::Short, |tx| tx.modify(&balance, |b| *b += 1));
/// let v = stm.atomically(TxKind::Short, |tx| tx.read(&snapshot));
/// assert_eq!(v, 101);
/// ```
pub struct TVar<F: TmFactory, T: TxValue> {
    pub(crate) var: Arc<F::Var<T>>,
    /// `Notifier::channel` of the engine object's id, looked up once.
    pub(crate) channel: u64,
}

impl<F: TmFactory, T: TxValue> TVar<F, T> {
    /// Wraps an engine-level variable in a shareable handle.
    ///
    /// Usually called through [`Stm::new_tvar`](crate::Stm::new_tvar);
    /// exposed so existing code holding raw `F::Var<T>`s can migrate
    /// piecemeal.
    pub fn from_raw(var: F::Var<T>) -> Self {
        let channel = crate::Notifier::channel(F::var_id(&var));
        let var = Arc::new(var);
        Self { var, channel }
    }

    /// The underlying engine variable, for interop with the raw
    /// [`TmTx`](zstm_core::TmTx) SPI.
    pub fn raw(&self) -> &F::Var<T> {
        &self.var
    }
}

impl<F: TmFactory, T: TxValue> Clone for TVar<F, T> {
    fn clone(&self) -> Self {
        Self {
            var: Arc::clone(&self.var),
            channel: self.channel,
        }
    }
}

impl<F: TmFactory, T: TxValue> std::fmt::Debug for TVar<F, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TVar").finish_non_exhaustive()
    }
}
