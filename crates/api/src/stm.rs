//! The `Stm` runtime handle: transparent thread leasing + the synchronous
//! driver of the atomic block (see [`crate::block`] for the block itself).

use std::any::Any;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use zstm_core::{
    Abort, RetryExhausted, RetryPolicy, TmFactory, TmThread, TxKind, TxStats, TxValue,
};

use crate::block::{Block, Step, UNBOUNDED};
use crate::notify::Notifier;
use crate::tx::Tx;
use crate::TVar;

/// Next unique id for [`Stm`] instances (keys the thread-local lease
/// cache).
static NEXT_STM_ID: AtomicU64 = AtomicU64::new(0);

/// One TLS cache entry: the owning [`Stm`]'s id, a monomorphized probe
/// saying whether that `Stm` still exists ([`stm_alive`]: the eviction
/// sweep cannot name `F`), and the boxed lease. The box is allocated once,
/// at checkout: running a transaction moves it out of the vector and back
/// in, never the lease out of the box.
type CacheEntry = (u64, fn(&dyn Any) -> bool, Box<dyn Any>);

thread_local! {
    /// Leased engine thread contexts cached by this OS thread, keyed by
    /// the owning [`Stm`]'s id. Dropping the vector at thread exit returns
    /// every context to its pool.
    static LEASES: RefCell<Vec<CacheEntry>> = const { RefCell::new(Vec::new()) };
}

/// Evicts cached leases whose `Stm` handles have all been dropped, so
/// long-lived threads do not accumulate leases (and pinned factories) of
/// short-lived `Stm`s. Runs when a thread checks a context out (see
/// [`Stm::checkout`]): a thread can only pile up orphans by meeting new
/// `Stm`s, and each one it meets sweeps the ones before it.
fn evict_orphaned_leases(leases: &mut Vec<CacheEntry>) {
    leases.retain(|(_, alive, boxed)| alive(boxed.as_ref()));
}

/// Whether the [`Stm`] behind a cached [`Lease<F>`] still exists: only
/// `Stm` handles hold its shared state strongly.
fn stm_alive<F: TmFactory>(boxed: &dyn Any) -> bool {
    let lease = boxed
        .downcast_ref::<Lease<F>>()
        .expect("probe stored next to a lease of its own type");
    lease.shared.strong_count() > 0
}

struct Pool<F: TmFactory> {
    /// Contexts currently not leased to any OS thread.
    free: Vec<F::Thread>,
    /// Logical threads registered with the factory so far.
    registered: usize,
    /// Statistics of every context that has come back, moved out of the
    /// context as it returns: a context that is out on lease again holds
    /// only what its current holder did, so a snapshot taken while other
    /// threads run transactions misses their unfinished work and nothing
    /// older.
    returned: TxStats,
}

struct StmShared<F: TmFactory> {
    factory: Arc<F>,
    pool: zstm_util::sync::Mutex<Pool<F>>,
    notifier: Notifier,
    id: u64,
}

/// A leased engine thread context; returns itself to the pool on drop
/// (including unwinds and OS-thread exit) — if the [`Stm`] is still
/// there: one that is gone has no pool to return it to.
struct Lease<F: TmFactory> {
    shared: Weak<StmShared<F>>,
    thread: Option<F::Thread>,
}

impl<F: TmFactory> Drop for Lease<F> {
    fn drop(&mut self) {
        if let (Some(mut thread), Some(shared)) = (self.thread.take(), self.shared.upgrade()) {
            let mut pool = shared.pool.lock();
            pool.returned.merge(&thread.take_stats());
            pool.free.push(thread);
        }
    }
}

/// The user-facing STM runtime handle.
///
/// `Stm` owns the engine factory and leases per-OS-thread [`TmThread`]
/// contexts transparently: the first transaction a given OS thread runs
/// checks a context out of a shared pool (registering a new logical
/// thread if none is free) and caches it in thread-local storage; later
/// transactions on the same thread reuse it with no synchronization, and
/// the context returns to the pool when the OS thread exits — so user
/// code never calls [`TmFactory::register_thread`] and short-lived worker
/// threads recycle logical-thread slots instead of exhausting them.
///
/// Cloning an `Stm` is cheap and shares the factory, the lease pool and
/// the commit notifier; clone it into every worker thread.
///
/// At most [`StmConfig::threads`](zstm_core::StmConfig) OS threads can run
/// transactions *concurrently* (each needs a leased context);
/// [`Stm::atomically`] panics with a descriptive message beyond that.
///
/// # Examples
///
/// ```
/// use zstm_api::Stm;
/// use zstm_core::{StmConfig, TxKind};
/// use zstm_z::ZStm;
///
/// let stm = Stm::new(ZStm::new(StmConfig::new(2)));
/// let counter = stm.new_tvar(0i64);
/// let worker = {
///     let (stm, counter) = (stm.clone(), counter.clone());
///     std::thread::spawn(move || {
///         stm.atomically(TxKind::Short, |tx| tx.modify(&counter, |c| *c += 1))
///     })
/// };
/// stm.atomically(TxKind::Short, |tx| tx.modify(&counter, |c| *c += 1));
/// worker.join().unwrap();
/// let total = stm.atomically(TxKind::Short, |tx| tx.read(&counter));
/// assert_eq!(total, 2);
/// ```
pub struct Stm<F: TmFactory> {
    shared: Arc<StmShared<F>>,
}

impl<F: TmFactory> Clone for Stm<F> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<F: TmFactory> std::fmt::Debug for Stm<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stm")
            .field("engine", &self.shared.factory.name())
            .finish_non_exhaustive()
    }
}

impl<F: TmFactory> Stm<F> {
    /// Wraps a factory in a runtime handle.
    pub fn new(factory: F) -> Self {
        Self::from_arc(Arc::new(factory))
    }

    /// Wraps an already-shared factory (e.g. one that raw-SPI harness code
    /// also drives).
    ///
    /// Logical threads that raw-SPI code registered directly on the
    /// factory are invisible to the lease pool's capacity accounting, so
    /// exceeding [`TmFactory::max_threads`] in such mixed use trips the
    /// engine's own `register_thread` assertion rather than the pool's
    /// descriptive panic. Size [`StmConfig::threads`](zstm_core::StmConfig)
    /// for the sum of both.
    pub fn from_arc(factory: Arc<F>) -> Self {
        Self {
            shared: Arc::new(StmShared {
                factory,
                pool: zstm_util::sync::Mutex::new(Pool {
                    free: Vec::new(),
                    registered: 0,
                    returned: TxStats::new(),
                }),
                notifier: Notifier::new(),
                id: NEXT_STM_ID.fetch_add(1, Ordering::Relaxed),
            }),
        }
    }

    /// The underlying factory.
    pub fn factory(&self) -> &Arc<F> {
        &self.shared.factory
    }

    /// Short name of the underlying engine ("lsa", "z-stm", ...).
    pub fn name(&self) -> &'static str {
        self.shared.factory.name()
    }

    /// The commit notifier: what tests of the wake protocol inspect, and
    /// what code that commits around this handle (through the raw engine
    /// SPI) calls [`notify`](Notifier::notify) on, since nothing else
    /// wakes this handle's parked blocks for it.
    pub fn notifier(&self) -> &Notifier {
        &self.shared.notifier
    }

    /// This instance's unique id (tags `DynVar`s with their origin).
    pub(crate) fn instance_id(&self) -> u64 {
        self.shared.id
    }

    /// Creates a shareable transactional variable.
    pub fn new_tvar<T: TxValue>(&self, init: T) -> TVar<F, T> {
        TVar::from_raw(self.shared.factory.new_var(init))
    }

    /// Runs `body` as a transaction of kind `kind`, retrying until it
    /// commits.
    ///
    /// Aborted attempts re-run with exponential backoff; attempts that end
    /// in [`Tx::retry`] park on the commit notifier until another
    /// transaction commits, through this `Stm`, a write to something the
    /// attempt read. The loop is
    /// unbounded — use [`Stm::try_atomically`] to cap attempts.
    pub fn atomically<R>(
        &self,
        kind: TxKind,
        mut body: impl FnMut(&mut Tx<'_, F>) -> Result<R, Abort>,
    ) -> R {
        self.try_atomically(kind, &RetryPolicy::unbounded(), &mut body)
            .expect(UNBOUNDED)
    }

    /// Like [`Stm::atomically`] with an explicit retry budget.
    ///
    /// # Errors
    ///
    /// Returns [`RetryExhausted`] when `policy.max_attempts()` rounds all
    /// failed to commit. Blocked rounds count too, and the last attempt
    /// never parks. A bounded block that parks and is not woken for
    /// [`BLOCKED_IDLE_LIMIT`](crate::BLOCKED_IDLE_LIMIT) fails then
    /// (re-running could not observe anything new) — so a bounded policy
    /// fails loudly on an idle system instead of blocking for its whole
    /// budget.
    pub fn try_atomically<R>(
        &self,
        kind: TxKind,
        policy: &RetryPolicy,
        mut body: impl FnMut(&mut Tx<'_, F>) -> Result<R, Abort>,
    ) -> Result<R, RetryExhausted> {
        self.run_alternatives(kind, policy, &mut [&mut body])
    }

    /// Runs `first`, falling back to `second` when `first` blocks.
    ///
    /// The composable-blocking combinator: if `first` ends in
    /// [`Tx::retry`], its attempt is rolled back (all effects discarded)
    /// and `second` runs as a fresh transaction in the same round. Only
    /// when *both* alternatives retry does the thread park; a genuine
    /// abort in either alternative restarts the whole composition from
    /// `first` (aborts propagate, they do not fall through). The loop is
    /// unbounded — see [`Stm::try_atomically_or_else`] for a budget.
    pub fn atomically_or_else<R>(
        &self,
        kind: TxKind,
        mut first: impl FnMut(&mut Tx<'_, F>) -> Result<R, Abort>,
        mut second: impl FnMut(&mut Tx<'_, F>) -> Result<R, Abort>,
    ) -> R {
        self.run_alternatives(
            kind,
            &RetryPolicy::unbounded(),
            &mut [&mut first, &mut second],
        )
        .expect(UNBOUNDED)
    }

    /// [`Stm::atomically_or_else`] with an explicit retry budget.
    ///
    /// # Errors
    ///
    /// Returns [`RetryExhausted`] when the budget runs out; the error's
    /// last reason is `AbortReason::Retry` if the final round blocked on
    /// both alternatives.
    pub fn try_atomically_or_else<R>(
        &self,
        kind: TxKind,
        policy: &RetryPolicy,
        mut first: impl FnMut(&mut Tx<'_, F>) -> Result<R, Abort>,
        mut second: impl FnMut(&mut Tx<'_, F>) -> Result<R, Abort>,
    ) -> Result<R, RetryExhausted> {
        self.run_alternatives(kind, policy, &mut [&mut first, &mut second])
    }

    /// The synchronous driver of the [`Block`]: parks the OS thread on
    /// the notifier when a round blocked.
    #[allow(clippy::type_complexity)]
    fn run_alternatives<R>(
        &self,
        kind: TxKind,
        policy: &RetryPolicy,
        alternatives: &mut [&mut dyn FnMut(&mut Tx<'_, F>) -> Result<R, Abort>],
    ) -> Result<R, RetryExhausted> {
        let notifier = self.notifier();
        self.with_thread(|thread| {
            let mut block = Block::new(policy);
            loop {
                match block.round(self, thread, kind, alternatives) {
                    Step::Committed(result) => return Ok(result),
                    Step::Exhausted(exhausted) => return Err(exhausted),
                    Step::Conflict => {}
                    Step::Blocked { seen, reads, limit } => {
                        // `None`: a commit raced the round, run another.
                        if let Some(woken) = notifier.wait(seen, reads, limit) {
                            thread.stats_mut().record_condvar_park();
                            if !woken {
                                return Err(block.idle(thread.stats_mut()));
                            }
                        }
                    }
                }
            }
        })
    }

    /// Runs `f` with this OS thread's leased engine context, checking one
    /// out (and caching it in TLS) on first use.
    pub(crate) fn with_thread<R>(&self, f: impl FnOnce(&mut F::Thread) -> R) -> R {
        // Take the lease *out* of TLS while the body runs so re-entrant
        // transactions (an atomically inside an atomically body) lease a
        // second context instead of hitting a RefCell double borrow.
        let mut lease = self
            .take_cached_lease()
            .unwrap_or_else(|| Box::new(self.checkout()));
        let result = f(lease.thread.as_mut().expect("leased context present"));
        // Only reached on normal return: a panic in `f` drops the lease,
        // returning the context to the pool.
        LEASES.with(|leases| {
            leases
                .borrow_mut()
                .push((self.shared.id, stm_alive::<F>, lease));
        });
        result
    }

    /// Removes and returns this OS thread's cached lease for this `Stm`,
    /// if any.
    fn take_cached_lease(&self) -> Option<Box<Lease<F>>> {
        LEASES.with(|leases| {
            let mut leases = leases.borrow_mut();
            let at = leases.iter().position(|(id, _, _)| *id == self.shared.id)?;
            let (_, _, boxed) = leases.swap_remove(at);
            Some(
                boxed
                    .downcast::<Lease<F>>()
                    .expect("lease cached under this Stm's id has its type"),
            )
        })
    }

    /// Leases a context from the pool: what a thread does when it meets
    /// this `Stm` for the first time (or again after a flush, or nested
    /// inside one of its own transactions). Being off the per-transaction
    /// path, it is also where the thread drops cached leases of `Stm`
    /// instances it will never see again.
    fn checkout(&self) -> Lease<F> {
        LEASES.with(|leases| evict_orphaned_leases(&mut leases.borrow_mut()));
        let mut pool = self.shared.pool.lock();
        let thread = if let Some(thread) = pool.free.pop() {
            thread
        } else {
            let capacity = self.shared.factory.max_threads();
            if let Some(capacity) = capacity {
                assert!(
                    pool.registered < capacity,
                    "Stm<{}>: all {} configured logical threads are leased to live OS \
                     threads; raise StmConfig::new(n) or run fewer threads concurrently \
                     (contexts recycle when their OS thread exits)",
                    self.shared.factory.name(),
                    capacity,
                );
            }
            pool.registered += 1;
            self.shared.factory.register_thread()
        };
        drop(pool);
        Lease {
            shared: Arc::downgrade(&self.shared),
            thread: Some(thread),
        }
    }

    /// Returns this OS thread's cached contexts to the shared pool —
    /// every one of them: a thread that ran nested transactions may have
    /// cached several.
    ///
    /// Useful before [`Stm::take_stats`] on a driver thread that also ran
    /// transactions, and before handing the last `Stm` clone to another
    /// thread.
    pub fn flush_local(&self) {
        while self.take_cached_lease().is_some() {}
    }

    /// Takes the statistics of every context that has returned to the
    /// pool, including this OS thread's cached ones, leaving zeroes
    /// behind.
    ///
    /// Contexts still leased to other live OS threads are not reachable;
    /// their statistics are harvested once those threads exit (or flush).
    /// The usual harvest pattern — join the workers, then call this on the
    /// driver — therefore sees everything.
    pub fn take_stats(&self) -> TxStats {
        self.flush_local();
        std::mem::take(&mut self.shared.pool.lock().returned)
    }

    /// A snapshot of the statistics of every context that has returned to
    /// the pool, with no side effect: nothing is reset (two observers can
    /// read the counters without corrupting each other) and the calling
    /// thread keeps its cached contexts, whose counters — like those of
    /// any context out on lease — join the sum when they come back.
    pub fn stats(&self) -> TxStats {
        self.shared.pool.lock().returned.clone()
    }

    /// Engine contexts currently out of the pool — cached by an OS thread
    /// or running a transaction. Zero means every registered context is
    /// back.
    pub fn leased_contexts(&self) -> usize {
        let pool = self.shared.pool.lock();
        pool.registered - pool.free.len()
    }
}
