//! A minimal offline async executor: [`block_on`] and an N-worker
//! [`ThreadPool`].
//!
//! The build environment has no crates registry, so the async transaction
//! front end (`zstm-api`) cannot lean on `tokio` or `futures`. This module
//! provides the two primitives its tests, examples and benchmarks need,
//! built from `std` plus the crate's own [`sync`](crate::sync) wrappers:
//!
//! * [`block_on`] — drive one future to completion on the calling thread,
//!   parking on a [`Condvar`] between polls;
//! * [`ThreadPool`] — a fixed set of worker threads multiplexing any
//!   number of spawned tasks, so harnesses can run *more tasks than OS
//!   threads* (the shape that makes waker-based transaction parking
//!   observable: a parked task releases its worker instead of blocking
//!   it).
//!
//! Wakers are the standard-library [`Wake`] machinery — no unsafe vtable
//! construction. A task that is woken while running is re-queued once it
//! yields (the classic `NOTIFIED` state), so wakeups are never lost; a
//! task woken multiple times is queued at most once.
//!
//! This is a test/benchmark harness, not a production runtime: there is no
//! work stealing and no IO reactor. It is deliberately small enough to
//! audit. The one concession to real deployments is **timed parking**: a
//! single lazy timer thread ([`wake_at`]) and the [`timeout`] combinator
//! built on it, which is what turns "a parked `WAIT` holds a resource
//! forever" into "a parked `WAIT` resolves at its deadline" one layer up
//! in `zstm-server`.
//!
//! # Examples
//!
//! ```
//! use zstm_util::exec::{block_on, ThreadPool};
//!
//! // block_on drives simple futures (and everything zstm-api returns).
//! assert_eq!(block_on(async { 6 * 7 }), 42);
//!
//! // Four tasks multiplexed over two workers.
//! let pool = ThreadPool::new(2);
//! let handles: Vec<_> = (0..4)
//!     .map(|i| pool.spawn(async move { i * 2 }))
//!     .collect();
//! let sum: i32 = handles.into_iter().map(|h| h.join()).sum();
//! assert_eq!(sum, 12);
//! ```

use std::any::Any;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Weak};
use std::task::{Context, Poll, Wake, Waker};
use std::time::{Duration, Instant};

use crate::sync::{Condvar, Mutex};

/// A thread parker: its [`Waker`] sets the flag and notifies, the thread sleeps
/// until then ([`block_on`] between polls, a blocked `Stm::atomically` of `zstm-api`).
#[derive(Debug, Default)]
pub struct Parker {
    woken: Mutex<bool>,
    cv: Condvar,
}

impl Parker {
    /// Sleeps until a wake has arrived (at once if one already has) or
    /// `deadline` has passed; consumes the wake and says if there was one.
    pub fn park(&self, deadline: Option<Instant>) -> bool {
        let mut woken = self.woken.lock();
        while !*woken {
            woken = match deadline.map(|at| at.saturating_duration_since(Instant::now())) {
                None => self.cv.wait(woken),
                Some(Duration::ZERO) => break,
                Some(left) => self.cv.wait_timeout(woken, left).0,
            };
        }
        std::mem::take(&mut *woken)
    }

    /// Consumes a wake that arrived with nobody parked, if there was one.
    pub fn take(&self) -> bool {
        std::mem::take(&mut *self.woken.lock())
    }
}

impl Wake for Parker {
    fn wake(self: Arc<Self>) {
        *self.woken.lock() = true;
        self.cv.notify_one();
    }
}

/// Runs `future` to completion on the calling thread.
///
/// Between polls the thread parks on a condvar; any clone of the waker
/// handed to the future unparks it. Wakes that arrive *during* a poll are
/// not lost — the flag stays set and the next park returns immediately.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let parker = Arc::new(Parker::default());
    let waker = Waker::from(Arc::clone(&parker));
    let mut cx = Context::from_waker(&waker);
    let mut future = Box::pin(future);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(value) => return value,
            Poll::Pending => drop(parker.park(None)),
        }
    }
}

/// One pending timed wakeup on the shared timer thread.
struct TimerEntry {
    deadline: std::time::Instant,
    /// Tie-breaker so the heap never compares wakers.
    seq: u64,
    waker: Waker,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}

impl Eq for TimerEntry {}

impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // deadline on top.
        other
            .deadline
            .cmp(&self.deadline)
            .then(other.seq.cmp(&self.seq))
    }
}

struct TimerShared {
    entries: Mutex<std::collections::BinaryHeap<TimerEntry>>,
    cv: Condvar,
    seq: std::sync::atomic::AtomicU64,
}

/// The process-wide timer thread, spawned on first use and never joined
/// (it parks forever when idle).
fn timer() -> &'static TimerShared {
    static TIMER: std::sync::OnceLock<&'static TimerShared> = std::sync::OnceLock::new();
    TIMER.get_or_init(|| {
        let shared: &'static TimerShared = Box::leak(Box::new(TimerShared {
            entries: Mutex::new(std::collections::BinaryHeap::new()),
            cv: Condvar::new(),
            seq: std::sync::atomic::AtomicU64::new(0),
        }));
        std::thread::Builder::new()
            .name("zstm-timer".into())
            .spawn(move || timer_loop(shared))
            .expect("spawn timer thread");
        shared
    })
}

fn timer_loop(shared: &TimerShared) {
    loop {
        let mut due: Vec<Waker> = Vec::new();
        {
            let mut entries = shared.entries.lock();
            loop {
                let now = std::time::Instant::now();
                while entries.peek().is_some_and(|head| head.deadline <= now) {
                    due.push(entries.pop().expect("peeked entry").waker);
                }
                if !due.is_empty() {
                    break;
                }
                match entries.peek().map(|head| head.deadline) {
                    // Head is strictly in the future (the drain above ran
                    // under the same lock), so the subtraction is safe.
                    Some(deadline) => {
                        let (guard, _) = shared.cv.wait_timeout(entries, deadline - now);
                        entries = guard;
                    }
                    None => entries = shared.cv.wait(entries),
                }
            }
        }
        // Wake outside the lock: a waker may re-register immediately.
        for waker in due {
            waker.wake();
        }
    }
}

/// Schedules `waker` to be woken at `deadline` by the shared timer thread
/// (immediately if the deadline already passed).
///
/// This is the primitive behind [`timeout`]; it is also usable directly by
/// futures that implement their own deadline or backoff logic (the async
/// retry-budget path in `zstm-api` sleeps between attempts this way
/// without blocking an executor worker).
pub fn wake_at(deadline: std::time::Instant, waker: Waker) {
    let shared = timer();
    let seq = shared.seq.fetch_add(1, Ordering::Relaxed);
    shared.entries.lock().push(TimerEntry {
        deadline,
        seq,
        waker,
    });
    shared.cv.notify_one();
}

/// The error [`Timeout`] resolves to when its deadline passes first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Elapsed;

impl std::fmt::Display for Elapsed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("deadline elapsed before the future resolved")
    }
}

impl std::error::Error for Elapsed {}

/// Bounds `future` to `duration`: resolves with `Ok(output)` if the inner
/// future finishes first, `Err(`[`Elapsed`]`)` otherwise.
///
/// On timeout the inner future is **dropped** — normal async
/// cancellation, which is exactly what makes this safe to wrap around a
/// transaction future: between attempts the transaction holds nothing,
/// and its drop path deregisters any parked wakeup (nothing was
/// committed). The deadline is only checked when this future is polled,
/// so a suspended inner future relies on the timer registration made on
/// the previous poll — wakeups cannot be lost, merely early (a stale
/// timer wake re-polls a still-pending future harmlessly).
pub fn timeout<F>(duration: std::time::Duration, future: F) -> Timeout<F>
where
    F: Future + Unpin,
{
    Timeout {
        inner: Some(future),
        deadline: std::time::Instant::now() + duration,
    }
}

/// Future returned by [`timeout`].
#[must_use = "futures do nothing unless polled"]
pub struct Timeout<F> {
    inner: Option<F>,
    deadline: std::time::Instant,
}

impl<F: Future + Unpin> Future for Timeout<F> {
    type Output = Result<F::Output, Elapsed>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let inner = this
            .inner
            .as_mut()
            .expect("Timeout polled after completion");
        // Poll the inner future first: a result that is ready *now* beats
        // reporting a deadline that passed while we were queued.
        if let Poll::Ready(output) = Pin::new(&mut *inner).poll(cx) {
            this.inner = None;
            return Poll::Ready(Ok(output));
        }
        if std::time::Instant::now() >= this.deadline {
            // Cancellation: dropping the inner future runs its cleanup
            // (for transaction futures, waker deregistration).
            this.inner = None;
            return Poll::Ready(Err(Elapsed));
        }
        wake_at(this.deadline, cx.waker().clone());
        Poll::Pending
    }
}
enum Outcome<T> {
    /// The future completed with its output.
    Finished(T),
    /// The future (or the body it drove) panicked while being polled; the
    /// payload is re-thrown by [`JoinHandle::join`].
    Panicked(Box<dyn Any + Send>),
    /// The future was dropped before completing (pool shut down first).
    Cancelled,
}

/// Shared completion slot between a spawned task and its [`JoinHandle`].
struct JoinSlot<T> {
    outcome: Mutex<Option<Outcome<T>>>,
    cv: Condvar,
}

impl<T> JoinSlot<T> {
    fn complete(&self, outcome: Outcome<T>) {
        let mut slot = self.outcome.lock();
        // First completion wins (the cancel guard stands down during
        // panics, so the paths never race for the slot).
        if slot.is_none() {
            *slot = Some(outcome);
            self.cv.notify_all();
        }
    }
}

/// Completes the slot with [`Outcome::Cancelled`] if the wrapped future is
/// dropped without finishing — the executor shut down, or the task was
/// dropped from the queue.
struct CancelGuard<T> {
    slot: Arc<JoinSlot<T>>,
    armed: bool,
}

impl<T> Drop for CancelGuard<T> {
    fn drop(&mut self) {
        // During a panic the worker records the payload right after the
        // unwind (a more informative outcome than Cancelled); writing
        // Cancelled here would let a racing join() observe it first.
        if self.armed && !std::thread::panicking() {
            self.slot.complete(Outcome::Cancelled);
        }
    }
}

/// Handle to a task spawned on a [`ThreadPool`].
///
/// Dropping the handle detaches the task (it keeps running); [`join`]
/// blocks the calling thread until the task completes.
///
/// [`join`]: JoinHandle::join
pub struct JoinHandle<T> {
    slot: Arc<JoinSlot<T>>,
}

impl<T> JoinHandle<T> {
    /// Blocks until the task completes and returns its output.
    ///
    /// # Panics
    ///
    /// Re-throws the task's panic payload if the task panicked, and panics
    /// with a descriptive message if the task was cancelled (its pool was
    /// dropped before the task could finish).
    pub fn join(self) -> T {
        let mut outcome = self.slot.outcome.lock();
        loop {
            match outcome.take() {
                Some(Outcome::Finished(value)) => return value,
                Some(Outcome::Panicked(payload)) => std::panic::resume_unwind(payload),
                Some(Outcome::Cancelled) => {
                    panic!("joined a task that was cancelled (its ThreadPool was dropped)")
                }
                None => outcome = self.slot.cv.wait(outcome),
            }
        }
    }

    /// Whether the task has completed (finished, panicked or cancelled)
    /// without blocking.
    pub fn is_finished(&self) -> bool {
        self.slot.outcome.lock().is_some()
    }
}

/// Task lifecycle states (see `Task::wake_task` and `run_one`).
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// One spawned task: the erased future plus the state machine that makes
/// wakeups exact (woken-while-running tasks re-queue exactly once).
struct Task {
    state: AtomicU8,
    /// The future, present while the task is alive. Taken out for the
    /// duration of a poll so a re-entrant wake cannot alias it.
    future: Mutex<Option<BoxFuture>>,
    /// Type-erased hook delivering a caught panic payload to the task's
    /// [`JoinSlot`] (the worker cannot name the output type).
    panic_sink: Mutex<Option<PanicSink>>,
    pool: Weak<PoolShared>,
}

type PanicSink = Box<dyn FnOnce(Box<dyn Any + Send>) + Send>;

impl Task {
    /// The waker protocol. Transitions:
    /// `IDLE → QUEUED` (push to the pool), `RUNNING → NOTIFIED` (the
    /// worker re-queues after the poll), `QUEUED`/`NOTIFIED`/`DONE` →
    /// no-op (already pending or finished).
    fn wake_task(self: &Arc<Self>) {
        loop {
            match self.state.load(Ordering::SeqCst) {
                IDLE => {
                    if self
                        .state
                        .compare_exchange(IDLE, QUEUED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        if let Some(pool) = self.pool.upgrade() {
                            pool.push(Arc::clone(self));
                        }
                        return;
                    }
                }
                RUNNING => {
                    if self
                        .state
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        return;
                    }
                }
                _ => return,
            }
        }
    }
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        self.wake_task();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.wake_task();
    }
}

struct PoolQueue {
    ready: VecDeque<Arc<Task>>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    cv: Condvar,
}

impl PoolShared {
    fn push(&self, task: Arc<Task>) {
        let mut queue = self.queue.lock();
        // After shutdown the workers are gone; dropping the task here runs
        // the future's destructor (cancellation) instead of queueing it
        // forever.
        if !queue.shutdown {
            queue.ready.push_back(task);
            drop(queue);
            self.cv.notify_one();
        }
    }
}

/// A fixed-size worker pool multiplexing spawned futures.
///
/// Workers poll ready tasks; a task returning `Pending` releases its
/// worker until woken. Dropping the pool stops the workers after the
/// currently queued tasks are drained **without** waiting for parked
/// tasks: unfinished futures are dropped (their `Drop` impls run — which
/// is what cancels in-flight transactions cleanly) and their
/// [`JoinHandle::join`] panics with a cancellation message.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns `workers` OS worker threads (at least one).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                ready: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("zstm-exec-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn executor worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Number of OS worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Spawns a future onto the pool, returning a handle to its output.
    ///
    /// The future starts running as soon as a worker is free; dropping the
    /// returned handle detaches it.
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let slot = Arc::new(JoinSlot {
            outcome: Mutex::new(None),
            cv: Condvar::new(),
        });
        let task_slot = Arc::clone(&slot);
        let wrapped = async move {
            // The guard turns "dropped before completion" into a visible
            // Cancelled outcome; disarmed on the successful path.
            let mut guard = CancelGuard {
                slot: task_slot,
                armed: true,
            };
            let value = future.await;
            guard.armed = false;
            guard.slot.complete(Outcome::Finished(value));
        };
        // A panic while polling unwinds through `wrapped`, dropping the
        // armed guard (Cancelled); the worker then upgrades the outcome to
        // Panicked with the payload it caught.
        let panic_slot = Arc::clone(&slot);
        let task = Arc::new(Task {
            state: AtomicU8::new(QUEUED),
            future: Mutex::new(Some(Box::pin(wrapped))),
            panic_sink: Mutex::new(Some(Box::new(move |payload| {
                panic_slot.complete(Outcome::Panicked(payload));
            }))),
            pool: Arc::downgrade(&self.shared),
        });
        self.shared.push(Arc::clone(&task));
        JoinHandle { slot }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock();
            queue.shutdown = true;
            // Cancel everything still queued: dropping the tasks drops
            // their futures, firing the CancelGuards.
            queue.ready.clear();
        }
        self.shared.cv.notify_all();
        for worker in self.workers.drain(..) {
            worker.join().expect("executor worker exited cleanly");
        }
    }
}

fn worker_loop(shared: &Arc<PoolShared>) {
    loop {
        let task = {
            let mut queue = shared.queue.lock();
            loop {
                if let Some(task) = queue.ready.pop_front() {
                    break task;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.cv.wait(queue);
            }
        };
        run_one(&task);
    }
}

/// Polls one task to `Pending` or completion, honouring wakes that raced
/// with the poll.
fn run_one(task: &Arc<Task>) {
    task.state.store(RUNNING, Ordering::SeqCst);
    let Some(mut future) = task.future.lock().take() else {
        // Already completed (a stale wake re-queued a finished task).
        task.state.store(DONE, Ordering::SeqCst);
        return;
    };
    let waker = Waker::from(Arc::clone(task));
    let mut cx = Context::from_waker(&waker);
    let poll = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        future.as_mut().poll(&mut cx)
    }));
    match poll {
        Ok(Poll::Ready(())) => {
            task.state.store(DONE, Ordering::SeqCst);
        }
        Ok(Poll::Pending) => {
            *task.future.lock() = Some(future);
            // RUNNING → IDLE unless a wake arrived mid-poll (NOTIFIED), in
            // which case re-queue immediately so the wake is not lost.
            if task
                .state
                .compare_exchange(RUNNING, IDLE, Ordering::SeqCst, Ordering::SeqCst)
                .is_err()
            {
                task.state.store(QUEUED, Ordering::SeqCst);
                if let Some(pool) = task.pool.upgrade() {
                    pool.push(Arc::clone(task));
                }
            }
        }
        Err(payload) => {
            // The unwind already dropped the future's locals (running
            // their Drop impls — transaction rollback, waker
            // deregistration); record the payload for join().
            task.state.store(DONE, Ordering::SeqCst);
            if let Some(sink) = task.panic_sink.lock().take() {
                sink(payload);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    /// A future that stays pending `remaining` times, waking itself via a
    /// helper thread to exercise the cross-thread wake path.
    struct YieldTimes {
        remaining: usize,
    }

    impl Future for YieldTimes {
        type Output = usize;

        fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<usize> {
            if self.remaining == 0 {
                return Poll::Ready(0);
            }
            self.remaining -= 1;
            let waker = cx.waker().clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(1));
                waker.wake();
            });
            Poll::Pending
        }
    }

    #[test]
    fn block_on_ready_future() {
        assert_eq!(block_on(async { 1 + 2 }), 3);
    }

    #[test]
    fn block_on_parks_between_polls() {
        assert_eq!(block_on(YieldTimes { remaining: 5 }), 0);
    }

    #[test]
    fn pool_runs_more_tasks_than_workers() {
        let pool = ThreadPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let counter = Arc::clone(&counter);
                pool.spawn(async move {
                    counter.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for handle in handles {
            handle.join();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn pending_task_releases_its_worker() {
        // One worker, two tasks: the first parks until the second (which
        // must therefore get the worker) wakes it.
        let pool = ThreadPool::new(1);
        let flag = Arc::new(Mutex::new(None::<Waker>));
        let released = Arc::new(AtomicUsize::new(0));

        struct WaitForSignal {
            slot: Arc<Mutex<Option<Waker>>>,
            released: Arc<AtomicUsize>,
        }
        impl Future for WaitForSignal {
            type Output = ();
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if self.released.load(Ordering::SeqCst) == 1 {
                    return Poll::Ready(());
                }
                *self.slot.lock() = Some(cx.waker().clone());
                Poll::Pending
            }
        }

        let waiter = pool.spawn(WaitForSignal {
            slot: Arc::clone(&flag),
            released: Arc::clone(&released),
        });
        let signal = {
            let (flag, released) = (Arc::clone(&flag), Arc::clone(&released));
            pool.spawn(async move {
                // Busy-wait for the waiter's registration; it can only
                // appear if the waiter's Pending released the sole worker.
                loop {
                    if let Some(waker) = flag.lock().take() {
                        released.store(1, Ordering::SeqCst);
                        waker.wake();
                        return;
                    }
                    std::thread::yield_now();
                }
            })
        };
        signal.join();
        waiter.join();
    }

    #[test]
    fn join_propagates_panics() {
        let pool = ThreadPool::new(1);
        let handle = pool.spawn(async { panic!("task blew up") });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle.join()))
            .expect_err("join must re-throw");
        let message = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "task blew up");
        // The worker survives the panic and runs later tasks.
        assert_eq!(pool.spawn(async { 7 }).join(), 7);
    }

    #[test]
    fn wake_during_poll_requeues_instead_of_losing_the_wakeup() {
        // The future wakes itself *synchronously inside poll* and returns
        // Pending; the NOTIFIED transition must re-queue it.
        struct SelfWake {
            polls: usize,
        }
        impl Future for SelfWake {
            type Output = usize;
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<usize> {
                if self.polls >= 3 {
                    return Poll::Ready(self.polls);
                }
                self.polls += 1;
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        }
        let pool = ThreadPool::new(1);
        assert_eq!(pool.spawn(SelfWake { polls: 0 }).join(), 3);
    }

    #[test]
    fn dropping_the_pool_cancels_parked_tasks() {
        struct Forever;
        impl Future for Forever {
            type Output = ();
            fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
                // Never registers a waker: stays parked until cancelled.
                Poll::Pending
            }
        }
        let pool = ThreadPool::new(1);
        // Let the task reach its parked state before shutting down.
        let parked = pool.spawn(Forever);
        pool.spawn(async {}).join();
        drop(pool);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| parked.join()))
            .expect_err("cancelled task must not join cleanly");
        let message = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(message.contains("cancelled"), "got: {message}");
    }

    #[test]
    fn timeout_passes_through_a_ready_future() {
        assert_eq!(
            block_on(timeout(Duration::from_secs(10), Box::pin(async { 5 }))),
            Ok(5)
        );
    }

    #[test]
    fn timeout_elapses_on_a_stuck_future() {
        struct Stuck;
        impl Future for Stuck {
            type Output = ();
            fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
                // Registers nothing: only the timeout's timer wake can
                // re-poll the composition.
                Poll::Pending
            }
        }
        let started = std::time::Instant::now();
        let result = block_on(timeout(Duration::from_millis(50), Stuck));
        assert_eq!(result, Err(Elapsed));
        let elapsed = started.elapsed();
        assert!(
            elapsed >= Duration::from_millis(50),
            "woke early: {elapsed:?}"
        );
        assert!(
            elapsed < Duration::from_secs(5),
            "woke far too late: {elapsed:?}"
        );
    }

    #[test]
    fn timeout_drops_the_inner_future_on_expiry() {
        struct DropFlag(Arc<AtomicUsize>);
        impl Future for DropFlag {
            type Output = ();
            fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
                Poll::Pending
            }
        }
        impl Drop for DropFlag {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let dropped = Arc::new(AtomicUsize::new(0));
        let result = block_on(timeout(
            Duration::from_millis(20),
            DropFlag(Arc::clone(&dropped)),
        ));
        assert_eq!(result, Err(Elapsed));
        assert_eq!(
            dropped.load(Ordering::SeqCst),
            1,
            "expiry must cancel (drop) the inner future"
        );
    }

    #[test]
    fn wake_at_fires_in_deadline_order() {
        // Two sleeps on the shared timer from one thread; the shorter one
        // must resolve first even though it was scheduled second.
        struct SleepUntil(std::time::Instant);
        impl Future for SleepUntil {
            type Output = ();
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if std::time::Instant::now() >= self.0 {
                    return Poll::Ready(());
                }
                wake_at(self.0, cx.waker().clone());
                Poll::Pending
            }
        }
        let pool = ThreadPool::new(2);
        let order = Arc::new(Mutex::new(Vec::new()));
        let now = std::time::Instant::now();
        let slow = {
            let order = Arc::clone(&order);
            pool.spawn(async move {
                SleepUntil(now + Duration::from_millis(80)).await;
                order.lock().push("slow");
            })
        };
        let fast = {
            let order = Arc::clone(&order);
            pool.spawn(async move {
                SleepUntil(now + Duration::from_millis(20)).await;
                order.lock().push("fast");
            })
        };
        fast.join();
        slow.join();
        assert_eq!(*order.lock(), vec!["fast", "slow"]);
    }

    #[test]
    fn is_finished_reports_completion() {
        let pool = ThreadPool::new(1);
        let handle = pool.spawn(async { 1 });
        while !handle.is_finished() {
            std::thread::yield_now();
        }
        assert_eq!(handle.join(), 1);
    }
}
