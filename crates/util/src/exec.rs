//! A minimal offline async executor: [`block_on`] and an N-worker
//! [`ThreadPool`].
//!
//! The build environment has no crates registry, so the async transaction
//! front end (`zstm-api`) cannot lean on `tokio` or `futures`. This module
//! provides the two primitives its tests, examples and benchmarks need,
//! built from `std` plus the crate's own [`sync`](crate::sync) wrappers:
//!
//! * [`block_on`] — drive one future to completion on the calling thread,
//!   parking on a [`Parker`] between polls;
//! * [`ThreadPool`] — a fixed set of worker threads multiplexing any
//!   number of spawned tasks, so harnesses can run *more tasks than OS
//!   threads* (the shape that makes waker-based transaction parking
//!   observable: a parked task releases its worker instead of blocking
//!   it).
//!
//! Wakers are the standard-library [`Wake`] machinery — no unsafe vtable
//! construction. A [`Parker`] is one atomic state word (*empty*, *parked*
//! or *notified*) over its owner thread's [`std::thread::park`]: a wake
//! swaps in *notified* and unparks the owner only if it saw *parked*, and
//! a parking thread first yields the CPU a few times, checking the word,
//! before it sleeps. It yields rather than spins because a hand-off's
//! partner may need the very CPU the waiter holds (a process pinned to one
//! CPU); a waiter that is still awake when its wake comes costs neither
//! side a system call.
//!
//! A task is its future behind a mutex plus a `queued` flag:
//! its waker pushes it to the ready queue only when the flag was clear,
//! so a task woken many times is queued once. A worker clears the flag
//! under the task's mutex and then polls, so a wake that arrives during a
//! poll queues the task again (it is never lost), and a second worker that
//! takes it waits for the first poll to end (two polls never overlap). A
//! task's [`JoinHandle`] is the receiving end of a channel the task sends
//! its output — or the panic it caught in its own poll — into; a task
//! dropped before it finishes drops the sender, which is what
//! [`JoinHandle::join`] reports as cancellation.
//!
//! This is a test/benchmark harness, not a production runtime: there is no
//! work stealing and no IO reactor. It is deliberately small enough to
//! audit. The one concession to real deployments is **timed parking**: a
//! single lazy timer thread ([`wake_at`]) over a map ordered by deadline,
//! and the [`timeout`] combinator built on it, which is what turns "a
//! parked `WAIT` holds a resource forever" into "a parked `WAIT` resolves
//! at its deadline" one layer up in `zstm-server`.
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

use std::collections::{BTreeMap, VecDeque};
use std::future::{poll_fn, Future};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::{pin, Pin};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Arc, OnceLock, Weak};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;
use std::time::{Duration, Instant};

use crate::sync::{Condvar, Mutex};

/// [`Parker`]'s word: no wake pending and nobody asleep.
const EMPTY: u8 = 0;
/// [`Parker`]'s word: the owner is asleep, or about to be.
const PARKED: u8 = 1;
/// [`Parker`]'s word: a wake arrived that the owner has not consumed.
const NOTIFIED: u8 = 2;

/// How many times [`Parker::park`] yields the CPU, checking for a wake
/// before each yield, before it sleeps.
const YIELDS: u32 = 2;

/// A thread parker ([`block_on`] between polls, a blocked `Stm::atomically`
/// of `zstm-api`): one state word over its owner thread's
/// [`std::thread::park`], which yields the CPU `YIELDS` times before it
/// sleeps (module docs). It belongs to the thread that made it
/// ([`Parker::default`]): only that thread parks on it or
/// [`take`](Self::take)s from it, so only that thread moves the word into
/// *parked* or out of *notified*. Any thread may wake it.
#[derive(Debug)]
pub struct Parker {
    /// `EMPTY`, `PARKED` or `NOTIFIED`.
    state: AtomicU8,
    owner: Thread,
}

impl Default for Parker {
    /// A parker owned by the calling thread.
    fn default() -> Self {
        Self {
            state: AtomicU8::new(EMPTY),
            owner: std::thread::current(),
        }
    }
}

impl Parker {
    /// Sleeps until a wake has arrived (at once if one already has) or
    /// `deadline` has passed; consumes the wake and says if there was one.
    /// A wake that races the deadline is consumed and reported.
    ///
    /// Orderings: a wake's `Release` swap pairs with the `Acquire` swap or
    /// compare-and-swap here that reads *notified*, so the owner sees what
    /// the waker wrote before it woke. The owner moves the word
    /// *empty → parked* with a compare-and-swap, never a store, so a wake
    /// that lands after the last check is not overwritten: the exchange
    /// fails and the wake is taken at once; or it succeeds, and the
    /// waker's swap reads *parked* and unparks. The thread's park token
    /// makes that unpark stick even when it comes before `park` is called.
    /// A token left over — from an unpark whose wake the owner had already
    /// consumed, or from any other user of the thread's token — only makes
    /// a later `park` return early, and every return re-reads the word.
    pub fn park(&self, deadline: Option<Instant>) -> bool {
        debug_assert_eq!(std::thread::current().id(), self.owner.id());
        for _ in 0..YIELDS {
            if self.take() {
                return true;
            }
            std::thread::yield_now();
        }
        if self
            .state
            .compare_exchange(EMPTY, PARKED, Ordering::Acquire, Ordering::Acquire)
            .is_err()
        {
            // Only the owner parks, so the word was notified.
            return self.take();
        }
        loop {
            match deadline.map(|at| at.saturating_duration_since(Instant::now())) {
                None => std::thread::park(),
                Some(Duration::ZERO) => {
                    return self.state.swap(EMPTY, Ordering::Acquire) == NOTIFIED;
                }
                Some(left) => std::thread::park_timeout(left),
            }
            if self
                .state
                .compare_exchange(NOTIFIED, EMPTY, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return true;
            }
        }
    }

    /// Consumes a wake that arrived with nobody parked, if there was one.
    pub fn take(&self) -> bool {
        self.state.load(Ordering::Relaxed) == NOTIFIED
            && self.state.swap(EMPTY, Ordering::Acquire) == NOTIFIED
    }
}

impl Wake for Parker {
    fn wake(self: Arc<Self>) {
        if self.state.swap(NOTIFIED, Ordering::Release) == PARKED {
            self.owner.unpark();
        }
    }
}

/// Runs `future` to completion on the calling thread.
///
/// The future stays on the caller's stack. Between polls the thread parks
/// on its own [`Parker`] — one per call, so a stale wake of an earlier
/// call (a timer that fired late) cannot cut a later call's park short;
/// any clone of the waker handed to the future unparks it. Wakes that
/// arrive *during* a poll are not lost — the parker's word stays notified
/// and the next park returns immediately.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let parker = Arc::new(Parker::default());
    let waker = Waker::from(Arc::clone(&parker));
    let mut cx = Context::from_waker(&waker);
    let mut future = pin!(future);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(value) => return value,
            Poll::Pending => drop(parker.park(None)),
        }
    }
}

/// The shared timer thread's pending wakes, earliest deadline first (the
/// sequence number keeps equal deadlines apart).
struct Timer {
    entries: Mutex<BTreeMap<(Instant, u64), Waker>>,
    cv: Condvar,
    seq: AtomicU64,
}

/// The process-wide timer thread, spawned on first use and never joined
/// (it parks forever when idle).
fn timer() -> &'static Timer {
    static TIMER: OnceLock<&'static Timer> = OnceLock::new();
    TIMER.get_or_init(|| {
        let timer: &'static Timer = Box::leak(Box::new(Timer {
            entries: Mutex::new(BTreeMap::new()),
            cv: Condvar::new(),
            seq: AtomicU64::new(0),
        }));
        std::thread::Builder::new()
            .name("zstm-timer".into())
            .spawn(move || timer_loop(timer))
            .expect("spawn timer thread");
        timer
    })
}

fn timer_loop(timer: &Timer) {
    loop {
        let due = {
            let mut entries = timer.entries.lock();
            loop {
                let now = Instant::now();
                let later = entries.split_off(&(now, u64::MAX));
                let due = std::mem::replace(&mut *entries, later);
                if !due.is_empty() {
                    break due;
                }
                entries = match entries.first_key_value() {
                    // Strictly in the future: everything up to `now` was split off.
                    Some((&(at, _), _)) => timer.cv.wait_timeout(entries, at - now).0,
                    None => timer.cv.wait(entries),
                };
            }
        };
        // Wake outside the lock, in deadline order: a waker may re-register
        // immediately.
        for waker in due.into_values() {
            waker.wake();
        }
    }
}

/// Schedules `waker` to be woken at `deadline` by the shared timer thread
/// (immediately if the deadline already passed).
///
/// This is the primitive behind [`timeout`]; it is also usable directly by
/// futures that implement their own deadline (the async atomic block in
/// `zstm-api` times a bounded block's idle limit this way without
/// blocking an executor worker).
pub fn wake_at(deadline: Instant, waker: Waker) {
    let timer = timer();
    let seq = timer.seq.fetch_add(1, Ordering::Relaxed);
    timer.entries.lock().insert((deadline, seq), waker);
    timer.cv.notify_one();
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
pub fn timeout<F>(duration: Duration, future: F) -> Timeout<F>
where
    F: Future + Unpin,
{
    Timeout {
        inner: Some(future),
        deadline: Instant::now() + duration,
    }
}

/// Future returned by [`timeout`].
#[must_use = "futures do nothing unless polled"]
pub struct Timeout<F> {
    inner: Option<F>,
    deadline: Instant,
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
        if Instant::now() >= this.deadline {
            // Cancellation: dropping the inner future runs its cleanup
            // (for transaction futures, waker deregistration).
            this.inner = None;
            return Poll::Ready(Err(Elapsed));
        }
        wake_at(this.deadline, cx.waker().clone());
        Poll::Pending
    }
}

/// Handle to a task spawned on a [`ThreadPool`].
///
/// Dropping the handle detaches the task (it keeps running); [`join`]
/// blocks the calling thread until the task completes.
///
/// [`join`]: JoinHandle::join
pub struct JoinHandle<T> {
    result: mpsc::Receiver<std::thread::Result<T>>,
}

impl<T> JoinHandle<T> {
    /// Blocks until the task completes and returns its output.
    ///
    /// # Panics
    ///
    /// Re-throws the task's panic payload if the task panicked, and panics
    /// with a descriptive message if the task was cancelled (dropped before
    /// it could finish: its pool was dropped first).
    pub fn join(self) -> T {
        match self.result.recv() {
            Ok(Ok(value)) => value,
            Ok(Err(payload)) => std::panic::resume_unwind(payload),
            Err(mpsc::RecvError) => {
                panic!("joined a task that was cancelled (dropped before it finished)")
            }
        }
    }
}

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// One spawned task.
struct Task {
    /// The future until it finishes; polled only under this lock.
    future: Mutex<Option<BoxFuture>>,
    /// Set from a wake until a worker is about to poll: the task is in the
    /// ready queue, and further wakes need not queue it again.
    queued: AtomicBool,
    pool: Weak<PoolShared>,
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        // Release: a wake that finds the flag set leaves what it changed
        // to the poll whose worker clears the flag next.
        if !self.queued.swap(true, Ordering::Release) {
            if let Some(pool) = self.pool.upgrade() {
                pool.push(self);
            }
        }
    }
}

struct PoolShared {
    /// The ready tasks; `None` once the pool is dropped.
    queue: Mutex<Option<VecDeque<Arc<Task>>>>,
    cv: Condvar,
}

impl PoolShared {
    fn push(&self, task: Arc<Task>) {
        let mut queue = self.queue.lock();
        // After shutdown the task is dropped (after the guard: a future's
        // destructor may wake), which cancels it.
        if let Some(ready) = queue.as_mut() {
            ready.push_back(task);
            drop(queue);
            self.cv.notify_one();
        }
    }
}

/// A fixed-size worker pool multiplexing spawned futures.
///
/// Workers poll ready tasks; a task returning `Pending` releases its
/// worker until woken. Dropping the pool joins the workers once their
/// current polls end, **without** waiting for queued or parked tasks:
/// their futures are dropped (their `Drop` impls run — which is what
/// cancels in-flight transactions cleanly; a parked one goes with its
/// last waker, since nothing can queue it again) and their
/// [`JoinHandle::join`] panics with a cancellation message.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns `workers` OS worker threads (at least one).
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(Some(VecDeque::new())),
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

    /// Spawns a future onto the pool, returning a handle to its output.
    ///
    /// The future starts running as soon as a worker is free; dropping the
    /// returned handle detaches it.
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let (sender, result) = mpsc::channel();
        let wrapped = async move {
            // The task catches its own panics, so a worker never unwinds.
            // The scope drops `future` before the send: when `join`
            // returns, whatever the future held has been released.
            let outcome = {
                let mut future = pin!(future);
                poll_fn(|cx| {
                    catch_unwind(AssertUnwindSafe(|| future.as_mut().poll(cx)))
                        .map_or_else(|payload| Poll::Ready(Err(payload)), |poll| poll.map(Ok))
                })
                .await
            };
            // A detached task's handle is gone: nobody to tell.
            let _ = sender.send(outcome);
        };
        Arc::new(Task {
            future: Mutex::new(Some(Box::pin(wrapped))),
            queued: AtomicBool::new(false),
            pool: Arc::downgrade(&self.shared),
        })
        .wake();
        JoinHandle { result }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Cancel what is still queued, outside the lock.
        let queued = self.shared.queue.lock().take();
        self.shared.cv.notify_all();
        drop(queued);
        for worker in self.workers.drain(..) {
            worker.join().expect("executor worker exited cleanly");
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let task = {
            let mut queue = shared.queue.lock();
            loop {
                match queue.as_mut().map(VecDeque::pop_front) {
                    Some(Some(task)) => break task,
                    Some(None) => queue = shared.cv.wait(queue),
                    None => return,
                }
            }
        };
        let mut future = task.future.lock();
        // `None`: finished before this (stale) wake.
        if let Some(polled) = future.as_mut() {
            // From here on a wake queues the task again. A swap, not a
            // store: it reads the last wake's write, so this poll sees what
            // every wake the flag absorbed had changed.
            task.queued.swap(false, Ordering::Acquire);
            let waker = Waker::from(Arc::clone(&task));
            if polled
                .as_mut()
                .poll(&mut Context::from_waker(&waker))
                .is_ready()
            {
                *future = None;
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
    fn a_wake_before_park_returns_at_once_and_is_consumed_once() {
        crate::run_with_deadline("wake before park", Duration::from_secs(30), || {
            let parker = Arc::new(Parker::default());
            let waker = Waker::from(Arc::clone(&parker));
            waker.wake_by_ref();
            waker.wake_by_ref();
            assert!(parker.park(None), "the pending wake is reported");
            assert_eq!(parker.state.load(Ordering::SeqCst), EMPTY);
            assert!(!parker.take(), "two wakes before a park are one");
            // A wake pending at a deadline that has passed still counts.
            waker.wake_by_ref();
            assert!(parker.park(Some(Instant::now())));
            assert!(!parker.park(Some(Instant::now())), "consumed once");
        });
    }

    #[test]
    fn a_timed_park_without_a_wake_returns_false_and_leaves_the_word_empty() {
        crate::run_with_deadline("timed park", Duration::from_secs(30), || {
            let parker = Parker::default();
            // A stale token: the first sleep returns at once, spuriously.
            std::thread::current().unpark();
            let limit = Duration::from_millis(20);
            let started = Instant::now();
            assert!(!parker.park(Some(started + limit)));
            let elapsed = started.elapsed();
            assert!(elapsed >= limit, "returned early: {elapsed:?}");
            assert_eq!(parker.state.load(Ordering::SeqCst), EMPTY);
        });
    }

    #[test]
    fn two_parkers_hand_a_ball_back_and_forth_through_untimed_parks() {
        // Two threads that only yield crowd the CPUs, so that a parker's
        // yields hand its CPU over and wakes land in every phase of a park;
        // and every 1024th wake waits until its parker is asleep.
        const ROUNDS: u64 = 100_000;
        let ball = crate::run_with_deadline("parker ping-pong", Duration::from_secs(60), || {
            let stop = Arc::new(AtomicBool::new(false));
            let crowd: Vec<_> = (0..2)
                .map(|_| {
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        while !stop.load(Ordering::Relaxed) {
                            std::thread::yield_now();
                        }
                    })
                })
                .collect();
            // Relaxed on purpose: only the parkers order the ball's moves.
            let ball = Arc::new(AtomicU64::new(0));
            let ping = Arc::new(Parker::default());
            let (send_pong, pong) = mpsc::channel();
            let echo = {
                let (ball, ping) = (Arc::clone(&ball), Arc::clone(&ping));
                let wake_ping = Waker::from(Arc::clone(&ping));
                std::thread::spawn(move || {
                    let pong = Arc::new(Parker::default());
                    send_pong.send(Waker::from(Arc::clone(&pong))).unwrap();
                    for round in 0..ROUNDS {
                        assert!(pong.park(None));
                        assert_eq!(ball.load(Ordering::Relaxed), 2 * round + 1);
                        while round % 1024 == 0 && ping.state.load(Ordering::Relaxed) != PARKED {
                            std::thread::yield_now();
                        }
                        ball.store(2 * round + 2, Ordering::Relaxed);
                        wake_ping.wake_by_ref();
                    }
                })
            };
            let pong = pong.recv().expect("the echo thread's waker");
            for round in 0..ROUNDS {
                ball.store(2 * round + 1, Ordering::Relaxed);
                pong.wake_by_ref();
                assert!(ping.park(None));
                assert_eq!(ball.load(Ordering::Relaxed), 2 * round + 2);
            }
            echo.join().expect("echo thread");
            stop.store(true, Ordering::Relaxed);
            for thread in crowd {
                thread.join().expect("crowd thread");
            }
            ball.load(Ordering::Relaxed)
        });
        assert_eq!(ball, 2 * ROUNDS);
    }

    #[test]
    fn block_on_ready_future() {
        assert_eq!(block_on(async { 1 + 2 }), 3);
    }

    #[test]
    fn block_on_parks_between_polls() {
        let left = crate::run_with_deadline("block_on parks", Duration::from_secs(30), || {
            block_on(YieldTimes { remaining: 5 })
        });
        assert_eq!(left, 0);
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
        // Pending; the wake finds the flag clear and queues it again.
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
    fn a_wake_from_another_thread_mid_poll_polls_again_never_concurrently() {
        // Two workers. Every poll has another thread wake the task, then
        // lasts until the idle worker has taken the task off the queue:
        // that worker must wait for this poll to end, then poll again.
        struct WokenMidPoll {
            pool: Arc<PoolShared>,
            in_poll: AtomicBool,
            polls: usize,
        }
        impl Future for WokenMidPoll {
            type Output = usize;
            fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<usize> {
                assert!(!self.in_poll.swap(true, Ordering::SeqCst), "polls overlap");
                self.polls += 1;
                let waker = cx.waker().clone();
                std::thread::spawn(move || waker.wake())
                    .join()
                    .expect("waking thread");
                let queue = &self.pool.queue;
                while queue.lock().as_ref().is_some_and(|ready| !ready.is_empty()) {
                    std::thread::yield_now();
                }
                self.in_poll.store(false, Ordering::SeqCst);
                match self.polls {
                    20 => Poll::Ready(20),
                    _ => Poll::Pending,
                }
            }
        }
        let polls = crate::run_with_deadline(
            "wake mid-poll, two workers",
            Duration::from_secs(30),
            || {
                let pool = ThreadPool::new(2);
                let task = WokenMidPoll {
                    pool: Arc::clone(&pool.shared),
                    in_poll: AtomicBool::new(false),
                    polls: 0,
                };
                pool.spawn(task).join()
            },
        );
        assert_eq!(polls, 20);
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
        let started = Instant::now();
        let result = crate::run_with_deadline("timeout elapses", Duration::from_secs(30), || {
            block_on(timeout(Duration::from_millis(50), Stuck))
        });
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
        let flag = DropFlag(Arc::clone(&dropped));
        let result = crate::run_with_deadline("timeout drops", Duration::from_secs(30), || {
            block_on(timeout(Duration::from_millis(20), flag))
        });
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
        struct SleepUntil(Instant);
        impl Future for SleepUntil {
            type Output = ();
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
                if Instant::now() >= self.0 {
                    return Poll::Ready(());
                }
                wake_at(self.0, cx.waker().clone());
                Poll::Pending
            }
        }
        let pool = ThreadPool::new(2);
        let order = Arc::new(Mutex::new(Vec::new()));
        let now = Instant::now();
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
}
