//! The commit notifier behind composable blocking — synchronous *and*
//! asynchronous.
//!
//! Every [`Stm`](crate::Stm) owns one [`Notifier`]. The atomic block reads
//! the epoch *before* a round's first read; if every alternative of the
//! round ends in [`AbortReason::Retry`](zstm_core::AbortReason::Retry), the
//! waiter registers a [`Waker`] with the **channels** of what the round
//! read and suspends. A variable's channel is one of 64 bits
//! ([`Notifier::channel`]: `1 << (ObjId & 63)`); a transaction that commits
//! writes through the same `Stm` announces the channels it wrote
//! ([`Notifier::notify_channels`]) and wakes exactly the registrations
//! whose channels intersect — a waiter hears the commits that could have
//! changed what it read, plus those to variables whose ids are a multiple
//! of 64 away. A woken waiter re-runs its body and proceeds or retries
//! again: correct for all five engines with one id lookup asked of them.
//!
//! There is one waiter population, a slab of `{generation, channels,
//! waker}`: the async `Stm::atomically_async` future registers its task's
//! waker ([`Notifier::register_waker`]) and returns `Pending`; the
//! synchronous `Stm::atomically` driver registers its OS thread's
//! [`Parker`] and parks on it ([`Notifier::wait`]): the parker's state word
//! lets the thread yield the CPU a few times before it sleeps, so a commit
//! that wakes a waiter still on its way to sleep makes no system call.
//!
//! No wakeup is lost: every commit with writes also moves the **epoch**,
//! whatever it wrote, and a registration against an epoch that is no
//! longer the one the round captured is refused — the caller runs another
//! round (an unrelated commit can cost a re-run, never a sleep).
//! [`Notifier::notify_channels`] carries the argument.
//!
//! **Nothing else wakes a waiter.** There is no timeout behind an unbounded
//! park and no background thread: a writer that commits through the raw
//! engine SPI, around the `Stm` handle, wakes nobody until someone calls
//! [`Notifier::notify`] (`DynStm::notify_retries`) for it. DESIGN.md
//! (*Deliberate deviations*) says why there is no commit hook in the SPI.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::Waker;
use std::time::{Duration, Instant};

use zstm_core::ObjId;
use zstm_util::exec::Parker;
use zstm_util::sync::Mutex;

thread_local! {
    /// This OS thread's parker and the waker that sets it.
    static PARKER: (Arc<Parker>, Waker) = {
        let parker = Arc::new(Parker::default());
        (Arc::clone(&parker), Waker::from(parker))
    };

    /// The buffer [`Notifier::notify_channels`] collects wakers in, kept
    /// for this thread's next wake. A waker that commits re-entrantly
    /// finds it taken and starts one of its own.
    static WOKEN: Cell<Vec<Waker>> = const { Cell::new(Vec::new()) };
}

/// One waiter slot: a generation counter (bumped on every removal, so a
/// stale [`WakerKey`] can never deregister a later tenant of the slot)
/// plus, while occupied, the waker and the channels it waits on.
#[derive(Debug, Default)]
struct WakerSlot {
    gen: u64,
    reads: u64,
    waker: Option<Waker>,
}

/// The waiter slab behind the notifier mutex.
#[derive(Debug, Default)]
struct WakerSlots {
    slots: Vec<WakerSlot>,
    free: Vec<usize>,
}

/// Handle to one registration, returned by [`Notifier::register_waker`].
///
/// Pass it back to [`Notifier::deregister_waker`] when the suspended
/// future is dropped (cancellation) or re-polled; a key whose waker was
/// already consumed by a wake is harmlessly stale (generation-checked).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WakerKey {
    index: usize,
    gen: u64,
}

/// Commit notification: writers announce the channels they wrote, waiters
/// suspend on the channels they read.
#[derive(Debug, Default)]
pub struct Notifier {
    epoch: AtomicU64,
    /// Registrations currently in the slab, announced before the lock is
    /// taken. Writers skip the mutex + wakeups entirely while this is
    /// zero, so the common no-waiter commit pays one `SeqCst` add and one
    /// load — no shared lock on the commit path.
    suspended: AtomicU64,
    lock: Mutex<WakerSlots>,
}

impl Notifier {
    /// Creates a notifier at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The wake channel of the variable with this id: one of 64 bits.
    pub fn channel(id: ObjId) -> u64 {
        1 << (id.as_u64() & 63)
    }

    /// Current epoch. Capture this *before* the first read of a round
    /// that may block.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Wakes every waiter ([`notify_channels`](Self::notify_channels) with
    /// all 64): for a writer around the `Stm` handle, a server shutting down.
    pub fn notify(&self) {
        self.notify_channels(!0);
    }

    /// Announces a commit that wrote the channels `writes`: bumps the
    /// epoch and wakes the registrations whose channels intersect. With
    /// nobody suspended this is two uncontended atomic operations —
    /// writers do not serialize on the notifier mutex.
    ///
    /// No wakeup is lost. A round captures the epoch before its first
    /// read, so a commit it could have missed bumps the epoch after the
    /// capture. Either the bump precedes the registration's epoch check,
    /// which then refuses; or the waiter, which holds the lock from check
    /// to insertion, is in the slab once this call has the lock — and
    /// `writes` covers every variable the commit wrote, the registration's
    /// `reads` every variable the round read, so the masks intersect
    /// whenever the sets do. Ids 64 apart collide, which only adds a wake.
    pub fn notify_channels(&self, writes: u64) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        // SeqCst Dekker pairing with `register_waker`: the waiter
        // announces itself in `suspended` *before* checking the epoch, we
        // bump the epoch *before* reading the announcement — at least one
        // side always sees the other, so skipping the wake while
        // `suspended == 0` cannot strand a waiter.
        if self.suspended.load(Ordering::SeqCst) == 0 {
            return;
        }
        let mut slots = self.lock.lock();
        // Woken registrations leave the slab (they register again if they
        // still need to wait) and are woken *after* the lock drops — a
        // waker may synchronously run executor code, which must not nest
        // under the notifier mutex. They are collected in the thread's
        // buffer, taken out of it for the length of this call.
        let mut woken = WOKEN.try_with(Cell::take).unwrap_or_default();
        let WakerSlots { slots: slab, free } = &mut *slots;
        for (index, slot) in slab.iter_mut().enumerate() {
            if slot.reads & writes != 0 {
                if let Some(waker) = slot.waker.take() {
                    slot.gen += 1;
                    free.push(index);
                    woken.push(waker);
                }
            }
        }
        self.suspended
            .fetch_sub(woken.len() as u64, Ordering::SeqCst);
        drop(slots);
        for waker in woken.drain(..) {
            waker.wake();
        }
        // During thread teardown the buffer simply goes.
        let _ = WOKEN.try_with(|buffer| buffer.set(woken));
    }

    /// Parks the calling OS thread on the channels `reads` until a commit
    /// wakes the registration. Returns `None`, without sleeping, when the
    /// epoch is no longer `seen`. With `idle_limit: None` nothing but a
    /// wake ends the park; with a limit it also ends once that long has
    /// passed, and with `Some(false)` if no wake came ([`Self::lapsed`]).
    pub fn wait(&self, seen: u64, reads: u64, idle_limit: Option<Duration>) -> Option<bool> {
        PARKER.with(|(parker, waker)| {
            // A wake aimed at an earlier registration that gave up first.
            parker.take();
            let key = self.register_waker(seen, reads, waker)?;
            let deadline = idle_limit.map(|limit| Instant::now() + limit);
            parker.park(deadline);
            Some(!self.lapsed(key, deadline))
        })
    }

    /// Registers `waker` to be woken by the next commit that wrote one of
    /// the channels `reads`, **iff** the epoch still equals `seen`.
    ///
    /// Returns `None` when the epoch already moved — the caller must
    /// run another round instead of suspending, which is exactly the
    /// "no lost wakeups" check: a commit that slipped in between the
    /// round's epoch capture and this call refuses the registration.
    /// On `Some(key)`, the waker is woken at most once; the caller
    /// deregisters the key on cancellation (future drop) or keeps it to
    /// detect staleness.
    pub fn register_waker(&self, seen: u64, reads: u64, waker: &Waker) -> Option<WakerKey> {
        // Announce before the epoch check, so a concurrent commit either
        // sees us suspended (and takes the lock we hold) or we see its
        // epoch bump.
        self.suspended.fetch_add(1, Ordering::SeqCst);
        let mut slots = self.lock.lock();
        if self.epoch.load(Ordering::SeqCst) != seen {
            drop(slots);
            self.suspended.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        let index = match slots.free.pop() {
            Some(index) => index,
            None => {
                slots.slots.push(WakerSlot::default());
                slots.slots.len() - 1
            }
        };
        let slot = &mut slots.slots[index];
        debug_assert!(slot.waker.is_none(), "free slot must be vacant");
        (slot.reads, slot.waker) = (reads, Some(waker.clone()));
        Some(WakerKey {
            index,
            gen: slot.gen,
        })
    }

    /// Removes a registration made by [`Notifier::register_waker`].
    ///
    /// Returns `true` if it was still registered — no wake has reached it,
    /// and now none will — and `false` if a wake had already consumed it
    /// (stale key; harmless).
    pub fn deregister_waker(&self, key: WakerKey) -> bool {
        let mut slots = self.lock.lock();
        let Some(slot) = slots.slots.get_mut(key.index) else {
            return false;
        };
        if slot.gen != key.gen || slot.waker.is_none() {
            return false;
        }
        slot.waker = None;
        slot.gen += 1;
        slots.free.push(key.index);
        drop(slots);
        self.suspended.fetch_sub(1, Ordering::SeqCst);
        true
    }

    /// Removes the registration and says whether it ran out in silence (rule
    /// 3 of the atomic block): no wake reached it and `deadline` has passed.
    pub fn lapsed(&self, key: WakerKey, deadline: Option<Instant>) -> bool {
        self.deregister_waker(key) && deadline.is_some_and(|at| Instant::now() >= at)
    }

    /// Number of registrations currently in the slab — parked threads and
    /// suspended tasks alike (test instrumentation).
    pub fn registered_wakers(&self) -> usize {
        let slots = self.lock.lock();
        slots.slots.iter().filter(|s| s.waker.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::task::Wake;

    /// A waker that counts its wakes.
    struct CountingWaker(AtomicUsize);

    impl CountingWaker {
        fn new() -> Arc<Self> {
            Arc::new(Self(AtomicUsize::new(0)))
        }

        fn wakes(&self) -> usize {
            self.0.load(Ordering::SeqCst)
        }
    }

    impl Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Registers a fresh counting waker on `reads` at the current epoch.
    fn register(n: &Notifier, reads: u64) -> (Arc<CountingWaker>, WakerKey) {
        let counting = CountingWaker::new();
        let key = n
            .register_waker(n.epoch(), reads, &Waker::from(Arc::clone(&counting)))
            .expect("fresh epoch registers");
        (counting, key)
    }

    /// Channel number `bit` as a mask.
    fn channel(bit: u32) -> u64 {
        1 << bit
    }

    /// Spawns a thread that parks on `reads` with no limit, and waits
    /// until it is in the slab beside `others` registrations.
    fn park_thread(
        n: &Arc<Notifier>,
        reads: u64,
        others: usize,
    ) -> std::thread::JoinHandle<Option<bool>> {
        let (n2, seen) = (Arc::clone(n), n.epoch());
        let parked = std::thread::spawn(move || n2.wait(seen, reads, None));
        while n.registered_wakers() < others + 1 {
            std::thread::yield_now();
        }
        parked
    }

    #[test]
    fn wait_returns_immediately_on_stale_epoch() {
        let n = Notifier::new();
        let seen = n.epoch();
        n.notify_channels(channel(9));
        assert_eq!(n.wait(seen, channel(3), None), None, "did not sleep");
        assert_eq!(n.registered_wakers(), 0);
    }

    #[test]
    fn wait_times_out_without_commit() {
        let n = Notifier::new();
        let limit = Duration::from_millis(5);
        assert_eq!(n.wait(n.epoch(), !0, Some(limit)), Some(false));
        assert_eq!(n.registered_wakers(), 0);
        assert_eq!(n.suspended.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_wake_for_a_registration_that_gave_up_does_not_end_the_next_park() {
        // The thread's parker is shared by its registrations one after the
        // other: a wake that arrives late for the first must be taken off
        // it before the second, or the second park returns at once,
        // unregistered by nobody, and would read as woken.
        let n = Notifier::new();
        PARKER.with(|(_, waker)| waker.wake_by_ref());
        let started = Instant::now();
        let limit = Duration::from_millis(30);
        assert_eq!(n.wait(n.epoch(), !0, Some(limit)), Some(false));
        assert!(started.elapsed() >= limit, "the stale wake ended the park");
    }

    #[test]
    fn notify_wakes_parked_waiter() {
        let n = Arc::new(Notifier::new());
        // No limit: nothing but the notify below ends this park.
        let waiter = park_thread(&n, !0, 0);
        n.notify();
        assert_eq!(waiter.join().expect("waiter finished"), Some(true));
        assert_eq!(n.suspended.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn stale_epoch_refuses_waker_registration() {
        let n = Notifier::new();
        let counting = CountingWaker::new();
        let waker = Waker::from(Arc::clone(&counting));
        let seen = n.epoch();
        // Any commit moves the epoch, whatever it wrote.
        n.notify_channels(channel(1));
        assert!(
            n.register_waker(seen, channel(2), &waker).is_none(),
            "a commit between capture and registration must refuse the registration"
        );
        assert_eq!(n.registered_wakers(), 0);
    }

    #[test]
    fn notify_consumes_and_wakes_registered_wakers() {
        let n = Notifier::new();
        let (counting, key) = register(&n, channel(0));
        assert_eq!(n.registered_wakers(), 1);
        n.notify();
        assert_eq!(counting.wakes(), 1, "notify wakes the registered waker");
        assert_eq!(n.registered_wakers(), 0, "the wake consumed the slot");
        // A second notify does not wake again (at-most-once).
        n.notify();
        assert_eq!(counting.wakes(), 1);
        // The stale key deregisters as a no-op.
        assert!(!n.deregister_waker(key));
    }

    #[test]
    fn a_commit_on_a_disjoint_channel_wakes_nobody() {
        let n = Notifier::new();
        let (counting, key) = register(&n, channel(3) | channel(17));
        n.notify_channels(channel(4) | channel(16) | channel(63));
        assert_eq!(counting.wakes(), 0, "nothing it read was written");
        assert_eq!(n.registered_wakers(), 1);
        assert_eq!(n.suspended.load(Ordering::SeqCst), 1, "still announced");
        // An intersecting mask wakes it, once.
        n.notify_channels(channel(17) | channel(40));
        assert_eq!(counting.wakes(), 1);
        assert_eq!(n.registered_wakers(), 0);
        assert_eq!(n.suspended.load(Ordering::SeqCst), 0);
        n.notify_channels(channel(17));
        assert_eq!(counting.wakes(), 1, "at most once");
        assert!(!n.deregister_waker(key), "the wake consumed the key");
    }

    #[test]
    fn ids_64_apart_share_a_channel_and_wake_each_other() {
        // Spurious, never lost.
        let read = ObjId::fresh();
        let written = std::iter::repeat_with(ObjId::fresh)
            .find(|id| (id.as_u64() - read.as_u64()) % 64 == 0)
            .expect("ids keep coming");
        let n = Notifier::new();
        let (counting, _) = register(&n, Notifier::channel(read));
        n.notify_channels(Notifier::channel(written));
        assert_eq!(counting.wakes(), 1);
        // And neighbouring ids do not share one.
        let (counting, _) = register(&n, Notifier::channel(read));
        n.notify_channels(Notifier::channel(ObjId::fresh()));
        assert_eq!(counting.wakes(), 0);
    }

    #[test]
    fn a_registration_on_all_channels_is_woken_by_any_and_notify_wakes_all() {
        let n = Notifier::new();
        let (everything, _) = register(&n, !0);
        let (one, _) = register(&n, channel(8));
        n.notify_channels(channel(41));
        assert_eq!((everything.wakes(), one.wakes()), (1, 0));
        let (two, _) = register(&n, channel(9));
        n.notify();
        assert_eq!((one.wakes(), two.wakes()), (1, 1));
        assert_eq!(n.registered_wakers(), 0);
    }

    #[test]
    fn deregistered_waker_is_never_woken() {
        let n = Notifier::new();
        let (counting, key) = register(&n, channel(2));
        assert!(n.deregister_waker(key), "live registration removed");
        n.notify_channels(channel(2));
        assert_eq!(counting.wakes(), 0, "cancelled waiter must stay silent");
        assert_eq!(n.registered_wakers(), 0);
    }

    #[test]
    fn stale_key_cannot_evict_a_later_tenant_of_the_slot() {
        let n = Notifier::new();
        let (_first, key) = register(&n, channel(1));
        n.notify_channels(channel(1)); // consumes `first`, frees the slot
        let (second, key2) = register(&n, channel(2));
        assert_eq!(key.index, key2.index, "slot reused");
        // The stale first key must not deregister the second tenant, and
        // the first tenant's channel must not wake it.
        assert!(!n.deregister_waker(key));
        assert!(!n.lapsed(key, Some(Instant::now())));
        n.notify_channels(channel(1));
        assert_eq!((n.registered_wakers(), second.wakes()), (1, 0));
        n.notify_channels(channel(2));
        assert_eq!(second.wakes(), 1);
    }

    #[test]
    fn a_registered_waker_is_woken_by_notify_and_by_nothing_else() {
        let n = Notifier::new();
        let (counting, _) = register(&n, !0);
        std::thread::sleep(Duration::from_millis(250));
        assert_eq!(counting.wakes(), 0, "no timer stands behind a registration");
        assert_eq!(n.registered_wakers(), 1);
        n.notify();
        assert_eq!(counting.wakes(), 1);
        assert_eq!(n.registered_wakers(), 0);
    }

    #[test]
    fn mixed_condvar_and_waker_waiters_all_wake_on_one_notify() {
        let n = Arc::new(Notifier::new());
        let (counting, _) = register(&n, channel(7));
        let (elsewhere, _) = register(&n, channel(8));
        let parked = park_thread(&n, channel(7), 2);
        let parked_elsewhere = park_thread(&n, channel(8), 3);
        n.notify_channels(channel(7));
        assert_eq!(parked.join().expect("parked thread woke"), Some(true));
        assert_eq!(counting.wakes(), 1, "the task on the channel woken too");
        // The thread and the task on the other channel are where they were.
        assert_eq!((n.registered_wakers(), elsewhere.wakes()), (2, 0));
        assert!(!parked_elsewhere.is_finished());
        n.notify_channels(channel(8));
        assert_eq!(parked_elsewhere.join().expect("woke"), Some(true));
    }
}
