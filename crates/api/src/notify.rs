//! The commit notifier behind composable blocking — synchronous *and*
//! asynchronous.
//!
//! Every [`Stm`](crate::Stm) owns one [`Notifier`]. The atomic block reads
//! the epoch *before* a round's first read; if every alternative of the
//! round ends in [`AbortReason::Retry`](zstm_core::AbortReason::Retry), the
//! waiter suspends until the epoch leaves the captured value. Every
//! transaction that commits **with writes** through the same `Stm` bumps
//! the epoch — a conservative wake (any writer, any variable) that is
//! correct for all five engines with zero engine changes: a woken waiter
//! simply re-runs its body and either proceeds or retries again.
//!
//! A waiter suspends in one of two shapes:
//!
//! * **condvar park** ([`Notifier::wait`]) — the synchronous
//!   `Stm::atomically` driver puts the whole OS thread to sleep;
//! * **waker registration** ([`Notifier::register_waker`]) — the async
//!   `Stm::atomically_async` future stores a [`Waker`] and returns
//!   `Pending`, releasing its executor thread. [`Notifier::notify`] wakes
//!   both populations.
//!
//! The protocol has no lost wakeups in either shape: the epoch is captured
//! before the round's first read, so a write committed after the capture
//! (the only write the round could have missed) has already bumped the
//! epoch by the time the waiter suspends — [`Notifier::wait`] returns
//! immediately, and [`Notifier::register_waker`] refuses the registration
//! (the caller runs another round instead of suspending).
//!
//! **Nothing else wakes a waiter.** There is no timeout behind an unbounded
//! park and no background thread: a writer that commits through the raw
//! engine SPI, around the `Stm` handle, wakes nobody until someone calls
//! [`Notifier::notify`] (`DynStm::notify_retries`) for it. DESIGN.md
//! (*Deliberate deviations*) says why there is no commit hook in the SPI.

use std::sync::atomic::{AtomicU64, Ordering};
use std::task::Waker;
use std::time::{Duration, Instant};

use zstm_util::sync::{Condvar, Mutex};

/// One waker slot: a generation counter (bumped on every removal, so a
/// stale [`WakerKey`] can never deregister a later tenant of the slot)
/// plus the registered waker while occupied.
#[derive(Debug, Default)]
struct WakerSlot {
    gen: u64,
    waker: Option<Waker>,
}

/// The waker slab behind the notifier mutex.
#[derive(Debug, Default)]
struct WakerSlots {
    slots: Vec<WakerSlot>,
    free: Vec<usize>,
}

/// Handle to one waker registration, returned by
/// [`Notifier::register_waker`].
///
/// Pass it back to [`Notifier::deregister_waker`] when the suspended
/// future is dropped (cancellation) or re-polled; a key whose waker was
/// already consumed by a wake is harmlessly stale (generation-checked).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WakerKey {
    index: usize,
    gen: u64,
}

/// Epoch-based commit notification: bump on writer commit, suspend until
/// the epoch moves.
#[derive(Debug, Default)]
pub struct Notifier {
    epoch: AtomicU64,
    /// Threads currently inside [`Notifier::wait`] plus wakers currently
    /// registered. Writers skip the mutex + wakeups entirely while this is
    /// zero, so the common no-waiter commit pays one `SeqCst` add and one
    /// load — no shared lock on the commit path.
    suspended: AtomicU64,
    lock: Mutex<WakerSlots>,
    cv: Condvar,
}

impl Notifier {
    /// Creates a notifier at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current epoch. Capture this *before* the first read of a round
    /// that may block.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Announces a writer commit: bumps the epoch and wakes every
    /// suspended waiter — parked threads and registered wakers alike. With
    /// nobody suspended this is two uncontended atomic operations —
    /// writers do not serialize on the notifier mutex.
    pub fn notify(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        // SeqCst Dekker pairing with `wait` and `register_waker`: the
        // waiter announces itself in `suspended` *before* checking the
        // epoch, we bump the epoch *before* reading the announcement — at
        // least one side always sees the other, so skipping the wake while
        // `suspended == 0` cannot strand a waiter.
        if self.suspended.load(Ordering::SeqCst) == 0 {
            return;
        }
        // Taking the lock orders the bump against waiters that checked the
        // epoch but have not yet suspended: they hold the lock between
        // check and suspension, so by the time we acquire it they either
        // saw the new epoch or are already waiting/registered.
        let mut slots = self.lock.lock();
        // Registered wakers are taken out of the slab (they re-register on
        // their next poll if they still need to wait) and woken *after*
        // the lock drops — a waker may synchronously run executor code,
        // which must not nest under the notifier mutex.
        let mut woken = Vec::new();
        let WakerSlots { slots: slab, free } = &mut *slots;
        for (index, slot) in slab.iter_mut().enumerate() {
            if let Some(waker) = slot.waker.take() {
                slot.gen += 1;
                free.push(index);
                woken.push(waker);
            }
        }
        self.suspended
            .fetch_sub(woken.len() as u64, Ordering::SeqCst);
        drop(slots);
        self.cv.notify_all();
        for waker in woken {
            waker.wake();
        }
    }

    /// Parks the calling OS thread until the epoch differs from `seen`.
    /// With `idle_limit: None` nothing but a [`notify`](Self::notify) ends
    /// the park; with a limit the park also ends once that long has passed.
    /// Returns `true` if the epoch moved (a commit happened), `false` if
    /// the limit ran out first.
    pub fn wait(&self, seen: u64, idle_limit: Option<Duration>) -> bool {
        let deadline = idle_limit.map(|limit| Instant::now() + limit);
        self.suspended.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.lock.lock();
        let moved = loop {
            if self.epoch.load(Ordering::SeqCst) != seen {
                break true;
            }
            guard = match deadline {
                None => self.cv.wait(guard),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        break false;
                    }
                    self.cv.wait_timeout(guard, deadline - now).0
                }
            };
        };
        drop(guard);
        self.suspended.fetch_sub(1, Ordering::SeqCst);
        moved
    }

    /// Registers `waker` to be woken by the next [`Notifier::notify`],
    /// **iff** the epoch still equals `seen`.
    ///
    /// Returns `None` when the epoch already moved — the caller must
    /// run another round instead of suspending, which is exactly the
    /// "no lost wakeups" check: a commit that slipped in between the
    /// round's epoch capture and this call refuses the registration.
    /// On `Some(key)`, the waker is woken at most once; the caller
    /// deregisters the key on cancellation (future drop) or keeps it to
    /// detect staleness.
    pub fn register_waker(&self, seen: u64, waker: &Waker) -> Option<WakerKey> {
        // Announce before the epoch check (same Dekker pairing as `wait`),
        // so a concurrent `notify` either sees us suspended (and takes the
        // lock we hold) or we see its epoch bump.
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
        slot.waker = Some(waker.clone());
        Some(WakerKey {
            index,
            gen: slot.gen,
        })
    }

    /// Removes a registration made by [`Notifier::register_waker`].
    ///
    /// Returns `true` if the waker was still registered (the caller was
    /// suspended and is now forgotten — the cancellation path), `false` if
    /// a wake had already consumed it (stale key; harmless).
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

    /// Number of currently registered wakers (test instrumentation).
    pub fn registered_wakers(&self) -> usize {
        let slots = self.lock.lock();
        slots.slots.iter().filter(|s| s.waker.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
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

    #[test]
    fn wait_returns_immediately_on_stale_epoch() {
        let n = Notifier::new();
        let seen = n.epoch();
        n.notify();
        assert!(n.wait(seen, None));
    }

    #[test]
    fn wait_times_out_without_commit() {
        let n = Notifier::new();
        let seen = n.epoch();
        assert!(!n.wait(seen, Some(Duration::from_millis(5))));
    }

    #[test]
    fn notify_wakes_parked_waiter() {
        let n = Arc::new(Notifier::new());
        let seen = n.epoch();
        let n2 = Arc::clone(&n);
        // No limit: nothing but the notify below ends this park.
        let waiter = std::thread::spawn(move || n2.wait(seen, None));
        // Give the waiter a moment to park, then notify.
        std::thread::sleep(Duration::from_millis(20));
        n.notify();
        assert!(waiter.join().expect("waiter finished"));
    }

    #[test]
    fn stale_epoch_refuses_waker_registration() {
        let n = Notifier::new();
        let counting = CountingWaker::new();
        let waker = Waker::from(Arc::clone(&counting));
        let seen = n.epoch();
        n.notify();
        assert!(
            n.register_waker(seen, &waker).is_none(),
            "a commit between capture and registration must refuse the registration"
        );
        assert_eq!(n.registered_wakers(), 0);
    }

    #[test]
    fn notify_consumes_and_wakes_registered_wakers() {
        let n = Notifier::new();
        let counting = CountingWaker::new();
        let waker = Waker::from(Arc::clone(&counting));
        let key = n
            .register_waker(n.epoch(), &waker)
            .expect("fresh epoch registers");
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
    fn deregistered_waker_is_never_woken() {
        let n = Notifier::new();
        let counting = CountingWaker::new();
        let waker = Waker::from(Arc::clone(&counting));
        let key = n.register_waker(n.epoch(), &waker).expect("registers");
        assert!(n.deregister_waker(key), "live registration removed");
        n.notify();
        assert_eq!(counting.wakes(), 0, "cancelled waiter must stay silent");
        assert_eq!(n.registered_wakers(), 0);
    }

    #[test]
    fn stale_key_cannot_evict_a_later_tenant_of_the_slot() {
        let n = Notifier::new();
        let first = CountingWaker::new();
        let key = n
            .register_waker(n.epoch(), &Waker::from(Arc::clone(&first)))
            .expect("registers");
        n.notify(); // consumes `first`, frees the slot
        let second = CountingWaker::new();
        let _key2 = n
            .register_waker(n.epoch(), &Waker::from(Arc::clone(&second)))
            .expect("slot reused");
        // The stale first key must not deregister the second tenant.
        assert!(!n.deregister_waker(key));
        assert_eq!(n.registered_wakers(), 1);
        n.notify();
        assert_eq!(second.wakes(), 1);
    }

    #[test]
    fn a_registered_waker_is_woken_by_notify_and_by_nothing_else() {
        let n = Notifier::new();
        let counting = CountingWaker::new();
        let waker = Waker::from(Arc::clone(&counting));
        n.register_waker(n.epoch(), &waker).expect("registers");
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
        let seen = n.epoch();
        let counting = CountingWaker::new();
        n.register_waker(seen, &Waker::from(Arc::clone(&counting)))
            .expect("registers");
        let parked = {
            let n = Arc::clone(&n);
            std::thread::spawn(move || n.wait(seen, None))
        };
        std::thread::sleep(Duration::from_millis(20));
        n.notify();
        assert!(parked.join().expect("parked thread woke"));
        assert_eq!(counting.wakes(), 1, "waker population woken too");
    }
}
