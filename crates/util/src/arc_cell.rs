//! Lock-free [`Arc`] publication: [`ArcCell`], [`Guarded`] and [`ArcSlots`].
//!
//! The build environment cannot fetch `arc-swap`, so this module builds the
//! primitive the STM read fast paths need from scratch: a cell holding an
//! `Arc<T>` that readers can look into — or clone — without ever taking a
//! mutex and writers can replace without ever blocking readers.
//!
//! # The hazard-slot protocol
//!
//! A global, fixed array of *hazard slots* (shared by every cell in the
//! process) protects readers from use-after-free:
//!
//! 1. **read** — the reader loads the cell's current pointer, *announces*
//!    it by claiming a free hazard slot (one compare-and-swap, started at a
//!    per-thread slot hint so the claim is uncontended in the common case),
//!    and then **revalidates** that the cell still holds the same pointer.
//!    If it does, the announcement is visible to every writer that could
//!    retire the pointer, so the value may be used in place: the reader's
//!    closure runs on `&T` *inside* this window — no reference count is
//!    touched — and the slot is released when it returns or unwinds (a
//!    drop guard). If the pointer changed, the reader backs out and
//!    retries with the new value. [`ArcCell::load`] is the same section
//!    with "take one more strong count" as its closure; there is one
//!    announce/revalidate loop.
//! 2. **swap** — the writer atomically swaps the cell's pointer and then
//!    waits (bounded exponential [`Backoff`]) until no hazard slot a reader
//!    can occupy (*the scanned prefix*, below) contains the old pointer
//!    before reclaiming the old `Arc` reference: at most one reader window
//!    per reader that announced the old pointer, since a reader arriving
//!    after the swap announces the new one.
//!
//! What runs inside a window is therefore what a writer may have to wait
//! for. The STM cells run their seqlock hook (a zone stamp, a reader-slot
//! announcement) and one `T::clone` there; none of it blocks or publishes
//! into the same cell (that writer would wait for its own reader).
//!
//! The announce/revalidate pair and the swap/scan pair form a classic
//! store-buffering (Dekker) race, so all four operations use sequentially
//! consistent ordering: either the reader's re-check observes the swap (and
//! the reader retries without touching the value), or the writer's scan
//! observes the announcement (and waits the reader out). A republished
//! pointer (A-B-A) is harmless: publication always transfers a strong count
//! *into* the cell, so a protected value is never on its last count.
//!
//! Readers perform no mutex acquisition and no unbounded CAS loop: the only
//! CAS is the slot claim, which retries solely on genuine slot collisions
//! (bounded probing, then backoff).
//!
//! # Rewriting a displaced value
//!
//! The `Arc` a swap hands back may be rewritten in place once
//! [`Arc::get_mut`] succeeds, and published again — the LSA/Z version
//! history builds each new version in the allocation of the one it prunes.
//! Hazard slots hold no count, so `get_mut` can succeed while a reader has
//! the old pointer in hand; that is safe for three reasons:
//!
//! * The swap that displaced the value waited out every reader whose
//!   window was open on it, and a window opens only when the re-check finds
//!   the announced pointer *current*. So while the value is out of the
//!   cell — the only time anyone can rewrite it — no reader dereferences
//!   it: a late reader's re-check fails and it retries.
//! * A reader that loaded the pointer before the swap may find it
//!   published again by the time it re-checks. It then reads the *new*
//!   value: its `SeqCst` re-check read the publishing swap, which came
//!   after the rewrite, so the whole rewrite is visible to it. It reads a
//!   value that is current at its re-check, as any reader does.
//! * Rewriting it again needs another swap, which waits for that window.
//!
//! A reader that must know *which* value it read checks that inside the
//! window — the STM cells' seqlock read compares the version's sequence
//! number with its word sample and declines on a mismatch. The allocator
//! could always hand a freed address back; reuse only makes it certain.
//!
//! # One inlined window
//!
//! [`ArcCell::read`] and [`Guarded::read`] are always inlined, and so is the
//! STM cells' seqlock read on top of them, so that what a reader copies out
//! of a version stays in registers up to its caller. Returned through
//! memory from a call instead, a copied-out version was stored in 8-byte
//! halves and reloaded 16 bytes at a time, and each failed store forwarding
//! stalled the read: it cost `bank_z_long`'s long reads a quarter of their
//! time, and whether it happened turned on unrelated inlining decisions.
//!
//! # The scanned prefix
//!
//! A thread's hint is the lowest one no live thread holds (handed back by a
//! drop guard in the thread-local when the thread exits), and `MARK` is one
//! past the highest hint ever handed out: the most threads that were inside
//! this module at once, not the number ever started. A reader probes
//! `CLAIM_PROBES` slots from its hint, so every slot a reader can occupy
//! lies below `MARK + CLAIM_PROBES`, and that prefix is all a writer scans.
//! A thread that joins while a writer scans is covered by the same Dekker
//! argument, because the hint claim (the `fetch_max` on `MARK`) and the
//! writer's load of `MARK` are sequentially consistent too. In the one total
//! order, a writer's steps are *swap, load the mark, scan* and a new
//! reader's are *claim the hint, announce, revalidate*: a writer whose load
//! missed the claim swapped before that reader's revalidation, which
//! therefore sees the swap and retries; any other writer scans the reader's
//! slot. A recycled hint is below the mark already, and a section entered
//! during thread teardown, after the guard ran, probes from slot 0, which
//! every scan covers.
//!
//! # One owner under a lock
//!
//! [`Guarded`] pairs a published `Arc<T>` with a mutex-protected `L`:
//! anyone may [`Guarded::read`] or [`Guarded::load`] as on an [`ArcCell`],
//! but only the lock's holder can replace the value, through
//! [`Guard::publish`], which needs the guard mutably. So the holder looks
//! at the value it would replace with [`Guard::current`] — a plain borrow,
//! no hazard slot, no count — and a `Guarded` keeps exactly one strong
//! count of its value, the published pointer's.
//!
//! [`ArcSlots`] is the simpler cousin used by S-STM's visible reads: a
//! bounded set of `Arc`-holding slots with lock-free insert/remove/drain.
//! It needs no hazards because slots *own* their reference: whoever
//! atomically empties a slot receives the count, so no reference is ever
//! touched without ownership.
#![allow(unsafe_code)]

use core::marker::PhantomData;
use core::ops::{Deref, DerefMut};
use core::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::ptr;
use std::sync::Arc;

use crate::sync::{Mutex, MutexGuard};
use crate::{Backoff, CachePadded};

/// Number of global hazard slots. More than the typical number of live
/// threads, so claim collisions stay rare; readers that find every slot
/// busy back off and retry (a slot is held for one reader closure: a copy
/// out of the value, or a count taken).
const HAZARD_SLOTS: usize = 64;

/// Slots probed past the per-thread hint before backing off.
const CLAIM_PROBES: usize = 8;

/// The process-wide hazard-slot array, shared by every [`ArcCell`]. Padded
/// so concurrent announcements do not false-share.
static SLOTS: [CachePadded<AtomicPtr<()>>; HAZARD_SLOTS] =
    [const { CachePadded::new(AtomicPtr::new(ptr::null_mut())) }; HAZARD_SLOTS];

/// Bit `h` is set while no live thread holds hint `h`.
static FREE_HINTS: AtomicU64 = AtomicU64::new(u64::MAX);

/// One past the highest hint ever handed out; grows only (module docs).
static MARK: AtomicUsize = AtomicUsize::new(0);

/// Hands out shared hints while `HAZARD_SLOTS` live threads hold one each.
static SHARED_HINTS: AtomicUsize = AtomicUsize::new(0);

/// A thread's slot hint; one below `HAZARD_SLOTS` is the thread's own and
/// goes back to `FREE_HINTS` when the thread exits.
struct Hint(usize);

impl Hint {
    fn claim() -> Self {
        let mut free = FREE_HINTS.load(Ordering::Relaxed);
        let hint = loop {
            if free == 0 {
                break HAZARD_SLOTS + SHARED_HINTS.fetch_add(1, Ordering::Relaxed) % HAZARD_SLOTS;
            }
            let lowest = free.trailing_zeros() as usize;
            let taken = free & !(1 << lowest);
            match FREE_HINTS.compare_exchange_weak(
                free,
                taken,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break lowest,
                Err(now) => free = now,
            }
        };
        // SeqCst, and before this thread's first announcement: the
        // reader's half of the module docs' argument.
        MARK.fetch_max((hint + 1).min(HAZARD_SLOTS), Ordering::SeqCst);
        Self(hint)
    }
}

impl Drop for Hint {
    fn drop(&mut self) {
        if self.0 < HAZARD_SLOTS {
            FREE_HINTS.fetch_or(1 << self.0, Ordering::Relaxed);
        }
    }
}

thread_local! {
    /// Each live thread starts probing at its own slot, so uncontended
    /// loads claim on the first compare-and-swap.
    static SLOT_HINT: Hint = Hint::claim();
}

/// Number of leading hazard slots a writer scans: every slot a reader can
/// occupy (module docs). For tests of the hint recycling.
#[doc(hidden)]
pub fn scanned_prefix() -> usize {
    (MARK.load(Ordering::SeqCst) + CLAIM_PROBES).min(HAZARD_SLOTS)
}

/// Claims a free hazard slot and announces `ptr` in it. Returns the slot
/// on success, `None` when every probed slot is busy.
fn announce(ptr: *mut (), hint: usize) -> Option<&'static AtomicPtr<()>> {
    for probe in 0..CLAIM_PROBES {
        let slot = &SLOTS[(hint + probe) % HAZARD_SLOTS];
        if slot
            .compare_exchange(ptr::null_mut(), ptr, Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            return Some(slot);
        }
    }
    None
}

/// Spins until no hazard slot a reader can occupy announces `old`
/// (writer-side reclamation barrier). Uses the shared [`Backoff`] schedule
/// rather than ad-hoc spinning.
fn wait_unprotected(old: *mut ()) {
    let mut backoff = Backoff::new();
    for slot in &SLOTS[..scanned_prefix()] {
        while ptr::eq(slot.load(Ordering::SeqCst), old) {
            backoff.spin();
        }
    }
}

/// A lock-free cell holding an `Arc<T>`.
///
/// [`ArcCell::read`] runs a closure on the current value and
/// [`ArcCell::load`] clones the current `Arc`, both without a mutex
/// (hazard-slot announce + revalidate); [`ArcCell::store`]/[`ArcCell::swap`]
/// replace it and reclaim the previous reference once no reader still
/// protects it.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use zstm_util::ArcCell;
///
/// let cell = ArcCell::new(Arc::new(1u64));
/// assert_eq!(*cell.load(), 1);
/// cell.store(Arc::new(2));
/// assert_eq!(*cell.load(), 2);
/// ```
pub struct ArcCell<T> {
    /// The published pointer, produced by [`Arc::into_raw`]; never null.
    current: AtomicPtr<T>,
    /// The cell logically owns one `Arc<T>` strong count.
    _marker: PhantomData<Arc<T>>,
}

impl<T> ArcCell<T> {
    /// Creates a cell publishing `value`.
    pub fn new(value: Arc<T>) -> Self {
        Self {
            current: AtomicPtr::new(Arc::into_raw(value).cast_mut()),
            _marker: PhantomData,
        }
    }

    /// The one protected section: announces the published pointer in a
    /// hazard slot, revalidates it, runs `run` on it and releases the slot
    /// — also when `run` unwinds. While `run` executes, the pointer's
    /// `Arc` cannot be reclaimed. Always inlined (module docs).
    #[inline(always)]
    fn protected<R>(&self, run: impl FnOnce(*const T) -> R) -> R {
        /// Frees the claimed slot on every way out of the section.
        struct Release(&'static AtomicPtr<()>);
        impl Drop for Release {
            fn drop(&mut self) {
                self.0.store(ptr::null_mut(), Ordering::Release);
            }
        }

        // During thread teardown, once the hint went back: slot 0.
        let hint = SLOT_HINT.try_with(|hint| hint.0).unwrap_or(0);
        let mut backoff = Backoff::new();
        loop {
            let ptr = self.current.load(Ordering::Acquire);
            let Some(slot) = announce(ptr.cast::<()>(), hint) else {
                backoff.spin();
                continue;
            };
            let _release = Release(slot);
            // Dekker pair with `swap`: the announcement (SeqCst CAS) is
            // ordered against this SeqCst re-check, so either we see the
            // writer's swap here, or the writer's scan sees our slot and
            // waits before reclaiming.
            if self.current.load(Ordering::SeqCst) == ptr {
                return run(ptr);
            }
            // A writer replaced the value between the load and the
            // announcement; retry against the new pointer.
        }
    }

    /// Runs `f` on the currently published value without locking and
    /// without touching its reference count: the value is protected by the
    /// reader's hazard slot for as long as `f` runs, so a writer replacing
    /// it waits for `f` to return before it reclaims the old value. Keep
    /// `f` to copying out what is needed, and never publish into this cell
    /// from inside it (the writer would wait for its own reader).
    ///
    /// ```
    /// use std::sync::Arc;
    /// use zstm_util::ArcCell;
    ///
    /// let cell = ArcCell::new(Arc::new((7u64, String::from("seven"))));
    /// assert_eq!(cell.read(|pair| pair.0), 7);
    /// ```
    #[inline(always)]
    pub fn read<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        // SAFETY: `protected` hands out the published pointer, which came
        // from `Arc::into_raw` and whose `Arc` is kept alive by the cell's
        // own count (or by a writer waiting on our hazard slot) until the
        // closure returns; the reference does not escape it.
        self.protected(|ptr| f(unsafe { &*ptr }))
    }

    /// Clones the currently published `Arc` without locking.
    ///
    /// Wait-free against writers in the common case (one pointer load, one
    /// slot claim, one revalidating load); retries only when the published
    /// value changes mid-read or every probed hazard slot is busy.
    pub fn load(&self) -> Arc<T> {
        self.protected(|ptr| {
            // SAFETY: the pointer is protected: a strong count is held by
            // the cell (or a pending writer that must wait for our slot),
            // so taking another count is safe, and we own the one taken.
            unsafe {
                Arc::increment_strong_count(ptr);
                Arc::from_raw(ptr)
            }
        })
    }

    /// Publishes `value`, returning the previously published `Arc`.
    ///
    /// Blocks only for readers inside the window of a `read` or `load`
    /// that announced the old value (bounded [`Backoff`]); safe to call
    /// from several writers concurrently, though callers in this workspace
    /// serialize writes under their object lock anyway.
    pub fn swap(&self, value: Arc<T>) -> Arc<T> {
        let new = Arc::into_raw(value).cast_mut();
        let old = self.current.swap(new, Ordering::SeqCst);
        wait_unprotected(old.cast::<()>());
        // No hazard slot protects `old` any more and the cell's count for
        // it is now ours to reclaim.
        unsafe { Arc::from_raw(old) }
    }

    /// Publishes `value`, dropping the previously published `Arc`.
    pub fn store(&self, value: Arc<T>) {
        drop(self.swap(value));
    }

    /// Borrows the published value with no hazard slot and no count.
    ///
    /// # Safety
    ///
    /// No `swap` of this cell may run while the reference lives: the
    /// cell's own strong count is all that keeps the value alive.
    unsafe fn peek(&self) -> &T {
        // SAFETY: the pointer came from `Arc::into_raw` and the cell holds
        // a strong count of it until it is swapped out, which the caller
        // excludes. (Its mutex already orders this load after the swap.)
        unsafe { &*self.current.load(Ordering::Acquire) }
    }
}

impl<T> Drop for ArcCell<T> {
    fn drop(&mut self) {
        // `&mut self`: no reader can be inside `load`, so no hazard slot
        // refers to this cell's pointer.
        let ptr = *self.current.get_mut();
        drop(unsafe { Arc::from_raw(ptr) });
    }
}

impl<T: core::fmt::Debug> core::fmt::Debug for ArcCell<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_tuple("ArcCell").field(&self.load()).finish()
    }
}

/// A published `Arc<T>` beside a mutex-protected `L`: lock-free for
/// readers like an [`ArcCell`], replaceable only by the lock's holder
/// (module docs).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use zstm_util::Guarded;
///
/// let cell = Guarded::new(Arc::new(1u64), "history");
/// assert_eq!(cell.read(|value| *value), 1);
/// let mut guard = cell.lock();
/// assert_eq!((*guard.current(), *guard), (1, "history"));
/// let displaced = guard.publish(Arc::new(2));
/// assert_eq!((*displaced, *guard.current()), (1, 2));
/// ```
pub struct Guarded<T, L> {
    published: ArcCell<T>,
    locked: Mutex<L>,
}

impl<T, L> Guarded<T, L> {
    /// Creates a cell publishing `value` beside `locked`.
    pub fn new(value: Arc<T>, locked: L) -> Self {
        Self {
            published: ArcCell::new(value),
            locked: Mutex::new(locked),
        }
    }

    /// [`ArcCell::read`] of the published value; takes no lock.
    #[inline(always)]
    pub fn read<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        self.published.read(f)
    }

    /// [`ArcCell::load`] of the published value; takes no lock.
    pub fn load(&self) -> Arc<T> {
        self.published.load()
    }

    /// Acquires the lock.
    pub fn lock(&self) -> Guard<'_, T, L> {
        Guard {
            locked: self.locked.lock(),
            published: &self.published,
        }
    }
}

/// The held lock of a [`Guarded`]: dereferences to `L`, and is the only
/// way to replace the published value.
pub struct Guard<'a, T, L> {
    locked: MutexGuard<'a, L>,
    published: &'a ArcCell<T>,
}

impl<T, L> Guard<'_, T, L> {
    /// The published value and the locked state, borrowed together.
    pub fn split(&mut self) -> (&T, &mut L) {
        // SAFETY: see `current`; the borrow is of this guard, mutably.
        (unsafe { self.published.peek() }, &mut self.locked)
    }

    /// The published value: a plain borrow, no hazard slot and no count.
    pub fn current(&self) -> &T {
        // SAFETY: the cell is private to its `Guarded`, whose only swap is
        // `publish(&mut self)` on the one guard the mutex admits: none can
        // run while this borrow of that guard lives. `T` lives in the
        // `Arc`'s allocation, not in `L`.
        unsafe { self.published.peek() }
    }

    /// Publishes `value` and returns the displaced `Arc` once no reader
    /// protects it ([`ArcCell::swap`]): the one strong count the cell held.
    pub fn publish(&mut self, value: Arc<T>) -> Arc<T> {
        self.published.swap(value)
    }
}

impl<T, L> Deref for Guard<'_, T, L> {
    type Target = L;

    fn deref(&self) -> &L {
        &self.locked
    }
}

impl<T, L> DerefMut for Guard<'_, T, L> {
    fn deref_mut(&mut self) -> &mut L {
        &mut self.locked
    }
}

/// A bounded set of lock-free slots each holding an `Arc<T>`.
///
/// Built for S-STM's visible reads: a reader inserts its transaction
/// record without taking the object lock; the overwriting transaction
/// drains the slots (under its own lock) to collect the readers. Ownership
/// of each reference is unambiguous — it belongs to the slot while the
/// slot is non-null, and to whoever atomically empties the slot — so no
/// hazard machinery is needed.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use zstm_util::ArcSlots;
///
/// let slots: ArcSlots<u64> = ArcSlots::new(4);
/// let value = Arc::new(7u64);
/// let index = slots.try_insert(Arc::clone(&value)).expect("slot free");
/// assert!(slots.try_remove(index, &value));
/// assert!(slots.drain().is_empty());
/// ```
pub struct ArcSlots<T> {
    slots: Box<[AtomicPtr<T>]>,
    /// Each occupied slot owns one `Arc<T>` strong count.
    _marker: PhantomData<Arc<T>>,
}

impl<T> ArcSlots<T> {
    /// Creates `capacity` empty slots.
    pub fn new(capacity: usize) -> Self {
        Self {
            slots: (0..capacity.max(1))
                .map(|_| AtomicPtr::new(ptr::null_mut()))
                .collect(),
            _marker: PhantomData,
        }
    }

    /// Inserts `value` into a free slot (transferring one strong count into
    /// it) and returns the slot index.
    ///
    /// # Errors
    ///
    /// Returns the value back when every slot is occupied — the caller
    /// falls back to its locked registration path.
    pub fn try_insert(&self, value: Arc<T>) -> Result<usize, Arc<T>> {
        let ptr = Arc::into_raw(value).cast_mut();
        for (index, slot) in self.slots.iter().enumerate() {
            if slot
                .compare_exchange(ptr::null_mut(), ptr, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                return Ok(index);
            }
        }
        // Full: take the count back out of raw form.
        Err(unsafe { Arc::from_raw(ptr) })
    }

    /// Empties slot `index` iff it still holds `value`, dropping the
    /// slot's reference. Returns `false` when a concurrent [`drain`]
    /// already collected it (the drainer then owns the reference).
    ///
    /// [`drain`]: ArcSlots::drain
    pub fn try_remove(&self, index: usize, value: &Arc<T>) -> bool {
        let ptr = Arc::as_ptr(value).cast_mut();
        if self.slots[index]
            .compare_exchange(ptr, ptr::null_mut(), Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            // The slot's count is ours now; release it.
            drop(unsafe { Arc::from_raw(ptr) });
            true
        } else {
            false
        }
    }

    /// Empties every occupied slot, returning the collected `Arc`s (the
    /// caller receives each slot's strong count).
    pub fn drain(&self) -> Vec<Arc<T>> {
        self.slots
            .iter()
            .filter_map(|slot| {
                let ptr = slot.swap(ptr::null_mut(), Ordering::SeqCst);
                (!ptr.is_null()).then(|| unsafe { Arc::from_raw(ptr) })
            })
            .collect()
    }

    /// Number of slots (occupied or not).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

impl<T> Drop for ArcSlots<T> {
    fn drop(&mut self) {
        drop(self.drain());
    }
}

impl<T> core::fmt::Debug for ArcSlots<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ArcSlots")
            .field("capacity", &self.slots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn load_returns_published_value() {
        let cell = ArcCell::new(Arc::new(41u64));
        assert_eq!(*cell.load(), 41);
        let old = cell.swap(Arc::new(42));
        assert_eq!(*old, 41);
        assert_eq!(*cell.load(), 42);
    }

    #[test]
    fn drop_releases_the_published_reference() {
        let value = Arc::new(5u64);
        {
            let cell = ArcCell::new(Arc::clone(&value));
            assert_eq!(Arc::strong_count(&value), 2);
            let loaded = cell.load();
            assert_eq!(Arc::strong_count(&value), 3);
            drop(loaded);
        }
        assert_eq!(Arc::strong_count(&value), 1);
    }

    #[test]
    fn swap_hands_back_exactly_one_count() {
        let first = Arc::new(1u64);
        let second = Arc::new(2u64);
        let cell = ArcCell::new(Arc::clone(&first));
        let returned = cell.swap(Arc::clone(&second));
        assert!(Arc::ptr_eq(&returned, &first));
        drop(returned);
        assert_eq!(Arc::strong_count(&first), 1);
        drop(cell);
        assert_eq!(Arc::strong_count(&second), 1);
    }

    #[test]
    fn concurrent_loads_and_swaps_never_tear() {
        let cell = Arc::new(ArcCell::new(Arc::new((0u64, 0u64))));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let pair = cell.load();
                        assert_eq!(pair.1, pair.0 * 3, "published pair torn");
                        assert!(pair.0 >= last, "reader went back in time");
                        last = pair.0;
                    }
                })
            })
            .collect();
        for i in 1..=10_000u64 {
            cell.store(Arc::new((i, i * 3)));
        }
        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            reader.join().expect("reader panicked");
        }
        assert_eq!(cell.load().0, 10_000);
    }

    #[test]
    fn slots_insert_remove_round_trip() {
        let slots: ArcSlots<u64> = ArcSlots::new(2);
        let a = Arc::new(1u64);
        let b = Arc::new(2u64);
        let ia = slots.try_insert(Arc::clone(&a)).expect("free slot");
        let _ib = slots.try_insert(Arc::clone(&b)).expect("free slot");
        // Full now.
        let c = Arc::new(3u64);
        let back = slots.try_insert(Arc::clone(&c)).expect_err("full");
        assert!(Arc::ptr_eq(&back, &c));
        assert_eq!(Arc::strong_count(&c), 2);
        assert!(slots.try_remove(ia, &a));
        assert!(!slots.try_remove(ia, &a), "already empty");
        assert_eq!(Arc::strong_count(&a), 1);
        let drained = slots.drain();
        assert_eq!(drained.len(), 1);
        assert!(Arc::ptr_eq(&drained[0], &b));
    }

    #[test]
    fn slots_drop_releases_occupants() {
        let a = Arc::new(9u64);
        {
            let slots: ArcSlots<u64> = ArcSlots::new(4);
            slots.try_insert(Arc::clone(&a)).expect("free slot");
            assert_eq!(Arc::strong_count(&a), 2);
        }
        assert_eq!(Arc::strong_count(&a), 1);
    }

    /// Flags its drop so readers can detect use-after-free.
    struct Canary {
        value: u64,
        dropped: AtomicUsize,
        drops: Arc<AtomicUsize>,
    }

    impl Canary {
        fn new(value: u64, drops: &Arc<AtomicUsize>) -> Arc<Self> {
            Arc::new(Self {
                value,
                dropped: AtomicUsize::new(0),
                drops: Arc::clone(drops),
            })
        }
    }

    impl Drop for Canary {
        fn drop(&mut self) {
            self.dropped.store(1, Ordering::SeqCst);
            self.drops.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn every_published_value_is_reclaimed_exactly_once() {
        const PUBLISHES: u64 = 4_000;
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = Arc::new(ArcCell::new(Canary::new(0, &drops)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let canary = cell.load();
                        assert_eq!(
                            canary.dropped.load(Ordering::SeqCst),
                            0,
                            "reader observed a reclaimed value"
                        );
                        std::hint::black_box(canary.value);
                    }
                })
            })
            .collect();
        for i in 1..=PUBLISHES {
            cell.store(Canary::new(i, &drops));
        }
        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            reader.join().expect("reader panicked");
        }
        // Everything but the still-published value has been dropped
        // exactly once.
        assert_eq!(drops.load(Ordering::SeqCst) as u64, PUBLISHES);
        drop(cell);
        assert_eq!(drops.load(Ordering::SeqCst) as u64, PUBLISHES + 1);
    }
}
