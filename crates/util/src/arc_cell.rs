//! Lock-free [`Arc`] publication: [`ArcCell`], [`Guarded`] and [`ArcSlots`],
//! the epoch [`Pin`]s that keep what their readers look at alive, and the
//! variable handles ([`Shared`]) that an attempt holds without a count
//! ([`Held`]). What the cells publish, and what the STM records are, is a
//! [`Strong`]: an `Arc` of which no `Weak` can be made.
//!
//! The build environment cannot fetch `arc-swap` or `crossbeam-epoch`, so
//! this module builds the primitive the STM read fast paths need from
//! scratch: a cell holding an `Arc<T>` that readers can look into — or clone
//! — without ever taking a mutex or writing a shared word, and that writers
//! can replace without ever waiting for a reader.
//!
//! # Pins, retirement and reclamation
//!
//! Reclamation is epoch-based (Fraser, *Practical lock-freedom*, 2004). A
//! global counter `EPOCH` (starting at 1) and a fixed array of *pin slots*,
//! one `u64` per OS thread, are shared by every cell in the process:
//!
//! 1. **pin** — [`pin`] marks the calling OS thread as one that may look
//!    into published values: on its outermost pin it loads `EPOCH` and
//!    stores it, `p`, into its slot (both `SeqCst`). Pins nest: a
//!    thread-local depth lets nested or overlapping pins on one thread —
//!    the simulator's logical threads, a `load` inside a transaction —
//!    share the one slot store, and the outermost [`Pin`]'s drop stores 0.
//!    An STM attempt pins when it starts and unpins when it ends, so that
//!    is one `SeqCst` store per attempt, not per read. (A slot has a second
//!    word, the outer word, for variables: see *A variable outlives the
//!    attempts that saw it*.)
//! 2. **read** — [`ArcCell::read`] takes the pin by reference, opens a
//!    *window* — a thread-local count of the read closures running on the
//!    thread — and is one `SeqCst` load of the published pointer (a plain
//!    `mov` on x86); the reader's closure runs on `&T` in place, no count
//!    taken, nothing shared written.
//! 3. **retire** — [`ArcCell::swap`] publishes with a `SeqCst` swap, then
//!    loads `s = EPOCH` (`SeqCst`), asks step 4 once right away — the same
//!    scan tells whether an attempt may still look the value up (*A
//!    displaced value's readers*) — and hands the displaced value back as
//!    a [`Retired`] `{ arc, epoch: s }`. A swap never waits.
//! 4. **reclaim** — a retired value may be rewritten or freed only once no
//!    other OS thread is pinned at or before its epoch: every slot of the
//!    *scanned prefix* (below) but the caller's own holds 0 or a value
//!    greater than `s` ([`Retired::reclaim`]). When one does not, `EPOCH`
//!    is raised past `s` once, so that the blocking threads' next pins
//!    pass — asked at the retirement, that is what tells the pins that may
//!    have seen the value from every pin after it — and the value waits:
//!    dropped unreclaimable, it goes to its thread's *limbo*, which the
//!    thread's next outermost unpin drains, and so does a deferral that
//!    finds it full (64 values, or what it grew to). A thread that exits
//!    hands what is left to a global list that the next unpin of any
//!    thread drains. A value found reclaimable once stays so: a thread
//!    that pins after the scan pinned after the swap, and cannot see the
//!    value, whatever its epoch.
//!
//! The argument. All the steps above but the unpin are sequentially
//! consistent, so they fall into one total order. Take a reader pinned at
//! `p` that loaded pointer `x`, and the writer whose swap displaced `x`.
//! The reader's load read `x`, so it came before that swap; the reader
//! stored its pin before its load; the writer loaded `s` after its swap
//! and scans after that: *pin < load < swap < epoch load < scan*. So the
//! scan finds the reader's slot holding `p` (or the value of a later pin,
//! once the reader is done), and `p ≤ s`, because `EPOCH` only grows and
//! the reader loaded it first. A reader still pinned since it saw `x`
//! therefore always blocks the reclamation of `x`. A pin that the scan
//! sees as greater than `s` loaded `EPOCH` after the writer did, hence
//! after the swap, and every load under it finds the new pointer. The
//! unpin is a `Release` store of 0: a scan that reads it acquires
//! everything the reader did under the pin, its reads of `x` included.
//!
//! The caller's own slot. A pin protects what its thread looks at *inside*
//! read closures; the reference cannot leave the closure. So a reclaim
//! skips the caller's own slot while no window is open on its thread — a
//! transaction's promotions reclaim what it read a moment before, and the
//! simulator, which runs many logical threads on one OS thread, reclaims
//! exactly as a single thread does — and scans it while one is: a closure
//! that publishes into the cell it reads, or a `clone` inside a read that
//! commits, retires the value under the closure, and the value then waits
//! in the limbo until the thread unpins.
//!
//! # Catching up
//!
//! A pin is not one instant: at any point where no window is open on its
//! thread, the thread holds no reference, and may move its pin up to the
//! current epoch. A thread does so when it opens its outermost window and
//! the epoch moved since it last stored its slot (one `Acquire` load of
//! `EPOCH` per read; a `Release` store of the new epoch, rarely), after
//! every [`Backoff`] round, and — stepping out of its slot altogether,
//! back in at the current epoch — while it waits on a contended
//! [`Guarded::lock`]. Why a caught-up slot `p' > s` still proves the
//! thread done with `x`: its store releases every window before it, and
//! the `EPOCH` value it acquired was written by a `SeqCst` raise that comes
//! after the writer's epoch load, hence after the swap, in the total order,
//! and happens before every later pointer load of the thread, which
//! therefore finds the new pointer. Conversely, a window that loads `x`
//! opens after a catch-up whose acquired `EPOCH` value the writer's later
//! `SeqCst` epoch load reads or passes, so that slot holds `p' ≤ s`.
//!
//! # Waiting for a reclaim
//!
//! A swap never waits, but [`Retired::reclaim_patiently`] does: a failed
//! reclaim raised `EPOCH`, and the threads in the way catch up at their
//! next read, backoff round or lock wait, or unpin at the end of their
//! attempt — a reader preempted in its window, as the hazard-pointer
//! writer it replaces did, is waited for until it runs again. A thread
//! pinned and doing neither (a transaction body blocked on something
//! else) is waited for some 20 ms, and then the value is handed back. The
//! LSA/Z history asks it before it rebuilds a pruned version in place, so
//! a warm variable promotes without allocating under concurrent readers
//! too, and a deferral that finds its limbo full and undrainable waits the
//! same way before the limbo grows.
//!
//! # Rewriting a displaced value
//!
//! The [`Strong`] that [`Retired::reclaim`] hands back may be rewritten in
//! place once [`unique_mut`] succeeds, and published again — the LSA/Z
//! version history builds each new version in the allocation of one it
//! pruned. (`unique_mut` is [`Arc::get_mut`] without the compare-and-swap
//! of the weak count, which a `Strong` needs no lock of, having no `Weak`:
//! its argument is at the function.)
//! Pins hold no count, which is why the reclaim comes first: it proves
//! that no reader that saw the value in the cell is still pinned. A reader
//! that loads the pointer once it is published again reads the new value
//! whole: its `SeqCst` load read the publishing swap, which came after the
//! rewrite. A reader that must know *which* value it read checks that
//! inside the window — the STM cells' seqlock read compares the version's
//! sequence number with its word sample and declines on a mismatch.
//!
//! # A variable outlives the attempts that saw it
//!
//! An STM variable is a [`Shared`]: one allocation with a handle count,
//! cloned and dropped as an `Arc` is. A transaction's read and write sets
//! hold it as a [`Held`] instead, a pointer made under the attempt's pin
//! that takes no count, so that an entry costs no locked instruction. What
//! keeps the variable alive for the attempt is the second word of every pin
//! slot, the *outer word*: the epoch of its thread's outermost pin. The
//! outermost pin stores it (`Release`) before the `SeqCst` pin store — a
//! thread pinning in a shared slot right after its claim — and the
//! outermost unpin clears it (`Release`) before the pin word. Nothing else
//! writes it: neither a catch-up nor a wait on a lock, which move and
//! clear the pin word, so it stays put for the whole attempt.
//!
//! The drop of a variable's last handle loads `e = EPOCH` and frees the
//! allocation only once every slot of the scanned prefix has its outer word
//! at 0 or above `e`. Until then the variable is deferred — in the same
//! limbo, drained at the same unpins, or with the orphans — and `EPOCH` is
//! raised past `e`, so that later outermost pins pass it. Unlike a
//! version's reclaim, this scan does not skip the caller's own slot: a body
//! may drop the last handle of a variable it wrote before its commit
//! promotes it, and the variable then waits for its own thread's unpin. A
//! full limbo that holds such a variable grows at once instead of waiting:
//! no wait could end before the thread unpins. The simulator's overlapping
//! logical attempts share one outermost pin, hence one outer word.
//!
//! The argument needs happens-before only. A [`Held`] is made from a
//! borrowed handle, and every drop of a handle happens after every borrow
//! of it (the borrow checker, and whatever synchronisation handed the
//! reference to another thread); the last drop — a `Release` decrement
//! followed by an `Acquire` fence, as `Arc`'s — happens after every other
//! handle's drop. So a last drop happens after every borrow of every
//! handle, and in particular after the holder's store of its outer word `p`
//! and its earlier load of `p` from `EPOCH`. By coherence the dropper's
//! epoch load then reads `p` or a later value, and `EPOCH` only grows:
//! `e ≥ p`; and its scan reads the holder's outer word as `p` or as a later
//! store. `p` itself defers the free. A later store is the holder's unpin
//! (0) or a later outermost pin, both `Release` stores that come after the
//! holder's last look at the variable in its order, so the scan's `Acquire`
//! load orders the free after every such look. (A shared slot changes hands
//! only through a claim that acquires its previous owner's unpin.) The
//! holder's slot is inside the scanned prefix: its raise of `MARK` came
//! before its pin, hence before the last drop. And no thread starts to
//! hold the variable after its last drop: there is no handle left to
//! borrow.
//!
//! A `Held` checks at every dereference that its thread is still inside the
//! outermost pin it was made under. Every outermost pin takes a *stamp*,
//! from per-thread blocks of one global counter, so that no two pins of any
//! threads ever share one; a `Held` keeps the stamp of its pin, and a
//! mismatch — another thread, or its own after an unpin — panics. That is
//! what makes the unsafe dereference safe to offer, and why a `Held` may be
//! `Send`: an engine's thread context, sets and all, moves between OS
//! threads between attempts.
//!
//! # A displaced value's readers
//!
//! A reclaim answers whether a reader may still be *looking at* a value. A
//! version history asks a second question of a displaced version: may an
//! attempt still *look it up*, ask for the version valid at its snapshot?
//! Only an attempt already running at the displacement can. The scan that
//! [`ArcCell::swap`] makes for its reclaim answers that too, from the outer
//! words: it records on the [`Retired`] whether some outermost pin is at or
//! before `s` ([`Retired::is_wanted`]), and if so raises `EPOCH` past `s`,
//! so that attempts that start later pin past it. It counts the other
//! threads' outer words, and the caller's own only while the caller holds
//! more than one pin (a nested attempt, or the simulator's logical
//! threads): a committing attempt's one pin is its own. A value wanted at
//! its retirement is asked again of a later scan ([`Readers`],
//! [`Retired::still_wanted`]); once not wanted, it stays so, because an
//! outermost pin after that scan came after the retirement. The outer
//! word is what counts, not the pin word: a catch-up or a lock wait moves
//! the pin word, but the attempt still holds the snapshot it took.
//!
//! An outer word the scan reads as greater than `s` was loaded from a
//! raise of `EPOCH` after the writer's load of `s`, hence after the swap;
//! one the scan does not see yet belongs to a pin whose `SeqCst` store
//! comes after the scan's load of that slot. Either way, an attempt that
//! pins and then reads its snapshot's clock reads it after the swap, so
//! after the displacing commit. This argument only decides what a history
//! keeps, not what a reader may look at, which the pin words decide as
//! before: were it wrong, an attempt would find its version gone and abort
//! as if the history were pruned, and read nothing wrong.
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
//! A thread's own slot is the lowest hint no live thread holds (claimed on
//! its first pin and handed back by a drop guard in a thread-local when
//! the thread exits), and `MARK` is one past the highest slot ever used:
//! the most threads that were pinned at once, not the number ever started.
//! A thread beyond the 64th, or one pinning during its teardown once its
//! hint went back, claims one of 64 further shared slots by
//! compare-and-swap for the length of its outermost pin, raising `MARK`
//! over each candidate first. A reclaim scans `PINS[..MARK]`. A thread
//! that joins while a writer scans is covered by the same total order,
//! because the raise of `MARK` (a `SeqCst` `fetch_max` before the thread's
//! first pin in that slot) and the reclaim's load of `MARK` (after its
//! epoch load) are sequentially consistent too: a reclaim whose load
//! missed the raise loaded its epoch before the new thread's pin loaded
//! its own, so that thread's loads find the new pointer.
//!
//! # One owner under a lock
//!
//! [`Guarded`] pairs a published `Strong<T>` with an `L` behind a one-byte
//! lock flag: taken by a compare-and-swap (`Acquire`), released by the
//! guard's drop with a `Release` store, so that each holder sees all its
//! predecessors did; a thread that finds it taken spins on plain loads,
//! then yields, then naps, unpinned meanwhile. Anyone may
//! [`Guarded::read`] or [`Guarded::load`] as on an [`ArcCell`], but only
//! the lock's holder can replace the value, through [`Guard::publish`],
//! which needs the guard mutably. So the holder looks at the value it
//! would replace with [`Guard::current`] — a plain borrow, no pin, no count
//! — and a `Guarded` keeps exactly one strong count of its value, the
//! published pointer's.
//!
//! [`ArcSlots`] is the simpler cousin used by S-STM's visible reads: a
//! bounded set of `Strong`-holding slots with lock-free
//! insert/remove/drain.
//! It needs no pins because slots *own* their reference: whoever
//! atomically empties a slot receives the count, so no reference is ever
//! touched without ownership.
#![allow(unsafe_code)]

use core::cell::{Cell, RefCell, UnsafeCell};
use core::marker::PhantomData;
use core::mem::{self, ManuallyDrop};
use core::ops::{Deref, DerefMut};
use core::ptr::NonNull;
use core::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::ptr;
use std::sync::Arc;

use crate::sync::Mutex;
use crate::{Backoff, CachePadded};

/// Pin slots a live thread can own, one each; the threads beyond share
/// as many more.
const OWN_SLOTS: usize = 64;

/// Every pin slot: the owned ones, then the shared ones.
const SLOTS: usize = 2 * OWN_SLOTS;

/// Room a thread's limbo starts with; a full one is drained first.
const LIMBO_BATCH: usize = 64;

/// Naps [`Retired::reclaim_patiently`] takes before it gives up: some
/// 20 ms, longer than a scheduler hands a preempted reader back its CPU.
const PATIENCE: u32 = 200;

/// One nap of [`Retired::reclaim_patiently`]: a sleep, not a yield, so that
/// the CPU goes idle and a reader waiting for one is moved onto it.
const NAP: std::time::Duration = std::time::Duration::from_micros(100);

/// One pin slot. Padded so that concurrent pins do not false-share.
struct Slot {
    /// 0, or the epoch its thread pinned at or caught up to.
    pin: AtomicU64,
    /// 0, or the epoch of its thread's outermost pin: neither a catch-up
    /// nor a lock wait moves it (module docs, *A variable outlives the
    /// attempts that saw it*).
    outer: AtomicU64,
}

/// The process-wide pin slots.
static PINS: [CachePadded<Slot>; SLOTS] = [const {
    CachePadded::new(Slot {
        pin: AtomicU64::new(0),
        outer: AtomicU64::new(0),
    })
}; SLOTS];

/// The global epoch; grows only, and only when a reclaim fails.
static EPOCH: CachePadded<AtomicU64> = CachePadded::new(AtomicU64::new(1));

/// Bit `h` is set while no live thread owns slot `h`.
static FREE_HINTS: AtomicU64 = AtomicU64::new(u64::MAX);

/// One past the highest slot ever pinned in; grows only (module docs).
static MARK: AtomicUsize = AtomicUsize::new(0);

/// Retired values whose thread exited before they became reclaimable.
static ORPHANS: Mutex<Vec<Deferred>> = Mutex::new(Vec::new());

/// Length of [`ORPHANS`], read without its lock on every unpin.
static ORPHANED: AtomicUsize = AtomicUsize::new(0);

/// The next block of pin stamps to hand out: a stamp names one outermost
/// pin of one thread, and no two pins ever get the same one (0 is none).
static STAMPS: AtomicU64 = AtomicU64::new(1);

/// Stamps a thread takes from [`STAMPS`] at a time.
const STAMP_BLOCK: u64 = 1 << 16;

/// `Local::slot` while unpinned, and `Local::own` of a thread that has no
/// own slot.
const NONE: usize = usize::MAX;

/// `Local::own` before the thread's first pin.
const UNCLAIMED: usize = usize::MAX - 1;

/// What a thread knows of its pin. Const-initialised and without a
/// destructor, so it stays usable while the thread's locals are torn down.
struct Local {
    /// Live [`Pin`]s of this thread.
    depth: Cell<usize>,
    /// The slot pinned in while `depth > 0`, else [`NONE`].
    slot: Cell<usize>,
    /// The epoch last stored in `slot`.
    epoch: Cell<u64>,
    /// Read closures running on this thread (module docs).
    reading: Cell<usize>,
    /// The thread's own slot, [`NONE`] or [`UNCLAIMED`].
    own: Cell<usize>,
    /// Whether the limbo may hold something.
    deferred: Cell<bool>,
    /// The stamp of the outermost pin while `depth > 0`, else 0: what a
    /// [`Held`] made under that pin checks for.
    stamp: Cell<u64>,
    /// The next stamp of the thread's block, and the end of the block.
    stamps: Cell<(u64, u64)>,
}

/// The thread's own slot and its limbo: handed back when the thread exits.
struct Owner {
    hint: usize,
    limbo: RefCell<Vec<Deferred>>,
}

thread_local! {
    static LOCAL: Local = const {
        Local {
            depth: Cell::new(0),
            slot: Cell::new(NONE),
            epoch: Cell::new(0),
            reading: Cell::new(0),
            own: Cell::new(UNCLAIMED),
            deferred: Cell::new(false),
            stamp: Cell::new(0),
            stamps: Cell::new((0, 0)),
        }
    };
    static OWNER: Owner = Owner::claim();
}

impl Owner {
    fn claim() -> Self {
        let mut free = FREE_HINTS.load(Ordering::Relaxed);
        let hint = loop {
            if free == 0 {
                break NONE;
            }
            let lowest = free.trailing_zeros() as usize;
            match FREE_HINTS.compare_exchange_weak(
                free,
                free & !(1 << lowest),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break lowest,
                Err(now) => free = now,
            }
        };
        if hint != NONE {
            // SeqCst, and before this thread's first pin in the slot: the
            // pinning half of the module docs' argument.
            MARK.fetch_max(hint + 1, Ordering::SeqCst);
        }
        Self {
            hint,
            // A batch's room up front: a warm thread defers without
            // allocating.
            limbo: RefCell::new(Vec::with_capacity(LIMBO_BATCH)),
        }
    }
}

impl Drop for Owner {
    fn drop(&mut self) {
        // Pins from here on claim a shared slot. A thread still pinned in
        // its own slot (a pin leaked past the thread's end) keeps it.
        let pinned = LOCAL.with(|local| {
            local.own.set(NONE);
            local.depth.get() > 0
        });
        if self.hint != NONE && !pinned {
            FREE_HINTS.fetch_or(1 << self.hint, Ordering::Relaxed);
        }
        let mut left = mem::take(self.limbo.get_mut());
        drain(&mut left);
        orphan(left);
    }
}

impl Local {
    /// The outermost pin: loads the epoch and stores it in the thread's
    /// slot, its outer word first (module docs).
    #[inline]
    fn enter(&self) {
        let own = self.own.get();
        if own < OWN_SLOTS {
            let epoch = EPOCH.load(Ordering::SeqCst);
            PINS[own].outer.store(epoch, Ordering::Release);
            PINS[own].pin.store(epoch, Ordering::SeqCst);
            self.epoch.set(epoch);
            self.slot.set(own);
        } else {
            self.enter_without_own_slot();
        }
    }

    /// Names the outermost pin just entered with a stamp no pin had before.
    #[inline]
    fn take_stamp(&self) {
        let (mut next, mut end) = self.stamps.get();
        if next == end {
            next = STAMPS.fetch_add(STAMP_BLOCK, Ordering::Relaxed);
            end = next + STAMP_BLOCK;
        }
        self.stamp.set(next);
        self.stamps.set((next + 1, end));
    }

    /// [`Local::enter`] on the thread's first pin, and for a thread that
    /// has no own slot.
    #[cold]
    fn enter_without_own_slot(&self) {
        if self.own.get() == UNCLAIMED {
            self.own
                .set(OWNER.try_with(|owner| owner.hint).unwrap_or(NONE));
            if self.own.get() != NONE {
                return self.enter();
            }
        }
        let (slot, epoch) = claim_shared();
        // The slot is the thread's from its claim on: its outer word
        // cannot go in first.
        PINS[slot].outer.store(epoch, Ordering::Release);
        self.epoch.set(epoch);
        self.slot.set(slot);
    }

    /// Pins the thread's own slot again after [`unpinned_while`] stepped
    /// out of it: the pin word only, at the current epoch.
    fn reenter(&self) {
        let epoch = EPOCH.load(Ordering::SeqCst);
        PINS[self.slot.get()].pin.store(epoch, Ordering::SeqCst);
        self.epoch.set(epoch);
    }

    /// Moves the thread's pin up to the epoch if the epoch moved. Only for
    /// a pinned thread that runs no read closure (module docs, *Catching
    /// up*).
    #[inline(always)]
    fn catch_up(&self) {
        let now = EPOCH.load(Ordering::Acquire);
        if now != self.epoch.get() {
            self.refresh(now);
        }
    }

    #[cold]
    fn refresh(&self, now: u64) {
        PINS[self.slot.get()].pin.store(now, Ordering::Release);
        self.epoch.set(now);
    }

    /// The outermost unpin: clears the slot, its outer word first, then
    /// drains the limbo and the orphans if they hold anything.
    #[inline]
    fn leave(&self) {
        let slot = self.slot.replace(NONE);
        self.stamp.set(0);
        PINS[slot].outer.store(0, Ordering::Release);
        PINS[slot].pin.store(0, Ordering::Release);
        if self.deferred.get() {
            self.drain_limbo();
        }
        if ORPHANED.load(Ordering::Relaxed) != 0 {
            adopt_orphans();
        }
    }

    #[cold]
    fn drain_limbo(&self) {
        self.deferred.set(false);
        let _ = OWNER.try_with(|owner| {
            // Out of the cell while values drop: a drop may defer more.
            let mut pending = owner.limbo.take();
            drain(&mut pending);
            let mut limbo = owner.limbo.borrow_mut();
            if limbo.is_empty() {
                *limbo = pending;
            } else {
                limbo.append(&mut pending);
            }
            self.deferred.set(!limbo.is_empty());
        });
    }
}

/// Catches the calling thread's pin up with the epoch if it is pinned and
/// runs no read closure: what a thread does while it waits for another
/// ([`Backoff::spin`]), so that a promotion waiting for its pin to pass is
/// not waiting for it in turn.
pub(crate) fn catch_up() {
    LOCAL.with(|local| {
        if local.depth.get() > 0 && local.reading.get() == 0 {
            local.catch_up();
        }
    });
}

/// Runs `block`, which may block the thread, with the thread's own slot
/// unpinned if it is pinned and runs no read closure, and pins it again at
/// the epoch of its return: a thread waiting on a lock holds no reclamation
/// of a version back. Its outer word stays: the variables its attempt
/// holds are still held.
fn unpinned_while<R>(block: impl FnOnce() -> R) -> R {
    let stepped_out = LOCAL.with(|local| {
        let slot = local.slot.get();
        let out = slot < OWN_SLOTS && local.reading.get() == 0;
        if out {
            PINS[slot].pin.store(0, Ordering::Release);
        }
        out
    });
    let result = block();
    if stepped_out {
        LOCAL.with(Local::reenter);
    }
    result
}

/// A read closure running on the calling thread: counted while it runs
/// (its drop uncounts it, an unwind included), and the thread's pin caught
/// up with the epoch before the outermost one starts (module docs).
struct Window;

impl Window {
    #[inline(always)]
    fn open() -> Self {
        LOCAL.with(|local| {
            let reading = local.reading.get();
            if reading == 0 {
                local.catch_up();
            }
            local.reading.set(reading + 1);
        });
        Window
    }
}

impl Drop for Window {
    #[inline(always)]
    fn drop(&mut self) {
        LOCAL.with(|local| local.reading.set(local.reading.get() - 1));
    }
}

/// Claims a free shared slot for an outermost pin — a thread with no own
/// slot, beyond the 64th or in its teardown — and pins in it: the slot and
/// the epoch. `MARK` is raised over each candidate before its claim.
#[cold]
fn claim_shared() -> (usize, u64) {
    let mut backoff = Backoff::new();
    loop {
        for (slot, candidate) in PINS.iter().enumerate().skip(OWN_SLOTS) {
            if candidate.pin.load(Ordering::Relaxed) != 0 {
                continue;
            }
            MARK.fetch_max(slot + 1, Ordering::SeqCst);
            let epoch = EPOCH.load(Ordering::SeqCst);
            if candidate
                .pin
                .compare_exchange(0, epoch, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                return (slot, epoch);
            }
        }
        backoff.spin();
    }
}

/// What one scan of the pin slots found, `u64::MAX` for none: a version
/// retired at `s` is reclaimable iff `s < pin` and may still be looked up
/// iff `s >= reader`, a variable whose last handle dropped at `e` is
/// freeable iff `e < outer`.
struct Oldest {
    /// The oldest epoch another OS thread is pinned at — or this one, while
    /// a read closure runs on it.
    pin: u64,
    /// The oldest epoch of any thread's outermost pin, this one's included.
    outer: u64,
    /// The oldest epoch of another thread's outermost pin — or this one's,
    /// while it holds more than one pin (module docs, *A displaced value's
    /// readers*).
    reader: u64,
}

impl Oldest {
    fn scan() -> Self {
        let (own, alone) = LOCAL.with(|local| {
            let slot = local.slot.get();
            let own = if local.reading.get() == 0 { slot } else { NONE };
            let alone = if local.depth.get() == 1 { slot } else { NONE };
            (own, alone)
        });
        let mark = MARK.load(Ordering::SeqCst).min(SLOTS);
        let mut oldest = Self {
            pin: u64::MAX,
            outer: u64::MAX,
            reader: u64::MAX,
        };
        for (slot, pins) in PINS[..mark].iter().enumerate() {
            let pinned = pins.pin.load(Ordering::SeqCst);
            if pinned != 0 && slot != own {
                oldest.pin = oldest.pin.min(pinned);
            }
            let outer = pins.outer.load(Ordering::Acquire);
            if outer != 0 {
                oldest.outer = oldest.outer.min(outer);
                if slot != alone {
                    oldest.reader = oldest.reader.min(outer);
                }
            }
        }
        oldest
    }

    /// Whether `deferred` may be freed.
    fn frees(&self, deferred: &Deferred) -> bool {
        let bound = if deferred.handle {
            self.outer
        } else {
            self.pin
        };
        deferred.epoch < bound
    }
}

/// Whether a value retired at `epoch` is reclaimable; if not, raises the
/// epoch past it, so that the threads in the way pin past it next time.
fn reclaimable(epoch: u64) -> bool {
    let free = epoch < Oldest::scan().pin;
    if !free {
        raise_epoch_past(epoch);
    }
    free
}

#[cold]
fn raise_epoch_past(epoch: u64) {
    if EPOCH.load(Ordering::SeqCst) <= epoch {
        EPOCH.fetch_max(epoch + 1, Ordering::SeqCst);
    }
}

/// Drops every reclaimable value of `pending` and keeps the rest.
fn drain(pending: &mut Vec<Deferred>) {
    if pending.is_empty() {
        return;
    }
    let oldest = Oldest::scan();
    pending.retain(|deferred| !oldest.frees(deferred));
    if let Some(newest) = pending.iter().map(|deferred| deferred.epoch).max() {
        raise_epoch_past(newest);
    }
}

/// Hands retired values whose thread is ending to the global list.
fn orphan(left: impl IntoIterator<Item = Deferred>) {
    let mut orphans = ORPHANS.lock();
    orphans.extend(left);
    ORPHANED.store(orphans.len(), Ordering::Relaxed);
}

#[cold]
fn adopt_orphans() {
    let Some(mut orphans) = ORPHANS.try_lock() else {
        return;
    };
    let mut pending = mem::take(&mut *orphans);
    ORPHANED.store(0, Ordering::Relaxed);
    drop(orphans);
    // Out of the lock while values drop: a drop may orphan more.
    drain(&mut pending);
    // What is left goes back in its own allocation, as a limbo's does.
    let mut orphans = ORPHANS.lock();
    if orphans.is_empty() {
        *orphans = pending;
    } else {
        orphans.append(&mut pending);
    }
    ORPHANED.store(orphans.len(), Ordering::Relaxed);
}

/// A retired `Arc`, or a variable whose last handle dropped, with its
/// epoch and its type erased, for a limbo: dropping it drops the `Arc` or
/// frees the variable.
struct Deferred {
    ptr: *const (),
    epoch: u64,
    /// Whether it is a variable, freed by the outer words, rather than a
    /// version, freed by the pin words.
    handle: bool,
    release: unsafe fn(*const ()),
}

// SAFETY: built only from an `Arc<T>` or a `Shared<T>` with
// `T: Send + Sync`, which may be dropped on any thread.
unsafe impl Send for Deferred {}

impl Deferred {
    fn new<T: Send + Sync + 'static>(arc: Arc<T>, epoch: u64) -> Self {
        /// # Safety
        ///
        /// `arc` came from `Arc::<T>::into_raw` and is released once.
        unsafe fn release<T>(arc: *const ()) {
            // SAFETY: as the function's contract says.
            drop(unsafe { Arc::from_raw(arc.cast::<T>()) });
        }
        Self {
            ptr: Arc::into_raw(arc).cast(),
            epoch,
            handle: false,
            release: release::<T>,
        }
    }

    /// The allocation of a [`Shared`] whose last handle dropped at `epoch`.
    fn handle<T: Send + Sync + 'static>(inner: NonNull<SharedInner<T>>, epoch: u64) -> Self {
        /// # Safety
        ///
        /// `inner` came from `Box::<SharedInner<T>>::into_raw`, no handle
        /// is left, and it is released once.
        unsafe fn release<T>(inner: *const ()) {
            // SAFETY: as the function's contract says.
            drop(unsafe { Box::from_raw(inner.cast::<SharedInner<T>>().cast_mut()) });
        }
        Self {
            ptr: inner.as_ptr().cast_const().cast(),
            epoch,
            handle: true,
            release: release::<T>,
        }
    }
}

impl Drop for Deferred {
    fn drop(&mut self) {
        // SAFETY: `ptr` and `release` were built together in `new` or
        // `handle`, and a `Deferred` is dropped once.
        unsafe { (self.release)(self.ptr) }
    }
}

/// Puts `deferred` in the thread's limbo, or with the orphans during the
/// thread's teardown. A full limbo is drained first and, while the threads
/// in the way stay pinned, waited on as [`Retired::reclaim_patiently`]
/// waits; it grows only after that — and at once when the thread's own
/// attempt holds one of its variables back, which no wait can end.
#[cold]
#[inline(never)]
fn defer(deferred: Deferred) {
    if limbo_is_full() {
        if limbo_waits_on_own_pin() {
            LOCAL.with(Local::drain_limbo);
        } else {
            patiently(|| {
                LOCAL.with(Local::drain_limbo);
                !limbo_is_full()
            });
        }
    }
    let mut deferred = Some(deferred);
    let _ = OWNER.try_with(|owner| owner.limbo.borrow_mut().extend(deferred.take()));
    match deferred {
        Some(orphaned) => orphan([orphaned]),
        None => LOCAL.with(|local| local.deferred.set(true)),
    }
}

/// Whether the calling thread's limbo holds a variable its own outermost
/// pin keeps.
fn limbo_waits_on_own_pin() -> bool {
    let slot = LOCAL.with(|local| local.slot.get());
    let Some(pins) = PINS.get(slot) else {
        return false;
    };
    let outer = pins.outer.load(Ordering::Relaxed);
    OWNER
        .try_with(|owner| {
            let limbo = owner.limbo.borrow();
            outer != 0 && limbo.iter().any(|d| d.handle && d.epoch >= outer)
        })
        .unwrap_or(false)
}

/// Whether the calling thread's limbo holds as much as it has room for.
fn limbo_is_full() -> bool {
    OWNER
        .try_with(|owner| {
            let limbo = owner.limbo.borrow();
            !limbo.is_empty() && limbo.len() == limbo.capacity()
        })
        .unwrap_or(false)
}

/// Asks `done` until it says yes, catching the thread's pin up between the
/// asks: a few [`Backoff`] rounds, then naps, [`PATIENCE`] of them at most
/// (module docs, *Waiting for a reclaim*). Whether `done` said yes.
#[cold]
fn patiently(mut done: impl FnMut() -> bool) -> bool {
    let mut backoff = Backoff::new();
    let mut naps = 0;
    while !done() {
        if naps == PATIENCE {
            return false;
        }
        if backoff.is_saturated() {
            std::thread::sleep(NAP);
            catch_up();
            naps += 1;
        } else {
            backoff.spin();
        }
    }
    true
}

/// Number of retired values waiting in the calling thread's limbo. For
/// tests of the reclamation.
#[doc(hidden)]
pub fn limbo_len() -> usize {
    OWNER
        .try_with(|owner| owner.limbo.borrow().len())
        .unwrap_or(0)
}

/// Live [`Pin`]s of the calling thread. For tests of the pinning.
#[doc(hidden)]
pub fn pin_depth() -> usize {
    LOCAL.with(|local| local.depth.get())
}

/// Number of leading pin slots a reclaim scans: every slot a thread can
/// pin in (module docs). For tests of the hint recycling.
#[doc(hidden)]
pub fn scanned_prefix() -> usize {
    MARK.load(Ordering::SeqCst).min(SLOTS)
}

/// Proof that the calling OS thread is pinned: while it lives, no value a
/// read closure of this thread looks at is reclaimed under it. Made by
/// [`pin`]; dropping the outermost one unpins. Neither `Send` nor `Sync`:
/// a pin is a thread's.
///
/// ```
/// use zstm_util::{pin, ArcCell, Strong};
///
/// let cell = ArcCell::new(Strong::new(7u64));
/// let pin = pin();
/// assert_eq!(cell.read(&pin, |value| *value), 7);
/// ```
pub struct Pin {
    _thread: PhantomData<*mut ()>,
}

/// Pins the calling OS thread (module docs): one epoch load and one slot
/// store if it is not pinned yet, a thread-local count otherwise.
#[inline]
pub fn pin() -> Pin {
    LOCAL.with(|local| {
        let depth = local.depth.get();
        if depth == 0 {
            local.enter();
            local.take_stamp();
        }
        local.depth.set(depth + 1);
    });
    Pin {
        _thread: PhantomData,
    }
}

impl Drop for Pin {
    #[inline]
    fn drop(&mut self) {
        LOCAL.with(|local| {
            let depth = local.depth.get() - 1;
            local.depth.set(depth);
            if depth == 0 {
                local.leave();
            }
        });
    }
}

/// A handle to a variable: counted like an [`Arc`] — one allocation, and a
/// clone or a drop is one locked increment or decrement — but the last drop
/// frees the variable only once no attempt that may still look at it
/// through a [`Held`] is left (module docs, *A variable outlives the
/// attempts that saw it*).
///
/// ```
/// use zstm_util::{pin, Held, Shared};
///
/// let x = Shared::new(7u64);
/// let pin = pin();
/// let held = Held::new(&x, &pin);
/// drop(x); // the last handle: freed once this thread unpins
/// assert_eq!(*held, 7);
/// ```
pub struct Shared<T: Send + Sync + 'static> {
    inner: NonNull<SharedInner<T>>,
    _owns: PhantomData<SharedInner<T>>,
}

/// The one allocation of a [`Shared`].
struct SharedInner<T> {
    handles: AtomicUsize,
    value: T,
}

/// Handles past which a clone aborts the process, as `Arc`'s does.
const MAX_HANDLES: usize = isize::MAX as usize;

// SAFETY: a handle hands out `&T` and may free `T` on any thread, which
// `T: Send + Sync` allows.
unsafe impl<T: Send + Sync + 'static> Send for Shared<T> {}
// SAFETY: as above.
unsafe impl<T: Send + Sync + 'static> Sync for Shared<T> {}

impl<T: Send + Sync + 'static> Shared<T> {
    /// Moves `value` into a new allocation with one handle.
    pub fn new(value: T) -> Self {
        let inner = Box::new(SharedInner {
            handles: AtomicUsize::new(1),
            value,
        });
        Self {
            inner: NonNull::from(Box::leak(inner)),
            _owns: PhantomData,
        }
    }

    /// Live handles of the variable (`Arc::strong_count`'s counterpart): a
    /// [`Held`] is none.
    pub fn handles(this: &Self) -> usize {
        this.inner().handles.load(Ordering::Acquire)
    }

    fn inner(&self) -> &SharedInner<T> {
        // SAFETY: this handle keeps the allocation: only the drop of the
        // last one frees it, and not before every `Held` is done.
        unsafe { self.inner.as_ref() }
    }
}

impl<T: Send + Sync + 'static> Clone for Shared<T> {
    #[inline]
    fn clone(&self) -> Self {
        if self.inner().handles.fetch_add(1, Ordering::Relaxed) > MAX_HANDLES {
            std::process::abort();
        }
        Self {
            inner: self.inner,
            _owns: PhantomData,
        }
    }
}

impl<T: Send + Sync + 'static> Deref for Shared<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.inner().value
    }
}

impl<T: Send + Sync + 'static> Drop for Shared<T> {
    #[inline]
    fn drop(&mut self) {
        // `Arc`'s protocol: a `Release` decrement, and the last one
        // acquires every other handle's drop, so it comes after every
        // borrow of every handle.
        if self.inner().handles.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        fence(Ordering::Acquire);
        release_last(self.inner);
    }
}

impl<T: Send + Sync + core::fmt::Debug + 'static> core::fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        T::fmt(self, f)
    }
}

/// Frees the variable whose last handle just dropped, or defers it while
/// an outermost pin at or before the current epoch is left (module docs).
#[cold]
#[inline(never)]
fn release_last<T: Send + Sync + 'static>(inner: NonNull<SharedInner<T>>) {
    let epoch = EPOCH.load(Ordering::SeqCst);
    let deferred = Deferred::handle(inner, epoch);
    if epoch < Oldest::scan().outer {
        return drop(deferred);
    }
    raise_epoch_past(epoch);
    defer(deferred);
}

/// A variable an attempt holds: a pointer into a [`Shared`] that takes no
/// count, made under a [`Pin`]. It dereferences only while its thread is
/// still inside the outermost pin it was made under — a check of the
/// thread's pin stamp, which names the thread and its pin generation — and
/// panics otherwise; meanwhile the variable outlives its last handle (module
/// docs, *A variable outlives the attempts that saw it*). [`Held::map`]
/// turns it into a view of the variable, a trait object for instance.
pub struct Held<T: ?Sized> {
    ptr: NonNull<T>,
    /// The stamp of the outermost pin it was made under.
    stamp: u64,
}

// SAFETY: a `Held<T>` hands out nothing but `&T`, and only on the thread
// and inside the pin it was made under, so it may move and be shared as a
// `&T` may.
unsafe impl<T: ?Sized + Sync> Send for Held<T> {}
// SAFETY: as above.
unsafe impl<T: ?Sized + Sync> Sync for Held<T> {}

impl<T: Send + Sync + 'static> Held<T> {
    /// Holds the variable behind `shared` for as long as the calling thread
    /// stays inside its current outermost pin, which `pin` proves it is in.
    #[inline]
    pub fn new(shared: &Shared<T>, _pin: &Pin) -> Self {
        Self {
            ptr: NonNull::from(&**shared),
            stamp: LOCAL.with(|local| local.stamp.get()),
        }
    }
}

impl<T: ?Sized> Held<T> {
    /// The same hold on a part or a view of the variable: whatever `f`
    /// borrows from it.
    #[inline]
    pub fn map<U: ?Sized>(self, f: impl FnOnce(&T) -> &U) -> Held<U> {
        Held {
            ptr: NonNull::from(f(&self)),
            stamp: self.stamp,
        }
    }
}

impl<T: ?Sized> Deref for Held<T> {
    type Target = T;

    /// # Panics
    ///
    /// Panics unless the calling thread is inside the outermost pin the
    /// `Held` was made under.
    #[inline]
    fn deref(&self) -> &T {
        if LOCAL.with(|local| local.stamp.get()) != self.stamp {
            held_outside_its_pin();
        }
        // SAFETY: the stamps match, so this is the thread that made the
        // `Held`, and it has stayed inside that outermost pin since: its
        // outer word has held the epoch of that pin all along, and no
        // variable it held when it made this is freed while it does
        // (module docs).
        unsafe { self.ptr.as_ref() }
    }
}

#[cold]
#[inline(never)]
fn held_outside_its_pin() -> ! {
    panic!("a Held was dereferenced outside the outermost pin it was made under")
}

/// A value a publication displaced, with the epoch it was retired in: it
/// dereferences to the value, and may be rewritten or freed only once
/// [`Retired::reclaim`] says no other thread is pinned at or before that
/// epoch. Dropped unreclaimable, it waits in its thread's limbo (module
/// docs).
pub struct Retired<T: Send + Sync + 'static> {
    arc: ManuallyDrop<Strong<T>>,
    /// The epoch it was retired in, or [`CLEAR`].
    epoch: u64,
    /// The epoch it was retired in while an attempt that may look it up
    /// may still run, or [`CLEAR`] (module docs, *A displaced value's
    /// readers*).
    wanted: u64,
}

/// The epoch of a [`Retired`] value found reclaimable already, or no longer
/// wanted (module docs: either stays so). No pin holds it: pins start at 1.
const CLEAR: u64 = 0;

/// The oldest attempt that may still look a displaced value up, from one
/// scan of the pin slots: what [`Retired::still_wanted`] asks (module
/// docs, *A displaced value's readers*).
#[derive(Clone, Copy, Debug)]
pub struct Readers {
    oldest: u64,
}

impl Readers {
    /// Scans the pin slots' outer words once.
    pub fn scan() -> Self {
        Self {
            oldest: Oldest::scan().reader,
        }
    }
}

impl<T: Send + Sync + 'static> Retired<T> {
    /// Whether the value may be rewritten or freed, remembered once true.
    fn clear(&mut self) -> bool {
        if self.epoch != CLEAR && reclaimable(self.epoch) {
            self.epoch = CLEAR;
        }
        self.epoch == CLEAR
    }

    /// Whether an attempt that may look the value up was running when it
    /// was retired — one whose outermost pin is at or before the
    /// retirement, on another thread, or on this one under a second pin —
    /// and still was at the last [`Retired::still_wanted`].
    pub fn is_wanted(&self) -> bool {
        self.wanted != CLEAR
    }

    /// [`Retired::is_wanted`], asked again of a later scan; once false, it
    /// stays so: an attempt pinned after the scan pinned after the
    /// retirement.
    pub fn still_wanted(&mut self, readers: Readers) -> bool {
        if self.wanted < readers.oldest {
            self.wanted = CLEAR;
        }
        self.is_wanted()
    }

    /// `&mut` to the value, to rewrite it in place, once no reader that saw
    /// it published can still look at it ([`Retired::reclaim`]) and this is
    /// its only handle ([`unique_mut`]). It stays retired: dropped, it is
    /// freed at once.
    pub fn get_mut(this: &mut Self) -> Option<&mut T> {
        if !this.clear() {
            return None;
        }
        unique_mut(&mut this.arc)
    }

    /// The displaced handle — the one count the cell held — once no reader
    /// that saw it published can still look at it; the retired value back
    /// otherwise, and the epoch raised so that it becomes reclaimable.
    ///
    /// # Errors
    ///
    /// Returns `self` while another thread is pinned at or before its
    /// epoch.
    pub fn reclaim(mut self) -> Result<Strong<T>, Self> {
        if !self.clear() {
            return Err(self);
        }
        let mut this = ManuallyDrop::new(self);
        // SAFETY: `this` is never dropped, so the handle is taken once.
        Ok(unsafe { ManuallyDrop::take(&mut this.arc) })
    }

    /// [`Retired::reclaim`], waiting for the threads in the way to catch
    /// their pins up or unpin (module docs, *Waiting for a reclaim*): a
    /// few [`Backoff`] rounds, then naps. Gives up after some 20 ms of
    /// naps — a thread may stay pinned as long as its attempt lasts — and
    /// hands the value back.
    ///
    /// # Errors
    ///
    /// Returns `self` when another thread is still pinned at or before its
    /// epoch after that.
    pub fn reclaim_patiently(mut self) -> Result<Strong<T>, Self> {
        if self.clear() || patiently(|| self.clear()) {
            return self.reclaim();
        }
        Err(self)
    }
}

impl<T: Send + Sync + 'static> Deref for Retired<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.arc
    }
}

impl<T: Send + Sync + 'static> Drop for Retired<T> {
    #[inline]
    fn drop(&mut self) {
        if self.epoch != CLEAR {
            return self.drop_or_defer();
        }
        // SAFETY: `drop` runs once, and nothing uses the field after it.
        unsafe { ManuallyDrop::drop(&mut self.arc) }
    }
}

impl<T: Send + Sync + 'static> Retired<T> {
    /// [`Drop`] of a value not yet found reclaimable: dropped now if it is,
    /// deferred to the limbo if not. Out of line, being rare.
    #[cold]
    #[inline(never)]
    fn drop_or_defer(&mut self) {
        // SAFETY: called once, from `drop`, which uses the field no more.
        let strong = unsafe { ManuallyDrop::take(&mut self.arc) };
        if !self.clear() {
            defer(Deferred::new(strong.arc, self.epoch));
        }
    }
}

/// A counted handle to a value: an [`Arc`] of which no
/// [`Weak`](std::sync::Weak) can be made. The cells of this module publish
/// `Strong`s, and the STM records are `Strong`s. A `Strong` never lets its
/// `Arc` out — no conversion to one, no borrow of it — so every handle to
/// its value is a `Strong`, counted in the strong count, and
/// [`unique_mut`] can tell from that count alone that a handle is the only
/// one.
///
/// ```
/// use zstm_util::Strong;
///
/// let a = Strong::new(7u64);
/// let b = Strong::clone(&a);
/// assert!(Strong::ptr_eq(&a, &b));
/// assert_eq!((*b, Strong::count(&a)), (7, 2));
/// ```
pub struct Strong<T> {
    arc: Arc<T>,
}

impl<T> Strong<T> {
    /// Moves `value` into a new allocation with one handle.
    #[inline]
    pub fn new(value: T) -> Self {
        Self {
            arc: Arc::new(value),
        }
    }

    /// Live handles to the value (`Arc::strong_count`).
    #[inline]
    pub fn count(this: &Self) -> usize {
        Arc::strong_count(&this.arc)
    }

    /// Whether both handles are to the same allocation.
    #[inline]
    pub fn ptr_eq(this: &Self, other: &Self) -> bool {
        Arc::ptr_eq(&this.arc, &other.arc)
    }

    /// The address of the value, for identity only.
    #[inline]
    pub fn as_ptr(this: &Self) -> *const T {
        Arc::as_ptr(&this.arc)
    }

    /// The handle's count in raw form, for a cell to publish.
    fn into_raw(this: Self) -> *mut T {
        Arc::into_raw(this.arc).cast_mut()
    }

    /// # Safety
    ///
    /// `ptr` came from [`Strong::into_raw`], and its count is the caller's
    /// to take back, once.
    unsafe fn from_raw(ptr: *const T) -> Self {
        // SAFETY: as the function's contract says; `into_raw` is
        // `Arc::into_raw`.
        Self {
            arc: unsafe { Arc::from_raw(ptr) },
        }
    }
}

impl<T> Clone for Strong<T> {
    #[inline]
    fn clone(&self) -> Self {
        Self {
            arc: Arc::clone(&self.arc),
        }
    }
}

impl<T> Deref for Strong<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.arc
    }
}

impl<T: core::fmt::Debug> core::fmt::Debug for Strong<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        T::fmt(self, f)
    }
}

/// `&mut` to the value of `handle` if `handle` is its only handle: what
/// [`Arc::get_mut`] answers, from one plain load of the strong count and a
/// fence instead of a compare-and-swap of the weak count (module docs,
/// *Rewriting a displaced value*).
///
/// The argument. No `Weak` of a [`Strong`]'s value exists, so every handle
/// to it is a `Strong` and counted. A count of 1 is `handle`'s own, and
/// `&mut` keeps anyone from cloning `handle` while the result lives: no
/// other handle exists, and none can appear. (What `Arc::get_mut`'s lock of
/// the weak count excludes — a `Weak` upgraded and dropped between its
/// loads — has no `Weak` to start from.) The `Acquire` fence pairs with the
/// `Release` decrement of the last other holder's drop, which the load
/// read: all that holder did with the value happens before the caller's
/// writes.
///
/// ```
/// use zstm_util::Strong;
///
/// let mut record = Strong::new(1u64);
/// let other = Strong::clone(&record);
/// assert!(zstm_util::unique_mut(&mut record).is_none());
/// drop(other);
/// *zstm_util::unique_mut(&mut record).expect("the only handle") = 2;
/// assert_eq!(*record, 2);
/// ```
#[inline]
pub fn unique_mut<T>(handle: &mut Strong<T>) -> Option<&mut T> {
    if Strong::count(handle) != 1 {
        return None;
    }
    debug_assert_eq!(Arc::weak_count(&handle.arc), 0, "a Strong was downgraded");
    fence(Ordering::Acquire);
    // SAFETY: `handle` is the value's only handle and no other can appear
    // while its `&mut` borrow lives, and the fence ordered every other
    // holder's accesses before this one (the argument above); the borrow
    // returned is of `handle`, mutably.
    Some(unsafe { &mut *Arc::as_ptr(&handle.arc).cast_mut() })
}

/// A lock-free cell holding a [`Strong<T>`].
///
/// [`ArcCell::read`] runs a closure on the current value under a [`Pin`]
/// and [`ArcCell::load`] clones the current `Arc`, both without a mutex
/// and without writing anything shared; [`ArcCell::swap`] replaces the
/// value and hands the previous one back [`Retired`].
///
/// # Examples
///
/// ```
/// use zstm_util::{ArcCell, Strong};
///
/// let cell = ArcCell::new(Strong::new(1u64));
/// assert_eq!(*cell.load(), 1);
/// cell.store(Strong::new(2));
/// assert_eq!(*cell.load(), 2);
/// ```
pub struct ArcCell<T> {
    /// The published pointer, produced by [`Strong::into_raw`]; never
    /// null.
    current: AtomicPtr<T>,
    /// The cell logically owns one `Strong<T>` count.
    _marker: PhantomData<Strong<T>>,
}

impl<T> ArcCell<T> {
    /// Creates a cell publishing `value`.
    pub fn new(value: Strong<T>) -> Self {
        Self {
            current: AtomicPtr::new(Strong::into_raw(value)),
            _marker: PhantomData,
        }
    }

    /// Runs `f` on the currently published value without locking and
    /// without touching its reference count: `pin` keeps the value from
    /// being reclaimed while `f` runs, and the reference does not leave
    /// `f`. Keep `f` to copying out what is needed: a publication from
    /// inside it is safe, but what it displaces waits for the unpin
    /// (module docs, *The caller's own slot*).
    ///
    /// ```
    /// use zstm_util::{pin, ArcCell, Strong};
    ///
    /// let cell = ArcCell::new(Strong::new((7u64, String::from("seven"))));
    /// assert_eq!(cell.read(&pin(), |pair| pair.0), 7);
    /// ```
    #[inline(always)]
    pub fn read<R>(&self, _pin: &Pin, f: impl FnOnce(&T) -> R) -> R {
        let _window = Window::open();
        // SeqCst: the load of the module docs' total order.
        let ptr = self.current.load(Ordering::SeqCst);
        // SAFETY: the pointer came from `Strong::into_raw`; its count is
        // held by the cell or, once swapped out, by a `Retired` that no reclaim
        // releases while this thread's pin is at or before its epoch, and
        // the pin does not move while the window is open (module docs); the
        // reference does not escape `f`.
        f(unsafe { &*ptr })
    }

    /// Clones the currently published handle without locking (pinning
    /// the thread for the moment it takes).
    pub fn load(&self) -> Strong<T> {
        self.read(&pin(), |value| {
            let ptr: *const T = value;
            // SAFETY: the value is protected by the pin and a strong count
            // is held for it, so taking another count is safe, and we own
            // the one taken.
            unsafe {
                Arc::increment_strong_count(ptr);
                Strong::from_raw(ptr)
            }
        })
    }

    /// Borrows the published value with no pin and no count.
    ///
    /// # Safety
    ///
    /// No `swap` of this cell may run while the reference lives: the
    /// cell's own strong count is all that keeps the value alive.
    unsafe fn peek(&self) -> &T {
        // SAFETY: the pointer came from `Strong::into_raw` and the cell
        // holds a count of it until it is swapped out, which the caller
        // excludes. (In a `Guarded`, the swap of a previous holder comes
        // before its `Release` store of the lock flag, which the `Acquire`
        // that took the flag read: this load finds that swap's pointer.)
        unsafe { &*self.current.load(Ordering::Acquire) }
    }
}

impl<T: Send + Sync + 'static> ArcCell<T> {
    /// Publishes `value` and returns the previously published handle
    /// [`Retired`] in the current epoch. Never waits; safe to call from
    /// several writers concurrently, though callers in this workspace
    /// serialize writes under their object lock anyway.
    pub fn swap(&self, value: Strong<T>) -> Retired<T> {
        let new = Strong::into_raw(value);
        let old = self.current.swap(new, Ordering::SeqCst);
        let epoch = EPOCH.load(Ordering::SeqCst);
        // One scan answers both: may a reader still be looking at it, and
        // may an attempt still look it up.
        let oldest = Oldest::scan();
        let (pinned, wanted) = (oldest.pin <= epoch, oldest.reader <= epoch);
        if pinned || wanted {
            raise_epoch_past(epoch);
        }
        let kept = |held: bool| if held { epoch } else { CLEAR };
        Retired {
            // SAFETY: the cell's count of `old` is ours now.
            arc: ManuallyDrop::new(unsafe { Strong::from_raw(old) }),
            epoch: kept(pinned),
            wanted: kept(wanted),
        }
    }

    /// Publishes `value`, dropping the previous value once it is
    /// reclaimable ([`Retired`]).
    pub fn store(&self, value: Strong<T>) {
        drop(self.swap(value));
    }
}

impl<T> Drop for ArcCell<T> {
    fn drop(&mut self) {
        let ptr = *self.current.get_mut();
        // SAFETY: the cell's own count. `&mut self`: no reader's closure
        // can be running on this cell, and none keeps a reference past it.
        drop(unsafe { Arc::from_raw(ptr) });
    }
}

impl<T: core::fmt::Debug> core::fmt::Debug for ArcCell<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_tuple("ArcCell").field(&self.load()).finish()
    }
}

/// A published [`Strong<T>`] beside an `L` behind a one-byte lock: lock-free for
/// readers like an [`ArcCell`], replaceable only by the lock's holder
/// (module docs).
///
/// # Examples
///
/// ```
/// use zstm_util::{pin, Guarded, Strong};
///
/// let cell = Guarded::new(Strong::new(1u64), "history");
/// assert_eq!(cell.read(&pin(), |value| *value), 1);
/// let mut guard = cell.lock();
/// assert_eq!((*guard.current(), *guard), (1, "history"));
/// let displaced = guard.publish(Strong::new(2));
/// assert_eq!((*displaced, *guard.current()), (1, 2));
/// ```
pub struct Guarded<T, L> {
    published: ArcCell<T>,
    /// The lock: set while a [`Guard`] lives.
    held: AtomicBool,
    locked: UnsafeCell<L>,
}

// SAFETY: `locked` is reached only through the one `Guard` the flag admits
// at a time, so a `Guarded` may be shared as a `Mutex<L>` may, given that
// its published value may be.
unsafe impl<T, L: Send> Sync for Guarded<T, L> where ArcCell<T>: Sync {}

/// `spin_loop` rounds a contended [`Guarded::lock`] watches the flag for
/// before it yields the CPU, which a preempted holder may be waiting for.
const LOCK_SPINS: u32 = 64;

/// Yields a contended [`Guarded::lock`] makes before it naps ([`NAP`])
/// between its rounds instead: a holder still busy by then may be waiting
/// itself, for pins in [`Retired::reclaim_patiently`], and a waiter that
/// kept yielding would take the CPU from the threads it waits for.
const LOCK_YIELDS: u32 = 16;

impl<T, L> Guarded<T, L> {
    /// Creates a cell publishing `value` beside `locked`.
    pub fn new(value: Strong<T>, locked: L) -> Self {
        Self {
            published: ArcCell::new(value),
            held: AtomicBool::new(false),
            locked: UnsafeCell::new(locked),
        }
    }

    /// [`ArcCell::read`] of the published value; takes no lock.
    #[inline(always)]
    pub fn read<R>(&self, pin: &Pin, f: impl FnOnce(&T) -> R) -> R {
        self.published.read(pin, f)
    }

    /// [`ArcCell::load`] of the published value; takes no lock.
    pub fn load(&self) -> Strong<T> {
        self.published.load()
    }

    /// Acquires the lock: one compare-and-swap of the flag when it is free.
    /// A pinned thread that has to wait for it waits unpinned (module
    /// docs, *Catching up*): it spins, then yields, then naps. The guard's
    /// drop releases it with a store, on an unwind too: the lock is never
    /// poisoned.
    ///
    /// A waiter naps rather than parks: waking a parked one would need the
    /// release to learn that somebody sleeps, which takes a locked
    /// instruction again, the one the store replaced. A napping waiter
    /// looks at the flag again at most one nap after it is freed.
    #[inline]
    pub fn lock(&self) -> Guard<'_, T, L> {
        if !self.try_acquire() {
            unpinned_while(|| self.acquire_contended());
        }
        Guard {
            guarded: self,
            _not_send: PhantomData,
        }
    }

    /// One attempt at the flag, which fails only if it is taken; its
    /// `Acquire` pairs with the `Release` store of the previous holder's
    /// guard drop.
    #[inline(always)]
    fn try_acquire(&self) -> bool {
        self.held
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Test-and-test-and-set: watches the flag with plain loads while it is
    /// set, [`LOCK_SPINS`] rounds at a time, and yields between the rounds,
    /// then naps once it yielded [`LOCK_YIELDS`] times. A spurious failure
    /// of the weak compare-and-swap only costs a round.
    #[cold]
    fn acquire_contended(&self) {
        let mut yields = 0;
        loop {
            for _ in 0..LOCK_SPINS {
                if !self.held.load(Ordering::Relaxed)
                    && self
                        .held
                        .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                        .is_ok()
                {
                    return;
                }
                core::hint::spin_loop();
            }
            if yields < LOCK_YIELDS {
                yields += 1;
                std::thread::yield_now();
            } else {
                std::thread::sleep(NAP);
            }
        }
    }
}

/// The held lock of a [`Guarded`]: dereferences to `L`, and is the only
/// way to replace the published value. Neither `Send` nor `Sync`, as a
/// `MutexGuard` is not `Send`.
pub struct Guard<'a, T, L> {
    guarded: &'a Guarded<T, L>,
    _not_send: PhantomData<*const ()>,
}

impl<T, L> Guard<'_, T, L> {
    /// The published value and the locked state, borrowed together.
    pub fn split(&mut self) -> (&T, &mut L) {
        // SAFETY: see `current` and `deref_mut`; both borrows are of this
        // guard, the second mutably.
        unsafe {
            (
                self.guarded.published.peek(),
                &mut *self.guarded.locked.get(),
            )
        }
    }

    /// The published value: a plain borrow, no pin and no count.
    pub fn current(&self) -> &T {
        // SAFETY: the cell is private to its `Guarded`, whose only swap is
        // `publish(&mut self)` on the one guard the flag admits: none can
        // run while this borrow of that guard lives. `T` lives in the
        // `Arc`'s allocation, not in `L`.
        unsafe { self.guarded.published.peek() }
    }
}

impl<T: Send + Sync + 'static, L> Guard<'_, T, L> {
    /// Publishes `value` and returns the displaced value [`Retired`]
    /// ([`ArcCell::swap`]): the one strong count the cell held.
    pub fn publish(&mut self, value: Strong<T>) -> Retired<T> {
        self.guarded.published.swap(value)
    }
}

impl<T, L> Deref for Guard<'_, T, L> {
    type Target = L;

    #[inline]
    fn deref(&self) -> &L {
        // SAFETY: this guard is the flag's one holder, and every access to
        // `locked` goes through a guard; the flag's `Acquire` on taking it
        // ordered this after the previous holder's last access.
        unsafe { &*self.guarded.locked.get() }
    }
}

impl<T, L> DerefMut for Guard<'_, T, L> {
    #[inline]
    fn deref_mut(&mut self) -> &mut L {
        // SAFETY: as in `deref`, and the borrow is of this guard, mutably.
        unsafe { &mut *self.guarded.locked.get() }
    }
}

impl<T, L> Drop for Guard<'_, T, L> {
    #[inline]
    fn drop(&mut self) {
        // Releases everything done under the guard to the next holder's
        // `Acquire`.
        self.guarded.held.store(false, Ordering::Release);
    }
}

/// A bounded set of lock-free slots each holding a [`Strong<T>`].
///
/// Built for S-STM's visible reads: a reader inserts its transaction
/// record without taking the object lock; the overwriting transaction
/// drains the slots (under its own lock) to collect the readers. Ownership
/// of each reference is unambiguous — it belongs to the slot while the
/// slot is non-null, and to whoever atomically empties the slot — so no
/// pin is needed.
///
/// # Examples
///
/// ```
/// use zstm_util::{ArcSlots, Strong};
///
/// let slots: ArcSlots<u64> = ArcSlots::new(4);
/// let value = Strong::new(7u64);
/// let index = slots.try_insert(Strong::clone(&value)).expect("slot free");
/// assert!(slots.try_remove(index, &value));
/// assert!(slots.drain().is_empty());
/// ```
pub struct ArcSlots<T> {
    slots: Box<[AtomicPtr<T>]>,
    /// Each occupied slot owns one `Strong<T>` count.
    _marker: PhantomData<Strong<T>>,
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
    pub fn try_insert(&self, value: Strong<T>) -> Result<usize, Strong<T>> {
        let ptr = Strong::into_raw(value);
        for (index, slot) in self.slots.iter().enumerate() {
            if slot
                .compare_exchange(ptr::null_mut(), ptr, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                return Ok(index);
            }
        }
        // Full: take the count back out of raw form.
        Err(unsafe { Strong::from_raw(ptr) })
    }

    /// Empties slot `index` iff it still holds `value`, dropping the
    /// slot's reference. Returns `false` when a concurrent [`drain`]
    /// already collected it (the drainer then owns the reference).
    ///
    /// [`drain`]: ArcSlots::drain
    pub fn try_remove(&self, index: usize, value: &Strong<T>) -> bool {
        let ptr = Strong::as_ptr(value).cast_mut();
        if self.slots[index]
            .compare_exchange(ptr, ptr::null_mut(), Ordering::SeqCst, Ordering::Relaxed)
            .is_ok()
        {
            // The slot's count is ours now; release it.
            drop(unsafe { Strong::from_raw(ptr) });
            true
        } else {
            false
        }
    }

    /// Empties every occupied slot, returning the collected handles (the
    /// caller receives each slot's count).
    pub fn drain(&self) -> Vec<Strong<T>> {
        self.slots
            .iter()
            .filter_map(|slot| {
                let ptr = slot.swap(ptr::null_mut(), Ordering::SeqCst);
                (!ptr.is_null()).then(|| unsafe { Strong::from_raw(ptr) })
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
    use std::sync::mpsc;

    /// Reclaims `retired`, waiting out the pins of tests running beside.
    fn reclaimed<T: Send + Sync + 'static>(mut retired: Retired<T>) -> Strong<T> {
        loop {
            match retired.reclaim_patiently() {
                Ok(arc) => return arc,
                Err(back) => retired = back,
            }
        }
    }

    /// Runs `hold` on a thread of its own once it is pinned, and returns
    /// when `hold` has started; the thread unpins when `hold` returns.
    fn pinned_thread(hold: impl FnOnce(&Pin) + Send + 'static) -> std::thread::JoinHandle<()> {
        let (pinned, started) = mpsc::channel();
        let holder = std::thread::spawn(move || {
            let pin = pin();
            pinned.send(()).expect("main waits");
            hold(&pin);
        });
        started.recv().expect("the holder pinned");
        holder
    }

    /// Unpins until this thread's limbo is empty.
    fn settle() {
        while limbo_len() > 0 {
            drop(pin());
            std::thread::yield_now();
        }
    }

    #[test]
    fn load_returns_published_value() {
        let cell = ArcCell::new(Strong::new(41u64));
        assert_eq!(*cell.load(), 41);
        let old = cell.swap(Strong::new(42));
        assert_eq!(*old, 41);
        assert_eq!(*cell.load(), 42);
    }

    #[test]
    fn drop_releases_the_published_reference() {
        let value = Strong::new(5u64);
        {
            let cell = ArcCell::new(Strong::clone(&value));
            assert_eq!(Strong::count(&value), 2);
            let loaded = cell.load();
            assert_eq!(Strong::count(&value), 3);
            drop(loaded);
        }
        assert_eq!(Strong::count(&value), 1);
    }

    #[test]
    fn swap_hands_back_exactly_one_count() {
        let first = Strong::new(1u64);
        let second = Strong::new(2u64);
        let cell = ArcCell::new(Strong::clone(&first));
        let returned = reclaimed(cell.swap(Strong::clone(&second)));
        assert!(Strong::ptr_eq(&returned, &first));
        drop(returned);
        assert_eq!(Strong::count(&first), 1);
        drop(cell);
        assert_eq!(Strong::count(&second), 1);
    }

    #[test]
    fn pins_nest_overlap_and_the_last_one_unpins() {
        assert_eq!(pin_depth(), 0);
        let outer = pin();
        let slot = LOCAL.with(|local| local.slot.get());
        let pinned = PINS[slot].pin.load(Ordering::SeqCst);
        assert!(pinned != 0 && pinned <= EPOCH.load(Ordering::SeqCst));
        assert_eq!(PINS[slot].outer.load(Ordering::SeqCst), pinned);
        let stamp = LOCAL.with(|local| local.stamp.get());
        let inner = pin();
        assert_eq!(pin_depth(), 2);
        assert_eq!(LOCAL.with(|local| local.slot.get()), slot, "one slot");
        assert_eq!(LOCAL.with(|local| local.stamp.get()), stamp, "one stamp");
        // Dropped out of order, as two logical threads' attempts end.
        drop(outer);
        assert_eq!(
            PINS[slot].pin.load(Ordering::SeqCst),
            pinned,
            "still pinned"
        );
        drop(inner);
        assert_eq!(pin_depth(), 0);
        assert_eq!(PINS[slot].pin.load(Ordering::SeqCst), 0, "unpinned");
        assert_eq!(PINS[slot].outer.load(Ordering::SeqCst), 0, "unpinned");
        assert_eq!(LOCAL.with(|local| local.stamp.get()), 0, "no stamp");
        drop(pin());
        assert!(
            LOCAL.with(|local| local.stamps.get().0) > stamp + 1,
            "a fresh stamp per pin"
        );
        assert_eq!(LOCAL.with(|local| local.slot.get()), NONE);
    }

    #[test]
    fn a_foreign_pin_holds_a_retired_value_until_it_unpins() {
        let cell = ArcCell::new(Strong::new(1u64));
        let (pinned, unpin) = (mpsc::channel(), mpsc::channel::<()>());
        let holder = std::thread::spawn(move || {
            let pin = pin();
            pinned.0.send(()).expect("main waits");
            unpin.1.recv().expect("main says when");
            drop(pin);
        });
        pinned.1.recv().expect("the holder pinned");
        // Pinned before the swap, so at or before its epoch.
        let retired = cell.swap(Strong::new(2));
        let epoch = retired.epoch;
        let retired = retired.reclaim().expect_err("a foreign pin is in the way");
        assert!(
            EPOCH.load(Ordering::SeqCst) > epoch,
            "the failed reclaim moved the epoch past the retirement"
        );
        assert_eq!(*retired, 1, "still readable by its holder");
        unpin.0.send(()).expect("the holder waits");
        holder.join().expect("holder panicked");
        assert_eq!(*reclaimed(retired), 1);
    }

    #[test]
    fn a_closure_that_publishes_into_its_cell_keeps_what_it_reads() {
        // The thread's own pin is skipped only while no window is open on
        // it: the value a closure looks at outlives the closure's own
        // publication, and waits in the limbo for the unpin.
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = ArcCell::new(Canary::new(1, &drops));
        let pin = pin();
        let seen = cell.read(&pin, |canary| {
            cell.store(Canary::new(2, &drops));
            assert_eq!(limbo_len(), 1, "deferred, not freed");
            (canary.dropped.load(Ordering::SeqCst), canary.value)
        });
        assert_eq!(seen, (0, 1));
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(pin);
        settle();
        assert_eq!(drops.load(Ordering::SeqCst), 1, "freed after the unpin");
    }

    /// [`reclaimed`], given up after a second or so: a thread that never
    /// catches up holds a value off for good.
    fn reclaimed_soon<T: Send + Sync + 'static>(mut retired: Retired<T>) -> Option<Strong<T>> {
        for _ in 0..50 {
            match retired.reclaim_patiently() {
                Ok(arc) => return Some(arc),
                Err(back) => retired = back,
            }
        }
        None
    }

    #[test]
    fn a_pinned_reader_catches_up_at_its_next_read() {
        // A foreign pin taken before a retirement holds it off only until
        // its thread reads again: its window opens at the raised epoch.
        let cell = ArcCell::new(Strong::new(1u64));
        let other = Arc::new(ArcCell::new(Strong::new(0u64)));
        let stop = Arc::new(AtomicBool::new(false));
        let (reads, done) = (Arc::clone(&other), Arc::clone(&stop));
        let reader = pinned_thread(move |pin| {
            while !done.load(Ordering::SeqCst) {
                reads.read(pin, |value| std::hint::black_box(*value));
                std::thread::yield_now();
            }
        });
        let reclaimed = reclaimed_soon(cell.swap(Strong::new(2)));
        stop.store(true, Ordering::SeqCst);
        reader.join().expect("reader panicked");
        assert_eq!(reclaimed.as_deref(), Some(&1), "held off by a reader");
    }

    #[test]
    fn a_thread_asleep_on_a_lock_or_backing_off_holds_nothing_back() {
        let cell = ArcCell::new(Strong::new(1u64));
        // Asleep on a contended lock, pinned: out of its slot meanwhile.
        let guarded = Arc::new(Guarded::new(Strong::new(0u64), ()));
        let held = guarded.lock();
        let locker = Arc::clone(&guarded);
        let asleep = pinned_thread(move |_pin| drop(locker.lock()));
        std::thread::sleep(std::time::Duration::from_millis(20));
        let reclaimed = reclaimed_soon(cell.swap(Strong::new(2)));
        drop(held);
        asleep.join().expect("locker panicked");
        assert_eq!(reclaimed.as_deref(), Some(&1), "held off by a sleeper");
        // Spinning in a backoff, pinned: caught up after every round.
        let stop = Arc::new(AtomicBool::new(false));
        let done = Arc::clone(&stop);
        let spinner = pinned_thread(move |_pin| {
            let mut backoff = Backoff::new();
            while !done.load(Ordering::SeqCst) {
                backoff.spin();
            }
        });
        let reclaimed = reclaimed_soon(cell.swap(Strong::new(3)));
        stop.store(true, Ordering::SeqCst);
        spinner.join().expect("spinner panicked");
        assert_eq!(reclaimed.as_deref(), Some(&2), "held off by a spinner");
    }

    #[test]
    fn concurrent_loads_and_swaps_never_tear() {
        let cell = Arc::new(ArcCell::new(Strong::new((0u64, 0u64))));
        let stop = Arc::new(AtomicBool::new(false));
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
            cell.store(Strong::new((i, i * 3)));
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
        let a = Strong::new(1u64);
        let b = Strong::new(2u64);
        let ia = slots.try_insert(Strong::clone(&a)).expect("free slot");
        let _ib = slots.try_insert(Strong::clone(&b)).expect("free slot");
        // Full now.
        let c = Strong::new(3u64);
        let back = slots.try_insert(Strong::clone(&c)).expect_err("full");
        assert!(Strong::ptr_eq(&back, &c));
        assert_eq!(Strong::count(&c), 2);
        assert!(slots.try_remove(ia, &a));
        assert!(!slots.try_remove(ia, &a), "already empty");
        assert_eq!(Strong::count(&a), 1);
        let drained = slots.drain();
        assert_eq!(drained.len(), 1);
        assert!(Strong::ptr_eq(&drained[0], &b));
    }

    #[test]
    fn slots_drop_releases_occupants() {
        let a = Strong::new(9u64);
        {
            let slots: ArcSlots<u64> = ArcSlots::new(4);
            slots.try_insert(Strong::clone(&a)).expect("free slot");
            assert_eq!(Strong::count(&a), 2);
        }
        assert_eq!(Strong::count(&a), 1);
    }

    /// Flags its drop so readers can detect use-after-free.
    struct Canary {
        value: u64,
        dropped: AtomicUsize,
        drops: Arc<AtomicUsize>,
    }

    impl Canary {
        fn new(value: u64, drops: &Arc<AtomicUsize>) -> Strong<Self> {
            Strong::new(Self {
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
        let stop = Arc::new(AtomicBool::new(false));
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
        // exactly once, what waited in the limbo at the next unpin.
        settle();
        assert_eq!(drops.load(Ordering::SeqCst) as u64, PUBLISHES);
        drop(cell);
        assert_eq!(drops.load(Ordering::SeqCst) as u64, PUBLISHES + 1);
    }
}
