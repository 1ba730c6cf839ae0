//! Stress and property tests for the lock-free [`ArcCell`] publication
//! cell and the [`ArcSlots`] visible-reader set.
//!
//! The properties under test are the ones the STM read fast paths lean on:
//!
//! * **publish/read linearizability** — with a single writer publishing a
//!   monotone sequence, every reader observes a non-decreasing subsequence
//!   of exactly the published values (the cell behaves as an atomic
//!   register);
//! * **no use-after-free** — a loaded value is never one whose `Drop` has
//!   already run, across many concurrent publish/load cycles;
//! * **reclamation accounting** — every published value is dropped exactly
//!   once, verified by strong-count accounting and a drop counter;
//! * **`read` is `load` without the count** — half the readers of every
//!   stress look at the value in place under a pin, and a pin unwound
//!   through unpins;
//! * **a pin outlasts many reads** — one reader pinned across ten thousand
//!   reads while the writer publishes never sees a value reclaimed, and
//!   every value is still dropped exactly once;
//! * **a pin delays reclamation but never blocks a writer** — the writer
//!   finishes while a foreign pin is held (a full limbo waits a bounded
//!   time, then grows), its limbo holds at most what it retired, and
//!   drains once the pin is gone;
//! * **late joiners are scanned for** — a reclaim scans only the slots the
//!   threads so far can pin in, so readers that start while the writer
//!   stores must be either seen by its scan or pinned past its epoch;
//! * **[`Guarded`] has one writer** — the lock's holder reads back what it
//!   last published without a pin, while lock-free readers go on; its
//!   one-byte lock admits one holder at a time (four threads' plain
//!   increments under it all land), and a guard dropped by an unwind frees
//!   it;
//! * **a displaced value may be rewritten and published again** once it is
//!   reclaimed — what the LSA/Z version history does with the versions it
//!   prunes: readers never see a rewrite half done; [`unique_mut`] says
//!   whether it may be, and is `None` while another handle lives;
//! * **a variable outlives the attempts that hold it** — a [`Shared`]
//!   whose last handle drops while threads hold it uncounted ([`Held`]) and
//!   catch their pins up is freed only after they unpin, exactly once; and
//!   a `Held` looked at outside the pin it was made under panics.
//!
//! (The hint recycling has a process to itself, `hint_recycling.rs`: the
//! scanned prefix is global, and the stresses here move it.)
//!
//! Writers here unpin until their limbo is empty ([`settle`]) before they
//! count drops: the tests of this file run beside each other, and a value
//! retired while another test's thread is pinned waits for the next
//! unpin. CI also runs this file with `--release`, and under
//! AddressSanitizer: a reclaim that came too early is a read of freed
//! memory only ASan is sure to see.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use proptest::prelude::*;
use zstm_util::{
    limbo_len, pin, pin_depth, run_with_deadline, unique_mut, ArcCell, ArcSlots, Backoff, Guarded,
    Held, Retired, Shared, Strong,
};

/// Drop-flagged payload: readers assert the flag is unset on every load.
struct Tracked {
    value: u64,
    dropped: AtomicBool,
    drops: Arc<AtomicUsize>,
}

impl Tracked {
    fn new(value: u64, drops: &Arc<AtomicUsize>) -> Strong<Self> {
        Strong::new(Self {
            value,
            dropped: AtomicBool::new(false),
            drops: Arc::clone(drops),
        })
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        assert!(
            !self.dropped.swap(true, Ordering::SeqCst),
            "double drop of a published value"
        );
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

/// Unpins until the calling thread's limbo is empty: what it retired
/// while other threads were pinned is dropped by then.
fn settle() {
    while limbo_len() > 0 {
        drop(pin());
        std::thread::yield_now();
    }
}

/// Reclaims `retired`, waiting out whatever threads are pinned.
fn reclaimed<T: Send + Sync + 'static>(mut retired: Retired<T>) -> Strong<T> {
    loop {
        match retired.reclaim_patiently() {
            Ok(value) => return value,
            Err(back) => retired = back,
        }
    }
}

/// Runs `publishes` single-writer publications against `readers` concurrent
/// readers, every other one on `read` instead of `load`; returns the
/// highest value each reader observed.
fn single_writer_stress(readers: usize, publishes: u64) -> Vec<u64> {
    let drops = Arc::new(AtomicUsize::new(0));
    let cell = Arc::new(ArcCell::new(Tracked::new(0, &drops)));
    let stop = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..readers)
        .map(|reader| {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let look = |seen: &Tracked| (seen.dropped.load(Ordering::SeqCst), seen.value);
                let mut last = 0u64;
                loop {
                    let (dropped, value) = if reader % 2 == 0 {
                        look(&cell.load())
                    } else {
                        cell.read(&pin(), look)
                    };
                    assert!(!dropped, "reader {reader} saw a reclaimed value");
                    assert!(value >= last, "reads went backwards: {value} after {last}");
                    last = value;
                    if stop.load(Ordering::Relaxed) {
                        return last;
                    }
                }
            })
        })
        .collect();
    for i in 1..=publishes {
        cell.store(Tracked::new(i, &drops));
    }
    stop.store(true, Ordering::Relaxed);
    let finals: Vec<u64> = handles
        .into_iter()
        .map(|h| h.join().expect("reader panicked"))
        .collect();
    // All but the currently published value have been reclaimed, each
    // exactly once (the Tracked drop asserts single-drop itself).
    settle();
    assert_eq!(drops.load(Ordering::SeqCst) as u64, publishes);
    drop(cell);
    assert_eq!(drops.load(Ordering::SeqCst) as u64, publishes + 1);
    finals
}

#[test]
fn many_reader_reclaim_stress() {
    let finals = single_writer_stress(4, 20_000);
    for last in finals {
        assert!(last <= 20_000);
    }
}

#[test]
fn multi_writer_values_are_never_torn_or_stale_freed() {
    // Several writers republish concurrently; readers only require that
    // loaded values are live and internally consistent (pair invariant).
    let cell = Arc::new(ArcCell::new(Strong::new((0u64, 0u64))));
    let stop = Arc::new(AtomicBool::new(false));
    let next = Arc::new(AtomicU64::new(1));
    let writers: Vec<_> = (0..2)
        .map(|_| {
            let cell = Arc::clone(&cell);
            let next = Arc::clone(&next);
            std::thread::spawn(move || {
                for _ in 0..5_000 {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    cell.store(Strong::new((i, i.wrapping_mul(7))));
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..4)
        .map(|reader| {
            let cell = Arc::clone(&cell);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let pair = if reader % 2 == 0 {
                        *cell.load()
                    } else {
                        cell.read(&pin(), |pair| *pair)
                    };
                    assert_eq!(pair.1, pair.0.wrapping_mul(7), "torn publication");
                }
            })
        })
        .collect();
    for writer in writers {
        writer.join().expect("writer panicked");
    }
    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        reader.join().expect("reader panicked");
    }
}

#[test]
fn a_displaced_value_rewritten_and_published_again_is_read_whole() {
    // Two allocations take turns: the writer reclaims the one it just
    // swapped out — once no reader pinned before the swap is still pinned —
    // rewrites it — `unique_mut` succeeds, readers hold pins, not counts — and
    // publishes it again. A reader pinned after the swap reads the rewrite
    // whole.
    const PUBLISHES: u64 = 50_000;
    run_with_deadline(
        "republished allocations [no engine]",
        Duration::from_secs(60),
        || {
            let cell = Arc::new(ArcCell::new(Strong::new((0u64, 0u64))));
            let stop = Arc::new(AtomicBool::new(false));
            let readers: Vec<_> = (0..3)
                .map(|_| {
                    let (cell, stop) = (Arc::clone(&cell), Arc::clone(&stop));
                    std::thread::spawn(move || {
                        let mut last = 0;
                        while !stop.load(Ordering::Relaxed) {
                            let (value, check) = cell.read(&pin(), |pair| *pair);
                            assert_eq!(check, value.wrapping_mul(7), "torn rewrite");
                            assert!(value >= last, "reads went backwards");
                            last = value;
                        }
                    })
                })
                .collect();
            let mut spare = Strong::new((0, 0));
            for i in 1..=PUBLISHES {
                let unshared = unique_mut(&mut spare).expect("readers hold no count");
                *unshared = (i, i.wrapping_mul(7));
                spare = reclaimed(cell.swap(spare));
            }
            stop.store(true, Ordering::Relaxed);
            for reader in readers {
                reader.join().expect("reader panicked");
            }
            assert_eq!(cell.read(&pin(), |pair| *pair), (PUBLISHES, PUBLISHES * 7));
        },
    );
}

#[test]
fn one_pin_across_ten_thousand_reads_sees_no_value_reclaimed() {
    const READS: usize = 10_000;
    run_with_deadline("a long pin [no engine]", Duration::from_secs(60), || {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = Arc::new(ArcCell::new(Tracked::new(0, &drops)));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let (cell, stop, drops) = (Arc::clone(&cell), Arc::clone(&stop), Arc::clone(&drops));
            std::thread::spawn(move || {
                let mut published = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    published += 1;
                    cell.store(Tracked::new(published, &drops));
                }
                settle();
                published
            })
        };
        let pin = pin();
        // A long look: the writer goes on publishing meanwhile, and what it
        // displaced must still be whole at the end of it.
        let look = |seen: &Tracked| {
            for _ in 0..64 {
                std::hint::spin_loop();
            }
            (seen.dropped.load(Ordering::SeqCst), seen.value)
        };
        while cell.read(&pin, look).1 == 0 {
            std::thread::yield_now();
        }
        let mut last = 0;
        for _ in 0..READS {
            let (dropped, value) = cell.read(&pin, look);
            assert!(!dropped, "a pinned reader saw a reclaimed value");
            assert!(value >= last, "reads went backwards: {value} after {last}");
            last = value;
        }
        drop(pin);
        stop.store(true, Ordering::Relaxed);
        let published = writer.join().expect("writer panicked");
        assert_eq!(drops.load(Ordering::SeqCst) as u64, published);
        drop(cell);
        assert_eq!(drops.load(Ordering::SeqCst) as u64, published + 1);
    });
}

#[test]
fn a_held_pin_delays_reclamation_but_never_blocks_a_writer() {
    const PUBLISHES: u64 = 1_000;
    run_with_deadline("a held pin [no engine]", Duration::from_secs(30), || {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = ArcCell::new(Tracked::new(0, &drops));
        let (pinned, unpin) = (mpsc::channel(), mpsc::channel::<()>());
        let holder = std::thread::spawn(move || {
            let pin = pin();
            pinned.0.send(()).expect("the writer waits");
            unpin.1.recv().expect("the writer says when");
            drop(pin);
        });
        pinned.1.recv().expect("the holder pinned");
        settle();
        for i in 1..=PUBLISHES {
            cell.store(Tracked::new(i, &drops));
        }
        // Every value was retired after the holder pinned: none is freed,
        // and the writer finished anyway — a full limbo is waited on for
        // ~20 ms, then grows.
        assert_eq!(drops.load(Ordering::SeqCst), 0, "reclaimed under a pin");
        let waiting = limbo_len() as u64;
        assert!(waiting <= PUBLISHES, "{waiting} in the limbo");
        unpin.0.send(()).expect("the holder waits");
        holder.join().expect("holder panicked");
        settle();
        assert_eq!(drops.load(Ordering::SeqCst) as u64, PUBLISHES);
        assert_eq!(limbo_len(), 0);
    });
}

#[test]
fn a_pin_unwound_through_unpins() {
    // A read closure that panics drops the pin on its way out: were a pin
    // leaked per unwind, this thread would stay pinned and every writer's
    // retirements would wait for it.
    const UNWINDS: usize = 128;
    let cell = ArcCell::new(Strong::new(7u64));
    for _ in 0..UNWINDS {
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // (`resume_unwind` skips the panic hook: no 128 messages.)
            cell.read(&pin(), |_| {
                std::panic::resume_unwind(Box::new("a clone that panics"))
            })
        }));
        assert!(unwound.is_err());
    }
    assert_eq!(pin_depth(), 0, "unpinned");
    assert_eq!(*reclaimed(cell.swap(Strong::new(8))), 7);
    assert_eq!(cell.read(&pin(), |value| *value), 8);
}

#[test]
fn readers_that_join_while_a_writer_stores_are_never_missed() {
    // Fresh threads all the time: each claims its hint — and may raise the
    // writer's scanned prefix — between two of the writer's stores, reads
    // once or a few times and exits, handing the hint to the next.
    const GENERATIONS: usize = 150;
    run_with_deadline(
        "late-joining readers [no engine]",
        Duration::from_secs(60),
        || {
            let drops = Arc::new(AtomicUsize::new(0));
            let cell = Arc::new(ArcCell::new(Tracked::new(0, &drops)));
            let stop = Arc::new(AtomicBool::new(false));
            let writer = {
                let (cell, stop, drops) =
                    (Arc::clone(&cell), Arc::clone(&stop), Arc::clone(&drops));
                std::thread::spawn(move || {
                    let mut published = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        published += 1;
                        cell.store(Tracked::new(published, &drops));
                    }
                    settle();
                    published
                })
            };
            for generation in 0..GENERATIONS {
                let joiners: Vec<_> = (0..3)
                    .map(|reader| {
                        let cell = Arc::clone(&cell);
                        std::thread::spawn(move || {
                            let look = |seen: &Tracked| seen.dropped.load(Ordering::SeqCst);
                            for _ in 0..=(generation + reader) % 4 {
                                let dropped = if reader % 2 == 0 {
                                    look(&cell.load())
                                } else {
                                    cell.read(&pin(), look)
                                };
                                assert!(!dropped, "a late joiner saw a reclaimed value");
                            }
                        })
                    })
                    .collect();
                for joiner in joiners {
                    joiner.join().expect("reader panicked");
                }
            }
            stop.store(true, Ordering::Relaxed);
            let published = writer.join().expect("writer panicked");
            assert_eq!(drops.load(Ordering::SeqCst) as u64, published);
            drop(cell);
            assert_eq!(drops.load(Ordering::SeqCst) as u64, published + 1);
        },
    );
}

#[test]
fn the_locker_of_a_guarded_reads_back_what_it_published() {
    const PUBLISHES: u64 = 20_000;
    let drops = Arc::new(AtomicUsize::new(0));
    let cell = Arc::new(Guarded::new(Tracked::new(0, &drops), 0u64));
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|reader| {
            let (cell, stop) = (Arc::clone(&cell), Arc::clone(&stop));
            std::thread::spawn(move || {
                let look = |seen: &Tracked| (seen.dropped.load(Ordering::SeqCst), seen.value);
                let mut last = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (dropped, value) = if reader % 2 == 0 {
                        look(&cell.load())
                    } else {
                        cell.read(&pin(), look)
                    };
                    assert!(!dropped, "reader {reader} saw a reclaimed value");
                    assert!(value >= last, "reads went backwards: {value} after {last}");
                    last = value;
                }
            })
        })
        .collect();
    for i in 1..=PUBLISHES {
        let mut guard = cell.lock();
        assert_eq!((guard.current().value, *guard), (i - 1, i - 1));
        let displaced = guard.publish(Tracked::new(i, &drops));
        assert_eq!(displaced.value, i - 1);
        let (current, count) = guard.split();
        *count = current.value;
    }
    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        reader.join().expect("reader panicked");
    }
    settle();
    assert_eq!(drops.load(Ordering::SeqCst) as u64, PUBLISHES);
    assert_eq!(Strong::count(&cell.load()), 2, "the cell's and ours");
    drop(cell);
    assert_eq!(drops.load(Ordering::SeqCst) as u64, PUBLISHES + 1);
}

#[test]
fn a_guarded_lock_admits_one_holder_at_a_time() {
    // Plain read-then-write increments of the locked `u64`, all threads
    // let go at once: a second holder inside the first one's section loses
    // an increment.
    const THREADS: u64 = 4;
    const INCREMENTS: u64 = 100_000;
    run_with_deadline(
        "guarded lock exclusion [no engine]",
        Duration::from_secs(60),
        || {
            let cell = Arc::new(Guarded::new(Strong::new(()), 0u64));
            let start = Arc::new(Barrier::new(THREADS as usize));
            let lockers: Vec<_> = (0..THREADS)
                .map(|_| {
                    let (cell, start) = (Arc::clone(&cell), Arc::clone(&start));
                    std::thread::spawn(move || {
                        start.wait();
                        for _ in 0..INCREMENTS {
                            let mut count = cell.lock();
                            let seen = std::hint::black_box(*count);
                            *count = seen + 1;
                        }
                    })
                })
                .collect();
            for locker in lockers {
                locker.join().expect("locker panicked");
            }
            assert_eq!(*cell.lock(), THREADS * INCREMENTS);
        },
    );
}

#[test]
fn a_guard_dropped_by_an_unwind_frees_the_lock() {
    let cell = Arc::new(Guarded::new(Strong::new(0u64), 0u64));
    let locker = Arc::clone(&cell);
    let unwound = std::thread::spawn(move || {
        let mut count = locker.lock();
        *count = 1;
        // (`resume_unwind` skips the panic hook.)
        std::panic::resume_unwind(Box::new("a body that panics under the lock"));
    })
    .join();
    assert!(unwound.is_err());
    let relocker = Arc::clone(&cell);
    run_with_deadline(
        "lock after an unwind [no engine]",
        Duration::from_secs(30),
        move || {
            let mut count = relocker.lock();
            assert_eq!(*count, 1, "what the unwound holder wrote");
            *count = 2;
        },
    );
    assert_eq!(*cell.lock(), 2);
}

#[test]
fn unique_mut_waits_for_every_other_handle_and_sees_its_writes() {
    // (A `Strong` has no `Weak` to test against: it lends its `Arc` to
    // nobody, so none can be made.)
    let mut value = Strong::new([const { AtomicU64::new(0) }; 8]);
    let clone = Strong::clone(&value);
    assert!(unique_mut(&mut value).is_none(), "a clone lives");
    drop(clone);
    assert!(unique_mut(&mut value).is_some(), "the only handle");
    // Another thread writes, then drops the last other clone: the writes
    // come before its drop, which the `Some` acquires.
    for round in 1..=1_000u64 {
        let theirs = Strong::clone(&value);
        let writer = std::thread::spawn(move || {
            for (i, word) in theirs.iter().enumerate() {
                word.store(round * 8 + i as u64, Ordering::Relaxed);
            }
        });
        let mine = loop {
            if let Some(mine) = unique_mut(&mut value) {
                break mine;
            }
            std::hint::spin_loop();
        };
        for (i, word) in mine.iter_mut().enumerate() {
            assert_eq!(*word.get_mut(), round * 8 + i as u64, "round {round}");
        }
        writer.join().expect("writer panicked");
    }
}

#[test]
fn slots_concurrent_insert_remove_drain_accounting() {
    let slots = Arc::new(ArcSlots::<u64>::new(8));
    let drained_total = Arc::new(AtomicUsize::new(0));
    let removed_total = Arc::new(AtomicUsize::new(0));
    let inserted_total = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let inserters: Vec<_> = (0..3)
        .map(|_| {
            let slots = Arc::clone(&slots);
            let removed = Arc::clone(&removed_total);
            let inserted = Arc::clone(&inserted_total);
            std::thread::spawn(move || {
                for i in 0..10_000u64 {
                    let value = Strong::new(i);
                    if let Ok(index) = slots.try_insert(Strong::clone(&value)) {
                        inserted.fetch_add(1, Ordering::SeqCst);
                        if i % 2 == 0 && slots.try_remove(index, &value) {
                            removed.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    // The local `value` reference is dropped here; slot
                    // references survive independently until collected.
                }
            })
        })
        .collect();
    let drainer = {
        let slots = Arc::clone(&slots);
        let drained = Arc::clone(&drained_total);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                drained.fetch_add(slots.drain().len(), Ordering::SeqCst);
            }
        })
    };
    for inserter in inserters {
        inserter.join().expect("inserter panicked");
    }
    stop.store(true, Ordering::Relaxed);
    drainer.join().expect("drainer panicked");
    let leftover = slots.drain().len();
    // Every successful insert was collected exactly once: by its remover,
    // a drain, or the final sweep.
    assert_eq!(
        inserted_total.load(Ordering::SeqCst),
        removed_total.load(Ordering::SeqCst) + drained_total.load(Ordering::SeqCst) + leftover
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Publish/read linearizability: any reader/publish-count mix keeps
    /// reads monotone over a single writer's monotone publications, with
    /// full reclamation.
    #[test]
    fn publish_read_is_linearizable(readers in 1usize..4, publishes in 1u64..2_000) {
        let finals = single_writer_stress(readers, publishes);
        for last in finals {
            prop_assert!(last <= publishes);
        }
    }

    /// A serial op sequence behaves as a plain register: load always
    /// returns the last stored value, swap returns the one before.
    #[test]
    fn serial_register_semantics(ops in proptest::collection::vec(0u64..1_000, 1..40)) {
        let cell = ArcCell::new(Strong::new(u64::MAX));
        let mut expected = u64::MAX;
        for op in ops {
            if op % 3 == 0 {
                prop_assert_eq!(*cell.load(), expected);
            } else {
                let old = cell.swap(Strong::new(op));
                prop_assert_eq!(*old, expected);
                expected = op;
            }
        }
        prop_assert_eq!(*cell.load(), expected);
    }
}

/// A variable's payload that flags its drop. Its `id` tells it from a
/// variable allocated where a freed one was.
struct Watched {
    id: usize,
    dropped: AtomicBool,
    drops: Arc<AtomicUsize>,
}

impl Watched {
    fn new(id: usize, drops: &Arc<AtomicUsize>) -> Shared<Self> {
        Shared::new(Self {
            id,
            dropped: AtomicBool::new(false),
            drops: Arc::clone(drops),
        })
    }
}

impl Drop for Watched {
    fn drop(&mut self) {
        assert!(
            !self.dropped.swap(true, Ordering::SeqCst),
            "double free of a variable"
        );
        self.drops.fetch_add(1, Ordering::SeqCst);
    }
}

/// Holders take a variable uncounted, let go of the lock that named it and
/// look at it across catch-ups of their pins while a pinned writer
/// replaces it, dropping its last handle: none sees it freed, and every
/// variable is freed exactly once. Fails when a variable is freed by the
/// pin words, which catch up, instead of the outer words.
#[test]
fn variables_dropped_while_held_are_freed_once_their_holders_unpin() {
    const REPLACEMENTS: usize = 4_000;
    run_with_deadline(
        "held variables [no engine]",
        Duration::from_secs(60),
        || {
            let drops = Arc::new(AtomicUsize::new(0));
            let current = Arc::new(std::sync::Mutex::new(Watched::new(0, &drops)));
            let stop = Arc::new(AtomicBool::new(false));
            let holders: Vec<_> = (0..2)
                .map(|_| {
                    let (current, stop) = (Arc::clone(&current), Arc::clone(&stop));
                    std::thread::spawn(move || {
                        while !stop.load(Ordering::Relaxed) {
                            let pin = pin();
                            let held = Held::new(&current.lock().expect("lock"), &pin);
                            let id = held.id;
                            for _ in 0..64 {
                                assert!(
                                    !held.dropped.load(Ordering::SeqCst) && held.id == id,
                                    "a held variable was freed"
                                );
                                // A backoff round catches the pin word up.
                                Backoff::new().spin();
                            }
                        }
                    })
                })
                .collect();
            for id in 1..=REPLACEMENTS {
                // Dropped under the writer's own pin, and drained at its unpin.
                let _pin = pin();
                *current.lock().expect("lock") = Watched::new(id, &drops);
            }
            stop.store(true, Ordering::Relaxed);
            for holder in holders {
                holder.join().expect("holder panicked");
            }
            settle();
            assert_eq!(drops.load(Ordering::SeqCst), REPLACEMENTS);
            drop(current);
            settle();
            assert_eq!(drops.load(Ordering::SeqCst), REPLACEMENTS + 1);
        },
    );
}

/// (c) A `Held` looked at outside the outermost pin it was made under
/// panics: on another thread, after its thread unpinned, and in a later pin
/// of that thread. Fails when the deref does not check the pin stamp, or
/// when a stamp outlives its pin.
#[test]
fn a_held_outside_the_pin_it_was_made_under_panics() {
    let panics = |look: &dyn Fn() -> u64| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(look)).is_err()
    };
    let x = Shared::new(7u64);
    let outer = pin();
    let held = Held::new(&x, &outer);
    let inner = pin();
    drop(inner);
    assert_eq!(*held, 7, "inside its pin, nested pins and all");
    let elsewhere = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let _pin = pin();
                panics(&|| *held)
            })
            .join()
            .expect("the other thread")
    });
    assert!(elsewhere, "looked at on another thread");
    drop(outer);
    assert!(panics(&|| *held), "looked at after the unpin");
    let later = pin();
    assert!(panics(&|| *held), "looked at in a later pin");
    drop(later);
    assert_eq!(Shared::handles(&x), 1, "a Held takes no handle");
}
