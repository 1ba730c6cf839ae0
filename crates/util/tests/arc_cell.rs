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
//! * **reclamation accounting** — every published `Arc` is dropped exactly
//!   once, verified by strong-count accounting and a drop counter;
//! * **`read` is `load` without the count** — half the readers of every
//!   stress look at the value in place under the hazard slot, and a
//!   closure that unwinds gives its slot back;
//! * **late joiners are scanned for** — a writer scans only the slots the
//!   threads so far can occupy, so readers that start while it stores must
//!   be either seen by its scan or turned back by their revalidation;
//! * **[`Guarded`] has one writer** — the lock's holder reads back what it
//!   last published without a slot, while lock-free readers go on;
//! * **a displaced value may be rewritten and published again** — what
//!   the LSA/Z version history does with the versions it prunes: readers
//!   never see a rewrite half done.
//!
//! (The hint recycling has a process to itself, `hint_recycling.rs`: the
//! scanned prefix is global, and the stresses here move it.)
//!
//! CI also runs this file with `--release`: the windows between announce,
//! revalidate and release are a few instructions wide only when optimised.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use zstm_util::{run_with_deadline, ArcCell, ArcSlots, Guarded};

/// Drop-flagged payload: readers assert the flag is unset on every load.
struct Tracked {
    value: u64,
    dropped: AtomicBool,
    drops: Arc<AtomicUsize>,
}

impl Tracked {
    fn new(value: u64, drops: &Arc<AtomicUsize>) -> Arc<Self> {
        Arc::new(Self {
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
                        cell.read(look)
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
    let cell = Arc::new(ArcCell::new(Arc::new((0u64, 0u64))));
    let stop = Arc::new(AtomicBool::new(false));
    let next = Arc::new(AtomicU64::new(1));
    let writers: Vec<_> = (0..2)
        .map(|_| {
            let cell = Arc::clone(&cell);
            let next = Arc::clone(&next);
            std::thread::spawn(move || {
                for _ in 0..5_000 {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    cell.store(Arc::new((i, i.wrapping_mul(7))));
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
                        cell.read(|pair| *pair)
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
    // Two allocations take turns: the writer rewrites the one it just
    // swapped out — `get_mut` succeeds, readers hold hazard slots, not
    // counts — and publishes it again. A reader that loaded its pointer
    // before the swap and finds it published again reads the rewrite whole;
    // one still inside its window held the swap until it left.
    const PUBLISHES: u64 = 50_000;
    run_with_deadline(
        "republished allocations [no engine]",
        Duration::from_secs(60),
        || {
            let cell = Arc::new(ArcCell::new(Arc::new((0u64, 0u64))));
            let stop = Arc::new(AtomicBool::new(false));
            let readers: Vec<_> = (0..3)
                .map(|_| {
                    let (cell, stop) = (Arc::clone(&cell), Arc::clone(&stop));
                    std::thread::spawn(move || {
                        let mut last = 0;
                        while !stop.load(Ordering::Relaxed) {
                            let (value, check) = cell.read(|pair| *pair);
                            assert_eq!(check, value.wrapping_mul(7), "torn rewrite");
                            assert!(value >= last, "reads went backwards");
                            last = value;
                        }
                    })
                })
                .collect();
            let mut spare = Arc::new((0, 0));
            for i in 1..=PUBLISHES {
                let unshared = Arc::get_mut(&mut spare).expect("readers hold no count");
                *unshared = (i, i.wrapping_mul(7));
                spare = cell.swap(spare);
            }
            stop.store(true, Ordering::Relaxed);
            for reader in readers {
                reader.join().expect("reader panicked");
            }
            assert_eq!(cell.read(|pair| *pair), (PUBLISHES, PUBLISHES * 7));
        },
    );
}

#[test]
fn a_closure_that_unwinds_inside_read_gives_its_slot_back() {
    // Twice the number of hazard slots: were one leaked per unwind, the
    // thread would run out of slots to claim after a handful, and a leaked
    // announcement of the published pointer would hold every writer.
    const UNWINDS: usize = 128;
    run_with_deadline(
        "unwinding read closures [no engine]",
        Duration::from_secs(30),
        || {
            let cell = ArcCell::new(Arc::new(7u64));
            for _ in 0..UNWINDS {
                let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    // (`resume_unwind` skips the panic hook: no 128 messages.)
                    cell.read(|_| std::panic::resume_unwind(Box::new("a clone that panics")))
                }));
                assert!(unwound.is_err());
            }
            assert_eq!(*cell.load(), 7, "a slot is free at once");
            assert_eq!(*cell.swap(Arc::new(8)), 7, "no announcement is left behind");
            assert_eq!(cell.read(|value| *value), 8);
        },
    );
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
                                    cell.read(look)
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
                        cell.read(look)
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
    assert_eq!(drops.load(Ordering::SeqCst) as u64, PUBLISHES);
    assert_eq!(Arc::strong_count(&cell.load()), 2, "the cell's and ours");
    drop(cell);
    assert_eq!(drops.load(Ordering::SeqCst) as u64, PUBLISHES + 1);
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
                    let value = Arc::new(i);
                    if let Ok(index) = slots.try_insert(Arc::clone(&value)) {
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
        let cell = ArcCell::new(Arc::new(u64::MAX));
        let mut expected = u64::MAX;
        for op in ops {
            if op % 3 == 0 {
                prop_assert_eq!(*cell.load(), expected);
            } else {
                let old = cell.swap(Arc::new(op));
                prop_assert_eq!(*old, expected);
                expected = op;
            }
        }
        prop_assert_eq!(*cell.load(), expected);
    }
}
