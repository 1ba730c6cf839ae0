//! A version history keeps a displaced value only while a running attempt
//! could still look it up (`zstm_lsa::engine`'s module docs): an attempt
//! pinned at or before the displacement, on another thread or nested on
//! the committing one. These tests count on which threads are pinned, so
//! each holds the binary's one pinning lock (directly or through
//! `with_a_reader`). Their values are boxed: only a value with drop glue is
//! trimmed, since dropping one without it would free nothing.
//!
//! The history also reuses what it prunes (the module docs' *The history
//! reuses what it prunes*). The tests of that count the committing thread's
//! allocations: a version freed and allocated again would land at the
//! address it left, so an address cannot tell reuse from a fresh version.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use zstm_core::{CmPolicy, NullSink, ThreadId, TxKind, TxShared, TxValue, WriteEntry};
use zstm_lsa::engine::{DynObject, HistoryGap, VarCore};
use zstm_util::{pin, Strong};

include!("support/pinned_reader.rs");
include!("../../../tests/support/counting_allocator.rs");

/// How long a promotion waits at least before it gives up on a reclaim and
/// allocates: `Retired::reclaim_patiently`'s 200 naps of 100 µs or more.
const PATIENCE: Duration = Duration::from_millis(20);

/// A value that owns memory of its own.
type Boxed = Box<i64>;

fn history(max_versions: usize) -> VarCore<Boxed> {
    VarCore::new(Box::new(0), max_versions, Arc::new(NullSink))
}

/// Commits `value` onto `core` at commit time `ct` through the real
/// reservation/promotion protocol. Returns what the promotion cost the
/// calling thread: the allocations it made, and how long it took.
fn commit<T: TxValue>(core: &VarCore<T>, value: T, ct: u64) -> (u64, Duration) {
    let me = Strong::new(TxShared::start(ThreadId::new(0), TxKind::Short, 0));
    core.reserve(&me, value, CmPolicy::Aggressive)
        .expect("reserve");
    assert!(me.begin_commit());
    me.set_commit_ct(ct);
    me.finish_commit();
    let (before, start) = (allocs(), Instant::now());
    core.promote(&me);
    (allocs() - before, start.elapsed())
}

fn commit_write(core: &VarCore<Boxed>, value: i64, ct: u64) -> (u64, Duration) {
    commit(core, Box::new(value), ct)
}

/// The sequence number of the version `core` answers a snapshot at `ub`
/// with, if any.
fn seq_at(core: &VarCore<Boxed>, ub: u64) -> Option<u64> {
    core.read_at(&pin(), None, ub, |value| **value)
        .map(|hit| hit.seq)
}

#[test]
fn with_no_reader_the_history_keeps_no_value_and_reuses_its_allocations() {
    let _alone = one_pinning_test_at_a_time();
    const MAX_VERSIONS: usize = 4;
    let core = history(MAX_VERSIONS);
    let mut warm_up = 0;
    for i in 1..=40 {
        let (allocated, _) = commit_write(&core, i, i as u64 * 10);
        assert_eq!(core.version_count(), 1, "a value kept behind commit {i}");
        // Warm-up allocates a version per commit until the history is full
        // of shells, and the history's room once, as before; from then on
        // every commit reuses the oldest shell. Nothing is pinned, so no
        // reclaim waits.
        if i < MAX_VERSIONS as i64 {
            warm_up += allocated;
        } else {
            assert_eq!(allocated, 0, "promotion {i} allocated");
        }
    }
    assert_eq!(warm_up, MAX_VERSIONS as u64, "allocated while warming up");
    assert_eq!((seq_at(&core, 395), seq_at(&core, 400)), (None, Some(40)));
    assert_eq!(core.successor_ct(None, 38), Err(HistoryGap::Pruned));
}

#[test]
fn fast_readers_never_see_a_version_the_history_rewrites() {
    // A full history of one version behind the newest: each promotion
    // rewrites the version the one before displaced, while readers copy
    // out of whatever is published. Every hit must be one committed
    // version whole, and a warm promotion allocates nothing, unless a
    // reader stayed pinned past the promotion's patience (a preempted
    // reader thread): then it allocates the one version it could not
    // reclaim.
    const PROMOTIONS: u64 = 100_000;
    const MAX_VERSIONS: usize = 2;
    let _alone = one_pinning_test_at_a_time();
    zstm_util::run_with_deadline(
        "fast reads against version reuse [lsa]",
        Duration::from_secs(120),
        || {
            let core = Arc::new(VarCore::new(0i64, MAX_VERSIONS, Arc::new(NullSink)));
            let stop = Arc::new(AtomicBool::new(false));
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let (core, stop) = (Arc::clone(&core), Arc::clone(&stop));
                    std::thread::spawn(move || {
                        let mut last = 0;
                        loop {
                            let done = stop.load(Ordering::Relaxed);
                            let hit = core.read_at(&pin(), None, u64::MAX, |value| *value);
                            let hit = hit.expect("the newest version is always kept");
                            assert_eq!((hit.value, hit.ct), (hit.seq as i64, hit.seq * 10), "torn");
                            assert!(hit.seq >= last, "went back from {last} to {}", hit.seq);
                            last = hit.seq;
                            if done {
                                return last;
                            }
                        }
                    })
                })
                .collect();
            for seq in 1..=PROMOTIONS {
                let (allocated, took) = commit(&core, seq as i64, seq * 10);
                if seq >= MAX_VERSIONS as u64 {
                    let allowed = u64::from(took >= PATIENCE);
                    assert!(
                        allocated <= allowed,
                        "promotion {seq} allocated {allocated} in {took:?}"
                    );
                }
            }
            stop.store(true, Ordering::Relaxed);
            for reader in readers {
                assert_eq!(reader.join().expect("reader panicked"), PROMOTIONS);
            }
        },
    );
}

#[test]
fn a_reader_pinned_before_the_commits_reads_every_version_until_it_unpins() {
    let _alone = one_pinning_test_at_a_time();
    let core = history(8);
    let (read, has_read) = mpsc::channel();
    let (committed, is_committed) = mpsc::channel();
    std::thread::scope(|scope| {
        let core = &core;
        let reader = scope.spawn(move || {
            let pin = pin();
            // A snapshot at time 5, read again after every commit: each read
            // catches the reader's pin up, so only its outermost pin, still
            // where it was, tells that it may look the old versions up.
            for _ in 0..=5 {
                let seq = core.read_at(&pin, None, 5, |_| ()).map(|hit| hit.seq);
                assert_eq!(seq, Some(0));
                read.send(()).expect("the writer waits");
                is_committed.recv().expect("the writer committed");
            }
            for seq in 0..=5u64 {
                let hit = core.read_at(&pin, None, seq * 10 + 5, |value| **value);
                let hit = hit.unwrap_or_else(|| panic!("version {seq} was dropped"));
                assert_eq!((hit.seq, hit.value, hit.ct), (seq, seq as i64, seq * 10));
                let successor = (seq < 5).then_some(seq * 10 + 10);
                assert_eq!(core.successor_ct(None, seq), Ok(successor));
            }
        });
        for i in 1..=6 {
            has_read.recv().expect("the reader read");
            if i <= 5 {
                commit_write(core, i, i as u64 * 10);
            }
            committed.send(()).expect("the reader waits");
        }
        reader.join().expect("the reader read every version");
        assert_eq!(core.version_count(), 6);
    });
    // The reader is gone: the next commit trims every value behind it.
    commit_write(&core, 6, 60);
    assert_eq!(core.version_count(), 1);
    assert_eq!(seq_at(&core, 55), None);
}

#[test]
fn a_nested_attempt_on_the_committing_thread_keeps_its_versions() {
    let _alone = one_pinning_test_at_a_time();
    let core = history(8);
    let running = pin();
    let committing = pin();
    for i in 1..=3 {
        commit_write(&core, i, i as u64 * 10);
    }
    drop(committing);
    for seq in 0..=3u64 {
        let hit = core.read_at(&running, None, seq * 10 + 5, |_| ());
        assert_eq!(hit.map(|hit| hit.seq), Some(seq), "version {seq} dropped");
    }
    drop(running);
    // A commit with only its own pin on the thread keeps nothing.
    let only = pin();
    commit_write(&core, 4, 40);
    drop(only);
    assert_eq!(core.version_count(), 1);
}

#[test]
fn a_snapshot_older_than_every_value_kept_is_pruned() {
    let core = history(8);
    {
        let _alone = one_pinning_test_at_a_time();
        for i in 1..=3 {
            commit_write(&core, i, i as u64 * 10);
        }
    }
    with_a_reader(|| {
        for i in 4..=5 {
            commit_write(&core, i, i as u64 * 10);
        }
        // Versions 3 and 4 were displaced while the reader ran; 0–2 were
        // trimmed before it started.
        assert_eq!(core.version_count(), 3);
        assert_eq!((seq_at(&core, 30), seq_at(&core, 45)), (Some(3), Some(4)));
        for ub in [0, 15, 25, 29] {
            assert_eq!(seq_at(&core, ub), None, "a snapshot at {ub}");
        }
        assert_eq!(core.successor_ct(None, 2), Ok(Some(30)));
        assert_eq!(core.successor_ct(None, 1), Err(HistoryGap::Pruned));
    });
}

#[test]
fn a_value_without_drop_glue_is_kept() {
    let _alone = one_pinning_test_at_a_time();
    // Dropping an `i64` would free nothing: the history keeps it, as it
    // kept every value before trimming.
    let core = VarCore::new(0i64, 4, Arc::new(NullSink));
    for i in 1..=6 {
        commit(&core, i, i as u64 * 10);
    }
    assert_eq!(core.version_count(), 4);
    let seq_at = |ub| {
        core.read_at(&pin(), None, ub, i64::clone)
            .map(|hit| hit.seq)
    };
    assert_eq!((seq_at(35), seq_at(25)), (Some(3), None));
}
