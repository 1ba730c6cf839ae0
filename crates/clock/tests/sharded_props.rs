//! Property and concurrency tests for [`ShardedClock`]: global uniqueness,
//! monotonicity along happens-before, the `now`-vs-future-stamps snapshot
//! invariant, and an observable-commit-order comparison against
//! [`ScalarClock`].

use std::sync::mpsc;
use std::sync::Arc;

use proptest::prelude::*;
use zstm_clock::{ScalarClock, ShardedClock, TimeBase};

#[test]
fn sharded_stamps_unique_across_threads() {
    // More threads than shards, so slot wrapping and same-shard CAS races
    // are exercised.
    let clock = Arc::new(ShardedClock::new(4));
    let handles: Vec<_> = (0..8)
        .map(|slot| {
            let clock = Arc::clone(&clock);
            std::thread::spawn(move || {
                let mut local = Vec::with_capacity(2_000);
                for _ in 0..2_000 {
                    local.push(clock.commit_stamp(slot));
                }
                local
            })
        })
        .collect();
    let mut all = Vec::new();
    for handle in handles {
        let local = handle.join().expect("stamping thread panicked");
        for pair in local.windows(2) {
            assert!(pair[0] < pair[1], "per-thread stamps must increase");
        }
        all.extend(local);
    }
    let len = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), len, "global uniqueness");
}

#[test]
fn sharded_snapshot_invariant_under_concurrency() {
    // `now` must never be invalidated by a stamp drawn after it was read —
    // the property every snapshot-at-`ub` read path in the workspace
    // relies on.
    let clock = Arc::new(ShardedClock::new(4));
    let stampers: Vec<_> = (0..3)
        .map(|slot| {
            let clock = Arc::clone(&clock);
            std::thread::spawn(move || {
                for _ in 0..30_000 {
                    clock.commit_stamp(slot);
                }
            })
        })
        .collect();
    for _ in 0..30_000 {
        let snapshot = clock.now(3);
        let stamp = clock.commit_stamp(3);
        assert!(
            stamp > snapshot,
            "stamp {stamp} must exceed the earlier now() reading {snapshot}"
        );
    }
    for s in stampers {
        s.join().expect("stamper panicked");
    }
}

/// The observable-commit-order stress: a token carrying the last observed
/// (scalar, sharded) stamp pair hops between threads; every hop draws a
/// fresh stamp from both clocks. Along this happens-before chain the two
/// clocks must agree: both strictly increase, in the same order.
#[test]
fn sharded_orders_happens_before_chains_like_scalar() {
    const THREADS: usize = 4;
    const HOPS: usize = 5_000;
    let scalar = Arc::new(ScalarClock::new());
    let sharded = Arc::new(ShardedClock::new(THREADS));
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..THREADS)
        .map(|_| mpsc::channel::<(usize, u64, u64)>())
        .unzip();
    let handles: Vec<_> = receivers
        .into_iter()
        .enumerate()
        .map(|(slot, rx)| {
            let scalar = Arc::clone(&scalar);
            let sharded = Arc::clone(&sharded);
            let next = senders[(slot + 1) % THREADS].clone();
            std::thread::spawn(move || {
                while let Ok((hops_left, last_scalar, last_sharded)) = rx.recv() {
                    if hops_left == 0 {
                        // Shutdown token: pass it around the ring once.
                        let _ = next.send((0, last_scalar, last_sharded));
                        return;
                    }
                    let s = scalar.commit_stamp(slot);
                    let sh = sharded.commit_stamp(slot);
                    assert!(
                        s > last_scalar && sh > last_sharded,
                        "both clocks must advance along the happens-before chain \
                         (scalar {last_scalar} -> {s}, sharded {last_sharded} -> {sh})"
                    );
                    let _ = next.send((hops_left - 1, s, sh));
                }
            })
        })
        .collect();
    senders[0].send((HOPS, 0, 0)).expect("seed the ring");
    drop(senders);
    for handle in handles {
        handle.join().expect("ring thread panicked");
    }
}

proptest! {
    /// Stamps drawn sequentially from arbitrary slots strictly increase
    /// (program order is happens-before), and every stamp decomposes into
    /// the shard the slot maps to.
    #[test]
    fn program_order_is_strictly_increasing(
        slots in proptest::collection::vec(0usize..16, 1..200),
        shard_count in 1usize..9,
    ) {
        let clock = ShardedClock::new(shard_count);
        let shards = clock.shards();
        prop_assert!(shards.is_power_of_two());
        let mut last = 0u64;
        for slot in slots {
            let snapshot = clock.now(slot);
            let stamp = clock.commit_stamp(slot);
            prop_assert!(stamp > last, "stamp {} after {}", stamp, last);
            prop_assert!(stamp > snapshot, "stamp {} vs snapshot {}", stamp, snapshot);
            let (_, shard) = clock.decompose(stamp);
            prop_assert_eq!(shard, slot % shards);
            last = stamp;
        }
    }

    /// `now` is monotone and never decreases as stamps are drawn.
    #[test]
    fn now_is_monotone(ops in proptest::collection::vec(any::<bool>(), 1..200)) {
        let clock = ShardedClock::new(4);
        let mut last_now = 0u64;
        for (i, is_commit) in ops.into_iter().enumerate() {
            if is_commit {
                clock.commit_stamp(i % 7);
            }
            let now = clock.now(i % 7);
            prop_assert!(now >= last_now, "now went backwards: {} -> {}", last_now, now);
            last_now = now;
        }
    }
}
