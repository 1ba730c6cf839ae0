//! Property and concurrency tests for the scalar time base: commit stamps
//! are globally unique and strictly increasing, and `now` is the latest
//! stamp. (`sharded_props.rs` holds the sharded clock to the same.)

use std::sync::Arc;

use proptest::prelude::*;
use zstm_clock::{ScalarClock, TimeBase};

fn stamps_are_unique_and_monotone<B: TimeBase>(clock: Arc<B>, threads: usize, per_thread: usize) {
    let handles: Vec<_> = (0..threads)
        .map(|slot| {
            let clock = Arc::clone(&clock);
            std::thread::spawn(move || {
                let mut local = Vec::with_capacity(per_thread);
                for _ in 0..per_thread {
                    local.push(clock.commit_stamp(slot));
                }
                local
            })
        })
        .collect();
    let mut all = Vec::new();
    for handle in handles {
        let local = handle.join().expect("stamping thread panicked");
        // Per-thread monotonicity.
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
fn scalar_stamps_unique_across_threads() {
    stamps_are_unique_and_monotone(Arc::new(ScalarClock::new()), 4, 2_000);
}

#[test]
fn scalar_now_is_exact() {
    let clock = ScalarClock::new();
    let stamp = clock.commit_stamp(0);
    assert_eq!(clock.now(1), stamp, "now reflects the latest stamp exactly");
}

proptest! {
    /// Scalar clocks: any interleaving of now/commit_stamp calls keeps
    /// `now` equal to the number of stamps drawn.
    #[test]
    fn scalar_counts_commits(ops in proptest::collection::vec(any::<bool>(), 1..100)) {
        let clock = ScalarClock::new();
        let mut commits = 0u64;
        for is_commit in ops {
            if is_commit {
                let stamp = clock.commit_stamp(0);
                commits += 1;
                prop_assert_eq!(stamp, commits);
            } else {
                prop_assert_eq!(clock.now(0), commits);
            }
        }
    }

    /// Starting offsets carry through.
    #[test]
    fn scalar_starting_at_offsets(start in 0u64..1_000_000) {
        let clock = ScalarClock::starting_at(start);
        prop_assert_eq!(clock.now(0), start);
        prop_assert_eq!(clock.commit_stamp(0), start + 1);
    }
}
