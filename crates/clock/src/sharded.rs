use std::sync::atomic::{AtomicU64, Ordering};

use zstm_util::CachePadded;

use crate::TimeBase;

/// A sharded linearizable time base: per-shard epoch counters plus one
/// cheap global epoch bound.
///
/// **No engine takes it.** Every engine names its one clock (LSA, TL2 and
/// Z-STM a [`crate::ScalarClock`], CS-STM and S-STM a [`crate::RevClock`]);
/// this type stays only because the benchmark's cost ladder measures its
/// stamp (`clock.commit_stamp_ns.sharded`), which reads about twice the
/// scalar counter's on every box measured so far. It goes once the ladder
/// stops reading it.
///
/// [`crate::ScalarClock`] serializes every commit on a single `fetch_add`
/// word, which the paper already flags as the scalability limit of
/// single-clock TBTMs ("does not scale well in larger systems because of
/// contention and cache misses"). `ShardedClock` splits the counter:
///
/// * every logical thread maps to one of `shards()` cache-padded *shard*
///   counters (`slot % shards()`), so the read-modify-write of a commit
///   stamp lands on a line that is private to the shard in the common
///   1-thread-per-shard configuration;
/// * a stamp is the pair `(epoch, shard)` packed into one `u64` as
///   `epoch << shard_bits | shard`, which makes stamps globally unique
///   without any cross-shard coordination;
/// * a single *global bound* tracks the highest published epoch. Drawing a
///   stamp picks `epoch = max(own shard epoch, bound) + 1` and then raises
///   the bound to `epoch` with a compare-exchange loop whose fast path is a
///   plain load (when the bound has already caught up, nothing is written).
///   Under contention many shards draw stamps in the same epoch window and
///   only one of them actually writes the bound, so the shared line is
///   mostly read — in contrast to `fetch_add`, which dirties it on every
///   commit.
///
/// # Why this is still a valid [`TimeBase`]
///
/// * **Uniqueness** — the shard bits differ between shards, and within a
///   shard the epoch is advanced with a compare-exchange loop, so no two
///   `commit_stamp` calls return the same value.
/// * **Monotonicity along happens-before** — `commit_stamp` returns an
///   epoch strictly greater than the bound it read, and publishes that
///   epoch to the bound *before returning*. Any later stamp draw that
///   happens-after it (same thread, or through the STM's per-object
///   synchronization: a writer only draws its stamp while holding the
///   object's reservation) therefore reads a bound at least as large and
///   returns a strictly larger stamp. This is exactly the property the
///   STMs' version lists need: commit times strictly increase along every
///   object's version chain.
/// * **`now` never runs ahead** — `now` returns the largest stamp of the
///   current bound epoch (`bound << shard_bits | shard_mask`). Every stamp
///   drawn after that read uses an epoch strictly above the bound, so a
///   snapshot taken at `now()` can never be invalidated by a later commit,
///   as with [`crate::ScalarClock`]. The returned value may
///   exceed the largest stamp *issued so far* by up to `shards() - 1`
///   sub-epoch steps, which is harmless: no commit stamp ever lands in
///   that gap.
///
/// # Examples
///
/// ```
/// use zstm_clock::{ShardedClock, TimeBase};
///
/// let clock = ShardedClock::new(4);
/// let a = clock.commit_stamp(0);
/// let b = clock.commit_stamp(3); // different shard, same time base
/// assert!(b > a, "stamps drawn in sequence strictly increase");
/// assert!(clock.now(1) < clock.commit_stamp(1));
/// ```
#[derive(Debug)]
pub struct ShardedClock {
    /// Highest epoch any shard has published.
    bound: CachePadded<AtomicU64>,
    /// Last epoch issued per shard.
    shards: Box<[CachePadded<AtomicU64>]>,
    /// `log2(shards.len())`: stamps are `epoch << shard_bits | shard`.
    shard_bits: u32,
}

impl ShardedClock {
    /// Creates a clock serving at least `slots` logical threads.
    ///
    /// The shard count is `slots` rounded up to a power of two so the
    /// slot-to-shard mapping is a mask; each shard counter lives on its own
    /// cache line. `slots = 0` is treated as 1.
    pub fn new(slots: usize) -> Self {
        let shards = slots.max(1).next_power_of_two();
        Self {
            bound: CachePadded::new(AtomicU64::new(0)),
            shards: (0..shards)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            shard_bits: shards.trailing_zeros(),
        }
    }

    /// Number of shards (a power of two).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The current global epoch bound (diagnostics).
    pub fn bound_epoch(&self) -> u64 {
        self.bound.load(Ordering::Acquire)
    }

    /// Splits a stamp into `(epoch, shard)` (diagnostics, tests).
    pub fn decompose(&self, stamp: u64) -> (u64, usize) {
        (
            stamp >> self.shard_bits,
            (stamp & self.shard_mask()) as usize,
        )
    }

    fn shard_mask(&self) -> u64 {
        (1u64 << self.shard_bits) - 1
    }

    /// Raises the global bound to `epoch`. The fast path (bound already
    /// caught up) is a single load, which keeps the shared line in the
    /// read-mostly state that makes the clock scale.
    fn publish(&self, epoch: u64) {
        let mut current = self.bound.load(Ordering::Acquire);
        while current < epoch {
            match self.bound.compare_exchange_weak(
                current,
                epoch,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }
}

impl TimeBase for ShardedClock {
    fn now(&self, _slot: usize) -> u64 {
        (self.bound.load(Ordering::Acquire) << self.shard_bits) | self.shard_mask()
    }

    fn commit_stamp(&self, slot: usize) -> u64 {
        let shard_idx = slot & (self.shards.len() - 1);
        let shard = &self.shards[shard_idx];
        let mut local = shard.load(Ordering::Relaxed);
        loop {
            let bound = self.bound.load(Ordering::Acquire);
            let epoch = local.max(bound) + 1;
            match shard.compare_exchange_weak(local, epoch, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    self.publish(epoch);
                    return (epoch << self.shard_bits) | shard_idx as u64;
                }
                Err(observed) => local = observed,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn stamps_increase_along_program_order_across_shards() {
        let clock = ShardedClock::new(8);
        let mut last = 0;
        for slot in [0usize, 7, 3, 3, 5, 1, 0] {
            let stamp = clock.commit_stamp(slot);
            assert!(stamp > last, "stamp {stamp} after {last}");
            last = stamp;
        }
    }

    #[test]
    fn now_is_never_invalidated_by_later_stamps() {
        let clock = ShardedClock::new(4);
        for i in 0..100 {
            let snapshot = clock.now(i % 4);
            let stamp = clock.commit_stamp((i + 1) % 4);
            assert!(stamp > snapshot);
        }
    }

    #[test]
    fn slots_beyond_shard_count_wrap() {
        let clock = ShardedClock::new(2);
        let a = clock.commit_stamp(0);
        let b = clock.commit_stamp(2); // same shard as slot 0
        let c = clock.commit_stamp(1);
        let mut stamps = [a, b, c];
        stamps.sort_unstable();
        stamps.windows(2).for_each(|w| assert!(w[0] < w[1]));
    }

    #[test]
    fn concurrent_commit_stamps_never_collide() {
        let clock = Arc::new(ShardedClock::new(4));
        let threads: Vec<_> = (0..8)
            .map(|slot| {
                let clock = Arc::clone(&clock);
                std::thread::spawn(move || {
                    (0..2_000)
                        .map(|_| clock.commit_stamp(slot))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<u64> = threads
            .into_iter()
            .flat_map(|t| t.join().expect("clock thread panicked"))
            .collect();
        let len = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), len);
    }
}
