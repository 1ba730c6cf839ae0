use core::fmt::Debug;

use crate::ClockOrd;

/// A linearizable scalar time base for a TBTM (Section 2 of the paper).
///
/// Implementations must guarantee that
/// * [`TimeBase::commit_stamp`] returns globally unique, strictly increasing
///   values (this is what makes the time base linearizable), and
/// * every commit stamp drawn after a [`TimeBase::now`] reading is greater
///   than it, so a later commit never lands inside a snapshot taken at
///   `now`.
///
/// The `slot` argument identifies the calling logical thread so that
/// implementations with per-thread state ([`crate::ShardedClock`], which
/// stamps on the caller's shard) can find it; implementations with one
/// global notion of time ([`crate::ScalarClock`]) ignore it.
pub trait TimeBase: Send + Sync + 'static {
    /// Reads the current time as perceived by logical thread `slot`.
    fn now(&self, slot: usize) -> u64;

    /// Acquires a fresh commit timestamp for an update transaction committed
    /// by logical thread `slot`.
    ///
    /// The returned value is strictly greater than every previously returned
    /// commit stamp, which models the "acquire a new commit time or wait one
    /// clock tick" step of Section 2.
    fn commit_stamp(&self, slot: usize) -> u64;
}

/// A timestamp drawn from a partially ordered (vector-like) time base.
///
/// The operations mirror what Algorithm 1 of the paper needs: element-wise
/// maximum (`join`), the four-way comparison of Section 4, and the derived
/// strict order `≺`.
pub trait CausalStamp: Clone + Debug + PartialEq + Eq + Send + Sync + 'static {
    /// Compares two timestamps under the partial order of the time base.
    fn causal_cmp(&self, other: &Self) -> ClockOrd;

    /// In-place element-wise maximum: `self ← max(self, other)` (line 8 of
    /// Algorithm 1).
    fn join(&mut self, other: &Self);

    /// Returns `true` iff `self ≺ other` (strictly precedes).
    fn precedes(&self, other: &Self) -> bool {
        self.causal_cmp(other) == ClockOrd::Before
    }

    /// Returns `true` iff neither timestamp precedes the other.
    fn concurrent_with(&self, other: &Self) -> bool {
        self.causal_cmp(other) == ClockOrd::Concurrent
    }
}

/// A causality-tracking time base (Section 4 of the paper).
///
/// A `CausalTimeBase` is shared by `slots()` logical threads. Each thread
/// carries timestamps of type [`CausalTimeBase::Stamp`] and advances *its
/// own component* when it commits; components may be shared between threads
/// (plausible clocks), in which case the implementation must use an atomic
/// get-and-increment so two threads never generate the same timestamp
/// (Section 4.3).
pub trait CausalTimeBase: Send + Sync + 'static {
    /// Timestamp type produced by this time base.
    type Stamp: CausalStamp;

    /// Number of logical threads sharing this time base.
    fn slots(&self) -> usize;

    /// The all-zero timestamp that precedes or equals every other stamp.
    fn zero(&self) -> Self::Stamp;

    /// Advances the component owned by `slot` within `stamp`, making the
    /// stamp strictly greater than any stamp previously generated for that
    /// component (line 29 of Algorithm 1).
    ///
    /// # Panics
    ///
    /// Implementations may panic if `slot >= self.slots()`.
    fn advance(&self, slot: usize, stamp: &mut Self::Stamp);
}
