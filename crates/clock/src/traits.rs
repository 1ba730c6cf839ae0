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
///
/// LSA, TL2 and Z-STM hold a [`crate::ScalarClock`] by type and call it
/// through this trait; the trait has a second implementation only so that
/// the benchmark's cost ladder can time [`crate::ShardedClock`] beside it.
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
