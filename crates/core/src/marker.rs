//! Automatic long-transaction marking.
//!
//! Z-STM needs to know a transaction's class (short/long) when it starts.
//! The paper (Section 5.3): "In the simplest case, the programmer might
//! need to mark explicitly transactions that are long. However, an
//! automatic marking based on past behaviors of transactions would be a
//! viable alternative." This module implements that alternative.
//!
//! An [`AutoMarker`] tracks, per *atomic-block site*, an exponential
//! moving average of how many objects the block's transactions open. A
//! site whose average crosses the configured threshold is classified
//! long; hysteresis (a lower un-mark threshold) prevents oscillation.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::TxKind;

/// Classifies atomic-block sites as short or long from observed access
/// counts (the paper's "automatic marking based on past behaviors").
///
/// One `AutoMarker` instance corresponds to one static atomic block; it is
/// cheap (one atomic) and can be stored in a `static` or alongside the
/// data structure whose operations it classifies.
///
/// # Examples
///
/// ```
/// use zstm_core::{AutoMarker, TxKind};
///
/// let marker = AutoMarker::with_threshold(10);
/// assert_eq!(marker.kind(), TxKind::Short);
/// // The block repeatedly opens ~100 objects:
/// for _ in 0..8 {
///     marker.observe(100);
/// }
/// assert_eq!(marker.kind(), TxKind::Long, "the site is now marked long");
/// // Behaviour changes back to tiny transactions:
/// for _ in 0..32 {
///     marker.observe(2);
/// }
/// assert_eq!(marker.kind(), TxKind::Short);
/// ```
#[derive(Debug)]
pub struct AutoMarker {
    /// The EMA of opened objects, in 1/16 units (fixed point), below the
    /// [`LONG`] bit. One CAS moves both, so the bit always agrees with
    /// the EMA it was decided on.
    state: AtomicU64,
    /// Accesses above this mark the site long.
    threshold: u64,
}

/// Whether the EMA last left the hysteresis band `[threshold/2,
/// threshold)` upwards: set on reaching the threshold, cleared on falling
/// below half of it.
const LONG: u64 = 1 << 63;

impl AutoMarker {
    /// Default threshold: transactions opening 32 or more objects count
    /// as long.
    pub const DEFAULT_THRESHOLD: u64 = 32;

    /// Creates a marker with the default threshold.
    pub fn new() -> Self {
        Self::with_threshold(Self::DEFAULT_THRESHOLD)
    }

    /// Creates a marker that classifies sites averaging `threshold` or
    /// more opened objects as long.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn with_threshold(threshold: u64) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        Self {
            state: AtomicU64::new(0),
            threshold,
        }
    }

    /// Records that one execution of the block opened `objects` objects
    /// (commonly `stats.reads() + stats.writes()` of the attempt).
    pub fn observe(&self, objects: u64) {
        // ema ← ema + (x − ema)/4, in 1/16 fixed point, via CAS loop. The
        // EMA never exceeds its input, so capping the input keeps it
        // clear of the LONG bit.
        let x16 = objects.saturating_mul(16).min(!LONG);
        let threshold_x16 = self.threshold * 16;
        let mut current = self.state.load(Ordering::Relaxed);
        loop {
            let ema = current & !LONG;
            let next = ema + x16.saturating_sub(ema) / 4 - ema.saturating_sub(x16) / 4;
            let long = if next >= threshold_x16 {
                LONG
            } else if next < threshold_x16 / 2 {
                0
            } else {
                current & LONG
            };
            match self.state.compare_exchange_weak(
                current,
                next | long,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Average observed accesses (rounded down).
    pub fn average(&self) -> u64 {
        (self.state.load(Ordering::Relaxed) & !LONG) / 16
    }

    /// The classification to pass to `TmThread::begin` for the next run of
    /// this block. Hysteresis: a site is long once its average reaches the
    /// threshold, and reverts to short only once its average falls below
    /// half the threshold.
    pub fn kind(&self) -> TxKind {
        if self.state.load(Ordering::Relaxed) & LONG != 0 {
            TxKind::Long
        } else {
            TxKind::Short
        }
    }
}

impl Default for AutoMarker {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_short() {
        let marker = AutoMarker::new();
        assert_eq!(marker.kind(), TxKind::Short);
        assert_eq!(marker.average(), 0);
    }

    #[test]
    fn large_blocks_become_long() {
        let marker = AutoMarker::with_threshold(8);
        for _ in 0..10 {
            marker.observe(50);
        }
        assert_eq!(marker.kind(), TxKind::Long);
        assert!(marker.average() >= 40);
    }

    #[test]
    fn small_blocks_stay_short() {
        let marker = AutoMarker::with_threshold(8);
        for _ in 0..100 {
            marker.observe(2);
        }
        assert_eq!(marker.kind(), TxKind::Short);
    }

    #[test]
    fn reverts_with_hysteresis() {
        let marker = AutoMarker::with_threshold(8);
        for _ in 0..10 {
            marker.observe(100);
        }
        assert_eq!(marker.kind(), TxKind::Long);
        // A single small observation must not flip it back...
        marker.observe(1);
        assert_eq!(marker.kind(), TxKind::Long);
        // ...but a sustained change must.
        for _ in 0..32 {
            marker.observe(1);
        }
        assert_eq!(marker.kind(), TxKind::Short);
    }

    #[test]
    fn a_site_that_never_reached_the_threshold_stays_short() {
        // The average settles at 5, inside [threshold/2, threshold) but
        // entered from below: the band keeps a site long, it never makes
        // one.
        let marker = AutoMarker::with_threshold(10);
        for _ in 0..64 {
            marker.observe(6);
        }
        assert_eq!(marker.average(), 5);
        assert_eq!(marker.kind(), TxKind::Short);
        // Reaching the threshold marks it; falling back into the band
        // keeps it marked.
        for _ in 0..16 {
            marker.observe(20);
        }
        assert_eq!(marker.kind(), TxKind::Long);
        for _ in 0..64 {
            marker.observe(6);
        }
        assert_eq!(marker.kind(), TxKind::Long);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn zero_threshold_rejected() {
        let _ = AutoMarker::with_threshold(0);
    }

    #[test]
    fn concurrent_observations_do_not_corrupt() {
        use std::sync::Arc;
        let marker = Arc::new(AutoMarker::with_threshold(8));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let marker = Arc::clone(&marker);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        marker.observe(64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("observer panicked");
        }
        assert_eq!(marker.kind(), TxKind::Long);
        assert!(marker.average() <= 64, "EMA never overshoots the input");
    }
}
