use core::fmt;
use std::hint;
use std::thread;

/// Bounded exponential backoff used on transactional conflicts and contended
/// compare-and-swap loops.
///
/// The first few rounds spin with [`core::hint::spin_loop`]; once the
/// exponent crosses [`Backoff::SPIN_LIMIT`] the calling thread yields to the
/// OS scheduler instead, which matters on the oversubscribed configurations
/// the paper benchmarks (32 logical threads on 8 cores).
///
/// This is the mechanism behind the *Polite* contention manager and the
/// retry loop of `zstm_core::atomically`.
///
/// # Examples
///
/// ```
/// use zstm_util::Backoff;
///
/// let mut backoff = Backoff::new();
/// for _attempt in 0..4 {
///     // ... try a CAS, it failed ...
///     backoff.spin();
/// }
/// assert!(backoff.rounds() >= 4);
/// ```
#[derive(Clone)]
pub struct Backoff {
    exponent: u32,
    rounds: u64,
}

impl Backoff {
    /// Exponent after which [`Backoff::spin`] yields instead of busy-waiting.
    pub const SPIN_LIMIT: u32 = 6;
    /// Maximum exponent; waits stop growing beyond `2^YIELD_LIMIT` units.
    pub const YIELD_LIMIT: u32 = 12;

    /// Creates a fresh backoff in the "no conflicts seen yet" state.
    pub const fn new() -> Self {
        Self {
            exponent: 0,
            rounds: 0,
        }
    }

    /// Total number of backoff rounds performed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Returns `true` once spinning has escalated to yielding, i.e. the
    /// conflict has persisted long enough that the caller should consider a
    /// stronger measure (such as aborting the opponent transaction).
    pub fn is_saturated(&self) -> bool {
        self.exponent >= Self::YIELD_LIMIT
    }

    /// Performs one backoff round: busy-spins for `2^n` iterations while the
    /// exponent is small and yields the thread afterwards. A pinned thread
    /// catches its pin up with the epoch after each round, so that what it
    /// waits for never waits for its pin ([`Pin`](crate::Pin)).
    pub fn spin(&mut self) {
        self.rounds += 1;
        if self.exponent <= Self::SPIN_LIMIT {
            for _ in 0..(1u32 << self.exponent) {
                hint::spin_loop();
            }
        } else {
            thread::yield_now();
        }
        if self.exponent < Self::YIELD_LIMIT {
            self.exponent += 1;
        }
        crate::arc_cell::catch_up();
    }

    /// Resets the exponential schedule (e.g. after a successful commit).
    pub fn reset(&mut self) {
        self.exponent = 0;
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Backoff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Backoff")
            .field("exponent", &self.exponent)
            .field("rounds", &self.rounds)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalates_and_saturates() {
        let mut backoff = Backoff::new();
        assert!(!backoff.is_saturated());
        for _ in 0..=Backoff::YIELD_LIMIT {
            backoff.spin();
        }
        assert!(backoff.is_saturated());
        assert_eq!(backoff.rounds(), u64::from(Backoff::YIELD_LIMIT) + 1);
    }

    #[test]
    fn reset_restarts_schedule() {
        let mut backoff = Backoff::new();
        for _ in 0..20 {
            backoff.spin();
        }
        backoff.reset();
        assert!(!backoff.is_saturated());
        // Rounds are cumulative across resets.
        assert_eq!(backoff.rounds(), 20);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(format!("{:?}", Backoff::new()).contains("Backoff"));
    }
}
