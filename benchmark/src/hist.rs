//! Log-bucket latency histogram over nanoseconds.
//!
//! Every power of two is cut into 128 equal buckets, so a bucket is at most
//! 1/128 = 0.78 % wide; values below 128 ns get a bucket each. Percentiles
//! interpolate inside the bucket they land in, which keeps a reported p50
//! from snapping to the same bucket edge on every run.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Values are clamped below 2^40 ns (18 minutes).
const MAX_BITS: u32 = 40;
const BUCKETS: usize = (MAX_BITS - SUB_BITS + 1) as usize * SUB;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

fn index(ns: u64) -> usize {
    let ns = ns.min((1 << MAX_BITS) - 1);
    if ns < SUB as u64 {
        return ns as usize;
    }
    let shift = 63 - ns.leading_zeros() - SUB_BITS;
    (shift as usize + 1) * SUB + ((ns >> shift) as usize - SUB)
}

/// Half-open value range `[lo, hi)` of bucket `idx`.
fn bounds(idx: usize) -> (u64, u64) {
    if idx < SUB {
        return (idx as u64, idx as u64 + 1);
    }
    let shift = idx / SUB - 1;
    let sub = (idx % SUB + SUB) as u64;
    (sub << shift, (sub + 1) << shift)
}

impl Hist {
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// The `q`-quantile (`0 < q < 1`) in nanoseconds; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = q * self.total as f64;
        let mut below = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let upto = below + u64::from(count);
            if upto as f64 >= rank {
                let (lo, hi) = bounds(idx);
                let inside = ((rank - below as f64) / f64::from(count)).clamp(0.0, 1.0);
                return Some(lo as f64 + (hi - lo) as f64 * inside);
            }
            below = upto;
        }
        let (_, hi) = bounds(BUCKETS - 1);
        Some(hi as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range_and_stay_under_one_percent() {
        let mut expect_lo = 0u64;
        for idx in 0..BUCKETS {
            let (lo, hi) = bounds(idx);
            assert_eq!(lo, expect_lo, "bucket {idx} starts where the last ended");
            assert_eq!(index(lo), idx);
            assert_eq!(index(hi - 1), idx);
            if lo >= SUB as u64 {
                assert!(
                    (hi - lo) as f64 / lo as f64 <= 0.01,
                    "bucket {idx} too wide"
                );
            }
            expect_lo = hi;
        }
        assert_eq!(expect_lo, 1 << MAX_BITS);
        assert_eq!(index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_of_a_uniform_ramp() {
        let mut hist = Hist::new();
        for ns in 1..=100_000u64 {
            hist.record(ns);
        }
        for (q, want) in [(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = hist.quantile(q).unwrap();
            assert!((got - want).abs() / want < 0.01, "q{q}: {got} vs {want}");
        }
        assert!(Hist::new().quantile(0.5).is_none());
    }
}
