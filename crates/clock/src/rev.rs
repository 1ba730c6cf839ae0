use core::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use zstm_util::CachePadded;

use crate::{CausalStamp, CausalTimeBase, ClockOrd};

/// An r-entry-vector ("REV") plausible clock for `n` logical threads
/// (Section 4.3 of the paper, after Torres-Rojas & Ahamad).
///
/// Timestamps are vectors of `r ≤ n` entries; thread `i` owns entry
/// `i mod r` (the *modulo-r mapping* the paper studies). Because entries may
/// be shared between threads, advancing a component uses an atomic
/// get-and-increment on a shared counter so that two threads can never
/// generate the same timestamp.
///
/// The two extremes recover the other time bases of the paper:
///
/// * `r = n` ([`RevClock::vector`]) is a classical Fidge/Mattern **vector
///   clock**: `causal_cmp` characterizes causality exactly;
/// * `r = 1` ([`RevClock::scalar`]) degenerates to a single shared counter,
///   i.e. a Lamport-style scalar logical clock — exactly the single-clock
///   TBTM of Section 2, which orders *everything* and therefore reports no
///   concurrency at all.
///
/// For `1 < r < n` the clock is *plausible*: causally related events are
/// always ordered correctly, but some concurrent events are reported as
/// ordered, which in an STM shows up as unnecessary aborts (tested in this
/// module and measured by the `ablation-r` figure).
///
/// # Examples
///
/// ```
/// use zstm_clock::{CausalStamp, CausalTimeBase, ClockOrd, RevClock};
///
/// let clock = RevClock::new(4, 2); // 4 threads share 2 entries
/// let mut a = clock.zero();
/// clock.advance(0, &mut a);        // thread 0 → entry 0
/// let mut b = clock.zero();
/// clock.advance(1, &mut b);        // thread 1 → entry 1
/// assert_eq!(a.causal_cmp(&b), ClockOrd::Concurrent);
///
/// let mut c = a.clone();
/// c.join(&b);                      // c has seen both
/// clock.advance(0, &mut c);
/// assert!(a.precedes(&c) && b.precedes(&c));
/// ```
pub struct RevClock {
    entries: Vec<CachePadded<AtomicU64>>,
    slots: usize,
}

impl RevClock {
    /// Creates a REV clock for `slots` logical threads with `entries`
    /// shared vector entries (`r = entries`).
    ///
    /// # Panics
    ///
    /// Panics if `slots` or `entries` is zero, or if `entries > slots`
    /// (extra entries could never be advanced and would be dead weight).
    pub fn new(slots: usize, entries: usize) -> Self {
        assert!(slots > 0, "a clock needs at least one thread slot");
        assert!(entries > 0, "a REV clock needs at least one entry");
        assert!(
            entries <= slots,
            "r = {entries} entries exceeds n = {slots} threads"
        );
        Self {
            entries: (0..entries)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            slots,
        }
    }

    /// A full vector clock: one entry per thread (`r = n`).
    pub fn vector(slots: usize) -> Self {
        Self::new(slots, slots)
    }

    /// A single-entry clock (`r = 1`): the Lamport/scalar degenerate case.
    pub fn scalar(slots: usize) -> Self {
        Self::new(slots, 1)
    }

    /// Number of vector entries (`r`).
    pub fn entries(&self) -> usize {
        self.entries.len()
    }

    /// The entry owned by thread `slot` under the modulo-r mapping.
    pub fn entry_of(&self, slot: usize) -> usize {
        slot % self.entries.len()
    }
}

impl fmt::Debug for RevClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RevClock")
            .field("slots", &self.slots)
            .field("entries", &self.entries.len())
            .finish()
    }
}

impl CausalTimeBase for RevClock {
    type Stamp = RevStamp;

    fn slots(&self) -> usize {
        self.slots
    }

    fn zero(&self) -> RevStamp {
        RevStamp {
            components: vec![0; self.entries.len()].into_boxed_slice(),
        }
    }

    /// Advances thread `slot`'s entry with a get-and-increment on the shared
    /// counter, storing the fresh (globally unique for this entry) value in
    /// `stamp`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.slots()` or if `stamp` was created by a clock
    /// with a different entry count.
    fn advance(&self, slot: usize, stamp: &mut RevStamp) {
        assert!(slot < self.slots, "slot {slot} out of range");
        assert_eq!(
            stamp.components.len(),
            self.entries.len(),
            "stamp entry count does not match this clock"
        );
        let entry = self.entry_of(slot);
        let fresh = self.entries[entry].fetch_add(1, Ordering::AcqRel) + 1;
        // The shared counter only grows, so `fresh` exceeds every value any
        // stamp can have observed for this entry, including ours.
        debug_assert!(fresh > stamp.components[entry]);
        stamp.components[entry] = fresh;
    }
}

/// A timestamp produced by a [`RevClock`].
///
/// Comparison follows the vector-timestamp rules (1)–(3) of Section 4; with
/// shared entries the result is *plausible* rather than exact (concurrent
/// events may be reported ordered, never the reverse).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct RevStamp {
    components: Box<[u64]>,
}

impl RevStamp {
    /// Read-only view of the vector components.
    pub fn components(&self) -> &[u64] {
        &self.components
    }

    /// Size of this timestamp in vector entries (`r`).
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Returns `true` if the timestamp has no vector entries (`r == 0`,
    /// never the case for stamps produced by a [`RevClock`]).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Returns `true` for the zero timestamp.
    pub fn is_zero(&self) -> bool {
        self.components.iter().all(|&c| c == 0)
    }
}

impl fmt::Debug for RevStamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RevStamp{:?}", self.components)
    }
}

impl CausalStamp for RevStamp {
    fn causal_cmp(&self, other: &Self) -> ClockOrd {
        assert_eq!(
            self.components.len(),
            other.components.len(),
            "comparing stamps from different clocks"
        );
        let mut less = false;
        let mut greater = false;
        for (a, b) in self.components.iter().zip(other.components.iter()) {
            if a < b {
                less = true;
            } else if a > b {
                greater = true;
            }
        }
        match (less, greater) {
            (false, false) => ClockOrd::Equal,
            (true, false) => ClockOrd::Before,
            (false, true) => ClockOrd::After,
            (true, true) => ClockOrd::Concurrent,
        }
    }

    fn join(&mut self, other: &Self) {
        assert_eq!(
            self.components.len(),
            other.components.len(),
            "joining stamps from different clocks"
        );
        for (a, b) in self.components.iter_mut().zip(other.components.iter()) {
            *a = (*a).max(*b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(values: &[u64]) -> RevStamp {
        RevStamp {
            components: values.to_vec().into_boxed_slice(),
        }
    }

    #[test]
    fn comparison_rules_of_section_4() {
        // Rule (1): equality is component-wise.
        assert_eq!(stamp(&[1, 2]).causal_cmp(&stamp(&[1, 2])), ClockOrd::Equal);
        // Rule (3): strict precedence.
        assert_eq!(stamp(&[1, 2]).causal_cmp(&stamp(&[1, 3])), ClockOrd::Before);
        assert_eq!(stamp(&[4, 2]).causal_cmp(&stamp(&[1, 2])), ClockOrd::After);
        // Concurrency.
        assert_eq!(
            stamp(&[1, 0]).causal_cmp(&stamp(&[0, 1])),
            ClockOrd::Concurrent
        );
    }

    #[test]
    fn join_is_elementwise_max() {
        let mut a = stamp(&[1, 5, 0]);
        a.join(&stamp(&[3, 2, 0]));
        assert_eq!(a.components(), &[3, 5, 0]);
    }

    #[test]
    fn advance_makes_stamp_strictly_greater() {
        let clock = RevClock::vector(3);
        let mut a = clock.zero();
        clock.advance(1, &mut a);
        let before = a.clone();
        clock.advance(1, &mut a);
        assert!(before.precedes(&a));
    }

    #[test]
    fn vector_clock_detects_concurrency() {
        let clock = RevClock::vector(2);
        let mut a = clock.zero();
        let mut b = clock.zero();
        clock.advance(0, &mut a);
        clock.advance(1, &mut b);
        assert!(a.concurrent_with(&b));
    }

    #[test]
    fn scalar_clock_orders_everything() {
        let clock = RevClock::scalar(4);
        let mut a = clock.zero();
        let mut b = clock.zero();
        clock.advance(0, &mut a);
        clock.advance(3, &mut b); // same shared entry
        assert!(a.causal_cmp(&b).is_ordered());
    }

    #[test]
    fn shared_entries_never_generate_equal_stamps() {
        let clock = RevClock::new(4, 2);
        let mut a = clock.zero();
        let mut b = clock.zero();
        clock.advance(0, &mut a); // entry 0
        clock.advance(2, &mut b); // entry 0 as well
        assert_ne!(a, b);
    }

    #[test]
    fn entry_mapping_is_modulo_r() {
        let clock = RevClock::new(5, 2);
        assert_eq!(clock.entry_of(0), 0);
        assert_eq!(clock.entry_of(1), 1);
        assert_eq!(clock.entry_of(2), 0);
        assert_eq!(clock.entry_of(4), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn more_entries_than_slots_rejected() {
        let _ = RevClock::new(2, 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn advance_checks_slot() {
        let clock = RevClock::vector(2);
        let mut stamp = clock.zero();
        clock.advance(2, &mut stamp);
    }

    #[test]
    fn debug_formats_are_nonempty() {
        let clock = RevClock::new(3, 2);
        assert!(format!("{clock:?}").contains("RevClock"));
        assert!(format!("{:?}", clock.zero()).contains("RevStamp"));
    }
}

/// Property tests: the plausibility conditions of Torres-Rojas & Ahamad as
/// quoted in Section 4.3, checked against an exact vector clock run in
/// lockstep over randomly generated communication histories.
#[cfg(test)]
mod plausibility_props {
    use super::*;
    use proptest::prelude::*;

    /// One step of a simulated execution: a thread either performs a local
    /// event or receives (joins) the current stamp of another thread.
    #[derive(Clone, Debug)]
    enum Step {
        Local { thread: usize },
        Receive { thread: usize, from: usize },
    }

    fn steps(threads: usize) -> impl Strategy<Value = Vec<Step>> {
        let step =
            (0..threads, 0..threads, any::<bool>()).prop_map(move |(thread, from, local)| {
                if local || thread == from {
                    Step::Local { thread }
                } else {
                    Step::Receive { thread, from }
                }
            });
        proptest::collection::vec(step, 1..60)
    }

    /// Runs `steps` under both an exact vector clock and an `r`-entry REV
    /// clock, producing for every *event* the pair of stamps.
    fn run(threads: usize, r: usize, steps: &[Step]) -> Vec<(RevStamp, RevStamp)> {
        let exact = RevClock::vector(threads);
        let plausible = RevClock::new(threads, r);
        let mut exact_state: Vec<RevStamp> = (0..threads).map(|_| exact.zero()).collect();
        let mut plaus_state: Vec<RevStamp> = (0..threads).map(|_| plausible.zero()).collect();
        let mut events = Vec::new();
        for step in steps {
            match *step {
                Step::Local { thread } => {
                    let mut e = exact_state[thread].clone();
                    exact.advance(thread, &mut e);
                    exact_state[thread] = e;
                    let mut p = plaus_state[thread].clone();
                    plausible.advance(thread, &mut p);
                    plaus_state[thread] = p;
                }
                Step::Receive { thread, from } => {
                    let sender_exact = exact_state[from].clone();
                    let sender_plaus = plaus_state[from].clone();
                    exact_state[thread].join(&sender_exact);
                    let mut e = exact_state[thread].clone();
                    exact.advance(thread, &mut e);
                    exact_state[thread] = e;
                    plaus_state[thread].join(&sender_plaus);
                    let mut p = plaus_state[thread].clone();
                    plausible.advance(thread, &mut p);
                    plaus_state[thread] = p;
                }
            }
            events.push((
                exact_state[match *step {
                    Step::Local { thread } | Step::Receive { thread, .. } => thread,
                }]
                .clone(),
                plaus_state[match *step {
                    Step::Local { thread } | Step::Receive { thread, .. } => thread,
                }]
                .clone(),
            ));
        }
        events
    }

    proptest! {
        /// P1/P2/P3: the plausible clock orders causally related events
        /// correctly, and never *reverses* an order — `ei → ej` implies the
        /// REV comparison is Before (it may not report Concurrent for truly
        /// ordered events generated by join-then-advance chains, because the
        /// shared counters only grow along causal paths).
        #[test]
        fn plausible_never_contradicts_causality(
            steps in steps(5),
            r in 1usize..=5,
        ) {
            let events = run(5, r, &steps);
            for (i, (exact_i, plaus_i)) in events.iter().enumerate() {
                for (exact_j, plaus_j) in events.iter().skip(i + 1) {
                    match exact_i.causal_cmp(exact_j) {
                        ClockOrd::Before => {
                            prop_assert_eq!(
                                plaus_i.causal_cmp(plaus_j), ClockOrd::Before,
                                "causally ordered events must stay ordered"
                            );
                        }
                        ClockOrd::After => {
                            prop_assert_eq!(plaus_i.causal_cmp(plaus_j), ClockOrd::After);
                        }
                        _ => {}
                    }
                }
            }
        }

        /// P4: if the plausible clock says Concurrent, the events really are
        /// concurrent.
        #[test]
        fn plausible_concurrency_is_sound(
            steps in steps(5),
            r in 1usize..=5,
        ) {
            let events = run(5, r, &steps);
            for (i, (exact_i, plaus_i)) in events.iter().enumerate() {
                for (exact_j, plaus_j) in events.iter().skip(i + 1) {
                    if plaus_i.causal_cmp(plaus_j) == ClockOrd::Concurrent {
                        prop_assert_eq!(
                            exact_i.causal_cmp(exact_j), ClockOrd::Concurrent,
                            "plausible Concurrent must imply true concurrency"
                        );
                    }
                }
            }
        }

        /// With r = n the REV clock *is* a vector clock: the verdicts agree
        /// exactly on every pair of events.
        #[test]
        fn full_rev_equals_vector_clock(steps in steps(4)) {
            let events = run(4, 4, &steps);
            for (i, (exact_i, plaus_i)) in events.iter().enumerate() {
                for (exact_j, plaus_j) in events.iter().skip(i + 1) {
                    prop_assert_eq!(
                        exact_i.causal_cmp(exact_j),
                        plaus_i.causal_cmp(plaus_j)
                    );
                }
            }
        }

        /// Join laws: idempotent, commutative, associative, monotone.
        #[test]
        fn join_lattice_laws(
            a in proptest::collection::vec(0u64..50, 4),
            b in proptest::collection::vec(0u64..50, 4),
            c in proptest::collection::vec(0u64..50, 4),
        ) {
            let s = |v: &Vec<u64>| RevStamp { components: v.clone().into_boxed_slice() };
            let (sa, sb, sc) = (s(&a), s(&b), s(&c));

            let mut idem = sa.clone();
            idem.join(&sa);
            prop_assert_eq!(&idem, &sa);

            let mut ab = sa.clone();
            ab.join(&sb);
            let mut ba = sb.clone();
            ba.join(&sa);
            prop_assert_eq!(&ab, &ba);

            let mut ab_c = ab.clone();
            ab_c.join(&sc);
            let mut bc = sb.clone();
            bc.join(&sc);
            let mut a_bc = sa.clone();
            a_bc.join(&bc);
            prop_assert_eq!(&ab_c, &a_bc);

            // a ⊑ a ⊔ b
            let cmp = sa.causal_cmp(&ab);
            prop_assert!(cmp == ClockOrd::Equal || cmp == ClockOrd::Before);
        }

        /// Antisymmetry of the comparison: cmp(a, b) is always the reverse
        /// of cmp(b, a).
        #[test]
        fn cmp_antisymmetry(
            a in proptest::collection::vec(0u64..10, 3),
            b in proptest::collection::vec(0u64..10, 3),
        ) {
            let s = |v: &Vec<u64>| RevStamp { components: v.clone().into_boxed_slice() };
            let (sa, sb) = (s(&a), s(&b));
            prop_assert_eq!(sa.causal_cmp(&sb), sb.causal_cmp(&sa).reverse());
        }
    }
}
