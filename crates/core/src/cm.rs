//! Contention management (the `arbitrate`/`conflict` module of Algorithms
//! 1–3).
//!
//! When two transactions conflict on an object, the STM does not decide who
//! wins — it delegates to a *contention manager* "responsible for the
//! liveness of the system" (Section 4.1). Here that is [`CmPolicy`], a
//! value: [`CmPolicy::resolve`] decides one conflict round with the classic
//! DSTM-lineage rules; the benchmarks compare them under the paper's
//! long/short mix (ablation C in `ARCHITECTURE.md`).

use core::fmt;

use crate::{TxShared, TxStatus};

/// Decision returned by a contention manager for one conflict round.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Resolution {
    /// Kill the opponent and take the object.
    AbortOther,
    /// Abort the calling transaction.
    AbortSelf,
    /// Back off and re-examine the conflict.
    Wait,
}

/// Rounds after which the escalating policies stop waiting.
const PATIENCE: u64 = 16;

/// Contention-management policy: which of two conflicting transactions
/// gives way.
///
/// Every policy guarantees progress: while the opponent stays active,
/// [`CmPolicy::resolve`] returns something other than [`Resolution::Wait`]
/// by round `PATIENCE + other.karma()` (`PATIENCE` is 16; the property
/// test `every_policy_stops_waiting_within_its_bound` checks it).
///
/// # Examples
///
/// ```
/// use zstm_core::CmPolicy;
///
/// assert_eq!(CmPolicy::Karma.name(), "karma");
/// assert_eq!(CmPolicy::default(), CmPolicy::Polite);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum CmPolicy {
    /// Always aborts the opponent. Maximum progress for the attacker,
    /// maximum wasted work for everybody else; the paper's "first committer
    /// wins" degenerates into "last attacker wins" under this policy.
    Aggressive,
    /// Always aborts itself; the dual of `Aggressive`, useful as a worst
    /// case in the contention ablation.
    Suicide,
    /// Backs off for `PATIENCE` rounds, then aborts the opponent. The
    /// default: it resolves transient conflicts without any abort at all
    /// (the opponent usually commits during the wait) and degrades to
    /// `Aggressive` for persistent ones.
    #[default]
    Polite,
    /// Transactions accumulate priority proportional to the work they have
    /// invested (objects opened, carried across retries). The attacker wins
    /// only once its karma plus the rounds it has waited reaches the
    /// victim's karma — so a long transaction that has opened hundreds of
    /// objects is not killed by a two-access transfer.
    Karma,
    /// The older transaction (smaller start sequence) wins. The younger
    /// attacker waits `PATIENCE` rounds and then aborts itself, which makes
    /// the policy livelock-free: the oldest active transaction is never the
    /// one that self-aborts.
    Timestamp,
    /// Like `Timestamp`, but an opponent that is itself blocked waiting
    /// (its `waiting` flag is set) is killed immediately, which bounds the
    /// length of waiting chains.
    Greedy,
}

impl CmPolicy {
    /// All selectable policies (for benchmark sweeps).
    pub const ALL: [CmPolicy; 6] = [
        CmPolicy::Aggressive,
        CmPolicy::Suicide,
        CmPolicy::Polite,
        CmPolicy::Karma,
        CmPolicy::Timestamp,
        CmPolicy::Greedy,
    ];

    /// Decides one conflict round. `me` is the transaction that detected
    /// the conflict (the *attacker*), `other` the current owner (the
    /// *victim*); `round` counts how many times this same conflict has
    /// already been retried, letting policies escalate from waiting to
    /// aborting. An opponent that is no longer active is always waited
    /// for: the caller re-examines the object and no longer conflicts.
    pub fn resolve(self, me: &TxShared, other: &TxShared, round: u64) -> Resolution {
        let elder = || me.start_seq() < other.start_seq();
        match self {
            CmPolicy::Aggressive => Resolution::AbortOther,
            CmPolicy::Suicide => Resolution::AbortSelf,
            _ if other.status() != TxStatus::Active => Resolution::Wait,
            CmPolicy::Polite if round < PATIENCE => Resolution::Wait,
            CmPolicy::Polite => Resolution::AbortOther,
            CmPolicy::Karma if me.karma().saturating_add(round) >= other.karma() => {
                Resolution::AbortOther
            }
            CmPolicy::Karma => Resolution::Wait,
            CmPolicy::Timestamp if elder() => Resolution::AbortOther,
            CmPolicy::Greedy if elder() || other.is_waiting() => Resolution::AbortOther,
            CmPolicy::Timestamp | CmPolicy::Greedy if round < PATIENCE => Resolution::Wait,
            CmPolicy::Timestamp | CmPolicy::Greedy => Resolution::AbortSelf,
        }
    }

    /// Policy name used in benchmark reports.
    pub fn name(self) -> &'static str {
        match self {
            CmPolicy::Aggressive => "aggressive",
            CmPolicy::Suicide => "suicide",
            CmPolicy::Polite => "polite",
            CmPolicy::Karma => "karma",
            CmPolicy::Timestamp => "timestamp",
            CmPolicy::Greedy => "greedy",
        }
    }
}

impl fmt::Display for CmPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ThreadId, TxKind};
    use proptest::prelude::*;

    fn pair() -> (TxShared, TxShared) {
        let older = TxShared::start(ThreadId::new(0), TxKind::Short, 0);
        let younger = TxShared::start(ThreadId::new(1), TxKind::Short, 0);
        (older, younger)
    }

    #[test]
    fn aggressive_always_aborts_other() {
        let (a, b) = pair();
        let cm = CmPolicy::Aggressive;
        assert_eq!(cm.resolve(&a, &b, 0), Resolution::AbortOther);
        assert_eq!(cm.resolve(&b, &a, 99), Resolution::AbortOther);
    }

    #[test]
    fn suicide_always_aborts_self() {
        let (a, b) = pair();
        assert_eq!(CmPolicy::Suicide.resolve(&a, &b, 0), Resolution::AbortSelf);
    }

    #[test]
    fn polite_waits_then_escalates() {
        let (a, b) = pair();
        let cm = CmPolicy::Polite;
        assert_eq!(cm.resolve(&a, &b, 0), Resolution::Wait);
        assert_eq!(cm.resolve(&a, &b, PATIENCE - 1), Resolution::Wait);
        assert_eq!(cm.resolve(&a, &b, PATIENCE), Resolution::AbortOther);
    }

    #[test]
    fn polite_defers_to_finished_opponents() {
        let (a, b) = pair();
        b.abort();
        assert_eq!(CmPolicy::Polite.resolve(&a, &b, 100), Resolution::Wait);
    }

    #[test]
    fn karma_respects_invested_work() {
        let (a, b) = pair();
        let cm = CmPolicy::Karma;
        b.add_karma(10);
        // Attacker with no karma waits for a rich victim...
        assert_eq!(cm.resolve(&a, &b, 0), Resolution::Wait);
        // ...but eventually out-waits it...
        assert_eq!(cm.resolve(&a, &b, 10), Resolution::AbortOther);
        // ...and a rich attacker wins immediately.
        a.add_karma(20);
        assert_eq!(cm.resolve(&a, &b, 0), Resolution::AbortOther);
    }

    #[test]
    fn timestamp_lets_elders_win() {
        let (older, younger) = pair();
        let cm = CmPolicy::Timestamp;
        assert_eq!(cm.resolve(&older, &younger, 0), Resolution::AbortOther);
        assert_eq!(cm.resolve(&younger, &older, 0), Resolution::Wait);
        assert_eq!(
            cm.resolve(&younger, &older, PATIENCE),
            Resolution::AbortSelf
        );
    }

    #[test]
    fn greedy_kills_waiting_opponents() {
        let (older, younger) = pair();
        older.set_waiting(true);
        assert_eq!(
            CmPolicy::Greedy.resolve(&younger, &older, 0),
            Resolution::AbortOther,
            "a waiting opponent is killable regardless of age"
        );
    }

    proptest! {
        /// The progress bound `CertifiedTx`'s deadlock-freedom argument
        /// rests on: against an opponent that stays active, no policy
        /// waits past round `PATIENCE + other.karma()`, whatever the
        /// karma on either side, the start order or the `waiting` flag.
        #[test]
        fn every_policy_stops_waiting_within_its_bound(
            // Small karma: the bound's tight edge (karma 0, round
            // `PATIENCE`) is drawn often enough to catch an off-by-one.
            my_karma in 0u64..32,
            other_karma in 0u64..32,
            i_am_older in any::<bool>(),
            other_waiting in any::<bool>(),
        ) {
            let (older, younger) = pair();
            let (me, other) = if i_am_older { (older, younger) } else { (younger, older) };
            me.add_karma(my_karma);
            other.add_karma(other_karma);
            other.set_waiting(other_waiting);
            let bound = PATIENCE + other.karma();
            for policy in CmPolicy::ALL {
                let resolved =
                    (0..=bound).any(|round| policy.resolve(&me, &other, round) != Resolution::Wait);
                prop_assert!(resolved, "{policy} still waits at round {bound}");
            }
        }
    }

    #[test]
    fn every_policy_has_its_own_name() {
        let names: std::collections::HashSet<_> = CmPolicy::ALL
            .iter()
            .map(|policy| policy.to_string())
            .collect();
        assert_eq!(names.len(), CmPolicy::ALL.len());
    }
}
