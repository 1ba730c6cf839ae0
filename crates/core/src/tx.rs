use core::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};

use crate::{Abort, AbortReason, EventSink, ThreadId, TxEvent, TxEventKind, TxId, TxKind};

/// Lifecycle state of a transaction descriptor.
///
/// The `Committing` state implements the paper's note (Section 4.2) that an
/// "additional state indicates when transactions are committing": once a
/// transaction has entered `Committing` it can no longer be killed by a
/// contention manager, which gives commits a point of no return without
/// locks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TxStatus {
    /// Executing its body; may be killed by an opponent.
    Active,
    /// Executing its commit protocol; no longer killable.
    Committing,
    /// Irrevocably committed; its tentative versions are the current ones.
    Committed,
    /// Irrevocably aborted; its tentative versions are garbage.
    Aborted,
}

const ACTIVE: u8 = 0;
const COMMITTING: u8 = 1;
const COMMITTED: u8 = 2;
const ABORTED: u8 = 3;

fn decode(status: u8) -> TxStatus {
    match status {
        ACTIVE => TxStatus::Active,
        COMMITTING => TxStatus::Committing,
        COMMITTED => TxStatus::Committed,
        ABORTED => TxStatus::Aborted,
        _ => unreachable!("invalid status byte"),
    }
}

/// Shared, atomically updated descriptor of one transaction attempt.
///
/// This is the DSTM-style transaction record that object locators point to:
/// the flip of [`TxShared::status`] to `Committed` is the commit point of
/// every STM in this workspace (cf. Algorithm 2 line 25, "atomically flips
/// its status"). Contention managers inspect descriptors of both
/// parties of a conflict and kill the loser through [`TxShared::try_kill`].
///
/// # Examples
///
/// ```
/// use zstm_core::{ThreadId, TxKind, TxShared, TxStatus};
///
/// let tx = TxShared::start(ThreadId::new(0), TxKind::Short, 0);
/// assert_eq!(tx.status(), TxStatus::Active);
/// assert!(tx.begin_commit());
/// assert!(!tx.try_kill()); // too late: already committing
/// tx.finish_commit();
/// assert_eq!(tx.status(), TxStatus::Committed);
/// ```
pub struct TxShared {
    id: TxId,
    thread: ThreadId,
    kind: TxKind,
    status: AtomicU8,
    /// Accumulated priority for the Karma policy (roughly: objects opened).
    karma: AtomicU64,
    /// Set while the transaction is blocked waiting on an opponent; the
    /// Greedy policy aborts waiting opponents.
    waiting: AtomicBool,
    /// Commit time stamped onto versions this transaction installs; set
    /// during the commit protocol, before the status flip.
    commit_ct: AtomicU64,
}

impl TxShared {
    /// Creates a descriptor in the `Active` state. `karma` carries over
    /// priority accumulated by earlier aborted attempts of the same atomic
    /// block (the Karma policy's defining feature).
    pub fn start(thread: ThreadId, kind: TxKind, karma: u64) -> Self {
        Self {
            id: TxId::fresh(),
            thread,
            kind,
            status: AtomicU8::new(ACTIVE),
            karma: AtomicU64::new(karma),
            waiting: AtomicBool::new(false),
            commit_ct: AtomicU64::new(0),
        }
    }

    /// The commit time this transaction stamps onto the versions it
    /// installs. Only meaningful once the transaction reached `Committing`
    /// or `Committed`.
    pub fn commit_ct(&self) -> u64 {
        self.commit_ct.load(Ordering::Acquire)
    }

    /// Records the commit time; must be called before the status flip that
    /// publishes the transaction's updates.
    pub fn set_commit_ct(&self, ct: u64) {
        self.commit_ct.store(ct, Ordering::Release);
    }

    /// Reports `event` for this transaction to `sink`, if it is recording.
    #[inline]
    pub fn record(&self, sink: &dyn EventSink, event: TxEventKind) {
        if sink.enabled() {
            sink.record(TxEvent::new(self.id, self.thread, self.kind, event));
        }
    }

    /// This attempt's unique id.
    pub fn id(&self) -> TxId {
        self.id
    }

    /// Logical thread executing the transaction.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// Short/long classification.
    pub fn kind(&self) -> TxKind {
        self.kind
    }

    /// Global start sequence number (smaller = older), used by
    /// timestamp-based contention managers ("older transaction wins").
    /// It is the attempt's id: ids are drawn from one process-wide
    /// monotone counter at start, so a second counter would only repeat
    /// the order at the price of another shared cache line per `begin`.
    pub fn start_seq(&self) -> u64 {
        self.id.as_u64()
    }

    /// Current lifecycle state.
    pub fn status(&self) -> TxStatus {
        decode(self.status.load(Ordering::Acquire))
    }

    /// Returns `true` if the descriptor is still `Active`.
    pub fn is_active(&self) -> bool {
        self.status() == TxStatus::Active
    }

    /// `Ok` while the transaction may keep running; once it was killed
    /// (or otherwise left `Active`) the abort to return from the access
    /// that noticed.
    #[inline]
    pub fn check_alive(&self) -> Result<(), Abort> {
        if self.is_active() {
            Ok(())
        } else {
            Err(Abort::new(AbortReason::Killed))
        }
    }

    /// Returns `true` once the descriptor reached `Committed`.
    pub fn is_committed(&self) -> bool {
        self.status() == TxStatus::Committed
    }

    /// Attempts to kill an active transaction (CAS `Active → Aborted`).
    /// Returns `true` if this call performed the kill. Transactions that
    /// already entered `Committing` cannot be killed.
    pub fn try_kill(&self) -> bool {
        self.status
            .compare_exchange(ACTIVE, ABORTED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Enters the commit protocol (CAS `Active → Committing`). Returns
    /// `false` if the transaction was killed first.
    pub fn begin_commit(&self) -> bool {
        self.status
            .compare_exchange(ACTIVE, COMMITTING, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Completes the commit protocol (`Committing → Committed`). This store
    /// is the linearization point at which tentative versions become
    /// current.
    ///
    /// A load and a `Release` store, not a locked swap: nobody but the
    /// owner moves a descriptor out of `Committing`. An opponent only ever
    /// kills ([`TxShared::try_kill`]), which starts from `Active`, as does
    /// [`TxShared::begin_commit`]; and every [`TxShared::abort`] and
    /// [`TxShared::doom`] is the owner's own. So the status the owner loads
    /// here is still the one it stores over.
    ///
    /// # Panics
    ///
    /// Panics if the descriptor is not in the `Committing` state.
    pub fn finish_commit(&self) {
        let previous = self.status.load(Ordering::Relaxed);
        assert_eq!(
            previous, COMMITTING,
            "finish_commit outside commit protocol"
        );
        self.status.store(COMMITTED, Ordering::Release);
    }

    /// The commit of a transaction that never reserved anything — a
    /// read-only one — whose entire commit is the status flip
    /// (`Active → Committed`). Returns `false`, and leaves the status, if
    /// the descriptor is no longer `Active` (its owner doomed it).
    ///
    /// A load and a `Release` store, not a compare-and-swap, by the
    /// argument of [`TxShared::finish_commit`]: only a reservation's
    /// holder is ever killed — [`TxShared::try_kill`]'s one caller is the
    /// arbitration of a versioned cell against the writer it found there —
    /// so a descriptor that never reserved is visible to no killer, and
    /// every [`TxShared::doom`] and [`TxShared::abort`] of it is its
    /// owner's. The status the owner loads here is still the one it stores
    /// over.
    pub fn commit_unreserved(&self) -> bool {
        if self.status.load(Ordering::Relaxed) != ACTIVE {
            return false;
        }
        self.status.store(COMMITTED, Ordering::Release);
        true
    }

    /// Marks the transaction aborted regardless of current state, unless it
    /// already committed. Returns the resulting status. Only the owner
    /// calls it (see [`TxShared::finish_commit`]).
    pub fn abort(&self) -> TxStatus {
        let mut current = self.status.load(Ordering::Acquire);
        loop {
            if current == COMMITTED || current == ABORTED {
                return decode(current);
            }
            match self.status.compare_exchange_weak(
                current,
                ABORTED,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return TxStatus::Aborted,
                Err(seen) => current = seen,
            }
        }
    }

    /// Dooms the transaction from inside an access: the descriptor is
    /// aborted at once (opponents stop waiting for it) and the returned
    /// abort goes to the caller, whose rollback — or drop — finishes the job.
    pub fn doom(&self, reason: AbortReason) -> Abort {
        self.abort();
        Abort::new(reason)
    }

    /// Current Karma priority.
    pub fn karma(&self) -> u64 {
        self.karma.load(Ordering::Relaxed)
    }

    /// Accrues Karma priority (called on each object open). Single
    /// writer: only the thread running the transaction adds (other threads
    /// read [`TxShared::karma`]), so this is a plain load and store, not a
    /// locked read-modify-write; the value publishes nothing else.
    pub fn add_karma(&self, amount: u64) {
        let karma = self.karma.load(Ordering::Relaxed);
        self.karma
            .store(karma.wrapping_add(amount), Ordering::Relaxed);
    }

    /// Whether the transaction is currently blocked on an opponent.
    pub fn is_waiting(&self) -> bool {
        self.waiting.load(Ordering::Acquire)
    }

    /// Sets or clears the waiting flag (used by the Greedy policy).
    pub fn set_waiting(&self, waiting: bool) {
        self.waiting.store(waiting, Ordering::Release);
    }
}

impl fmt::Debug for TxShared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxShared")
            .field("id", &self.id)
            .field("thread", &self.thread)
            .field("kind", &self.kind)
            .field("status", &self.status())
            .field("karma", &self.karma())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fresh_descriptor_is_active() {
        let tx = TxShared::start(ThreadId::new(1), TxKind::Long, 5);
        assert_eq!(tx.status(), TxStatus::Active);
        assert!(tx.is_active());
        assert_eq!(tx.kind(), TxKind::Long);
        assert_eq!(tx.thread(), ThreadId::new(1));
        assert_eq!(tx.karma(), 5);
    }

    #[test]
    fn kill_only_works_while_active() {
        let tx = TxShared::start(ThreadId::new(0), TxKind::Short, 0);
        assert!(tx.try_kill());
        assert_eq!(tx.status(), TxStatus::Aborted);
        assert!(!tx.try_kill());
    }

    #[test]
    fn committing_shields_from_kill() {
        let tx = TxShared::start(ThreadId::new(0), TxKind::Short, 0);
        assert!(tx.begin_commit());
        assert!(!tx.try_kill());
        tx.finish_commit();
        assert!(tx.is_committed());
    }

    #[test]
    fn direct_commit_path() {
        let tx = TxShared::start(ThreadId::new(0), TxKind::Long, 0);
        assert!(tx.commit_unreserved());
        assert!(tx.is_committed());
        assert!(!tx.commit_unreserved());
    }

    #[test]
    fn abort_is_idempotent_and_respects_committed() {
        let tx = TxShared::start(ThreadId::new(0), TxKind::Short, 0);
        assert_eq!(tx.abort(), TxStatus::Aborted);
        assert_eq!(tx.abort(), TxStatus::Aborted);

        let done = TxShared::start(ThreadId::new(0), TxKind::Short, 0);
        assert!(done.commit_unreserved());
        assert_eq!(done.abort(), TxStatus::Committed);
    }

    #[test]
    fn start_seq_is_monotonic() {
        let a = TxShared::start(ThreadId::new(0), TxKind::Short, 0);
        let b = TxShared::start(ThreadId::new(0), TxKind::Short, 0);
        assert!(a.start_seq() < b.start_seq());
    }

    #[test]
    fn karma_accrues() {
        let tx = TxShared::start(ThreadId::new(0), TxKind::Short, 2);
        tx.add_karma(3);
        assert_eq!(tx.karma(), 5);
    }

    /// The contract of the store: an unreserved commit commits an `Active`
    /// descriptor, and leaves one its owner doomed (or already ended) as
    /// it is — it never resurrects an abort nor commits twice.
    #[test]
    fn an_unreserved_commit_only_flips_an_active_descriptor() {
        let doomed = TxShared::start(ThreadId::new(0), TxKind::Short, 0);
        let _ = doomed.doom(AbortReason::ReadValidation);
        assert!(!doomed.commit_unreserved());
        assert_eq!(doomed.status(), TxStatus::Aborted);

        let committing = TxShared::start(ThreadId::new(0), TxKind::Short, 0);
        assert!(committing.begin_commit());
        assert!(!committing.commit_unreserved());
        assert_eq!(committing.status(), TxStatus::Committing);

        // Published with `Release`: a thread that sees `Committed` sees
        // what the owner did before its commit.
        let tx = Arc::new(TxShared::start(ThreadId::new(0), TxKind::Short, 0));
        tx.set_commit_ct(7);
        let watcher = {
            let tx = Arc::clone(&tx);
            std::thread::spawn(move || {
                while !tx.is_committed() {
                    std::hint::spin_loop();
                }
                tx.commit_ct()
            })
        };
        assert!(tx.commit_unreserved());
        assert_eq!(watcher.join().expect("watcher panicked"), 7);
        assert!(!tx.try_kill(), "a committed descriptor cannot be killed");
    }
}
