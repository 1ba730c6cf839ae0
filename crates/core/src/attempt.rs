//! The transaction shell every engine shares: who the thread is, what it
//! has counted, and the three transitions of one attempt.
//!
//! A [`ThreadCtx`] lives in each engine's thread context between
//! transactions; [`Attempt::start`] borrows it for one attempt and the
//! attempt ends in exactly one of [`Attempt::committed`] and
//! [`Attempt::aborted`] — the latter from its `Drop` if nothing else ran,
//! so an attempt dropped raw (a panic unwinding through the body) cannot
//! stay `Active` and starve "older wins" contention managers. An engine's
//! transaction type wraps an `Attempt` and adds what its algorithm needs
//! (snapshot time, vector stamp, zone); one that holds reservations
//! releases them in its own `Drop` first ([`Attempt::release_all`]). The
//! attempt's read and write sets are the thread's too: a [`TxSets`] beside
//! the `ThreadCtx`, filled by the attempt and given back empty when it ends
//! ([`TxSets::give_back`]).
//!
//! An attempt also pins its OS thread ([`zstm_util::pin`]) for as long as it
//! lives: every lock-free read of a published version takes that pin
//! ([`Attempt::pin`]) instead of claiming anything per read, and the
//! attempt's drop — right after its terminal transition in every engine, or
//! while a panic unwinds — unpins. The pin is a zero-sized field: an
//! `Option` of it, which could unpin at the transition itself, made
//! `Attempt` a byte longer than two words and a single-read transaction
//! ~18 % slower, all of it in `begin`.
//!
//! # The record's lifetime
//!
//! So is the attempt's record, the `Arc` that reservations, S-STM's reader
//! slots and its precedence graph hold to look at the attempt's status. The
//! engine's thread keeps the record of its last attempt in a [`LastRecord`]
//! slot, and [`Attempt::start`] writes the next attempt's record (fresh
//! [`TxId`](crate::TxId), `Active`, the carried karma) into that allocation
//! when [`Arc::get_mut`] says the thread is its only holder. Anyone else
//! who still holds it — a reservation nobody has settled yet, a reader slot
//! no writer has drained, a graph node not yet pruned, an opponent pinning
//! it in a long open — keeps the old record as it was, and the new attempt
//! gets a fresh allocation. So a record someone else can see is never
//! rewritten; it stays what it was when its attempt ended, terminal status
//! included. Whoever compares records by pointer holds one of the two, so a
//! reused allocation is never taken for the attempt that used it before.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use zstm_util::{pin, Held, Pin};

use crate::cell::TxRecord;
use crate::{
    Abort, AbortReason, EventSink, StmConfig, ThreadId, TxEventKind, TxKind, TxShared, TxStats,
};

/// What one logical thread keeps across its transactions.
pub struct ThreadCtx {
    id: ThreadId,
    /// Statistics accumulated so far (layers above the engine count their
    /// parks here).
    pub stats: TxStats,
    /// Karma carried over from aborted attempts of the current block (the
    /// Karma policy's defining feature); zero after a commit.
    pending_karma: u64,
    sink: Arc<dyn EventSink>,
    /// [`EventSink::enabled`] of `sink`, asked once: every access tests
    /// this flag instead of calling through the `dyn`.
    recording: bool,
    /// Whether the running [`Attempt`] still owes its terminal transition.
    open: bool,
}

impl ThreadCtx {
    /// Claims the next thread slot of an STM built from `config`, whose
    /// slots handed out so far are counted in `registered`.
    ///
    /// # Panics
    ///
    /// Panics when more threads register than `config` allows.
    pub fn claim(registered: &AtomicUsize, config: &StmConfig) -> Self {
        let slot = registered.fetch_add(1, Ordering::Relaxed);
        assert!(
            slot < config.threads(),
            "more threads registered than configured ({})",
            config.threads()
        );
        Self {
            id: ThreadId::new(slot),
            stats: TxStats::new(),
            pending_karma: 0,
            sink: Arc::clone(config.sink()),
            recording: config.sink().enabled(),
            open: false,
        }
    }

    /// This context's logical thread id.
    pub fn id(&self) -> ThreadId {
        self.id
    }
}

/// Entries a read or write set keeps allocated between transactions. One
/// long transaction may grow a set to the size of the heap it scanned;
/// what it grew beyond this is given back when it ends instead of
/// following the thread around.
pub const RETAINED_SET_CAPACITY: usize = 1024;

/// The buffers of an attempt's read set (entries `R`) and write set
/// (entries `W`). They live in the engine's thread context so that the
/// transaction handle stays small and the buffers outlast the transaction:
/// an attempt fills them and its handle's `Drop` calls
/// [`TxSets::give_back`], so between transactions they hold capacity and no
/// entry.
///
/// An entry names its variable by a [`Held`]: a pointer made under the
/// attempt's pin that takes no count, so pushing an entry and giving it
/// back are plain stores (a counted handle would cost a locked increment
/// and a locked decrement per entry). The variable outlives its last
/// handle for as long as the attempt stays pinned (`zstm_util`'s `arc_cell`
/// module docs, *A variable outlives the attempts that saw it*), and a
/// `Held` looked at after its attempt ended panics.
pub struct TxSets<R, W> {
    /// The read set.
    pub reads: Vec<R>,
    /// The write set.
    pub writes: Vec<W>,
}

impl<R, W> Default for TxSets<R, W> {
    fn default() -> Self {
        Self {
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }
}

impl<R, W> TxSets<R, W> {
    /// Entries held and capacity retained, each as `(reads, writes)`; no
    /// entries between transactions.
    pub fn usage(&self) -> [(usize, usize); 2] {
        let Self { reads, writes } = self;
        [
            (reads.len(), writes.len()),
            (reads.capacity(), writes.capacity()),
        ]
    }

    /// Ends an attempt's use of the sets, however it ended: every entry
    /// dropped — before the attempt unpins — and capacity kept up to
    /// [`RETAINED_SET_CAPACITY`].
    #[inline]
    pub fn give_back(&mut self) {
        self.reads.clear();
        self.reads.shrink_to(RETAINED_SET_CAPACITY);
        self.writes.clear();
        self.writes.shrink_to(RETAINED_SET_CAPACITY);
    }
}

/// What a write set of reservations holds — a
/// [`VersionedCell`](crate::cell::VersionedCell), or an engine's object
/// around one, [`Held`] as a `dyn WriteEntry`: what abort and commit do to
/// every object the transaction reserved.
pub trait WriteEntry<R>: Send + Sync {
    /// Drops `me`'s reservation (on abort).
    fn release(&self, me: &Arc<R>);
    /// Promotes `me`'s reservation to the newest version if `me` committed.
    fn promote(&self, me: &Arc<R>);
}

/// Where an engine's thread keeps the record of its last attempt, for
/// [`Attempt::start`] to reuse (module docs). `None` before the first.
pub type LastRecord<R = TxShared> = Option<Arc<R>>;

/// One transaction attempt: the borrowed [`ThreadCtx`], the shared
/// descriptor, borrowed from the thread's [`LastRecord`], and the thread's
/// pin, which takes no space — two words, because a transaction handle is
/// created, moved and dropped once per transaction. Dropped while a
/// terminal transition is still owed, it aborts. Not `Send`: the pin is its
/// OS thread's.
pub struct Attempt<'a, R: TxRecord = TxShared> {
    ctx: &'a mut ThreadCtx,
    rec: &'a Arc<R>,
    pin: Pin,
}

impl<R: TxRecord> Drop for Attempt<'_, R> {
    #[inline]
    fn drop(&mut self) {
        if self.ctx.open {
            self.aborted(AbortReason::Explicit);
        }
    }
}

impl<'a, R: TxRecord> Attempt<'a, R> {
    /// Starts an attempt: pins the thread, takes the carried karma, creates
    /// the descriptor (`wrap` turns it into the engine's record) in the
    /// allocation of the thread's `last` record if nobody else holds that
    /// one (module docs), and reports `Begin` — before the caller takes its
    /// snapshot, as the event contract asks.
    #[inline(always)]
    pub fn start(
        ctx: &'a mut ThreadCtx,
        last: &'a mut LastRecord<R>,
        kind: TxKind,
        wrap: impl FnOnce(TxShared) -> R,
    ) -> Self {
        let karma = std::mem::take(&mut ctx.pending_karma);
        let next = wrap(TxShared::start(ctx.id, kind, karma));
        let rec = match last {
            Some(rec) => {
                match Arc::get_mut(rec) {
                    Some(mine) => *mine = next,
                    None => *rec = Arc::new(next),
                }
                rec
            }
            None => last.insert(Arc::new(next)),
        };
        ctx.open = true;
        let attempt = Self {
            ctx,
            rec,
            pin: pin(),
        };
        attempt.record(TxEventKind::Begin);
        attempt
    }

    /// The thread's pin, for the lock-free reads of the attempt.
    #[inline]
    pub fn pin(&self) -> &Pin {
        &self.pin
    }

    /// The engine's transaction record, as reservations hold it.
    #[inline]
    pub fn rec(&self) -> &Arc<R> {
        self.rec
    }

    /// The plain descriptor.
    #[inline]
    pub fn tx(&self) -> &TxShared {
        self.rec.tx()
    }

    /// The thread's slot in per-thread structures (clock shards).
    #[inline]
    pub fn slot(&self) -> usize {
        self.ctx.id.slot()
    }

    /// The thread's statistics, for an engine that counts its accesses
    /// itself (TL2, which has no karma to accrue in [`Attempt::on_read`]).
    #[inline]
    pub fn stats_mut(&mut self) -> &mut TxStats {
        &mut self.ctx.stats
    }

    /// `true` until [`Attempt::committed`] or [`Attempt::aborted`] ran.
    #[inline]
    pub fn is_open(&self) -> bool {
        self.ctx.open
    }

    /// Reports `event` for this attempt to the configured sink.
    #[inline]
    pub fn record(&self, event: TxEventKind) {
        if self.ctx.recording {
            self.tx().record(&*self.ctx.sink, event);
        }
    }

    /// Prologue of every read: fails if the attempt was killed, counts
    /// the read and accrues karma.
    #[inline]
    pub fn on_read(&mut self) -> Result<(), Abort> {
        self.tx().check_alive()?;
        self.ctx.stats.record_read();
        self.tx().add_karma(1);
        Ok(())
    }

    /// Prologue of every write (see [`Attempt::on_read`]).
    #[inline]
    pub fn on_write(&mut self) -> Result<(), Abort> {
        self.tx().check_alive()?;
        self.ctx.stats.record_write();
        self.tx().add_karma(1);
        Ok(())
    }

    /// First half of a rollback, for engines that reserve: aborts the
    /// descriptor and drops every reservation in `writes`.
    pub fn release_all<W: WriteEntry<R> + ?Sized>(&self, writes: &[Held<W>]) {
        self.tx().abort();
        for obj in writes {
            obj.release(self.rec);
        }
    }

    /// Terminal transition: the attempt aborted for `reason`. Carries its
    /// karma to the next attempt, counts the abort and reports it.
    pub fn aborted(&mut self, reason: AbortReason) -> Abort {
        self.tx().abort();
        self.ctx.open = false;
        self.ctx.pending_karma = self.tx().karma();
        self.ctx.stats.record_abort(self.tx().kind(), reason);
        self.record(TxEventKind::Abort { reason });
        Abort::new(reason)
    }

    /// Terminal transition of an update transaction in `Committing`: the
    /// status flip that publishes `writes`, their eager promotion (so
    /// readers rarely have to), then [`Attempt::committed`].
    #[inline]
    pub fn publish<W: WriteEntry<R> + ?Sized>(&mut self, writes: &[Held<W>], zone: Option<u64>) {
        self.tx().finish_commit();
        for obj in writes {
            obj.promote(self.rec);
        }
        self.committed(zone);
    }

    /// Terminal transition: the descriptor reached `Committed` (in `zone`,
    /// for Z-STM). Counts it and reports `Commit` — after the commit
    /// point, as the event contract asks.
    #[inline]
    pub fn committed(&mut self, zone: Option<u64>) {
        debug_assert!(self.tx().is_committed());
        self.ctx.open = false;
        self.ctx.pending_karma = 0;
        self.ctx.stats.record_commit(self.tx().kind());
        self.record(TxEventKind::Commit { zone });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TxStatus;

    /// Starts an attempt on `ctx` and `last` and commits it read-only.
    fn commit(ctx: &mut ThreadCtx, last: &mut LastRecord) {
        let mut attempt = Attempt::start(ctx, last, TxKind::Short, |tx| tx);
        assert!(attempt.tx().commit_unreserved());
        attempt.committed(None);
    }

    #[test]
    fn the_next_attempt_reuses_the_record_only_when_nobody_else_holds_it() {
        let mut ctx = ThreadCtx::claim(&AtomicUsize::new(0), &StmConfig::new(1));
        let mut last = None;
        commit(&mut ctx, &mut last);
        let (first, first_id) = last
            .as_ref()
            .map(|rec| (Arc::as_ptr(rec), rec.id()))
            .expect("a record");

        // Nobody else holds it: rewritten in place, as a new attempt.
        let held = {
            let mut attempt = Attempt::start(&mut ctx, &mut last, TxKind::Short, |tx| tx);
            assert_eq!(Arc::as_ptr(attempt.rec()), first, "the same allocation");
            assert_ne!(attempt.tx().id(), first_id, "a fresh id");
            assert_eq!(attempt.tx().status(), TxStatus::Active);
            attempt.on_read().expect("alive");
            assert!(attempt.tx().commit_unreserved());
            attempt.committed(None);
            Arc::clone(attempt.rec())
        };
        let held_id = held.id();

        // A clone is alive: the next attempt gets another record, and the
        // clone still shows the attempt it belonged to.
        let aborted = {
            let mut attempt = Attempt::start(&mut ctx, &mut last, TxKind::Long, |tx| tx);
            assert_ne!(Arc::as_ptr(attempt.rec()), first);
            assert_ne!(attempt.tx().id(), held_id, "a fresh id");
            attempt.on_read().expect("alive");
            attempt.aborted(AbortReason::Explicit);
            Arc::as_ptr(attempt.rec())
        };
        assert_eq!((held.id(), held.status()), (held_id, TxStatus::Committed));
        assert_eq!((held.kind(), held.karma()), (TxKind::Short, 1));

        // The aborted attempt's record is reused, and its karma carried.
        {
            let attempt = Attempt::start(&mut ctx, &mut last, TxKind::Short, |tx| tx);
            assert_eq!(Arc::as_ptr(attempt.rec()), aborted);
            assert_eq!(attempt.tx().karma(), 1, "carried over the abort");
        }
        assert_eq!(held.status(), TxStatus::Committed, "never rewritten");
    }

    #[test]
    fn an_attempt_that_unwinds_unpins() {
        let mut ctx = ThreadCtx::claim(&AtomicUsize::new(0), &StmConfig::new(1));
        let mut last = None;
        assert_eq!(zstm_util::pin_depth(), 0);
        {
            let mut attempt = Attempt::start(&mut ctx, &mut last, TxKind::Short, |tx| tx);
            assert_eq!(zstm_util::pin_depth(), 1, "pinned from the start");
            assert!(attempt.tx().commit_unreserved());
            attempt.committed(None);
        }
        assert_eq!(zstm_util::pin_depth(), 0, "unpinned with the attempt");
        // A pin an unwind leaked would keep the thread pinned, and every
        // writer's retirements in the process would wait for it.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let attempt = Attempt::start(&mut ctx, &mut last, TxKind::Short, |tx| tx);
            // (`resume_unwind` skips the panic hook.)
            std::panic::resume_unwind(Box::new(attempt.tx().id()))
        }));
        assert!(unwound.is_err());
        assert_eq!(zstm_util::pin_depth(), 0, "the unwinding drop unpinned");
        assert_eq!(
            last.as_ref().map(|rec| rec.status()),
            Some(TxStatus::Aborted),
            "and aborted"
        );
    }
}
