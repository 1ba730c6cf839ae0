//! [`TQueue`] and [`TDeque`]: bounded transactional rings with
//! composable `retry`-based blocking.
//!
//! Both are one ring, the workspace's only transactional one: two `i64`
//! cursor variables plus one bytes variable per slot.
//! A blocking [`TQueue::pop`] on an empty ring (or [`TQueue::push`] on a
//! full one) returns `Err(tx.retry())`, which the `zstm-api` layer turns
//! into a *parked* wait on the commit notifier — no spinning — and
//! because it is just an abort reason, blocking operations **compose**:
//! a transaction may pop one queue and push another, and it parks until
//! *both* sides can proceed atomically.
//!
//! # Conflict footprint
//!
//! Cursors are deliberately separate variables: a push writes `tail` and
//! one slot, a pop writes `head` and reads one slot, so on a non-empty,
//! non-full ring a push and a pop touch disjoint write sets. (They still
//! *read* both cursors to evaluate the empty/full guard — a single-cell
//! `VecDeque`-in-a-var queue, by contrast, makes push and pop write the
//! same variable and conflict always.)

use std::marker::PhantomData;
use std::sync::Arc;

use zstm_api::{DynStm, DynTx, DynVar};
use zstm_core::Abort;

use crate::codec::{with_scratch, Codec};

/// Shared ring storage for [`TQueue`] and [`TDeque`].
///
/// `head` and `tail` are monotone cursors (pop/front index and push/back
/// index); the deque moves `head` down too, so slot indices are taken
/// `rem_euclid` capacity. `tail - head` is the live length, kept within
/// `0..=capacity` by the guards.
#[derive(Clone)]
struct Ring {
    head: DynVar,
    tail: DynVar,
    slots: Vec<DynVar>,
}

impl Ring {
    fn new(stm: &dyn DynStm, capacity: usize) -> Self {
        assert!(capacity > 0, "transactional rings need capacity >= 1");
        Self {
            head: stm.new_i64(0),
            tail: stm.new_i64(0),
            slots: (0..capacity).map(|_| stm.new_bytes(Vec::new())).collect(),
        }
    }

    fn slot(&self, index: i64) -> &DynVar {
        let capacity = self.slots.len() as i64;
        &self.slots[index.rem_euclid(capacity) as usize]
    }

    /// Encodes `value` into the slot `index` maps to: through the
    /// thread's scratch buffer, so the only allocation is the payload.
    fn store<T: Codec>(&self, tx: &mut dyn DynTx, index: i64, value: &T) -> Result<(), Abort> {
        with_scratch(|bytes| {
            value.encode(bytes);
            tx.write_shared(self.slot(index), Arc::from(&bytes[..]))
        })
    }

    /// Decodes the value in the slot `index` maps to, straight from the
    /// lent payload.
    fn load<T: Codec>(&self, tx: &mut dyn DynTx, index: i64) -> Result<T, Abort> {
        tx.map_bytes(self.slot(index), |bytes| {
            T::decode(bytes).expect("corrupt ring slot")
        })
    }

    fn len(&self, tx: &mut dyn DynTx) -> Result<usize, Abort> {
        let head = tx.read_i64(&self.head)?;
        let tail = tx.read_i64(&self.tail)?;
        Ok((tail - head) as usize)
    }
}

/// A bounded FIFO channel with blocking transactional push/pop.
///
/// ```
/// use std::sync::Arc;
/// use zstm_api::{DynStm, Stm};
/// use zstm_collections::TQueue;
/// use zstm_core::{RetryPolicy, StmConfig, TxKind};
/// use zstm_lsa::LsaStm;
///
/// let stm: Arc<dyn DynStm> = Arc::new(Stm::new(LsaStm::new(StmConfig::new(2))));
/// let queue: TQueue<u64> = TQueue::new(&*stm, 4);
/// let policy = RetryPolicy::unbounded();
/// stm.atomically(TxKind::Short, &policy, |tx| queue.push(tx, &7)).unwrap();
///
/// // pop blocks while empty — here the ring holds an item, so it returns
/// // immediately; on an empty ring the transaction parks until a push
/// // commits (see the workspace interleaving tests).
/// let v = stm
///     .atomically(TxKind::Short, &policy, |tx| queue.pop(tx))
///     .unwrap();
/// assert_eq!(v, 7);
/// ```
pub struct TQueue<T: Codec> {
    ring: Ring,
    _type: PhantomData<fn(T) -> T>,
}

impl<T: Codec> Clone for TQueue<T> {
    fn clone(&self) -> Self {
        Self {
            ring: self.ring.clone(),
            _type: PhantomData,
        }
    }
}

impl<T: Codec> std::fmt::Debug for TQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TQueue")
            .field("capacity", &self.ring.slots.len())
            .finish_non_exhaustive()
    }
}

impl<T: Codec> TQueue<T> {
    /// Creates an empty queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(stm: &dyn DynStm, capacity: usize) -> Self {
        Self {
            ring: Ring::new(stm, capacity),
            _type: PhantomData,
        }
    }

    /// The fixed capacity chosen at construction.
    pub fn capacity(&self) -> usize {
        self.ring.slots.len()
    }

    /// Number of queued items.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if the engine cannot serve a consistent read.
    pub fn len(&self, tx: &mut dyn DynTx) -> Result<usize, Abort> {
        self.ring.len(tx)
    }

    /// `true` iff no items are queued.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if the engine cannot serve a consistent read.
    pub fn is_empty(&self, tx: &mut dyn DynTx) -> Result<bool, Abort> {
        Ok(self.ring.len(tx)? == 0)
    }

    /// Enqueues `value`, **blocking** (via `tx.retry()`) while the ring
    /// is full: the transaction parks until a pop commits.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflicts, or the retry abort while full.
    pub fn push(&self, tx: &mut dyn DynTx, value: &T) -> Result<(), Abort> {
        if self.try_push(tx, value)? {
            Ok(())
        } else {
            Err(tx.retry())
        }
    }

    /// Dequeues the oldest item, **blocking** while the ring is empty:
    /// the transaction parks until a push commits.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflicts, or the retry abort while empty.
    pub fn pop(&self, tx: &mut dyn DynTx) -> Result<T, Abort> {
        match self.try_pop(tx)? {
            Some(value) => Ok(value),
            None => Err(tx.retry()),
        }
    }

    /// Non-blocking enqueue: `false` (instead of retrying) when full.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflicts resolved against this transaction.
    pub fn try_push(&self, tx: &mut dyn DynTx, value: &T) -> Result<bool, Abort> {
        let head = tx.read_i64(&self.ring.head)?;
        let tail = tx.read_i64(&self.ring.tail)?;
        if tail - head >= self.ring.slots.len() as i64 {
            return Ok(false);
        }
        self.ring.store(tx, tail, value)?;
        tx.write_i64(&self.ring.tail, tail + 1)?;
        Ok(true)
    }

    /// Non-blocking dequeue: `None` (instead of retrying) when empty.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflicts resolved against this transaction.
    pub fn try_pop(&self, tx: &mut dyn DynTx) -> Result<Option<T>, Abort> {
        let head = tx.read_i64(&self.ring.head)?;
        let tail = tx.read_i64(&self.ring.tail)?;
        if head == tail {
            return Ok(None);
        }
        let value = self.ring.load(tx, head)?;
        tx.write_i64(&self.ring.head, head + 1)?;
        Ok(Some(value))
    }
}

/// A bounded double-ended queue: [`TQueue`]'s ring with both cursors
/// movable, so items can be pushed and popped at either end (blocking
/// pops/pushes park exactly like the queue's).
///
/// The `head` cursor can go negative (a front push moves it down);
/// slots are indexed `rem_euclid` capacity, so the ring wraps cleanly.
pub struct TDeque<T: Codec> {
    ring: Ring,
    _type: PhantomData<fn(T) -> T>,
}

impl<T: Codec> Clone for TDeque<T> {
    fn clone(&self) -> Self {
        Self {
            ring: self.ring.clone(),
            _type: PhantomData,
        }
    }
}

impl<T: Codec> std::fmt::Debug for TDeque<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TDeque")
            .field("capacity", &self.ring.slots.len())
            .finish_non_exhaustive()
    }
}

impl<T: Codec> TDeque<T> {
    /// Creates an empty deque holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(stm: &dyn DynStm, capacity: usize) -> Self {
        Self {
            ring: Ring::new(stm, capacity),
            _type: PhantomData,
        }
    }

    /// The fixed capacity chosen at construction.
    pub fn capacity(&self) -> usize {
        self.ring.slots.len()
    }

    /// Number of queued items.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if the engine cannot serve a consistent read.
    pub fn len(&self, tx: &mut dyn DynTx) -> Result<usize, Abort> {
        self.ring.len(tx)
    }

    /// `true` iff no items are queued.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] if the engine cannot serve a consistent read.
    pub fn is_empty(&self, tx: &mut dyn DynTx) -> Result<bool, Abort> {
        Ok(self.ring.len(tx)? == 0)
    }

    fn full(&self, tx: &mut dyn DynTx) -> Result<bool, Abort> {
        Ok(self.ring.len(tx)? >= self.ring.slots.len())
    }

    /// Appends at the back, blocking while full.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflicts, or the retry abort while full.
    pub fn push_back(&self, tx: &mut dyn DynTx, value: &T) -> Result<(), Abort> {
        if self.full(tx)? {
            return Err(tx.retry());
        }
        let tail = tx.read_i64(&self.ring.tail)?;
        self.ring.store(tx, tail, value)?;
        tx.write_i64(&self.ring.tail, tail + 1)?;
        Ok(())
    }

    /// Prepends at the front, blocking while full.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflicts, or the retry abort while full.
    pub fn push_front(&self, tx: &mut dyn DynTx, value: &T) -> Result<(), Abort> {
        if self.full(tx)? {
            return Err(tx.retry());
        }
        let head = tx.read_i64(&self.ring.head)?;
        self.ring.store(tx, head - 1, value)?;
        tx.write_i64(&self.ring.head, head - 1)?;
        Ok(())
    }

    /// Removes from the front, blocking while empty.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflicts, or the retry abort while empty.
    pub fn pop_front(&self, tx: &mut dyn DynTx) -> Result<T, Abort> {
        match self.try_pop_front(tx)? {
            Some(value) => Ok(value),
            None => Err(tx.retry()),
        }
    }

    /// Removes from the back, blocking while empty.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflicts, or the retry abort while empty.
    pub fn pop_back(&self, tx: &mut dyn DynTx) -> Result<T, Abort> {
        match self.try_pop_back(tx)? {
            Some(value) => Ok(value),
            None => Err(tx.retry()),
        }
    }

    /// Non-blocking front pop: `None` when empty.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflicts resolved against this transaction.
    pub fn try_pop_front(&self, tx: &mut dyn DynTx) -> Result<Option<T>, Abort> {
        let head = tx.read_i64(&self.ring.head)?;
        let tail = tx.read_i64(&self.ring.tail)?;
        if head == tail {
            return Ok(None);
        }
        let value = self.ring.load(tx, head)?;
        tx.write_i64(&self.ring.head, head + 1)?;
        Ok(Some(value))
    }

    /// Non-blocking back pop: `None` when empty.
    ///
    /// # Errors
    ///
    /// Returns [`Abort`] on conflicts resolved against this transaction.
    pub fn try_pop_back(&self, tx: &mut dyn DynTx) -> Result<Option<T>, Abort> {
        let head = tx.read_i64(&self.ring.head)?;
        let tail = tx.read_i64(&self.ring.tail)?;
        if head == tail {
            return Ok(None);
        }
        let value = self.ring.load(tx, tail - 1)?;
        tx.write_i64(&self.ring.tail, tail - 1)?;
        Ok(Some(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use zstm_api::Stm;
    use zstm_core::{AbortReason, RetryPolicy, StmConfig, TxKind};
    use zstm_lsa::LsaStm;

    fn stm() -> Arc<dyn DynStm> {
        Arc::new(Stm::new(LsaStm::new(StmConfig::new(2))))
    }

    fn run<R>(stm: &Arc<dyn DynStm>, body: impl FnMut(&mut dyn DynTx) -> Result<R, Abort>) -> R {
        stm.atomically(TxKind::Short, &RetryPolicy::unbounded(), body)
            .expect("unbounded")
    }

    #[test]
    fn queue_is_fifo_and_wraps() {
        let stm = stm();
        let queue: TQueue<u64> = TQueue::new(&*stm, 3);
        // Two full fill/drain rounds force the cursors past the capacity.
        for round in 0..2u64 {
            for i in 0..3 {
                run(&stm, |tx| queue.push(tx, &(round * 10 + i)));
            }
            assert_eq!(run(&stm, |tx| queue.len(tx)), 3);
            assert!(!run(&stm, |tx| queue.try_push(tx, &99)), "full ring");
            for i in 0..3 {
                assert_eq!(run(&stm, |tx| queue.pop(tx)), round * 10 + i);
            }
            assert!(run(&stm, |tx| queue.is_empty(tx)));
        }
        assert_eq!(run(&stm, |tx| queue.try_pop(tx)), None);
    }

    #[test]
    fn bounded_pop_on_empty_queue_parks_then_gives_up() {
        let stm = stm();
        let queue: TQueue<u64> = TQueue::new(&*stm, 2);
        let err = stm
            .atomically(
                TxKind::Short,
                &RetryPolicy::unbounded().with_max_attempts(2),
                |tx| queue.pop(tx),
            )
            .expect_err("empty queue must exhaust the bounded budget");
        assert_eq!(err.last_reason(), AbortReason::Retry);
        assert!(stm.take_stats().blocking_retries() >= 1);
    }

    #[test]
    fn deque_serves_both_ends_and_wraps_negative() {
        let stm = stm();
        let deque: TDeque<i64> = TDeque::new(&*stm, 3);
        run(&stm, |tx| deque.push_front(tx, &2));
        run(&stm, |tx| deque.push_front(tx, &1));
        run(&stm, |tx| deque.push_back(tx, &3));
        // head is now negative: [-2, 1) holds 1, 2, 3 front-to-back.
        assert_eq!(run(&stm, |tx| deque.len(tx)), 3);
        let err = stm
            .atomically(
                TxKind::Short,
                &RetryPolicy::unbounded().with_max_attempts(2),
                |tx| deque.push_back(tx, &4),
            )
            .expect_err("full deque blocks");
        assert_eq!(err.last_reason(), AbortReason::Retry);
        assert_eq!(run(&stm, |tx| deque.pop_back(tx)), 3);
        assert_eq!(run(&stm, |tx| deque.pop_front(tx)), 1);
        assert_eq!(run(&stm, |tx| deque.pop_front(tx)), 2);
        assert_eq!(run(&stm, |tx| deque.try_pop_back(tx)), None);
    }

    #[test]
    fn deque_as_stack_from_either_end() {
        let stm = stm();
        let deque: TDeque<u64> = TDeque::new(&*stm, 8);
        for i in 0..4u64 {
            run(&stm, |tx| deque.push_back(tx, &i));
        }
        assert_eq!(run(&stm, |tx| deque.pop_back(tx)), 3);
        assert_eq!(run(&stm, |tx| deque.pop_back(tx)), 2);
        run(&stm, |tx| deque.push_front(tx, &9));
        assert_eq!(run(&stm, |tx| deque.pop_front(tx)), 9);
        assert_eq!(run(&stm, |tx| deque.pop_front(tx)), 0);
        assert_eq!(run(&stm, |tx| deque.len(tx)), 1);
    }

    #[test]
    fn blocked_pop_is_woken_by_a_push() {
        let stm = stm();
        let queue: TQueue<u64> = TQueue::new(&*stm, 2);
        let consumer = {
            let (stm, queue) = (Arc::clone(&stm), queue.clone());
            std::thread::spawn(move || run(&stm, |tx| queue.pop(tx)))
        };
        // Give the consumer a chance to park, then push.
        std::thread::sleep(std::time::Duration::from_millis(20));
        run(&stm, |tx| queue.push(tx, &77));
        assert_eq!(consumer.join().expect("consumer"), 77);
    }
}
