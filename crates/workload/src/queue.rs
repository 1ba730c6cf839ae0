//! A bounded producer/consumer queue workload — the first *blocking*
//! workload.
//!
//! The paper's workloads (bank, array, map) are conflict-driven: every
//! transaction can run immediately and either commits or loses a race.
//! A bounded queue is different — a consumer finding the queue empty (or a
//! producer finding it full) is not in conflict with anyone; it must
//! **wait**. The raw engine SPI cannot express that without spinning; the
//! API layer's `tx.retry()` can: the attempt rolls back with
//! [`AbortReason::Retry`](zstm_core::AbortReason::Retry) and parks on the
//! owning `Stm`'s commit notifier until a writer commits.
//!
//! The queue is a transactional ring buffer over the **erased facade**
//! ([`DynStm`]) — one driver, five engines selected at runtime, no
//! monomorphization:
//!
//! * `head`, `tail` — `i64` cursors (`tail - head` items in flight);
//! * `slots[i % capacity]` — the item at index `i`;
//! * `closed` — set transactionally by the driver after producers finish,
//!   so parked consumers are *woken by the closing commit itself* and
//!   drain out (no timeouts, no poison values).
//!
//! Every popped item records the queue index it was popped at, which makes
//! the invariants exact: each index in `0..total` popped exactly once, and
//! per producer the sequence numbers are strictly increasing in index
//! order (global FIFO).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use zstm_api::{DynStm, DynTx, DynVar};
use zstm_core::{Abort, RetryPolicy, TxKind, TxStats};
use zstm_util::exec::ThreadPool;

/// How a queue run is bounded.
#[derive(Clone, Copy, Debug)]
pub enum QueueLoad {
    /// Every producer pushes exactly this many items (deterministic total;
    /// what the tests use).
    Items(u64),
    /// Producers push for this wall-clock duration (what the benchmark
    /// sweep uses).
    Timed(Duration),
}

/// Configuration of the bounded-queue workload.
#[derive(Clone, Debug)]
pub struct QueueConfig {
    /// Ring capacity: a producer observing `tail - head == capacity`
    /// blocks.
    pub capacity: usize,
    /// Producer threads.
    pub producers: usize,
    /// Consumer threads.
    pub consumers: usize,
    /// Work bound.
    pub load: QueueLoad,
}

impl QueueConfig {
    /// The benchmark shape: capacity 64, `pairs` producers and consumers.
    pub fn new(pairs: usize) -> Self {
        Self {
            capacity: 64,
            producers: pairs.max(1),
            consumers: pairs.max(1),
            load: QueueLoad::Timed(Duration::from_millis(500)),
        }
    }

    /// Scaled-down deterministic variant for tests.
    pub fn quick(pairs: usize) -> Self {
        Self {
            capacity: 4,
            producers: pairs.max(1),
            consumers: pairs.max(1),
            load: QueueLoad::Items(200),
        }
    }

    /// Logical threads the underlying STM must be configured for
    /// (workers + the driver's close transaction).
    pub fn threads_needed(&self) -> usize {
        self.producers + self.consumers + 1
    }
}

/// Result of one queue-workload run.
#[derive(Clone, Debug)]
pub struct QueueReport {
    /// Name of the STM that was measured.
    pub stm: &'static str,
    /// Producer/consumer threads used.
    pub producers: usize,
    /// Consumer threads used.
    pub consumers: usize,
    /// Wall-clock time from start barrier to the last consumer draining.
    pub elapsed: Duration,
    /// Items pushed (== committed push transactions).
    pub pushed: u64,
    /// Items popped.
    pub popped: u64,
    /// Delivered items per second (`popped / elapsed`).
    pub ops_per_sec: f64,
    /// Merged statistics; [`TxStats::blocking_retries`] is the block rate
    /// (empty/full waits), [`TxStats::conflict_aborts`] the conflict rate.
    pub stats: TxStats,
    /// `true` iff every pushed item was popped exactly once.
    pub delivered_exactly_once: bool,
    /// `true` iff, per producer, items were popped in push order (global
    /// FIFO through the shared ring).
    pub fifo: bool,
}

impl QueueReport {
    /// Both invariants.
    pub fn correct(&self) -> bool {
        self.delivered_exactly_once && self.fifo
    }
}

/// Per-producer sequence numbers are packed into the item value.
fn encode(producer: usize, seq: u64) -> i64 {
    ((producer as i64) << 40) | seq as i64
}

fn decode(value: i64) -> (usize, u64) {
    ((value >> 40) as usize, (value & ((1 << 40) - 1)) as u64)
}

struct Ring {
    head: DynVar,
    tail: DynVar,
    closed: DynVar,
    slots: Vec<DynVar>,
}

impl Ring {
    fn new(stm: &Arc<dyn DynStm>, capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            head: stm.new_i64(0),
            tail: stm.new_i64(0),
            closed: stm.new_i64(0),
            slots: (0..capacity).map(|_| stm.new_i64(0)).collect(),
        })
    }

    /// The producer's transaction: blocks while the ring is full.
    fn push(&self, tx: &mut dyn DynTx, value: i64) -> Result<(), Abort> {
        let head = tx.read_i64(&self.head)?;
        let tail = tx.read_i64(&self.tail)?;
        if tail - head >= self.slots.len() as i64 {
            return Err(tx.retry()); // full: wait for a pop
        }
        tx.write_i64(&self.slots[tail as usize % self.slots.len()], value)?;
        tx.write_i64(&self.tail, tail + 1)
    }

    /// The consumer's transaction: the popped `(index, value)`, `None` once
    /// the ring is drained and closed; blocks while it is empty and open.
    fn pop(&self, tx: &mut dyn DynTx) -> Result<Option<(i64, i64)>, Abort> {
        let head = tx.read_i64(&self.head)?;
        let tail = tx.read_i64(&self.tail)?;
        if head == tail {
            if tx.read_i64(&self.closed)? == 1 {
                return Ok(None);
            }
            return Err(tx.retry()); // empty: wait for a push
        }
        let value = tx.read_i64(&self.slots[head as usize % self.slots.len()])?;
        tx.write_i64(&self.head, head + 1)?;
        Ok(Some((head, value)))
    }
}

/// Checks the two delivery invariants over the popped `(index, value)`
/// pairs, sorting `all` by pop index in place.
///
/// Exactly-once: the popped indices are a permutation of `0..pushed`.
/// FIFO: in index order, each producer's sequence numbers are strictly
/// increasing (global FIFO through the shared ring).
fn check_delivery(all: &mut [(i64, i64)], pushed: u64, producers: usize) -> (bool, bool) {
    all.sort_unstable();
    let delivered_exactly_once = all.len() as u64 == pushed
        && all
            .iter()
            .enumerate()
            .all(|(i, &(index, _))| index == i as i64);
    let mut fifo = true;
    let mut last_seq: Vec<Option<u64>> = vec![None; producers];
    for &(_, value) in all.iter() {
        let (producer, seq) = decode(value);
        if producer >= last_seq.len() {
            fifo = false;
            break;
        }
        match last_seq[producer] {
            Some(prev) if seq <= prev => {
                fifo = false;
                break;
            }
            _ => last_seq[producer] = Some(seq),
        }
    }
    (delivered_exactly_once, fifo)
}

/// Runs the bounded-queue workload against a runtime-selected STM.
///
/// The `Stm` behind `stm` must be configured for at least
/// [`QueueConfig::threads_needed`] logical threads. A producer finding
/// the ring full, or a consumer finding it empty, parks its thread until
/// a commit.
///
/// Not a [`run_window`](zstm_util::run_window) caller: an `Items` load
/// has no window, and the consumers end by the close commit, issued once
/// the producers are joined — the join order is part of the protocol.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn run_queue(stm: &Arc<dyn DynStm>, config: &QueueConfig) -> QueueReport {
    // Clamp once and use everywhere: a capacity-0 config behaves like
    // capacity 1 instead of deadlocking every producer on `tail - head
    // >= 0`.
    let capacity = config.capacity.max(1);
    let ring = Ring::new(stm, capacity);
    let policy = RetryPolicy::unbounded();
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(config.producers + config.consumers + 1));

    let mut producer_handles = Vec::with_capacity(config.producers);
    for p in 0..config.producers {
        let stm = Arc::clone(stm);
        let ring = Arc::clone(&ring);
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        let load = config.load;
        producer_handles.push(std::thread::spawn(move || {
            let mut seq = 0u64;
            barrier.wait();
            loop {
                match load {
                    QueueLoad::Items(n) if seq >= n => break,
                    QueueLoad::Timed(_) if stop.load(Ordering::Relaxed) => break,
                    _ => {}
                }
                let value = encode(p, seq);
                stm.atomically(TxKind::Short, &policy, |tx| ring.push(tx, value))
                    .expect("unbounded policy cannot exhaust");
                seq += 1;
            }
            seq
        }));
    }

    let mut consumer_handles = Vec::with_capacity(config.consumers);
    for _ in 0..config.consumers {
        let stm = Arc::clone(stm);
        let ring = Arc::clone(&ring);
        let barrier = Arc::clone(&barrier);
        consumer_handles.push(std::thread::spawn(move || {
            let mut popped: Vec<(i64, i64)> = Vec::new();
            barrier.wait();
            loop {
                let item = stm
                    .atomically(TxKind::Short, &policy, |tx| ring.pop(tx))
                    .expect("unbounded policy cannot exhaust");
                match item {
                    Some(indexed) => popped.push(indexed),
                    None => break,
                }
            }
            popped
        }));
    }

    barrier.wait();
    let started = Instant::now();
    if let QueueLoad::Timed(duration) = config.load {
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    }
    let mut pushed = 0u64;
    for handle in producer_handles {
        pushed += handle.join().expect("producer panicked");
    }
    // Close the queue transactionally: this commit is itself the wakeup
    // for every parked consumer.
    stm.atomically(TxKind::Short, &policy, |tx| tx.write_i64(&ring.closed, 1))
        .expect("close commits");
    let mut all: Vec<(i64, i64)> = Vec::new();
    for handle in consumer_handles {
        all.extend(handle.join().expect("consumer panicked"));
    }
    let elapsed = started.elapsed();
    let popped = all.len() as u64;
    let (delivered_exactly_once, fifo) = check_delivery(&mut all, pushed, config.producers);

    QueueReport {
        stm: stm.name(),
        producers: config.producers,
        consumers: config.consumers,
        elapsed,
        pushed,
        popped,
        ops_per_sec: popped as f64 / elapsed.as_secs_f64(),
        stats: stm.take_stats(),
        delivered_exactly_once,
        fifo,
    }
}

/// Configuration of the **async** bounded-queue workload: producer and
/// consumer *tasks* (futures) multiplexed over a fixed executor
/// [`ThreadPool`] — typically far fewer OS threads than tasks.
#[derive(Clone, Debug)]
pub struct QueueAsyncConfig {
    /// Ring capacity: a producer observing `tail - head == capacity`
    /// suspends its task.
    pub capacity: usize,
    /// Producer tasks.
    pub producers: usize,
    /// Consumer tasks.
    pub consumers: usize,
    /// Executor worker threads the tasks are multiplexed over.
    pub workers: usize,
    /// Work bound.
    pub load: QueueLoad,
}

impl QueueAsyncConfig {
    /// The benchmark shape: capacity 64, `pairs` producer and consumer
    /// tasks over `ceil(pairs / 2)` workers — four tasks per OS thread,
    /// so the sweep only works if suspended transactions release their
    /// worker.
    pub fn new(pairs: usize) -> Self {
        let pairs = pairs.max(1);
        Self {
            capacity: 64,
            producers: pairs,
            consumers: pairs,
            workers: pairs.div_ceil(2),
            load: QueueLoad::Timed(Duration::from_millis(500)),
        }
    }

    /// Scaled-down deterministic variant for tests.
    pub fn quick(pairs: usize) -> Self {
        let pairs = pairs.max(1);
        Self {
            capacity: 4,
            producers: pairs,
            consumers: pairs,
            workers: pairs.div_ceil(2),
            load: QueueLoad::Items(200),
        }
    }

    /// Total tasks spawned on the executor.
    pub fn tasks(&self) -> usize {
        self.producers + self.consumers
    }

    /// Logical threads the underlying STM must be configured for: one per
    /// executor worker (each worker OS thread caches one leased context,
    /// shared by every task it polls) plus the driver's close/audit
    /// transactions.
    pub fn threads_needed(&self) -> usize {
        self.workers.max(1) + 1
    }
}

/// Runs the bounded-queue workload with **async transactions**:
/// producers and consumers are futures (`atomically_async` through the
/// erased facade) multiplexed over [`QueueAsyncConfig::workers`] OS
/// threads. A task finding the ring full/empty suspends — registering its
/// waker on the commit notifier and releasing its worker — rather than
/// blocking an OS thread, which is what lets `tasks >> workers`
/// configurations drain instead of deadlocking.
///
/// Invariants, the close protocol and the report shape are identical to
/// [`run_queue`] (the `producers`/`consumers` fields count tasks).
///
/// # Panics
///
/// Panics if a task panics.
pub fn run_queue_async(stm: &Arc<dyn DynStm>, config: &QueueAsyncConfig) -> QueueReport {
    let capacity = config.capacity.max(1);
    let ring = Ring::new(stm, capacity);
    let stop = Arc::new(AtomicBool::new(false));
    let pool = ThreadPool::new(config.workers);
    // No start barrier: a blocking barrier across more tasks than workers
    // would deadlock the pool, and unlike the sync driver there is no
    // per-task thread-spawn cost to fence off. Timing starts at spawn.
    let started = Instant::now();

    let mut producer_handles = Vec::with_capacity(config.producers);
    for p in 0..config.producers {
        let stm = Arc::clone(stm);
        let ring = Arc::clone(&ring);
        let stop = Arc::clone(&stop);
        let load = config.load;
        producer_handles.push(pool.spawn(async move {
            let mut seq = 0u64;
            loop {
                match load {
                    QueueLoad::Items(n) if seq >= n => break,
                    QueueLoad::Timed(_) if stop.load(Ordering::Relaxed) => break,
                    _ => {}
                }
                let value = encode(p, seq);
                let ring = Arc::clone(&ring);
                stm.atomically_async(TxKind::Short, move |tx| ring.push(tx, value))
                    .await;
                seq += 1;
            }
            seq
        }));
    }

    let mut consumer_handles = Vec::with_capacity(config.consumers);
    for _ in 0..config.consumers {
        let stm = Arc::clone(stm);
        let ring = Arc::clone(&ring);
        consumer_handles.push(pool.spawn(async move {
            let mut popped: Vec<(i64, i64)> = Vec::new();
            loop {
                let ring = Arc::clone(&ring);
                let item = stm
                    .atomically_async(TxKind::Short, move |tx| ring.pop(tx))
                    .await;
                match item {
                    Some(indexed) => popped.push(indexed),
                    None => break,
                }
            }
            popped
        }));
    }

    if let QueueLoad::Timed(duration) = config.load {
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
    }
    let mut pushed = 0u64;
    for handle in producer_handles {
        pushed += handle.join();
    }
    // Close the queue transactionally: this commit is itself the wakeup
    // for every suspended consumer task.
    stm.atomically(TxKind::Short, &RetryPolicy::unbounded(), |tx| {
        tx.write_i64(&ring.closed, 1)
    })
    .expect("close commits");
    let mut all: Vec<(i64, i64)> = Vec::new();
    for handle in consumer_handles {
        all.extend(handle.join());
    }
    let elapsed = started.elapsed();
    // Stop the executor so the workers return their cached engine
    // contexts (and per-thread statistics) to the pool before harvesting.
    drop(pool);
    let popped = all.len() as u64;
    let (delivered_exactly_once, fifo) = check_delivery(&mut all, pushed, config.producers);

    QueueReport {
        stm: stm.name(),
        producers: config.producers,
        consumers: config.consumers,
        elapsed,
        pushed,
        popped,
        ops_per_sec: popped as f64 / elapsed.as_secs_f64(),
        stats: stm.take_stats(),
        delivered_exactly_once,
        fifo,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zstm_api::Stm;
    use zstm_core::StmConfig;
    use zstm_cs::CsStm;
    use zstm_lsa::LsaStm;
    use zstm_sstm::SStm;
    use zstm_tl2::Tl2Stm;
    use zstm_util::run_with_deadline;
    use zstm_z::ZStm;

    /// A run that normally takes well under a second: a hang (the S-STM
    /// commit wait cycle was found here) fails with the engine's name.
    const DEADLINE: Duration = Duration::from_secs(30);

    fn all_engines(threads: usize) -> Vec<Arc<dyn DynStm>> {
        vec![
            Arc::new(Stm::new(LsaStm::new(StmConfig::new(threads)))),
            Arc::new(Stm::new(Tl2Stm::new(StmConfig::new(threads)))),
            Arc::new(Stm::new(CsStm::with_vector_clock(StmConfig::new(threads)))),
            Arc::new(Stm::new(SStm::with_vector_clock(StmConfig::new(threads)))),
            Arc::new(Stm::new(ZStm::new(StmConfig::new(threads)))),
        ]
    }

    #[test]
    fn queue_delivers_exactly_once_in_fifo_order_on_all_five() {
        let config = QueueConfig {
            capacity: 4,
            producers: 2,
            consumers: 2,
            load: QueueLoad::Items(150),
        };
        for stm in all_engines(config.threads_needed()) {
            let (name, config) = (format!("queue fifo [{}]", stm.name()), config.clone());
            let report = run_with_deadline(&name, DEADLINE, move || run_queue(&stm, &config));
            assert_eq!(report.pushed, 300, "{}", report.stm);
            assert_eq!(report.popped, 300, "{}", report.stm);
            assert!(report.delivered_exactly_once, "{}", report.stm);
            assert!(report.fifo, "{}", report.stm);
        }
    }

    #[test]
    fn consumers_park_instead_of_spinning_on_a_slow_producer() {
        // One item every 15 ms: a spinning consumer would burn thousands
        // of retry attempts per gap; a parked one wakes only on commits.
        let stm: Arc<dyn DynStm> = Arc::new(Stm::new(LsaStm::new(StmConfig::new(3))));
        let ring_capacity = 4;
        let ring = Ring::new(&stm, ring_capacity);
        let policy = RetryPolicy::unbounded();
        let consumer = {
            let (stm, ring) = (Arc::clone(&stm), Arc::clone(&ring));
            std::thread::spawn(move || {
                let mut got = 0u64;
                loop {
                    let done = stm
                        .atomically(TxKind::Short, &policy, |tx| {
                            let head = tx.read_i64(&ring.head)?;
                            let tail = tx.read_i64(&ring.tail)?;
                            if head == tail {
                                if tx.read_i64(&ring.closed)? == 1 {
                                    return Ok(true);
                                }
                                return Err(tx.retry());
                            }
                            tx.write_i64(&ring.head, head + 1)?;
                            Ok(false)
                        })
                        .expect("unbounded");
                    if done {
                        return got;
                    }
                    got += 1;
                }
            })
        };
        for seq in 0..6i64 {
            std::thread::sleep(Duration::from_millis(15));
            stm.atomically(TxKind::Short, &policy, |tx| {
                let tail = tx.read_i64(&ring.tail)?;
                tx.write_i64(&ring.slots[tail as usize % ring_capacity], seq)?;
                tx.write_i64(&ring.tail, tail + 1)
            })
            .expect("push commits");
        }
        stm.atomically(TxKind::Short, &policy, |tx| tx.write_i64(&ring.closed, 1))
            .expect("close commits");
        let got = run_with_deadline("slow-producer consumer", DEADLINE, move || {
            consumer.join().expect("consumer finished")
        });
        assert_eq!(got, 6);
        let stats = stm.take_stats();
        // ~90 ms of emptiness. A spinning consumer would rack up retry
        // aborts by the thousand; parking bounds it to one per commit.
        // The bound is generous (50×) to stay robust on loaded CI boxes.
        assert!(
            stats.blocking_retries() < 350,
            "parked consumer should not spin-burn: {} blocking retries",
            stats.blocking_retries()
        );
        assert!(
            stats.blocking_retries() >= 1,
            "the consumer must actually have blocked"
        );
    }

    #[test]
    fn timed_mode_reports_throughput() {
        let stm: Arc<dyn DynStm> = Arc::new(Stm::new(LsaStm::new(StmConfig::new(3))));
        let config = QueueConfig {
            capacity: 8,
            producers: 1,
            consumers: 1,
            load: QueueLoad::Timed(Duration::from_millis(50)),
        };
        let report = run_with_deadline("timed queue", DEADLINE, move || run_queue(&stm, &config));
        assert!(report.correct(), "{report:?}");
        assert!(report.popped > 0);
        assert!(report.ops_per_sec > 0.0);
    }

    #[test]
    fn async_queue_delivers_exactly_once_with_more_tasks_than_workers_on_all_five() {
        // 8 tasks (4 producers + 4 consumers) over 2 worker threads: only
        // possible because suspended tasks release their worker.
        let config = QueueAsyncConfig {
            capacity: 4,
            producers: 4,
            consumers: 4,
            workers: 2,
            load: QueueLoad::Items(60),
        };
        assert!(config.tasks() > config.workers);
        for stm in all_engines(config.threads_needed()) {
            let (name, config) = (format!("async queue [{}]", stm.name()), config.clone());
            let report = run_with_deadline(&name, DEADLINE, move || run_queue_async(&stm, &config));
            assert_eq!(report.pushed, 240, "{}", report.stm);
            assert_eq!(report.popped, 240, "{}", report.stm);
            assert!(report.delivered_exactly_once, "{}", report.stm);
            assert!(report.fifo, "{}", report.stm);
            assert!(
                report.stats.waker_parks() >= 1,
                "{}: capacity 4 with 240 items must suspend at least once",
                report.stm
            );
            assert_eq!(
                report.stats.condvar_parks(),
                0,
                "{}: async tasks must never park an OS thread",
                report.stm
            );
        }
    }

    #[test]
    fn async_timed_mode_reports_throughput() {
        let stm: Arc<dyn DynStm> = Arc::new(Stm::new(LsaStm::new(StmConfig::new(3))));
        let config = QueueAsyncConfig {
            capacity: 8,
            producers: 2,
            consumers: 2,
            workers: 2,
            load: QueueLoad::Timed(Duration::from_millis(50)),
        };
        let report = run_with_deadline("timed async queue", DEADLINE, move || {
            run_queue_async(&stm, &config)
        });
        assert!(report.correct(), "{report:?}");
        assert!(report.popped > 0);
        assert!(report.ops_per_sec > 0.0);
    }

    #[test]
    fn single_worker_multiplexes_a_producer_and_a_consumer() {
        // The purest multiplexing shape: one OS thread, two tasks that
        // must take turns through suspension (capacity 1 forces a park on
        // every push/pop imbalance). A blocking implementation would
        // deadlock here.
        let stm: Arc<dyn DynStm> = Arc::new(Stm::new(Tl2Stm::new(StmConfig::new(2))));
        let config = QueueAsyncConfig {
            capacity: 1,
            producers: 1,
            consumers: 1,
            workers: 1,
            load: QueueLoad::Items(30),
        };
        let report = run_with_deadline("one-worker async queue", DEADLINE, move || {
            run_queue_async(&stm, &config)
        });
        assert!(report.correct(), "{report:?}");
        assert_eq!(report.popped, 30);
        assert!(report.stats.waker_parks() >= 1);
    }

    #[test]
    fn encode_decode_round_trips() {
        for (p, s) in [(0usize, 0u64), (3, 7), (31, (1 << 40) - 1)] {
            assert_eq!(decode(encode(p, s)), (p, s));
        }
    }

    #[test]
    fn capacity_bounds_in_flight_items() {
        // A queue of capacity 1 with a blocked consumerless producer: the
        // second push must block until a pop happens.
        let stm: Arc<dyn DynStm> = Arc::new(Stm::new(Tl2Stm::new(StmConfig::new(3))));
        let config = QueueConfig {
            capacity: 1,
            producers: 1,
            consumers: 1,
            load: QueueLoad::Items(20),
        };
        let report = run_queue(&stm, &config);
        assert!(report.correct(), "{report:?}");
        assert!(
            report.stats.blocking_retries() > 0,
            "capacity 1 with 20 items must block at least once"
        );
    }
}
