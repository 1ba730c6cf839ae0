//! Engine-matrix coverage: every container runs the same script on all
//! five engines × {native, SSI-certified}, through the erased facade —
//! the acceptance surface of the collections subsystem.

use std::sync::Arc;
use std::time::Duration;

use zstm_api::{DynStm, DynTx, Stm};
use zstm_certify::CertifiedFactory;
use zstm_collections::{TDeque, TMap, TQueue, TSet};
use zstm_core::{Abort, RetryPolicy, StmConfig, TxKind};
use zstm_cs::CsStm;
use zstm_lsa::LsaStm;
use zstm_sstm::SStm;
use zstm_tl2::Tl2Stm;
use zstm_util::exec::ThreadPool;
use zstm_util::run_with_deadline;
use zstm_z::ZStm;

/// All ten runtime configurations: each engine native and wrapped in the
/// online SSI certifier, as erased handles sized for `threads` logical
/// threads.
fn all_configs(threads: usize) -> Vec<(&'static str, Arc<dyn DynStm>)> {
    let c = || StmConfig::new(threads);
    vec![
        ("lsa", Arc::new(Stm::new(LsaStm::new(c())))),
        (
            "lsa+ssi",
            Arc::new(Stm::new(CertifiedFactory::new(c(), LsaStm::new))),
        ),
        ("tl2", Arc::new(Stm::new(Tl2Stm::new(c())))),
        (
            "tl2+ssi",
            Arc::new(Stm::new(CertifiedFactory::new(c(), Tl2Stm::new))),
        ),
        ("cs", Arc::new(Stm::new(CsStm::with_vector_clock(c())))),
        (
            "cs+ssi",
            Arc::new(Stm::new(CertifiedFactory::new(
                c(),
                CsStm::with_vector_clock,
            ))),
        ),
        ("sstm", Arc::new(Stm::new(SStm::with_vector_clock(c())))),
        (
            "sstm+ssi",
            Arc::new(Stm::new(CertifiedFactory::new(
                c(),
                SStm::with_vector_clock,
            ))),
        ),
        ("z", Arc::new(Stm::new(ZStm::new(c())))),
        (
            "z+ssi",
            Arc::new(Stm::new(CertifiedFactory::new(c(), ZStm::new))),
        ),
    ]
}

/// Runs `scenario` on each of the ten configurations, each under a
/// deadline: a scenario takes milliseconds, so an engine that hangs in it
/// fails within seconds, naming the test and the configuration.
fn on_all_configs(
    threads: usize,
    scenario: impl Fn(&'static str, Arc<dyn DynStm>) + Send + Sync + 'static,
) {
    let current = std::thread::current();
    let test = current.name().unwrap_or("collections engines");
    let scenario = Arc::new(scenario);
    for (name, stm) in all_configs(threads) {
        let scenario = Arc::clone(&scenario);
        run_with_deadline(
            &format!("{test} [{name}]"),
            Duration::from_secs(30),
            move || scenario(name, stm),
        );
    }
}

fn run<R>(stm: &Arc<dyn DynStm>, body: impl FnMut(&mut dyn DynTx) -> Result<R, Abort>) -> R {
    stm.atomically(TxKind::Short, &RetryPolicy::unbounded(), body)
        .expect("unbounded")
}

#[test]
fn containers_run_the_same_script_on_every_engine_and_certified_wrapper() {
    on_all_configs(1, |name, stm| {
        let map: TMap<u64, String> = TMap::new(&*stm, 4);
        let set: TSet<u64> = TSet::new(&*stm, 4);
        let queue: TQueue<u64> = TQueue::new(&*stm, 3);
        let deque: TDeque<i64> = TDeque::new(&*stm, 3);

        // One transaction spanning all four containers.
        run(&stm, |tx| {
            map.insert(tx, &1, &"one".to_string())?;
            set.insert(tx, &1)?;
            queue.push(tx, &10)?;
            deque.push_front(tx, &-10)?;
            Ok(())
        });
        assert_eq!(
            run(&stm, |tx| map.get(tx, &1)),
            Some("one".to_string()),
            "{name}: map round trip"
        );
        assert!(run(&stm, |tx| set.contains(tx, &1)), "{name}: set member");
        assert_eq!(run(&stm, |tx| queue.pop(tx)), 10, "{name}: queue pop");
        assert_eq!(run(&stm, |tx| deque.pop_back(tx)), -10, "{name}: deque pop");
        assert!(
            stm.take_stats().total_commits() >= 4,
            "{name}: commits recorded through the facade"
        );
    });
}

#[test]
fn long_tx_bulk_seed_commits_on_every_engine_and_certified_wrapper() {
    // The workload seeding pattern: one *Long* transaction inserting
    // many keys, where co-bucketed keys force read-your-own-write on
    // the bucket variable. Regression for a Z-STM hang (the
    // repeated-open check treated the transaction's own tentative
    // version as a post-stamp intruder and aborted every attempt) —
    // the bounded policy turns any such livelock into a test failure.
    on_all_configs(1, |name, stm| {
        let map: TMap<u64, u64> = TMap::new(&*stm, 2);
        let seeded = stm.atomically(
            TxKind::Long,
            &RetryPolicy::unbounded().with_max_attempts(50),
            |tx| {
                for k in 0..16u64 {
                    map.insert(tx, &k, &(k * 3))?;
                }
                map.len(tx)
            },
        );
        assert_eq!(seeded.ok(), Some(16), "{name}: long seed transaction");
        assert_eq!(run(&stm, |tx| map.get(tx, &5)), Some(15), "{name}: value");
    });
}

#[test]
fn blocking_pop_parks_and_is_woken_on_every_engine_and_certified_wrapper() {
    on_all_configs(2, |name, stm| {
        let queue: TQueue<u64> = TQueue::new(&*stm, 2);
        let consumer = {
            let (stm, queue) = (Arc::clone(&stm), queue.clone());
            std::thread::spawn(move || run(&stm, |tx| queue.pop(tx)))
        };
        // Let the consumer reach the park (best effort: correctness does
        // not depend on the sleep; the park bound is checked by
        // `consumers_park_instead_of_spinning_on_a_slow_producer`).
        std::thread::sleep(Duration::from_millis(15));
        run(&stm, |tx| queue.push(tx, &42));
        assert_eq!(consumer.join().expect("consumer"), 42, "{name}: wakeup");
    });
}

/// A producer/consumer item: `(producer, seq)`, or [`END`].
type Item = (u64, u64);

/// The end marker: the queue is closed with one per consumer, pushed
/// after every producer has finished, and a consumer stops at the first
/// it pops.
const END: Item = (u64::MAX, u64::MAX);

/// Checks what each consumer popped: the union is every `(producer,
/// seq)` with `seq < items` exactly once, and each consumer saw each
/// producer's `seq` strictly increasing (FIFO through the ring).
fn check_delivery(name: &str, popped: &[Vec<Item>], producers: u64, items: u64) {
    for (consumer, items) in popped.iter().enumerate() {
        for producer in 0..producers {
            let seqs: Vec<u64> = items
                .iter()
                .filter(|item| item.0 == producer)
                .map(|item| item.1)
                .collect();
            assert!(
                seqs.windows(2).all(|pair| pair[0] < pair[1]),
                "{name}: consumer {consumer} saw producer {producer} out of order: {seqs:?}"
            );
        }
    }
    let mut all: Vec<Item> = popped.iter().flatten().copied().collect();
    all.sort_unstable();
    let expected: Vec<Item> = (0..producers)
        .flat_map(|producer| (0..items).map(move |seq| (producer, seq)))
        .collect();
    assert_eq!(all, expected, "{name}: every item popped exactly once");
}

/// Runs `producers` threads pushing `items` each through a ring of
/// `capacity` and `consumers` threads popping until [`END`], closing the
/// queue once the producers have joined; returns what each consumer
/// popped. Needs `producers + consumers + 1` logical threads.
fn produce_and_consume(
    stm: &Arc<dyn DynStm>,
    capacity: usize,
    producers: u64,
    consumers: usize,
    items: u64,
) -> Vec<Vec<Item>> {
    let queue: TQueue<Item> = TQueue::new(&**stm, capacity);
    let producing: Vec<_> = (0..producers)
        .map(|producer| {
            let (stm, queue) = (Arc::clone(stm), queue.clone());
            std::thread::spawn(move || {
                for seq in 0..items {
                    run(&stm, |tx| queue.push(tx, &(producer, seq)));
                }
            })
        })
        .collect();
    let consuming: Vec<_> = (0..consumers)
        .map(|_| {
            let (stm, queue) = (Arc::clone(stm), queue.clone());
            std::thread::spawn(move || {
                std::iter::from_fn(|| Some(run(&stm, |tx| queue.pop(tx))))
                    .take_while(|&item| item != END)
                    .collect()
            })
        })
        .collect();
    for producer in producing {
        producer.join().expect("producer");
    }
    for _ in 0..consumers {
        run(stm, |tx| queue.push(tx, &END));
    }
    consuming
        .into_iter()
        .map(|consumer| consumer.join().expect("consumer"))
        .collect()
}

/// [`produce_and_consume`] with every producer and consumer a task on a
/// pool of `workers` OS threads, the close one more task. Needs
/// `workers + 1` logical threads; the pool is dropped before returning,
/// so every worker's statistics are in `stm`.
fn produce_and_consume_async(
    stm: &Arc<dyn DynStm>,
    capacity: usize,
    producers: u64,
    consumers: usize,
    workers: usize,
    items: u64,
) -> Vec<Vec<Item>> {
    let queue: TQueue<Item> = TQueue::new(&**stm, capacity);
    let pool = ThreadPool::new(workers);
    let push = |stm: &Arc<dyn DynStm>, queue: &TQueue<Item>, item: Item| {
        let queue = queue.clone();
        stm.atomically_async(TxKind::Short, move |tx| queue.push(tx, &item))
    };
    let producing: Vec<_> = (0..producers)
        .map(|producer| {
            let (stm, queue) = (Arc::clone(stm), queue.clone());
            pool.spawn(async move {
                for seq in 0..items {
                    push(&stm, &queue, (producer, seq)).await;
                }
            })
        })
        .collect();
    let consuming: Vec<_> = (0..consumers)
        .map(|_| {
            let (stm, queue) = (Arc::clone(stm), queue.clone());
            pool.spawn(async move {
                let mut popped = Vec::new();
                loop {
                    let queue = queue.clone();
                    match stm
                        .atomically_async(TxKind::Short, move |tx| queue.pop(tx))
                        .await
                    {
                        END => return popped,
                        item => popped.push(item),
                    }
                }
            })
        })
        .collect();
    for producer in producing {
        producer.join();
    }
    // The close is a task too: a full ring parks it, not this thread.
    let (closer_stm, closer_queue) = (Arc::clone(stm), queue.clone());
    pool.spawn(async move {
        for _ in 0..consumers {
            push(&closer_stm, &closer_queue, END).await;
        }
    })
    .join();
    let popped = consuming
        .into_iter()
        .map(|consumer| consumer.join())
        .collect();
    drop(pool);
    popped
}

#[test]
fn queue_delivers_exactly_once_in_fifo_order_on_all_five() {
    on_all_configs(5, |name, stm| {
        let popped = produce_and_consume(&stm, 2, 2, 2, 150);
        check_delivery(name, &popped, 2, 150);
    });
}

#[test]
fn consumers_park_instead_of_spinning_on_a_slow_producer() {
    on_all_configs(2, |name, stm| {
        let queue: TQueue<Item> = TQueue::new(&*stm, 4);
        let consumer = {
            let (stm, queue) = (Arc::clone(&stm), queue.clone());
            std::thread::spawn(move || {
                std::iter::from_fn(|| Some(run(&stm, |tx| queue.pop(tx))))
                    .take_while(|&item| item != END)
                    .count()
            })
        };
        // One item every 15 ms: a spinning consumer would burn thousands
        // of retry attempts per gap; a parked one wakes only on commits.
        for seq in 0..6 {
            std::thread::sleep(Duration::from_millis(15));
            run(&stm, |tx| queue.push(tx, &(0, seq)));
        }
        run(&stm, |tx| queue.push(tx, &END));
        assert_eq!(consumer.join().expect("consumer"), 6, "{name}: delivered");
        // ~90 ms of emptiness; parking bounds the retries to about one per
        // commit. The bound is generous (50×) to stay robust on loaded
        // boxes.
        let retries = stm.take_stats().blocking_retries();
        assert!(
            retries < 350,
            "{name}: a parked consumer should not spin-burn: {retries} blocking retries"
        );
        assert!(
            retries >= 1,
            "{name}: the consumer must actually have blocked"
        );
    });
}

#[test]
fn capacity_bounds_in_flight_items() {
    // One producer against capacity 1: its second push must wait for a
    // pop, or the consumer must wait for a push.
    on_all_configs(3, |name, stm| {
        let popped = produce_and_consume(&stm, 1, 1, 1, 20);
        check_delivery(name, &popped, 1, 20);
        assert!(
            stm.take_stats().blocking_retries() > 0,
            "{name}: capacity 1 with 20 items must block at least once"
        );
    });
}

#[test]
fn async_queue_delivers_exactly_once_with_more_tasks_than_workers_on_all_five() {
    // 8 tasks (4 producers + 4 consumers) over 2 worker threads: only
    // possible because suspended tasks release their worker.
    on_all_configs(3, |name, stm| {
        let popped = produce_and_consume_async(&stm, 4, 4, 4, 2, 60);
        check_delivery(name, &popped, 4, 60);
        let stats = stm.take_stats();
        assert!(
            stats.waker_parks() >= 1,
            "{name}: capacity 4 with 240 items must suspend at least once"
        );
        assert_eq!(
            stats.condvar_parks(),
            0,
            "{name}: async tasks must never park an OS thread"
        );
    });
}

#[test]
fn single_worker_multiplexes_a_producer_and_a_consumer() {
    // The purest multiplexing shape: one OS thread, two tasks that must
    // take turns through suspension (capacity 1 forces a park on every
    // push/pop imbalance). A blocking implementation would deadlock here.
    on_all_configs(2, |name, stm| {
        let popped = produce_and_consume_async(&stm, 1, 1, 1, 1, 30);
        check_delivery(name, &popped, 1, 30);
        assert!(
            stm.take_stats().waker_parks() >= 1,
            "{name}: one worker must suspend a task"
        );
    });
}

#[test]
fn cross_container_move_is_atomic_on_every_engine_and_certified_wrapper() {
    // Conservation under a concurrent mutator: items migrate from a
    // queue into a map; an auditor snapshot must always see every item
    // exactly once across the two containers.
    const ITEMS: u64 = 12;
    on_all_configs(2, |name, stm| {
        let queue: TQueue<u64> = TQueue::new(&*stm, ITEMS as usize);
        let map: TMap<u64, u64> = TMap::new(&*stm, 4);
        run(&stm, |tx| {
            for i in 0..ITEMS {
                queue.push(tx, &i)?;
            }
            Ok(())
        });
        let mover = {
            let (stm, queue, map) = (Arc::clone(&stm), queue.clone(), map.clone());
            std::thread::spawn(move || {
                for _ in 0..ITEMS {
                    run(&stm, |tx| {
                        let item = queue.pop(tx)?;
                        map.insert(tx, &item, &1)?;
                        Ok(())
                    });
                }
            })
        };
        for _ in 0..40 {
            let (queued, mapped) = run(&stm, |tx| Ok((queue.len(tx)?, map.len(tx)?)));
            assert_eq!(
                queued + mapped,
                ITEMS as usize,
                "{name}: an audit saw a torn cross-container move"
            );
        }
        mover.join().expect("mover");
        let (queued, mapped) = run(&stm, |tx| Ok((queue.len(tx)?, map.len(tx)?)));
        assert_eq!((queued, mapped), (0, ITEMS as usize), "{name}: final state");
    });
}

#[test]
fn bytes_round_trip_between_the_copying_and_the_shared_accessors_on_every_engine_and_certified_wrapper(
) {
    on_all_configs(1, |name, stm| {
        let var = stm.new_bytes(b"initial".to_vec());
        run(&stm, |tx| tx.write_bytes(&var, b"copied in".to_vec()));
        let earlier = run(&stm, |tx| tx.map_bytes(&var, <[u8]>::to_vec));
        assert_eq!(&earlier[..], b"copied in", "{name}: bytes in, lent out");

        run(&stm, |tx| {
            tx.write_shared(&var, Arc::from(&b"shared in"[..]))
        });
        let mut owned = run(&stm, |tx| tx.read_bytes(&var));
        assert_eq!(owned, b"shared in", "{name}: shared in, bytes out");

        // The copy that `read_bytes` hands out is the caller's to scribble
        // on.
        assert_eq!(&earlier[..], b"copied in", "{name}: earlier copy");
        owned[0] = b'X';
        assert_eq!(
            run(&stm, |tx| tx.read_bytes(&var)),
            b"shared in",
            "{name}: the scribbled-on copy never reached the variable"
        );

        // Read-your-own-write sees the tentative payload either way.
        let (lent, copied) = run(&stm, |tx| {
            tx.write_shared(&var, Arc::from(&b"tentative"[..]))?;
            let lent = tx.map_bytes(&var, |bytes| bytes == b"tentative")?;
            Ok((lent, tx.read_bytes(&var)?))
        });
        assert!(lent, "{name}: own write, lent");
        assert_eq!(copied, b"tentative", "{name}: own write, copied");
    });
}
