//! A bounded `TQueue` as an async channel: producer and consumer
//! **futures** multiplexed over fewer OS threads than tasks.
//!
//! The synchronous `examples/queue.rs` dedicates one OS thread to every
//! producer and consumer; a blocked worker sleeps on the commit
//! notifier's condvar. Here the workers are tasks on a small
//! `zstm_util::exec::ThreadPool`: a transaction that must wait (ring full
//! or empty) registers a waker and *suspends the task*, so the OS thread
//! immediately polls somebody else. Eight tasks drain a shared ring over
//! two worker threads — a shape that would deadlock outright if blocked
//! transactions held their thread.
//!
//! Run with `cargo run --release --example async_queue`.

use std::sync::Arc;

use zstm::prelude::*;
use zstm::util::exec::ThreadPool;

const CAPACITY: usize = 8;
const PRODUCERS: u64 = 4;
const CONSUMERS: u64 = 4;
const WORKERS: usize = 2;
const ITEMS: u64 = 5_000;

fn main() {
    println!(
        "Async bounded queue: capacity {CAPACITY}, {PRODUCERS} producer + {CONSUMERS} consumer \
         tasks over {WORKERS} worker threads\n"
    );

    // Runtime engine selection through the erased facade: swap in any of
    // the five factories without touching the tasks. Each worker caches
    // one leased context, plus one spare.
    let stm: Arc<dyn DynStm> = Arc::new(Stm::new(ZStm::new(StmConfig::new(WORKERS + 1))));
    let queue: TQueue<u64> = TQueue::new(&*stm, CAPACITY);
    let pool = ThreadPool::new(WORKERS);

    // Producer `p` pushes `p * ITEMS .. (p + 1) * ITEMS`.
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let (stm, queue) = (Arc::clone(&stm), queue.clone());
            pool.spawn(async move {
                for item in p * ITEMS..(p + 1) * ITEMS {
                    let queue = queue.clone();
                    stm.atomically_async(TxKind::Short, move |tx| queue.push(tx, &item))
                        .await;
                }
            })
        })
        .collect();
    // The consumers share the total evenly, so none needs an end marker.
    let consumers: Vec<_> = (0..CONSUMERS)
        .map(|_| {
            let (stm, queue) = (Arc::clone(&stm), queue.clone());
            pool.spawn(async move {
                let mut popped = Vec::new();
                for _ in 0..PRODUCERS * ITEMS / CONSUMERS {
                    let queue = queue.clone();
                    popped.push(
                        stm.atomically_async(TxKind::Short, move |tx| queue.pop(tx))
                            .await,
                    );
                }
                popped
            })
        })
        .collect();

    for producer in producers {
        producer.join();
    }
    let mut delivered: Vec<u64> = consumers.into_iter().flat_map(|c| c.join()).collect();
    // Stop the executor so the workers return their cached contexts (and
    // their statistics) before harvesting.
    drop(pool);
    let stats = stm.take_stats();

    println!("--- {} ---", stm.name());
    println!("  delivered       : {:>9} items", delivered.len());
    println!(
        "  task suspensions: {:>9} waker parks (condvar parks: {})",
        stats.waker_parks(),
        stats.condvar_parks(),
    );
    println!(
        "  blocked retries : {:>9}   conflict aborts: {}",
        stats.blocking_retries(),
        stats.conflict_aborts(),
    );

    delivered.sort_unstable();
    assert!(
        delivered.iter().copied().eq(0..PRODUCERS * ITEMS),
        "every pushed item is popped exactly once"
    );
    assert_eq!(
        stats.condvar_parks(),
        0,
        "async tasks must never put an OS thread to sleep"
    );
    println!(
        "\nEvery item delivered exactly once — tasks suspended instead of blocking their workers."
    );
}
