//! Compares the time bases of Sections 2 and 4.3: how often does each
//! clock family correctly recognize concurrency, and what does a timestamp
//! cost?
//!
//! Demonstrates the plausible-clock trade-off: an r-entry REV clock always
//! orders causally related events correctly but reports some concurrent
//! pairs as ordered; the smaller r, the more false orderings — and in
//! CS-STM, false orderings become unnecessary aborts.
//!
//! Run with `cargo run --release --example clock_comparison`.

use std::sync::Arc;
use std::time::Duration;

use zstm::clock::{CausalStamp, CausalTimeBase, ClockOrd, RevClock};
use zstm::core::StmConfig;
use zstm::prelude::*;
use zstm::util::{run_window, XorShift64};
use zstm::workload::{run_array, ArrayConfig};

const THREADS: usize = 8;

/// Simulates a random communication history under an exact vector clock
/// and an r-entry REV clock in lockstep; returns (pairs truly concurrent,
/// pairs the REV clock also reported concurrent).
fn accuracy(r: usize, steps: usize, seed: u64) -> (usize, usize) {
    let exact = RevClock::vector(THREADS);
    let plausible = RevClock::new(THREADS, r);
    let mut rng = XorShift64::new(seed);
    let mut exact_state: Vec<_> = (0..THREADS).map(|_| exact.zero()).collect();
    let mut plaus_state: Vec<_> = (0..THREADS).map(|_| plausible.zero()).collect();
    let mut events = Vec::new();
    for _ in 0..steps {
        let thread = rng.next_range(THREADS as u64) as usize;
        if rng.next_percent(40) {
            let from = rng.next_range(THREADS as u64) as usize;
            if from != thread {
                let (e, p) = (exact_state[from].clone(), plaus_state[from].clone());
                exact_state[thread].join(&e);
                plaus_state[thread].join(&p);
            }
        }
        exact.advance(thread, &mut exact_state[thread]);
        plausible.advance(thread, &mut plaus_state[thread]);
        events.push((exact_state[thread].clone(), plaus_state[thread].clone()));
    }
    let mut truly_concurrent = 0;
    let mut reported_concurrent = 0;
    for i in 0..events.len() {
        for j in (i + 1)..events.len() {
            if events[i].0.causal_cmp(&events[j].0) == ClockOrd::Concurrent {
                truly_concurrent += 1;
                if events[i].1.causal_cmp(&events[j].1) == ClockOrd::Concurrent {
                    reported_concurrent += 1;
                }
            }
        }
    }
    (truly_concurrent, reported_concurrent)
}

/// `threads` workers hammer [`TimeBase::commit_stamp`] (with a `now`
/// thrown in every batch, the snapshot pattern) for `window`; returns
/// stamps drawn per second.
fn stamp_throughput<B: TimeBase>(clock: &B, threads: usize, window: Duration) -> f64 {
    const BATCH: u64 = 64;
    let (stamps, elapsed) = run_window(threads, window, |slot, window| {
        let mut ops = 0u64;
        while window.is_open() {
            for _ in 0..BATCH {
                std::hint::black_box(clock.commit_stamp(slot));
            }
            std::hint::black_box(clock.now(slot));
            ops += BATCH;
        }
        ops
    });
    stamps.into_iter().sum::<u64>() as f64 / elapsed.as_secs_f64()
}

fn main() {
    println!("Plausible-clock accuracy ({THREADS} threads, random history):");
    println!(
        "{:>6} {:>18} {:>22} {:>10}",
        "r", "truly concurrent", "reported concurrent", "accuracy"
    );
    for r in [1, 2, 4, 8] {
        let (truth, reported) = accuracy(r, 120, 0xc10c);
        let accuracy = if truth == 0 {
            1.0
        } else {
            reported as f64 / truth as f64
        };
        println!(
            "{r:>6} {truth:>18} {reported:>22} {:>9.1}%",
            accuracy * 100.0
        );
    }

    println!("\nCS-STM throughput & aborts over clock size (array workload):");
    println!("{:>6} {:>14} {:>12}", "r", "commits/s", "abort ratio");
    let threads = 4;
    for r in [1usize, 2, 4] {
        let stm: Arc<dyn DynStm> = Arc::new(Stm::new(CsStm::with_plausible_clock(
            StmConfig::new(threads),
            r,
        )));
        let mut config = ArrayConfig::new(threads);
        config.duration = Duration::from_millis(400);
        let report = run_array(&stm, &config);
        println!(
            "{r:>6} {:>14.0} {:>12.3}",
            report.commits_per_sec,
            report.abort_ratio()
        );
    }
    let stm: Arc<dyn DynStm> =
        Arc::new(Stm::new(CsStm::with_vector_clock(StmConfig::new(threads))));
    let mut config = ArrayConfig::new(threads);
    config.duration = Duration::from_millis(400);
    let report = run_array(&stm, &config);
    println!(
        "{:>6} {:>14.0} {:>12.3}   (full vector clock)",
        threads,
        report.commits_per_sec,
        report.abort_ratio()
    );

    println!("\nScalar vs sharded commit-stamp throughput (stamps/s):");
    println!(
        "{:>8} {:>16} {:>16}",
        "threads", "ScalarClock", "ShardedClock"
    );
    let window = Duration::from_millis(150);
    for n in [1usize, 2, 4, 8] {
        let scalar = stamp_throughput(&ScalarClock::new(), n, window);
        let sharded = stamp_throughput(&ShardedClock::new(n), n, window);
        println!("{n:>8} {scalar:>16.0} {sharded:>16.0}");
    }
    println!(
        "(the sharded clock trades a couple of uncontended atomics per stamp \
         for a read-mostly shared line; it can only win where the scalar line \
         ping-pongs between many cores)"
    );
}
