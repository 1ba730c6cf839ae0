//! Automatic long-transaction marking (the paper's §5.3 future work) on a
//! transactional set under concurrent churn.
//!
//! Z-STM must know a transaction's class when it starts. Instead of the
//! programmer marking the scan long, an [`AutoMarker`] watches how many
//! objects the scan block opens and flips it to `TxKind::Long` once its
//! average crosses the threshold; from then on Z-STM protects the scan
//! with a zone while two churner threads keep inserting and removing odd
//! values. Every scan, short or long, must see a consistent snapshot: all
//! of the even seed values, which no churner touches.
//!
//! Run with `cargo run --release --example auto_marker`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use zstm::core::AutoMarker;
use zstm::prelude::*;

fn main() {
    let stm: Arc<dyn DynStm> = Arc::new(Stm::new(ZStm::new(StmConfig::new(3))));
    let set: TSet<i64> = TSet::new(&*stm, 64);
    let policy = RetryPolicy::default();
    let seed: Vec<i64> = (0..200).step_by(2).collect();

    stm.atomically(TxKind::Short, &policy, |tx| {
        for v in &seed {
            set.insert(tx, v)?;
        }
        Ok(())
    })
    .expect("seed");

    // Two churner threads insert/remove odd values concurrently.
    let stop = Arc::new(AtomicBool::new(false));
    let churners: Vec<_> = (0..2i64)
        .map(|t| {
            let (stm, set, stop) = (Arc::clone(&stm), set.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                let policy = RetryPolicy::default().with_max_attempts(10_000);
                let mut i = 0i64;
                let mut committed = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let v = 1 + 2 * ((i * 7 + t * 13) % 100);
                    let insert = i % 2 == 0;
                    let ok = stm.atomically(TxKind::Short, &policy, |tx| {
                        if insert {
                            set.insert(tx, &v)
                        } else {
                            set.remove(tx, &v)
                        }
                    });
                    committed += u64::from(ok.is_ok());
                    i += 1;
                }
                committed
            })
        })
        .collect();

    // The scan block: its kind is decided by the marker. The first run
    // goes in as Short; a whole-set scan opens every one of the 64
    // buckets, and the marker flips the site once its average reaches 32.
    let marker = AutoMarker::with_threshold(32);
    let mut flipped_at = None;
    for round in 0..12 {
        // Give the churners time to commit between scans.
        std::thread::sleep(Duration::from_millis(1));
        let kind = marker.kind();
        let mut contents = stm
            .atomically(kind, &policy, |tx| {
                let mut contents = Vec::new();
                set.for_each(tx, |v| contents.push(v))?;
                Ok(contents)
            })
            .expect("scan commits");
        marker.observe(set.bucket_count() as u64);
        if flipped_at.is_none() && marker.kind() == TxKind::Long {
            flipped_at = Some(round);
        }
        contents.sort_unstable();
        let evens: Vec<i64> = contents.iter().copied().filter(|v| v % 2 == 0).collect();
        assert_eq!(evens, seed, "scan {round} saw a torn snapshot");
        println!(
            "scan {round:>2}: kind={kind}, {} elements, marker average {} opens",
            contents.len(),
            marker.average()
        );
    }
    stop.store(true, Ordering::Relaxed);
    let committed: u64 = churners
        .into_iter()
        .map(|h| h.join().expect("churner panicked"))
        .sum();

    let round = flipped_at.expect("a 64-bucket scan crosses a threshold of 32");
    println!(
        "\nAutoMarker classified the scan as LONG from round {} on \
         ({committed} churner transactions ran concurrently).",
        round + 1
    );
}
