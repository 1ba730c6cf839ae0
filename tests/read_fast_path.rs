//! The zero-mutex read fast path under adversarial interleavings, on
//! every STM.
//!
//! The coverage gap this suite closes: the fast paths (lock-free `ArcCell`
//! publication in LSA/Z/CS, the version-stamped TL2 value, S-STM's
//! lock-free visible reads, and Z-STM's long-write fast reserve) are only
//! exercised incidentally by the existing workload tests. Here they are
//! driven deliberately:
//!
//! * **hot-read + concurrent-writer interleavings** via
//!   `zstm_sim::fuzz::explore`: one writer read-modify-writes the hot
//!   object while readers (short and long) double-read it — every
//!   interleaving of the step sequences is enumerated on every engine
//!   configuration, natively and certified, and each recorded history is
//!   checked against its criterion, so a fast read that returned a torn
//!   or stale value would surface as a consistency violation;
//! * **torn-read stress**: an invariant-carrying pair hammered by readers
//!   while a writer republishes — committed reads must always observe the
//!   invariant, whether they land on the fast path or (while the writer
//!   holds its reservation) on the locked fallback;
//! * **no lost `HistoryGap` signals**: with a single-version history,
//!   pruning during a reader's window must surface as an abort (snapshot
//!   unavailable / validation), never as an inconsistent committed read.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use zstm::core::{StmConfig, TmFactory, TxKind};
use zstm::prelude::*;
use zstm_sim::fuzz::{explore, Engine};
use zstm_sim::{Op, Schedule, TxScript};

/// Hot-object conflict patterns: a writer RMWs object 0 while a reader
/// double-reads it (the double read is what catches a fast path serving
/// two different snapshots inside one transaction).
fn hot_patterns() -> Vec<(&'static str, Schedule)> {
    let double_read = |kind| TxScript {
        kind,
        ops: vec![Op::Read(0), Op::Read(0)],
    };
    let rmw = TxScript {
        kind: TxKind::Short,
        ops: vec![Op::Read(0), Op::Write(0)],
    };
    vec![
        (
            "hot-short-reader-vs-writer",
            Schedule {
                objects: 1,
                threads: vec![vec![double_read(TxKind::Short)], vec![rmw.clone()]],
                interleaving: vec![],
            },
        ),
        (
            "hot-long-reader-vs-writer",
            Schedule {
                objects: 1,
                threads: vec![vec![double_read(TxKind::Long)], vec![rmw.clone()]],
                interleaving: vec![],
            },
        ),
        (
            "hot-two-readers-vs-writer",
            Schedule {
                objects: 1,
                threads: vec![
                    vec![double_read(TxKind::Short), double_read(TxKind::Short)],
                    vec![rmw.clone(), rmw],
                ],
                interleaving: vec![],
            },
        ),
    ]
}

/// Runs every interleaving of every hot pattern on each of `engines`,
/// natively and certified. The interleavings in which a read lands while
/// the writer holds its reservation are the coverage of the locked
/// fallback; the others take the fast path.
fn explore_hot(engines: &[Engine]) {
    for &engine in engines {
        for certified in [false, true] {
            for (name, base) in hot_patterns() {
                if let Some(violation) = explore(engine, certified, &base) {
                    panic!(
                        "{} (certified: {certified}) {name}: {violation}",
                        engine.name()
                    );
                }
            }
        }
    }
}

#[test]
fn hot_interleavings_lsa_stay_linearizable() {
    explore_hot(&[Engine::Lsa, Engine::LsaNoReadSets]);
}

#[test]
fn hot_interleavings_tl2_stay_linearizable() {
    explore_hot(&[Engine::Tl2]);
}

#[test]
fn hot_interleavings_cs_stay_causally_serializable() {
    explore_hot(&[Engine::Cs, Engine::CsPlausible1, Engine::CsPlausible2]);
}

#[test]
fn hot_interleavings_sstm_stay_serializable() {
    explore_hot(&[Engine::S]);
}

#[test]
fn hot_interleavings_z_stay_z_linearizable() {
    explore_hot(&[Engine::Z]);
}

// ---------------------------------------------------------------------------
// Torn-read stress: committed reads always observe the pair invariant.
// ---------------------------------------------------------------------------

/// Hammers one hot `(n, n * 7)` pair with 2 readers while a writer
/// republishes it; every committed read must see the invariant intact.
/// `writer_kind` lets Z-STM route the updates through the long-write
/// (fast-reserve) path as well as the short path.
fn torn_read_stress<F: TmFactory>(stm: Arc<F>, writer_kind: TxKind) {
    let hot = Arc::new(stm.new_var((0u64, 0u64)));
    let stop = Arc::new(AtomicBool::new(false));
    let policy = RetryPolicy::default().with_max_attempts(100_000);
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let hot = Arc::clone(&hot);
            let stop = Arc::clone(&stop);
            let mut thread = stm.register_thread();
            std::thread::spawn(move || {
                let mut seen = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if let Ok((n, check)) =
                        atomically(&mut thread, TxKind::Short, &policy, |tx| tx.read(&hot))
                    {
                        assert_eq!(check, n * 7, "torn hot read");
                        assert!(n >= seen, "hot reads went backwards");
                        seen = n;
                    }
                }
            })
        })
        .collect();
    let mut writer = stm.register_thread();
    for _ in 0..400 {
        let _ = atomically(&mut writer, writer_kind, &policy, |tx| {
            let (n, _) = tx.read(&hot)?;
            tx.write(&hot, (n + 1, (n + 1) * 7))
        });
    }
    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        reader.join().expect("reader panicked");
    }
}

#[test]
fn torn_read_stress_all_factories() {
    torn_read_stress(Arc::new(LsaStm::new(StmConfig::new(3))), TxKind::Short);
    torn_read_stress(Arc::new(Tl2Stm::new(StmConfig::new(3))), TxKind::Short);
    torn_read_stress(
        Arc::new(CsStm::with_vector_clock(StmConfig::new(3))),
        TxKind::Short,
    );
    torn_read_stress(
        Arc::new(SStm::with_vector_clock(StmConfig::new(3))),
        TxKind::Short,
    );
    torn_read_stress(Arc::new(ZStm::new(StmConfig::new(3))), TxKind::Short);
}

#[test]
fn torn_read_stress_z_long_writer_fast_reserve() {
    // Long update transactions drive `reserve_long`, whose uncontended
    // attempts go through the meta-CAS fast open.
    torn_read_stress(Arc::new(ZStm::new(StmConfig::new(3))), TxKind::Long);
}

#[test]
fn sharded_clock_hotspot_stays_consistent() {
    use zstm::workload::{run_read_hotspot, HotspotConfig};
    let mut config = HotspotConfig::quick(2);
    config.duration = Duration::from_millis(100);
    let stm = Arc::new(ZStm::with_clock(StmConfig::new(2), ShardedClock::new(2)));
    let report = run_read_hotspot(&stm, &config);
    assert!(report.consistent, "sharded Z hotspot tore a read");
    assert!(report.reads > 0);
}

// ---------------------------------------------------------------------------
// HistoryGap signals: pruning surfaces as aborts, never as silent tears.
// ---------------------------------------------------------------------------

/// With a single retained version, a reader that loses the race against
/// pruning must abort (snapshot unavailable / validation failure) — the
/// `HistoryGap` signal must not be swallowed by the fast paths into a
/// committed transaction that mixes two snapshots.
fn history_gap_stress<F: TmFactory>(stm: Arc<F>) {
    let a = Arc::new(stm.new_var(0i64));
    let b = Arc::new(stm.new_var(0i64));
    let stop = Arc::new(AtomicBool::new(false));
    let policy = RetryPolicy::default().with_max_attempts(100_000);
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let (a, b) = (Arc::clone(&a), Arc::clone(&b));
            let stop = Arc::clone(&stop);
            let mut thread = stm.register_thread();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    // Committed double reads must be a consistent snapshot;
                    // aborts (pruned history, validation) are fine.
                    if let Ok((va, vb)) = atomically(&mut thread, TxKind::Short, &policy, |tx| {
                        Ok((tx.read(&a)?, tx.read(&b)?))
                    }) {
                        assert_eq!(va, vb, "pruned history leaked a mixed snapshot");
                    }
                }
            })
        })
        .collect();
    let mut writer = stm.register_thread();
    for i in 1..=400i64 {
        let _ = atomically(&mut writer, TxKind::Short, &policy, |tx| {
            tx.write(&a, i)?;
            tx.write(&b, i)
        });
    }
    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        reader.join().expect("reader panicked");
    }
}

#[test]
fn pruning_aborts_instead_of_tearing() {
    // max_versions(1): every commit prunes, so `successor_ct` hits the
    // `HistoryGap::Pruned` arm constantly on the multi-version engines.
    let mut config = StmConfig::new(3);
    config.max_versions(1);
    history_gap_stress(Arc::new(LsaStm::new(config.clone())));
    history_gap_stress(Arc::new(ZStm::new(config.clone())));
    history_gap_stress(Arc::new(CsStm::with_vector_clock(config.clone())));
    history_gap_stress(Arc::new(SStm::with_vector_clock(config)));
}
