//! Cross-STM stress: heavier mixed workloads with invariants checked both
//! during the run (committed long scans) and at the end.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use zstm::core::{StmConfig, TmFactory};
use zstm::prelude::*;
use zstm::util::{run_with_deadline, XorShift64};
use zstm_sim::fuzz::{describe_violation, Engine, OnFactory};

/// [`audits_under_churn`] under a deadline: the audit loop bounds itself
/// to 20 s, so past that a writer that never stops, or an audit that
/// never returns, fails with the engine's name.
fn stress_audits<F: TmFactory>(stm: Arc<F>, writer_threads: usize, audits: usize, strict: bool) {
    let name = format!("stress audits [{}]", stm.name());
    run_with_deadline(&name, Duration::from_secs(60), move || {
        audits_under_churn(stm, writer_threads, audits, strict)
    });
}

/// Runs transfers on `writer_threads` threads while the calling thread
/// audits via long transactions; every committed audit must see the exact
/// total.
fn audits_under_churn<F: TmFactory>(
    stm: Arc<F>,
    writer_threads: usize,
    audits: usize,
    strict: bool,
) {
    const ACCOUNTS: usize = 48;
    const INITIAL: i64 = 25;
    let accounts: Arc<Vec<F::Var<i64>>> =
        Arc::new((0..ACCOUNTS).map(|_| stm.new_var(INITIAL)).collect());
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..writer_threads)
        .map(|t| {
            let stm = Arc::clone(&stm);
            let accounts = Arc::clone(&accounts);
            let stop = Arc::clone(&stop);
            let mut thread = stm.register_thread();
            std::thread::spawn(move || {
                let mut rng = XorShift64::new(0xfeed + t as u64);
                while !stop.load(Ordering::Relaxed) {
                    let a = rng.next_range(ACCOUNTS as u64) as usize;
                    let b = rng.next_range(ACCOUNTS as u64) as usize;
                    if a == b {
                        continue;
                    }
                    let _ = atomically(
                        &mut thread,
                        TxKind::Short,
                        &RetryPolicy::default().with_max_attempts(100_000),
                        |tx| {
                            let va = tx.read(&accounts[a])?;
                            let vb = tx.read(&accounts[b])?;
                            tx.write(&accounts[a], va - 1)?;
                            tx.write(&accounts[b], vb + 1)
                        },
                    );
                }
            })
        })
        .collect();

    let mut auditor = stm.register_thread();
    let mut committed_audits = 0usize;
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while committed_audits < audits && std::time::Instant::now() < deadline {
        let result = atomically(
            &mut auditor,
            TxKind::Long,
            &RetryPolicy::default().with_max_attempts(500),
            |tx| {
                let mut sum = 0i64;
                for account in accounts.iter() {
                    sum += tx.read(account)?;
                }
                Ok(sum)
            },
        );
        if let Ok(sum) = result {
            assert_eq!(
                sum,
                INITIAL * ACCOUNTS as i64,
                "a committed audit saw a torn state"
            );
            committed_audits += 1;
        }
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().expect("writer panicked");
    }
    if strict {
        assert!(
            committed_audits >= audits,
            "only {committed_audits}/{audits} audits committed"
        );
    }
    // Quiescent final check.
    let total = atomically(&mut auditor, TxKind::Long, &RetryPolicy::default(), |tx| {
        let mut sum = 0i64;
        for account in accounts.iter() {
            sum += tx.read(account)?;
        }
        Ok(sum)
    })
    .expect("final audit");
    assert_eq!(total, INITIAL * ACCOUNTS as i64);
}

#[test]
fn stress_z_stm_audits_under_churn() {
    let stm = Arc::new(ZStm::new(StmConfig::new(4)));
    // Z-STM must commit every audit promptly (that is its raison d'être).
    stress_audits(stm, 2, 40, true);
}

#[test]
fn stress_lsa_audits_under_churn() {
    let stm = Arc::new(LsaStm::new(StmConfig::new(4)));
    // LSA read-only audits use the multi-version history: strict too.
    stress_audits(stm, 2, 20, true);
}

#[test]
fn stress_lsa_noreadsets_audits_under_churn() {
    let mut config = StmConfig::new(4);
    config.readonly_readsets(false);
    let stm = Arc::new(LsaStm::new(config));
    stress_audits(stm, 2, 20, true);
}

#[test]
fn stress_tl2_audits_under_churn() {
    let stm = Arc::new(Tl2Stm::new(StmConfig::new(4)));
    // TL2 has no old versions: audits may starve, but any that commit
    // must be consistent.
    stress_audits(stm, 2, 3, false);
}

#[test]
fn stress_cs_audits_under_churn() {
    let stm = Arc::new(CsStm::with_vector_clock(StmConfig::new(4)));
    // CS-STM is single-version as well: non-strict.
    stress_audits(stm, 2, 3, false);
}

#[test]
fn stress_s_stm_audits_under_churn() {
    let stm = Arc::new(SStm::with_vector_clock(StmConfig::new(4)));
    stress_audits(stm, 2, 3, false);
}

/// Transactions per thread in one recorded run of [`ZoneReaders`].
const ZONE_READER_TXS: usize = 60;

/// Thread 0 runs long transactions `R(a), R(b), W(a)`; threads 1 and 2 run
/// short ones `R(a), W(b)`, one attempt each. A short whose first open is
/// `a` joins the zone of the long transaction that stamped it, and then
/// races that transaction's write reservation of `a` with its mark of `a`
/// (the fence pair in `zstm_z`'s crate docs) — a window only a few
/// instructions wide in an optimised build.
struct ZoneReaders;

impl OnFactory for ZoneReaders {
    type Out = ();

    fn run<F: TmFactory>(self, stm: &Arc<F>) {
        let vars: Arc<[F::Var<i64>; 2]> = Arc::new([stm.new_var(0), stm.new_var(0)]);
        let start = Arc::new(Barrier::new(3));
        let threads: Vec<_> = (0..3)
            .map(|t| {
                let (vars, start) = (Arc::clone(&vars), Arc::clone(&start));
                let mut thread = stm.register_thread();
                std::thread::spawn(move || {
                    let once = RetryPolicy::default().with_max_attempts(1);
                    let [a, b] = &*vars;
                    start.wait();
                    for _ in 0..ZONE_READER_TXS {
                        let _ = if t == 0 {
                            atomically(&mut thread, TxKind::Long, &once, |tx| {
                                let sum = tx.read(a)? + tx.read(b)?;
                                tx.write(a, sum)
                            })
                        } else {
                            atomically(&mut thread, TxKind::Short, &once, |tx| {
                                let v = tx.read(a)?;
                                tx.write(b, v + 1)
                            })
                        };
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().expect("worker panicked");
        }
    }
}

#[test]
fn stress_z_stm_zone_readers_against_long_write_upgrades() {
    run_with_deadline(
        "zone readers vs long upgrades [z-stm]",
        Duration::from_secs(60),
        || {
            for run in 0..200 {
                let ((), history) = Engine::Z.record(false, 3, ZoneReaders);
                if let Some(violation) = describe_violation(Engine::Z, false, &history) {
                    panic!("run {run}: {violation}");
                }
            }
        },
    );
}
