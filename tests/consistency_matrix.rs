//! The consistency matrix: every engine configuration, run under a
//! randomized concurrent workload with history recording, must satisfy
//! its claimed criterion (`zstm_sim::fuzz::Engine::check_native`, or
//! serializability under the SSI certifier) — across several seeds.
//!
//! Every configuration runs the same threaded workload through
//! `Engine::record`, and `describe_violation` checks each recorded
//! history.

use std::sync::Arc;

use zstm::core::TmFactory;
use zstm::history::{check_causal_serializable, check_linearizable, check_serializable};
use zstm::prelude::*;
use zstm::util::XorShift64;
use zstm_sim::fuzz::{describe_violation, Engine, OnFactory};

const THREADS: usize = 3;
const OBJECTS: usize = 10;
const TXS_PER_THREAD: u64 = 150;

/// Three worker threads of transfers, read-only pairs and long scans over
/// ten shared variables, seeded by `.0`.
struct Workload(u64);

impl OnFactory for Workload {
    type Out = ();

    fn run<F: TmFactory>(self, stm: &Arc<F>) {
        let seed = self.0;
        let vars: Arc<Vec<F::Var<i64>>> =
            Arc::new((0..OBJECTS).map(|_| stm.new_var(5i64)).collect());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let vars = Arc::clone(&vars);
                let mut thread = stm.register_thread();
                std::thread::spawn(move || {
                    let mut rng = XorShift64::new(seed ^ (t as u64 * 0x9e37));
                    let policy = RetryPolicy::default().with_max_attempts(50_000);
                    for i in 0..TXS_PER_THREAD {
                        match i % 13 {
                            12 => {
                                // Long scan.
                                let _ = atomically(&mut thread, TxKind::Long, &policy, |tx| {
                                    let mut sum = 0;
                                    for var in vars.iter() {
                                        sum += tx.read(var)?;
                                    }
                                    Ok(sum)
                                });
                            }
                            11 => {
                                // Read-only pair.
                                let a = rng.next_range(OBJECTS as u64) as usize;
                                let b = rng.next_range(OBJECTS as u64) as usize;
                                let _ = atomically(&mut thread, TxKind::Short, &policy, |tx| {
                                    Ok(tx.read(&vars[a])? + tx.read(&vars[b])?)
                                });
                            }
                            _ => {
                                let a = rng.next_range(OBJECTS as u64) as usize;
                                let b = rng.next_range(OBJECTS as u64) as usize;
                                if a == b {
                                    continue;
                                }
                                let _ = atomically(&mut thread, TxKind::Short, &policy, |tx| {
                                    let va = tx.read(&vars[a])?;
                                    let vb = tx.read(&vars[b])?;
                                    tx.write(&vars[a], va - 1)?;
                                    tx.write(&vars[b], vb + 1)
                                });
                            }
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("worker panicked");
        }
    }
}

/// Runs the workload on each of `engines`, natively or certified, at
/// three seeds, and checks every recorded history.
fn holds(engines: &[Engine], certified: bool) {
    for &engine in engines {
        for seed in [1, 2, 3] {
            let ((), history) = engine.record(certified, THREADS, Workload(seed));
            if let Some(violation) = describe_violation(engine, certified, &history) {
                panic!(
                    "{} (certified: {certified}) seed {seed}: {violation}",
                    engine.name()
                );
            }
        }
    }
}

#[test]
fn lsa_histories_are_linearizable() {
    holds(&[Engine::Lsa], false);
}

#[test]
fn lsa_noreadsets_histories_are_linearizable() {
    holds(&[Engine::LsaNoReadSets], false);
}

#[test]
fn tl2_histories_are_linearizable() {
    holds(&[Engine::Tl2], false);
}

#[test]
fn cs_vector_histories_are_causally_serializable() {
    holds(&[Engine::Cs], false);
}

#[test]
fn cs_plausible_histories_are_causally_serializable() {
    // Plausible clocks over-order but never mis-order: the guarantee holds
    // for every r.
    holds(&[Engine::CsPlausible1, Engine::CsPlausible2], false);
}

#[test]
fn s_stm_histories_are_serializable() {
    holds(&[Engine::S], false);
}

#[test]
fn z_stm_histories_are_z_linearizable_and_serializable() {
    holds(&[Engine::Z], false);
}

/// Every configuration wrapped in the online SSI certifier
/// ([`CertifiedFactory`]) must produce **serializable** histories —
/// including CS-STM, whose native guarantee (causal serializability) is
/// strictly weaker. The certifier injects commit-time aborts through the
/// normal `AbortReason` path, so the `atomically` retry loop absorbs
/// them transparently.
#[test]
fn certified_histories_are_serializable() {
    holds(&Engine::ALL, true);
}

/// The hierarchy of criteria on real histories: every linearizable history
/// is serializable and causally serializable.
#[test]
fn criteria_hierarchy_on_real_histories() {
    let ((), history) = Engine::Lsa.record(false, THREADS, Workload(99));
    assert!(check_linearizable(&history).is_ok());
    assert!(check_serializable(&history).is_ok());
    assert!(check_causal_serializable(&history).is_ok());
}
