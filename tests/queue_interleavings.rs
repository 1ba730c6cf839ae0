//! Retry semantics under `zstm-sim` deterministic interleavings on every
//! engine configuration, native and certified, plus randomized
//! queue-shaped schedules whose failures are shrunk with the
//! delta-debugging `minimize_schedule` before being reported.
//!
//! The sim drives the raw engine SPI, so a blocking retry appears as an
//! [`Op::ReadRetry`] guard: read an object and, if it is still zero, end
//! the attempt with [`AbortReason::Retry`]. These tests pin down what the
//! API layer relies on: the retry abort releases everything (a guarded
//! transaction leaves no trace), it is attributed to the dedicated
//! statistics counter on every engine, and whether a guard blocks is
//! decided *only* by whether the producing write committed before the
//! guarded read — under every interleaving.

use zstm::prelude::*;
use zstm_sim::fuzz::{run_recorded, Engine};
use zstm_sim::{enumerate_interleavings, minimize_schedule, Op, Outcome, Schedule, TxScript};
use zstm_util::XorShift64;

/// Runs `schedule` on every configuration of `Engine::ALL`, native and
/// certified, and hands each outcome to `verify`; when `verify` fails the
/// schedule is first shrunk against the same predicate and the minimal
/// reproducer is included in the panic message.
fn check_on_all_factories(
    schedule: &Schedule,
    verify: impl Fn(&str, &Outcome) -> Result<(), String>,
) {
    for engine in Engine::ALL {
        for certified in [false, true] {
            let name = format!("{} (certified: {certified})", engine.name());
            let run_on =
                |schedule: &Schedule| verify(&name, &run_recorded(engine, certified, schedule).0);
            if let Err(message) = run_on(schedule) {
                // Shrink before reporting: keep only edits that still fail.
                let minimal =
                    minimize_schedule(schedule, &mut |candidate| run_on(candidate).is_err());
                let minimal_message =
                    run_on(&minimal).expect_err("minimizer preserves the failure");
                panic!(
                    "{name}: {message}\nminimal reproducer: {minimal:?}\n\
                     minimal failure: {minimal_message}"
                );
            }
        }
    }
}

fn guard(obj: usize) -> TxScript {
    TxScript {
        kind: TxKind::Short,
        ops: vec![Op::ReadRetry(obj)],
    }
}

fn write(obj: usize) -> TxScript {
    TxScript {
        kind: TxKind::Short,
        ops: vec![Op::Write(obj)],
    }
}

#[test]
fn guard_blocks_iff_the_write_has_not_committed_under_every_interleaving() {
    // Thread 0: write object 0 (2 steps). Thread 1: guarded read
    // (2 steps). Enumerate all 6 interleavings; in each, the guard must
    // retry exactly when its read step precedes the writer's commit step.
    let base = Schedule {
        objects: 1,
        threads: vec![vec![write(0)], vec![guard(0)]],
        interleaving: vec![],
    };
    for interleaving in enumerate_interleavings(&[2, 2]) {
        let mut schedule = base.clone();
        schedule.interleaving = interleaving.clone();
        // The guard's read is thread 1's first step; the writer acquires
        // at its first step and commits at its second.
        let read_at = interleaving
            .iter()
            .position(|&t| t == 1)
            .expect("guard read present");
        let write_at = interleaving
            .iter()
            .position(|&t| t == 0)
            .expect("writer acquire present");
        let commit_at = interleaving
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t == 0)
            .map(|(i, _)| i)
            .nth(1)
            .expect("writer commit present");
        // Three regimes. Before the writer touches the object the guard
        // *must* block (its read returns the pristine zero on every
        // engine). After the writer committed it must *not* block: every
        // engine's short transactions strive for the latest value, so the
        // guard either reads the fresh value and commits or — on engines
        // whose snapshot cannot be extended past their begin time, like
        // TL2 (sim workers begin their transaction when the worker
        // starts, not at the first step token) — conflict-aborts; either
        // way `retried` stays zero. In between (reading a write-reserved
        // object) only the accounting is asserted.
        let regime = if read_at < write_at {
            "before-acquire"
        } else if read_at > commit_at {
            "after-commit"
        } else {
            "during-write"
        };
        check_on_all_factories(&schedule, |name, outcome| {
            if outcome.stats.blocking_retries() != outcome.retried as u64 {
                return Err(format!(
                    "{name}: stats retry counter ({}) diverges from driver \
                     count ({})",
                    outcome.stats.blocking_retries(),
                    outcome.retried
                ));
            }
            match regime {
                "before-acquire" => {
                    if outcome.retried != 1 || outcome.committed != 1 {
                        return Err(format!(
                            "{name}: guard before the write must block once and \
                             only the writer commits (retried = {}, committed = {})",
                            outcome.retried, outcome.committed
                        ));
                    }
                }
                "after-commit" => {
                    if outcome.retried != 0 {
                        return Err(format!(
                            "{name}: guard after the commit must not block — it \
                             reads the fresh value or conflict-aborts \
                             (retried = {})",
                            outcome.retried
                        ));
                    }
                    if outcome.committed < 1 {
                        return Err(format!("{name}: the writer must commit ({outcome:?})"));
                    }
                }
                _ => {
                    if outcome.committed + outcome.aborted != outcome.attempted {
                        return Err(format!(
                            "{name}: attempt accounting broken in the \
                             during-write regime ({outcome:?})"
                        ));
                    }
                }
            }
            Ok(())
        });
    }
}

#[test]
fn retried_guard_leaves_no_trace() {
    // A guard that blocks between two independent writers: the retry
    // abort must not prevent either writer from committing (the guard
    // holds no locks, reserves no objects).
    let schedule = Schedule {
        objects: 2,
        threads: vec![vec![write(1)], vec![guard(0)], vec![write(1)]],
        // Guard reads (and dooms) first, then both writers run to commit.
        interleaving: vec![1, 1, 0, 0, 2, 2],
    };
    check_on_all_factories(&schedule, |name, outcome| {
        if outcome.committed != 2 {
            return Err(format!(
                "{name}: a blocked guard must not impede writers \
                 (committed = {})",
                outcome.committed
            ));
        }
        if outcome.retried != 1 {
            return Err(format!("guard must retry, got {}", outcome.retried));
        }
        Ok(())
    });
}

#[test]
fn randomized_queue_shaped_schedules_preserve_retry_accounting() {
    // Random small schedules mixing writes and guards over a tiny object
    // pool. Two engine-independent invariants:
    //   attempted == committed + aborted, and
    //   retried counts match the per-reason statistics exactly.
    // Failures are shrunk to a minimal schedule before being reported.
    let mut rng = XorShift64::new(0x5eed_cafe);
    for _ in 0..40 {
        let threads = 2 + (rng.next_u64() % 2) as usize;
        let objects = 1 + (rng.next_u64() % 2) as usize;
        let mut schedule = Schedule {
            objects,
            threads: (0..threads)
                .map(|_| {
                    (0..1 + rng.next_u64() % 2)
                        .map(|_| {
                            let obj = (rng.next_u64() % objects as u64) as usize;
                            if rng.next_u64() % 3 == 0 {
                                guard(obj)
                            } else {
                                TxScript {
                                    kind: TxKind::Short,
                                    ops: vec![Op::Read(obj), Op::Write(obj)],
                                }
                            }
                        })
                        .collect()
                })
                .collect(),
            interleaving: Vec::new(),
        };
        let total_steps = schedule.total_steps();
        schedule.interleaving = (0..total_steps * 2)
            .map(|_| (rng.next_u64() % threads as u64) as usize)
            .collect();
        check_on_all_factories(&schedule, |name, outcome| {
            if outcome.committed + outcome.aborted != outcome.attempted {
                return Err(format!(
                    "{name}: attempt accounting broken ({} + {} != {})",
                    outcome.committed, outcome.aborted, outcome.attempted
                ));
            }
            if outcome.stats.blocking_retries() != outcome.retried as u64 {
                return Err(format!(
                    "{name}: stats retry counter ({}) diverges from driver \
                     count ({})",
                    outcome.stats.blocking_retries(),
                    outcome.retried
                ));
            }
            if outcome.stats.total_commits() != outcome.committed as u64 {
                return Err(format!(
                    "{name}: stats commits ({}) diverge from driver count ({})",
                    outcome.stats.total_commits(),
                    outcome.committed
                ));
            }
            Ok(())
        });
    }
}
