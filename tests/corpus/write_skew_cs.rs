//! Seed corpus entry: the classic two-transaction write skew, shrunk by
//! `zstm_sim::fuzz::shrunk_divergence` (the
//! `write_skew_divergence_shrinks_to_classic_core` unit test in
//! `crates/sim/src/fuzz.rs` pins this exact schedule as the shrinker's
//! output).
//!
//! This is a *divergence witness* rather than a bug regression: CS-STM's
//! native criterion (causal serializability) commits both transactions
//! even though no serial order exists, and the SSI-certified wrapper
//! restores serializability by aborting exactly one of them. The file
//! documents — permanently and executably — what certification buys on
//! the one engine that is natively weaker than serializable.
//!
//! Promotion workflow: see `tests/corpus/README.md`.

use zstm::core::TxKind;
use zstm::history::check_serializable;
use zstm_sim::fuzz::{describe_violation, run_recorded, Engine};
use zstm_sim::{Op, Schedule, TxScript};

fn schedule() -> Schedule {
    Schedule {
        objects: 2,
        threads: vec![
            vec![TxScript {
                kind: TxKind::Short,
                ops: vec![Op::Read(1), Op::Write(0)],
            }],
            vec![TxScript {
                kind: TxKind::Short,
                ops: vec![Op::Read(0), Op::Write(1)],
            }],
        ],
        interleaving: vec![],
    }
}

#[test]
fn write_skew_cs_native_commits_nonserializably() {
    let (outcome, history) = run_recorded(Engine::Cs, false, &schedule());
    assert_eq!(outcome.committed, 2, "CS-STM commits both natively");
    assert_eq!(describe_violation(Engine::Cs, false, &history), None);
    assert!(
        check_serializable(&history).is_err(),
        "the write skew must be visible in the native history"
    );
}

#[test]
fn write_skew_cs_certified_restores_serializability() {
    let (outcome, history) = run_recorded(Engine::Cs, true, &schedule());
    assert_eq!(outcome.committed, 1);
    assert_eq!(outcome.stats.certification_aborts(), 1);
    assert_eq!(describe_violation(Engine::Cs, true, &history), None);
}
