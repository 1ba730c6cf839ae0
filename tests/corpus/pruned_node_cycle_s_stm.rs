//! Regression: minimized proptest counterexample for an S-STM bug where
//! the precedence graph pruned a committed writer (`B1`) that a committed
//! reader (`T_A`) still pointed at while its version was still current —
//! a later reader (`B2`) then closed the cycle `B2 → T_A → B1 → B2`
//! undetected. The fix requires pruned nodes to have in-degree zero.
//!
//! Promotion workflow: see `tests/corpus/README.md`.

use zstm::core::TxKind;
use zstm_sim::fuzz::{describe_violation, run_recorded, Engine};
use zstm_sim::{Op, Schedule, TxScript};

fn schedule() -> Schedule {
    Schedule {
        objects: 3,
        threads: vec![
            vec![TxScript {
                kind: TxKind::Short,
                ops: vec![Op::Read(1), Op::Write(2), Op::Read(0), Op::Read(0)],
            }],
            vec![
                TxScript {
                    kind: TxKind::Short,
                    ops: vec![Op::Write(1)],
                },
                TxScript {
                    kind: TxKind::Short,
                    ops: vec![Op::Read(2), Op::Read(1)],
                },
            ],
        ],
        interleaving: vec![],
    }
}

#[test]
fn s_stm_regression_pruned_node_cycle() {
    let (_, history) = run_recorded(Engine::S, false, &schedule());
    assert_eq!(describe_violation(Engine::S, false, &history), None);
}
