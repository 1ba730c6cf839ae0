//! Regression: minimized fuzz counterexample for a genuine Z-STM bug — a
//! same-zone short transaction read the *pre-long* version of an object
//! the long transaction had write-reserved, while also updating an object
//! the long transaction had already read, closing the MVSG cycle
//! `S ↔ L`. Fixed by making short reads arbitrate with active long
//! writers (long writes are visible, Section 5.1).
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
                ops: vec![Op::Write(0), Op::Read(2)],
            }],
            vec![TxScript {
                kind: TxKind::Short,
                ops: vec![Op::Read(0)],
            }],
            vec![TxScript {
                kind: TxKind::Long,
                ops: vec![Op::Read(0), Op::Read(0), Op::Write(2)],
            }],
        ],
        interleaving: vec![2, 2, 2, 0, 0],
    }
}

#[test]
fn z_regression_read_of_long_reserved() {
    let (_, history) = run_recorded(Engine::Z, false, &schedule());
    assert_eq!(describe_violation(Engine::Z, false, &history), None);
}
