//! Auto-promoted fuzz counterexample: native z-stm violated its
//! criterion on this schedule when the file was generated.
//!
//! Violation: z-linearizability violated: zone-consistent serialization does not exist (cycle: [tx#4, tx#3, tx#1])
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
                ops: vec![Op::Write(0)],
            }],
            vec![
                TxScript {
                    kind: TxKind::Long,
                    ops: vec![Op::Write(0)],
                },
                TxScript {
                    kind: TxKind::Short,
                    ops: vec![Op::Read(1), Op::Read(2)],
                },
            ],
            vec![TxScript {
                kind: TxKind::Long,
                ops: vec![Op::Read(0), Op::Read(2), Op::Write(1)],
            }],
        ],
        interleaving: vec![2, 0, 1, 0, 1, 1, 2, 2, 2],
    }
}

#[test]
fn fuzz_z_stm_native() {
    let (_, history) = run_recorded(Engine::Z, false, &schedule());
    assert_eq!(describe_violation(Engine::Z, false, &history), None);
}
