//! Auto-promoted fuzz counterexample: native z-stm violated its
//! criterion on this schedule when the file was generated.
//!
//! Violation: z-linearizability violated: zone-consistent serialization does not exist (cycle: [tx#1581790, tx#1581793, tx#1581791, tx#1581789])
//!
//! Promotion workflow: see `tests/corpus/README.md`.

use zstm::core::TxKind;
use zstm_sim::fuzz::{describe_violation, run_recorded, Engine};
use zstm_sim::{Op, Schedule, TxScript};

fn schedule() -> Schedule {
    Schedule {
        objects: 2,
        threads: vec![
            vec![],
            vec![
                TxScript {
                    kind: TxKind::Short,
                    ops: vec![Op::Write(1)],
                },
                TxScript {
                    kind: TxKind::Short,
                    ops: vec![Op::Read(0)],
                },
            ],
            vec![TxScript {
                kind: TxKind::Long,
                ops: vec![Op::Read(1), Op::Read(0), Op::Write(0)],
            }],
        ],
        interleaving: vec![2, 2, 1, 1],
    }
}

#[test]
fn fuzz_z_stm_native() {
    let (_, history) = run_recorded(Engine::Z, false, &schedule());
    assert_eq!(describe_violation(Engine::Z, false, &history), None);
}
