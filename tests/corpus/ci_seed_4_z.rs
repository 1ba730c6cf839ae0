//! Auto-promoted fuzz counterexample: native z-stm violated its
//! criterion on this schedule when the file was generated.
//!
//! Violation: serializability violated: multiversion serialization graph has a cycle (cycle: [tx#1823104, tx#1823103])
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
                kind: TxKind::Long,
                ops: vec![Op::Read(1), Op::Read(2), Op::Write(2), Op::Read(0)],
            }],
            vec![TxScript {
                kind: TxKind::Short,
                ops: vec![Op::Read(2), Op::Write(0)],
            }],
            vec![],
        ],
        interleaving: vec![0, 0, 1, 0, 0, 1, 1],
    }
}

#[test]
fn fuzz_z_stm_native() {
    let (_, history) = run_recorded(Engine::Z, false, &schedule());
    assert_eq!(describe_violation(Engine::Z, false, &history), None);
}
