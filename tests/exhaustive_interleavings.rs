//! Exhaustive systematic concurrency testing: for several small conflict
//! patterns, run **every possible interleaving** against every engine
//! configuration, natively and under the SSI certifier, and check each
//! recorded history with `zstm_sim::fuzz::explore`.
//!
//! Small schedules keep the state space tractable (two transactions of
//! two operations → 20 interleavings); within it, coverage is total — no
//! race outcome of the scripted pattern is left untested. The hot-object
//! patterns of the read fast path are explored the same way in
//! `read_fast_path.rs`.

use zstm::core::TxKind;
use zstm_sim::fuzz::{explore, Engine};
use zstm_sim::{Op, Schedule, TxScript};

fn rmw(kind: TxKind, obj: usize) -> TxScript {
    TxScript {
        kind,
        ops: vec![Op::Read(obj), Op::Write(obj)],
    }
}

/// The conflict patterns to explore exhaustively.
fn patterns() -> Vec<(&'static str, Schedule)> {
    vec![
        (
            "rmw-same-object",
            Schedule {
                objects: 1,
                threads: vec![vec![rmw(TxKind::Short, 0)], vec![rmw(TxKind::Short, 0)]],
                interleaving: vec![],
            },
        ),
        (
            "write-skew",
            Schedule {
                objects: 2,
                threads: vec![
                    vec![TxScript {
                        kind: TxKind::Short,
                        ops: vec![Op::Read(0), Op::Write(1)],
                    }],
                    vec![TxScript {
                        kind: TxKind::Short,
                        ops: vec![Op::Read(1), Op::Write(0)],
                    }],
                ],
                interleaving: vec![],
            },
        ),
        (
            "long-scan-vs-update",
            Schedule {
                objects: 2,
                threads: vec![
                    vec![TxScript {
                        kind: TxKind::Long,
                        ops: vec![Op::Read(0), Op::Read(1)],
                    }],
                    vec![rmw(TxKind::Short, 0)],
                ],
                interleaving: vec![],
            },
        ),
        (
            "overlapping-transfers",
            Schedule {
                objects: 3,
                threads: vec![
                    vec![TxScript {
                        kind: TxKind::Short,
                        ops: vec![Op::Read(0), Op::Write(1)],
                    }],
                    vec![TxScript {
                        kind: TxKind::Short,
                        ops: vec![Op::Read(1), Op::Write(2)],
                    }],
                ],
                interleaving: vec![],
            },
        ),
        (
            // A short joins the long transaction's zone through object 0,
            // reads it before the long one writes it, and updates object
            // 1, which the long one read.
            "zone-reader-vs-long-upgrade",
            Schedule {
                objects: 2,
                threads: vec![
                    vec![TxScript {
                        kind: TxKind::Short,
                        ops: vec![Op::Read(0), Op::Write(1)],
                    }],
                    vec![TxScript {
                        kind: TxKind::Long,
                        ops: vec![Op::Read(0), Op::Read(1), Op::Write(0)],
                    }],
                ],
                interleaving: vec![],
            },
        ),
        (
            // `tests/corpus/relabel_past_long_z.rs`: a short whose zone and
            // object are both past moves to `CT` holding a read from
            // before the long transaction that committed at `CT`.
            "relabel-past-long",
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
                interleaving: vec![],
            },
        ),
    ]
}

/// Runs every interleaving of every pattern on `engine`, natively and
/// certified.
fn explore_patterns(engine: Engine) {
    for certified in [false, true] {
        for (name, base) in patterns() {
            if let Some(violation) = explore(engine, certified, &base) {
                panic!(
                    "{} (certified: {certified}) {name}: {violation}",
                    engine.name()
                );
            }
        }
    }
}

#[test]
fn exhaustive_lsa_is_linearizable() {
    explore_patterns(Engine::Lsa);
}

#[test]
fn exhaustive_lsa_noreadsets_is_linearizable() {
    explore_patterns(Engine::LsaNoReadSets);
}

#[test]
fn exhaustive_tl2_is_linearizable() {
    explore_patterns(Engine::Tl2);
}

#[test]
fn exhaustive_cs_is_causally_serializable() {
    explore_patterns(Engine::Cs);
}

#[test]
fn exhaustive_cs_plausible_r1_is_causally_serializable() {
    explore_patterns(Engine::CsPlausible1);
}

#[test]
fn exhaustive_cs_plausible_r2_is_causally_serializable() {
    explore_patterns(Engine::CsPlausible2);
}

#[test]
fn exhaustive_s_stm_is_serializable() {
    explore_patterns(Engine::S);
}

#[test]
fn exhaustive_z_is_z_linearizable() {
    explore_patterns(Engine::Z);
}
