//! Property-based consistency testing: random scripted interleavings are
//! replayed deterministically against every engine configuration (via
//! `zstm-sim`), and each recorded history must satisfy the criterion
//! `zstm_sim::fuzz::describe_violation` holds it to.
//!
//! This is the strongest correctness net in the repository: unlike the
//! free-running stress tests, every counterexample proptest finds is a
//! *replayable schedule* that can be minimized and turned into a unit
//! test.
//!
//! A case draws a seed and maps it through `fuzz::random_schedule`, the
//! fuzzer's own generator (long transactions included on every engine).
//! Each test below names the configurations it runs and whether they are
//! wrapped in the SSI certifier; together they cover
//! `Engine::ALL` × {native, certified}.

use proptest::prelude::*;
use zstm_sim::fuzz::{describe_violation, random_schedule, run_recorded, Engine};
use zstm_sim::{minimize_schedule, Schedule};
use zstm_util::XorShift64;

fn schedule_strategy() -> impl Strategy<Value = Schedule> {
    any::<u64>()
        .prop_map(|seed| random_schedule(&mut XorShift64::new(seed)))
        // Route failing schedules through the sim's delta-debugging
        // minimizer, so proptest reports a shrunk counterexample ready
        // to be promoted into a regression test (tests/corpus/README.md).
        .prop_shrink_with(
            |schedule: &Schedule, fails: &mut dyn FnMut(&Schedule) -> bool| {
                if !fails(schedule) {
                    return None;
                }
                Some(minimize_schedule(schedule, fails))
            },
        )
}

/// Replays `schedule` on each of `engines`, natively or certified: the
/// recorder must see exactly the commits `run_schedule` counted, and the
/// history must pass `describe_violation`.
fn holds(engines: &[Engine], certified: bool, schedule: &Schedule) -> Result<(), TestCaseError> {
    for &engine in engines {
        let (outcome, history) = run_recorded(engine, certified, schedule);
        let label = format!("{} (certified: {certified})", engine.name());
        prop_assert_eq!(
            history.committed().count(),
            outcome.committed,
            "{}: recorded vs scheduled commits",
            label
        );
        if let Some(violation) = describe_violation(engine, certified, &history) {
            return Err(TestCaseError::fail(format!("{label}: {violation}")));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn lsa_random_schedules_are_linearizable(schedule in schedule_strategy()) {
        holds(&[Engine::Lsa], false, &schedule)?;
    }

    #[test]
    fn lsa_noreadsets_random_schedules_are_linearizable(schedule in schedule_strategy()) {
        holds(&[Engine::LsaNoReadSets], false, &schedule)?;
    }

    #[test]
    fn tl2_random_schedules_are_linearizable(schedule in schedule_strategy()) {
        holds(&[Engine::Tl2], false, &schedule)?;
    }

    #[test]
    fn cs_random_schedules_are_causally_serializable(schedule in schedule_strategy()) {
        holds(&[Engine::Cs], false, &schedule)?;
    }

    #[test]
    fn cs_plausible_random_schedules_are_causally_serializable(schedule in schedule_strategy()) {
        holds(&[Engine::CsPlausible1, Engine::CsPlausible2], false, &schedule)?;
    }

    #[test]
    fn s_stm_random_schedules_are_serializable(schedule in schedule_strategy()) {
        holds(&[Engine::S], false, &schedule)?;
    }

    #[test]
    fn z_random_schedules_are_z_linearizable(schedule in schedule_strategy()) {
        holds(&[Engine::Z], false, &schedule)?;
    }

    // Certified wrappers: regardless of the engine's native criterion,
    // every history produced under the SSI certifier must be fully
    // serializable (the interesting case is CS-STM, which is natively
    // only causally serializable).

    #[test]
    fn certified_lsa_random_schedules_are_serializable(schedule in schedule_strategy()) {
        holds(&[Engine::Lsa, Engine::LsaNoReadSets], true, &schedule)?;
    }

    #[test]
    fn certified_tl2_random_schedules_are_serializable(schedule in schedule_strategy()) {
        holds(&[Engine::Tl2], true, &schedule)?;
    }

    #[test]
    fn certified_cs_random_schedules_are_serializable(schedule in schedule_strategy()) {
        holds(&[Engine::Cs, Engine::CsPlausible1, Engine::CsPlausible2], true, &schedule)?;
    }

    #[test]
    fn certified_s_stm_random_schedules_are_serializable(schedule in schedule_strategy()) {
        holds(&[Engine::S], true, &schedule)?;
    }

    #[test]
    fn certified_z_random_schedules_are_serializable(schedule in schedule_strategy()) {
        holds(&[Engine::Z], true, &schedule)?;
    }
}
