//! The engine matrix every history check runs on, and adversarial
//! schedule fuzzing with auto-promoted regression tests.
//!
//! [`Engine`] is one recorded configuration and [`Engine::check_native`]
//! the criterion it promises (§§3–5 of the paper); [`Engine::run`] is
//! the only place a configuration becomes a factory, native or under
//! [`zstm_certify::CertifiedFactory`], [`Engine::record`] attaches the
//! [`Recorder`], and [`describe_violation`] is the only check. The suites under `tests/` loop over [`Engine::ALL`] ×
//! {native, certified} through these three.
//!
//! The fuzzer closes the loop the property tests leave open: it generates
//! adversarial scripted schedules (random ones plus write-skew-shaped ones
//! that specifically exercise the SSI dangerous structure), replays each
//! on every configuration natively and certified, checks every recorded
//! history, shrinks any violation with
//! [`minimize_schedule`](crate::minimize_schedule()), and renders the
//! shrunk schedule as a ready-to-commit Rust regression test for
//! `tests/corpus/` (see `tests/corpus/README.md` for the promotion
//! workflow).
//!
//! ```
//! use zstm_sim::fuzz::{fuzz_schedules, Engine, FuzzOptions};
//!
//! let report = fuzz_schedules(&FuzzOptions {
//!     seed: 7,
//!     max_schedules: 4,
//!     ..FuzzOptions::default()
//! });
//! // 4 schedule rounds x 8 configurations x {native, certified}.
//! assert_eq!(report.runs, 4 * Engine::ALL.len() * 2);
//! assert!(report.counterexamples.is_empty(), "engines are believed sound");
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use zstm_certify::CertifiedFactory;
use zstm_core::{EventSink, StmConfig, TmFactory, TxKind};
use zstm_cs::CsStm;
use zstm_history::{
    check_causal_serializable, check_linearizable, check_serializable, check_z_linearizable,
    History, Recorder,
};
use zstm_lsa::LsaStm;
use zstm_sstm::SStm;
use zstm_tl2::Tl2Stm;
use zstm_util::XorShift64;
use zstm_z::ZStm;

use crate::{
    enumerate_interleavings, minimize_schedule, run_schedule, Op, Outcome, Schedule, TxScript,
};

/// One recorded engine configuration, addressable by value so the fuzzer
/// and the test suites iterate over one matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Engine {
    /// LSA-STM (multi-version lazy snapshot; linearizable).
    Lsa,
    /// LSA-STM whose read-only transactions keep no read set
    /// (`StmConfig::readonly_readsets(false)`; still linearizable).
    LsaNoReadSets,
    /// TL2-style single-version STM (linearizable).
    Tl2,
    /// CS-STM over exact vector clocks (causally serializable only — the
    /// one engine whose *native* criterion admits write skew).
    Cs,
    /// CS-STM over a plausible REV clock of one entry (§4.3). Plausible
    /// clocks over-order but never mis-order, so the criterion is CS-STM's.
    CsPlausible1,
    /// CS-STM over a plausible REV clock of two entries.
    CsPlausible2,
    /// S-STM with a precedence graph (serializable).
    S,
    /// Z-STM, the paper's contribution (serializable + z-linearizable).
    Z,
}

impl Engine {
    /// Every configuration, in a fixed order.
    pub const ALL: [Engine; 8] = [
        Engine::Lsa,
        Engine::LsaNoReadSets,
        Engine::Tl2,
        Engine::Cs,
        Engine::CsPlausible1,
        Engine::CsPlausible2,
        Engine::S,
        Engine::Z,
    ];

    /// Human-readable name; with `_` for `-`, it names the generated
    /// regression tests ([`Counterexample::name`]).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Lsa => "lsa",
            Engine::LsaNoReadSets => "lsa-noreadsets",
            Engine::Tl2 => "tl2",
            Engine::Cs => "cs",
            Engine::CsPlausible1 => "cs-plausible-r1",
            Engine::CsPlausible2 => "cs-plausible-r2",
            Engine::S => "s-stm",
            Engine::Z => "z-stm",
        }
    }

    /// Checks `history` against the configuration's **native** criterion
    /// from the paper.
    pub fn check_native(self, history: &History) -> Result<(), String> {
        let checked = match self {
            Engine::Lsa | Engine::LsaNoReadSets | Engine::Tl2 => check_linearizable(history),
            Engine::Cs | Engine::CsPlausible1 | Engine::CsPlausible2 => {
                check_causal_serializable(history)
            }
            Engine::S => check_serializable(history),
            Engine::Z => check_serializable(history).and_then(|()| check_z_linearizable(history)),
        };
        checked.map_err(|v| v.to_string())
    }

    /// Builds this configuration for `threads` logical threads with a
    /// [`Recorder`] attached — natively, or wrapped in the SSI certifier —
    /// runs `on` on it, and returns what `on` returned together with the
    /// recorded history.
    pub fn record<O: OnFactory>(self, certified: bool, threads: usize, on: O) -> (O::Out, History) {
        let recorder = Arc::new(Recorder::new());
        let mut config = StmConfig::new(threads);
        config.event_sink(Arc::clone(&recorder) as Arc<dyn EventSink>);
        (self.run(certified, config, on), recorder.history())
    }

    /// Builds this configuration from `config` — natively, or wrapped in
    /// the SSI certifier — and runs `on` on it, unrecorded unless `config`
    /// carries a sink.
    pub fn run<O: OnFactory>(self, certified: bool, mut config: StmConfig, on: O) -> O::Out {
        if self == Engine::LsaNoReadSets {
            config.readonly_readsets(false);
        }
        match self {
            Engine::Lsa | Engine::LsaNoReadSets => run_on(certified, config, LsaStm::new, on),
            Engine::Tl2 => run_on(certified, config, Tl2Stm::new, on),
            Engine::Cs => run_on(certified, config, CsStm::with_vector_clock, on),
            Engine::CsPlausible1 | Engine::CsPlausible2 => {
                let r = if self == Engine::CsPlausible1 { 1 } else { 2 };
                run_on(certified, config, |c| CsStm::with_plausible_clock(c, r), on)
            }
            Engine::S => run_on(certified, config, SStm::with_vector_clock, on),
            Engine::Z => run_on(certified, config, ZStm::new, on),
        }
    }
}

/// What [`Engine::record`] does with the factory it builds. A closure
/// cannot be generic over the factory type, hence a one-method trait.
pub trait OnFactory {
    /// What a run returns.
    type Out;

    /// Drives `stm`.
    fn run<F: TmFactory>(self, stm: &Arc<F>) -> Self::Out;
}

/// A schedule is replayed by [`run_schedule`].
impl OnFactory for &Schedule {
    type Out = Outcome;

    fn run<F: TmFactory>(self, stm: &Arc<F>) -> Outcome {
        run_schedule(stm, self)
    }
}

/// Runs `on` on `build(config)`, natively or under the SSI certifier.
fn run_on<F: TmFactory, O: OnFactory>(
    certified: bool,
    config: StmConfig,
    build: impl FnOnce(StmConfig) -> F,
    on: O,
) -> O::Out {
    if certified {
        on.run(&Arc::new(CertifiedFactory::new(config, build)))
    } else {
        on.run(&Arc::new(build(config)))
    }
}

/// Replays `schedule` on `engine` — natively or wrapped in the SSI
/// certifier — with a [`Recorder`] attached, and returns the driver
/// outcome together with the recorded history.
pub fn run_recorded(engine: Engine, certified: bool, schedule: &Schedule) -> (Outcome, History) {
    engine.record(certified, schedule.threads.len().max(2), schedule)
}

/// Checks a recorded history: dirty reads are always violations; beyond
/// that, certified runs must be **serializable** (the certifier's
/// guarantee, regardless of engine) while native runs must satisfy the
/// engine's own criterion. Returns a description of the first violation
/// found, or `None` if the history is clean.
pub fn describe_violation(engine: Engine, certified: bool, history: &History) -> Option<String> {
    if let Some((tx, obj, version)) = history.find_dirty_read() {
        return Some(format!(
            "dirty read: {tx:?} observed uncommitted {obj:?} version {version:?}"
        ));
    }
    let checked = if certified {
        check_serializable(history).map_err(|v| v.to_string())
    } else {
        engine.check_native(history)
    };
    checked.err()
}

/// Replays `base` under **every** interleaving of its threads' steps
/// ([`enumerate_interleavings`]) on `engine`, natively or certified, and
/// returns the first interleaving whose history [`describe_violation`]
/// rejects, with the violation. The count is multinomial in the step
/// counts, so keep `base` tiny.
pub fn explore(engine: Engine, certified: bool, base: &Schedule) -> Option<String> {
    let steps: Vec<usize> = (0..base.threads.len()).map(|t| base.steps_of(t)).collect();
    enumerate_interleavings(&steps)
        .into_iter()
        .find_map(|interleaving| {
            let schedule = Schedule {
                interleaving,
                ..base.clone()
            };
            let (_, history) = run_recorded(engine, certified, &schedule);
            describe_violation(engine, certified, &history)
                .map(|violation| format!("interleaving {:?}: {violation}", schedule.interleaving))
        })
}

/// Generates a random schedule: 2–4 objects, 2–3 threads of 1–3
/// transactions of 1–4 operations each, long transactions with
/// probability 1/5, and a random interleaving prefix ([`run_schedule`]
/// finishes leftover steps round-robin). `tests/random_schedules.rs` maps its
/// proptest seeds through this.
pub fn random_schedule(rng: &mut XorShift64) -> Schedule {
    let objects = 2 + rng.next_range(3) as usize;
    let nthreads = 2 + rng.next_range(2) as usize;
    let threads = (0..nthreads)
        .map(|_| {
            let ntxs = 1 + rng.next_range(3) as usize;
            (0..ntxs)
                .map(|_| {
                    let kind = if rng.next_range(5) == 0 {
                        TxKind::Long
                    } else {
                        TxKind::Short
                    };
                    let nops = 1 + rng.next_range(4) as usize;
                    let ops = (0..nops)
                        .map(|_| {
                            let obj = rng.next_range(objects as u64) as usize;
                            if rng.next_range(2) == 0 {
                                Op::Read(obj)
                            } else {
                                Op::Write(obj)
                            }
                        })
                        .collect();
                    TxScript { kind, ops }
                })
                .collect()
        })
        .collect();
    let len = rng.next_range(40) as usize;
    let interleaving = (0..len)
        .map(|_| rng.next_range(nthreads as u64) as usize)
        .collect();
    Schedule {
        objects,
        threads,
        interleaving,
    }
}

/// Generates a write-skew-shaped schedule: `n` threads over `n`
/// objects, each transaction reading **every** object and then writing
/// its right neighbour `(t + 1) % n`. Each pair of neighbours forms an
/// rw-antidependency in both directions — the Cahill dangerous
/// structure — whenever their footprints overlap in time, which a
/// random full-length interleaving makes likely.
pub fn write_skew_schedule(rng: &mut XorShift64) -> Schedule {
    let nthreads = 2 + rng.next_range(2) as usize;
    let objects = nthreads;
    let threads: Vec<Vec<TxScript>> = (0..nthreads)
        .map(|t| {
            let mut ops: Vec<Op> = (0..objects).map(Op::Read).collect();
            ops.push(Op::Write((t + 1) % objects));
            vec![TxScript {
                kind: TxKind::Short,
                ops,
            }]
        })
        .collect();
    // A shuffled bag with each thread repeated once per step fully
    // determines the interleaving (no round-robin tail left over).
    let mut interleaving = Vec::new();
    for (t, scripts) in threads.iter().enumerate() {
        let steps: usize = scripts.iter().map(|tx| tx.ops.len()).sum();
        interleaving.extend(std::iter::repeat_n(t, steps));
    }
    for i in (1..interleaving.len()).rev() {
        let j = rng.next_range(i as u64 + 1) as usize;
        interleaving.swap(i, j);
    }
    Schedule {
        objects,
        threads,
        interleaving,
    }
}

/// Options for [`fuzz_schedules`].
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Seed for the deterministic schedule generator.
    pub seed: u64,
    /// Maximum number of schedule rounds (each round runs every
    /// configuration natively and certified).
    pub max_schedules: usize,
    /// Wall-clock budget; the fuzzer stops starting new rounds once it
    /// is exhausted.
    pub time_budget: Duration,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 0x5EED_F022,
            max_schedules: 64,
            time_budget: Duration::from_secs(30),
        }
    }
}

/// A shrunk, reproducible consistency violation found by the fuzzer.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// Configuration the violation was observed on.
    pub engine: Engine,
    /// Whether the engine was wrapped in the SSI certifier.
    pub certified: bool,
    /// Checker message from the original (pre-shrink) failure.
    pub violation: String,
    /// The minimized schedule that still reproduces the violation.
    pub schedule: Schedule,
    /// Ready-to-commit Rust source for `tests/corpus/` (see
    /// [`regression_test_source`]).
    pub regression_test: String,
}

impl Counterexample {
    /// Identifier-safe name, used for both the test function and the
    /// suggested corpus file name.
    pub fn name(&self) -> String {
        test_name(self.engine, self.certified)
    }
}

/// `fuzz_<engine>_<native|certified>`, with `-` in the engine name read
/// as `_`.
fn test_name(engine: Engine, certified: bool) -> String {
    let mode = if certified { "certified" } else { "native" };
    format!("fuzz_{}_{mode}", engine.name().replace('-', "_"))
}

/// Aggregate result of a fuzzing run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Schedule rounds generated.
    pub schedules: usize,
    /// Engine runs (rounds × configurations × {native, certified}).
    pub runs: usize,
    /// Transactions committed across all certified runs.
    pub certified_commits: usize,
    /// Aborts injected by the certifier across all certified runs.
    pub certification_aborts: u64,
    /// Shrunk violations (empty on a healthy tree).
    pub counterexamples: Vec<Counterexample>,
}

/// Runs the adversarial fuzzer: generates schedules (every third round
/// is write-skew-shaped, the rest random), replays each on every
/// configuration of [`Engine::ALL`] natively and under
/// [`CertifiedFactory`], checks every history, and shrinks + promotes any
/// violation via [`minimize_schedule`](crate::minimize_schedule()) and
/// [`regression_test_source`]. Fully deterministic for a given seed
/// (modulo the wall-clock budget).
pub fn fuzz_schedules(options: &FuzzOptions) -> FuzzReport {
    let mut rng = XorShift64::new(options.seed);
    let start = Instant::now();
    let mut report = FuzzReport::default();
    while report.schedules < options.max_schedules && start.elapsed() < options.time_budget {
        let round = report.schedules;
        report.schedules += 1;
        let schedule = if round % 3 == 2 {
            write_skew_schedule(&mut rng)
        } else {
            random_schedule(&mut rng)
        };
        for engine in Engine::ALL {
            for certified in [false, true] {
                let (outcome, history) = run_recorded(engine, certified, &schedule);
                report.runs += 1;
                if certified {
                    report.certified_commits += outcome.committed;
                    report.certification_aborts += outcome.stats.certification_aborts();
                }
                if let Some(violation) = describe_violation(engine, certified, &history) {
                    report
                        .counterexamples
                        .push(promote(engine, certified, violation, &schedule));
                }
            }
        }
    }
    report
}

/// Shrinks a violating schedule and renders it as a regression test.
fn promote(
    engine: Engine,
    certified: bool,
    violation: String,
    schedule: &Schedule,
) -> Counterexample {
    let mut fails = |candidate: &Schedule| {
        let (_, history) = run_recorded(engine, certified, candidate);
        describe_violation(engine, certified, &history).is_some()
    };
    let shrunk = minimize_schedule(schedule, &mut fails);
    let name = test_name(engine, certified);
    let regression_test = regression_test_source(&name, engine, certified, &violation, &shrunk);
    Counterexample {
        engine,
        certified,
        violation,
        schedule: shrunk,
        regression_test,
    }
}

/// Finds the minimal *divergence witness* for a schedule: the native
/// engine commits a non-serializable history while the certified
/// wrapper keeps the history serializable by injecting at least one
/// certification abort. Returns `None` if `schedule` is not such a
/// witness. This is the promotion path for `tests/corpus/` seeds that
/// document what certification buys on a weaker engine (only CS-STM is
/// natively weaker than serializable, so in practice `engine` is
/// [`Engine::Cs`]).
pub fn shrunk_divergence(engine: Engine, schedule: &Schedule) -> Option<Schedule> {
    let mut diverges = |candidate: &Schedule| {
        let (_, native) = run_recorded(engine, false, candidate);
        if check_serializable(&native).is_ok() {
            return false;
        }
        let (outcome, certified) = run_recorded(engine, true, candidate);
        check_serializable(&certified).is_ok() && outcome.stats.certification_aborts() >= 1
    };
    if !diverges(schedule) {
        return None;
    }
    Some(minimize_schedule(schedule, &mut diverges))
}

/// Renders `schedule` as a Rust expression (used verbatim inside the
/// generated regression tests).
pub fn schedule_literal(schedule: &Schedule) -> String {
    let mut s = String::new();
    s.push_str("Schedule {\n");
    s.push_str(&format!("        objects: {},\n", schedule.objects));
    s.push_str("        threads: vec![\n");
    for thread in &schedule.threads {
        s.push_str("            vec![\n");
        for tx in thread {
            let ops: Vec<String> = tx.ops.iter().map(|op| format!("Op::{op:?}")).collect();
            s.push_str("                TxScript {\n");
            s.push_str(&format!(
                "                    kind: TxKind::{:?},\n",
                tx.kind
            ));
            s.push_str(&format!(
                "                    ops: vec![{}],\n",
                ops.join(", ")
            ));
            s.push_str("                },\n");
        }
        s.push_str("            ],\n");
    }
    s.push_str("        ],\n");
    let steps: Vec<String> = schedule
        .interleaving
        .iter()
        .map(ToString::to_string)
        .collect();
    s.push_str(&format!(
        "        interleaving: vec![{}],\n",
        steps.join(", ")
    ));
    s.push_str("    }");
    s
}

/// Renders a shrunk counterexample as a complete, ready-to-commit Rust
/// test module for `tests/corpus/`: it replays the schedule with
/// [`run_recorded`] and asserts that [`describe_violation`] — the
/// fuzzer's own check — finds nothing, so once the underlying bug is
/// fixed the file pins the fix forever.
pub fn regression_test_source(
    name: &str,
    engine: Engine,
    certified: bool,
    violation: &str,
    schedule: &Schedule,
) -> String {
    let mode = if certified {
        "certified (SSI-wrapped)"
    } else {
        "native"
    };
    let mut s = String::new();
    s.push_str(&format!(
        "//! Auto-promoted fuzz counterexample: {mode} {} violated its\n",
        engine.name()
    ));
    s.push_str("//! criterion on this schedule when the file was generated.\n");
    s.push_str("//!\n");
    for line in violation.lines() {
        s.push_str(&format!("//! Violation: {line}\n"));
    }
    s.push_str("//!\n");
    s.push_str("//! Promotion workflow: see `tests/corpus/README.md`.\n");
    s.push('\n');
    s.push_str("use zstm::core::TxKind;\n");
    s.push_str("use zstm_sim::fuzz::{describe_violation, run_recorded, Engine};\n");
    s.push_str("use zstm_sim::{Op, Schedule, TxScript};\n\n");
    s.push_str("fn schedule() -> Schedule {\n");
    s.push_str(&format!("    {}\n", schedule_literal(schedule)));
    s.push_str("}\n\n");
    s.push_str("#[test]\n");
    s.push_str(&format!("fn {name}() {{\n"));
    s.push_str(&format!(
        "    let (_, history) = run_recorded(Engine::{engine:?}, {certified}, &schedule());\n"
    ));
    s.push_str(&format!(
        "    assert_eq!(describe_violation(Engine::{engine:?}, {certified}, &history), None);\n"
    ));
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic two-transaction write skew, deliberately bloated with
    /// redundant reads and a fully explicit interleaving so the shrinker
    /// has work to do.
    fn bloated_write_skew() -> Schedule {
        Schedule {
            objects: 2,
            threads: vec![
                vec![TxScript {
                    kind: TxKind::Short,
                    ops: vec![Op::Read(0), Op::Read(1), Op::Write(0)],
                }],
                vec![TxScript {
                    kind: TxKind::Short,
                    ops: vec![Op::Read(0), Op::Read(1), Op::Write(1)],
                }],
            ],
            interleaving: vec![0, 1, 0, 1, 0, 1],
        }
    }

    /// The minimal divergence witness the shrinker reduces
    /// [`bloated_write_skew`] to; `tests/corpus/write_skew_cs.rs` pins
    /// the same schedule.
    fn classic_write_skew_core() -> Schedule {
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
    fn cs_native_admits_write_skew_certified_rejects_it() {
        let schedule = bloated_write_skew();
        let (native_outcome, native_history) = run_recorded(Engine::Cs, false, &schedule);
        assert_eq!(native_outcome.committed, 2, "CS commits both natively");
        assert!(check_serializable(&native_history).is_err(), "write skew");
        assert!(check_causal_serializable(&native_history).is_ok());

        let (cert_outcome, cert_history) = run_recorded(Engine::Cs, true, &schedule);
        assert!(check_serializable(&cert_history).is_ok());
        assert_eq!(cert_outcome.stats.certification_aborts(), 1);
    }

    #[test]
    fn minimize_is_idempotent_and_output_still_fails() {
        let schedule = bloated_write_skew();
        let mut fails = |candidate: &Schedule| {
            let (_, history) = run_recorded(Engine::Cs, false, candidate);
            check_serializable(&history).is_err()
        };
        assert!(fails(&schedule), "seed must fail the predicate");
        let once = minimize_schedule(&schedule, &mut fails);
        assert!(fails(&once), "shrunk schedule must still fail");
        let twice = minimize_schedule(&once, &mut fails);
        assert_eq!(once, twice, "minimize_schedule must be idempotent");
        assert!(
            once.total_steps() <= schedule.total_steps(),
            "shrinking must not grow the schedule"
        );
    }

    #[test]
    fn write_skew_divergence_shrinks_to_classic_core() {
        let shrunk =
            shrunk_divergence(Engine::Cs, &bloated_write_skew()).expect("divergence witness");
        assert_eq!(shrunk, classic_write_skew_core());
    }

    #[test]
    fn benign_schedule_is_not_a_divergence_witness() {
        // Disjoint key sets: serializable natively, nothing to diverge on.
        let schedule = Schedule {
            objects: 2,
            threads: vec![
                vec![TxScript {
                    kind: TxKind::Short,
                    ops: vec![Op::Read(0), Op::Write(0)],
                }],
                vec![TxScript {
                    kind: TxKind::Short,
                    ops: vec![Op::Read(1), Op::Write(1)],
                }],
            ],
            interleaving: vec![0, 1, 0, 1],
        };
        assert!(shrunk_divergence(Engine::Cs, &schedule).is_none());
    }

    #[test]
    fn regression_source_replays_standalone() {
        // The emitted source must contain the schedule literal and replay
        // it through the fuzzer's own run and check, with the same engine
        // and wrapper.
        let schedule = classic_write_skew_core();
        let source =
            regression_test_source("fuzz_cs_native", Engine::Cs, false, "write skew", &schedule);
        assert!(source.contains("fn fuzz_cs_native()"));
        assert!(source.contains("Op::Read(1), Op::Write(0)"));
        assert!(source.contains("run_recorded(Engine::Cs, false, &schedule())"));
        assert!(
            source.contains("assert_eq!(describe_violation(Engine::Cs, false, &history), None)")
        );
        let certified =
            regression_test_source("fuzz_cs_certified", Engine::Cs, true, "cycle", &schedule);
        assert!(certified.contains("run_recorded(Engine::Cs, true, &schedule())"));
        assert!(certified.contains("describe_violation(Engine::Cs, true, &history)"));
    }

    #[test]
    fn fuzz_smoke_finds_no_violations_and_exercises_certifier() {
        let report = fuzz_schedules(&FuzzOptions {
            seed: 1,
            max_schedules: 9,
            time_budget: Duration::from_secs(60),
        });
        assert_eq!(report.schedules, 9);
        assert_eq!(report.runs, 9 * Engine::ALL.len() * 2);
        assert!(
            report.counterexamples.is_empty(),
            "unexpected violations: {:?}",
            report
                .counterexamples
                .iter()
                .map(|c| (c.engine, c.certified, c.violation.clone()))
                .collect::<Vec<_>>()
        );
        assert!(report.certified_commits > 0, "certified runs must commit");
    }
}
