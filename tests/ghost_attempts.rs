//! An attempt dropped raw rolls itself back — on every engine, native and
//! certified, under every contention-management policy — and, like every
//! other ending of an attempt (`support/attempt_endings.rs`, the body each
//! engine's own `sets_go_back_to_the_thread_empty_…` test drives too),
//! leaves one terminal event and one count behind.
//!
//! `zstm_core::atomically` has no drop guard of its own: when a body
//! panics, the engine transaction is simply dropped. Before the engines
//! rolled back in `Drop`, such a *ghost* stayed `Active` forever, holding
//! its reservations and looking older than every later transaction — so
//! "older wins" policies made all later writers of the same variable
//! abort themselves, for good.

use std::panic::{catch_unwind, panic_any, AssertUnwindSafe};
use std::sync::{Arc, Mutex, Once};
use std::time::Duration;

use zstm::core::{EventSink, TmFactory, TmThread, TxEvent, TxEventKind};
use zstm::prelude::*;
use zstm::util::run_with_deadline;

include!("support/attempt_endings.rs");

const GHOST: &str = "the body blows up after a read and a write";

/// Keeps the ghosts' own panics out of the test output; every other
/// panic (a failed assertion) still reports as usual.
fn quiet_ghost_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<&str>() != Some(&GHOST) {
                default(info);
            }
        }));
    });
}

#[derive(Default)]
struct Log(Mutex<Vec<TxEvent>>);

impl EventSink for Log {
    fn record(&self, event: TxEvent) {
        self.0.lock().expect("log lock").push(event);
    }
}

fn config(policy: CmPolicy, log: &Arc<Log>) -> StmConfig {
    let mut config = StmConfig::new(2);
    config
        .cm(policy)
        .event_sink(Arc::clone(log) as Arc<dyn EventSink>);
    config
}

/// Runs `body` once on `thread` and lets it panic out of `atomically`.
fn run_ghost<Th: TmThread>(
    thread: &mut Th,
    kind: TxKind,
    mut body: impl FnMut(&mut Th::Tx<'_>) -> Result<(), Abort>,
) {
    quiet_ghost_panics();
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        let policy = RetryPolicy::default();
        let _ = atomically(thread, kind, &policy, |tx| -> Result<(), Abort> {
            body(tx)?;
            panic_any(GHOST)
        });
    }));
    assert!(unwound.is_err(), "the body must have panicked");
}

/// (ii) and (iii): every `Begin` has exactly one terminal event, and the
/// thread's counters agree with the events.
fn assert_every_attempt_ended(label: &str, log: &Log, thread: &impl TmThread) {
    let events = log.0.lock().expect("log lock");
    let of_thread = || events.iter().filter(|e| e.thread == thread.thread_id());
    let begins = of_thread().filter(|e| e.event == TxEventKind::Begin);
    for begin in begins.clone() {
        let terminal = events.iter().filter(|e| {
            let ends = matches!(
                e.event,
                TxEventKind::Commit { .. } | TxEventKind::Abort { .. }
            );
            e.tx == begin.tx && ends
        });
        assert_eq!(terminal.count(), 1, "{label}: terminal events of {begin}");
    }
    let stats = thread.stats();
    assert_eq!(
        stats.total_commits() + stats.total_aborts(),
        begins.count() as u64,
        "{label}: commits + aborts == begins"
    );
}

fn ghost_does_not_block_writers<F: TmFactory>(
    label: &'static str,
    build: impl Fn(StmConfig) -> F + Send + Copy + 'static,
) {
    for policy in CmPolicy::ALL {
        let name = format!("ghost attempt [{label}, {policy:?}]");
        run_with_deadline(&name.clone(), Duration::from_secs(30), move || {
            let log = Arc::new(Log::default());
            let stm = Arc::new(build(config(policy, &log)));
            let vars: Vec<_> = (0..8).map(|_| stm.new_var(0i64)).collect();
            let mut ghost = stm.register_thread();
            let mut writer = stm.register_thread();

            // (ii) However an attempt ends — the ghost's is the fourth of
            // the five — it has ended: one terminal event, one count.
            drive_every_ending::<F>(&mut ghost, &mut writer, &vars, |ending, ghost| {
                assert_every_attempt_ended(&format!("{name}, {ending}"), &log, ghost);
            });
            // The rollback and the dropped attempt: one explicit abort each.
            assert_eq!(ghost.stats().aborts_for(AbortReason::Explicit), 2, "{name}");

            // (i) A later, bounded write of the variable the ghost had
            // reserved commits.
            let var = &vars[2];
            let bounded = RetryPolicy::default().with_max_attempts(200);
            atomically(&mut writer, TxKind::Short, &bounded, |tx| tx.write(var, 7))
                .unwrap_or_else(|e| panic!("{name}: the ghost still blocks writers: {e}"));
            let seen = atomically(&mut ghost, TxKind::Short, &bounded, |tx| tx.read(var))
                .unwrap_or_else(|e| panic!("{name}: the ghost's thread is unusable: {e}"));
            assert_eq!(seen, 7, "{name}: the ghost's write must be invisible");
            assert_every_attempt_ended(&name, &log, &ghost);
            assert_every_attempt_ended(&name, &log, &writer);
        });
    }
}

macro_rules! ghost_tests {
    ($($test:ident: $label:literal, $build:expr;)*) => {$(
        #[test]
        fn $test() {
            ghost_does_not_block_writers($label, $build);
            ghost_does_not_block_writers(concat!("certified-", $label), |config| {
                CertifiedFactory::new(config, $build)
            });
        }
    )*};
}

ghost_tests! {
    lsa_attempt_dropped_raw_rolls_back: "lsa", LsaStm::new;
    tl2_attempt_dropped_raw_rolls_back: "tl2", Tl2Stm::new;
    cs_attempt_dropped_raw_rolls_back: "cs", CsStm::with_vector_clock;
    s_stm_attempt_dropped_raw_rolls_back: "s-stm", SStm::with_vector_clock;
    z_stm_attempt_dropped_raw_rolls_back: "z-stm", ZStm::new;
}

/// (iv) A ghost's node would pin S-STM's pruning horizon: every later
/// commit would stay in the precedence graph.
#[test]
fn s_stm_graph_is_pruned_again_after_a_ghost() {
    run_with_deadline(
        "ghost attempt [s-stm graph]",
        Duration::from_secs(30),
        || {
            let log = Arc::new(Log::default());
            let stm = Arc::new(SStm::with_vector_clock(config(CmPolicy::Polite, &log)));
            let var = stm.new_var(0i64);
            let mut ghost = stm.register_thread();
            let mut writer = stm.register_thread();
            run_ghost(&mut ghost, TxKind::Short, |tx| {
                let v = tx.read(&var)?;
                tx.write(&var, v + 1)
            });
            for _ in 0..20 {
                atomically(&mut writer, TxKind::Short, &RetryPolicy::default(), |tx| {
                    let v = tx.read(&var)?;
                    tx.write(&var, v + 1)
                })
                .expect("commit");
            }
            assert!(
                stm.graph_len() <= 4,
                "the ghost pins the graph: {} nodes",
                stm.graph_len()
            );
        },
    );
}

/// (v) A Z-STM long transaction dropped mid-scan holds a long write
/// reservation and an open zone; neither may stop the next long one.
#[test]
fn z_stm_long_ghost_does_not_stop_later_long_transactions() {
    for policy in CmPolicy::ALL {
        let name = format!("ghost attempt [z-stm long, {policy:?}]");
        run_with_deadline(&name.clone(), Duration::from_secs(30), move || {
            let log = Arc::new(Log::default());
            let stm = Arc::new(ZStm::new(config(policy, &log)));
            let accounts: Vec<_> = (0..8).map(|_| stm.new_var(10i64)).collect();
            let total = stm.new_var(0i64);
            let mut ghost = stm.register_thread();
            let mut auditor = stm.register_thread();

            run_ghost(&mut ghost, TxKind::Long, |tx| {
                tx.write(&total, -1)?;
                accounts[..4].iter().try_for_each(|a| tx.read(a).map(drop))
            });

            let bounded = RetryPolicy::default().with_max_attempts(200);
            let sum = atomically(&mut auditor, TxKind::Long, &bounded, |tx| {
                let mut sum = 0;
                for account in &accounts {
                    sum += tx.read(account)?;
                }
                tx.write(&total, sum)?;
                Ok(sum)
            })
            .unwrap_or_else(|e| panic!("{name}: the long ghost blocks the next long: {e}"));
            assert_eq!(sum, 80, "{name}");
            assert!(!stm.has_active_zone(), "{name}: the zone must be closed");
            assert_every_attempt_ended(&name, &log, &ghost);
            assert_every_attempt_ended(&name, &log, &auditor);
        });
    }
}
