//! "Without long transactions Z-STM is LSA-STM", as a differential test.
//!
//! Algorithm 3 defines a short Z-STM transaction as zone admission around
//! `OpenLSA` and `CommitLSA`, and `ZTx` calls the very functions `LsaTx`
//! runs ([`zstm_lsa::snapshot::Snapshot`]). With no long transaction in
//! sight every zone is 0 and admission is a no-op, so the two engines
//! must be indistinguishable: the same script, hand-driven at the SPI on
//! two logical threads, yields the same values, version sequences, abort
//! reasons, statistics and event stream — except for `Commit.zone`, which
//! LSA-STM does not have. This is the paper's "short transactions pay
//! only the zone check" made executable.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use zstm_core::{
    AbortReason, CmPolicy, EventSink, StmConfig, TmFactory, TmThread, TmTx, TxEvent, TxEventKind,
    TxKind, TxStats,
};
use zstm_lsa::LsaStm;
use zstm_util::{run_with_deadline, XorShift64};
use zstm_z::ZStm;

const VARS: usize = 3;

/// One scripted step of logical thread `.0`. A thread without a running
/// transaction begins one first; a thread whose last access failed can
/// only roll back, whatever the script says; transactions still running
/// when the script ends are committed.
type Step = (usize, Op);

#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    Read(usize),
    Write(usize),
    Commit,
    Rollback,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Cmd {
    Begin,
    Read(usize),
    Write(usize, i64),
    Commit,
    Rollback(AbortReason),
}

/// What a command returned: the value read, or nothing.
type Reply = Result<Option<i64>, AbortReason>;

#[derive(Default)]
struct Log(Mutex<Vec<TxEvent>>);

impl EventSink for Log {
    fn record(&self, event: TxEvent) {
        self.0.lock().expect("log lock").push(event);
    }
}

/// Everything observable about one run.
#[derive(Debug, PartialEq)]
struct Trace {
    /// Each command as executed, with its reply.
    steps: Vec<(usize, Cmd, Reply)>,
    /// The event stream, ids replaced by order of first appearance and
    /// `Commit.zone` blanked.
    events: Vec<String>,
    /// Per logical thread.
    stats: Vec<TxStats>,
}

/// A logical thread on its own OS thread, executing one command at a time.
fn worker<F: TmFactory>(
    mut thread: F::Thread,
    vars: Arc<Vec<F::Var<i64>>>,
    cmds: Receiver<Cmd>,
    replies: Sender<Reply>,
) -> TxStats {
    let send = |reply: Reply| replies.send(reply).expect("driver listens");
    while let Ok(cmd) = cmds.recv() {
        assert_eq!(cmd, Cmd::Begin, "a transaction starts with Begin");
        let mut tx = thread.begin(TxKind::Short);
        send(Ok(None));
        loop {
            match cmds.recv().expect("a running transaction gets an end") {
                Cmd::Begin => panic!("Begin inside a transaction"),
                Cmd::Read(var) => send(tx.read(&vars[var]).map(Some).map_err(|a| a.reason())),
                Cmd::Write(var, value) => {
                    send(
                        tx.write(&vars[var], value)
                            .map(|()| None)
                            .map_err(|a| a.reason()),
                    );
                }
                Cmd::Commit => {
                    send(tx.commit().map(|()| None).map_err(|a| a.reason()));
                    break;
                }
                Cmd::Rollback(reason) => {
                    tx.rollback(reason);
                    send(Ok(None));
                    break;
                }
            }
        }
    }
    thread.take_stats()
}

fn normalize(events: &[TxEvent]) -> Vec<String> {
    fn index(ids: &mut HashMap<String, usize>, id: String) -> usize {
        let next = ids.len();
        *ids.entry(id).or_insert(next)
    }
    let (mut txs, mut objs) = (HashMap::new(), HashMap::new());
    let mut obj = |id| index(&mut objs, format!("{id:?}"));
    events
        .iter()
        .map(|e| {
            let what = match e.event {
                TxEventKind::Read { obj: o, version } => format!("read o{} v{version}", obj(o)),
                TxEventKind::Write { obj: o, version } => format!("write o{} v{version}", obj(o)),
                TxEventKind::Commit { .. } => "commit".to_owned(),
                other => format!("{other:?}"),
            };
            let tx = index(&mut txs, format!("{:?}", e.tx));
            format!("{} {:?} t{tx} {what}", e.thread, e.kind)
        })
        .collect()
}

fn play<F: TmFactory>(
    build: impl FnOnce(StmConfig) -> F,
    config: &StmConfig,
    script: &[Step],
) -> Trace {
    let log = Arc::new(Log::default());
    let mut config = config.clone();
    config.event_sink(Arc::clone(&log) as Arc<dyn EventSink>);
    let stm = Arc::new(build(config));
    let vars = Arc::new((0..VARS).map(|_| stm.new_var(0i64)).collect::<Vec<_>>());
    let mut lanes = Vec::new();
    for _ in 0..2 {
        let (cmd_tx, cmd_rx) = channel();
        let (reply_tx, reply_rx) = channel();
        let (thread, vars) = (stm.register_thread(), Arc::clone(&vars));
        let handle = std::thread::spawn(move || worker::<F>(thread, vars, cmd_rx, reply_tx));
        lanes.push((cmd_tx, reply_rx, handle));
    }

    let mut steps = Vec::new();
    let mut running = [false; 2];
    let mut doomed = [None; 2];
    let mut exec = |t: usize, cmd: Cmd| {
        lanes[t].0.send(cmd).expect("worker listens");
        let reply = lanes[t].1.recv().expect("worker replies");
        steps.push((t, cmd, reply));
        reply
    };
    let ends = [(0, Op::Commit), (1, Op::Commit)];
    for (at, &(t, op)) in script.iter().chain(&ends).enumerate() {
        let scripted = at < script.len();
        if !running[t] && scripted {
            exec(t, Cmd::Begin).expect("begin cannot fail");
            running[t] = true;
        }
        if !running[t] {
            continue;
        }
        let cmd = match (doomed[t].take(), op) {
            (Some(reason), _) => Cmd::Rollback(reason),
            (None, Op::Read(var)) => Cmd::Read(var),
            (None, Op::Write(var)) => Cmd::Write(var, at as i64 + 1),
            (None, Op::Commit) => Cmd::Commit,
            (None, Op::Rollback) => Cmd::Rollback(AbortReason::Explicit),
        };
        let reply = exec(t, cmd);
        match cmd {
            Cmd::Commit | Cmd::Rollback(_) => running[t] = false,
            _ => doomed[t] = reply.err(),
        }
    }

    let stats = lanes
        .into_iter()
        .map(|(cmds, _, handle)| {
            drop(cmds);
            handle.join().expect("worker panicked")
        })
        .collect();
    let events = normalize(&log.0.lock().expect("log lock"));
    Trace {
        steps,
        events,
        stats,
    }
}

/// Plays `script` on both engines, checks the traces are equal and
/// returns one of them.
fn both(config: &StmConfig, script: &[Step]) -> Trace {
    let lsa = play(LsaStm::new, config, script);
    let z = play(ZStm::new, config, script);
    assert_eq!(
        lsa, z,
        "LSA-STM and Z-STM diverge on {script:?} under {config:?}"
    );
    lsa
}

fn config(policy: CmPolicy, max_versions: usize) -> StmConfig {
    let mut config = StmConfig::new(2);
    config.cm(policy).max_versions(max_versions);
    config
}

fn replies_of(trace: &Trace, thread: usize) -> Vec<Reply> {
    let of_thread = trace.steps.iter().filter(|(t, ..)| *t == thread);
    of_thread.map(|&(_, _, reply)| reply).collect()
}

fn guarded(name: &str, test: impl FnOnce() + Send + 'static) {
    run_with_deadline(name, Duration::from_secs(60), test);
}

use Op::{Commit, Read, Rollback, Write};

#[test]
fn failed_validation_is_the_same_abort() {
    guarded("lsa_equivalence: failed validation", || {
        // T0 reads x; T1 overwrites x and commits; T0, now an update
        // transaction on y, fails commit-time validation.
        let script = [
            (0, Read(0)),
            (1, Write(0)),
            (1, Commit),
            (0, Write(1)),
            (0, Commit),
        ];
        let trace = both(&config(CmPolicy::Polite, 8), &script);
        let t0 = replies_of(&trace, 0);
        assert_eq!(
            t0.last(),
            Some(&Err(AbortReason::ReadValidation)),
            "{trace:?}"
        );
    });
}

#[test]
fn write_write_conflicts_resolve_the_same_under_every_policy() {
    guarded("lsa_equivalence: write/write conflict", || {
        for policy in CmPolicy::ALL {
            // Both write x; the younger T1 arrives second. Then the other
            // way round, with karma on T1's side.
            let plain = [(0, Write(0)), (1, Write(0)), (0, Commit), (1, Commit)];
            let karma = [
                (1, Read(1)),
                (1, Read(2)),
                (0, Write(0)),
                (1, Write(0)),
                (1, Commit),
            ];
            for script in [&plain[..], &karma[..]] {
                let trace = both(&config(policy, 8), script);
                let lost = trace.steps.iter().any(|(.., reply)| {
                    matches!(reply, Err(AbortReason::WriteConflict | AbortReason::Killed))
                });
                assert!(lost, "{policy:?}: one of the writers must lose: {trace:?}");
            }
        }
    });
}

#[test]
fn snapshot_extension_is_the_same_read() {
    guarded("lsa_equivalence: snapshot extension", || {
        // T0 starts (and pins its snapshot by reading y) before T1
        // commits x; T0's read of x extends the snapshot and sees T1's.
        let script = [
            (0, Read(1)),
            (1, Write(0)),
            (1, Commit),
            (0, Read(0)),
            (0, Commit),
        ];
        let trace = both(&config(CmPolicy::Polite, 8), &script);
        let t0 = replies_of(&trace, 0);
        assert_eq!(
            t0[2],
            Ok(Some(2)),
            "the extended read sees T1's write: {trace:?}"
        );
        assert_eq!(t0[3], Ok(None), "{trace:?}");
    });
}

#[test]
fn pruned_history_is_the_same_abort() {
    guarded("lsa_equivalence: pruned history", || {
        // One retained version: y moves on twice under T0's read, so the
        // successor of what T0 read is pruned, the snapshot cannot be
        // extended, and x — rewritten too — has nothing old enough.
        let script = [
            (0, Read(1)),
            (1, Write(1)),
            (1, Commit),
            (1, Write(1)),
            (1, Write(0)),
            (1, Commit),
            (0, Read(0)),
            (0, Commit),
        ];
        let trace = both(&config(CmPolicy::Polite, 1), &script);
        let t0 = replies_of(&trace, 0);
        assert_eq!(t0[2], Err(AbortReason::SnapshotUnavailable), "{trace:?}");
    });
}

#[test]
fn random_schedules_are_indistinguishable() {
    guarded("lsa_equivalence: random schedules", || {
        let mut aborts = 0;
        for seed in 1..=150u64 {
            let mut rng = XorShift64::new(seed);
            let script: Vec<Step> = (0..24)
                .map(|_| {
                    let var = rng.next_range(VARS as u64) as usize;
                    let op = match rng.next_range(10) {
                        0..=3 => Read(var),
                        4..=6 => Write(var),
                        7..=8 => Commit,
                        _ => Rollback,
                    };
                    (rng.next_range(2) as usize, op)
                })
                .collect();
            let policy = CmPolicy::ALL[seed as usize % CmPolicy::ALL.len()];
            let max_versions = if seed % 3 == 0 { 1 } else { 8 };
            let trace = both(&config(policy, max_versions), &script);
            aborts += trace.steps.iter().filter(|(.., r)| r.is_err()).count();
        }
        assert!(aborts > 50, "the schedules must conflict: {aborts} aborts");
    });
}
