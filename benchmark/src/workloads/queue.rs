//! `queue_handoff_tl2`: blocking hand-offs on TL2 through capacity-1
//! `TQueue<u64>` pairs. Every operation parks somebody, so the notifier and
//! the two park paths of `zstm-api` are the whole cost.
//!
//! The driver pushes a token and blocks popping its echo. By a seeded coin
//! per operation the echo comes from a thread (synchronous `atomically`,
//! parked on the condvar) or from a task (`atomically_async` on a one-worker
//! pool, parked on its waker). Primary class: round trip via the thread.
//! Secondary class: round trip via the task. Whichever echoer is idle is
//! woken by every commit of the other lane all the same.

use std::sync::Arc;

use zstm_api::{DynStm, Stm};
use zstm_collections::TQueue;
use zstm_core::{RetryPolicy, StmConfig, TxKind, TxStats};
use zstm_tl2::Tl2Stm;
use zstm_util::exec::{self, ThreadPool};
use zstm_util::XorShift64;

use super::{hash_streams, stream_rng, warm_up_count, Finish, Workload};
use crate::harness::{self, Strides, WindowOut, Worker, PRIMARY, SECONDARY};
use crate::hist::Hist;
use crate::trace::{self, Name, Tracer};

const WARM_UP_ROUND_TRIPS: u64 = 50_000;
/// Tells an echoer to stop after echoing it.
const STOP: u64 = u64::MAX;
/// Set on the tokens of traced operations: the echoer logs when it had them.
const TRACED: u64 = 1 << 62;

/// One direction pair: driver → echoer and back.
struct Lane {
    to: TQueue<u64>,
    from: TQueue<u64>,
}

/// `(token, nanoseconds)` pairs on the process-wide trace clock.
type StampLog = Vec<(u64, u64)>;

#[derive(Default)]
struct EchoLog {
    echoed: u64,
    /// When the echoer's transaction returned, for traced tokens.
    stamps: StampLog,
}

impl EchoLog {
    fn note(&mut self, token: u64) {
        self.echoed += 1;
        if token != STOP && token & TRACED != 0 {
            self.stamps.push((token, trace::now_ns()));
        }
    }

    fn absorb(&mut self, other: EchoLog) {
        self.echoed += other.echoed;
        self.stamps.extend(other.stamps);
    }
}

struct Echoers {
    thread: std::thread::JoinHandle<EchoLog>,
    task: exec::JoinHandle<EchoLog>,
    pool: ThreadPool,
}

fn start_echoers(stm: &Arc<dyn DynStm>, lanes: &[Arc<Lane>; 2]) -> Echoers {
    let (thread_stm, lane) = (Arc::clone(stm), Arc::clone(&lanes[PRIMARY]));
    let thread = std::thread::Builder::new()
        .name("queue-echo".into())
        .spawn(move || {
            let mut log = EchoLog::default();
            loop {
                let token = thread_stm
                    .atomically(TxKind::Short, &RetryPolicy::unbounded(), |tx| {
                        let token = lane.to.pop(tx)?;
                        lane.from.push(tx, &token)?;
                        Ok(token)
                    })
                    .expect("unbounded echo commits");
                log.note(token);
                if token == STOP {
                    return log;
                }
            }
        })
        .expect("spawn echo thread");
    let pool = ThreadPool::new(1);
    let (task_stm, lane) = (Arc::clone(stm), Arc::clone(&lanes[SECONDARY]));
    let task = pool.spawn(async move {
        let mut log = EchoLog::default();
        loop {
            let lane = Arc::clone(&lane);
            let token = task_stm
                .atomically_async(TxKind::Short, move |tx| {
                    let token = lane.to.pop(tx)?;
                    lane.from.push(tx, &token)?;
                    Ok(token)
                })
                .await;
            log.note(token);
            if token == STOP {
                return log;
            }
        }
    });
    Echoers { thread, task, pool }
}

pub struct QueueDriver {
    stm: Arc<dyn DynStm>,
    lanes: [Arc<Lane>; 2],
    rng: XorShift64,
    next_token: u64,
    lane: usize,
    sent: [u64; 2],
    wrong_echoes: u64,
    /// When the push transaction returned, for traced tokens.
    push_stamps: StampLog,
}

impl QueueDriver {
    fn round_trip(&mut self, lane: usize, token: u64, tracer: Option<&Tracer>) -> Option<u64> {
        let Lane { to, from } = &*self.lanes[lane];
        let policy = RetryPolicy::unbounded();
        trace::atomically(
            &*self.stm,
            TxKind::Short,
            &policy,
            tracer,
            |tx| match tracer {
                Some(tracer) => tracer.span(Name::QueuePush, || to.push(tx, &token)),
                None => to.push(tx, &token),
            },
        )
        .ok()?;
        if tracer.is_some() {
            self.push_stamps.push((token, trace::now_ns()));
        }
        trace::atomically(
            &*self.stm,
            TxKind::Short,
            &policy,
            tracer,
            |tx| match tracer {
                Some(tracer) => tracer.span(Name::QueuePop, || from.pop(tx)),
                None => from.pop(tx),
            },
        )
        .ok()
    }
}

impl Worker for QueueDriver {
    fn thread_name(&self) -> String {
        "queue-driver".to_string()
    }

    fn sample_strides(&self) -> Strides {
        [1, 1]
    }

    fn trace_strides(&self) -> Strides {
        [16, 16]
    }

    fn draw(&mut self) -> usize {
        self.lane = if self.rng.next_percent(50) {
            PRIMARY
        } else {
            SECONDARY
        };
        self.lane
    }

    fn run(&mut self, tracer: Option<&Tracer>) -> bool {
        self.next_token += 1;
        let token = self.next_token | if tracer.is_some() { TRACED } else { 0 };
        if let Some(tracer) = tracer {
            tracer.set_op(token);
        }
        self.sent[self.lane] += 1;
        match self.round_trip(self.lane, token, tracer) {
            Some(echo) => {
                self.wrong_echoes += u64::from(echo != token);
                true
            }
            None => false,
        }
    }
}

pub struct Queue {
    stm: Arc<dyn DynStm>,
    lanes: [Arc<Lane>; 2],
    echoers: Option<Echoers>,
    echo_logs: [EchoLog; 2],
    stops_sent: u64,
    driver: [QueueDriver; 1],
    input_hash: u64,
}

impl Queue {
    /// Sends each echoer the stop token, collects its log and joins it, so
    /// that its engine context (and the statistics in it) returns to the pool.
    fn stop_echoers(&mut self) {
        let Some(echoers) = self.echoers.take() else {
            return;
        };
        for lane in [PRIMARY, SECONDARY] {
            let echo = self.driver[0].round_trip(lane, STOP, None);
            assert_eq!(echo, Some(STOP), "echoer answers the stop token");
        }
        self.stops_sent += 1;
        let thread_log = echoers.thread.join().expect("echo thread panicked");
        self.echo_logs[PRIMARY].absorb(thread_log);
        self.echo_logs[SECONDARY].absorb(echoers.task.join());
        drop(echoers.pool);
    }
}

/// Median time from the driver's push returning to the echoer's transaction
/// returning, over the traced tokens both sides logged.
fn wake_us_p50(pushes: &StampLog, echoes: &StampLog) -> Option<f64> {
    let mut hist = Hist::new();
    let mut echoes = echoes.iter().peekable();
    // Both logs are in token order (tokens only grow).
    for &(token, pushed) in pushes {
        while echoes.next_if(|(echoed, _)| *echoed < token).is_some() {}
        if let Some((_, at)) = echoes.next_if(|(echoed, _)| *echoed == token) {
            hist.record(at.saturating_sub(pushed));
        }
    }
    hist.quantile(0.5).map(|ns| ns / 1e3)
}

impl Workload for Queue {
    const NAME: &'static str = "queue_handoff_tl2";
    type Worker = QueueDriver;
    type Inputs = u64;

    fn generate(seed: u64) -> u64 {
        seed
    }

    fn setup(&seed: &u64, smoke: bool) -> Self {
        // Driver, echo thread, pool worker, and this thread for the stops.
        let stm: Arc<dyn DynStm> = Arc::new(Stm::new(Tl2Stm::new(StmConfig::new(4))));
        let lanes = [(); 2].map(|()| {
            Arc::new(Lane {
                to: TQueue::new(&*stm, 1),
                from: TQueue::new(&*stm, 1),
            })
        });
        let echoers = start_echoers(&stm, &lanes);
        let rng = stream_rng(seed, Self::NAME, 0);
        let input_hash = hash_streams(std::iter::once(&rng));
        let mut driver = [QueueDriver {
            stm: Arc::clone(&stm),
            lanes: lanes.clone(),
            rng,
            next_token: 0,
            lane: PRIMARY,
            sent: [0; 2],
            wrong_echoes: 0,
            push_stamps: Vec::new(),
        }];
        let failed = harness::warm_up(&mut driver, warm_up_count(WARM_UP_ROUND_TRIPS, smoke));
        assert_eq!(failed, 0, "warm-up round trips must complete");
        Queue {
            stm,
            lanes,
            echoers: Some(echoers),
            echo_logs: Default::default(),
            stops_sent: 0,
            driver,
            input_hash,
        }
    }

    fn input_hash(&self) -> u64 {
        self.input_hash
    }

    fn workers(&mut self) -> &mut [QueueDriver] {
        &mut self.driver
    }

    fn take_stats(&mut self) -> Option<TxStats> {
        // A live echoer keeps its engine context, statistics included, out
        // of reach; stopping and restarting the pair between windows is the
        // only way to read them.
        self.stop_echoers();
        let stats = self.stm.take_stats();
        self.echoers = Some(start_echoers(&self.stm, &self.lanes));
        Some(stats)
    }

    fn finish(mut self, _traced: Option<&WindowOut>) -> Finish {
        self.stop_echoers();
        let driver = &self.driver[0];
        let left_over = self
            .stm
            .atomically(TxKind::Short, &RetryPolicy::unbounded(), |tx| {
                let mut left = 0;
                for lane in &self.lanes {
                    left += lane.to.len(tx)? + lane.from.len(tx)?;
                }
                Ok(left)
            })
            .expect("unbounded audit commits");
        let audit = if driver.wrong_echoes > 0 {
            Err(format!(
                "{} echoes differed from the token sent",
                driver.wrong_echoes
            ))
        } else if left_over > 0 {
            Err(format!("{left_over} tokens left in the queues"))
        } else if let Some(lane) = [PRIMARY, SECONDARY]
            .into_iter()
            .find(|&lane| self.echo_logs[lane].echoed != driver.sent[lane] + self.stops_sent)
        {
            Err(format!(
                "lane {lane}: {} tokens sent (+{} stops), {} echoed",
                driver.sent[lane], self.stops_sent, self.echo_logs[lane].echoed
            ))
        } else {
            Ok(())
        };
        let mut layers = Vec::new();
        for (name, lane) in [
            ("api.wake_us_p50.condvar", PRIMARY),
            ("api.wake_us_p50.waker", SECONDARY),
        ] {
            if let Some(p50) = wake_us_p50(&driver.push_stamps, &self.echo_logs[lane].stamps) {
                layers.push((name, p50));
            }
        }
        Finish { audit, layers }
    }
}
