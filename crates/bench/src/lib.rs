//! Shared sweep logic for the figure-reproduction binary and the criterion
//! benches.
//!
//! Every public function regenerates one figure or ablation described in
//! `ARCHITECTURE.md` and returns the series the paper plots. The caller
//! chooses the measurement duration: the `repro-figures` binary uses
//! seconds per point, the criterion benches use tens of milliseconds to
//! stay fast.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use zstm_api::{DynStm, Stm};
use zstm_certify::CertifiedFactory;
use zstm_clock::{ScalarClock, ShardedClock, TimeBase};
use zstm_core::{CmPolicy, StmConfig, TmFactory};
use zstm_cs::CsStm;
use zstm_lsa::LsaStm;
use zstm_server::server::ServerConfig;
use zstm_server::socket::ChaosConfig;
use zstm_server::workload::{run_overload, run_server, OverloadConfig, ServerWorkloadConfig};
use zstm_sstm::SStm;
use zstm_tl2::Tl2Stm;
use zstm_workload::{
    run_array, run_bank, run_map, run_queue, run_queue_async, run_read_hotspot, ArrayConfig,
    BankConfig, BankReport, HotspotConfig, LongMode, MapConfig, QueueAsyncConfig, QueueConfig,
    QueueLoad, Series,
};
use zstm_z::ZStm;

/// Thread counts the paper sweeps in Figures 6 and 7.
pub const PAPER_THREADS: [usize; 5] = [1, 2, 8, 16, 32];

/// Output of one bank sweep: the two panels of a paper figure.
#[derive(Clone, Debug)]
pub struct BankFigure {
    /// Compute-Total throughput per system (left panel).
    pub totals: Vec<Series>,
    /// Transfer throughput per system (right panel).
    pub transfers: Vec<Series>,
}

fn bank_config(threads: usize, duration: Duration, mode: LongMode) -> BankConfig {
    let mut config = BankConfig::paper(threads);
    config.duration = duration;
    config.long_mode = mode;
    config
}

fn run_array_point<F: TmFactory>(stm: Arc<F>, config: &ArrayConfig) -> zstm_workload::ArrayReport {
    // `run_array` drives the erased facade (one compiled driver for every
    // engine); only this thin wrapper mentions the factory type.
    let stm: Arc<dyn DynStm> = Arc::new(Stm::from_arc(stm));
    run_array(&stm, config)
}

fn run_bank_point<F: TmFactory>(stm: Arc<F>, config: &BankConfig) -> BankReport {
    // `run_bank` drives the erased facade (one compiled driver for every
    // engine); only this thin wrapper mentions the factory type.
    let stm: Arc<dyn DynStm> = Arc::new(Stm::from_arc(stm));
    let report = run_bank(&stm, config);
    assert!(
        report.conserved,
        "{}: bank invariant violated at {} threads",
        report.stm, config.threads
    );
    report
}

/// One system of the Figure 6/7 sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BankSystem {
    /// Plain LSA-STM (read-only transactions maintain read sets).
    Lsa,
    /// "LSA-STM (no readsets)" — the optimized read-only path.
    LsaNoReadsets,
    /// Z-STM.
    Z,
}

impl BankSystem {
    /// Label used in the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            BankSystem::Lsa => "LSA-STM",
            BankSystem::LsaNoReadsets => "LSA-STM (no readsets)",
            BankSystem::Z => "Z-STM",
        }
    }

    fn run(self, config: &BankConfig) -> BankReport {
        // +1 logical thread for the harness's final audit.
        let stm_config = StmConfig::new(config.threads + 1);
        match self {
            BankSystem::Lsa => run_bank_point(Arc::new(LsaStm::new(stm_config)), config),
            BankSystem::LsaNoReadsets => {
                let mut stm_config = stm_config;
                stm_config.readonly_readsets(false);
                run_bank_point(Arc::new(LsaStm::new(stm_config)), config)
            }
            BankSystem::Z => run_bank_point(Arc::new(ZStm::new(stm_config)), config),
        }
    }
}

fn bank_figure(
    systems: &[BankSystem],
    threads: &[usize],
    duration: Duration,
    mode: LongMode,
) -> BankFigure {
    let mut totals: Vec<Series> = systems.iter().map(|s| Series::new(s.label())).collect();
    let mut transfers: Vec<Series> = systems.iter().map(|s| Series::new(s.label())).collect();
    for &n in threads {
        for (i, system) in systems.iter().enumerate() {
            let report = system.run(&bank_config(n, duration, mode));
            totals[i].push(n as f64, report.totals_per_sec);
            transfers[i].push(n as f64, report.transfers_per_sec);
        }
    }
    BankFigure { totals, transfers }
}

/// **Figure 6**: bank benchmark with *read-only* Compute-Total
/// transactions — LSA-STM, LSA-STM (no readsets) and Z-STM.
pub fn figure6(threads: &[usize], duration: Duration) -> BankFigure {
    bank_figure(
        &[BankSystem::Lsa, BankSystem::LsaNoReadsets, BankSystem::Z],
        threads,
        duration,
        LongMode::ReadOnly,
    )
}

/// **Figure 7**: bank benchmark with *update* Compute-Total transactions —
/// LSA-STM collapses, Z-STM sustains.
pub fn figure7(threads: &[usize], duration: Duration) -> BankFigure {
    bank_figure(
        &[BankSystem::Lsa, BankSystem::Z],
        threads,
        duration,
        LongMode::Update,
    )
}

/// **Ablation A** (Section 4.3): CS-STM over plausible clocks with
/// r ∈ {1, 2, 4, n} entries on the random-array workload. Returns
/// (throughput series, abort-ratio series) over r.
pub fn ablation_plausible_r(threads: usize, duration: Duration) -> (Series, Series) {
    let mut throughput = Series::new("CS-STM commits/s");
    let mut aborts = Series::new("CS-STM abort ratio");
    let mut config = ArrayConfig::new(threads);
    // Contended configuration: false orderings from shared clock entries
    // only become unnecessary aborts when read/write conflicts are common.
    config.objects = 24;
    config.tx_size = 6;
    config.write_pct = 50;
    config.duration = duration;
    let mut rs: Vec<usize> = vec![1, 2, 4];
    if !rs.contains(&threads) {
        rs.push(threads);
    }
    for r in rs {
        if r > threads {
            continue;
        }
        let stm = Arc::new(CsStm::with_plausible_clock(StmConfig::new(threads), r));
        let report = run_array_point(stm, &config);
        throughput.push(r as f64, report.commits_per_sec);
        aborts.push(r as f64, report.abort_ratio());
    }
    (throughput, aborts)
}

/// **Ablation B** (Section 4.4): runtime overhead of vector time — the
/// random-array workload on every STM. Returns one throughput series per
/// system over thread counts.
pub fn ablation_overhead(threads: &[usize], duration: Duration) -> Vec<Series> {
    let mut lsa = Series::new("LSA-STM");
    let mut tl2 = Series::new("TL2");
    let mut cs = Series::new("CS-STM (vector)");
    let mut z = Series::new("Z-STM");
    for &n in threads {
        let mut config = ArrayConfig::new(n);
        config.duration = duration;
        let report = run_array_point(Arc::new(LsaStm::new(StmConfig::new(n))), &config);
        lsa.push(n as f64, report.commits_per_sec);
        let report = run_array_point(Arc::new(Tl2Stm::new(StmConfig::new(n))), &config);
        tl2.push(n as f64, report.commits_per_sec);
        let report = run_array_point(
            Arc::new(CsStm::with_vector_clock(StmConfig::new(n))),
            &config,
        );
        cs.push(n as f64, report.commits_per_sec);
        let report = run_array_point(Arc::new(ZStm::new(StmConfig::new(n))), &config);
        z.push(n as f64, report.commits_per_sec);
    }
    vec![lsa, tl2, cs, z]
}

/// **Ablation C**: contention-manager comparison on a high-contention
/// array workload (LSA-STM). Returns one (policy, commits/s, abort ratio)
/// row per policy.
pub fn ablation_contention(threads: usize, duration: Duration) -> Vec<(&'static str, f64, f64)> {
    let mut rows = Vec::new();
    for policy in CmPolicy::ALL {
        let mut stm_config = StmConfig::new(threads);
        stm_config.cm(policy);
        let stm = Arc::new(LsaStm::new(stm_config));
        let mut config = ArrayConfig::new(threads);
        config.objects = 16; // high contention
        config.write_pct = 80;
        config.duration = duration;
        let report = run_array_point(stm, &config);
        rows.push((
            policy.build().name(),
            report.commits_per_sec,
            report.abort_ratio(),
        ));
    }
    rows
}

/// **Ablation D**: long-transaction frequency sweep — Compute-Total share
/// on the mixed thread from 0 % to 50 %, read-only mode, LSA vs Z.
/// Returns (Compute-Total series, transfer series) per system.
pub fn ablation_long_fraction(threads: usize, duration: Duration) -> BankFigure {
    let mut totals = vec![Series::new("LSA-STM"), Series::new("Z-STM")];
    let mut transfers = vec![Series::new("LSA-STM"), Series::new("Z-STM")];
    for pct in [0u8, 1, 5, 20, 50] {
        for (i, system) in [BankSystem::Lsa, BankSystem::Z].iter().enumerate() {
            let mut config = bank_config(threads, duration, LongMode::ReadOnly);
            config.total_pct = pct;
            let report = system.run(&config);
            totals[i].push(pct as f64, report.totals_per_sec);
            transfers[i].push(pct as f64, report.transfers_per_sec);
        }
    }
    BankFigure { totals, transfers }
}

/// One data point of the clock-contention microbench: `threads` workers
/// hammer [`TimeBase::commit_stamp`] (with a `now` thrown in every batch,
/// the snapshot pattern) for `duration`; returns stamps drawn per second.
pub fn stamp_throughput<B: TimeBase>(clock: Arc<B>, threads: usize, duration: Duration) -> f64 {
    const BATCH: u64 = 64;
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(threads + 1));
    let handles: Vec<_> = (0..threads)
        .map(|slot| {
            let clock = Arc::clone(&clock);
            let stop = Arc::clone(&stop);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut ops = 0u64;
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..BATCH {
                        std::hint::black_box(clock.commit_stamp(slot));
                    }
                    std::hint::black_box(clock.now(slot));
                    ops += BATCH;
                }
                ops
            })
        })
        .collect();
    barrier.wait();
    let started = Instant::now();
    std::thread::sleep(duration);
    stop.store(true, Ordering::Relaxed);
    let elapsed = started.elapsed();
    let total: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("clock worker panicked"))
        .sum();
    total as f64 / elapsed.as_secs_f64()
}

/// **Clock contention**: commit-stamp throughput of the shared-counter
/// [`ScalarClock`] vs the sharded time base over thread counts — the
/// microbench behind the "sharded/striped global clocks" scaling item.
/// Returns one series per clock.
pub fn clock_contention(threads: &[usize], duration: Duration) -> Vec<Series> {
    let mut scalar = Series::new("ScalarClock");
    let mut sharded = Series::new("ShardedClock");
    for &n in threads {
        scalar.push(
            n as f64,
            stamp_throughput(Arc::new(ScalarClock::new()), n, duration),
        );
        sharded.push(
            n as f64,
            stamp_throughput(Arc::new(ShardedClock::new(n)), n, duration),
        );
    }
    vec![scalar, sharded]
}

fn hotspot_point<F: TmFactory>(stm: Arc<F>, config: &HotspotConfig) -> f64 {
    let report = run_read_hotspot(&stm, config);
    assert!(
        report.consistent,
        "{}: hot reads must never tear at {} threads",
        report.stm, config.threads
    );
    report.reads_per_sec
}

/// **Read hotspot**: every thread hammers one hot variable with short
/// read-only transactions (plus a trickle of updates from thread 0) — the
/// pure read-path stress behind the zero-mutex fast-read work. LSA and Z
/// additionally run over the sharded time base. Every point asserts that
/// no committed read tore. Returns one committed-reads/s series per
/// configuration.
pub fn read_hotspot(threads: &[usize], duration: Duration) -> Vec<Series> {
    let mut series: Vec<Series> = [
        "LSA-STM",
        "LSA-STM (sharded)",
        "Z-STM",
        "Z-STM (sharded)",
        "CS-STM",
        "S-STM",
        "TL2",
    ]
    .into_iter()
    .map(Series::new)
    .collect();
    for &n in threads {
        let mut config = HotspotConfig::new(n);
        config.duration = duration;
        let points = [
            hotspot_point(Arc::new(LsaStm::new(StmConfig::new(n))), &config),
            hotspot_point(
                Arc::new(LsaStm::with_clock(StmConfig::new(n), ShardedClock::new(n))),
                &config,
            ),
            hotspot_point(Arc::new(ZStm::new(StmConfig::new(n))), &config),
            hotspot_point(
                Arc::new(ZStm::with_clock(StmConfig::new(n), ShardedClock::new(n))),
                &config,
            ),
            hotspot_point(
                Arc::new(CsStm::with_vector_clock(StmConfig::new(n))),
                &config,
            ),
            hotspot_point(
                Arc::new(SStm::with_vector_clock(StmConfig::new(n))),
                &config,
            ),
            hotspot_point(Arc::new(Tl2Stm::new(StmConfig::new(n))), &config),
        ];
        for (s, y) in series.iter_mut().zip(points) {
            s.push(n as f64, y);
        }
    }
    series
}

/// Labels of [`figure_certify`]'s native/certified engine pairs, in
/// order — shared with the `check_baselines` "certify" rule so the gate
/// cannot drift from the sweep.
pub const CERTIFY_LABELS: [&str; 10] = [
    "LSA-STM",
    "LSA-STM (certified)",
    "TL2",
    "TL2 (certified)",
    "CS-STM",
    "CS-STM (certified)",
    "S-STM",
    "S-STM (certified)",
    "Z-STM",
    "Z-STM (certified)",
];

/// **Certification figure**: what the online SSI certifier costs — the
/// random-array workload on every engine, native vs wrapped in
/// [`CertifiedFactory`], at moderate contention (rw conflicts must be
/// plausible for certification aborts to appear at all). Returns
/// (throughput series, abort-ratio series), one pair of entries per
/// engine in [`CERTIFY_LABELS`] order. Native always out-runs certified
/// (the certifier serializes commit processing globally); the gate only
/// bounds *how much* the certified shape may cost relative to the
/// committed baseline.
pub fn figure_certify(threads: &[usize], duration: Duration) -> (Vec<Series>, Vec<Series>) {
    let mut throughput: Vec<Series> = CERTIFY_LABELS.into_iter().map(Series::new).collect();
    let mut aborts: Vec<Series> = CERTIFY_LABELS.into_iter().map(Series::new).collect();
    for &n in threads {
        let mut config = ArrayConfig::new(n);
        config.objects = 24;
        config.tx_size = 4;
        config.write_pct = 50;
        config.duration = duration;
        let reports = [
            run_array_point(Arc::new(LsaStm::new(StmConfig::new(n))), &config),
            run_array_point(
                Arc::new(CertifiedFactory::new(StmConfig::new(n), LsaStm::new)),
                &config,
            ),
            run_array_point(Arc::new(Tl2Stm::new(StmConfig::new(n))), &config),
            run_array_point(
                Arc::new(CertifiedFactory::new(StmConfig::new(n), Tl2Stm::new)),
                &config,
            ),
            run_array_point(
                Arc::new(CsStm::with_vector_clock(StmConfig::new(n))),
                &config,
            ),
            run_array_point(
                Arc::new(CertifiedFactory::new(
                    StmConfig::new(n),
                    CsStm::with_vector_clock,
                )),
                &config,
            ),
            run_array_point(
                Arc::new(SStm::with_vector_clock(StmConfig::new(n))),
                &config,
            ),
            run_array_point(
                Arc::new(CertifiedFactory::new(
                    StmConfig::new(n),
                    SStm::with_vector_clock,
                )),
                &config,
            ),
            run_array_point(Arc::new(ZStm::new(StmConfig::new(n))), &config),
            run_array_point(
                Arc::new(CertifiedFactory::new(StmConfig::new(n), ZStm::new)),
                &config,
            ),
        ];
        for ((t, a), report) in throughput.iter_mut().zip(aborts.iter_mut()).zip(reports) {
            t.push(n as f64, report.commits_per_sec);
            a.push(n as f64, report.abort_ratio());
        }
    }
    (throughput, aborts)
}

/// Figure-legend labels of [`dyn_engines`]'s entries, in order — shared
/// so series built from it cannot drift from the engine list.
pub const DYN_ENGINE_LABELS: [&str; 5] = ["LSA-STM", "TL2", "CS-STM", "S-STM", "Z-STM"];

/// Builds every engine as a type-erased [`DynStm`] handle — the runtime
/// registry behind the queue figure and any driver that selects an STM
/// from a flag instead of a type parameter. Labels are
/// [`DYN_ENGINE_LABELS`], zipped in order.
pub fn dyn_engines(threads: usize) -> Vec<(&'static str, Arc<dyn DynStm>)> {
    let engines: [Arc<dyn DynStm>; 5] = [
        Arc::new(Stm::new(LsaStm::new(StmConfig::new(threads)))),
        Arc::new(Stm::new(Tl2Stm::new(StmConfig::new(threads)))),
        Arc::new(Stm::new(CsStm::with_vector_clock(StmConfig::new(threads)))),
        Arc::new(Stm::new(SStm::with_vector_clock(StmConfig::new(threads)))),
        Arc::new(Stm::new(ZStm::new(StmConfig::new(threads)))),
    ];
    DYN_ENGINE_LABELS.into_iter().zip(engines).collect()
}

fn queue_point(stm: &Arc<dyn DynStm>, config: &QueueConfig) -> f64 {
    let report = run_queue(stm, config);
    assert!(
        report.correct(),
        "{}: queue invariants violated at {} producers",
        report.stm,
        config.producers
    );
    report.ops_per_sec
}

/// **Queue figure**: the bounded blocking producer/consumer queue on all
/// five engines (selected through the erased facade). `x = n` means `n`
/// producers and `n` consumers sharing one capacity-64 ring. Returns one
/// delivered-items/s series per engine.
pub fn figure_queue(threads: &[usize], duration: Duration) -> Vec<Series> {
    // Labels come from the registry's own list so the series can never
    // drift from the engine order.
    let mut series: Vec<Series> = DYN_ENGINE_LABELS.into_iter().map(Series::new).collect();
    for &n in threads {
        let mut config = QueueConfig::new(n);
        config.load = QueueLoad::Timed(duration);
        for (s, (_, stm)) in series.iter_mut().zip(dyn_engines(config.threads_needed())) {
            s.push(n as f64, queue_point(&stm, &config));
        }
    }
    series
}

fn queue_async_point(stm: &Arc<dyn DynStm>, config: &QueueAsyncConfig) -> f64 {
    let report = run_queue_async(stm, config);
    assert!(
        report.correct(),
        "{}: async queue invariants violated at {} producer tasks",
        report.stm,
        config.producers
    );
    report.ops_per_sec
}

/// **Async-queue figure**: the bounded blocking ring with producers and
/// consumers as *futures* multiplexed over fewer OS threads than tasks
/// (`2n` tasks over `ceil(n / 2)` executor workers; see
/// [`QueueAsyncConfig::new`]). Three series:
///
/// * `LSA-STM (async)` / `Z-STM (async)` — waker-parked suspension (the
///   `Stm::atomically_async` retry protocol);
/// * `LSA-STM (sync)` — the OS-thread-per-worker [`run_queue`] shape at
///   the same pair count, for context (its thread count scales with `n`
///   while the async sweep holds workers at `ceil(n / 2)`).
pub fn figure_queue_async(threads: &[usize], duration: Duration) -> Vec<Series> {
    let mut lsa_async = Series::new("LSA-STM (async)");
    let mut z_async = Series::new("Z-STM (async)");
    let mut lsa_sync = Series::new("LSA-STM (sync)");
    for &n in threads {
        let mut config = QueueAsyncConfig::new(n);
        config.load = QueueLoad::Timed(duration);
        let stm_threads = config.threads_needed();
        let lsa: Arc<dyn DynStm> = Arc::new(Stm::new(LsaStm::new(StmConfig::new(stm_threads))));
        lsa_async.push(n as f64, queue_async_point(&lsa, &config));
        let z: Arc<dyn DynStm> = Arc::new(Stm::new(ZStm::new(StmConfig::new(stm_threads))));
        z_async.push(n as f64, queue_async_point(&z, &config));

        let mut sync_config = QueueConfig::new(n);
        sync_config.load = QueueLoad::Timed(duration);
        let sync_stm: Arc<dyn DynStm> = Arc::new(Stm::new(LsaStm::new(StmConfig::new(
            sync_config.threads_needed(),
        ))));
        lsa_sync.push(n as f64, queue_point(&sync_stm, &sync_config));
    }
    vec![lsa_async, z_async, lsa_sync]
}

/// Figure-legend labels of [`figure_server`]'s series, in order — shared
/// with the `check_baselines` "server" rules so the gate cannot drift
/// from the sweep.
pub const SERVER_LABELS: [&str; 4] = ["LSA-STM", "LSA-STM (serial)", "Z-STM", "LSA-STM (chaos)"];

fn server_point(config: &ServerWorkloadConfig) -> f64 {
    let report = run_server(config);
    assert!(
        report.conserved,
        "{}: server transfers must conserve at {} connections",
        report.engine, report.connections
    );
    assert_eq!(
        report.waiters_released, config.waiters as u64,
        "{}: every parked waiter must be released",
        report.engine
    );
    report.rps
}

/// **Server figure**: committed `MULTI`…`EXEC` transfers per second over
/// real TCP round trips, swept over client connection counts — the RPS
/// figure of the network front end (`crates/server`, `PROTOCOL.md`).
/// Four series in [`SERVER_LABELS`] order:
///
/// * `LSA-STM` — execution width two (`ServerConfig::workers`), the
///   reference shape;
/// * `LSA-STM (serial)` — width one: the A/B pair behind the
///   `check_baselines` non-regression rule (two permits must not lose to
///   one);
/// * `Z-STM` — the same sweep engine-swapped through the runtime
///   registry, showing the front end is engine-agnostic;
/// * `LSA-STM (chaos)` — a [`ChaosSocket`](zstm_server::socket::ChaosSocket)
///   read delay injected on every
///   server-side read, the degraded-link series the gate compares the
///   fault-free shape against.
///
/// Every run parks two extra `WAIT` connections for its whole window, so
/// each measured point has more open transactions than execution width.
/// Each point asserts the transfer conservation invariant.
pub fn figure_server(connections: &[usize], duration: Duration) -> Vec<Series> {
    let mut series: Vec<Series> = SERVER_LABELS.into_iter().map(Series::new).collect();
    for &n in connections {
        let mut base = ServerWorkloadConfig::quick(n);
        base.duration = duration;
        base.waiters = 2;

        let mut lsa = base.clone();
        lsa.server = ServerConfig::new("lsa").with_workers(2);
        let mut serial = base.clone();
        serial.server = ServerConfig::new("lsa").with_workers(1);
        let mut z = base.clone();
        z.server = ServerConfig::new("z").with_workers(2);
        let mut chaos = base.clone();
        let mut link = ChaosConfig::quiet(0xD311 ^ n as u64);
        link.read_delay = Duration::from_micros(500);
        chaos.server = ServerConfig::new("lsa").with_workers(2).with_chaos(link);

        let points = [
            server_point(&lsa),
            server_point(&serial),
            server_point(&z),
            server_point(&chaos),
        ];
        for (s, y) in series.iter_mut().zip(points) {
            s.push(n as f64, y);
        }
    }
    series
}

/// Series labels of [`figure_overload`], in order — shared with the
/// `check_baselines` overload shape rules so the gate cannot drift from
/// the sweep.
pub const OVERLOAD_LABELS: [&str; 2] = ["goodput", "shed-rate"];

/// **Overload figure**: goodput and shed rate versus offered load on a
/// deliberately tight server (execution width one, one admission slot — see
/// [`OverloadConfig::tight`]). The x axis is the *excess*: closed-loop
/// clients beyond the one the admission slot can serve at a time, each
/// offering transfers back-to-back, so point x runs x + 1 connections and
/// every point is at or past saturation. A lone client is left out on
/// purpose: it is bound by its own round trip (two scheduler wake-ups
/// per transfer once client and server sit on different CPUs — 13–28 k/s
/// run to run on the 2-core box where two clients reach 140 k/s), which
/// measures the box's idle-exit latency, not the server. Two series in
/// [`OVERLOAD_LABELS`] order:
///
/// * `goodput` — committed transfers per second. Under admission control
///   this stays roughly flat as offered load grows: excess work is
///   answered with cheap `BUSY` frames instead of queueing behind the
///   one slot and dragging every response down.
/// * `shed-rate` — `(BUSY + TIMEOUT replies) / attempts`, positive as
///   soon as two clients meet at the slot and not falling as more join.
///
/// Every point asserts the transfer conservation invariant: shed and
/// timed-out transfers must leave no partial effects.
pub fn figure_overload(excess: &[usize], duration: Duration) -> Vec<Series> {
    const ADMISSION_CAP: usize = 1;
    let mut series: Vec<Series> = OVERLOAD_LABELS.into_iter().map(Series::new).collect();
    for &n in excess {
        let mut config = OverloadConfig::tight(ADMISSION_CAP + n, ADMISSION_CAP);
        config.duration = duration;
        let report = run_overload(&config);
        assert!(
            report.conserved,
            "{}: shed transfers must leave no partial effects at {} connections",
            report.engine, report.connections
        );
        series[0].push(n as f64, report.goodput);
        series[1].push(n as f64, report.shed_rate);
    }
    series
}

fn run_map_point<F: TmFactory>(stm: Arc<F>, config: &MapConfig) -> f64 {
    // Like `run_bank_point`: the driver itself runs over the erased
    // facade, so only this wrapper mentions the factory type.
    let stm: Arc<dyn DynStm> = Arc::new(Stm::from_arc(stm));
    let report = run_map(&stm, config);
    assert!(
        report.consistent,
        "{}: map scans must observe consistent snapshots at {} threads",
        report.stm, config.threads
    );
    report.ops_per_sec
}

/// Bucket counts swept by [`figure_collections`], coarse to fine, at the
/// fixed [`COLLECTIONS_KEYS`] key range.
pub const COLLECTIONS_BUCKETS: [usize; 4] = [1, 4, 16, 64];

/// Key range of the conflict-granularity sweep: fixed while the bucket
/// count sweeps, so the x axis is purely buckets-per-key.
pub const COLLECTIONS_KEYS: usize = 256;

/// **Collections figure**: the conflict granularity of the `TMap` — the
/// update-heavy map workload at a fixed key range while the bucket count
/// sweeps from one (every update conflicts with every other) to 64
/// (disjoint keys usually commute). The workload *is* the collections
/// layer: `run_map` drives a `TMap<u64, u64>` through the erased facade,
/// so per-bucket `TVar`s are exactly what the sweep measures. Returns one
/// throughput-vs-buckets series per engine (LSA and Z). Scans are
/// disabled: a whole-map scan reads every bucket and would flatten the
/// granularity signal this figure exists to show.
pub fn figure_collections(threads: &[usize], duration: Duration) -> Vec<Series> {
    // Granularity needs concurrent updaters; sweep at the top requested
    // thread count (floored at 2 so `--threads 1` still contends).
    let n = threads.iter().copied().max().unwrap_or(2).max(2);
    let mut lsa = Series::new("LSA-STM");
    let mut z = Series::new("Z-STM");
    for &buckets in &COLLECTIONS_BUCKETS {
        let mut config = MapConfig::new(n);
        config.buckets = buckets;
        config.keys = COLLECTIONS_KEYS;
        config.lookup_pct = 10; // update-heavy: conflicts dominate
        config.scan_pct = 0;
        config.duration = duration;
        lsa.push(
            buckets as f64,
            run_map_point(Arc::new(LsaStm::new(StmConfig::new(n))), &config),
        );
        z.push(
            buckets as f64,
            run_map_point(Arc::new(ZStm::new(StmConfig::new(n))), &config),
        );
    }
    vec![lsa, z]
}

/// **Map figure**: the read-dominated map workload on LSA over the scalar
/// and sharded clocks plus Z-STM over the sharded clock — the sweep that
/// shows what the seqlock read path and the sharded time base buy on the
/// workloads they target. Returns one throughput series per system.
pub fn figure_map(threads: &[usize], duration: Duration) -> Vec<Series> {
    let mut lsa_scalar = Series::new("LSA-STM (scalar)");
    let mut lsa_sharded = Series::new("LSA-STM (sharded)");
    let mut z_sharded = Series::new("Z-STM (sharded)");
    for &n in threads {
        let mut config = MapConfig::new(n);
        config.duration = duration;
        lsa_scalar.push(
            n as f64,
            run_map_point(Arc::new(LsaStm::new(StmConfig::new(n))), &config),
        );
        lsa_sharded.push(
            n as f64,
            run_map_point(
                Arc::new(LsaStm::with_clock(StmConfig::new(n), ShardedClock::new(n))),
                &config,
            ),
        );
        z_sharded.push(
            n as f64,
            run_map_point(
                Arc::new(ZStm::with_clock(StmConfig::new(n), ShardedClock::new(n))),
                &config,
            ),
        );
    }
    vec![lsa_scalar, lsa_sharded, z_sharded]
}

#[cfg(test)]
mod tests {
    use super::*;

    const FAST: Duration = Duration::from_millis(40);

    /// Runs one figure's sweep under a deadline: each normally takes a
    /// second or two, so a hang in any engine fails with the figure's
    /// name instead of stalling the whole test run.
    fn smoke<T: Send + 'static>(figure: &str, sweep: impl FnOnce() -> T + Send + 'static) -> T {
        let name = format!("{figure} smoke [every engine of the figure]");
        zstm_util::run_with_deadline(&name, Duration::from_secs(45), sweep)
    }

    #[test]
    fn figure6_smoke() {
        let figure = smoke("figure6", || figure6(&[1, 2], FAST));
        assert_eq!(figure.totals.len(), 3);
        assert_eq!(figure.transfers.len(), 3);
        for series in &figure.transfers {
            assert!(series.points.iter().all(|&(_, y)| y >= 0.0));
        }
    }

    #[test]
    fn figure7_smoke() {
        let figure = smoke("figure7", || figure7(&[2], FAST));
        assert_eq!(figure.totals.len(), 2);
        // Z-STM must commit at least one update Compute-Total even in a
        // 40 ms window.
        let z = &figure.totals[1];
        assert_eq!(z.label, "Z-STM");
    }

    #[test]
    fn clock_contention_smoke() {
        let series = clock_contention(&[1, 2], FAST);
        assert_eq!(series.len(), 2);
        for s in &series {
            assert_eq!(s.points.len(), 2);
            assert!(s.points.iter().all(|&(_, y)| y > 0.0));
        }
    }

    #[test]
    fn figure_map_smoke() {
        let series = smoke("figure_map", || figure_map(&[2], FAST));
        assert_eq!(series.len(), 3);
        for s in &series {
            assert!(s.points.iter().all(|&(_, y)| y > 0.0));
        }
    }

    #[test]
    fn figure_collections_smoke() {
        let series = smoke("figure_collections", || figure_collections(&[2], FAST));
        assert_eq!(series.len(), 2);
        for s in &series {
            assert_eq!(s.points.len(), COLLECTIONS_BUCKETS.len());
            assert!(
                s.points.iter().all(|&(_, y)| y > 0.0),
                "{}: every bucket count must commit operations",
                s.label
            );
        }
    }

    #[test]
    fn read_hotspot_smoke() {
        let series = smoke("read_hotspot", || read_hotspot(&[2], FAST));
        assert_eq!(series.len(), 7);
        for s in &series {
            assert!(
                s.points.iter().all(|&(_, y)| y > 0.0),
                "{}: empty hotspot series",
                s.label
            );
        }
    }

    #[test]
    fn figure_queue_smoke() {
        let series = smoke("figure_queue", || figure_queue(&[1], FAST));
        assert_eq!(series.len(), DYN_ENGINE_LABELS.len());
        for s in &series {
            assert!(
                s.points.iter().all(|&(_, y)| y > 0.0),
                "{}: queue series must deliver items",
                s.label
            );
        }
    }

    #[test]
    fn figure_queue_async_smoke() {
        let series = smoke("figure_queue_async", || figure_queue_async(&[2], FAST));
        assert_eq!(series.len(), 3);
        for s in &series {
            assert!(
                s.points.iter().all(|&(_, y)| y > 0.0),
                "{}: async queue series must deliver items",
                s.label
            );
        }
    }

    #[test]
    fn figure_server_smoke() {
        let series = smoke("figure_server", || figure_server(&[1, 2], FAST));
        assert_eq!(series.len(), SERVER_LABELS.len());
        for s in &series {
            assert!(
                s.points.iter().all(|&(_, y)| y > 0.0),
                "{}: server series must commit transfers",
                s.label
            );
        }
    }

    #[test]
    fn figure_overload_smoke() {
        let series = smoke("figure_overload", || figure_overload(&[1, 4], FAST));
        assert_eq!(series.len(), OVERLOAD_LABELS.len());
        let goodput = &series[0];
        assert!(
            goodput.points.iter().all(|&(_, y)| y > 0.0),
            "goodput: the admitted slot must still commit transfers"
        );
        let shed = &series[1];
        assert!(
            shed.points.iter().all(|&(_, y)| (0.0..=1.0).contains(&y)),
            "shed-rate: a rate must stay within [0, 1]"
        );
    }

    #[test]
    fn figure_certify_smoke() {
        let (throughput, aborts) = smoke("figure_certify", || figure_certify(&[2], FAST));
        assert_eq!(throughput.len(), CERTIFY_LABELS.len());
        assert_eq!(aborts.len(), CERTIFY_LABELS.len());
        for s in &throughput {
            assert!(
                s.points.iter().all(|&(_, y)| y > 0.0),
                "{}: certified engines must still commit",
                s.label
            );
        }
    }

    #[test]
    fn ablations_smoke() {
        let (throughput, aborts) = ablation_plausible_r(2, FAST);
        assert!(!throughput.points.is_empty());
        assert_eq!(throughput.points.len(), aborts.points.len());
        let overhead = ablation_overhead(&[2], FAST);
        assert_eq!(overhead.len(), 4);
        let contention = ablation_contention(2, FAST);
        assert_eq!(contention.len(), CmPolicy::ALL.len());
    }
}
