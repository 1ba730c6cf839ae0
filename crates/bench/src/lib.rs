//! The figure table: every figure and ablation this repository re-draws
//! is one [`FigureDef`] in [`FIGURES`] — its command-line name, the files
//! it writes, its sweep axis, its series and, for a figure with a
//! committed baseline, the gates and the arguments that re-seed it.
//!
//! Nothing else spells a figure. `repro_figures` looks a name up and runs
//! [`FigureDef::sweep`]; `check_baselines` loops over the [`Baseline`]s;
//! CI runs `repro_figures all`; the command block and rule table of
//! `baselines/README.md` are generated from the table and compared by
//! `crates/bench/tests/figures.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod json;

use std::sync::Arc;
use std::time::Duration;

use zstm_api::{DynStm, Stm};
use zstm_clock::{ScalarClock, ShardedClock, TimeBase};
use zstm_core::{CmPolicy, StmConfig, TmFactory};
use zstm_cs::CsStm;
use zstm_lsa::LsaStm;
use zstm_server::registry::build_engine;
use zstm_server::server::ServerConfig;
use zstm_server::socket::ChaosConfig;
use zstm_server::workload::{run_server, ServerWorkloadConfig};
use zstm_sstm::SStm;
use zstm_tl2::Tl2Stm;
use zstm_util::run_window;
use zstm_workload::{
    run_array, run_bank, run_map, run_queue, run_queue_async, run_read_hotspot, ArrayConfig,
    BankConfig, HotspotConfig, LongMode, MapConfig, QueueAsyncConfig, QueueConfig, QueueLoad,
    Series,
};
use zstm_z::ZStm;

pub use gate::{Baseline, Gate};

/// Thread counts the paper sweeps in Figures 6 and 7.
pub const PAPER_THREADS: [usize; 5] = [1, 2, 8, 16, 32];

/// The inputs of one data point.
#[derive(Clone, Copy, Debug)]
pub struct Run {
    /// Worker threads (or client connections) of the run.
    pub threads: usize,
    /// The point's position on the x axis; equals `threads` on every axis
    /// but [`Axis::AtTop`].
    pub x: usize,
    /// Length of the timed window.
    pub window: Duration,
}

/// What a sweep's x axis is.
#[derive(Clone, Copy, Debug)]
pub enum Axis {
    /// x walks the `--threads` list; the name says what the number counts.
    Listed(&'static str),
    /// The figure sweeps something else, named `x`, over `xs(threads)`,
    /// at the top requested thread count clamped to `min..=max`.
    AtTop {
        /// What x counts.
        x: &'static str,
        /// Fewest threads the sweep means anything at.
        min: usize,
        /// Most threads it is run at.
        max: usize,
        /// The x values, given the thread count.
        xs: fn(usize) -> Vec<usize>,
    },
}

const THREADS: Axis = Axis::Listed("threads");

impl Axis {
    /// What x counts, for table headers.
    pub fn x(&self) -> &'static str {
        match self {
            Axis::Listed(x) | Axis::AtTop { x, .. } => x,
        }
    }

    /// `(threads, x)` of every point of a sweep over `threads`.
    pub fn points(&self, threads: &[usize]) -> Vec<(usize, usize)> {
        match *self {
            Axis::AtTop { min, max, xs, .. } => {
                let top = threads.iter().copied().max().unwrap_or(min);
                let n = top.clamp(min, max);
                xs(n).into_iter().map(|x| (n, x)).collect()
            }
            Axis::Listed(_) => threads.iter().map(|&n| (n, n)).collect(),
        }
    }
}

/// What every value of a measure satisfies on a healthy run, however
/// short; the smoke test of the table holds each sweep to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Y {
    /// A throughput that cannot be zero: `y > 0`.
    Positive,
    /// A throughput that starvation may legitimately zero: `y >= 0`.
    NonNegative,
    /// A ratio: `0 <= y <= 1`.
    Rate,
}

/// One quantity a run yields: where it is saved and how it is printed.
#[derive(Clone, Copy, Debug)]
pub struct Measure {
    /// File stem under the output directory. Measures sharing a stem
    /// share the file.
    pub stem: &'static str,
    /// Title of the printed table.
    pub title: &'static str,
    /// Appended to the series label, which tells apart two measures in
    /// one file.
    pub suffix: &'static str,
    /// The range of a healthy value.
    pub y: Y,
}

impl Measure {
    const fn new(stem: &'static str, title: &'static str) -> Self {
        Self {
            stem,
            title,
            suffix: "",
            y: Y::Positive,
        }
    }

    const fn suffix(mut self, suffix: &'static str) -> Self {
        self.suffix = suffix;
        self
    }

    const fn y(mut self, y: Y) -> Self {
        self.y = y;
        self
    }
}

/// One plotted line: its legend label and how a point of it is measured.
/// A point yields one value per [`Measure`] of the figure, in order, and
/// asserts the workload's own invariant (conservation, no torn read,
/// exactly-once delivery) before reporting.
#[derive(Clone, Copy, Debug)]
pub struct SeriesDef {
    /// Legend label (the paper's where the paper has one).
    pub label: &'static str,
    /// Measures one point.
    pub point: fn(Run) -> Vec<f64>,
}

const fn series(label: &'static str, point: fn(Run) -> Vec<f64>) -> SeriesDef {
    SeriesDef { label, point }
}

/// One figure: the single place it is spelled.
#[derive(Clone, Copy, Debug)]
pub struct FigureDef {
    /// `repro_figures` subcommand.
    pub name: &'static str,
    /// One line saying what the figure shows.
    pub doc: &'static str,
    /// The sweep axis.
    pub axis: Axis,
    /// What each run yields; at least one.
    pub measures: &'static [Measure],
    /// The plotted lines.
    pub series: &'static [SeriesDef],
    /// Present iff `baselines/<first stem>.json` is committed and gated.
    pub baseline: Option<Baseline>,
}

impl FigureDef {
    /// The file its [`Baseline`] keeps and its gates read: the first
    /// measure's.
    pub fn stem(&self) -> &'static str {
        self.measures[0].stem
    }

    /// The one sweep loop: every series at every point of the axis, one
    /// `Vec<Series>` per measure, in measure order.
    pub fn sweep(&self, threads: &[usize], window: Duration) -> Vec<Vec<Series>> {
        let labelled = |measure: &Measure| {
            let label = |s: &SeriesDef| Series::new(format!("{}{}", s.label, measure.suffix));
            self.series.iter().map(label).collect::<Vec<_>>()
        };
        let mut panels: Vec<Vec<Series>> = self.measures.iter().map(labelled).collect();
        for (threads, x) in self.axis.points(threads) {
            for (i, series) in self.series.iter().enumerate() {
                let ys = (series.point)(Run { threads, x, window });
                assert_eq!(
                    ys.len(),
                    panels.len(),
                    "a point yields one value per measure"
                );
                for (panel, y) in panels.iter_mut().zip(ys) {
                    panel[i].push(x as f64, y);
                }
            }
        }
        panels
    }

    /// Groups a sweep's panels into the files it is saved as: one
    /// [`json::Figure`] per distinct stem, in measure order.
    pub fn files(&self, panels: &[Vec<Series>]) -> Vec<json::Figure> {
        let mut files: Vec<json::Figure> = Vec::new();
        for (measure, panel) in self.measures.iter().zip(panels) {
            match files.iter_mut().find(|file| file.name == measure.stem) {
                Some(file) => file.series.extend_from_slice(panel),
                None => files.push(json::Figure {
                    name: measure.stem.to_string(),
                    series: panel.clone(),
                }),
            }
        }
        files
    }
}

/// Prints what was wrong with a command line plus `usage`, and exits
/// with status 2 — both binaries' answer to any argument error.
pub fn usage_exit(problem: &str, usage: &str) -> ! {
    eprintln!("{problem}; usage: {usage}");
    std::process::exit(2);
}

fn erased<F: TmFactory>(factory: F) -> Arc<dyn DynStm> {
    Arc::new(Stm::new(factory))
}

fn config(run: Run) -> StmConfig {
    StmConfig::new(run.threads)
}

fn lsa_sharded(threads: usize) -> LsaStm<ShardedClock> {
    LsaStm::with_clock(StmConfig::new(threads), ShardedClock::new(threads))
}

fn z_sharded(threads: usize) -> ZStm<ShardedClock> {
    ZStm::with_clock(StmConfig::new(threads), ShardedClock::new(threads))
}

/// An erased engine by name: the names of the server's runtime registry,
/// plus three configurations only the figures plot.
fn engine(name: &str, threads: usize) -> Arc<dyn DynStm> {
    match name {
        "lsa-no-readsets" => {
            let mut config = StmConfig::new(threads);
            config.readonly_readsets(false);
            erased(LsaStm::new(config))
        }
        "lsa-sharded" => erased(lsa_sharded(threads)),
        "z-sharded" => erased(z_sharded(threads)),
        name => build_engine(name, threads, false).expect("an engine name"),
    }
}

/// The paper's bank benchmark: `[Compute-Totals/s, transfers/s]`. The
/// engine is built for one thread more than `run.threads`, the harness's
/// final audit.
fn bank(name: &str, mode: LongMode, total_pct: Option<u8>, run: Run) -> Vec<f64> {
    let mut config = BankConfig::paper(run.threads);
    config.duration = run.window;
    config.long_mode = mode;
    config.total_pct = total_pct.unwrap_or(config.total_pct);
    let report = run_bank(&engine(name, run.threads + 1), &config);
    assert!(
        report.conserved,
        "{}: bank invariant violated at {} threads",
        report.stm, run.threads
    );
    vec![report.totals_per_sec, report.transfers_per_sec]
}

/// `(objects, accesses per transaction, write %)` of the random-array
/// workload. Contended mixes: a false ordering from a shared clock entry,
/// or a certification abort, needs read/write conflicts to be common.
type ArrayMix = (usize, usize, u8);
const DEFAULT_MIX: ArrayMix = (256, 4, 20);
const PLAUSIBLE_MIX: ArrayMix = (24, 6, 50);
const CERTIFY_MIX: ArrayMix = (24, 4, 50);
const CONTENTION_MIX: ArrayMix = (16, 4, 80);

/// The random-array workload: `[commits/s, abort ratio]`.
fn array(stm: Arc<dyn DynStm>, (objects, tx_size, write_pct): ArrayMix, run: Run) -> Vec<f64> {
    let config = ArrayConfig {
        objects,
        tx_size,
        write_pct,
        duration: run.window,
        ..ArrayConfig::new(run.threads)
    };
    let report = run_array(&stm, &config);
    vec![report.commits_per_sec, report.abort_ratio()]
}

/// The array workload on a registry engine, native or SSI-certified.
fn certify(name: &str, certified: bool, run: Run) -> Vec<f64> {
    let stm = build_engine(name, run.threads, certified).expect("an engine name");
    array(stm, CERTIFY_MIX, run)
}

fn array_commits(name: &str, run: Run) -> Vec<f64> {
    array(engine(name, run.threads), DEFAULT_MIX, run)[..1].to_vec()
}

/// The bucketed-map workload, committed ops/s.
fn map(name: &str, config: MapConfig) -> Vec<f64> {
    let report = run_map(&engine(name, config.threads), &config);
    assert!(
        report.consistent,
        "{}: map scans must observe consistent snapshots at {} threads",
        report.stm, config.threads
    );
    vec![report.ops_per_sec]
}

/// The read-dominated default mix.
fn map_reads(run: Run) -> MapConfig {
    MapConfig {
        duration: run.window,
        ..MapConfig::new(run.threads)
    }
}

/// A fixed key range while the bucket count sweeps, so the x axis is
/// purely buckets-per-key. Update-heavy, so conflicts dominate, and no
/// whole-map scans: a scan reads every bucket and would flatten the
/// granularity signal.
fn map_granularity(run: Run) -> MapConfig {
    MapConfig {
        buckets: run.x,
        keys: 256,
        lookup_pct: 10,
        scan_pct: 0,
        ..map_reads(run)
    }
}

/// Committed reads/s of one hot variable. Monomorphized, not erased: the
/// dispatch would tax the very read path this measures.
fn hotspot<F: TmFactory>(factory: F, run: Run) -> Vec<f64> {
    let mut config = HotspotConfig::new(run.threads);
    config.duration = run.window;
    let report = run_read_hotspot(&Arc::new(factory), &config);
    assert!(
        report.consistent,
        "{}: hot reads must never tear at {} threads",
        report.stm, run.threads
    );
    vec![report.reads_per_sec]
}

/// Delivered items/s of the blocking ring: `x` producers and `x`
/// consumers, OS threads.
fn queue(name: &str, run: Run) -> Vec<f64> {
    let mut config = QueueConfig::new(run.x);
    config.load = QueueLoad::Timed(run.window);
    let report = run_queue(&engine(name, config.threads_needed()), &config);
    assert!(
        report.correct(),
        "{}: queue invariants violated at {} producers",
        report.stm,
        config.producers
    );
    vec![report.ops_per_sec]
}

/// The same ring with `2x` futures over `ceil(x / 2)` executor workers
/// (see [`QueueAsyncConfig::new`]), suspended by waker registration.
fn queue_async(name: &str, run: Run) -> Vec<f64> {
    let mut config = QueueAsyncConfig::new(run.x);
    config.load = QueueLoad::Timed(run.window);
    let report = run_queue_async(&engine(name, config.threads_needed()), &config);
    assert!(
        report.correct(),
        "{}: async queue invariants violated at {} producer tasks",
        report.stm,
        config.producers
    );
    vec![report.ops_per_sec]
}

/// Committed `MULTI`…`EXEC` transfers/s over loopback TCP, `x` client
/// connections, at execution width `workers`; `delayed` sleeps 500 µs
/// before every server-side read. Two extra `WAIT` connections stay parked
/// for the whole window, so every point has more open transactions than
/// execution width. The server has no limits, so no reply may be `BUSY` or
/// `TIMEOUT` (PROTOCOL.md §6).
fn server(name: &str, workers: usize, delayed: bool, run: Run) -> Vec<f64> {
    let mut server = ServerConfig::new(name).with_workers(workers);
    if delayed {
        let mut link = ChaosConfig::quiet(0xD311 ^ run.x as u64);
        link.read_delay = Duration::from_micros(500);
        server = server.with_chaos(link);
    }
    let config = ServerWorkloadConfig {
        server,
        duration: run.window,
        waiters: 2,
        ..ServerWorkloadConfig::quick(run.x)
    };
    let report = run_server(&config);
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
    assert_eq!(
        (report.busy, report.timeouts),
        (0, 0),
        "{}: an unlimited server answered overload replies at {} connections",
        report.engine,
        report.connections
    );
    vec![report.rps]
}

/// Goodput (committed transfers/s) of a deliberately tight server —
/// execution width one, one admission slot — offered `x + 1` closed-loop
/// clients. A lone client is left out on purpose: it is bound by its own
/// round trip, which measures the box's idle-exit latency, not the server
/// (numbers in `baselines/README.md`).
fn overload(run: Run) -> Vec<f64> {
    const ADMISSION_CAP: usize = 1;
    let mut config = ServerWorkloadConfig::tight(ADMISSION_CAP + run.x, ADMISSION_CAP);
    config.duration = run.window;
    let report = run_server(&config);
    assert!(
        report.conserved,
        "{}: shed transfers must leave no partial effects at {} connections",
        report.engine, report.connections
    );
    vec![report.rps]
}

/// One data point of the clock-contention microbench: `threads` workers
/// hammer [`TimeBase::commit_stamp`] (with a `now` thrown in every batch,
/// the snapshot pattern) for `window`; returns stamps drawn per second.
pub fn stamp_throughput<B: TimeBase>(clock: &B, threads: usize, window: Duration) -> f64 {
    const BATCH: u64 = 64;
    let (stamps, elapsed) = run_window(threads, window, |slot, window| {
        let mut ops = 0u64;
        while window.is_open() {
            for _ in 0..BATCH {
                std::hint::black_box(clock.commit_stamp(slot));
            }
            std::hint::black_box(clock.now(slot));
            ops += BATCH;
        }
        ops
    });
    stamps.into_iter().sum::<u64>() as f64 / elapsed.as_secs_f64()
}

fn stamps<B: TimeBase>(clock: B, run: Run) -> Vec<f64> {
    vec![stamp_throughput(&clock, run.threads, run.window)]
}

const GOODPUT: &str = "goodput";
const TRANSFERS: &str = "Transfer transactions [Tx/s]";
const READ_ONLY: LongMode = LongMode::ReadOnly;

/// Every figure, in the order `repro_figures all` runs them.
pub static FIGURES: &[FigureDef] = &[
    FigureDef {
        name: "fig6",
        doc: "Figure 6: bank benchmark, read-only Compute-Total",
        axis: THREADS,
        measures: &[
            Measure::new(
                "fig6_totals",
                "Compute-Total transactions (read-only) [Tx/s]",
            )
            .y(Y::NonNegative),
            Measure::new("fig6_transfers", TRANSFERS),
        ],
        series: &[
            series("LSA-STM", |r| bank("lsa", READ_ONLY, None, r)),
            series("LSA-STM (no readsets)", |r| {
                bank("lsa-no-readsets", READ_ONLY, None, r)
            }),
            series("Z-STM", |r| bank("z", READ_ONLY, None, r)),
        ],
        baseline: None,
    },
    FigureDef {
        name: "fig7",
        doc: "Figure 7: bank benchmark, update Compute-Total — LSA-STM collapses, Z-STM sustains",
        axis: THREADS,
        measures: &[
            Measure::new("fig7_totals", "Compute-Total transactions (update) [Tx/s]")
                .y(Y::NonNegative),
            Measure::new("fig7_transfers", TRANSFERS),
        ],
        series: &[
            series("LSA-STM", |r| bank("lsa", LongMode::Update, None, r)),
            series("Z-STM", |r| bank("z", LongMode::Update, None, r)),
        ],
        baseline: Some(Baseline {
            reseed: (400, "1,2,4,8"),
            gates: &[Gate::Ratio {
                numerator: "Z-STM",
                denominator: "LSA-STM",
                claim: "Z-STM sustains update Compute-Totals vs LSA (Figure 7 separation)",
                floor: |baseline| (baseline * 0.25).max(1.0),
            }],
        }),
    },
    FigureDef {
        name: "map",
        doc: "Map: read-dominated bucketed map, scalar vs sharded time base",
        axis: THREADS,
        measures: &[Measure::new("map", "committed ops/s")],
        series: &[
            series("LSA-STM (scalar)", |r| map("lsa", map_reads(r))),
            series("LSA-STM (sharded)", |r| map("lsa-sharded", map_reads(r))),
            series("Z-STM (sharded)", |r| map("z-sharded", map_reads(r))),
        ],
        baseline: Some(Baseline {
            reseed: (400, "1,2,4,8"),
            gates: &[Gate::Ratio {
                numerator: "LSA-STM (sharded)",
                denominator: "LSA-STM (scalar)",
                claim: "sharded time base does not regress the read-dominated map on LSA",
                // Non-regression rule: the sharded clock must stay within
                // noise of the scalar clock even on boxes too small for it
                // to win (the 0.8 cap keeps the floor below parity so
                // run-to-run noise passes, and the baseline factor keeps a
                // real 30 %+ regression failing).
                floor: |baseline| (baseline * 0.7).min(0.8),
            }],
        }),
    },
    FigureDef {
        name: "collections",
        doc: "Collections: TMap conflict granularity, update-heavy mix at a fixed key range",
        // Granularity needs concurrent updaters, hence the floor of two.
        axis: Axis::AtTop {
            x: "buckets",
            min: 2,
            max: usize::MAX,
            xs: |_| vec![1, 4, 16, 64],
        },
        measures: &[Measure::new("collections", "committed ops/s")],
        series: &[
            series("LSA-STM", |r| map("lsa", map_granularity(r))),
            series("Z-STM", |r| map("z", map_granularity(r))),
        ],
        baseline: Some(Baseline {
            reseed: (400, "1,2,4,8"),
            gates: &[Gate::Shape {
                claim: "per-bucket conflict granularity: fine-grained TMap buckets do not \
                        collapse against one coarse bucket at an equal key range",
                check: gate::collections_granularity,
            }],
        }),
    },
    FigureDef {
        name: "queue",
        doc: "Queue: bounded blocking producer/consumer ring (x producers, x consumers, \
              capacity 64), all five engines",
        axis: THREADS,
        measures: &[Measure::new("queue", "delivered items/s")],
        series: &[
            series("LSA-STM", |r| queue("lsa", r)),
            series("TL2", |r| queue("tl2", r)),
            series("CS-STM", |r| queue("cs", r)),
            series("S-STM", |r| queue("sstm", r)),
            series("Z-STM", |r| queue("z", r)),
        ],
        baseline: None,
    },
    FigureDef {
        name: "queue-async",
        doc: "Queue (async): producer/consumer futures multiplexed over fewer OS threads",
        axis: THREADS,
        measures: &[Measure::new("queue_async", "delivered items/s")],
        series: &[
            series("LSA-STM (async)", |r| queue_async("lsa", r)),
            series("Z-STM (async)", |r| queue_async("z", r)),
            // For context: the OS-thread shape at the same pair count (its
            // thread count scales with x, the async sweep's does not).
            series("LSA-STM (sync)", |r| queue("lsa", r)),
        ],
        baseline: None,
    },
    FigureDef {
        name: "server",
        doc: "Server: TCP MULTI…EXEC transfers over the wire protocol",
        axis: Axis::Listed("connections"),
        measures: &[Measure::new("server", "committed transfers/s (RPS)")],
        series: &[
            series("LSA-STM", |r| server("lsa", 2, false, r)),
            series("LSA-STM (serial)", |r| server("lsa", 1, false, r)),
            // Engine coverage, not gated: the front end is engine-agnostic.
            series("Z-STM", |r| server("z", 2, false, r)),
            series("LSA-STM (chaos)", |r| server("lsa", 2, true, r)),
        ],
        baseline: Some(Baseline {
            reseed: (400, "1,2,4"),
            gates: &[
                Gate::Ratio {
                    numerator: "LSA-STM",
                    denominator: "LSA-STM (chaos)",
                    claim: "the fault-free link out-runs the chaos link with a per-read delay \
                            injected",
                    // The chaos series pays a fixed sleep on every
                    // server-side read, so the fault-free shape wins on any
                    // machine: a hard 1.0 floor holds everywhere, and the
                    // baseline factor catches the fault-free path
                    // collapsing toward the delayed one.
                    floor: |baseline| (baseline * 0.25).max(1.0),
                },
                Gate::Ratio {
                    numerator: "LSA-STM",
                    denominator: "LSA-STM (serial)",
                    claim: "execution width two does not regress against one on the server \
                            transfer workload",
                    // Non-regression rule (same policy as `map`): on small
                    // boxes a second permit buys nothing (the link, not the
                    // engine, is the bottleneck) and the two shapes tie
                    // within noise; a gate that convoys collapses the ratio
                    // and fails.
                    floor: |baseline| (baseline * 0.7).min(0.8),
                },
            ],
        }),
    },
    FigureDef {
        name: "overload",
        doc: "Overload: goodput vs offered load on a one-slot server",
        // Closed-loop clients beyond the one the admission slot can serve.
        axis: Axis::Listed("excess clients"),
        measures: &[Measure::new("overload", "goodput [Tx/s]").suffix(GOODPUT)],
        // One system, so the measure alone names the series.
        series: &[series("", overload)],
        baseline: Some(Baseline {
            reseed: (400, "1,2,4,8"),
            gates: &[Gate::Shape {
                claim: "goodput stays flat under overload instead of collapsing below its floor",
                check: gate::goodput_floor,
            }],
        }),
    },
    FigureDef {
        name: "clocks",
        doc: "Clocks: commit-stamp throughput, shared counter vs sharded time base",
        axis: THREADS,
        measures: &[Measure::new("clock_contention", "commit stamps/s")],
        series: &[
            series("ScalarClock", |r| stamps(ScalarClock::new(), r)),
            series("ShardedClock", |r| stamps(ShardedClock::new(r.threads), r)),
        ],
        baseline: Some(Baseline {
            reseed: (400, "1,2,4,8"),
            gates: &[Gate::Ratio {
                numerator: "ShardedClock",
                denominator: "ScalarClock",
                claim: "sharded clock beats the scalar fetch-add clock at the top thread count",
                // The sharded clock's win trades a couple of extra
                // uncontended atomics per stamp for keeping the shared line
                // read-mostly; the hard floor needs >= 8 hardware threads
                // (2-4-vCPU runners are too noise-prone for it).
                floor: |baseline| gate::contention_gated_floor(baseline, 8),
            }],
        }),
    },
    FigureDef {
        name: "certify",
        doc: "Certify: online SSI certification cost, native vs certified per engine",
        axis: THREADS,
        measures: &[
            Measure::new("certify", "commits/s"),
            Measure::new("certify_aborts", "abort ratio").y(Y::Rate),
        ],
        series: &[
            series("LSA-STM", |r| certify("lsa", false, r)),
            series("LSA-STM (certified)", |r| certify("lsa", true, r)),
            series("TL2", |r| certify("tl2", false, r)),
            series("TL2 (certified)", |r| certify("tl2", true, r)),
            series("CS-STM", |r| certify("cs", false, r)),
            series("CS-STM (certified)", |r| certify("cs", true, r)),
            series("S-STM", |r| certify("sstm", false, r)),
            series("S-STM (certified)", |r| certify("sstm", true, r)),
            series("Z-STM", |r| certify("z", false, r)),
            series("Z-STM (certified)", |r| certify("z", true, r)),
        ],
        baseline: Some(Baseline {
            reseed: (150, "1,2,4"),
            gates: &[Gate::Ratio {
                numerator: "CS-STM",
                denominator: "CS-STM (certified)",
                claim: "native CS-STM out-runs its globally-serialized certified wrapper",
                // The certifier's single cert mutex caps the certified
                // engine at roughly single-threaded throughput, so the
                // native/certified ratio is >= 1 on any machine and grows
                // with cores. The hard 1.0 floor holds everywhere; the
                // baseline factor catches a native CS-STM throughput
                // collapse hiding behind a still-true ">= 1".
                floor: |baseline| (baseline * 0.5).max(1.0),
            }],
        }),
    },
    FigureDef {
        name: "read-hotspot",
        doc: "Read hotspot: one hot variable read by every thread, a trickle of updates from \
              thread 0",
        axis: THREADS,
        measures: &[Measure::new("read_hotspot", "committed reads/s")],
        series: &[
            series("LSA-STM", |r| hotspot(LsaStm::new(config(r)), r)),
            series("LSA-STM (sharded)", |r| hotspot(lsa_sharded(r.threads), r)),
            series("Z-STM", |r| hotspot(ZStm::new(config(r)), r)),
            series("Z-STM (sharded)", |r| hotspot(z_sharded(r.threads), r)),
            series("CS-STM", |r| {
                hotspot(CsStm::with_vector_clock(config(r)), r)
            }),
            series("S-STM", |r| hotspot(SStm::with_vector_clock(config(r)), r)),
            series("TL2", |r| hotspot(Tl2Stm::new(config(r)), r)),
        ],
        baseline: None,
    },
    FigureDef {
        name: "ablation-r",
        doc: "Ablation A (Section 4.3): plausible-clock size r, CS-STM on a contended array",
        axis: Axis::AtTop {
            x: "r (clock entries)",
            min: 2,
            max: 8,
            xs: |n| {
                let mut rs = vec![1, 2, 4, n];
                rs.retain(|&r| r <= n);
                rs.dedup();
                rs
            },
        },
        measures: &[
            Measure::new("ablation_r", "commits/s over r").suffix(" commits/s"),
            Measure::new("ablation_r", "abort ratio over r")
                .suffix(" abort ratio")
                .y(Y::Rate),
        ],
        series: &[series("CS-STM", |r| {
            let stm = CsStm::with_plausible_clock(config(r), r.x);
            array(erased(stm), PLAUSIBLE_MIX, r)
        })],
        baseline: None,
    },
    FigureDef {
        name: "ablation-overhead",
        doc: "Ablation B (Section 4.4): runtime overhead of vector time, array workload",
        axis: THREADS,
        measures: &[Measure::new("ablation_overhead", "commits/s")],
        series: &[
            series("LSA-STM", |r| array_commits("lsa", r)),
            series("TL2", |r| array_commits("tl2", r)),
            series("CS-STM (vector)", |r| array_commits("cs", r)),
            series("Z-STM", |r| array_commits("z", r)),
        ],
        baseline: None,
    },
    FigureDef {
        name: "ablation-longfrac",
        doc: "Ablation D: Compute-Total share of the mixed thread, read-only mode",
        axis: Axis::AtTop {
            x: "long-%",
            min: 1,
            max: 8,
            xs: |_| vec![0, 1, 5, 20, 50],
        },
        measures: &[
            Measure::new(
                "ablation_longfrac_totals",
                "Compute-Total [Tx/s] over long-%",
            )
            .y(Y::NonNegative),
            Measure::new(
                "ablation_longfrac_transfers",
                "Transfers [Tx/s] over long-%",
            ),
        ],
        series: &[
            series("LSA-STM", |r| bank("lsa", READ_ONLY, Some(r.x as u8), r)),
            series("Z-STM", |r| bank("z", READ_ONLY, Some(r.x as u8), r)),
        ],
        baseline: None,
    },
    FigureDef {
        name: "contention",
        doc: "Ablation C: contention managers on a high-contention array (x indexes \
              CmPolicy::ALL: aggressive, suicide, polite, karma, timestamp, greedy)",
        axis: Axis::AtTop {
            x: "policy",
            min: 2,
            max: 8,
            xs: |_| (0..CmPolicy::ALL.len()).collect(),
        },
        measures: &[
            Measure::new("contention", "commits/s per policy").suffix(" commits/s"),
            Measure::new("contention", "abort ratio per policy")
                .suffix(" abort ratio")
                .y(Y::Rate),
        ],
        series: &[series("LSA-STM", |r| {
            let mut config = config(r);
            config.cm(CmPolicy::ALL[r.x]);
            array(erased(LsaStm::new(config)), CONTENTION_MIX, r)
        })],
        baseline: None,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    const FAST: Duration = Duration::from_millis(40);
    const SWEEP: [usize; 2] = [1, 2];

    /// Sweeps one figure under a deadline — each takes a second or two, so
    /// a hang in any engine fails with the figure's name instead of
    /// stalling the whole test run — and holds the result to what the
    /// entry declares: its series labels in order in every panel, one
    /// point per series per x of the axis, every value in the measure's
    /// range, one file per distinct stem. (Conservation, torn reads and
    /// delivery are asserted by the points themselves.)
    fn smoke(name: &str) {
        let figure = FIGURES
            .iter()
            .find(|figure| figure.name == name)
            .unwrap_or_else(|| panic!("no figure '{name}'"));
        let panels = zstm_util::run_with_deadline(
            &format!("{name} smoke [every series of the figure]"),
            Duration::from_secs(45),
            || figure.sweep(&SWEEP, FAST),
        );
        assert_eq!(panels.len(), figure.measures.len());
        let points = figure.axis.points(&SWEEP).len();
        assert!(points > 0, "{name}: an empty axis");
        for (measure, panel) in figure.measures.iter().zip(&panels) {
            let labels: Vec<&str> = panel.iter().map(|s| s.label.as_str()).collect();
            let declared: Vec<String> = figure
                .series
                .iter()
                .map(|s| format!("{}{}", s.label, measure.suffix))
                .collect();
            assert_eq!(labels, declared, "{name}: {}", measure.title);
            for series in panel {
                assert_eq!(series.points.len(), points, "{name}: {}", series.label);
                for &(x, y) in &series.points {
                    let healthy = match measure.y {
                        Y::Positive => y > 0.0,
                        Y::NonNegative => y >= 0.0,
                        Y::Rate => (0.0..=1.0).contains(&y),
                    };
                    assert!(
                        healthy,
                        "{name}: '{}' is {y} at x = {x}, outside {:?}",
                        series.label, measure.y
                    );
                }
            }
        }
        let files = figure.files(&panels);
        let mut stems: Vec<&str> = figure.measures.iter().map(|m| m.stem).collect();
        stems.dedup();
        let saved: Vec<&str> = files.iter().map(|file| file.name.as_str()).collect();
        assert_eq!(saved, stems, "{name}: one file per stem, in measure order");
        let saved_series: usize = files.iter().map(|file| file.series.len()).sum();
        assert_eq!(saved_series, figure.measures.len() * figure.series.len());
    }

    /// One test per name the suite has always had, each a list of figures
    /// for the one table-driven check above, so the sweeps run in parallel
    /// and a failure names its figure.
    macro_rules! smokes {
        ($($test:ident: $($figure:literal),+;)*) => {
            $(#[test]
            fn $test() {
                $(smoke($figure);)+
            })*

            #[test]
            fn every_figure_has_a_smoke_test() {
                let smoked = [$($($figure),+),*];
                let all: Vec<&str> = FIGURES.iter().map(|figure| figure.name).collect();
                assert_eq!(smoked.len(), all.len());
                assert!(all.iter().all(|name| smoked.contains(name)), "{all:?} vs {smoked:?}");
            }
        };
    }

    smokes! {
        figure6_smoke: "fig6";
        figure7_smoke: "fig7";
        figure_map_smoke: "map";
        figure_collections_smoke: "collections";
        figure_queue_smoke: "queue";
        figure_queue_async_smoke: "queue-async";
        figure_server_smoke: "server";
        figure_overload_smoke: "overload";
        clock_contention_smoke: "clocks";
        figure_certify_smoke: "certify";
        read_hotspot_smoke: "read-hotspot";
        ablations_smoke: "ablation-r", "ablation-overhead", "ablation-longfrac", "contention";
    }

    #[test]
    fn the_table_is_well_formed() {
        let mut names: Vec<&str> = FIGURES.iter().map(|figure| figure.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FIGURES.len(), "command-line names are unique");
        assert!(!names.contains(&"all"), "'all' is the binary's own word");

        let mut stems: Vec<&str> = Vec::new();
        for figure in FIGURES {
            assert!(!figure.series.is_empty(), "{}: no series", figure.name);
            assert!(!figure.measures.is_empty(), "{}: no measure", figure.name);
            let mut own: Vec<&str> = figure.measures.iter().map(|m| m.stem).collect();
            own.dedup();
            stems.extend(own);
            // Two measures may share a file only if their suffixes keep
            // the labels apart.
            let mut labels: Vec<(&str, String)> = Vec::new();
            for measure in figure.measures {
                let labelled =
                    |s: &SeriesDef| (measure.stem, format!("{}{}", s.label, measure.suffix));
                labels.extend(figure.series.iter().map(labelled));
            }
            let saved = labels.len();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(
                labels.len(),
                saved,
                "{}: duplicate label in a file",
                figure.name
            );
            let Some(baseline) = figure.baseline else {
                continue;
            };
            assert!(
                !baseline.gates.is_empty(),
                "{}: a baseline gates something",
                figure.name
            );
            let first = figure.measures[0];
            for gate in baseline.gates {
                if let Gate::Ratio {
                    numerator,
                    denominator,
                    ..
                } = gate
                {
                    for label in [numerator, denominator] {
                        let plotted = figure
                            .series
                            .iter()
                            .any(|s| format!("{}{}", s.label, first.suffix) == *label);
                        assert!(
                            plotted,
                            "{}: gate reads '{label}', no such series",
                            figure.name
                        );
                    }
                }
            }
        }
        let files = stems.len();
        stems.sort_unstable();
        stems.dedup();
        assert_eq!(stems.len(), files, "no two figures write the same file");
    }

    #[test]
    fn top_thread_axes_clamp_and_list_axes_pass_through() {
        assert_eq!(THREADS.points(&[1, 2, 4]), [(1, 1), (2, 2), (4, 4)]);
        let top = Axis::AtTop {
            x: "r",
            min: 2,
            max: 8,
            xs: |n| vec![1, n],
        };
        assert_eq!(top.points(&[1]), [(2, 1), (2, 2)]);
        assert_eq!(top.points(&[4, 32]), [(8, 1), (8, 8)]);
    }
}
