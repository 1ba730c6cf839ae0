//! The figure table: every figure and ablation this repository re-draws
//! is one [`FigureDef`] in [`FIGURES`] — its command-line name, the files
//! it writes, its sweep axis, its series and its gates.
//!
//! Every figure is gated: by its [`Gate`]s, which `check_figures` judges
//! on the sweep it has just run, or, when the claim it illustrates is
//! about who commits, by the test of `tests/paper_claims.rs` that its doc
//! names, which pins that claim as exact counts on the deterministic
//! scheduler.
//!
//! Nothing else spells a figure. `repro_figures` looks a name up and runs
//! [`FigureDef::report`]; `check_figures` reports every figure at the
//! sweep of [`gate::THREADS`] and [`gate::WINDOW`] and judges its gates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod json;

use std::sync::Arc;
use std::time::Duration;

use zstm_api::{DynStm, Stm};
use zstm_clock::ShardedClock;
use zstm_core::{CmPolicy, StmConfig, TmFactory};
use zstm_cs::CsStm;
use zstm_lsa::LsaStm;
use zstm_server::registry::build_engine;
use zstm_server::server::ServerConfig;
use zstm_server::socket::ChaosConfig;
use zstm_server::workload::{run_server, ServerWorkloadConfig};
use zstm_sim::claims::{Mix, CONTENTION_MIX, PLAUSIBLE_MIX};
use zstm_workload::{
    print_table, run_array, run_bank, run_map, ArrayConfig, BankConfig, LongMode, MapConfig, Series,
};
use zstm_z::ZStm;

pub use gate::Gate;

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
/// asserts the workload's own invariant (conservation, consistent scans,
/// no overload reply from an unlimited server) before reporting.
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
    /// One line saying what the figure shows; without gates, it ends
    /// `(claim: paper_claims::<test>)`.
    pub doc: &'static str,
    /// The sweep axis.
    pub axis: Axis,
    /// What each run yields; at least one.
    pub measures: &'static [Measure],
    /// The plotted lines.
    pub series: &'static [SeriesDef],
    /// What `check_figures` holds the first file to; empty for a figure
    /// whose claim `tests/paper_claims.rs` pins.
    pub gates: &'static [Gate],
}

impl FigureDef {
    /// The file its gates read: the first measure's.
    pub fn stem(&self) -> &'static str {
        self.measures[0].stem
    }

    /// Every gate's verdict on `first`, the figure's first file.
    pub fn judge(&self, first: &json::Figure) -> Vec<Result<String, String>> {
        self.gates.iter().map(|gate| gate.check(first)).collect()
    }

    /// Sweeps the figure, prints one table per measure and returns its
    /// files ([`FigureDef::files`]).
    pub fn report(&self, threads: &[usize], window: Duration) -> Vec<json::Figure> {
        println!("=== {} (x = {}) ===", self.doc, self.axis.x());
        let panels = self.sweep(threads, window);
        for (measure, panel) in self.measures.iter().zip(&panels) {
            println!("{}", print_table(measure.title, panel));
        }
        self.files(&panels)
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
fn bank(name: &str, mode: LongMode, run: Run) -> Vec<f64> {
    let mut config = BankConfig::paper(run.threads);
    config.duration = run.window;
    config.long_mode = mode;
    let report = run_bank(&engine(name, run.threads + 1), &config);
    assert!(
        report.conserved,
        "{}: bank invariant violated at {} threads",
        report.stm, run.threads
    );
    vec![report.totals_per_sec, report.transfers_per_sec]
}

/// The certification figure's random-array mix: a certification abort
/// needs read/write conflicts to be common. (The other two mixes are the
/// ones their claims are pinned on.)
const CERTIFY_MIX: Mix = (24, 4, 50);

/// The random-array workload: `[commits/s, abort ratio]`.
fn array(stm: Arc<dyn DynStm>, (objects, tx_size, write_pct): Mix, run: Run) -> Vec<f64> {
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
/// round trip, which measures the box's idle-exit latency, not the server:
/// two scheduler wake-ups per transfer whenever client and connection
/// thread sit on different CPUs.
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

const GOODPUT: &str = "goodput";
const TRANSFERS: &str = "Transfer transactions [Tx/s]";
const READ_ONLY: LongMode = LongMode::ReadOnly;

/// Every figure, in the order `repro_figures all` runs them.
pub static FIGURES: &[FigureDef] = &[
    FigureDef {
        name: "fig6",
        doc: "Figure 6: bank benchmark, read-only Compute-Total (claim: \
              paper_claims::figure6_every_engine_commits_every_read_only_total)",
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
            series("LSA-STM", |r| bank("lsa", READ_ONLY, r)),
            series("LSA-STM (no readsets)", |r| {
                bank("lsa-no-readsets", READ_ONLY, r)
            }),
            series("Z-STM", |r| bank("z", READ_ONLY, r)),
        ],
        gates: &[],
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
            series("LSA-STM", |r| bank("lsa", LongMode::Update, r)),
            series("Z-STM", |r| bank("z", LongMode::Update, r)),
        ],
        gates: &[Gate::Ratio {
            numerator: "Z-STM",
            denominator: "LSA-STM",
            claim: "Z-STM sustains update Compute-Totals vs LSA (Figure 7 separation)",
            // Parity: LSA-STM's update Compute-Totals starve as threads are
            // added while Z-STM's keep committing, so at the top thread
            // count Z-STM completes at least as many.
            floor: 1.0,
        }],
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
        gates: &[Gate::Ratio {
            numerator: "LSA-STM (sharded)",
            denominator: "LSA-STM (scalar)",
            claim: "sharded time base does not regress the read-dominated map on LSA",
            // Non-regression, below parity: a map operation costs far more
            // than the commit stamp, and the sharded clock's extra atomics
            // win back nothing on a box too small for the scalar line to
            // ping-pong, so the two tie within run-to-run noise there; a
            // sharded path that loses more than a quarter fails.
            floor: 0.73,
        }],
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
        gates: &[Gate::Shape {
            claim: "per-bucket conflict granularity: fine-grained TMap buckets do not \
                    collapse against one coarse bucket at an equal key range",
            check: gate::collections_granularity,
        }],
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
        gates: &[
            Gate::Ratio {
                numerator: "LSA-STM",
                denominator: "LSA-STM (chaos)",
                claim: "the fault-free link out-runs the chaos link with a per-read delay \
                        injected",
                // The chaos link sleeps 500 µs before every server-side
                // read, once per transfer, which dwarfs a loopback round
                // trip on any machine; a ratio near parity means the delay
                // is not being paid or the fault-free path has collapsed
                // toward the delayed one.
                floor: 1.56,
            },
            Gate::Ratio {
                numerator: "LSA-STM",
                denominator: "LSA-STM (serial)",
                claim: "execution width two does not regress against one on the server \
                        transfer workload",
                // Non-regression, below parity: the loopback link, not the
                // engine, bounds RPS, so on a small box a second permit
                // buys nothing and the two widths tie within noise; a gate
                // that convoys its permits falls below the floor.
                floor: 0.65,
            },
        ],
    },
    FigureDef {
        name: "overload",
        doc: "Overload: goodput vs offered load on a one-slot server",
        // Closed-loop clients beyond the one the admission slot can serve.
        axis: Axis::Listed("excess clients"),
        measures: &[Measure::new("overload", "goodput [Tx/s]").suffix(GOODPUT)],
        // One system, so the measure alone names the series.
        series: &[series("", overload)],
        gates: &[Gate::Shape {
            claim: "goodput stays flat under overload instead of collapsing below its floor",
            check: gate::goodput_floor,
        }],
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
        gates: &[Gate::Ratio {
            numerator: "CS-STM",
            denominator: "CS-STM (certified)",
            claim: "native CS-STM out-runs its globally-serialized certified wrapper",
            // The certifier serialises every begin, read and commit behind
            // one mutex and adds its bookkeeping to each, so the certified
            // engine falls further behind native with every thread: well
            // above parity at four threads on any machine. A floor that
            // high catches a native CS-STM collapse hiding behind a
            // still-true "at least 1".
            floor: 2.51,
        }],
    },
    FigureDef {
        name: "ablation-r",
        doc: "Section 4.3: plausible-clock size r, CS-STM on a contended array (claim: \
              paper_claims::section_4_3_smaller_plausible_clocks_abort_more)",
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
        gates: &[],
    },
    FigureDef {
        name: "contention",
        doc: "Contention managers on a high-contention array, x indexing CmPolicy::ALL: \
              aggressive, suicide, polite, karma, timestamp, greedy (claim: \
              paper_claims::contention_managers_decide_who_gives_way)",
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
        gates: &[],
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
        figure_server_smoke: "server";
        figure_overload_smoke: "overload";
        figure_certify_smoke: "certify";
        ablations_smoke: "ablation-r", "contention";
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
            let first = figure.measures[0];
            for gate in figure.gates {
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
