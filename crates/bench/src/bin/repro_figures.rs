//! Regenerates the paper's figures and the ARCHITECTURE.md ablations.
//!
//! ```text
//! repro-figures [fig6|fig7|map|queue|queue-async|server|overload|clocks|certify|read-hotspot|ablation-r|ablation-overhead|ablation-longfrac|contention|all]
//!               [--duration-ms N] [--threads 1,2,8,16,32] [--out-dir DIR]
//! ```
//!
//! Prints the series as aligned tables (the same rows the paper plots) and
//! writes gnuplot-ready `.dat`, `.csv` and machine-readable `.json` data
//! files under the output directory (default `target/figures/`). The
//! `.json` files are what the CI bench-smoke gate feeds to
//! `check_baselines`.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use zstm_bench::json::{to_json, Figure};
use zstm_bench::{
    ablation_contention, ablation_long_fraction, ablation_overhead, ablation_plausible_r,
    clock_contention, figure6, figure7, figure_certify, figure_collections, figure_map,
    figure_overload, figure_queue, figure_queue_async, figure_server, read_hotspot, BankFigure,
    PAPER_THREADS,
};
use zstm_workload::{print_table, Series};

struct Options {
    command: String,
    duration: Duration,
    threads: Vec<usize>,
    out_dir: PathBuf,
}

/// Prints what was wrong with the command line plus the usage line, and
/// exits with status 2.
fn usage_exit(problem: &str) -> ! {
    eprintln!(
        "{problem}; usage: repro_figures [fig6 | fig7 | map | collections | queue | \
         queue-async | server | overload | clocks | certify | read-hotspot | ablation-r | \
         ablation-overhead | ablation-longfrac | contention | all] \
         [--duration-ms MS] [--threads 1,2,4] [--out-dir DIR]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut command = "all".to_string();
    let mut duration = Duration::from_millis(1_000);
    let mut threads: Vec<usize> = PAPER_THREADS.to_vec();
    let mut out_dir = PathBuf::from("target/figures");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--duration-ms" => {
                let ms: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--duration-ms needs an integer");
                duration = Duration::from_millis(ms);
            }
            "--threads" => {
                let list = args.next().expect("--threads needs a list like 1,2,8");
                threads = list
                    .split(',')
                    .map(|t| t.parse().expect("thread counts are integers"))
                    .collect();
            }
            "--out-dir" => {
                out_dir = PathBuf::from(args.next().expect("--out-dir needs a path"));
            }
            other if !other.starts_with('-') => command = other.to_string(),
            other => usage_exit(&format!("unknown flag '{other}'")),
        }
    }
    Options {
        command,
        duration,
        threads,
        out_dir,
    }
}

fn save(options: &Options, name: &str, series: &[Series]) {
    let dir = &options.out_dir;
    fs::create_dir_all(dir).expect("create figure output directory");
    let mut gnuplot = String::new();
    let mut csv = String::from("label,x,y\n");
    for s in series {
        gnuplot.push_str(&s.to_gnuplot());
        gnuplot.push('\n');
        csv.push_str(&s.to_csv());
    }
    fs::write(dir.join(format!("{name}.dat")), gnuplot).expect("write .dat");
    fs::write(dir.join(format!("{name}.csv")), csv).expect("write .csv");
    let figure = Figure {
        name: name.to_string(),
        series: series.to_vec(),
    };
    fs::write(dir.join(format!("{name}.json")), to_json(&figure)).expect("write .json");
    println!(
        "(saved {}/{name}.dat, .csv and .json)",
        dir.to_string_lossy()
    );
}

fn print_bank_figure(
    options: &Options,
    name: &str,
    title_left: &str,
    title_right: &str,
    figure: &BankFigure,
) {
    println!("{}", print_table(title_left, &figure.totals));
    println!("{}", print_table(title_right, &figure.transfers));
    save(options, &format!("{name}_totals"), &figure.totals);
    save(options, &format!("{name}_transfers"), &figure.transfers);
}

fn run_fig6(options: &Options) {
    println!("=== Figure 6: Bank benchmark, read-only Compute-Total ===");
    let figure = figure6(&options.threads, options.duration);
    print_bank_figure(
        options,
        "fig6",
        "Compute-Total transactions (read-only) [Tx/s]",
        "Transfer transactions [Tx/s]",
        &figure,
    );
}

fn run_fig7(options: &Options) {
    println!("=== Figure 7: Bank benchmark, update Compute-Total ===");
    let figure = figure7(&options.threads, options.duration);
    print_bank_figure(
        options,
        "fig7",
        "Compute-Total transactions (update) [Tx/s]",
        "Transfer transactions [Tx/s]",
        &figure,
    );
}

fn run_map(options: &Options) {
    println!("=== Map: read-dominated bucketed map, scalar vs sharded time base ===");
    let series = figure_map(&options.threads, options.duration);
    println!("{}", print_table("committed ops/s", &series));
    save(options, "map", &series);
}

fn run_collections(options: &Options) {
    println!(
        "=== Collections: TMap conflict granularity, update-heavy mix \
         (x = buckets at a fixed key range) ==="
    );
    let series = figure_collections(&options.threads, options.duration);
    println!("{}", print_table("committed ops/s", &series));
    save(options, "collections", &series);
}

fn run_queue(options: &Options) {
    println!("=== Queue: bounded blocking producer/consumer ring, all five engines ===");
    let series = figure_queue(&options.threads, options.duration);
    println!("{}", print_table("delivered items/s", &series));
    save(options, "queue", &series);
}

fn run_queue_async(options: &Options) {
    println!("=== Queue (async): producer/consumer futures multiplexed over fewer OS threads ===");
    let series = figure_queue_async(&options.threads, options.duration);
    println!("{}", print_table("delivered items/s", &series));
    save(options, "queue_async", &series);
}

fn run_server_figure(options: &Options) {
    println!("=== Server: TCP MULTI…EXEC transfers over the wire protocol (x = connections) ===");
    let series = figure_server(&options.threads, options.duration);
    println!("{}", print_table("committed transfers/s (RPS)", &series));
    save(options, "server", &series);
}

fn run_overload_figure(options: &Options) {
    println!(
        "=== Overload: goodput + shed rate vs offered load on a tight server \
         (x = clients beyond the one admitted) ==="
    );
    let series = figure_overload(&options.threads, options.duration);
    println!(
        "{}",
        print_table("goodput [Tx/s] / shed rate [0..1]", &series)
    );
    save(options, "overload", &series);
}

fn run_read_hotspot(options: &Options) {
    println!("=== Read hotspot: one hot variable read by every thread ===");
    let series = read_hotspot(&options.threads, options.duration);
    println!("{}", print_table("committed reads/s", &series));
    save(options, "read_hotspot", &series);
}

fn run_certify(options: &Options) {
    println!("=== Certify: online SSI certification cost, native vs certified per engine ===");
    let (throughput, aborts) = figure_certify(&options.threads, options.duration);
    println!("{}", print_table("commits/s", &throughput));
    println!("{}", print_table("abort ratio", &aborts));
    save(options, "certify", &throughput);
    save(options, "certify_aborts", &aborts);
}

fn run_clocks(options: &Options) {
    println!("=== Clocks: commit-stamp throughput, ScalarClock vs ShardedClock ===");
    let series = clock_contention(&options.threads, options.duration);
    println!("{}", print_table("commit stamps/s", &series));
    save(options, "clock_contention", &series);
}

fn run_ablation_r(options: &Options) {
    println!("=== Ablation A: plausible-clock size r (CS-STM, array workload) ===");
    let threads = options
        .threads
        .iter()
        .copied()
        .max()
        .unwrap_or(4)
        .clamp(2, 8);
    let (throughput, aborts) = ablation_plausible_r(threads, options.duration);
    println!(
        "{}",
        print_table("commits/s over r", std::slice::from_ref(&throughput))
    );
    println!(
        "{}",
        print_table("abort ratio over r", std::slice::from_ref(&aborts))
    );
    save(options, "ablation_r", &[throughput, aborts]);
}

fn run_ablation_overhead(options: &Options) {
    println!("=== Ablation B: time-base overhead (array workload) ===");
    let series = ablation_overhead(&options.threads, options.duration);
    println!("{}", print_table("commits/s", &series));
    save(options, "ablation_overhead", &series);
}

fn run_ablation_longfrac(options: &Options) {
    println!("=== Ablation D: Compute-Total share sweep (read-only) ===");
    let threads = options.threads.iter().copied().max().unwrap_or(2).min(8);
    let figure = ablation_long_fraction(threads, options.duration);
    println!(
        "{}",
        print_table("Compute-Total [Tx/s] over long-%", &figure.totals)
    );
    println!(
        "{}",
        print_table("Transfers [Tx/s] over long-%", &figure.transfers)
    );
    save(options, "ablation_longfrac_totals", &figure.totals);
    save(options, "ablation_longfrac_transfers", &figure.transfers);
}

fn run_contention(options: &Options) {
    println!("=== Ablation C: contention managers (high-contention array) ===");
    let threads = options
        .threads
        .iter()
        .copied()
        .max()
        .unwrap_or(4)
        .clamp(2, 8);
    let rows = ablation_contention(threads, options.duration);
    println!("{:>12} {:>14} {:>12}", "policy", "commits/s", "abort ratio");
    for (policy, commits, aborts) in rows {
        println!("{policy:>12} {commits:>14.1} {aborts:>12.3}");
    }
}

fn main() {
    let options = parse_args();
    println!(
        "zstm figure reproduction — {} ms per data point, threads {:?}",
        options.duration.as_millis(),
        options.threads
    );
    println!(
        "(absolute numbers depend on this machine; the paper's claims are \
         about the relative shapes — see ARCHITECTURE.md)\n"
    );
    match options.command.as_str() {
        "fig6" => run_fig6(&options),
        "fig7" => run_fig7(&options),
        "map" => run_map(&options),
        "collections" => run_collections(&options),
        "queue" => run_queue(&options),
        "queue-async" => run_queue_async(&options),
        "server" => run_server_figure(&options),
        "overload" => run_overload_figure(&options),
        "clocks" => run_clocks(&options),
        "certify" => run_certify(&options),
        "read-hotspot" => run_read_hotspot(&options),
        "ablation-r" => run_ablation_r(&options),
        "ablation-overhead" => run_ablation_overhead(&options),
        "ablation-longfrac" => run_ablation_longfrac(&options),
        "contention" => run_contention(&options),
        "all" => {
            run_fig6(&options);
            run_fig7(&options);
            run_map(&options);
            run_collections(&options);
            run_queue(&options);
            run_queue_async(&options);
            run_server_figure(&options);
            run_overload_figure(&options);
            run_clocks(&options);
            run_certify(&options);
            run_read_hotspot(&options);
            run_ablation_r(&options);
            run_ablation_overhead(&options);
            run_ablation_longfrac(&options);
            run_contention(&options);
        }
        other => usage_exit(&format!("unknown command '{other}'")),
    }
}
