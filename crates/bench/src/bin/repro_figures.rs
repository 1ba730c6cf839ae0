//! Regenerates the paper's figures and the ARCHITECTURE.md ablations: one
//! subcommand per entry of [`zstm_bench::FIGURES`], or `all`, the default
//! (an unknown name prints the list).
//!
//! Prints the series as aligned tables (the same rows the paper plots) and
//! writes gnuplot-ready `.dat`, `.csv` and machine-readable `.json` data
//! files under the output directory (default `target/figures/`). The
//! `.json` files are what the CI bench-smoke gate feeds to
//! `check_baselines`.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use zstm_bench::json::{to_json, Figure};
use zstm_bench::{usage_exit, FigureDef, FIGURES, PAPER_THREADS};
use zstm_workload::print_table;

const ALL: &str = "all";

struct Options {
    figures: Vec<&'static FigureDef>,
    duration: Duration,
    threads: Vec<usize>,
    out_dir: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = FIGURES.iter().map(|figure| figure.name).collect();
    format!(
        "repro_figures [{} | {ALL}] [--duration-ms MS] [--threads 1,2,4] [--out-dir DIR]",
        names.join(" | ")
    )
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut options = Options {
        figures: FIGURES.iter().collect(),
        duration: Duration::from_millis(1_000),
        threads: PAPER_THREADS.to_vec(),
        out_dir: PathBuf::from("target/figures"),
    };
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--duration-ms" => {
                let ms = value()?;
                options.duration = match ms.parse() {
                    Ok(ms) if ms > 0 => Duration::from_millis(ms),
                    _ => return Err(format!("'{ms}' is not a positive duration in ms")),
                };
            }
            "--threads" => {
                let list = value()?;
                options.threads = list
                    .split(',')
                    .map(|n| n.parse().ok().filter(|&n| n > 0))
                    .collect::<Option<Vec<usize>>>()
                    .ok_or(format!(
                        "'{list}' is not a list of thread counts like 1,2,8"
                    ))?;
            }
            "--out-dir" => options.out_dir = PathBuf::from(value()?),
            ALL => options.figures = FIGURES.iter().collect(),
            flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
            name => match FIGURES.iter().find(|figure| figure.name == name) {
                Some(figure) => options.figures = vec![figure],
                None => return Err(format!("unknown command '{name}'")),
            },
        }
    }
    Ok(options)
}

fn save(dir: &Path, figure: &Figure) {
    fs::create_dir_all(dir).expect("create figure output directory");
    let name = &figure.name;
    let mut gnuplot = String::new();
    let mut csv = String::from("label,x,y\n");
    for s in &figure.series {
        gnuplot.push_str(&s.to_gnuplot());
        gnuplot.push('\n');
        csv.push_str(&s.to_csv());
    }
    fs::write(dir.join(format!("{name}.dat")), gnuplot).expect("write .dat");
    fs::write(dir.join(format!("{name}.csv")), csv).expect("write .csv");
    fs::write(dir.join(format!("{name}.json")), to_json(figure)).expect("write .json");
    println!(
        "(saved {}/{name}.dat, .csv and .json)",
        dir.to_string_lossy()
    );
}

fn main() {
    let options = parse_args(std::env::args().skip(1))
        .unwrap_or_else(|problem| usage_exit(&problem, &usage()));
    println!(
        "zstm figure reproduction — {} ms per data point, threads {:?}",
        options.duration.as_millis(),
        options.threads
    );
    println!(
        "(absolute numbers depend on this machine; the paper's claims are \
         about the relative shapes — see ARCHITECTURE.md)\n"
    );
    for figure in options.figures {
        println!("=== {} (x = {}) ===", figure.doc, figure.axis.x());
        let panels = figure.sweep(&options.threads, options.duration);
        for (measure, panel) in figure.measures.iter().zip(&panels) {
            println!("{}", print_table(measure.title, panel));
        }
        for file in figure.files(&panels) {
            save(&options.out_dir, &file);
        }
    }
}
