//! Regenerates the paper's figures and the ARCHITECTURE.md ablations: one
//! subcommand per entry of [`zstm_bench::FIGURES`], or `all`, the default
//! (an unknown name prints the list).
//!
//! Prints the series as aligned tables (the same rows the paper plots) and
//! writes gnuplot-ready `.dat` and `.csv` data files under the output
//! directory (default `target/figures/`). The gates are judged by
//! `check_figures`, at its own fixed sweep.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use zstm_bench::json::Figure;
use zstm_bench::{usage_exit, FigureDef, FIGURES, PAPER_THREADS};

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
                let threads: Vec<usize> = list
                    .split(',')
                    .map(|n| n.parse().ok().filter(|&n| n > 0))
                    .collect::<Option<_>>()
                    .ok_or(format!(
                        "'{list}' is not a list of thread counts like 1,2,8"
                    ))?;
                // A repeated count would measure its points twice and
                // print only the first.
                if (1..threads.len()).any(|i| threads[..i].contains(&threads[i])) {
                    return Err(format!("'{list}' repeats a thread count"));
                }
                options.threads = threads;
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
    println!("(saved {}/{name}.dat and .csv)", dir.to_string_lossy());
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
        for file in figure.report(&options.threads, options.duration) {
            save(&options.out_dir, &file);
        }
    }
}
