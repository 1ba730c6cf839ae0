//! The bench-baseline regression gate.
//!
//! Reads the JSON series a fresh `repro_figures` run wrote under `--fresh`
//! (default `target/figures`) plus the committed reference series under
//! `--baselines` (default `baselines/`), and evaluates every gate of every
//! [`zstm_bench::Baseline`] in the figure table (see `zstm_bench::gate`
//! for the two kinds and `baselines/README.md` for the generated list).
//!
//! Exit status 0 when every rule passes, 1 otherwise — wire it after a
//! short `repro_figures all` run, as CI's `bench-smoke` job does (every
//! gated figure's fresh `.json` must exist under `--fresh`).

use std::path::PathBuf;
use std::process::ExitCode;

use zstm_bench::{usage_exit, FIGURES};

const USAGE: &str = "check_baselines [--fresh DIR] [--baselines DIR]";

fn main() -> ExitCode {
    let mut fresh_dir = PathBuf::from("target/figures");
    let mut baseline_dir = PathBuf::from("baselines");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let dir = match arg.as_str() {
            "--fresh" => &mut fresh_dir,
            "--baselines" => &mut baseline_dir,
            other => usage_exit(&format!("unknown flag '{other}'"), USAGE),
        };
        match args.next() {
            Some(path) => *dir = PathBuf::from(path),
            None => usage_exit(&format!("{arg} needs a path"), USAGE),
        }
    }

    println!(
        "check-baselines: fresh = {}, baselines = {}",
        fresh_dir.display(),
        baseline_dir.display()
    );
    let (mut rules, mut failures) = (0, 0);
    for figure in FIGURES {
        let gates = figure.baseline.iter().flat_map(|baseline| baseline.gates);
        for gate in gates {
            rules += 1;
            match gate.check(figure.stem(), &fresh_dir, &baseline_dir) {
                Ok(verdict) => println!("  ok   {verdict}"),
                Err(message) => {
                    println!("  FAIL {message}");
                    failures += 1;
                }
            }
        }
    }
    if failures == 0 {
        println!("all {rules} relative-shape and figure-shape rules hold");
        ExitCode::SUCCESS
    } else {
        println!("{failures} rule(s) violated");
        ExitCode::FAILURE
    }
}
