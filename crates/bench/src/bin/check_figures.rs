//! The figure gate: sweeps every figure of [`zstm_bench::FIGURES`] at
//! [`zstm_bench::gate::THREADS`] and [`zstm_bench::gate::WINDOW`], prints
//! the tables, and judges every gate of the table on the run it has just
//! made. It takes no arguments: the floors are calibrated on that one
//! sweep.
//!
//! Exit status 0 when every rule holds, 1 otherwise, 2 on any argument.

use std::process::ExitCode;

use zstm_bench::gate::{THREADS, WINDOW};
use zstm_bench::{usage_exit, FIGURES};

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        usage_exit(&format!("unexpected argument '{arg}'"), "check_figures");
    }
    println!(
        "zstm figure gate — {} ms per data point, threads {THREADS:?}\n",
        WINDOW.as_millis()
    );
    let mut verdicts = Vec::new();
    for figure in FIGURES {
        let files = figure.report(&THREADS, WINDOW);
        verdicts.extend(figure.judge(&files[0]));
    }
    let rules = verdicts.len();
    let mut failures = 0;
    for verdict in verdicts {
        match verdict {
            Ok(verdict) => println!("  ok   {verdict}"),
            Err(message) => {
                println!("  FAIL {message}");
                failures += 1;
            }
        }
    }
    if failures == 0 {
        println!("all {rules} relative-shape and figure-shape rules hold");
        ExitCode::SUCCESS
    } else {
        println!("{failures} of {rules} rule(s) violated");
        ExitCode::FAILURE
    }
}
