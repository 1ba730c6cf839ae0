//! Adversarial schedule fuzzer (CI `fuzz-smoke` entry point).
//!
//! Generates random and write-skew-shaped schedules, replays each on every
//! configuration of `Engine::ALL` natively and under the SSI certifier,
//! checks every recorded history, shrinks violations, and writes each
//! shrunk counterexample as a ready-to-commit regression test. Exits
//! non-zero if any violation was found.
//!
//! ```text
//! fuzz_schedules [--seconds N] [--schedules N] [--seed N] [--out DIR]
//! ```
//!
//! A bad argument (an unknown flag, a missing or unparsable value, or a
//! zero `--seconds` or `--schedules`, which would fuzz nothing) prints
//! the usage line and exits 2.

use std::path::PathBuf;
use std::time::Duration;

use zstm_sim::fuzz::{fuzz_schedules, FuzzOptions};

fn main() {
    let mut options = FuzzOptions {
        seed: 0xF022_5EED,
        max_schedules: usize::MAX,
        time_budget: Duration::from_secs(30),
    };
    let mut out_dir = PathBuf::from("target/fuzz");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        // Every flag takes a value; only the seed may be zero.
        let value = args.next().unwrap_or_default();
        let number = value.parse().ok().filter(|&n| n > 0 || flag == "--seed");
        match (flag.as_str(), number) {
            ("--seconds", Some(n)) => options.time_budget = Duration::from_secs(n),
            ("--schedules", Some(n)) => options.max_schedules = n as usize,
            ("--seed", Some(n)) => options.seed = n,
            ("--out", _) if !value.is_empty() => out_dir = PathBuf::from(value),
            _ => {
                eprintln!("bad argument: {flag} {value}");
                eprintln!(
                    "usage: fuzz_schedules [--seconds N] [--schedules N] [--seed N] [--out DIR]"
                );
                std::process::exit(2);
            }
        }
    }

    println!(
        "fuzzing: seed={:#x} budget={:?} max_schedules={}",
        options.seed,
        options.time_budget,
        if options.max_schedules == usize::MAX {
            "unbounded".to_string()
        } else {
            options.max_schedules.to_string()
        }
    );
    let report = fuzz_schedules(&options);
    println!(
        "ran {} schedules ({} engine runs); certified: {} commits, {} certification aborts",
        report.schedules, report.runs, report.certified_commits, report.certification_aborts
    );

    if report.counterexamples.is_empty() {
        println!("no violations found");
        return;
    }

    std::fs::create_dir_all(&out_dir).expect("create --out directory");
    for (i, cex) in report.counterexamples.iter().enumerate() {
        let file = out_dir.join(format!("{}_{i}.rs", cex.name()));
        std::fs::write(&file, &cex.regression_test).expect("write counterexample");
        eprintln!(
            "VIOLATION [{} {}]: {}",
            cex.engine.name(),
            if cex.certified { "certified" } else { "native" },
            cex.violation
        );
        eprintln!("  shrunk schedule: {:?}", cex.schedule);
        eprintln!("  regression test written to {}", file.display());
    }
    eprintln!(
        "to promote: copy the generated file into tests/corpus/ and add a \
         `#[path = \"corpus/<name>.rs\"] mod <name>;` line to tests/corpus.rs \
         (see tests/corpus/README.md)"
    );
    std::process::exit(1);
}
