//! What derives from the figure table outside `crates/bench/src` stays
//! derived: the claim a gate-less figure names, CI's `bench-smoke`
//! command, and both binaries' answers to a bad command line.

use std::path::{Path, PathBuf};
use std::process::Command;

use zstm_bench::FIGURES;

/// What CI's `bench-smoke` job runs: every figure swept, every gate judged.
const GATE: &str = "cargo run --release --bin check_figures";

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// A figure without gates illustrates a claim that `tests/paper_claims.rs`
/// pins as exact counts, and its doc names the test.
#[test]
fn every_figure_is_gated_by_a_baseline_or_a_claim() {
    let claims = std::fs::read_to_string(repo().join("tests/paper_claims.rs"))
        .expect("tests/paper_claims.rs");
    for figure in FIGURES.iter().filter(|figure| figure.gates.is_empty()) {
        let test = figure
            .doc
            .split_once("(claim: paper_claims::")
            .and_then(|(_, rest)| rest.strip_suffix(')'))
            .unwrap_or_else(|| panic!("{}: neither a gate nor a claim", figure.name));
        assert!(
            claims.contains(&format!("#[test]\nfn {test}()")),
            "{}: tests/paper_claims.rs has no test `{test}`",
            figure.name
        );
    }
}

#[test]
fn ci_runs_the_two_commands_and_spells_no_figure() {
    let ci = std::fs::read_to_string(repo().join(".github/workflows/ci.yml")).expect("ci.yml");
    assert!(ci.contains(&format!("run: {GATE}\n")));
    for figure in FIGURES {
        let step = format!("repro_figures -- {} ", figure.name);
        assert!(!ci.contains(&step), "a CI step spells `{}`", figure.name);
    }
}

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let output = Command::new(bin)
        .args(args)
        .output()
        .expect("run the binary");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn bad_command_lines_exit_2_with_the_usage_line() {
    let repro = env!("CARGO_BIN_EXE_repro_figures");
    let check = env!("CARGO_BIN_EXE_check_figures");
    let bad: &[(&str, &[&str])] = &[
        (repro, &["--duration-ms", "x"]),
        (repro, &["--duration-ms"]),
        (repro, &["--threads", "1,,2"]),
        (repro, &["--threads", ""]),
        (repro, &["--threads"]),
        (repro, &["--threads", "0"]),
        (repro, &["--threads", "1,0"]),
        (repro, &["--threads", "2,2"]),
        (repro, &["--duration-ms", "0"]),
        (repro, &["--out-dir"]),
        (repro, &["--smoke"]),
        (repro, &["fig8"]),
        (check, &["--fresh"]),
        (check, &["--baselines"]),
        (check, &["--verbose"]),
        (check, &["fig7"]),
    ];
    for (bin, args) in bad {
        let (code, stdout, stderr) = run(bin, args);
        assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("; usage: "), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
        assert!(stdout.is_empty(), "{bin} {args:?} started work: {stdout}");
    }
    // The usage line is the table's names, in order.
    let (_, _, stderr) = run(repro, &["--smoke"]);
    let names: Vec<&str> = FIGURES.iter().map(|figure| figure.name).collect();
    assert!(
        stderr.contains(&format!("[{} | all]", names.join(" | "))),
        "{stderr}"
    );
}
