//! What derives from the figure table outside `crates/bench/src` stays
//! derived: the generated block of `baselines/README.md`, the set of
//! committed baselines, CI's two `bench-smoke` commands, and both
//! binaries' answers to a bad command line.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use zstm_bench::{Gate, FIGURES};

/// What CI's `bench-smoke` job and the README's check step run.
const SMOKE_SWEEP: &str =
    "cargo run --release --bin repro_figures -- all --duration-ms 150 --threads 1,2,4";
const GATE: &str = "cargo run --release --bin check_baselines";

const BEGIN: &str = "<!-- figure-table:begin";
const END: &str = "<!-- figure-table:end -->";

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The text between the README's markers, regenerated from the table.
fn generated_block() -> String {
    let gated = || FIGURES.iter().filter_map(|f| f.baseline.map(|b| (f, b)));
    let mut out = String::from("Re-seed, one command per gated figure:\n\n```sh\n");
    let name_width = gated().map(|(f, _)| f.name.len()).max().unwrap_or(0);
    for (figure, baseline) in gated() {
        let (ms, threads) = baseline.reseed;
        let _ = writeln!(
            out,
            "cargo run --release --bin repro_figures -- {:name_width$} --duration-ms {ms} \
             --threads {threads:<7} --out-dir baselines",
            figure.name
        );
    }
    let _ = write!(
        out,
        "```\n\nCheck a fresh run against the references (CI's `bench-smoke` job runs \
         exactly this pair):\n\n```sh\n{SMOKE_SWEEP}\n{GATE}\n```\n\n\
         | file | figure | series | rule(s) |\n|---|---|---|---|\n"
    );
    for (figure, baseline) in gated() {
        // Every series of the gated file: the measures saved under its stem.
        let labels: Vec<String> = figure
            .measures
            .iter()
            .filter(|measure| measure.stem == figure.stem())
            .flat_map(|m| {
                figure
                    .series
                    .iter()
                    .map(move |s| format!("`{}{}`", s.label, m.suffix))
            })
            .collect();
        let rules: Vec<String> = baseline
            .gates
            .iter()
            .map(|gate| match gate {
                Gate::Ratio {
                    numerator,
                    denominator,
                    claim,
                    ..
                } => format!("`{numerator}` / `{denominator}` at the top x: {claim}"),
                Gate::Shape { claim, .. } => {
                    format!("shape, fresh run and this file alike: {claim}")
                }
            })
            .collect();
        let _ = writeln!(
            out,
            "| `{}.json` | `{}` (x = {}) — {} | {} | {} |",
            figure.stem(),
            figure.name,
            figure.axis.x(),
            figure.doc,
            labels.join(", "),
            rules.join("; ")
        );
    }
    out
}

#[test]
fn baselines_readme_block_is_the_table() {
    let path = repo().join("baselines/README.md");
    let readme = std::fs::read_to_string(&path).expect("baselines/README.md");
    let begin = readme.find(BEGIN).expect("begin marker");
    let body = begin + readme[begin..].find("-->\n").expect("begin marker ends") + 4;
    let end = readme.find(END).expect("end marker");
    let expected = generated_block();
    assert!(
        readme[body..end] == expected,
        "baselines/README.md is not what zstm_bench::FIGURES generates; replace the text \
         between its figure-table markers with:\n{expected}"
    );
    // Outside the block no figure is spelled: not as a subcommand, not as
    // a file, not as a quoted series label.
    let prose = format!("{}{}", &readme[..begin], &readme[end..]);
    for figure in FIGURES {
        let command = format!("repro_figures {}", figure.name);
        assert!(!prose.contains(&command), "prose spells `{command}`");
        for measure in figure.measures {
            let file = format!("{}.json", measure.stem);
            assert!(!prose.contains(&file), "prose spells `{file}`");
        }
        for series in figure.series.iter().filter(|s| s.label.contains(' ')) {
            let quoted = format!("\"{}\"", series.label);
            assert!(!prose.contains(&quoted), "prose spells {quoted}");
        }
    }
}

#[test]
fn committed_baselines_are_exactly_the_gated_figures() {
    let committed: BTreeSet<String> = std::fs::read_dir(repo().join("baselines"))
        .expect("baselines/")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|e| e == "json"))
        .map(|path| {
            path.file_stem()
                .expect("a stem")
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    let gated: BTreeSet<String> = FIGURES
        .iter()
        .filter(|figure| figure.baseline.is_some())
        .map(|figure| figure.stem().to_string())
        .collect();
    assert_eq!(committed, gated);
}

/// A figure without a baseline illustrates a claim that
/// `tests/paper_claims.rs` pins as exact counts, and its doc names the test.
#[test]
fn every_figure_is_gated_by_a_baseline_or_a_claim() {
    let claims = std::fs::read_to_string(repo().join("tests/paper_claims.rs"))
        .expect("tests/paper_claims.rs");
    for figure in FIGURES.iter().filter(|figure| figure.baseline.is_none()) {
        let test = figure
            .doc
            .split_once("(claim: paper_claims::")
            .and_then(|(_, rest)| rest.strip_suffix(')'))
            .unwrap_or_else(|| panic!("{}: neither a baseline nor a claim", figure.name));
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
    assert!(ci.contains(&format!("run: {SMOKE_SWEEP}\n")));
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
    let check = env!("CARGO_BIN_EXE_check_baselines");
    let bad: &[(&str, &[&str])] = &[
        (repro, &["--duration-ms", "x"]),
        (repro, &["--duration-ms"]),
        (repro, &["--threads", "1,,2"]),
        (repro, &["--threads", ""]),
        (repro, &["--threads"]),
        (repro, &["--threads", "0"]),
        (repro, &["--threads", "1,0"]),
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

#[test]
fn every_gate_is_evaluated_and_a_missing_fresh_file_fails_it() {
    let empty = std::env::temp_dir().join(format!("zstm-no-figures-{}", std::process::id()));
    std::fs::create_dir_all(&empty).expect("an empty directory");
    let baselines = repo().join("baselines");
    let (code, stdout, _) = run(
        env!("CARGO_BIN_EXE_check_baselines"),
        &[
            "--fresh",
            &empty.to_string_lossy(),
            "--baselines",
            &baselines.to_string_lossy(),
        ],
    );
    let gates: usize = FIGURES
        .iter()
        .filter_map(|figure| figure.baseline)
        .map(|baseline| baseline.gates.len())
        .sum();
    assert_eq!(code, Some(1), "{stdout}");
    assert_eq!(stdout.matches("  FAIL ").count(), gates, "{stdout}");
    assert!(
        stdout.contains(&format!("{gates} rule(s) violated")),
        "{stdout}"
    );
    let _ = std::fs::remove_dir(&empty);
}
