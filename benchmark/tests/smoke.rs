//! `zbench run --smoke` as a test: every workload, timed and traced, with
//! one-second windows and every audit on, so a broken workload fails here in
//! seconds and not in the pipeline after minutes.

use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "bank_z_long",
    "map_zipf_lsa",
    "queue_handoff_tl2",
    "server_transfer_cs",
];

#[test]
fn smoke_run_passes_every_audit() {
    // Results and traces go under Cargo's scratch directory for this test.
    let out = format!("{}/smoke.json", env!("CARGO_TARGET_TMPDIR"));
    let output = Command::new(env!("CARGO_BIN_EXE_zbench"))
        .args(["run", "--smoke", "--seed", "7", "--out", &out])
        .output()
        .expect("start zbench");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "zbench run --smoke ended with {}\n{stdout}\n{stderr}",
        output.status
    );
    for workload in WORKLOADS {
        for kind in ["timed", "traced"] {
            let header = stdout
                .lines()
                .find(|line| line.starts_with(&format!("== {workload} ({kind})")))
                .unwrap_or_else(|| panic!("no {kind} result for {workload}\n{stdout}"));
            assert!(
                header.contains("audit ok") && header.ends_with("failed 0"),
                "{header}"
            );
        }
    }
    assert!(std::fs::metadata(&out).is_ok_and(|file| file.len() > 0));
}
