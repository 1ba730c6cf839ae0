//! The `fuzz_schedules` command line: a run that would fuzz nothing, and
//! any argument it cannot read, is a usage error (exit 2) before a single
//! schedule runs.

use std::process::{Command, Stdio};

/// The exit status of `fuzz_schedules args`.
fn exit_code(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_fuzz_schedules"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run fuzz_schedules")
        .code()
}

#[test]
fn a_run_that_fuzzes_nothing_exits_with_status_2() {
    assert_eq!(exit_code(&["--seconds", "0"]), Some(2));
    assert_eq!(exit_code(&["--schedules", "0"]), Some(2));
}

#[test]
fn an_unparsable_value_exits_with_status_2() {
    assert_eq!(exit_code(&["--seconds", "x"]), Some(2));
    assert_eq!(exit_code(&["--schedules", "x"]), Some(2));
    assert_eq!(exit_code(&["--seed", "x"]), Some(2));
}

#[test]
fn a_flag_without_its_value_exits_with_status_2() {
    for flag in ["--seconds", "--schedules", "--seed", "--out"] {
        assert_eq!(exit_code(&[flag]), Some(2), "{flag}");
    }
}
