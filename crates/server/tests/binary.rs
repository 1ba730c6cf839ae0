//! Smoke test of the `zstm-server` binary: it accepts every flag, prints
//! the `listening on` line scripted clients parse, and serves on the
//! address in it; an unknown flag, a flag without its value, an
//! unparsable number, `--workers 0` and a zero socket timeout are usage
//! errors.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use zstm_server::client::Client;
use zstm_server::frame::Reply;

fn zstm_server() -> Command {
    Command::new(env!("CARGO_BIN_EXE_zstm-server"))
}

/// The child process, killed however the test ends.
struct Serving(Child);

impl Drop for Serving {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn the_binary_serves_with_every_flag_set() {
    let mut server = Serving(
        zstm_server()
            .args(["--addr", "127.0.0.1:0", "--engine", "z"])
            .args(["--max-conns", "8", "--max-inflight", "8"])
            .args(["--idle-timeout-ms", "30000", "--write-timeout-ms", "30000"])
            .args(["--request-deadline-ms", "30000", "--chaos-delay-ms", "1"])
            .args(["--retry-budget", "8"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn zstm-server"),
    );
    let stdout = server.0.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read the first line");
    // `listening on <addr> (engine=<name>, workers=<n>)`
    let addr: SocketAddr = line
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|addr| addr.parse().ok())
        .unwrap_or_else(|| panic!("no address in {line:?}"));

    let mut client = Client::connect(addr).expect("connect");
    client.ping().expect("PING");
    assert_eq!(
        client.request(&[b"ENGINE"]).expect("ENGINE"),
        Reply::Value(b"z-stm".to_vec())
    );
    assert_eq!(client.add(b"k", 1).expect("ADD k 1"), 1);
}

/// The exit status of `zstm-server args`, or `None` if it is still
/// running after ten seconds (it is then killed): a command line the
/// binary should refuse must not leave a server that serves.
fn exit_code(args: &[&str]) -> Option<i32> {
    let mut child = Serving(
        zstm_server()
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn zstm-server"),
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if let Some(status) = child.0.try_wait().expect("wait for zstm-server") {
            return status.code();
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    None
}

#[test]
fn an_unknown_flag_exits_with_status_2() {
    assert_eq!(exit_code(&["--no-such-flag"]), Some(2));
}

#[test]
fn zero_workers_exits_with_status_2() {
    // No permit at the execution gate: every transaction would hang.
    assert_eq!(
        exit_code(&["--addr", "127.0.0.1:0", "--workers", "0"]),
        Some(2)
    );
}

#[test]
fn a_zero_socket_timeout_exits_with_status_2() {
    // `std` refuses a zero timeout, so every connection would be closed.
    for flag in ["--idle-timeout-ms", "--write-timeout-ms"] {
        assert_eq!(
            exit_code(&["--addr", "127.0.0.1:0", flag, "0"]),
            Some(2),
            "{flag}"
        );
    }
}

#[test]
fn a_flag_without_its_value_exits_with_status_2() {
    assert_eq!(exit_code(&["--workers"]), Some(2));
}

#[test]
fn an_unparsable_value_exits_with_status_2() {
    assert_eq!(exit_code(&["--workers", "x"]), Some(2));
}
