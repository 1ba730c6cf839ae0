//! Smoke test of the `zstm-server` binary: it accepts every flag, prints
//! the `listening on` line scripted clients parse, and serves on the
//! address in it; an unknown flag is a usage error.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};

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

#[test]
fn an_unknown_flag_exits_with_status_2() {
    let status = zstm_server()
        .arg("--no-such-flag")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run zstm-server");
    assert_eq!(status.code(), Some(2));
}
