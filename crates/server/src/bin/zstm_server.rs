//! The `zstm-server` binary: serve the wire protocol (PROTOCOL.md) from
//! a runtime-selected engine.
//!
//! ```text
//! zstm-server [--addr HOST:PORT] [--engine NAME] [--certified]
//!             [--workers N] [--chaos SEED] [--chaos-delay-ms N]
//!             [--max-conns N] [--max-inflight N] [--idle-timeout-ms N]
//!             [--write-timeout-ms N] [--request-deadline-ms N]
//!             [--retry-budget N]
//! ```
//!
//! The limit flags map one-to-one onto
//! [`Limits`](zstm_server::server::Limits); unset means unlimited.
//! `--retry-budget N` caps a transaction's attempts at `N`.
//!
//! Prints `listening on <addr> (engine=<name>, workers=<n>)` once bound —
//! scripted clients (and `tests/binary.rs`) parse the address from that
//! line — then serves until killed. An unknown flag prints the usage line
//! and exits 2.

use std::time::Duration;

use zstm_server::registry::ENGINE_NAMES;
use zstm_server::server::{ServerConfig, ServerHandle};
use zstm_server::socket::ChaosConfig;

fn main() {
    let mut addr = "127.0.0.1:7171".to_string();
    let mut config = ServerConfig::new("lsa");
    let mut chaos: Option<ChaosConfig> = None;
    let mut delay_ms = 0u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--engine" => config.engine = value("--engine"),
            "--certified" => config.certified = true,
            "--workers" => config.workers = value("--workers").parse().expect("--workers: usize"),
            "--chaos" => {
                chaos = Some(ChaosConfig::hostile(
                    value("--chaos").parse().expect("--chaos: u64 seed"),
                ))
            }
            "--chaos-delay-ms" => {
                delay_ms = value("--chaos-delay-ms")
                    .parse()
                    .expect("--chaos-delay-ms: u64")
            }
            "--max-conns" => {
                config.limits.max_connections =
                    value("--max-conns").parse().expect("--max-conns: usize")
            }
            "--max-inflight" => {
                config.limits.max_inflight_tx = value("--max-inflight")
                    .parse()
                    .expect("--max-inflight: usize")
            }
            "--idle-timeout-ms" => {
                config.limits.read_timeout = Some(Duration::from_millis(
                    value("--idle-timeout-ms")
                        .parse()
                        .expect("--idle-timeout-ms: u64"),
                ))
            }
            "--write-timeout-ms" => {
                config.limits.write_timeout = Some(Duration::from_millis(
                    value("--write-timeout-ms")
                        .parse()
                        .expect("--write-timeout-ms: u64"),
                ))
            }
            "--request-deadline-ms" => {
                config.limits.request_deadline = Some(Duration::from_millis(
                    value("--request-deadline-ms")
                        .parse()
                        .expect("--request-deadline-ms: u64"),
                ))
            }
            "--retry-budget" => {
                config.limits.retry_budget = zstm_core::RetryPolicy::default().with_max_attempts(
                    value("--retry-budget")
                        .parse()
                        .expect("--retry-budget: u64"),
                )
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: zstm-server [--addr HOST:PORT] [--engine {}] [--certified] \
                     [--workers N] [--chaos SEED] [--chaos-delay-ms N] [--max-conns N] \
                     [--max-inflight N] [--idle-timeout-ms N] [--write-timeout-ms N] \
                     [--request-deadline-ms N] [--retry-budget N]",
                    ENGINE_NAMES.join("|")
                );
                std::process::exit(2);
            }
        }
    }
    if delay_ms > 0 {
        let mut c = chaos.unwrap_or_else(|| ChaosConfig::quiet(0));
        c.read_delay = Duration::from_millis(delay_ms);
        chaos = Some(c);
    }
    if let Some(chaos) = chaos {
        config = config.with_chaos(chaos);
    }

    let handle = match ServerHandle::spawn(&addr, &config) {
        Ok(handle) => handle,
        Err(error) => {
            eprintln!("cannot serve on {addr}: {error}");
            std::process::exit(1);
        }
    };
    println!(
        "listening on {} (engine={}, workers={})",
        handle.addr(),
        handle.stm().name(),
        config.workers
    );
    // No signal handling offline: serve until the process is killed.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
