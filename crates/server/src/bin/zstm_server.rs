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
//! line — then serves until killed. An unknown flag, a flag without its
//! value, an unparsable number, `--workers 0` or a zero socket timeout
//! prints the usage line and exits 2.

use std::str::FromStr;
use std::time::Duration;

use zstm_server::registry::ENGINE_NAMES;
use zstm_server::server::{ServerConfig, ServerHandle};
use zstm_server::socket::ChaosConfig;

/// `text` as the number `flag` takes.
fn number<T: FromStr>(flag: &str, text: String) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: '{text}' is not a number"))
}

/// [`number`], refusing zero: zero workers leave the execution gate
/// without a permit, and `std` rejects a zero socket timeout, which would
/// close every connection unserved.
fn positive<T: FromStr + PartialEq + From<u8>>(flag: &str, text: String) -> Result<T, String> {
    match number(flag, text)? {
        n if n == T::from(0) => Err(format!("{flag} must be at least 1")),
        n => Ok(n),
    }
}

/// The listening address and the server configuration the command line
/// names, or what is wrong with it.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<(String, ServerConfig), String> {
    let mut addr = "127.0.0.1:7171".to_string();
    let mut config = ServerConfig::new("lsa");
    let mut chaos: Option<ChaosConfig> = None;
    let mut delay_ms = 0u64;
    let millis = |ms: u64| Some(Duration::from_millis(ms));
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--addr" => addr = value()?,
            "--engine" => config.engine = value()?,
            "--certified" => config.certified = true,
            "--workers" => config.workers = positive(&arg, value()?)?,
            "--chaos" => chaos = Some(ChaosConfig::hostile(number(&arg, value()?)?)),
            "--chaos-delay-ms" => delay_ms = number(&arg, value()?)?,
            "--max-conns" => config.limits.max_connections = number(&arg, value()?)?,
            "--max-inflight" => config.limits.max_inflight_tx = number(&arg, value()?)?,
            "--idle-timeout-ms" => config.limits.read_timeout = millis(positive(&arg, value()?)?),
            "--write-timeout-ms" => config.limits.write_timeout = millis(positive(&arg, value()?)?),
            "--request-deadline-ms" => {
                config.limits.request_deadline = millis(number(&arg, value()?)?)
            }
            "--retry-budget" => {
                config.limits.retry_budget =
                    zstm_core::RetryPolicy::default().with_max_attempts(number(&arg, value()?)?)
            }
            other => return Err(format!("unknown argument: {other}")),
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
    Ok((addr, config))
}

fn main() {
    let (addr, config) = parse_args(std::env::args().skip(1)).unwrap_or_else(|problem| {
        eprintln!("{problem}");
        eprintln!(
            "usage: zstm-server [--addr HOST:PORT] [--engine {}] [--certified] \
             [--workers N] [--chaos SEED] [--chaos-delay-ms N] [--max-conns N] \
             [--max-inflight N] [--idle-timeout-ms N] [--write-timeout-ms N] \
             [--request-deadline-ms N] [--retry-budget N]",
            ENGINE_NAMES.join("|")
        );
        std::process::exit(2);
    });

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
