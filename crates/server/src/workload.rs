//! The server workload: concurrent TCP clients hammering `MULTI`…`EXEC`
//! transfers, with a conservation audit — the driver behind the
//! `repro_figures server` and `overload` figures and the chaos and
//! overload integration tests.
//!
//! Every transfer is one atomic transaction, `MULTI [ADD from -1; ADD to
//! +1] EXEC`, over a zero-initialized key space, so the audit invariant is
//! the bank workload's: the balances must sum to zero no matter how many
//! connections a [`ChaosSocket`](crate::socket::ChaosSocket) tears down
//! mid-protocol, or how many transfers a tightly [`Limits`]-ed server
//! sheds. Every reply is classified — committed, `BUSY`, `TIMEOUT` or
//! another error — so an unlimited server can be held to answering none
//! of the overload replies. Optional *waiter* connections park in `WAIT`
//! for the whole run, proving a parked wait takes none of the server's
//! execution width.
//!
//! [`Limits`]: crate::server::Limits

use std::time::Duration;

use zstm_util::{run_window, XorShift64};

use crate::client::Client;
use crate::frame::Reply;
use crate::server::{ServerConfig, ServerHandle};

/// Configuration of one server-workload run.
#[derive(Clone, Debug)]
pub struct ServerWorkloadConfig {
    /// The server under load (engine, workers, chaos, limits).
    pub server: ServerConfig,
    /// Concurrent transfer connections, each a closed loop: more
    /// connections offer more load.
    pub connections: usize,
    /// Extra connections parked in `WAIT` for the whole run. With
    /// `connections + waiters > server.workers` there are more open
    /// transactions than execution width: parked waits hold no permit.
    pub waiters: usize,
    /// Distinct keys (`acct-0` … `acct-{keys-1}`).
    pub keys: usize,
    /// Wall-clock measurement duration.
    pub duration: Duration,
    /// PRNG seed (client key choices; chaos has its own seed).
    pub seed: u64,
}

impl ServerWorkloadConfig {
    /// A short LSA run sized for tests and smoke benches.
    pub fn quick(connections: usize) -> Self {
        Self {
            server: ServerConfig::new("lsa"),
            connections,
            waiters: 0,
            keys: 32,
            duration: Duration::from_millis(150),
            seed: 0x5eed,
        }
    }

    /// A short run against an LSA server admitting at most `cap`
    /// concurrent transactions at execution width one, offered
    /// `connections` clients' worth of load.
    pub fn tight(connections: usize, cap: usize) -> Self {
        let mut server = ServerConfig::new("lsa").with_workers(1);
        server.limits.max_inflight_tx = cap;
        Self {
            server,
            connections,
            waiters: 0,
            keys: 16,
            duration: Duration::from_millis(150),
            seed: 0x10ad,
        }
    }
}

/// Result of one server-workload run. Every transfer attempt in `offered`
/// resolves into exactly one of `committed`, `busy`, `timeouts` and
/// `errors`.
#[derive(Clone, Debug)]
pub struct ServerReport {
    /// Name of the engine that served.
    pub engine: &'static str,
    /// Transfer connections used.
    pub connections: usize,
    /// The server's execution width (`ServerConfig::workers`).
    pub workers: usize,
    /// Measured wall-clock duration.
    pub elapsed: Duration,
    /// Transfer attempts started.
    pub offered: u64,
    /// Committed `EXEC` transfer transactions (full request/reply round
    /// trips, so this is end-to-end server throughput).
    pub committed: u64,
    /// Attempts answered with a `BUSY …` frame (admission or retry
    /// budget), including connections shed at accept time.
    pub busy: u64,
    /// Attempts answered with a `TIMEOUT …` frame.
    pub timeouts: u64,
    /// Attempts answered with another error, or lost with their
    /// connection.
    pub errors: u64,
    /// Connects made after a link died (chaos, a shed, a failed connect).
    pub reconnects: u64,
    /// Waiter connections that parked and were released.
    pub waiters_released: u64,
    /// Committed transfers per second — the y-axis of the RPS and goodput
    /// figures.
    pub rps: f64,
    /// `true` iff the final audit summed every balance to zero: shed and
    /// timed-out transfers must leave no partial effects.
    pub conserved: bool,
}

fn key_name(i: usize) -> Vec<u8> {
    format!("acct-{i}").into_bytes()
}

/// How the server answered one transfer attempt.
enum Attempt {
    Committed,
    /// A `BUSY …` answer. `connection_dead` distinguishes the accept-time
    /// shed (a goodbye frame — the socket is gone) from an admission or
    /// retry-budget `BUSY` on `EXEC`, after which the connection stays
    /// usable and the client retries without paying a reconnect.
    Busy {
        connection_dead: bool,
    },
    TimedOut,
    /// A refusal that is neither `BUSY` nor `TIMEOUT`; the connection
    /// stays in sync.
    OtherError,
    /// The connection died mid-attempt.
    Io,
}

/// One transfer attempt over an open connection: `MULTI`, two `ADD`s and
/// `EXEC` in one write.
fn offer_transfer(client: &mut Client, from: &[u8], to: &[u8]) -> Attempt {
    let batch: [&[&[u8]]; 4] = [
        &[b"MULTI"],
        &[b"ADD", from, b"-1"],
        &[b"ADD", to, b"1"],
        &[b"EXEC"],
    ];
    let Ok(replies) = client.pipeline(&batch) else {
        return Attempt::Io;
    };
    // A batch cut short ends in the server's goodbye: `MULTI` and the
    // queued `ADD`s never enter the engine, so a `BUSY` there can only be
    // the accept-time shed, and the connection behind it is gone. A whole
    // batch ends in `EXEC`'s reply; `EXEC` takes the queue whether or not
    // the transaction is admitted (PROTOCOL.md), so a `BUSY` or `TIMEOUT`
    // there leaves the connection out of `MULTI` and fully usable.
    let connection_dead = replies.len() < batch.len();
    match replies.last() {
        Some(Reply::Multi(_)) => Attempt::Committed,
        Some(Reply::Error(text)) if text.starts_with("BUSY") => Attempt::Busy { connection_dead },
        Some(Reply::Error(text)) if text.starts_with("TIMEOUT") => Attempt::TimedOut,
        _ if connection_dead => Attempt::Io,
        _ => Attempt::OtherError,
    }
}

/// Runs the workload: spawns a server, drives it over real sockets,
/// audits conservation, shuts it down.
///
/// # Panics
///
/// Panics if the server cannot spawn, a waiter cannot connect, or the
/// waiters cannot be released — harness errors, not measured outcomes
/// (torn and shed connections are counted, not fatal).
pub fn run_server(config: &ServerWorkloadConfig) -> ServerReport {
    let handle = ServerHandle::spawn("127.0.0.1:0", &config.server).expect("spawn server");
    let addr = handle.addr();

    // Waiters park first so the whole measured window runs with more
    // open transactions than execution width.
    let release_key = b"release".to_vec();
    let mut waiter_threads = Vec::with_capacity(config.waiters);
    for _ in 0..config.waiters {
        let mut client = Client::connect(addr).expect("waiter connect");
        waiter_threads.push(std::thread::spawn(move || {
            client.wait(b"release", b"go").is_ok()
        }));
    }

    let (clients, elapsed) = run_window(config.connections, config.duration, |c, window| {
        let mut rng = XorShift64::new(config.seed.wrapping_add(c as u64 * 6271));
        let mut client = Client::connect(addr).ok();
        let [mut offered, mut committed, mut busy, mut timeouts, mut errors, mut reconnects] =
            [0u64; 6];
        while window.is_open() {
            let Some(connected) = client.as_mut() else {
                // The link is dead; reconnect, pausing if the accept
                // queue is saturated.
                reconnects += 1;
                client = Client::connect(addr).ok();
                if client.is_none() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                continue;
            };
            let from = rng.next_range(config.keys as u64) as usize;
            let to = rng.next_range(config.keys as u64) as usize;
            if from == to {
                continue;
            }
            offered += 1;
            match offer_transfer(connected, &key_name(from), &key_name(to)) {
                Attempt::Committed => committed += 1,
                Attempt::Busy { connection_dead } => {
                    busy += 1;
                    if connection_dead {
                        client = None;
                    }
                }
                Attempt::TimedOut => timeouts += 1,
                Attempt::OtherError => errors += 1,
                Attempt::Io => {
                    errors += 1;
                    client = None;
                }
            }
        }
        [offered, committed, busy, timeouts, errors, reconnects]
    });
    let mut totals = [0u64; 6];
    for tallies in clients {
        for (total, tally) in totals.iter_mut().zip(tallies) {
            *total += tally;
        }
    }
    let [offered, committed, busy, timeouts, errors, reconnects] = totals;

    // Out-of-band audit, straight against the engine: under hostile
    // chaos a multi-key client round trip has no realistic chance of
    // surviving, and the invariant is about the *store*, not the link.
    let conserved = handle.sum_keys(b"acct-") == Some(0);

    // Release the waiters, then shut down.
    let released = if config.waiters > 0 {
        set_with_retry(addr, &release_key, b"go");
        waiter_threads
            .into_iter()
            .map(|t| u64::from(t.join().expect("waiter panicked")))
            .sum()
    } else {
        0
    };

    let engine = handle.stm().name();
    handle.shutdown();

    ServerReport {
        engine,
        connections: config.connections,
        workers: config.server.workers,
        elapsed,
        offered,
        committed,
        busy,
        timeouts,
        errors,
        reconnects,
        waiters_released: released,
        rps: committed as f64 / elapsed.as_secs_f64(),
        conserved,
    }
}

fn set_with_retry(addr: std::net::SocketAddr, key: &[u8], value: &[u8]) {
    for _ in 0..100 {
        if let Ok(mut client) = Client::connect(addr) {
            if client.set(key, value).is_ok() {
                return;
            }
        }
    }
    panic!("could not SET through the chaos decorator in 100 attempts");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_commits_and_conserves() {
        let report = run_server(&ServerWorkloadConfig::quick(3));
        assert!(report.committed > 0, "transfers must commit");
        assert!(report.conserved, "balances must sum to zero");
        assert_eq!(report.engine, "lsa");
    }

    #[test]
    fn overload_run_sheds_busy_but_conserves() {
        // 8 closed loops against a 1-transaction admission cap: attempts
        // that overlap must be refused BUSY, some must commit, and shed
        // attempts must leave no partial transfers behind.
        let report = run_server(&ServerWorkloadConfig::tight(8, 1));
        assert!(report.committed > 0, "the admitted trickle must commit");
        // Attempts only meet at the slot when two threads run at once; on
        // one CPU the excess waits in the run queue instead.
        if std::thread::available_parallelism().map_or(1, usize::from) > 1 {
            assert!(report.busy > 0, "8x load over cap 1 must shed");
        }
        assert!(report.conserved, "shedding must not break conservation");
        assert_eq!(
            report.offered,
            report.committed + report.busy + report.timeouts + report.errors,
            "every attempt resolves exactly once"
        );
    }

    #[test]
    fn waiters_park_beyond_the_execution_width() {
        let mut config = ServerWorkloadConfig::quick(2);
        // Width 2, 2 transfer connections + 3 parked waiters: more open
        // transactions than permits for the whole run.
        config.waiters = 3;
        let report = run_server(&config);
        assert!(
            report.committed > 0,
            "parked waits must not starve the transfers"
        );
        assert_eq!(report.waiters_released, 3, "shutdown must not eat waiters");
        assert!(report.conserved);
    }
}
