//! The server workload: concurrent TCP clients hammering `MULTI`…`EXEC`
//! transfers, with a conservation audit — the driver behind the
//! `repro_figures server` RPS figure and the chaos integration tests.
//!
//! Every transfer is one atomic transaction, `MULTI [ADD from -1; ADD to
//! +1] EXEC`, over a zero-initialized key space, so the audit invariant is
//! the bank workload's: the balances must sum to zero no matter how many
//! connections a [`ChaosSocket`](crate::socket::ChaosSocket) tears down
//! mid-protocol. Optional *waiter* connections park in `WAIT` for the
//! whole run, proving a parked wait takes none of the server's execution
//! width.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use zstm_util::{run_window, XorShift64};

use crate::client::Client;
use crate::frame::Reply;
use crate::server::{ServerConfig, ServerHandle};

/// Configuration of one server-workload run.
#[derive(Clone, Debug)]
pub struct ServerWorkloadConfig {
    /// The server under load (engine, workers, chaos).
    pub server: ServerConfig,
    /// Concurrent transfer connections.
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
}

/// Result of one server-workload run.
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
    /// Committed `EXEC` transfer transactions (full request/reply round
    /// trips, so this is end-to-end server throughput).
    pub committed: u64,
    /// Connections the chaos decorator tore down (each one reconnected).
    pub reconnects: u64,
    /// Waiter connections that parked and were released.
    pub waiters_released: u64,
    /// Committed transfers per second — the RPS figure's y-axis.
    pub rps: f64,
    /// `true` iff the final audit summed every balance to zero.
    pub conserved: bool,
}

fn key_name(i: usize) -> Vec<u8> {
    format!("acct-{i}").into_bytes()
}

/// Runs the workload: spawns a server, drives it over real sockets,
/// audits conservation, shuts it down.
///
/// # Panics
///
/// Panics if the server cannot spawn, a fault-free connection cannot be
/// established, or the final audit round trip fails — harness errors, not
/// measured outcomes (chaos-torn connections are counted, not fatal).
pub fn run_server(config: &ServerWorkloadConfig) -> ServerReport {
    let handle = ServerHandle::spawn("127.0.0.1:0", &config.server).expect("spawn server");
    let addr = handle.addr();
    let reconnects = AtomicU64::new(0);

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

    let (committed, elapsed) = run_window(config.connections, config.duration, |c, window| {
        let mut rng = XorShift64::new(config.seed.wrapping_add(c as u64 * 6271));
        let mut client = Client::connect(addr).ok();
        let mut committed = 0u64;
        while window.is_open() {
            let Some(connected) = client.as_mut() else {
                // Chaos killed the link; reconnect and carry on.
                reconnects.fetch_add(1, Ordering::Relaxed);
                client = Client::connect(addr).ok();
                continue;
            };
            let from = rng.next_range(config.keys as u64) as usize;
            let to = rng.next_range(config.keys as u64) as usize;
            if from == to {
                continue;
            }
            let transfer = [
                vec![b"ADD".to_vec(), key_name(from), b"-1".to_vec()],
                vec![b"ADD".to_vec(), key_name(to), b"1".to_vec()],
            ];
            match connected.multi_exec(&transfer) {
                Ok(_) => committed += 1,
                Err(_) => client = None,
            }
        }
        committed
    });
    let committed: u64 = committed.into_iter().sum();

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

    let secs = elapsed.as_secs_f64();
    ServerReport {
        engine,
        connections: config.connections,
        workers: config.server.workers,
        elapsed,
        committed,
        reconnects: reconnects.into_inner(),
        waiters_released: released,
        rps: committed as f64 / secs,
        conserved,
    }
}

/// Configuration of one overload run: closed-loop clients offering as
/// much load as they can against a server with tight [`Limits`], counting
/// how the excess is answered.
///
/// [`Limits`]: crate::server::Limits
#[derive(Clone, Debug)]
pub struct OverloadConfig {
    /// The server under overload (set its `limits` tight — that is the
    /// point).
    pub server: ServerConfig,
    /// Closed-loop client connections (the offered-load axis: each tries
    /// transfers back-to-back, so more connections = more offered load).
    pub connections: usize,
    /// Distinct keys (`acct-0` … `acct-{keys-1}`).
    pub keys: usize,
    /// Wall-clock measurement duration.
    pub duration: Duration,
    /// PRNG seed.
    pub seed: u64,
}

impl OverloadConfig {
    /// A short run against an LSA server admitting at most `cap`
    /// concurrent transactions at execution width one, offered `connections`
    /// clients' worth of load.
    pub fn tight(connections: usize, cap: usize) -> Self {
        let mut server = ServerConfig::new("lsa").with_workers(1);
        server.limits.max_inflight_tx = cap;
        Self {
            server,
            connections,
            keys: 16,
            duration: Duration::from_millis(150),
            seed: 0x10ad,
        }
    }
}

/// Result of one overload run. `offered` counts transfer attempts that
/// reached `EXEC` (or died trying); every attempt resolves into exactly
/// one of `committed`, `busy`, `timeouts`, or `errors`.
#[derive(Clone, Debug)]
pub struct OverloadReport {
    /// Name of the engine that served.
    pub engine: &'static str,
    /// Client connections offering load.
    pub connections: usize,
    /// Transfer attempts started.
    pub offered: u64,
    /// Attempts whose `EXEC` committed.
    pub committed: u64,
    /// Attempts answered with a `BUSY …` frame (admission or retry
    /// budget), including connections shed at accept time.
    pub busy: u64,
    /// Attempts answered with a `TIMEOUT …` frame.
    pub timeouts: u64,
    /// Attempts lost to I/O errors (died mid-protocol; the client
    /// reconnects).
    pub errors: u64,
    /// Measured wall-clock duration.
    pub elapsed: Duration,
    /// Committed transfers per second — the figure's goodput axis.
    pub goodput: f64,
    /// `(busy + timeouts) / offered`.
    pub shed_rate: f64,
    /// `true` iff the final audit summed every balance to zero: shed and
    /// timed-out transfers must leave no partial effects.
    pub conserved: bool,
}

/// One transfer attempt over an open connection: `MULTI`, two `ADD`s and
/// `EXEC` in one write, classifying how the server answered.
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
    /// Protocol-level refusal that is neither BUSY nor TIMEOUT (not
    /// expected in this workload, counted separately so it cannot be
    /// mistaken for shedding).
    OtherError,
    /// The connection died mid-attempt.
    Io,
}

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

/// Runs the overload workload: spawns the (tightly limited) server,
/// offers `connections` closed loops of transfers, and reports how the
/// excess was shed. See [`OverloadReport`].
///
/// # Panics
///
/// Panics only on harness errors (the server cannot spawn); clients
/// losing their connections is a measured outcome, not a failure.
pub fn run_overload(config: &OverloadConfig) -> OverloadReport {
    let handle = ServerHandle::spawn("127.0.0.1:0", &config.server).expect("spawn server");
    let addr = handle.addr();
    let (clients, elapsed) = run_window(config.connections, config.duration, |c, window| {
        let mut rng = XorShift64::new(config.seed.wrapping_add(c as u64 * 9973));
        let mut client = Client::connect(addr).ok();
        let mut busy = 0u64;
        let mut timeouts = 0u64;
        let mut committed = 0u64;
        let mut errors = 0u64;
        let mut offered = 0u64;
        while window.is_open() {
            let Some(connected) = client.as_mut() else {
                client = Client::connect(addr).ok();
                if client.is_none() {
                    // Accept queue saturated; brief pause, then retry.
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
        [offered, committed, busy, timeouts, errors]
    });

    let mut totals = [0u64; 5];
    for tallies in clients {
        for (total, tally) in totals.iter_mut().zip(tallies) {
            *total += tally;
        }
    }
    let [offered, committed, busy, timeouts, errors] = totals;

    let conserved = handle.sum_keys(b"acct-") == Some(0);
    let engine = handle.stm().name();
    handle.shutdown();

    OverloadReport {
        engine,
        connections: config.connections,
        offered,
        committed,
        busy,
        timeouts,
        errors,
        elapsed,
        goodput: committed as f64 / elapsed.as_secs_f64(),
        shed_rate: if offered == 0 {
            0.0
        } else {
            (busy + timeouts) as f64 / offered as f64
        },
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
        let report = run_overload(&OverloadConfig::tight(8, 1));
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
