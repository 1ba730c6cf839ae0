//! The server: accept loop, per-connection protocol state machine, and
//! the transaction-execution path, which runs on the connection's own
//! thread behind a counting gate.
//!
//! Architecture (see ARCHITECTURE.md § network front end):
//!
//! * an **acceptor** thread owns the `TcpListener`;
//! * each connection gets a **connection thread** (std sockets have no
//!   reactor; DESIGN.md records this as a deliberate deviation from a
//!   `tokio` deployment) that parses every frame one read brought,
//!   answers them into one buffer and writes that buffer once;
//! * every transaction — one data command, an `EXEC` body, a blocking
//!   `WAIT` — is a future from
//!   [`DynStm::try_atomically_async_dyn`] that the connection thread
//!   drives itself with [`block_on`]. A thread per connection already
//!   exists and would only sleep while another thread ran its
//!   transaction, so there is no second set of threads to hand it to;
//! * each **poll** of such a future first takes a permit from the
//!   execution gate (`ServerConfig::workers` of them) and gives it back,
//!   with the engine context the poll leased, before it returns. So at most
//!   `workers` transactions execute at once, and **between polls a
//!   connection thread holds neither a permit nor an engine context**: a
//!   `WAIT` parked in retry, or a transaction waiting out its deadline,
//!   occupies nothing — thousands of connections can block on keys while
//!   `workers + 2` engine slots serve everyone.
//!
//! Shutdown drains in one pass: a stop flag every `WAIT` body re-checks,
//! one [`DynStm::notify_retries`] to re-run parked bodies, then the
//! acceptor is woken and, on its way out, shuts the sockets of the
//! connections it admitted and joins their threads.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::future::Future;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use zstm_api::{DynStm, DynTryFuture, DynVar};
use zstm_core::{AbortReason, RetryExhausted, RetryPolicy, TxKind};
use zstm_util::exec::{block_on, timeout, Elapsed};
use zstm_util::sync::{Condvar, Mutex};

use crate::command::{compile, resolve, Command, LONG_TX_THRESHOLD, MAX_MULTI};
use crate::frame::{parse_request, Parsed, Reply, Request};
use crate::registry::build_engine;
use crate::socket::{ChaosConfig, ChaosSocket, Socket};

/// Overload-protection knobs (see PROTOCOL.md § overload and
/// ARCHITECTURE.md § overload protection). The default is **no limits** —
/// every field wide open, preserving the PR 7 behavior — so every bound
/// is an explicit deployment decision.
///
/// The layers compose: `max_connections` sheds at accept time (a one-frame
/// `BUSY` goodbye), `max_inflight_tx` bounds the pending-work gauge
/// (queued plus executing plus parked transactions) and answers `BUSY`
/// past it, `read_timeout`/`write_timeout` bound each connection's I/O,
/// `request_deadline` bounds one transaction's wall-clock execution, and
/// `retry_budget` bounds its conflict retries.
#[derive(Clone, Debug)]
pub struct Limits {
    /// Maximum concurrently served connections; an accept past the cap is
    /// answered with a `BUSY` error frame and closed immediately.
    pub max_connections: usize,
    /// Maximum in-flight transactions (waiting at the gate, executing, or
    /// parked in `WAIT`); past it, data commands and `EXEC` reply `BUSY`
    /// instead of queueing unboundedly.
    pub max_inflight_tx: usize,
    /// Per-connection idle/read timeout: a peer that sends nothing for
    /// this long is treated as dead and its connection closed (silently —
    /// a timed-out peer is not guaranteed to hear a goodbye).
    pub read_timeout: Option<Duration>,
    /// Per-connection write timeout: the slow-consumer guard. A reply
    /// write blocked longer than this fails, closing the connection.
    pub write_timeout: Option<Duration>,
    /// Wall-clock deadline for one transaction's execution (a data
    /// command or an `EXEC` body — not `WAIT`, whose bound is its own
    /// deadline argument); past it the request is abandoned (nothing
    /// committed) and answered `TIMEOUT`.
    pub request_deadline: Option<Duration>,
    /// Retry budget for data commands and `EXEC`: a transaction whose
    /// attempts exhaust this policy is answered `BUSY` with its last
    /// abort reason instead of retrying forever. `WAIT` keeps the
    /// unbounded policy (its bound is the deadline argument).
    pub retry_budget: RetryPolicy,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_connections: usize::MAX,
            max_inflight_tx: usize::MAX,
            read_timeout: None,
            write_timeout: None,
            request_deadline: None,
            retry_budget: RetryPolicy::unbounded(),
        }
    }
}

/// Server configuration: which engine serves, how many transactions may
/// execute at once, optional fault injection, and overload limits.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Engine name (see [`crate::registry::ENGINE_NAMES`]).
    pub engine: String,
    /// Wrap the engine in the SSI certifier.
    pub certified: bool,
    /// The execution width: the maximum number of concurrently
    /// *executing* transactions (permits of the execution gate); the
    /// engine is built with `workers + 2` thread slots.
    pub workers: usize,
    /// Inject faults into every accepted connection.
    pub chaos: Option<ChaosConfig>,
    /// Overload protection (defaults to no limits).
    pub limits: Limits,
}

impl ServerConfig {
    /// The named engine at execution width two, no faults, no limits.
    pub fn new(engine: &str) -> Self {
        Self {
            engine: engine.to_string(),
            certified: false,
            workers: 2,
            chaos: None,
            limits: Limits::default(),
        }
    }

    /// Sets the execution width (at least one).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Wraps every accepted connection in a [`ChaosSocket`].
    pub fn with_chaos(mut self, chaos: ChaosConfig) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Selects the certified variant of the engine.
    pub fn with_certified(mut self, certified: bool) -> Self {
        self.certified = certified;
        self
    }
}

/// Server-level overload counters, surfaced through `STATS`.
#[derive(Default)]
struct OverloadCounters {
    /// Connections shed at accept time (`max_connections`).
    conns_shed: AtomicU64,
    /// Transactions refused with `BUSY` at admission (`max_inflight_tx`).
    busy_rejections: AtomicU64,
    /// Requests and `WAIT`s that hit a deadline (`TIMEOUT` replies).
    timeouts: AtomicU64,
}

/// State shared by the acceptor, every connection thread, and the handle.
struct Shared {
    stm: Arc<dyn DynStm>,
    gate: Gate,
    directory: Mutex<HashMap<Vec<u8>, DynVar>>,
    stopping: AtomicBool,
    limits: Limits,
    /// The pending-work gauge: transactions admitted and not yet resolved
    /// (waiting at the gate, executing, or parked). Bounded by
    /// [`Limits::max_inflight_tx`].
    inflight: AtomicUsize,
    /// Currently served connections (bounded by
    /// [`Limits::max_connections`]).
    live_conns: AtomicUsize,
    overload: OverloadCounters,
}

/// An admitted slot in the pending-work gauge; releases it on drop, so a
/// panicking or erroring path can never leak in-flight budget.
struct InflightGuard<'a>(&'a Shared);

impl<'a> InflightGuard<'a> {
    /// Claims a slot, or `None` when the gauge is at the cap. CAS loop:
    /// the gauge never overshoots, so a burst of admissions cannot
    /// collude past the limit.
    fn try_admit(shared: &'a Shared) -> Option<Self> {
        let mut current = shared.inflight.load(Ordering::Relaxed);
        loop {
            if current >= shared.limits.max_inflight_tx {
                return None;
            }
            match shared.inflight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(Self(shared)),
                Err(seen) => current = seen,
            }
        }
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The execution width: `workers` permits, one held for the length of
/// each poll of a transaction future (see [`drive`]). It is what the
/// engine's `workers + 2` thread slots are sized against — every poll
/// leases one engine context, so no more than `workers` are ever out.
struct Gate {
    permits: Mutex<Permits>,
    freed: Condvar,
}

/// The gate's state under its mutex.
struct Permits {
    free: usize,
    /// Connection threads asleep in [`Gate::enter`]. A returned permit
    /// signals the condvar only when one is, so the poll that nobody waits
    /// behind makes no futex call.
    waiting: usize,
}

/// One taken permit; dropping it (also on unwind) returns it.
struct Permit<'a>(&'a Gate);

impl Gate {
    fn new(permits: usize) -> Self {
        Self {
            permits: Mutex::new(Permits {
                free: permits,
                waiting: 0,
            }),
            freed: Condvar::new(),
        }
    }

    /// Blocks the calling connection thread until a permit is free. Polls
    /// never block on one another, so whoever holds a permit gives it
    /// back without needing a second one.
    fn enter(&self) -> Permit<'_> {
        let mut permits = self.permits.lock();
        while permits.free == 0 {
            permits.waiting += 1;
            permits = self.freed.wait(permits);
            permits.waiting -= 1;
        }
        permits.free -= 1;
        Permit(self)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut permits = self.0.permits.lock();
        permits.free += 1;
        // A sleeper counted itself under this mutex before it waited, so
        // it is either counted here or has not yet looked at `free`.
        if permits.waiting > 0 {
            self.0.freed.notify_one();
        }
    }
}

/// Why a connection stopped being served (internal control flow).
enum Close {
    /// Close without a further reply (a transaction body panicked).
    Silent,
    /// Send this reply, then close.
    After(Reply),
}

/// A connection's `MULTI` state (PROTOCOL.md §4.6).
enum Multi {
    /// Not inside a block: data commands execute as they arrive.
    Closed,
    /// Inside a block: data commands queue here until `EXEC`.
    Open(Vec<Command>),
    /// Inside a block one of whose commands was answered with an error:
    /// the queue is gone, nothing more is queued, and `EXEC` runs nothing
    /// — so a body sent in one write with its `MULTI` and `EXEC` commits
    /// whole or not at all.
    Poisoned,
}

/// A running server bound to a local address.
///
/// Dropping the handle shuts the server down (idempotent with an explicit
/// [`shutdown`](ServerHandle::shutdown)).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// Builds the engine and starts accepting on `addr` (use
    /// `127.0.0.1:0` for an ephemeral test port).
    ///
    /// # Errors
    ///
    /// Fails if the engine name is unknown or the listener cannot bind.
    pub fn spawn(addr: &str, config: &ServerConfig) -> io::Result<ServerHandle> {
        // A poll leases an engine context and the gate admits `workers`
        // polls at a time; +2 slack covers the handle's own maintenance
        // work (nothing else runs transactions).
        let stm = build_engine(&config.engine, config.workers + 2, config.certified).ok_or_else(
            || {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("unknown engine '{}'", config.engine),
                )
            },
        )?;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            stm,
            gate: Gate::new(config.workers),
            directory: Mutex::new(HashMap::new()),
            stopping: AtomicBool::new(false),
            limits: config.limits.clone(),
            inflight: AtomicUsize::new(0),
            live_conns: AtomicUsize::new(0),
            overload: OverloadCounters::default(),
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            let chaos = config.chaos.clone();
            std::thread::Builder::new()
                .name("zstm-server-accept".into())
                .spawn(move || accept_loop(&listener, &shared, chaos))
                .expect("spawn acceptor")
        };
        Ok(ServerHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine serving this handle (for out-of-band audits in tests).
    pub fn stm(&self) -> Arc<dyn DynStm> {
        Arc::clone(&self.shared.stm)
    }

    /// Atomically sums every key starting with `prefix` under `ADD`'s
    /// integer representation (§3/§4.4 of PROTOCOL.md), in one long
    /// transaction straight against the engine — the out-of-band
    /// conservation audit for chaos runs, where no client connection can
    /// be trusted to survive a 32-key round trip. `None` if any matching
    /// value is not an integer.
    pub fn sum_keys(&self, prefix: &[u8]) -> Option<i64> {
        let vars: Vec<DynVar> = {
            let directory = self.shared.directory.lock();
            directory
                .iter()
                .filter(|(key, _)| key.starts_with(prefix))
                .map(|(_, var)| var.clone())
                .collect()
        };
        let stm = Arc::clone(&self.shared.stm);
        zstm_util::exec::block_on(stm.atomically_async(TxKind::Long, move |tx| {
            let mut sum = 0i64;
            for var in &vars {
                match tx.map_bytes(var, crate::command::decode_i64)? {
                    Some(value) => sum += value,
                    None => return Ok(None),
                }
            }
            Ok(Some(sum))
        }))
    }

    /// Permits of the execution gate not taken right now. Equal to
    /// `workers` whenever no transaction is in the middle of a poll —
    /// parked `WAIT`s included (for tests of that invariant).
    pub fn free_permits(&self) -> usize {
        self.shared.gate.permits.lock().free
    }

    /// Stops accepting, wakes parked `WAIT`s, lets in-flight transactions
    /// finish, closes every connection and joins all threads.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        if self.shared.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        // Parked WAIT bodies re-run, observe the stop flag and resolve;
        // a transaction mid-flight runs to its own end (commit, budget or
        // deadline) on its connection thread.
        self.shared.stm.notify_retries();
        // Unblock the acceptor (it re-checks the flag per accept); on its
        // way out it closes and joins every connection it admitted.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Decrements the live-connection gauge when a connection finishes, no
/// matter how its thread exits.
struct ConnGuard(Arc<Shared>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.live_conns.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Longest pause between accept attempts after persistent accept errors
/// (EMFILE and friends); transient blips retry immediately.
const ACCEPT_BACKOFF_CAP: Duration = Duration::from_millis(100);

/// Admits connections until the stop flag, then closes and joins every
/// one it admitted. The acceptor alone adds connections, so it alone
/// knows them all: no late arrival can slip between somebody else's sweep
/// and this thread's exit, and connection threads are gone before it is.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, chaos: Option<ChaosConfig>) {
    // A raw handle to unblock each live connection's reader, and its
    // thread. Finished entries are pruned at each admission, so a closed
    // connection does not keep its duplicate fd open until shutdown.
    let mut conns: Vec<(Option<TcpStream>, std::thread::JoinHandle<()>)> = Vec::new();
    let mut next_id = 0u64;
    let mut backoff = Duration::from_millis(1);
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => {
                backoff = Duration::from_millis(1);
                stream
            }
            Err(error) => {
                if shared.stopping.load(Ordering::SeqCst) {
                    break;
                }
                match error.kind() {
                    // Per-connection blips: the *next* connection is fine,
                    // retry immediately.
                    io::ErrorKind::Interrupted
                    | io::ErrorKind::ConnectionAborted
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::WouldBlock => {}
                    // Resource exhaustion (EMFILE/ENFILE/ENOMEM...): the
                    // next accept will fail the same way until something
                    // frees up. Back off so the loop does not spin a core
                    // while starved, then try again — exhaustion is load,
                    // not shutdown.
                    _ => {
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(ACCEPT_BACKOFF_CAP);
                    }
                }
                continue;
            }
        };
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        // Connection-cap shedding: a peer past the cap gets one BUSY
        // frame and an immediate close, never a thread or a conns entry.
        // The gauge increments only on admission and decrements via
        // ConnGuard when the serving thread exits.
        let admitted = {
            let mut current = shared.live_conns.load(Ordering::Relaxed);
            loop {
                if current >= shared.limits.max_connections {
                    break false;
                }
                match shared.live_conns.compare_exchange_weak(
                    current,
                    current + 1,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break true,
                    Err(seen) => current = seen,
                }
            }
        };
        if !admitted {
            shared.overload.conns_shed.fetch_add(1, Ordering::Relaxed);
            let mut stream = stream;
            let _ = std::io::Write::write_all(
                &mut stream,
                &Reply::error("BUSY max connections reached").encode_frame(),
            );
            continue;
        }
        let guard = ConnGuard(Arc::clone(shared));
        stream.set_nodelay(true).ok();
        let raw = stream.try_clone().ok();
        let id = next_id;
        next_id += 1;
        let socket: Box<dyn Socket> = match &chaos {
            Some(config) => Box::new(ChaosSocket::new(stream, config.clone(), id)),
            None => Box::new(stream),
        };
        let shared = Arc::clone(shared);
        let thread = std::thread::Builder::new()
            .name(format!("zstm-server-conn-{id}"))
            .spawn(move || {
                let _guard = guard;
                serve_connection(&shared, socket);
            })
            .expect("spawn connection thread");
        conns.retain(|(_, thread)| !thread.is_finished());
        conns.push((raw, thread));
    }
    for (raw, _) in &conns {
        if let Some(raw) = raw {
            let _ = raw.shutdown(std::net::Shutdown::Both);
        }
    }
    for (_, thread) in conns {
        let _ = thread.join();
    }
}

/// Replies gathered for one write are written out early once they pass
/// this size, so a peer that pipelines large reads costs the server one
/// reply of memory beyond it, not the whole batch.
const FLUSH_AT: usize = 64 * 1024;

/// Writes out the gathered replies, if any.
fn flush(socket: &mut dyn Socket, out: &mut Vec<u8>) -> io::Result<()> {
    if out.is_empty() {
        return Ok(());
    }
    let written = socket.write_all(out);
    out.clear();
    out.shrink_to(FLUSH_AT);
    written
}

/// Reads frames off `socket`, dispatches them, writes replies — the whole
/// life of one connection.
fn serve_connection(shared: &Arc<Shared>, mut socket: Box<dyn Socket>) {
    // Deadlines first: a connection that cannot be bounded is not served.
    // A timed-out read lands in the `Err(_) => break` arm below — the
    // idle-timeout close is silent by design (PROTOCOL.md § overload).
    if socket.set_read_timeout(shared.limits.read_timeout).is_err()
        || socket
            .set_write_timeout(shared.limits.write_timeout)
            .is_err()
    {
        socket.shutdown();
        return;
    }
    let mut multi = Multi::Closed;
    let mut buf: Vec<u8> = Vec::new();
    let mut out: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    'conn: loop {
        // Answer every complete frame already buffered (pipelining) into
        // `out`; one drain and one write per pass, not one per frame.
        let mut parsed = 0;
        let closing = loop {
            let request = match parse_request(&buf[parsed..]) {
                Ok(Parsed::Complete(request, consumed)) => {
                    parsed += consumed;
                    request
                }
                Ok(Parsed::Incomplete) => break false,
                Err(error) => {
                    // Framing errors are unrecoverable: the frames before
                    // it keep their replies, then report and drop.
                    Reply::error(&format!("ERR protocol: {error}")).encode_frame_into(&mut out);
                    break true;
                }
            };
            // A WAIT may park for as long as it likes; what was answered
            // before it must not be held back with it.
            if request.args[0] == b"WAIT" && flush(socket.as_mut(), &mut out).is_err() {
                break 'conn;
            }
            match dispatch(shared, &mut multi, &request) {
                Ok(reply) => reply.encode_frame_into(&mut out),
                Err(Close::After(reply)) => {
                    reply.encode_frame_into(&mut out);
                    break true;
                }
                Err(Close::Silent) => break true,
            }
            if out.len() >= FLUSH_AT && flush(socket.as_mut(), &mut out).is_err() {
                break 'conn;
            }
        };
        buf.drain(..parsed);
        if flush(socket.as_mut(), &mut out).is_err() || closing {
            break;
        }
        match socket.read(&mut chunk) {
            // A signal, not the peer: a socket read under a receive
            // timeout fails with `EINTR` even under `SA_RESTART`.
            Err(error) if error.kind() == io::ErrorKind::Interrupted => {}
            Ok(0) | Err(_) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
    socket.shutdown();
    // A connection that dies inside MULTI simply drops its queue here —
    // nothing was executed, so nothing needs rolling back (the property
    // the chaos tests pin down).
}

/// Handles one request; `Ok` is the reply, `Err` closes the connection.
///
/// The poisoning rule of PROTOCOL.md §4.6 lives here, once: an error
/// reply that leaves a `MULTI` block open behind it (so not `EXEC`'s or
/// `DISCARD`'s, which close theirs) poisons that block.
fn dispatch(
    shared: &Arc<Shared>,
    multi: &mut Multi,
    request: &Request<'_>,
) -> Result<Reply, Close> {
    let outcome = execute(shared, multi, request);
    if !matches!(multi, Multi::Closed) && matches!(outcome, Ok(Reply::Error(_))) {
        *multi = Multi::Poisoned;
    }
    outcome
}

fn execute(shared: &Arc<Shared>, multi: &mut Multi, request: &Request<'_>) -> Result<Reply, Close> {
    let name = request.args[0];
    // Control commands first.
    match name {
        b"PING" => return Ok(Reply::status("PONG")),
        b"ENGINE" => return Ok(Reply::Value(shared.stm.name().as_bytes().to_vec())),
        b"STATS" => {
            // A snapshot, not a harvest: nothing is reset, and since
            // connection threads give their engine context back after
            // every poll, every acknowledged transaction is in it.
            let stats = shared.stm.stats();
            // Aborts are split by cause, not lumped: a parked `WAIT` that
            // rolls back to block is bookkeeping (`blocking_retries`),
            // not contention (`conflict_aborts`) — lumping them made
            // WAIT-heavy servers look conflict-bound. Then one
            // `aborts.<label>` counter per `AbortReason`.
            let mut line = format!(
                "commits={} conflict_aborts={} blocking_retries={} \
                 certification_aborts={} waker_parks={} \
                 retries_exhausted={} conns_shed={} busy={} timeouts={} inflight={}",
                stats.total_commits(),
                stats.conflict_aborts(),
                stats.blocking_retries(),
                stats.certification_aborts(),
                stats.waker_parks(),
                stats.retries_exhausted(),
                shared.overload.conns_shed.load(Ordering::Relaxed),
                shared.overload.busy_rejections.load(Ordering::Relaxed),
                shared.overload.timeouts.load(Ordering::Relaxed),
                shared.inflight.load(Ordering::Relaxed),
            );
            for reason in AbortReason::ALL {
                let _ = write!(
                    line,
                    " aborts.{}={}",
                    reason.label(),
                    stats.aborts_for(reason)
                );
            }
            return Ok(Reply::Value(line.into_bytes()));
        }
        b"QUIT" => return Err(Close::After(Reply::status("OK"))),
        b"MULTI" => {
            if !matches!(multi, Multi::Closed) {
                return Ok(Reply::error("ERR MULTI inside MULTI"));
            }
            *multi = Multi::Open(Vec::new());
            return Ok(Reply::status("OK"));
        }
        b"DISCARD" => {
            return Ok(match std::mem::replace(multi, Multi::Closed) {
                Multi::Closed => Reply::error("ERR DISCARD without MULTI"),
                Multi::Open(_) | Multi::Poisoned => Reply::status("OK"),
            });
        }
        b"EXEC" => {
            let queue = match std::mem::replace(multi, Multi::Closed) {
                Multi::Closed => return Ok(Reply::error("ERR EXEC without MULTI")),
                Multi::Poisoned => {
                    return Ok(Reply::error(
                        "ERR EXEC aborted: a queued command was rejected",
                    ))
                }
                Multi::Open(queue) => queue,
            };
            let kind = if queue.len() > LONG_TX_THRESHOLD {
                TxKind::Long
            } else {
                TxKind::Short
            };
            let plan = resolve(&shared.stm, &shared.directory, queue);
            return Ok(match run_transaction(shared, kind, plan)? {
                Ok(replies) => Reply::Multi(replies),
                // Overload: the whole transaction is refused with ONE
                // error frame (no Multi — nothing ran).
                Err(overload) => overload,
            });
        }
        b"WAIT" => {
            if !matches!(multi, Multi::Closed) {
                return Ok(Reply::error("ERR WAIT inside MULTI"));
            }
            let deadline = match request.args.len() {
                3 => None,
                4 => match std::str::from_utf8(request.args[3])
                    .ok()
                    .and_then(|s| s.parse::<u64>().ok())
                {
                    Some(ms) => Some(Duration::from_millis(ms)),
                    None => return Ok(Reply::error("ERR WAIT deadline is not a decimal u64")),
                },
                _ => return Ok(Reply::error("ERR wrong number of arguments")),
            };
            return run_wait(shared, request.args[1], request.args[2], deadline);
        }
        _ => {}
    }
    // Data commands.
    let command = match Command::parse(&request.args) {
        Ok(Some(command)) => command,
        Ok(None) => {
            return Ok(Reply::error(&format!(
                "ERR unknown command '{}'",
                String::from_utf8_lossy(name)
            )))
        }
        Err(reply) => return Ok(reply),
    };
    match multi {
        Multi::Closed => {}
        Multi::Open(queue) if queue.len() >= MAX_MULTI => {
            return Ok(Reply::error("ERR MULTI body too large"));
        }
        Multi::Open(queue) => {
            queue.push(command);
            return Ok(Reply::status("QUEUED"));
        }
        Multi::Poisoned => {
            return Ok(Reply::error(
                "ERR not queued: an earlier command in this MULTI was rejected",
            ));
        }
    }
    let plan = resolve(&shared.stm, &shared.directory, vec![command]);
    match run_transaction(shared, TxKind::Short, plan)? {
        Ok(mut replies) => Ok(replies.pop().expect("one command, one reply")),
        Err(overload) => Ok(overload),
    }
}

/// Drives a transaction future to its end on the calling connection
/// thread. Each poll runs behind a gate permit and ends by handing the
/// engine context it leased back to the `Stm` pool, so while the future
/// is pending — parked in `retry`, or waiting for its deadline in
/// [`block_on`] — this thread holds neither.
///
/// A panicking body unwinds through the poll: the permit's and the
/// lease's `Drop`s return both, and only this connection closes.
fn drive<T>(shared: &Shared, future: impl Future<Output = T>) -> Result<T, Close> {
    let mut future = std::pin::pin!(future);
    let gated = std::future::poll_fn(|cx| {
        let _permit = shared.gate.enter();
        let polled = future.as_mut().poll(cx);
        shared.stm.flush_local();
        polled
    });
    catch_unwind(AssertUnwindSafe(|| block_on(gated))).map_err(|_| Close::Silent)
}

/// Bounds a budgeted transaction future by the optional deadline; `Err`
/// means the deadline passed first and the future was dropped
/// mid-retry-loop (attempts are atomic; nothing committed).
async fn within(
    deadline: Option<Duration>,
    future: DynTryFuture,
) -> Result<Result<(), RetryExhausted>, Elapsed> {
    match deadline {
        Some(deadline) => timeout(deadline, future).await,
        None => Ok(future.await),
    }
}

/// Runs a compiled plan as one atomic transaction and returns its
/// replies.
///
/// The overload layers apply here: admission against the in-flight cap
/// (`Err` reply: `BUSY`), the configured retry budget (`BUSY` with the
/// last abort reason), and the execution deadline (`TIMEOUT`). The inner
/// `Ok`/`Err` distinguishes a served transaction from an overload reply —
/// an overloaded `EXEC` answers one error frame, not a `Multi`.
fn run_transaction(
    shared: &Arc<Shared>,
    kind: TxKind,
    plan: Vec<crate::command::Planned>,
) -> Result<Result<Vec<Reply>, Reply>, Close> {
    let Some(_slot) = InflightGuard::try_admit(shared) else {
        shared
            .overload
            .busy_rejections
            .fetch_add(1, Ordering::Relaxed);
        return Ok(Err(Reply::error("BUSY too many in-flight transactions")));
    };
    let out = Arc::new(Mutex::new(Vec::new()));
    let body = compile(plan, Arc::clone(&out));
    let future =
        shared
            .stm
            .try_atomically_async_dyn(kind, shared.limits.retry_budget, vec![Box::new(body)]);
    match drive(shared, within(shared.limits.request_deadline, future))? {
        Ok(Ok(())) => Ok(Ok(std::mem::take(&mut *out.lock()))),
        Ok(Err(exhausted)) => Ok(Err(Reply::error(&format!(
            "BUSY retry budget exhausted after {} attempts (last abort: {})",
            exhausted.attempts(),
            exhausted.last_reason(),
        )))),
        Err(Elapsed) => {
            shared.overload.timeouts.fetch_add(1, Ordering::Relaxed);
            Ok(Err(Reply::error("TIMEOUT request deadline exceeded")))
        }
    }
}

/// `WAIT key expected [deadline-ms]`: parks (via the retry/notifier
/// protocol, as a suspended future) until the key holds `expected`; a
/// server shutdown resolves the wait with an error instead of leaving the
/// peer hanging, and an expired deadline resolves it with a `TIMEOUT`
/// reply (the connection stays open — a timed-out wait is an answer, not
/// a failure).
fn run_wait(
    shared: &Arc<Shared>,
    key: &[u8],
    expected: &[u8],
    deadline: Option<Duration>,
) -> Result<Reply, Close> {
    let plan = resolve(
        &shared.stm,
        &shared.directory,
        vec![Command::Get(key.to_vec())],
    );
    // WAIT creates the key (it must exist to park on); re-resolve as a
    // creating command.
    let var = match plan.into_iter().next().and_then(|p| p.var) {
        Some(var) => var,
        None => {
            let mut directory = shared.directory.lock();
            directory
                .entry(key.to_vec())
                .or_insert_with(|| shared.stm.new_bytes(Vec::new()))
                .clone()
        }
    };
    // A parked WAIT is pending work: it holds an in-flight slot until it
    // resolves, so the gauge bounds waiters too (`max_connections` is the
    // coarser bound on how many peers can try).
    let Some(_slot) = InflightGuard::try_admit(shared) else {
        shared
            .overload
            .busy_rejections
            .fetch_add(1, Ordering::Relaxed);
        return Ok(Reply::error("BUSY too many in-flight transactions"));
    };
    let expected = expected.to_vec();
    let stopping = Arc::new(AtomicBool::new(false));
    let observed_stop = Arc::clone(&stopping);
    let shared_flag = Arc::clone(shared);
    let body = move |tx: &mut dyn zstm_api::DynTx| -> Result<(), zstm_core::Abort> {
        // Re-checked on every attempt: shutdown's notify_retries re-runs
        // parked bodies, which then commit empty instead of re-parking.
        if shared_flag.stopping.load(Ordering::SeqCst) {
            observed_stop.store(true, Ordering::SeqCst);
            return Ok(());
        }
        if tx.map_bytes(&var, |current| current == &expected[..])? {
            Ok(())
        } else {
            Err(tx.retry())
        }
    };
    // Unbounded retries — a WAIT's bound is its deadline, not a budget.
    let future = shared.stm.try_atomically_async_dyn(
        TxKind::Short,
        RetryPolicy::unbounded(),
        vec![Box::new(body)],
    );
    match drive(shared, within(deadline, future))? {
        Err(Elapsed) => {
            shared.overload.timeouts.fetch_add(1, Ordering::Relaxed);
            Ok(Reply::error("TIMEOUT wait deadline exceeded"))
        }
        Ok(Err(_)) => unreachable!("unbounded retry loop cannot exhaust"),
        Ok(Ok(())) if stopping.load(Ordering::SeqCst) => {
            Err(Close::After(Reply::error("ERR server shutting down")))
        }
        Ok(Ok(())) => Ok(Reply::status("OK")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_request;

    /// Replays `input` as what the peer sent, then end-of-stream; records
    /// the size of every write. Its first read fails with `Interrupted` if
    /// `interrupt` is set, as a read under a receive timeout does when a
    /// signal lands.
    struct Scripted {
        input: io::Cursor<Vec<u8>>,
        writes: Arc<Mutex<Vec<usize>>>,
        interrupt: bool,
    }

    impl Socket for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if std::mem::take(&mut self.interrupt) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            io::Read::read(&mut self.input, buf)
        }
        fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
            self.writes.lock().push(buf.len());
            Ok(())
        }
        fn shutdown(&mut self) {}
        fn set_read_timeout(&mut self, _: Option<Duration>) -> io::Result<()> {
            Ok(())
        }
        fn set_write_timeout(&mut self, _: Option<Duration>) -> io::Result<()> {
            Ok(())
        }
    }

    /// 64 pipelined `GET`s of a 512-KiB value arrive in one read. Their
    /// replies are gathered, but never more than [`FLUSH_AT`] plus the one
    /// reply that crossed it — a slow consumer costs the server one reply
    /// of memory, not 32 MiB.
    #[test]
    fn pipelined_large_replies_are_not_buffered_whole() {
        const BIG: usize = 512 * 1024;
        let server =
            ServerHandle::spawn("127.0.0.1:0", &ServerConfig::new("lsa")).expect("spawn server");
        let mut input = encode_request(&[b"SET", b"big", &vec![0x5A; BIG]]);
        for _ in 0..64 {
            input.extend(encode_request(&[b"GET", b"big"]));
        }
        // Small replies behind the large ones share one write again.
        for _ in 0..8 {
            input.extend(encode_request(&[b"PING"]));
        }
        let writes = Arc::new(Mutex::new(Vec::new()));
        serve_connection(
            &server.shared,
            Box::new(Scripted {
                input: io::Cursor::new(input),
                writes: Arc::clone(&writes),
                interrupt: false,
            }),
        );
        let writes = writes.lock();
        let get_reply = 4 + 1 + BIG;
        let ping_reply = 4 + 1 + 4;
        assert_eq!(
            writes.iter().sum::<usize>(),
            (4 + 3) + 64 * get_reply + 8 * ping_reply,
            "every request was answered"
        );
        let largest = writes.iter().copied().max().expect("some write");
        assert!(
            largest < FLUSH_AT + get_reply,
            "a write of {largest} bytes: the batch was buffered past the cap"
        );
        assert!(
            writes.len() < 1 + 64 + 8,
            "the PINGs after the last GET must share a write, got {writes:?}"
        );
    }

    /// A signal that interrupts a read is not the peer leaving: the
    /// connection reads again and answers what follows.
    #[test]
    fn an_interrupted_read_keeps_the_connection() {
        let server =
            ServerHandle::spawn("127.0.0.1:0", &ServerConfig::new("lsa")).expect("spawn server");
        let writes = Arc::new(Mutex::new(Vec::new()));
        let socket = Scripted {
            input: io::Cursor::new(encode_request(&[b"PING"])),
            writes: Arc::clone(&writes),
            interrupt: true,
        };
        serve_connection(&server.shared, Box::new(socket));
        assert_eq!(*writes.lock(), [4 + 1 + 4], "the PING was answered");
        server.shutdown();
    }

    /// A returned permit signals only when someone sleeps at the gate, so
    /// the sleeper must be counted: a connection that found the gate
    /// exhausted is served once the permit comes back.
    #[test]
    fn a_connection_blocked_on_an_exhausted_gate_is_released() {
        zstm_util::run_with_deadline("blocked at the gate [lsa]", Duration::from_secs(30), || {
            let config = ServerConfig::new("lsa").with_workers(1);
            let server = ServerHandle::spawn("127.0.0.1:0", &config).expect("spawn server");
            let held = server.shared.gate.enter();
            let writes = Arc::new(Mutex::new(Vec::new()));
            let connection = {
                let (shared, writes) = (Arc::clone(&server.shared), Arc::clone(&writes));
                std::thread::spawn(move || {
                    let input = io::Cursor::new(encode_request(&[b"ADD", b"k", b"1"]));
                    let interrupt = false;
                    let socket = Scripted {
                        input,
                        writes,
                        interrupt,
                    };
                    serve_connection(&shared, Box::new(socket));
                })
            };
            while server.shared.gate.permits.lock().waiting == 0 {
                std::thread::yield_now();
            }
            assert!(writes.lock().is_empty(), "no reply past an exhausted gate");
            drop(held);
            connection.join().expect("connection thread");
            assert_eq!(writes.lock().len(), 1, "the ADD was answered");
            assert_eq!(server.free_permits(), 1);
            server.shutdown();
        });
    }
}
