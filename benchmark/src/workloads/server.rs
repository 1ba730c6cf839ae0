//! `server_transfer_cs`: a loopback `zstm-server` on CS-STM with one worker,
//! one connection and one client thread — socket, framing and the executor
//! hand-off are about a hundred times the transaction.
//!
//! Primary class: `MULTI; ADD a -1; ADD b 1; EXEC`. Secondary class: `GET`.
//! Client, connection thread and pool worker hand one request along, so at
//! most one of them is runnable at a time.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use zstm_core::TxStats;
use zstm_server::client::Client;
use zstm_server::command::decode_i64;
use zstm_server::frame::Reply;
use zstm_server::server::{ServerConfig, ServerHandle};
use zstm_util::XorShift64;

use super::{distinct_pair, hash_streams, stream_rng, warm_up_count, Finish, Workload};
use crate::harness::{self, Strides, WindowOut, Worker, PRIMARY, SECONDARY};
use crate::hist::Hist;
use crate::trace::{self, Name, Summary, Tracer};

pub const KEYS: usize = 1_024;
const INITIAL_VALUE: i64 = 1_000;
pub const GET_PCT: u8 = 20;
const WARM_UP_REQUESTS: u64 = 20_000;
const PING_PROBES: usize = 2_000;
const WAIT_PROBES: u64 = 200;

enum Op {
    Transfer { from: usize, to: usize },
    Get { key: usize },
}

pub struct ServerClient {
    client: Client,
    keys: Arc<Vec<Vec<u8>>>,
    rng: XorShift64,
    op: Op,
    /// GET replies that were not an integer.
    bad_gets: u64,
}

pub fn key_name(key: usize) -> Vec<u8> {
    format!("k{key:04}").into_bytes()
}

fn add(key: &[u8], delta: &[u8]) -> Vec<Vec<u8>> {
    vec![b"ADD".to_vec(), key.to_vec(), delta.to_vec()]
}

impl ServerClient {
    /// `Client::multi_exec`, spelled out request by request so that each
    /// frame pair gets its own span.
    fn traced_exec(&mut self, commands: &[Vec<Vec<u8>>], tracer: &Tracer) -> Option<Vec<Reply>> {
        let client = &mut self.client;
        let mut request = |args: &[&[u8]]| tracer.span(Name::Request, || client.request(args).ok());
        tracer.span(Name::ClientExec, || {
            matches!(request(&[b"MULTI"])?, Reply::Status(s) if s == "OK").then_some(())?;
            for command in commands {
                let args: Vec<&[u8]> = command.iter().map(Vec::as_slice).collect();
                matches!(request(&args)?, Reply::Status(s) if s == "QUEUED").then_some(())?;
            }
            match request(&[b"EXEC"])? {
                Reply::Multi(replies) => Some(replies),
                _ => None,
            }
        })
    }
}

impl Worker for ServerClient {
    fn thread_name(&self) -> String {
        "srv-client".to_string()
    }

    fn sample_strides(&self) -> Strides {
        [1, 1]
    }

    fn trace_strides(&self) -> Strides {
        [4, 4]
    }

    fn draw(&mut self) -> usize {
        if self.rng.next_percent(GET_PCT) {
            self.op = Op::Get {
                key: self.rng.next_range(KEYS as u64) as usize,
            };
            return SECONDARY;
        }
        let (from, to) = distinct_pair(&mut self.rng, KEYS);
        self.op = Op::Transfer { from, to };
        PRIMARY
    }

    fn run(&mut self, tracer: Option<&Tracer>) -> bool {
        match self.op {
            Op::Transfer { from, to } => {
                let commands = [add(&self.keys[from], b"-1"), add(&self.keys[to], b"1")];
                let replies = match tracer {
                    Some(tracer) => self.traced_exec(&commands, tracer),
                    None => self.client.multi_exec(&commands).ok(),
                };
                // BUSY, TIMEOUT and error replies all count as failed.
                replies.is_some_and(|replies| {
                    replies.len() == 2 && replies.iter().all(|r| matches!(r, Reply::Int(_)))
                })
            }
            Op::Get { key } => {
                let key = &self.keys[key];
                let value = match tracer {
                    Some(tracer) => tracer.span(Name::ClientGet, || self.client.get(key)),
                    None => self.client.get(key),
                };
                match value {
                    Ok(Some(bytes)) => {
                        self.bad_gets += u64::from(decode_i64(&bytes).is_none());
                        true
                    }
                    _ => false,
                }
            }
        }
    }
}

pub struct Server {
    server: ServerHandle,
    client: [ServerClient; 1],
    input_hash: u64,
}

/// Median `PING` round trip: socket, framing and the connection thread, with
/// no transaction behind them.
fn ping_rtt_us_p50(client: &mut Client) -> Option<f64> {
    let mut hist = Hist::new();
    for _ in 0..PING_PROBES {
        let began = trace::now_ns();
        client.ping().ok()?;
        hist.record(trace::now_ns() - began);
    }
    hist.quantile(0.5).map(|ns| ns / 1e3)
}

/// Median time from sending the `SET` that satisfies a parked `WAIT` (on a
/// second connection) to that `WAIT` returning.
fn wait_wake_us_p50(server: &ServerHandle, setter: &mut Client) -> Option<f64> {
    let mut waiter = Client::connect(server.addr()).ok()?;
    let (about_to_wait, parked) = mpsc::channel::<u64>();
    let (woke, woke_at) = mpsc::channel::<u64>();
    let thread = std::thread::Builder::new()
        .name("srv-waiter".into())
        .spawn(move || {
            for round in 0..WAIT_PROBES {
                if about_to_wait.send(round).is_err()
                    || waiter.wait(b"w", round.to_string().as_bytes()).is_err()
                    || woke.send(trace::now_ns()).is_err()
                {
                    return;
                }
            }
        })
        .ok()?;
    let mut hist = Hist::new();
    for round in parked {
        // Long enough for the WAIT to arrive and park on the key.
        std::thread::sleep(Duration::from_micros(500));
        let sent = trace::now_ns();
        if setter.set(b"w", round.to_string().as_bytes()).is_err() {
            break;
        }
        match woke_at.recv_timeout(Duration::from_secs(5)) {
            Ok(at) => hist.record(at.saturating_sub(sent)),
            Err(_) => break,
        }
    }
    thread.join().ok()?;
    hist.quantile(0.5).map(|ns| ns / 1e3)
}

/// The counters of one `STATS` reply line, by name.
fn stats_line(client: &mut Client) -> Vec<(String, f64)> {
    let Ok(Reply::Value(line)) = client.request(&[b"STATS"]) else {
        return Vec::new();
    };
    String::from_utf8_lossy(&line)
        .split_whitespace()
        .filter_map(|pair| {
            let (name, value) = pair.split_once('=')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

impl Workload for Server {
    const NAME: &'static str = "server_transfer_cs";
    type Worker = ServerClient;
    type Inputs = u64;

    fn generate(seed: u64) -> u64 {
        seed
    }

    fn setup(&seed: &u64, smoke: bool) -> Self {
        let server = ServerHandle::spawn("127.0.0.1:0", &ServerConfig::new("cs").with_workers(1))
            .expect("spawn loopback server");
        let mut client = Client::connect(server.addr()).expect("connect to loopback server");
        let keys: Arc<Vec<Vec<u8>>> = Arc::new((0..KEYS).map(key_name).collect());
        for key in keys.iter() {
            let value = client.add(key, INITIAL_VALUE).expect("seed a key");
            assert_eq!(value, INITIAL_VALUE);
        }
        let rng = stream_rng(seed, Self::NAME, 0);
        let input_hash = hash_streams(std::iter::once(&rng));
        let mut client = [ServerClient {
            client,
            keys,
            rng,
            op: Op::Get { key: 0 },
            bad_gets: 0,
        }];
        let failed = harness::warm_up(&mut client, warm_up_count(WARM_UP_REQUESTS, smoke));
        assert_eq!(failed, 0, "warm-up requests must succeed");
        Server {
            server,
            client,
            input_hash,
        }
    }

    fn input_hash(&self) -> u64 {
        self.input_hash
    }

    fn workers(&mut self) -> &mut [ServerClient] {
        &mut self.client
    }

    fn take_stats(&mut self) -> Option<TxStats> {
        None
    }

    fn finish(self, traced: Option<&WindowOut>) -> Finish {
        let [mut worker] = self.client;
        let mut layers = Vec::new();
        if let Some(traced) = traced {
            let summary = Summary::of(&traced.tracers);
            let transfers = summary.get(Name::ClientExec).count;
            if transfers > 0 {
                let requests = summary.get(Name::Request).count;
                // One request frame and one reply frame per round trip.
                layers.push((
                    "server.frames_per_transfer",
                    2.0 * requests as f64 / transfers as f64,
                ));
            }
            layers.extend(
                ping_rtt_us_p50(&mut worker.client).map(|p50| ("server.ping_rtt_us_p50", p50)),
            );
            layers.extend(
                wait_wake_us_p50(&self.server, &mut worker.client)
                    .map(|p50| ("server.wait_wake_us_p50", p50)),
            );
            // The overload counters are the server's own and only `STATS`
            // shows them. Its engine counters read 0 while a pool worker is
            // alive (a live thread's context is out of `take_stats`' reach),
            // so those are taken from the engine after shutdown, below.
            let stats = stats_line(&mut worker.client);
            for (layer, counter) in [
                ("server.stats.busy", "busy"),
                ("server.stats.timeouts", "timeouts"),
            ] {
                layers.extend(
                    stats
                        .iter()
                        .find(|(name, _)| name == counter)
                        .map(|(_, value)| (layer, *value)),
                );
            }
        }
        let expected = KEYS as i64 * INITIAL_VALUE;
        let audit = match self.server.sum_keys(b"k") {
            Some(sum) if sum == expected => {
                if worker.bad_gets > 0 {
                    Err(format!("{} GET replies were not integers", worker.bad_gets))
                } else {
                    Ok(())
                }
            }
            Some(sum) => Err(format!("keys sum to {sum}, not {expected}")),
            None => Err("a key no longer holds an integer".to_string()),
        };
        drop(worker);
        let engine = self.server.stm();
        self.server.shutdown();
        if traced.is_some() {
            // Every transaction of the server's life: seeding, warm-up, both
            // windows and the probes.
            let stats = engine.take_stats();
            layers.push(("server.stats.commits", stats.total_commits() as f64));
            layers.push((
                "server.stats.conflict_aborts",
                stats.conflict_aborts() as f64,
            ));
        }
        Finish { audit, layers }
    }
}
