//! The execution gate (`ServerConfig::workers`): transactions run on
//! their connection's own thread, at most `workers` of them inside a poll
//! at once, and **between polls a connection thread holds neither a
//! permit nor an engine context** — checked here from outside, through
//! `ServerHandle::free_permits` and `DynStm::leased_contexts`.
//!
//! Every case runs under `run_with_deadline`, so a lost permit fails with
//! the case's name instead of hanging the suite.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use zstm_core::{RetryPolicy, TxKind};
use zstm_server::client::Client;
use zstm_server::frame::Reply;
use zstm_server::registry::ENGINE_NAMES;
use zstm_server::server::{Limits, ServerConfig, ServerHandle};
use zstm_util::run_with_deadline;

const DEADLINE: Duration = Duration::from_secs(60);

fn transfer(client: &mut Client, from: usize, to: usize) {
    let replies = client
        .multi_exec(&[
            vec![
                b"ADD".to_vec(),
                format!("k{from}").into_bytes(),
                b"-1".to_vec(),
            ],
            vec![
                b"ADD".to_vec(),
                format!("k{to}").into_bytes(),
                b"1".to_vec(),
            ],
        ])
        .expect("transfer EXEC");
    assert_eq!(replies.len(), 2);
}

/// One counter of the `STATS` line.
fn stat(client: &mut Client, name: &str) -> u64 {
    let Reply::Value(line) = client.request(&[b"STATS"]).expect("STATS reply") else {
        panic!("STATS answers a value");
    };
    let line = String::from_utf8(line).expect("STATS is ASCII");
    line.split_whitespace()
        .find_map(|pair| pair.strip_prefix(name)?.strip_prefix('=')?.parse().ok())
        .unwrap_or_else(|| panic!("no {name} in {line}"))
}

/// Polls `held` until it is true; a state that never arrives is the
/// failure, named by `what`.
fn eventually(what: &str, mut held: impl FnMut() -> bool) {
    let give_up = Instant::now() + Duration::from_secs(20);
    while !held() {
        assert!(Instant::now() < give_up, "never saw: {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Sixteen connections over one permit: every engine serves them all and
/// conserves the sum — waiting at the gate is a queue, not a deadlock.
#[test]
fn sixteen_connections_share_one_permit_on_every_engine() {
    for engine in ENGINE_NAMES {
        run_with_deadline(
            &format!("16 connections, 1 worker [{engine}]"),
            DEADLINE,
            move || {
                let server =
                    ServerHandle::spawn("127.0.0.1:0", &ServerConfig::new(engine).with_workers(1))
                        .unwrap_or_else(|e| panic!("spawn {engine}: {e}"));
                let addr = server.addr();
                let clients: Vec<_> = (0..16)
                    .map(|c| {
                        std::thread::spawn(move || {
                            let mut client = Client::connect(addr).expect("connect");
                            for i in 0..25 {
                                transfer(&mut client, (c + i) % 8, (c + i + 1) % 8);
                            }
                        })
                    })
                    .collect();
                for client in clients {
                    client.join().expect("client thread");
                }
                assert_eq!(server.sum_keys(b"k"), Some(0), "{engine}: conserved");
                assert_eq!(server.free_permits(), 1, "{engine}: the permit is back");
                server.shutdown();
            },
        );
    }
}

/// The between-polls invariant: with `workers + 3` `WAIT`s parked, the
/// gate holds every permit and the engine's pool every registered
/// context, so one more connection commits as if nobody were waiting.
#[test]
fn parked_waits_hold_neither_a_permit_nor_a_context() {
    for engine in ENGINE_NAMES {
        run_with_deadline(
            &format!("parked WAITs hold nothing [{engine}]"),
            DEADLINE,
            move || {
                const WORKERS: usize = 2;
                const WAITERS: u64 = WORKERS as u64 + 3;
                let server = ServerHandle::spawn(
                    "127.0.0.1:0",
                    &ServerConfig::new(engine).with_workers(WORKERS),
                )
                .unwrap_or_else(|e| panic!("spawn {engine}: {e}"));
                let addr = server.addr();
                let stm = server.stm();
                let waiters: Vec<_> = (0..WAITERS)
                    .map(|_| {
                        std::thread::spawn(move || {
                            let mut client = Client::connect(addr).expect("waiter connect");
                            client.wait(b"door", b"open")
                        })
                    })
                    .collect();

                let mut client = Client::connect(addr).expect("connect");
                let idle = || server.free_permits() == WORKERS && stm.leased_contexts() == 0;
                // `waker_parks` counts suspensions, so five of them say that
                // every WAIT has run its first poll and gone to sleep.
                eventually("every WAIT parked, nothing held", || {
                    stat(&mut client, "waker_parks") >= WAITERS && idle()
                });
                assert_eq!(
                    stat(&mut client, "inflight"),
                    WAITERS,
                    "{engine}: all admitted"
                );

                // A commit elsewhere is none of their business.
                transfer(&mut client, 0, 1);
                // One to their key wakes the waiters; they look, find the
                // door not open and park again, holding nothing once more.
                client.set(b"door", b"ajar").expect("rattle the door");
                eventually("waiters parked again after a commit", || {
                    stat(&mut client, "waker_parks") >= 2 * WAITERS && idle()
                });

                client.set(b"door", b"open").expect("release the waiters");
                for waiter in waiters {
                    waiter
                        .join()
                        .expect("waiter thread")
                        .unwrap_or_else(|e| panic!("{engine}: WAIT must wake: {e}"));
                }
                assert_eq!(server.sum_keys(b"k"), Some(0), "{engine}: conserved");
                server.shutdown();
            },
        );
    }
}

/// A commit wakes the `WAIT`s on the key it wrote and leaves the others
/// asleep: with 48 of them parked on 48 keys, one `SET` is answered and
/// re-runs a handful of bodies (its key's, and those whose variable's id
/// is a multiple of 64 away), not all 48.
#[test]
fn a_set_wakes_the_waits_on_its_key_and_leaves_the_rest_asleep() {
    for engine in ENGINE_NAMES {
        run_with_deadline(
            &format!("one SET, 48 parked WAITs [{engine}]"),
            DEADLINE,
            move || {
                const WAITERS: u64 = 48;
                let server =
                    ServerHandle::spawn("127.0.0.1:0", &ServerConfig::new(engine).with_workers(2))
                        .unwrap_or_else(|e| panic!("spawn {engine}: {e}"));
                let addr = server.addr();
                let mut waiters: Vec<_> = (0..WAITERS)
                    .map(|door| {
                        std::thread::spawn(move || {
                            let mut client = Client::connect(addr).expect("waiter connect");
                            client.wait(format!("door{door}").as_bytes(), b"open")
                        })
                    })
                    .collect();
                let mut client = Client::connect(addr).expect("connect");
                eventually("every WAIT parked", || {
                    stat(&mut client, "waker_parks") >= WAITERS
                });
                let before = stat(&mut client, "blocking_retries");
                assert_eq!(before, WAITERS, "{engine}: one retry per WAIT so far");

                client.set(b"door7", b"open").expect("open one door");
                waiters
                    .remove(7)
                    .join()
                    .expect("waiter thread")
                    .unwrap_or_else(|e| panic!("{engine}: its WAIT must wake: {e}"));
                // Time for any body woken by mistake to re-run and retry.
                std::thread::sleep(Duration::from_millis(50));
                let rerun = stat(&mut client, "blocking_retries") - before;
                assert!(
                    rerun < WAITERS / 2,
                    "{engine}: one SET re-ran {rerun} of {WAITERS} parked WAITs"
                );
                assert_eq!(stat(&mut client, "inflight"), WAITERS - 1, "{engine}");

                server.shutdown();
                for waiter in waiters {
                    let outcome = waiter.join().expect("waiter thread");
                    assert!(outcome.is_err(), "{engine}: shutdown ends the other WAITs");
                }
            },
        );
    }
}

/// A poll that panics (here: the engine has no thread slot left, because
/// this test leases them all from outside) closes its own connection and
/// nothing else: the permit comes back, and once slots exist again the
/// next connection is served.
#[test]
fn a_panicking_poll_closes_only_its_connection() {
    run_with_deadline("panicking poll [lsa]", DEADLINE, || {
        const WORKERS: usize = 1;
        let server = ServerHandle::spawn(
            "127.0.0.1:0",
            &ServerConfig::new("lsa").with_workers(WORKERS),
        )
        .expect("spawn server");
        let stm = server.stm();

        // The engine was built with WORKERS + 2 slots; a thread that ran a
        // transaction keeps its slot cached until it exits.
        let (leased, all_leased) = mpsc::channel();
        let hoarders: Vec<_> = (0..WORKERS + 2)
            .map(|_| {
                let (stm, leased) = (stm.clone(), leased.clone());
                let (release, released) = mpsc::channel::<()>();
                let thread = std::thread::spawn(move || {
                    stm.atomically(TxKind::Short, &RetryPolicy::unbounded(), |_| Ok(()))
                        .expect("empty transaction");
                    leased.send(()).expect("report the lease");
                    let _ = released.recv();
                });
                (thread, release)
            })
            .collect();
        for _ in &hoarders {
            all_leased.recv().expect("hoarder leased a slot");
        }
        assert_eq!(stm.leased_contexts(), WORKERS + 2);

        let mut victim = Client::connect(server.addr()).expect("connect victim");
        assert!(
            victim.add(b"k", 1).is_err(),
            "a request whose poll panicked gets no reply, its connection closes"
        );
        assert_eq!(
            server.free_permits(),
            WORKERS,
            "the permit survived the panic"
        );

        for (thread, release) in hoarders {
            drop(release);
            thread.join().expect("hoarder thread");
        }
        assert_eq!(
            stm.leased_contexts(),
            0,
            "exited threads returned their slots"
        );
        let mut next = Client::connect(server.addr()).expect("connect next");
        assert_eq!(next.add(b"k", 1).expect("served again"), 1);
        assert_eq!(server.free_permits(), WORKERS);
        assert_eq!(stm.leased_contexts(), 0);
        server.shutdown();
    });
}

/// Shutdown with parked `WAIT`s — unbounded ones and one sleeping toward
/// a 30 s deadline — while a request deadline is configured: `shutdown()`
/// returns within the suite's usual bound and no waiter is left hanging.
#[test]
fn shutdown_does_not_wait_for_parked_deadlines() {
    run_with_deadline("shutdown with parked WAITs [z]", DEADLINE, || {
        let mut config = ServerConfig::new("z").with_workers(1);
        config.limits = Limits {
            request_deadline: Some(Duration::from_secs(30)),
            ..Limits::default()
        };
        let server = ServerHandle::spawn("127.0.0.1:0", &config).expect("spawn server");
        let addr = server.addr();
        let waiters: Vec<_> = [None, None, Some(30_000)]
            .into_iter()
            .map(|deadline_ms| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("waiter connect");
                    match deadline_ms {
                        None => client.request(&[b"WAIT", b"never", b"comes"]),
                        Some(ms) => client.wait_deadline(b"never", b"comes", ms),
                    }
                })
            })
            .collect();
        let mut client = Client::connect(addr).expect("connect");
        eventually("three WAITs parked", || {
            stat(&mut client, "waker_parks") >= 3
        });
        assert_eq!(client.add(b"k", 1).expect("served under the deadline"), 1);

        let started = Instant::now();
        server.shutdown();
        let drain = started.elapsed();
        assert!(drain < Duration::from_secs(10), "shutdown took {drain:?}");
        for waiter in waiters {
            // The shutdown error when its write wins the race with the
            // socket teardown, a dead connection otherwise — never `+OK`,
            // never a hang.
            if let Ok(reply) = waiter.join().expect("waiter thread") {
                assert_eq!(reply, Reply::error("ERR server shutting down"));
            }
        }
    });
}
