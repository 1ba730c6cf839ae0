//! End-to-end: the acceptance shape from the issue — concurrent TCP
//! clients executing `MULTI`…`EXEC` against each of the five engines,
//! selected at runtime, with more connections than execution width.
//! Cases that drive threads run under `run_with_deadline`.

use std::sync::Arc;
use std::time::Duration;

use zstm_core::{AbortReason, TxKind};
use zstm_server::client::Client;
use zstm_server::command::MAX_MULTI;
use zstm_server::frame::{encode_request, Reply};
use zstm_server::registry::ENGINE_NAMES;
use zstm_server::server::{ServerConfig, ServerHandle};
use zstm_util::run_with_deadline;

const DEADLINE: Duration = Duration::from_secs(60);

/// Every engine, execution width two, six concurrent client connections
/// (plus a parked waiter — seven transactions over two permits): 20
/// transfers each, then an atomic audit must sum to zero.
#[test]
fn five_engines_serve_concurrent_multi_exec() {
    for engine in ENGINE_NAMES {
        run_with_deadline(
            &format!("concurrent MULTI/EXEC [{engine}]"),
            DEADLINE,
            move || {
                let server =
                    ServerHandle::spawn("127.0.0.1:0", &ServerConfig::new(engine).with_workers(2))
                        .unwrap_or_else(|e| panic!("spawn {engine}: {e}"));
                let addr = server.addr();

                // One connection parks in WAIT for the whole test: it must not
                // occupy a permit, or the six transfer clients would starve.
                let waiter = std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("waiter connect");
                    client.wait(b"finish", b"now").is_ok()
                });

                let clients: Vec<_> = (0..6)
                    .map(|c| {
                        std::thread::spawn(move || {
                            let mut client = Client::connect(addr).expect("connect");
                            for i in 0..20 {
                                let from = format!("k{}", (c + i) % 8).into_bytes();
                                let to = format!("k{}", (c + i + 1) % 8).into_bytes();
                                let replies = client
                                    .multi_exec(&[
                                        vec![b"ADD".to_vec(), from, b"-1".to_vec()],
                                        vec![b"ADD".to_vec(), to, b"1".to_vec()],
                                    ])
                                    .expect("transfer EXEC");
                                assert_eq!(replies.len(), 2);
                            }
                        })
                    })
                    .collect();
                for client in clients {
                    client.join().expect("client thread");
                }

                let mut audit = Client::connect(addr).expect("audit connect");
                let gets: Vec<Vec<Vec<u8>>> = (0..8)
                    .map(|i| vec![b"GET".to_vec(), format!("k{i}").into_bytes()])
                    .collect();
                let sum: i64 = audit
                    .multi_exec(&gets)
                    .expect("audit EXEC")
                    .into_iter()
                    .map(|reply| match reply {
                        zstm_server::frame::Reply::Value(bytes) => {
                            zstm_server::command::decode_i64(&bytes).expect("integer value")
                        }
                        zstm_server::frame::Reply::Nil => 0,
                        other => panic!("{engine}: audit got {other:?}"),
                    })
                    .sum();
                assert_eq!(sum, 0, "{engine}: transfers must conserve");

                audit.set(b"finish", b"now").expect("release waiter");
                assert!(waiter.join().expect("waiter thread"), "{engine}: waiter");
                server.shutdown();
            },
        );
    }
}

/// `WAIT` semantics end-to-end: blocks past a non-matching write, wakes
/// on the matching one.
#[test]
fn wait_wakes_on_matching_commit_only() {
    run_with_deadline("WAIT wakes on the matching commit [lsa]", DEADLINE, || {
        let server =
            ServerHandle::spawn("127.0.0.1:0", &ServerConfig::new("lsa")).expect("spawn server");
        let addr = server.addr();
        let waiter = std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client.wait(b"door", b"open").expect("WAIT");
            // The value is guaranteed to be `open` at some commit the wait
            // observed; read it back (another writer could race, but this
            // test has only one).
            client.get(b"door").expect("GET after WAIT")
        });
        let mut writer = Client::connect(addr).expect("connect");
        std::thread::sleep(Duration::from_millis(30));
        writer.set(b"door", b"ajar").expect("non-matching SET");
        std::thread::sleep(Duration::from_millis(30));
        assert!(!waiter.is_finished(), "WAIT must not wake on `ajar`");
        writer.set(b"door", b"open").expect("matching SET");
        assert_eq!(waiter.join().expect("waiter"), Some(b"open".to_vec()));
        server.shutdown();
    });
}

/// Shutdown resolves parked waiters with an error instead of hanging
/// them (and `shutdown()` itself must not deadlock on a parked future).
#[test]
fn shutdown_releases_parked_waiters() {
    run_with_deadline("shutdown releases parked WAITs [tl2]", DEADLINE, || {
        let server =
            ServerHandle::spawn("127.0.0.1:0", &ServerConfig::new("tl2")).expect("spawn server");
        let addr = server.addr();
        let waiter = std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client.wait(b"never", b"comes")
        });
        std::thread::sleep(Duration::from_millis(50));
        server.shutdown();
        let outcome = waiter.join().expect("waiter thread");
        assert!(
            outcome.is_err(),
            "a shutdown-resolved WAIT must surface as an error, got {outcome:?}"
        );
    });
}

/// `EXEC` bodies larger than the threshold run as the paper's *long*
/// transaction kind — observable in the engine's statistics.
#[test]
fn large_exec_bodies_run_as_long_transactions() {
    let server = ServerHandle::spawn("127.0.0.1:0", &ServerConfig::new("z")).expect("spawn server");
    let stm: Arc<dyn zstm_api::DynStm> = server.stm();
    let mut client = Client::connect(server.addr()).expect("connect");
    // Drain whatever the spawn path committed.
    let _ = stm.take_stats();

    let body: Vec<Vec<Vec<u8>>> = (0..6)
        .map(|i| vec![b"ADD".to_vec(), format!("k{i}").into_bytes(), b"1".to_vec()])
        .collect();
    client.multi_exec(&body).expect("long EXEC");
    let short_body: Vec<Vec<Vec<u8>>> = body[..2].to_vec();
    client.multi_exec(&short_body).expect("short EXEC");

    // Connection threads hand their engine context back after every
    // poll, so the harvest sees both transactions; `STATS` (a snapshot)
    // would not have reset them either.
    server.shutdown();
    let stats = stm.take_stats();
    assert_eq!(stats.commits(TxKind::Long), 1, "6 commands > threshold");
    assert_eq!(stats.commits(TxKind::Short), 1, "2 commands <= threshold");
}

/// PROTOCOL.md §4.6: a rejected command poisons its `MULTI` block, so a
/// transfer sent in one write with a malformed half commits nothing — on
/// every engine the sum is conserved and the connection stays in sync.
#[test]
fn a_rejected_command_poisons_its_multi_on_every_engine() {
    for engine in ENGINE_NAMES {
        let server = ServerHandle::spawn("127.0.0.1:0", &ServerConfig::new(engine))
            .unwrap_or_else(|e| panic!("spawn {engine}: {e}"));
        let mut client = Client::connect(server.addr()).expect("connect");
        assert_eq!(client.add(b"a", 100).expect("seed a"), 100);
        assert_eq!(client.add(b"b", -100).expect("seed b"), -100);

        // The debit is well-formed, the credit is not.
        let poisoned = [
            vec![b"ADD".to_vec(), b"a".to_vec(), b"-1".to_vec()],
            vec![b"ADD".to_vec(), b"b".to_vec(), b"x1".to_vec()],
        ];
        let error = client
            .multi_exec(&poisoned)
            .expect_err("a body with a rejected command must not commit");
        assert!(
            error.to_string().contains("delta is not an ASCII i64"),
            "{engine}: the error quotes the first rejected reply, got {error}"
        );
        // All N+2 replies were consumed and the block is closed.
        client
            .ping()
            .expect("connection in sync after a poisoned EXEC");
        assert_eq!(
            client.request(&[b"EXEC"]).expect("EXEC reply"),
            Reply::error("ERR EXEC without MULTI"),
            "{engine}: the poisoned block was closed by its EXEC"
        );

        // The same by hand, reply by reply, with a good command after the
        // bad one and DISCARD as the way out.
        for (request, expected) in [
            (vec![&b"MULTI"[..]], Reply::status("OK")),
            (vec![b"ADD", b"a", b"-1"], Reply::status("QUEUED")),
            (vec![b"NOPE"], Reply::error("ERR unknown command 'NOPE'")),
            (
                vec![b"ADD", b"b", b"1"],
                Reply::error("ERR not queued: an earlier command in this MULTI was rejected"),
            ),
            (vec![b"PING"], Reply::status("PONG")),
            (vec![b"DISCARD"], Reply::status("OK")),
            (vec![b"DISCARD"], Reply::error("ERR DISCARD without MULTI")),
        ] {
            assert_eq!(
                client.request(&request).expect("reply"),
                expected,
                "{engine}"
            );
        }

        // An oversized body, pipelined: the overflow poisons the block
        // instead of dropping it, so the rest of the body is not executed
        // as bare commands either.
        let mut batch = encode_request(&[b"MULTI"]);
        for _ in 0..=MAX_MULTI {
            batch.extend(encode_request(&[b"ADD", b"a", b"-1"]));
        }
        batch.extend(encode_request(&[b"ADD", b"a", b"-1"]));
        batch.extend(encode_request(&[b"EXEC"]));
        client.send_raw(&batch).expect("send the oversized body");
        let replies: Vec<Reply> = (0..MAX_MULTI + 4)
            .map(|_| client.read_reply().expect("one reply per request"))
            .collect();
        let (last, before) = replies.split_last().expect("replies");
        assert_eq!(
            last,
            &Reply::error("ERR EXEC aborted: a queued command was rejected")
        );
        assert_eq!(
            before[MAX_MULTI + 1],
            Reply::error("ERR MULTI body too large")
        );
        assert!(matches!(before.last(), Some(Reply::Error(_))));

        assert_eq!(client.add(b"a", 0).expect("audit a"), 100, "{engine}: a");
        assert_eq!(client.add(b"b", 0).expect("audit b"), -100, "{engine}: b");
        assert_eq!(server.sum_keys(b""), Some(0), "{engine}: conserved");
        server.shutdown();
    }
}

/// `Client::pipeline` is what `multi_exec` and the overload workload
/// are built on: one reply per request, in order; a batch the server cut
/// short ends in its goodbye frame; and `multi_exec` refuses a body the
/// server would refuse before sending a byte.
#[test]
fn pipeline_reads_one_reply_per_request_or_ends_in_the_goodbye() {
    let mut config = ServerConfig::new("lsa");
    config.limits.max_connections = 1;
    let server = ServerHandle::spawn("127.0.0.1:0", &config).expect("spawn server");
    let mut client = Client::connect(server.addr()).expect("connect");

    let replies = client
        .pipeline(&[&[b"SET", b"k", b"v"], &[b"NOPE"], &[b"GET", b"k"]])
        .expect("a whole batch");
    assert_eq!(
        replies,
        [
            Reply::status("OK"),
            Reply::error("ERR unknown command 'NOPE'"),
            Reply::Value(b"v".to_vec()),
        ],
        "an error reply in the middle does not cut the batch"
    );

    let too_long = vec![vec![b"ADD".to_vec(), b"k2".to_vec(), b"1".to_vec()]; MAX_MULTI + 1];
    let error = client.multi_exec(&too_long).expect_err("oversized body");
    assert_eq!(error.kind(), std::io::ErrorKind::InvalidInput);
    assert_eq!(
        client.get(b"k2").expect("nothing was sent, still in sync"),
        None
    );
    let exact = client.multi_exec(&too_long[1..]).expect("MAX_MULTI fits");
    assert_eq!(exact.last(), Some(&Reply::Int(MAX_MULTI as i64)));

    // Past the connection cap the server says why and hangs up without
    // reading: the batch comes back short, ending in that goodbye.
    let mut shed = Client::connect(server.addr()).expect("TCP connect still succeeds");
    let replies = shed
        .pipeline(&[&[b"PING"], &[b"PING"]])
        .expect("the goodbye, not EOF");
    assert_eq!(replies, [Reply::error("BUSY max connections reached")]);
    let error = shed
        .multi_exec(&too_long[..1])
        .expect_err("no connection behind it");
    assert_ne!(error.kind(), std::io::ErrorKind::InvalidInput);
    server.shutdown();
}

/// `STATS` is a snapshot of a live server: it sees every acknowledged
/// commit, two reads in a row agree, it counts aborts by reason (a parked
/// `WAIT` shows as `aborts.retry`), and it takes nothing away from the
/// harvest after shutdown.
#[test]
fn stats_is_live_and_does_not_reset() {
    run_with_deadline("STATS is a live snapshot [cs]", DEADLINE, || {
        let server =
            ServerHandle::spawn("127.0.0.1:0", &ServerConfig::new("cs")).expect("spawn server");
        let stm = server.stm();
        let mut client = Client::connect(server.addr()).expect("connect");
        for i in 0..10 {
            client
                .add(b"counter", 1)
                .unwrap_or_else(|e| panic!("ADD {i}: {e}"));
        }
        let mut scrape = || match client.request(&[b"STATS"]).expect("STATS reply") {
            Reply::Value(line) => String::from_utf8(line).expect("STATS is ASCII"),
            other => panic!("STATS answers a value, got {other:?}"),
        };
        let counter = |line: &str, name: &str| -> u64 {
            line.split_whitespace()
                .find_map(|pair| pair.strip_prefix(name)?.strip_prefix('=')?.parse().ok())
                .unwrap_or_else(|| panic!("no {name} counter in {line}"))
        };
        let (first, second) = (scrape(), scrape());
        assert_eq!(first, second, "reading the counters must not change them");
        let commits = counter(&first, "commits");
        assert!(commits >= 10, "ten acknowledged writes, STATS says {first}");
        // Every abort reason leaves the process: a WAIT that parks is one
        // `retry` abort, visible while it is still parked.
        for reason in AbortReason::ALL {
            counter(&first, &format!("aborts.{}", reason.label()));
        }
        let retries = counter(&first, "aborts.retry");
        let addr = server.addr();
        let waiter = std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client.wait(b"door", b"open").expect("WAIT");
        });
        while counter(&scrape(), "aborts.retry") == retries {
            std::thread::sleep(Duration::from_millis(1));
        }
        client.set(b"door", b"open").expect("matching SET");
        waiter.join().expect("waiter");
        server.shutdown();
        assert!(
            stm.take_stats().total_commits() >= commits,
            "the harvest still covers the server's whole life"
        );
    });
}
