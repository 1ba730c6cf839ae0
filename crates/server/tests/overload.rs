//! Overload-protection integration tests: admission control, the
//! connection cap, deadlines, the retry budget and shutdown under
//! pressure — the `Limits` layer of `crates/server/src/server.rs`,
//! exercised over real TCP against the acceptance shapes of PROTOCOL.md
//! §6. The closed-loop load comes from `workload::run_server`.

use std::time::{Duration, Instant};

use zstm_core::RetryPolicy;
use zstm_server::client::Client;
use zstm_server::command::decode_i64;
use zstm_server::frame::Reply;
use zstm_server::registry::ENGINE_NAMES;
use zstm_server::server::{Limits, ServerConfig, ServerHandle};
use zstm_server::workload::{run_server, ServerReport, ServerWorkloadConfig};
use zstm_util::{run_window, run_with_deadline};

/// Limit for the cases that drive threads: a hang fails with their name.
const HANG: Duration = Duration::from_secs(120);

/// Generous slack for "the deadline fired, plus processing": CI boxes
/// stall, but a deadline that takes this long is a hang, not a timeout.
const DEADLINE_SLACK: Duration = Duration::from_secs(5);

/// Whether more than one hardware thread runs: attempts only meet at a
/// slot (or in a conflict) when two threads run at once.
fn parallel() -> bool {
    std::thread::available_parallelism().map_or(1, usize::from) > 1
}

fn error_text(reply: &Reply) -> &str {
    match reply {
        Reply::Error(text) => text,
        other => panic!("expected an error reply, got {other:?}"),
    }
}

/// The acceptance shape: against a tight server (one worker, one
/// admission slot), 10× the offered load of the single-client baseline
/// must be answered — a healthy share of `BUSY` sheds — while goodput
/// stays within a constant factor of the baseline instead of collapsing
/// with queueing delay. Conservation must hold at both load levels.
#[test]
fn ten_x_offered_load_sheds_busy_and_keeps_goodput() {
    run_with_deadline("10x offered load [lsa]", HANG, || {
        let baseline = run_server(&ServerWorkloadConfig::tight(1, 1));
        assert!(baseline.conserved, "baseline must conserve");
        assert!(baseline.committed > 0, "baseline must commit transfers");

        let overloaded = run_server(&ServerWorkloadConfig::tight(10, 1));
        assert!(overloaded.conserved, "overloaded run must conserve");
        // On one CPU a transaction runs start to end on its connection
        // thread and the excess waits in the run queue, not at the
        // admission slot, so there is nothing to shed;
        // `stats_reports_overload_counters` covers the `BUSY` path without
        // needing an overlap.
        if parallel() {
            // The share of offered transfers answered `BUSY` or `TIMEOUT`.
            let shed_share = |report: &ServerReport| {
                (report.busy + report.timeouts) as f64 / report.offered.max(1) as f64
            };
            assert!(
                overloaded.busy > 0,
                "10 clients against one admission slot must see BUSY replies \
             (offered {}, committed {})",
                overloaded.offered,
                overloaded.committed
            );
            assert!(
                shed_share(&overloaded) > shed_share(&baseline),
                "the shed share must grow with offered load ({} vs baseline {})",
                shed_share(&overloaded),
                shed_share(&baseline)
            );
        }
        // "Flat" within a constant factor: shedding keeps the admitted slot
        // productive, so goodput must not collapse the way an unbounded
        // queue's would. The floor is deliberately loose — 10 client threads
        // also fight the server for cores on a small CI box.
        assert!(
            overloaded.rps >= baseline.rps * 0.15,
            "goodput collapsed under overload: {:.0}/s at 10 clients vs {:.0}/s at 1",
            overloaded.rps,
            baseline.rps
        );
    });
}

/// The retry budget: at width 4 with one attempt per transaction, eight
/// connections adding to one hot key make transactions conflict, and each
/// conflict is answered `BUSY` with its abort reason. An exhausted attempt
/// leaves nothing behind, and `STATS` counts each one. Where two threads
/// run at once, 300 ms windows repeat until the first `BUSY`: a box on
/// which two `ADD`s never overlap fails on the deadline.
#[test]
fn an_exhausted_retry_budget_answers_busy_and_leaves_nothing_behind() {
    run_with_deadline("retry budget [lsa]", HANG, || {
        let mut config = ServerConfig::new("lsa").with_workers(4);
        config.limits.retry_budget = RetryPolicy::default().with_max_attempts(1);
        let server = ServerHandle::spawn("127.0.0.1:0", &config).expect("spawn server");
        let addr = server.addr();
        let (mut added, mut busy) = (0i64, 0u64);
        loop {
            let (tallies, _) = run_window(8, Duration::from_millis(300), |_, window| {
                let mut client = Client::connect(addr).expect("connect");
                let (mut added, mut busy) = (0i64, 0u64);
                while window.is_open() {
                    match client.request(&[b"ADD", b"hot", b"1"]).expect("ADD reply") {
                        Reply::Int(_) => added += 1,
                        Reply::Error(text)
                            if text.starts_with(
                                "BUSY retry budget exhausted after 1 attempts (last abort: ",
                            ) =>
                        {
                            busy += 1
                        }
                        other => panic!("unexpected reply to ADD: {other:?}"),
                    }
                }
                (added, busy)
            });
            added += tallies.iter().map(|&(added, _)| added).sum::<i64>();
            busy += tallies.iter().map(|&(_, busy)| busy).sum::<u64>();
            if busy > 0 || !parallel() {
                break;
            }
        }

        let mut client = Client::connect(addr).expect("connect auditor");
        let hot = client.get(b"hot").expect("GET hot").expect("hot exists");
        assert_eq!(decode_i64(&hot), Some(added), "only committed ADDs count");
        let stats = match client.request(&[b"STATS"]).expect("STATS reply") {
            Reply::Value(bytes) => String::from_utf8(bytes).expect("STATS is ASCII"),
            other => panic!("STATS must answer a value, got {other:?}"),
        };
        assert!(
            stats.contains(&format!("retries_exhausted={busy} ")),
            "{busy} BUSY replies, got: {stats}"
        );
        server.shutdown();
    });
}

/// `WAIT key expected deadline-ms` on a key that never receives the
/// value: every engine answers `TIMEOUT wait deadline exceeded` no
/// earlier than the deadline and within deadline + slack, and the
/// connection stays usable afterwards.
#[test]
fn wait_deadline_times_out_on_every_engine() {
    for engine in ENGINE_NAMES {
        let server = ServerHandle::spawn("127.0.0.1:0", &ServerConfig::new(engine))
            .unwrap_or_else(|e| panic!("spawn {engine}: {e}"));
        let mut client = Client::connect(server.addr()).expect("connect");
        let deadline = Duration::from_millis(80);
        let started = Instant::now();
        let reply = client
            .wait_deadline(b"never-written", b"x", deadline.as_millis() as u64)
            .expect("WAIT with deadline must get a reply");
        let elapsed = started.elapsed();
        assert_eq!(
            error_text(&reply),
            "TIMEOUT wait deadline exceeded",
            "{engine}: reply"
        );
        // Allow a little clock fuzz below the nominal deadline, none of
        // it structural: the timer only fires at-or-after the deadline.
        assert!(
            elapsed >= deadline - Duration::from_millis(10),
            "{engine}: timed out after only {elapsed:?}"
        );
        assert!(
            elapsed <= deadline + DEADLINE_SLACK,
            "{engine}: deadline took {elapsed:?} — that is a hang, not a timeout"
        );
        client
            .ping()
            .unwrap_or_else(|e| panic!("{engine}: connection must stay usable after TIMEOUT: {e}"));
        server.shutdown();
    }
}

/// A `WAIT` whose condition is satisfied before the deadline replies
/// `+OK` like an unbounded one — the deadline is a bound, not a delay.
#[test]
fn wait_deadline_still_wakes_on_matching_commit() {
    run_with_deadline("bounded WAIT wakes on commit [lsa]", HANG, || {
        let server =
            ServerHandle::spawn("127.0.0.1:0", &ServerConfig::new("lsa")).expect("spawn server");
        let addr = server.addr();
        let waiter = std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let started = Instant::now();
            let reply = client
                .wait_deadline(b"door", b"open", 10_000)
                .expect("WAIT reply");
            (reply, started.elapsed())
        });
        std::thread::sleep(Duration::from_millis(40));
        let mut writer = Client::connect(addr).expect("connect writer");
        writer.set(b"door", b"open").expect("matching SET");
        let (reply, elapsed) = waiter.join().expect("waiter thread");
        assert!(
            matches!(&reply, Reply::Status(s) if s == "OK"),
            "a satisfied bounded WAIT replies OK, got {reply:?}"
        );
        assert!(
            elapsed < Duration::from_secs(5),
            "the wake must come from the commit, not the 10 s deadline (took {elapsed:?})"
        );
        server.shutdown();
    });
}

/// The connection cap: past `max_connections` a new socket gets one
/// `BUSY max connections reached` goodbye and is closed; when an
/// admitted connection leaves, its slot is reusable.
#[test]
fn connection_cap_sheds_then_recycles_the_slot() {
    let mut config = ServerConfig::new("lsa");
    config.limits.max_connections = 2;
    let server = ServerHandle::spawn("127.0.0.1:0", &config).expect("spawn server");

    let mut first = Client::connect(server.addr()).expect("connect 1");
    let mut second = Client::connect(server.addr()).expect("connect 2");
    first.ping().expect("admitted connection 1 serves");
    second.ping().expect("admitted connection 2 serves");

    // The third connection is shed: the accept loop answers the goodbye
    // frame without reading, so the PING is never looked at.
    let mut shed = Client::connect(server.addr()).expect("TCP connect still succeeds");
    let reply = shed.request(&[b"PING"]).expect("read the goodbye frame");
    assert_eq!(error_text(&reply), "BUSY max connections reached");
    assert!(
        shed.read_reply().is_err(),
        "the shed connection must be closed after its goodbye"
    );

    // Free one slot and the next connection must (eventually — the
    // server notices the close asynchronously) be admitted again.
    drop(first.into_stream());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut retry = Client::connect(server.addr()).expect("reconnect");
        match retry.ping() {
            Ok(()) => break,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => panic!("freed connection slot was never recycled: {e}"),
        }
    }
    server.shutdown();
}

/// Admission control feeds the `STATS` counters: with a zero in-flight
/// budget every data command is refused, and the reply line reports the
/// `busy` count and an empty gauge.
#[test]
fn stats_reports_overload_counters() {
    let mut config = ServerConfig::new("lsa");
    config.limits.max_inflight_tx = 0;
    let server = ServerHandle::spawn("127.0.0.1:0", &config).expect("spawn server");
    let mut client = Client::connect(server.addr()).expect("connect");

    let reply = client.request(&[b"ADD", b"k", b"1"]).expect("ADD reply");
    assert_eq!(error_text(&reply), "BUSY too many in-flight transactions");

    let stats = match client.request(&[b"STATS"]).expect("STATS reply") {
        Reply::Value(bytes) => String::from_utf8(bytes).expect("STATS is ASCII"),
        other => panic!("STATS must stay available under admission pressure, got {other:?}"),
    };
    assert!(
        stats.contains("busy=1"),
        "one admission rejection must be counted, got: {stats}"
    );
    assert!(
        stats.contains("inflight=0"),
        "nothing was admitted, got: {stats}"
    );
    assert!(
        stats.contains("conns_shed=0") && stats.contains("timeouts=0"),
        "untouched counters stay zero, got: {stats}"
    );
    server.shutdown();
}

/// A slow consumer — pipelining large-reply requests without ever
/// reading — must be disconnected by the write timeout instead of
/// parking a connection thread on a full send buffer forever, and the
/// server must keep serving everyone else.
#[test]
fn write_timeout_disconnects_a_slow_consumer() {
    run_with_deadline("slow consumer is cut [lsa]", HANG, || {
        let mut config = ServerConfig::new("lsa");
        config.limits.write_timeout = Some(Duration::from_millis(100));
        let server = ServerHandle::spawn("127.0.0.1:0", &config).expect("spawn server");

        let mut slow = Client::connect(server.addr()).expect("connect slow consumer");
        slow.set_timeout(Some(Duration::from_secs(20)))
            .expect("timeout");
        let big = vec![0x5Au8; 512 * 1024];
        slow.set(b"big", &big).expect("seed the large value");

        // Pipeline GETs without reading: the replies (64 × 512 KiB) vastly
        // exceed the kernel buffers, so the server's writer blocks and the
        // write timeout must cut the connection.
        let started = Instant::now();
        for _ in 0..64 {
            if slow
                .send_raw(&zstm_server::frame::encode_request(&[b"GET", b"big"]))
                .is_err()
            {
                break; // server already closed on us mid-pipeline — fine
            }
        }
        // Be genuinely slow: stay away from the socket long enough for the
        // server's blocked write to hit its 100 ms timeout.
        std::thread::sleep(Duration::from_millis(600));
        // Drain what arrived: the cut must surface as an error/EOF before
        // all 64 replies, in bounded time.
        let mut delivered = 0usize;
        while slow.read_reply().is_ok() {
            delivered += 1;
            assert!(delivered < 64, "all replies arrived — nothing was cut");
        }
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "the slow consumer must be cut by the write timeout, not served to completion"
        );

        let mut healthy = Client::connect(server.addr()).expect("connect healthy client");
        healthy
            .ping()
            .expect("the server must outlive its slow consumer");
        server.shutdown();
    });
}

/// Replies are gathered per batch but never held back across a block: a
/// client that pipelines `SET a 1; WAIT b 1` in one write sees the `SET`
/// answered while the `WAIT` is still parked.
#[test]
fn a_reply_is_not_held_back_by_the_wait_behind_it() {
    run_with_deadline("SET answered before WAIT parks [lsa]", HANG, || {
        let server =
            ServerHandle::spawn("127.0.0.1:0", &ServerConfig::new("lsa")).expect("spawn server");
        let mut client = Client::connect(server.addr()).expect("connect");
        client
            .set_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let mut batch = zstm_server::frame::encode_request(&[b"SET", b"a", b"1"]);
        batch.extend(zstm_server::frame::encode_request(&[b"WAIT", b"b", b"1"]));
        client.send_raw(&batch).expect("send both in one write");
        // Nothing has written `b` yet, so this reply can only be the SET's
        // (a held-back one would time the read out instead).
        assert_eq!(
            client.read_reply().expect("the SET's reply arrives first"),
            Reply::status("OK")
        );
        let mut writer = Client::connect(server.addr()).expect("connect writer");
        writer.set(b"b", b"1").expect("satisfy the WAIT");
        assert_eq!(
            client.read_reply().expect("the WAIT's reply"),
            Reply::status("OK")
        );
        server.shutdown();
    });
}

/// Shutdown under pressure, every engine: with parked `WAIT`s holding
/// in-flight slots and connections abandoned mid-`MULTI`, `shutdown()`
/// must still drain in bounded time, resolve every waiter with the
/// shutdown error, and leave the store conserved.
#[test]
fn shutdown_under_pressure_drains_bounded_and_conserves() {
    for engine in ENGINE_NAMES {
        run_with_deadline(
            &format!("shutdown under pressure [{engine}]"),
            HANG,
            move || {
                let mut config = ServerConfig::new(engine).with_workers(2);
                config.limits = Limits {
                    // Tight enough to matter (parked WAITs occupy most of the
                    // gauge), loose enough that the transfer clients still run.
                    max_inflight_tx: 12,
                    ..Limits::default()
                };
                let server = ServerHandle::spawn("127.0.0.1:0", &config)
                    .unwrap_or_else(|e| panic!("spawn {engine}: {e}"));
                let addr = server.addr();

                // Pressure, part 1: eight connections parked in WAIT on a key
                // that never matches.
                let waiters: Vec<_> = (0..8)
                    .map(|_| {
                        std::thread::spawn(move || {
                            let mut client = Client::connect(addr).expect("waiter connect");
                            client.wait(b"never", b"comes")
                        })
                    })
                    .collect();

                // Pressure, part 2: real committed transfers, so conservation is
                // non-trivial...
                for c in 0..3 {
                    let mut client = Client::connect(addr).expect("transfer connect");
                    for i in 0..5 {
                        let from = format!("p{}", (c + i) % 4).into_bytes();
                        let to = format!("p{}", (c + i + 1) % 4).into_bytes();
                        client
                            .multi_exec(&[
                                vec![b"ADD".to_vec(), from, b"-1".to_vec()],
                                vec![b"ADD".to_vec(), to, b"1".to_vec()],
                            ])
                            .expect("transfer");
                    }
                }
                // ...part 3: connections abandoned mid-MULTI, each holding half
                // a transfer that must never execute.
                let mut abandoned = Vec::new();
                for _ in 0..4 {
                    let mut client = Client::connect(addr).expect("doomed connect");
                    client.request(&[b"MULTI"]).expect("MULTI");
                    client.request(&[b"ADD", b"p0", b"-100"]).expect("queue");
                    abandoned.push(client); // kept open across the shutdown
                }

                std::thread::sleep(Duration::from_millis(50)); // let the WAITs park
                assert_eq!(
                    server.sum_keys(b"p").expect("integer balances"),
                    0,
                    "{engine}: transfers must conserve before shutdown"
                );

                let started = Instant::now();
                server.shutdown();
                let drain = started.elapsed();
                assert!(
                    drain < Duration::from_secs(10),
                    "{engine}: shutdown under pressure took {drain:?}"
                );
                for waiter in waiters {
                    let outcome = waiter.join().expect("waiter thread");
                    assert!(
                        outcome.is_err(),
                        "{engine}: a shutdown-resolved WAIT must error, got {outcome:?}"
                    );
                }
                drop(abandoned);
            },
        );
    }
}
