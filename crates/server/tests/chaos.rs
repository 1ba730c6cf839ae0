//! Fault-injection integration tests: connections torn down by the
//! [`ChaosSocket`](zstm_server::socket::ChaosSocket) — or dropped by the
//! client on purpose — must never break transaction atomicity.
//!
//! The invariant is the bank workload's: every transfer is `MULTI [ADD
//! from -1; ADD to +1] EXEC`, so the sum over all keys is zero at every
//! committed point, no matter where in the protocol a connection dies.

use std::time::Duration;

use zstm_server::client::Client;
use zstm_server::registry::ENGINE_NAMES;
use zstm_server::server::{ServerConfig, ServerHandle};
use zstm_server::socket::ChaosConfig;
use zstm_server::workload::{run_server, ServerReport, ServerWorkloadConfig};
use zstm_util::run_with_deadline;

/// `run_server` under a deadline: its client threads retry through torn
/// connections, so a wedged server would otherwise hang the suite. The
/// servers here have no limits, and a torn link is not overload: no reply
/// may be `BUSY` or `TIMEOUT` (PROTOCOL.md §6).
fn run_bounded(name: &str, config: ServerWorkloadConfig) -> ServerReport {
    let report = run_with_deadline(name, Duration::from_secs(120), move || run_server(&config));
    assert_eq!(
        (report.busy, report.timeouts),
        (0, 0),
        "{name}: an unlimited server answered overload replies"
    );
    report
}

/// A client that dies holding a `MULTI` queue has executed nothing: the
/// queued half-transfer must not leak into the store. Deterministic (no
/// chaos): the client itself drops the link mid-transaction.
#[test]
fn dropped_connection_mid_multi_rolls_back() {
    for engine in ENGINE_NAMES {
        let server = ServerHandle::spawn("127.0.0.1:0", &ServerConfig::new(engine))
            .unwrap_or_else(|e| panic!("spawn {engine}: {e}"));

        // Seed two balances through a connection that survives.
        let mut setup = Client::connect(server.addr()).expect("connect");
        assert_eq!(setup.add(b"a", 100).expect("seed a"), 100);
        assert_eq!(setup.add(b"b", 100).expect("seed b"), 100);

        // Queue half a transfer, then vanish without EXEC.
        let mut doomed = Client::connect(server.addr()).expect("connect doomed");
        doomed.request(&[b"MULTI"]).expect("MULTI");
        doomed
            .request(&[b"ADD", b"a", b"-100"])
            .expect("queue debit");
        drop(doomed.into_stream());

        // The debit must not have executed: both balances intact.
        assert_eq!(setup.add(b"a", 0).expect("audit a"), 100, "{engine}: a");
        assert_eq!(setup.add(b"b", 0).expect("audit b"), 100, "{engine}: b");
        server.shutdown();
    }
}

/// Under hostile chaos (short reads, 3 % per-op connection drops) every
/// engine — and a certified wrapper — must keep the transfer sum at
/// zero. Connections die mid-frame, mid-`MULTI`, and between `EXEC` and
/// its reply; the audit runs over `MULTI GET`s so it is itself atomic.
#[test]
fn hostile_chaos_conserves_on_every_engine() {
    for engine in ENGINE_NAMES {
        let mut config = ServerWorkloadConfig::quick(3);
        config.server = ServerConfig::new(engine).with_chaos(ChaosConfig::hostile(0xC4A0 + 7));
        config.duration = Duration::from_millis(120);
        let report = run_bounded(&format!("hostile chaos [{engine}]"), config);
        assert!(
            report.conserved,
            "{engine}: chaos broke conservation ({} commits, {} reconnects)",
            report.committed, report.reconnects
        );
        assert!(
            report.reconnects > 0,
            "{engine}: hostile chaos should actually tear connections down \
             (got {} commits, 0 reconnects — seed too gentle?)",
            report.committed
        );
    }
}

/// The SSI certifier retries certification aborts server-side; chaos on
/// top must still conserve.
#[test]
fn certified_engine_under_chaos_conserves() {
    let mut config = ServerWorkloadConfig::quick(3);
    config.server = ServerConfig::new("cs")
        .with_certified(true)
        .with_chaos(ChaosConfig::hostile(0xBEEF));
    config.duration = Duration::from_millis(120);
    let report = run_bounded("hostile chaos [certified-cs]", config);
    assert!(report.conserved, "certified-cs chaos run must conserve");
    assert_eq!(report.engine, "certified-cs");
}

/// Write-side faults alone: every server-side reply pays a delay and a
/// 5 % per-write stall. Slower, but still correct — transfers conserve
/// and the suite still tears nothing down (stalls are not drops).
#[test]
fn write_faults_slow_replies_but_conserve() {
    let chaos = ChaosConfig {
        write_delay: Duration::from_micros(200),
        write_stall_permille: 50,
        write_stall: Duration::from_millis(2),
        ..ChaosConfig::quiet(0x57F0)
    };
    let mut config = ServerWorkloadConfig::quick(3);
    config.server = ServerConfig::new("lsa").with_chaos(chaos);
    config.duration = Duration::from_millis(120);
    let report = run_bounded("write faults [lsa]", config);
    assert!(
        report.conserved,
        "write-side chaos broke conservation ({} commits)",
        report.committed
    );
    assert!(
        report.committed > 0,
        "write faults slow the link, they must not stop it"
    );
}

/// Short reads alone (no drops): every frame arrives a few bytes at a
/// time and everything still works, at full fidelity.
#[test]
fn byte_dribble_still_serves_correctly() {
    let chaos = ChaosConfig {
        short_read_max: 2,
        ..ChaosConfig::quiet(11)
    };
    let server = ServerHandle::spawn("127.0.0.1:0", &ServerConfig::new("z").with_chaos(chaos))
        .expect("spawn");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.set(b"k", b"v").expect("SET");
    assert_eq!(client.get(b"k").expect("GET"), Some(b"v".to_vec()));
    let replies = client
        .multi_exec(&[
            vec![b"ADD".to_vec(), b"x".to_vec(), b"-7".to_vec()],
            vec![b"ADD".to_vec(), b"y".to_vec(), b"7".to_vec()],
        ])
        .expect("EXEC");
    assert_eq!(replies.len(), 2);
    server.shutdown();
}
