//! Connection churn must not leak file descriptors: the acceptor keeps a
//! raw handle per connection only while that connection lives. A file of
//! its own, because it counts the whole process's descriptors and a test
//! running in parallel would move the count.

#![cfg(target_os = "linux")]

use std::time::Duration;

use zstm_server::client::Client;
use zstm_server::frame::Reply;
use zstm_server::server::{ServerConfig, ServerHandle};
use zstm_util::run_with_deadline;

const CYCLES: usize = 300;

/// Descriptors a few still-running connection threads may hold when the
/// churn ends (pruning happens at the next admission).
const SLACK: usize = 8;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .count()
}

#[test]
fn closed_connections_give_their_descriptors_back() {
    run_with_deadline("connect/QUIT churn [lsa]", Duration::from_secs(60), || {
        let server =
            ServerHandle::spawn("127.0.0.1:0", &ServerConfig::new("lsa")).expect("spawn server");
        let before = open_fds();
        for i in 0..CYCLES {
            let mut client = Client::connect(server.addr()).expect("connect");
            let reply = client.request(&[b"QUIT"]).expect("QUIT reply");
            assert!(
                matches!(&reply, Reply::Status(s) if s == "OK"),
                "QUIT {i}: {reply:?}"
            );
        }
        let after = open_fds();
        assert!(
            after <= before + SLACK,
            "{CYCLES} closed connections left {} descriptors open ({before} -> {after})",
            after.saturating_sub(before)
        );
        server.shutdown();
    });
}
