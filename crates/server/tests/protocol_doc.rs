//! PROTOCOL.md conformance: every ` ```wire ` block in the spec is
//! replayed byte-for-byte against a real server.
//!
//! Each block runs on its own freshly spawned `lsa` server and its own
//! connection; a `>>` line group is sent verbatim in one write (several
//! lines are a pipelined batch), and the subsequent `<<` group must come
//! back **exactly** — if the spec's hex and the
//! server's bytes ever diverge, this test fails with both sides printed,
//! and one of them has to change.
//!
//! A fence may carry `key=value` options (` ```wire max-inflight=0 `):
//! the block's server is spawned with the matching
//! [`Limits`](zstm_server::server::Limits), so the spec's overload
//! replies (`BUSY`, `TIMEOUT`) are executable too. A block may open with
//! a bare `<<` group — a frame the server sends unprompted (the
//! accept-shed goodbye).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use zstm_server::server::{ServerConfig, ServerHandle};

/// One request→reply exchange from a wire block. `send` is empty for an
/// unprompted server frame (a block opening with `<<`).
struct Step {
    line: usize,
    send: Vec<u8>,
    expect: Vec<u8>,
}

/// A ` ```wire ` block: its starting line, its fence options and its
/// steps, in order.
struct Block {
    line: usize,
    options: Vec<(String, String)>,
    steps: Vec<Step>,
}

fn decode_hex(line_no: usize, hex: &str) -> Vec<u8> {
    let compact: String = hex.split_whitespace().collect();
    assert!(
        compact.len() % 2 == 0 && !compact.is_empty(),
        "PROTOCOL.md line {line_no}: hex must have an even number of digits: {hex:?}"
    );
    (0..compact.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(&compact[i..i + 2], 16)
                .unwrap_or_else(|_| panic!("PROTOCOL.md line {line_no}: bad hex digit in {hex:?}"))
        })
        .collect()
}

fn parse_blocks(doc: &str) -> Vec<Block> {
    let mut blocks = Vec::new();
    let mut current: Option<Block> = None;
    for (i, raw) in doc.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if let Some(fence) = line.strip_prefix("```wire") {
            if fence.is_empty() || fence.starts_with(' ') {
                assert!(current.is_none(), "line {line_no}: nested wire block");
                let options = fence
                    .split_whitespace()
                    .map(|pair| {
                        let (key, value) = pair.split_once('=').unwrap_or_else(|| {
                            panic!("line {line_no}: fence option {pair:?} is not key=value")
                        });
                        (key.to_string(), value.to_string())
                    })
                    .collect();
                current = Some(Block {
                    line: line_no,
                    options,
                    steps: Vec::new(),
                });
                continue;
            }
        }
        let Some(block) = current.as_mut() else {
            continue;
        };
        if line == "```" {
            blocks.push(current.take().expect("checked Some"));
            continue;
        }
        if let Some(hex) = line.strip_prefix(">>") {
            let bytes = decode_hex(line_no, hex);
            match block.steps.last_mut() {
                // Consecutive `>>` lines are one write: a pipelined batch.
                Some(step) if step.expect.is_empty() => step.send.extend(bytes),
                _ => block.steps.push(Step {
                    line: line_no,
                    send: bytes,
                    expect: Vec::new(),
                }),
            }
        } else if let Some(hex) = line.strip_prefix("<<") {
            if block.steps.is_empty() {
                // An unprompted server frame: the block opens with the
                // reply (nothing is sent first).
                block.steps.push(Step {
                    line: line_no,
                    send: Vec::new(),
                    expect: Vec::new(),
                });
            }
            let step = block.steps.last_mut().expect("pushed above");
            step.expect.extend(decode_hex(line_no, hex));
        } else if !line.is_empty() {
            panic!("line {line_no}: wire blocks hold only >>/<< lines, got {line:?}");
        }
    }
    assert!(current.is_none(), "unterminated wire block");
    blocks
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn every_wire_block_matches_the_server_byte_for_byte() {
    let doc = include_str!("../../../PROTOCOL.md");
    let blocks = parse_blocks(doc);
    assert!(
        blocks.len() >= 6,
        "the spec should keep a healthy number of executable examples, found {}",
        blocks.len()
    );
    for block in blocks {
        let mut config = ServerConfig::new("lsa");
        for (key, value) in &block.options {
            match key.as_str() {
                "max-inflight" => {
                    config.limits.max_inflight_tx = value.parse().unwrap_or_else(|_| {
                        panic!("PROTOCOL.md line {}: max-inflight={value:?}", block.line)
                    })
                }
                "max-conns" => {
                    config.limits.max_connections = value.parse().unwrap_or_else(|_| {
                        panic!("PROTOCOL.md line {}: max-conns={value:?}", block.line)
                    })
                }
                other => panic!(
                    "PROTOCOL.md line {}: unknown fence option {other:?}",
                    block.line
                ),
            }
        }
        let server = ServerHandle::spawn("127.0.0.1:0", &config).expect("spawn server");
        let mut conn = TcpStream::connect(server.addr()).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(10))).ok();
        for step in &block.steps {
            assert!(
                !step.expect.is_empty(),
                "PROTOCOL.md line {}: >> without a << reply",
                step.line
            );
            conn.write_all(&step.send).expect("send request bytes");
            let mut actual = vec![0u8; step.expect.len()];
            conn.read_exact(&mut actual).unwrap_or_else(|e| {
                panic!(
                    "PROTOCOL.md line {} (block at line {}): reply truncated: {e}",
                    step.line, block.line
                )
            });
            assert_eq!(
                hex(&actual),
                hex(&step.expect),
                "PROTOCOL.md line {} (block at line {}): reply bytes diverge from the spec",
                step.line,
                block.line
            );
        }
        server.shutdown();
    }
}
