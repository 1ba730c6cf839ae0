//! The malformed/truncated-frame corpus: hand-written hostile inputs,
//! each pinned to the exact [`FrameError`] the spec requires, plus the
//! server-side behavior (one best-effort `-ERR protocol:` reply, then
//! the connection closes and the store is untouched).

use std::io::Read;
use std::time::Duration;

use zstm_server::client::Client;
use zstm_server::frame::{parse_reply, parse_request, FrameError, Parsed, MAX_ARGS, MAX_FRAME};
use zstm_server::server::{ServerConfig, ServerHandle};

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut wire = (payload.len() as u32).to_be_bytes().to_vec();
    wire.extend_from_slice(payload);
    wire
}

#[test]
fn corpus_zero_args_is_no_args() {
    assert_eq!(parse_request(&frame(&[0, 0])), Err(FrameError::NoArgs));
}

#[test]
fn corpus_payload_shorter_than_argc_is_no_args() {
    assert_eq!(parse_request(&frame(&[7])), Err(FrameError::NoArgs));
    assert_eq!(parse_request(&frame(&[])), Err(FrameError::NoArgs));
}

#[test]
fn corpus_too_many_args() {
    let argc = (MAX_ARGS + 1) as u16;
    assert_eq!(
        parse_request(&frame(&argc.to_be_bytes())),
        Err(FrameError::TooManyArgs(MAX_ARGS + 1))
    );
}

#[test]
fn corpus_arg_length_overruns_payload() {
    // argc 1, arg claims 100 bytes, only 2 present.
    let mut payload = vec![0, 1, 0, 0, 0, 100];
    payload.extend_from_slice(b"ab");
    assert_eq!(parse_request(&frame(&payload)), Err(FrameError::ArgOverrun));
}

#[test]
fn corpus_arg_header_truncated_inside_length() {
    // argc 2, first arg complete, second arg's length field cut short —
    // the *payload* is complete per its header, so this is an error, not
    // Incomplete.
    let payload = vec![0, 2, 0, 0, 0, 1, b'x', 0, 0];
    assert_eq!(parse_request(&frame(&payload)), Err(FrameError::ArgOverrun));
}

#[test]
fn corpus_trailing_bytes_after_last_arg() {
    let mut payload = vec![0, 1, 0, 0, 0, 1, b'x'];
    payload.extend_from_slice(&[0xde, 0xad]);
    assert_eq!(
        parse_request(&frame(&payload)),
        Err(FrameError::TrailingBytes(2))
    );
}

#[test]
fn corpus_oversized_length_header() {
    let wire = ((MAX_FRAME + 1) as u32).to_be_bytes();
    assert_eq!(
        parse_request(&wire),
        Err(FrameError::TooLarge(MAX_FRAME + 1))
    );
    assert_eq!(parse_reply(&wire), Err(FrameError::TooLarge(MAX_FRAME + 1)));
}

#[test]
fn corpus_max_length_header_exactly_at_cap_is_incomplete_not_error() {
    let wire = (MAX_FRAME as u32).to_be_bytes();
    assert_eq!(parse_request(&wire), Ok(Parsed::Incomplete));
}

#[test]
fn corpus_truncated_header_is_incomplete() {
    for len in 0..4 {
        assert_eq!(parse_request(&[0u8; 4][..len]), Ok(Parsed::Incomplete));
    }
}

#[test]
fn corpus_reply_bad_tag() {
    assert_eq!(parse_reply(&frame(b"?x")), Err(FrameError::BadReplyTag));
    assert_eq!(parse_reply(&frame(b"")), Err(FrameError::BadReplyTag));
}

#[test]
fn corpus_reply_bad_integer() {
    assert_eq!(parse_reply(&frame(b":12a")), Err(FrameError::BadInteger));
    assert_eq!(parse_reply(&frame(b":")), Err(FrameError::BadInteger));
}

#[test]
fn corpus_reply_nil_with_body_is_error() {
    assert_eq!(
        parse_reply(&frame(b"_x")),
        Err(FrameError::TrailingBytes(1))
    );
}

#[test]
fn corpus_reply_multi_count_overrun() {
    // '*' claiming 3 elements with no element data.
    let mut payload = vec![b'*'];
    payload.extend_from_slice(&3u32.to_be_bytes());
    assert_eq!(parse_reply(&frame(&payload)), Err(FrameError::ArgOverrun));
}

/// The server's reaction to a poisoned stream: one `-ERR protocol:`
/// reply, then the connection is closed — and a key written before the
/// poison is still intact for the next (healthy) connection.
#[test]
fn server_closes_poisoned_connection_without_losing_state() {
    let server =
        ServerHandle::spawn("127.0.0.1:0", &ServerConfig::new("tl2")).expect("spawn server");

    let mut victim = Client::connect(server.addr()).expect("connect");
    victim
        .set(b"survivor", b"intact")
        .expect("SET before poison");
    // Zero-argc request: fatal framing error.
    victim.send_raw(&frame(&[0, 0])).expect("send poison");
    match victim.read_reply() {
        Ok(reply) => {
            let err = format!("{reply:?}");
            assert!(
                err.contains("protocol"),
                "expected a protocol error reply, got {err}"
            );
        }
        Err(_) => {
            // Best-effort reply: the server may also just close.
        }
    }
    // Whatever came back, the stream must now be closed.
    victim.set_timeout(Some(Duration::from_secs(5))).ok();
    let mut rest = Vec::new();
    let eof = victim
        .into_stream()
        .read_to_end(&mut rest)
        .map(|_| true)
        .unwrap_or(false);
    assert!(eof, "the server must close a poisoned connection");

    let mut fresh = Client::connect(server.addr()).expect("reconnect");
    assert_eq!(
        fresh.get(b"survivor").expect("GET after poison"),
        Some(b"intact".to_vec()),
        "a framing error on one connection must not disturb the store"
    );
    server.shutdown();
}

/// A framing error behind good frames in the same write: the good frames
/// keep their replies (gathered, then flushed), the `-ERR protocol:`
/// follows them, and then the connection closes.
#[test]
fn framing_error_after_good_frames_still_delivers_their_replies() {
    let server =
        ServerHandle::spawn("127.0.0.1:0", &ServerConfig::new("lsa")).expect("spawn server");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.set_timeout(Some(Duration::from_secs(5))).ok();

    let mut batch = zstm_server::frame::encode_request(&[b"SET", b"k", b"v"]);
    batch.extend(zstm_server::frame::encode_request(&[b"GET", b"k"]));
    batch.extend(frame(&[0, 0])); // zero-argc: fatal
    batch.extend(zstm_server::frame::encode_request(&[b"PING"])); // never looked at
    client.send_raw(&batch).expect("send the batch");

    use zstm_server::frame::Reply;
    assert_eq!(client.read_reply().expect("SET reply"), Reply::status("OK"));
    assert_eq!(
        client.read_reply().expect("GET reply"),
        Reply::Value(b"v".to_vec())
    );
    match client
        .read_reply()
        .expect("the protocol error is delivered")
    {
        Reply::Error(text) => assert!(text.starts_with("ERR protocol:"), "got {text}"),
        other => panic!("expected the protocol error, got {other:?}"),
    }
    assert!(
        client.read_reply().is_err(),
        "nothing after the protocol error: the connection is closed"
    );
    server.shutdown();
}
