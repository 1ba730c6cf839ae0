//! The wire-format codec: length-prefixed frames, argument-vector
//! requests, tagged replies.
//!
//! `PROTOCOL.md` at the repository root is the normative spec; this module
//! is its implementation. The shapes, briefly:
//!
//! * **Frame**: `u32` big-endian payload length, then that many payload
//!   bytes. The length covers the payload only, and is capped at
//!   [`MAX_FRAME`] — a frame header announcing more is a protocol error,
//!   not a huge allocation.
//! * **Request payload**: `u16` big-endian argument count (at least 1),
//!   then per argument a `u32` big-endian length and the raw bytes. The
//!   first argument is the ASCII command name.
//! * **Reply payload**: one tag byte, then tag-specific bytes — `+` status
//!   text, `-` error text, `$` a value's raw bytes, `_` nil (no body),
//!   `:` an ASCII signed decimal integer, `*` a `u32` count of
//!   length-prefixed *inner reply payloads* (the `EXEC` shape).
//!
//! The request parser is zero-copy: [`parse_request`] borrows the
//! argument slices straight out of the connection's read buffer, so the
//! hot path allocates only the small `Vec` of slice headers. Truncated
//! input is *not* an error — framing is explicit, so the parser can
//! always tell "need more bytes" ([`Parsed::Incomplete`]) apart from
//! "this can never become a valid frame" ([`FrameError`]).

use std::fmt;
use std::io::Write as _;

/// Hard cap on a frame's payload length, request or reply.
///
/// Anything larger is a [`FrameError::TooLarge`] protocol error. The cap
/// is what makes the parser safe to feed from untrusted sockets: the
/// length header is validated before any buffer is grown to fit it.
pub const MAX_FRAME: usize = 1 << 20;

/// Upper bound on arguments per request (`MULTI` bodies are queued
/// commands, not arguments, so real traffic stays tiny).
pub const MAX_ARGS: usize = 1 << 10;

/// Ways a byte stream can fail to be a frame. All are fatal for the
/// connection: framing has no resynchronization points.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The frame header announced a payload larger than [`MAX_FRAME`].
    TooLarge(usize),
    /// A request payload declared zero arguments.
    NoArgs,
    /// A request declared more than [`MAX_ARGS`] arguments.
    TooManyArgs(usize),
    /// An argument's declared length runs past the end of the payload.
    ArgOverrun,
    /// The payload has bytes left over after the declared arguments.
    TrailingBytes(usize),
    /// A reply payload was empty or its tag byte is unknown.
    BadReplyTag,
    /// A `:` reply body was not a valid ASCII `i64`.
    BadInteger,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLarge(n) => write!(f, "frame payload of {n} bytes exceeds MAX_FRAME"),
            FrameError::NoArgs => write!(f, "request declares zero arguments"),
            FrameError::TooManyArgs(n) => write!(f, "request declares {n} arguments"),
            FrameError::ArgOverrun => write!(f, "argument length overruns the payload"),
            FrameError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the last argument"),
            FrameError::BadReplyTag => write!(f, "empty reply or unknown reply tag"),
            FrameError::BadInteger => write!(f, "integer reply body is not an ASCII i64"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Outcome of a parse attempt over a (possibly still growing) buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Parsed<T> {
    /// A complete item, plus the total number of buffer bytes it consumed
    /// (header included) — the caller drains that prefix and parses again.
    Complete(T, usize),
    /// The buffer holds a valid prefix; read more bytes and retry.
    Incomplete,
}

/// A parsed request: the argument slices, borrowed from the read buffer.
/// `args[0]` is the command name (case-sensitive, ASCII uppercase on the
/// wire).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request<'a> {
    /// Argument byte-strings, in wire order.
    pub args: Vec<&'a [u8]>,
}

/// Parses one request frame from the front of `buf` without copying the
/// argument bytes.
///
/// # Errors
///
/// Returns a [`FrameError`] when the prefix can never become a valid
/// frame (oversized payload, zero or too many arguments, argument lengths
/// that disagree with the payload length). Errors are fatal: the caller
/// must drop the connection.
pub fn parse_request(buf: &[u8]) -> Result<Parsed<Request<'_>>, FrameError> {
    let Some((payload, consumed)) = frame_payload(buf)? else {
        return Ok(Parsed::Incomplete);
    };
    if payload.len() < 2 {
        return Err(FrameError::NoArgs);
    }
    let argc = u16::from_be_bytes([payload[0], payload[1]]) as usize;
    if argc == 0 {
        return Err(FrameError::NoArgs);
    }
    if argc > MAX_ARGS {
        return Err(FrameError::TooManyArgs(argc));
    }
    let mut args = Vec::with_capacity(argc);
    let mut at = 2usize;
    for _ in 0..argc {
        if payload.len() - at < 4 {
            return Err(FrameError::ArgOverrun);
        }
        let len = u32::from_be_bytes([
            payload[at],
            payload[at + 1],
            payload[at + 2],
            payload[at + 3],
        ]) as usize;
        at += 4;
        if payload.len() - at < len {
            return Err(FrameError::ArgOverrun);
        }
        args.push(&payload[at..at + len]);
        at += len;
    }
    if at != payload.len() {
        return Err(FrameError::TrailingBytes(payload.len() - at));
    }
    Ok(Parsed::Complete(Request { args }, consumed))
}

/// Splits a complete frame payload off the front of `buf`, validating the
/// length header. `Ok(None)` means the buffer is a valid-so-far prefix.
fn frame_payload(buf: &[u8]) -> Result<Option<(&[u8], usize)>, FrameError> {
    if buf.len() < 4 {
        // The length itself is still incomplete — but a partial header
        // already promising > MAX_FRAME is knowably hopeless only once
        // all four bytes are in, so wait.
        return Ok(None);
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    if buf.len() - 4 < len {
        return Ok(None);
    }
    Ok(Some((&buf[4..4 + len], 4 + len)))
}

/// Appends a request frame to `out` (the client side of
/// [`parse_request`]) — several requests appended to one buffer are a
/// pipelined batch.
///
/// # Panics
///
/// Panics if `args` is empty or the encoding would exceed the protocol
/// limits — client-side programming errors, not wire conditions.
pub fn encode_request_into<A: AsRef<[u8]>>(out: &mut Vec<u8>, args: &[A]) {
    assert!(!args.is_empty(), "a request needs at least a command name");
    assert!(args.len() <= MAX_ARGS, "too many arguments");
    let payload_len: usize = 2 + args.iter().map(|a| 4 + a.as_ref().len()).sum::<usize>();
    assert!(payload_len <= MAX_FRAME, "request exceeds MAX_FRAME");
    out.reserve(4 + payload_len);
    out.extend_from_slice(&(payload_len as u32).to_be_bytes());
    out.extend_from_slice(&(args.len() as u16).to_be_bytes());
    for arg in args {
        let arg = arg.as_ref();
        out.extend_from_slice(&(arg.len() as u32).to_be_bytes());
        out.extend_from_slice(arg);
    }
}

/// Encodes one request frame into a fresh buffer (see
/// [`encode_request_into`], including its panics).
pub fn encode_request(args: &[&[u8]]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_request_into(&mut out, args);
    out
}

/// A decoded reply. The server encodes these; the scripted client and the
/// tests decode them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// `+` — a status line, e.g. `OK`, `PONG`, `QUEUED`.
    Status(String),
    /// `-` — an error line, e.g. `ERR unknown command`.
    Error(String),
    /// `$` — a value's raw bytes.
    Value(Vec<u8>),
    /// `_` — the key does not exist.
    Nil,
    /// `:` — a signed integer (the `CAS` and `ADD` result shape).
    Int(i64),
    /// `*` — one inner reply per queued command (the `EXEC` shape).
    Multi(Vec<Reply>),
}

impl Reply {
    /// Convenience constructor for `+` replies.
    pub fn status(text: &str) -> Self {
        Reply::Status(text.to_string())
    }

    /// Convenience constructor for `-` replies.
    pub fn error(text: &str) -> Self {
        Reply::Error(text.to_string())
    }

    /// Appends the reply *payload* (no outer frame header) to `out` — the
    /// inner encoding `*` uses for its elements.
    fn encode_payload_into(&self, out: &mut Vec<u8>) {
        match self {
            Reply::Status(text) => {
                out.push(b'+');
                out.extend_from_slice(text.as_bytes());
            }
            Reply::Error(text) => {
                out.push(b'-');
                out.extend_from_slice(text.as_bytes());
            }
            Reply::Value(bytes) => {
                out.push(b'$');
                out.extend_from_slice(bytes);
            }
            Reply::Nil => out.push(b'_'),
            Reply::Int(value) => {
                out.push(b':');
                write!(out, "{value}").expect("writing to a Vec cannot fail");
            }
            Reply::Multi(elements) => {
                out.push(b'*');
                out.extend_from_slice(&(elements.len() as u32).to_be_bytes());
                for element in elements {
                    length_prefixed(out, |out| element.encode_payload_into(out));
                }
            }
        }
    }

    /// Appends the reply as a complete frame (header + payload) to `out`,
    /// so a connection can gather the replies of a pipelined batch into
    /// one buffer and one write.
    pub fn encode_frame_into(&self, out: &mut Vec<u8>) {
        length_prefixed(out, |out| self.encode_payload_into(out));
    }

    /// Encodes the reply as a complete frame (header + payload).
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_frame_into(&mut out);
        out
    }

    /// Decodes a reply payload (the body of a frame, or a `*` element).
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] on an unknown tag, malformed integer or
    /// overrunning `*` element lengths.
    pub fn decode_payload(payload: &[u8]) -> Result<Reply, FrameError> {
        let (&tag, body) = payload.split_first().ok_or(FrameError::BadReplyTag)?;
        match tag {
            b'+' => Ok(Reply::Status(String::from_utf8_lossy(body).into_owned())),
            b'-' => Ok(Reply::Error(String::from_utf8_lossy(body).into_owned())),
            b'$' => Ok(Reply::Value(body.to_vec())),
            b'_' => {
                if body.is_empty() {
                    Ok(Reply::Nil)
                } else {
                    Err(FrameError::TrailingBytes(body.len()))
                }
            }
            b':' => std::str::from_utf8(body)
                .ok()
                .and_then(|s| s.parse::<i64>().ok())
                .map(Reply::Int)
                .ok_or(FrameError::BadInteger),
            b'*' => {
                if body.len() < 4 {
                    return Err(FrameError::ArgOverrun);
                }
                let count = u32::from_be_bytes([body[0], body[1], body[2], body[3]]) as usize;
                if count > MAX_ARGS {
                    return Err(FrameError::TooManyArgs(count));
                }
                let mut elements = Vec::with_capacity(count);
                let mut at = 4usize;
                for _ in 0..count {
                    if body.len() - at < 4 {
                        return Err(FrameError::ArgOverrun);
                    }
                    let len =
                        u32::from_be_bytes([body[at], body[at + 1], body[at + 2], body[at + 3]])
                            as usize;
                    at += 4;
                    if body.len() - at < len {
                        return Err(FrameError::ArgOverrun);
                    }
                    elements.push(Reply::decode_payload(&body[at..at + len])?);
                    at += len;
                }
                if at != body.len() {
                    return Err(FrameError::TrailingBytes(body.len() - at));
                }
                Ok(Reply::Multi(elements))
            }
            _ => Err(FrameError::BadReplyTag),
        }
    }
}

/// Appends a `u32` big-endian length and then whatever `body` appends,
/// filling the length in afterwards — no intermediate buffer per level.
fn length_prefixed(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let header = out.len();
    out.extend_from_slice(&[0; 4]);
    body(out);
    let len = (out.len() - header - 4) as u32;
    out[header..header + 4].copy_from_slice(&len.to_be_bytes());
}

/// Parses one reply frame from the front of `buf` (the client side).
///
/// # Errors
///
/// Returns a [`FrameError`] on an oversized frame or a malformed payload.
pub fn parse_reply(buf: &[u8]) -> Result<Parsed<Reply>, FrameError> {
    let Some((payload, consumed)) = frame_payload(buf)? else {
        return Ok(Parsed::Incomplete);
    };
    Ok(Parsed::Complete(Reply::decode_payload(payload)?, consumed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let wire = encode_request(&[b"SET", b"alpha", b"\x00\x01value"]);
        let Parsed::Complete(request, consumed) = parse_request(&wire).unwrap() else {
            panic!("complete frame must parse");
        };
        assert_eq!(consumed, wire.len());
        assert_eq!(request.args, vec![&b"SET"[..], b"alpha", b"\x00\x01value"]);
    }

    #[test]
    fn every_strict_prefix_is_incomplete() {
        let wire = encode_request(&[b"GET", b"k"]);
        for cut in 0..wire.len() {
            assert_eq!(
                parse_request(&wire[..cut]).unwrap(),
                Parsed::Incomplete,
                "prefix of {cut} bytes"
            );
        }
    }

    #[test]
    fn oversized_header_is_rejected_before_buffering() {
        let mut wire = ((MAX_FRAME + 1) as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&[0; 8]);
        assert_eq!(
            parse_request(&wire),
            Err(FrameError::TooLarge(MAX_FRAME + 1))
        );
    }

    #[test]
    fn arg_lengths_must_match_the_payload() {
        // argc = 1, arg length claims 10 bytes but only 3 are present.
        let payload = [0u8, 1, 0, 0, 0, 10, b'a', b'b', b'c'];
        let mut wire = (payload.len() as u32).to_be_bytes().to_vec();
        wire.extend_from_slice(&payload);
        assert_eq!(parse_request(&wire), Err(FrameError::ArgOverrun));
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let mut wire = encode_request(&[b"PING"]);
        // Grow the declared payload length by one and append a stray byte.
        let len = u32::from_be_bytes([wire[0], wire[1], wire[2], wire[3]]) + 1;
        wire[..4].copy_from_slice(&len.to_be_bytes());
        wire.push(0xFF);
        assert_eq!(parse_request(&wire), Err(FrameError::TrailingBytes(1)));
    }

    #[test]
    fn replies_round_trip() {
        let replies = [
            Reply::status("OK"),
            Reply::error("ERR nope"),
            Reply::Value(vec![0, 1, 2, 255]),
            Reply::Nil,
            Reply::Int(-42),
            Reply::Multi(vec![Reply::Int(7), Reply::Nil, Reply::status("QUEUED")]),
        ];
        for reply in replies {
            let wire = reply.encode_frame();
            let Parsed::Complete(decoded, consumed) = parse_reply(&wire).unwrap() else {
                panic!("complete reply must parse");
            };
            assert_eq!(consumed, wire.len());
            assert_eq!(decoded, reply);
        }
    }

    #[test]
    fn two_pipelined_frames_parse_in_sequence() {
        let mut wire = encode_request(&[b"PING"]);
        let second = encode_request(&[b"GET", b"k"]);
        wire.extend_from_slice(&second);
        let Parsed::Complete(first, consumed) = parse_request(&wire).unwrap() else {
            panic!()
        };
        assert_eq!(first.args[0], b"PING");
        let Parsed::Complete(next, rest) = parse_request(&wire[consumed..]).unwrap() else {
            panic!()
        };
        assert_eq!(next.args[0], b"GET");
        assert_eq!(consumed + rest, wire.len());
    }
}
