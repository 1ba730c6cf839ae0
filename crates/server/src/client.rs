//! A blocking scripted client: what the examples, the workload harness
//! and the end-to-end tests speak through.
//!
//! Every method maps onto one row of PROTOCOL.md's command table: one
//! request in, one reply out. The exception is
//! [`pipeline`](Client::pipeline) and, built on it,
//! [`multi_exec`](Client::multi_exec): `MULTI`, the body and `EXEC` leave
//! in one write and their replies are read back together, so a
//! transaction costs one round trip, not one per command. Use
//! [`frame::encode_request`](crate::frame::encode_request) with
//! [`send_raw`](Client::send_raw) for malformed-input tests.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::command::MAX_MULTI;
use crate::frame::{encode_request, encode_request_into, parse_reply, FrameError, Parsed, Reply};

/// Default I/O timeout for a fresh [`Client`]: long enough for any
/// legitimate reply in the test and harness suites, short enough that a
/// wedged server turns a hung harness into an error. Raise it per
/// connection with [`Client::set_timeout`] (e.g. for long `WAIT`s).
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// A connected client.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connects to a server. Reads and writes both start bounded by
    /// [`DEFAULT_TIMEOUT`] so a wedged server or a full send buffer
    /// surfaces as an error instead of hanging the harness forever.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(DEFAULT_TIMEOUT))?;
        stream.set_write_timeout(Some(DEFAULT_TIMEOUT))?;
        Ok(Client {
            stream,
            buf: Vec::new(),
        })
    }

    /// Bounds every subsequent reply wait *and* request write (useful in
    /// tests that expect the server to drop the connection instead of
    /// replying; `None` removes the default bound entirely).
    ///
    /// # Errors
    ///
    /// Propagates the socket-option failure.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }

    /// Sends one request and reads one reply.
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] when the connection dies or the server
    /// sends bytes that do not decode as a reply frame.
    pub fn request(&mut self, args: &[&[u8]]) -> io::Result<Reply> {
        self.stream.write_all(&encode_request(args))?;
        self.read_reply()
    }

    /// Reads one reply without sending anything (for raw-bytes tests that
    /// wrote via [`send_raw`](Client::send_raw)).
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] on connection loss or a malformed reply.
    pub fn read_reply(&mut self) -> io::Result<Reply> {
        read_reply(&mut self.stream, &mut self.buf)
    }

    /// Consumes the client, returning the raw stream — for tests that
    /// need to observe the server closing the connection (any bytes
    /// still buffered client-side are discarded).
    pub fn into_stream(self) -> TcpStream {
        self.stream
    }

    /// Writes raw bytes with no framing — the malformed-input tests'
    /// entry point.
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// `PING` → expects `PONG`.
    ///
    /// # Errors
    ///
    /// I/O errors, or [`io::ErrorKind::InvalidData`] on a non-`PONG`
    /// reply.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.request(&[b"PING"])? {
            Reply::Status(s) if s == "PONG" => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// `GET key` → `Some(bytes)` or `None` for a missing key.
    ///
    /// # Errors
    ///
    /// I/O errors, or [`io::ErrorKind::InvalidData`] on an error reply.
    pub fn get(&mut self, key: &[u8]) -> io::Result<Option<Vec<u8>>> {
        match self.request(&[b"GET", key])? {
            Reply::Value(bytes) => Ok(Some(bytes)),
            Reply::Nil => Ok(None),
            other => Err(unexpected(&other)),
        }
    }

    /// `SET key value`.
    ///
    /// # Errors
    ///
    /// I/O errors, or [`io::ErrorKind::InvalidData`] on an error reply.
    pub fn set(&mut self, key: &[u8], value: &[u8]) -> io::Result<()> {
        match self.request(&[b"SET", key, value])? {
            Reply::Status(s) if s == "OK" => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// `CAS key expected new` → whether the swap happened.
    ///
    /// # Errors
    ///
    /// I/O errors, or [`io::ErrorKind::InvalidData`] on an error reply.
    pub fn cas(&mut self, key: &[u8], expected: &[u8], new: &[u8]) -> io::Result<bool> {
        match self.request(&[b"CAS", key, expected, new])? {
            Reply::Int(1) => Ok(true),
            Reply::Int(0) => Ok(false),
            other => Err(unexpected(&other)),
        }
    }

    /// `ADD key delta` → the post-add value.
    ///
    /// # Errors
    ///
    /// I/O errors, or [`io::ErrorKind::InvalidData`] on an error reply.
    pub fn add(&mut self, key: &[u8], delta: i64) -> io::Result<i64> {
        match self.request(&[b"ADD", key, delta.to_string().as_bytes()])? {
            Reply::Int(value) => Ok(value),
            other => Err(unexpected(&other)),
        }
    }

    /// Sends `requests` as **one write** (a pipelined batch, PROTOCOL.md
    /// §2) and reads their replies back: one per request, in order.
    ///
    /// The result is shorter than `requests` only when the server hung up
    /// after an error reply — its goodbye (the accept-time `BUSY` shed, a
    /// protocol error), which is then the last element and better quoted
    /// than reported as EOF.
    ///
    /// # Errors
    ///
    /// I/O errors, including a connection that ends on anything but an
    /// error reply.
    pub fn pipeline(&mut self, requests: &[&[&[u8]]]) -> io::Result<Vec<Reply>> {
        let mut batch = Vec::new();
        for request in requests {
            encode_request_into(&mut batch, request);
        }
        self.exchange(&batch, requests.len())
    }

    /// Writes an encoded batch of `requests` frames once and reads their
    /// replies: what [`pipeline`](Client::pipeline) documents.
    fn exchange(&mut self, batch: &[u8], requests: usize) -> io::Result<Vec<Reply>> {
        self.stream.write_all(batch)?;
        let mut replies = Vec::with_capacity(requests);
        while replies.len() < requests {
            match self.read_reply() {
                Ok(reply) => replies.push(reply),
                Err(_) if matches!(replies.last(), Some(Reply::Error(_))) => break,
                Err(error) => return Err(error),
            }
        }
        Ok(replies)
    }

    /// `MULTI`, the queued commands, `EXEC` — one atomic transaction,
    /// sent as one batch the way [`pipeline`](Client::pipeline) sends one
    /// and answered by `commands.len() + 2` replies. Returns the
    /// per-command replies in queue order.
    ///
    /// All the replies are read even when one of them is bad, so an
    /// `InvalidData` error leaves the connection in sync and outside
    /// `MULTI` (a rejected command poisons its block, §4.6: the `EXEC`
    /// that follows runs nothing).
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] for more than [`MAX_MULTI`]
    /// commands, before anything is sent (the server would refuse the body
    /// anyway, and the bound keeps the replies of a rejected batch well
    /// inside the socket buffers, so the one write cannot deadlock against
    /// them); I/O errors; or [`io::ErrorKind::InvalidData`] carrying the
    /// first reply that was not the expected `OK`/`QUEUED`/`*`.
    pub fn multi_exec(&mut self, commands: &[Vec<Vec<u8>>]) -> io::Result<Vec<Reply>> {
        if commands.len() > MAX_MULTI {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "MULTI body of {} commands exceeds {MAX_MULTI}",
                    commands.len()
                ),
            ));
        }
        let mut batch = Vec::new();
        encode_request_into(&mut batch, &[b"MULTI"]);
        for command in commands {
            encode_request_into(&mut batch, command);
        }
        encode_request_into(&mut batch, &[b"EXEC"]);
        let mut replies = self.exchange(&batch, commands.len() + 2)?;
        let expected = std::iter::once("OK").chain(commands.iter().map(|_| "QUEUED"));
        if let Some((rejected, _)) = replies
            .iter()
            .zip(expected)
            .find(|(reply, status)| !matches!(reply, Reply::Status(s) if s == status))
        {
            return Err(unexpected(rejected));
        }
        // Every queueing step was acknowledged, so the batch is whole (a
        // short one ends in an error reply) and its last reply is EXEC's.
        match replies.pop().expect("MULTI and EXEC are always sent") {
            Reply::Multi(executed) => Ok(executed),
            other => Err(unexpected(&other)),
        }
    }

    /// `WAIT key expected` — blocks (server-side, in a parked
    /// transaction) until the key holds `expected`.
    ///
    /// # Errors
    ///
    /// I/O errors, or [`io::ErrorKind::InvalidData`] on an error reply
    /// (e.g. the server shut down while this client waited).
    pub fn wait(&mut self, key: &[u8], expected: &[u8]) -> io::Result<()> {
        match self.request(&[b"WAIT", key, expected])? {
            Reply::Status(s) if s == "OK" => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// `WAIT key expected deadline-ms` — like [`Client::wait`] but bounded
    /// server-side: returns the raw reply so callers can distinguish `OK`
    /// (the condition held in time) from the `TIMEOUT ...` error frame
    /// (the deadline passed first).
    ///
    /// # Errors
    ///
    /// I/O errors only; protocol-level `TIMEOUT` comes back as
    /// [`Reply::Error`].
    pub fn wait_deadline(
        &mut self,
        key: &[u8],
        expected: &[u8],
        deadline_ms: u64,
    ) -> io::Result<Reply> {
        self.request(&[b"WAIT", key, expected, deadline_ms.to_string().as_bytes()])
    }
}

fn unexpected(reply: &Reply) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected reply: {reply:?}"),
    )
}

fn frame_to_io(error: FrameError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, error)
}

/// Reads from `stream` until `buf` holds a whole reply frame, and takes it
/// out. A read that a signal interrupted is made again: a socket read
/// under a receive timeout (`SO_RCVTIMEO`, which [`Client::connect`] sets)
/// fails with `EINTR` even when the handler was installed with
/// `SA_RESTART`.
fn read_reply(stream: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<Reply> {
    let mut chunk = [0u8; 4096];
    loop {
        match parse_reply(buf) {
            Ok(Parsed::Complete(reply, consumed)) => {
                buf.drain(..consumed);
                return Ok(reply);
            }
            Ok(Parsed::Incomplete) => {}
            Err(error) => return Err(frame_to_io(error)),
        }
        let n = match stream.read(&mut chunk) {
            Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
            read => read?,
        };
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fails its first read with `Interrupted`, as a read under a receive
    /// timeout does when a signal lands, then reads `input`.
    struct InterruptedOnce {
        interrupted: bool,
        input: io::Cursor<Vec<u8>>,
    }

    impl Read for InterruptedOnce {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !std::mem::replace(&mut self.interrupted, true) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            self.input.read(buf)
        }
    }

    #[test]
    fn a_read_a_signal_interrupted_is_made_again() {
        let mut stream = InterruptedOnce {
            interrupted: false,
            input: io::Cursor::new(Reply::status("PONG").encode_frame()),
        };
        let reply = read_reply(&mut stream, &mut Vec::new()).expect("the reply");
        assert_eq!(reply, Reply::status("PONG"));
    }
}
