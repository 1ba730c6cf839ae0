//! The transport abstraction: a [`Socket`] trait over byte streams, plus
//! the [`ChaosSocket`] fault-injection decorator.
//!
//! The server never names `TcpStream` past the accept loop — every
//! connection is a `Box<dyn Socket>`. That one indirection is what the
//! whole failure-handling test surface hangs off: wrap the same stream in
//! [`ChaosSocket`] and the connection experiences short reads, injected
//! latency and mid-stream disconnects, deterministically from a seed,
//! with zero changes to the protocol or server code under test.
//!
//! Faults are injected on the *server's* side of the connection, which is
//! the interesting side: a request half-read when the link dies must not
//! leave half a transaction behind, and a `MULTI` body queued before the
//! drop must never execute.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use zstm_util::XorShift64;

/// A bidirectional byte stream the server can serve a connection over.
///
/// Deliberately smaller than `Read + Write`: exactly the three operations
/// the connection loop performs, so a decorator has one choke point per
/// failure mode.
pub trait Socket: Send {
    /// Reads at most `buf.len()` bytes; `Ok(0)` is end-of-stream.
    ///
    /// # Errors
    ///
    /// Propagates transport errors; the connection loop treats any error
    /// as a dead peer.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;

    /// Writes the whole buffer.
    ///
    /// # Errors
    ///
    /// Propagates transport errors; the connection loop treats any error
    /// as a dead peer.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Closes both directions, unblocking any peer blocked in a read.
    fn shutdown(&mut self);

    /// Caps how long a [`read`](Socket::read) may block before failing
    /// with [`io::ErrorKind::WouldBlock`] / `TimedOut` (`None` blocks
    /// forever). The connection loop uses this as the **idle timeout**: a
    /// peer that sends nothing for this long is treated as dead.
    ///
    /// # Errors
    ///
    /// Propagates transport errors (e.g. a closed socket).
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()>;

    /// Caps how long a [`write_all`](Socket::write_all) may block on a
    /// full send buffer — the slow-consumer guard: a peer that stops
    /// reading its replies fails the write instead of wedging the
    /// connection thread.
    ///
    /// # Errors
    ///
    /// Propagates transport errors (e.g. a closed socket).
    fn set_write_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()>;
}

impl Socket for TcpStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        Read::read(self, buf)
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        Write::write_all(self, buf)
    }

    fn shutdown(&mut self) {
        let _ = TcpStream::shutdown(self, Shutdown::Both);
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }

    fn set_write_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_write_timeout(self, timeout)
    }
}

/// Deterministic fault plan for one [`ChaosSocket`].
///
/// All faults are drawn from a seeded [`XorShift64`], so a failing run is
/// replayable from its seed — the same convention as `zstm-sim`'s
/// schedule fuzzing.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// PRNG seed; every decorated connection forks its own stream from
    /// this.
    pub seed: u64,
    /// Cap reads at a uniformly drawn `1..=short_read_max` bytes
    /// (`0` disables). Exercises every resumption point of the frame
    /// parser: with a cap of 1, a frame arrives one byte per `read`.
    pub short_read_max: usize,
    /// Sleep this long before every read (zero disables) — models a slow
    /// link and gives the RPS figure a degraded series to gate against.
    pub read_delay: Duration,
    /// Per-operation probability, in permille, that the connection is
    /// torn down mid-stream (`0` disables). A triggered drop shuts the
    /// underlying socket and fails the operation with
    /// [`io::ErrorKind::ConnectionReset`].
    pub drop_permille: u16,
    /// Sleep this long before every write (zero disables) — a uniformly
    /// slow consumer, the write-side mirror of `read_delay`.
    pub write_delay: Duration,
    /// Per-write probability, in permille, of an additional
    /// [`write_stall`](Self::write_stall)-long pause (`0` disables) —
    /// a consumer that mostly keeps up but intermittently freezes, the
    /// shape that exercises write deadlines without slowing every reply.
    pub write_stall_permille: u16,
    /// How long a triggered write stall pauses (see
    /// [`write_stall_permille`](Self::write_stall_permille)).
    pub write_stall: Duration,
}

impl ChaosConfig {
    /// No faults at all — the identity decorator (useful as a base to
    /// override one knob in tests).
    pub fn quiet(seed: u64) -> Self {
        Self {
            seed,
            short_read_max: 0,
            read_delay: Duration::ZERO,
            drop_permille: 0,
            write_delay: Duration::ZERO,
            write_stall_permille: 0,
            write_stall: Duration::ZERO,
        }
    }

    /// The adversarial shape the chaos tests use: byte-at-a-time-ish
    /// reads and a real chance of dying mid-frame.
    pub fn hostile(seed: u64) -> Self {
        Self {
            seed,
            short_read_max: 3,
            read_delay: Duration::ZERO,
            drop_permille: 30,
            write_delay: Duration::ZERO,
            write_stall_permille: 20,
            write_stall: Duration::from_millis(1),
        }
    }
}

/// Fault-injecting [`Socket`] decorator (drop / delay / short read).
pub struct ChaosSocket<S: Socket> {
    inner: S,
    rng: XorShift64,
    config: ChaosConfig,
    dropped: bool,
}

impl<S: Socket> ChaosSocket<S> {
    /// Wraps `inner`, forking a per-connection PRNG stream from the
    /// config seed and `stream` (typically a connection counter, so
    /// concurrent connections fault independently but reproducibly).
    pub fn new(inner: S, config: ChaosConfig, stream: u64) -> Self {
        let mut base = XorShift64::new(config.seed);
        let rng = base.fork(stream);
        Self {
            inner,
            rng,
            config,
            dropped: false,
        }
    }

    /// Rolls the drop die; on a hit, kills the connection for good.
    fn maybe_drop(&mut self) -> io::Result<()> {
        if self.dropped {
            return Err(io::ErrorKind::ConnectionReset.into());
        }
        if self.config.drop_permille > 0
            && self.rng.next_range(1000) < u64::from(self.config.drop_permille)
        {
            self.dropped = true;
            self.inner.shutdown();
            return Err(io::ErrorKind::ConnectionReset.into());
        }
        Ok(())
    }
}

impl<S: Socket> Socket for ChaosSocket<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.maybe_drop()?;
        if !self.config.read_delay.is_zero() {
            std::thread::sleep(self.config.read_delay);
        }
        let cap = if self.config.short_read_max > 0 {
            (1 + self.rng.next_range(self.config.short_read_max as u64) as usize).min(buf.len())
        } else {
            buf.len()
        };
        self.inner.read(&mut buf[..cap])
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.maybe_drop()?;
        if !self.config.write_delay.is_zero() {
            std::thread::sleep(self.config.write_delay);
        }
        if self.config.write_stall_permille > 0
            && self.rng.next_range(1000) < u64::from(self.config.write_stall_permille)
        {
            std::thread::sleep(self.config.write_stall);
        }
        self.inner.write_all(buf)
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }

    fn set_write_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_write_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::{ChaosConfig, ChaosSocket, Socket};
    use std::io;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

    /// Both ends of one loopback TCP connection.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (server, client)
    }

    #[test]
    fn short_reads_chunk_the_stream() {
        let (a, mut b) = pair();
        let mut chaotic = ChaosSocket::new(
            a,
            ChaosConfig {
                short_read_max: 2,
                ..ChaosConfig::quiet(7)
            },
            0,
        );
        b.write_all(b"abcdefgh").unwrap();
        let mut got = Vec::new();
        let mut buf = [0u8; 64];
        while got.len() < 8 {
            let n = chaotic.read(&mut buf).unwrap();
            assert!((1..=2).contains(&n), "short reads must cap at 2, got {n}");
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got, b"abcdefgh");
    }

    #[test]
    fn write_delay_slows_the_producer_side() {
        let (a, mut b) = pair();
        let mut chaotic = ChaosSocket::new(
            a,
            ChaosConfig {
                write_delay: Duration::from_millis(20),
                ..ChaosConfig::quiet(3)
            },
            0,
        );
        let started = std::time::Instant::now();
        chaotic.write_all(b"x").unwrap();
        assert!(started.elapsed() >= Duration::from_millis(20));
        let mut buf = [0u8; 4];
        assert_eq!(b.read(&mut buf).unwrap(), 1);
    }

    #[test]
    fn write_stalls_fire_probabilistically_but_deterministically() {
        let elapsed_for = |seed| {
            let (a, _b) = pair();
            let mut chaotic = ChaosSocket::new(
                a,
                ChaosConfig {
                    write_stall_permille: 500,
                    write_stall: Duration::from_millis(5),
                    ..ChaosConfig::quiet(seed)
                },
                0,
            );
            let started = std::time::Instant::now();
            for _ in 0..64 {
                chaotic.write_all(b"y").unwrap();
            }
            started.elapsed()
        };
        // ~32 of 64 writes stall 5ms: well over 50ms in total.
        assert!(elapsed_for(9) >= Duration::from_millis(50));
    }

    #[test]
    fn drops_are_deterministic_and_permanent() {
        let run = |seed| {
            let (a, mut b) = pair();
            let mut chaotic = ChaosSocket::new(
                a,
                ChaosConfig {
                    drop_permille: 200,
                    ..ChaosConfig::quiet(seed)
                },
                1,
            );
            b.write_all(&[0u8; 4096]).unwrap();
            let mut ops = 0u32;
            let mut buf = [0u8; 8];
            loop {
                match chaotic.read(&mut buf) {
                    Ok(_) => ops += 1,
                    Err(e) => {
                        assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
                        // Once dropped, always dropped.
                        assert!(chaotic.read(&mut buf).is_err());
                        assert!(chaotic.write_all(b"x").is_err());
                        break ops;
                    }
                }
                assert!(ops < 10_000, "a 2% per-op drop must fire eventually");
            }
        };
        assert_eq!(run(42), run(42), "same seed, same fault point");
    }
}
