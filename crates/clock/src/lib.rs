//! Time bases for time-based transactional memories (TBTMs).
//!
//! Section 2 of the paper surveys the design space of *global time bases*
//! that TBTMs reason with, and Section 4 extends it towards causality
//! tracking. This crate implements all of them behind two small traits:
//!
//! * [`TimeBase`] — a *linearizable scalar* notion of time: reading the
//!   current time and acquiring a fresh, globally unique commit stamp.
//!   Implementations:
//!   * [`ScalarClock`] — the classic shared integer counter (cheap, but
//!     contended; used by LSA, TL2 and Z-STM's underlying LSA),
//!   * [`ShardedClock`] — per-shard epoch counters with a cheap global
//!     bound: commit stamps are `(epoch, shard)` pairs packed into one
//!     `u64`, so the hot read-modify-write lands on a shard-private cache
//!     line while snapshot reads still see one global notion of time. It
//!     also implements [`CausalTimeBase`] with scalar stamps (a Lamport
//!     clock), so all five STMs accept it.
//!
//!   The paper's third option, synchronized real-time clocks with bounded
//!   deviation (its reference \[9\]), is not reproduced.
//! * [`CausalTimeBase`] — *partially ordered* time built from per-thread
//!   components. The single implementation is [`RevClock`], the r-entry
//!   vector ("REV") plausible clock of Torres-Rojas & Ahamad that the paper
//!   adopts in Section 4.3, with the modulo-r mapping from threads to
//!   entries:
//!   * `RevClock::vector(n)` (r = n) is a classical Fidge/Mattern vector
//!     clock: causality is characterized exactly;
//!   * `RevClock::new(n, r)` with `r < n` shares entries and may order
//!     concurrent events (plausibility), trading accuracy for size;
//!   * `r = 1` degenerates to a single shared counter, i.e. a Lamport-style
//!     scalar logical clock and thus exactly the single-clock TBTM.
//!
//! Timestamp comparison returns a [`ClockOrd`], the four-valued outcome of
//! the vector-timestamp rules (1)–(3) in Section 4.
//!
//! # Examples
//!
//! ```
//! use zstm_clock::{CausalStamp, CausalTimeBase, ClockOrd, RevClock, ScalarClock, TimeBase};
//!
//! // Scalar time base: commit stamps are unique and increasing.
//! let clock = ScalarClock::new();
//! let t1 = clock.commit_stamp(0);
//! let t2 = clock.commit_stamp(1);
//! assert!(t2 > t1);
//!
//! // Vector time base: independent threads are concurrent.
//! let vc = RevClock::vector(2);
//! let mut a = vc.zero();
//! let mut b = vc.zero();
//! vc.advance(0, &mut a);
//! vc.advance(1, &mut b);
//! assert_eq!(a.causal_cmp(&b), ClockOrd::Concurrent);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod order;
mod rev;
mod scalar;
mod sharded;
mod traits;

pub use order::ClockOrd;
pub use rev::{RevClock, RevStamp};
pub use scalar::ScalarClock;
pub use sharded::ShardedClock;
pub use traits::{CausalStamp, CausalTimeBase, TimeBase};
