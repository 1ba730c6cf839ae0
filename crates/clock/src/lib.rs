//! Time bases for time-based transactional memories (TBTMs).
//!
//! Section 2 of the paper surveys the design space of *global time bases*
//! that TBTMs reason with, and Section 4 extends it towards causality
//! tracking. Each engine of this workspace names exactly one of them:
//!
//! * [`ScalarClock`] — the classic shared integer counter, a *linearizable
//!   scalar* notion of time behind the [`TimeBase`] trait (read the current
//!   time, acquire a fresh, globally unique commit stamp). LSA, TL2 and
//!   Z-STM's underlying LSA hold one.
//! * [`RevClock`] — *partially ordered* time built from per-thread
//!   components: the r-entry vector ("REV") plausible clock of
//!   Torres-Rojas & Ahamad that the paper adopts in Section 4.3, with the
//!   modulo-r mapping from threads to entries. CS-STM and S-STM hold one,
//!   and the choice between exact and plausible time is a value:
//!   * `RevClock::vector(n)` (r = n) is a classical Fidge/Mattern vector
//!     clock: causality is characterized exactly;
//!   * `RevClock::new(n, r)` with `r < n` shares entries and may order
//!     concurrent events (plausibility), trading accuracy for size;
//!   * `r = 1` degenerates to a single shared counter, i.e. a Lamport-style
//!     scalar logical clock and thus exactly the single-clock TBTM.
//!
//! [`ShardedClock`] — per-shard epoch counters with one global bound — is
//! the second [`TimeBase`]. No engine takes it; the benchmark's cost ladder
//! times its stamp beside the scalar counter's. The paper's third option,
//! synchronized real-time clocks with bounded deviation (its reference
//! \[9\]), is not reproduced.
//!
//! Timestamp comparison returns a [`ClockOrd`], the four-valued outcome of
//! the vector-timestamp rules (1)–(3) in Section 4.
//!
//! # Examples
//!
//! ```
//! use zstm_clock::{ClockOrd, RevClock, ScalarClock, TimeBase};
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
pub use traits::TimeBase;
