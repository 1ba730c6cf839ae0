//! Low-level concurrency utilities shared by every `zstm` crate.
//!
//! This crate deliberately has no dependencies: it provides the tiny
//! primitives — cache-line padding, bounded exponential backoff, a fast
//! deterministic PRNG, the lock-free [`ArcCell`]/[`Guarded`]/[`ArcSlots`]
//! publication cells with their epoch [`Pin`]s, the variable handles
//! ([`Shared`]) that an attempt holds uncounted ([`Held`]), and the
//! `Weak`-less [`Arc`](std::sync::Arc) ([`Strong`]) whose [`unique_mut`] is
//! `Arc::get_mut` without a compare-and-swap — that the
//! time bases, the STM runtimes and the benchmark harness all build on.
//!
//! # Examples
//!
//! ```
//! use zstm_util::{Backoff, CachePadded, XorShift64};
//!
//! let counter = CachePadded::new(std::sync::atomic::AtomicU64::new(0));
//! counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
//!
//! let mut rng = XorShift64::new(42);
//! let _die = rng.next_range(6);
//!
//! let mut backoff = Backoff::new();
//! backoff.spin(); // first conflict: spin briefly
//! ```

// `unsafe` is denied (not forbidden) crate-wide: the `arc_cell` module
// alone opts back in — a lock-free `Arc` cell cannot be built without raw
// refcount surgery — and documents the safety argument for every block.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod arc_cell;
mod backoff;
mod deadline;
pub mod exec;
mod pad;
mod rng;
pub mod sync;
mod window;

#[doc(hidden)]
pub use arc_cell::{limbo_len, pin_depth, scanned_prefix};
pub use arc_cell::{
    pin, unique_mut, ArcCell, ArcSlots, Guard, Guarded, Held, Pin, Retired, Shared, Strong,
};
pub use backoff::Backoff;
pub use deadline::run_with_deadline;
pub use pad::CachePadded;
pub use rng::XorShift64;
pub use window::{run_window, Window};
