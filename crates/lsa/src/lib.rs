//! LSA-STM — the multi-version Lazy Snapshot Algorithm (the paper's
//! baseline time-based STM, from its reference \[8\]), plus the two
//! layers Z-STM reuses: the versioned-object [`engine`] and the
//! [`snapshot`] transaction over it — `OpenLSA` and `CommitLSA`, which
//! [`LsaTx`] runs as they are and Z-STM's short transactions call after
//! their zone check.
//!
//! See [`LsaStm`] for the algorithm description and examples, and
//! `ARCHITECTURE.md` at the workspace root for how this crate maps onto the
//! paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod snapshot;
mod stm;

pub use engine::HistoryGap;
pub use stm::{LsaStm, LsaThread, LsaTx, LsaVar};
