//! The four closed-loop workloads. Each stresses a different layer of the
//! stack (see README.md for why each was chosen) and audits its own output.
//! Each keeps one thread runnable at a time, and its process is pinned to one
//! CPU (see `affinity.rs` for what that removes).

pub mod bank;
pub mod map;
pub mod queue;
pub mod server;

use zstm_core::TxStats;
use zstm_util::XorShift64;

use crate::harness::{WindowOut, Worker};

/// What a workload reports when it is torn down.
pub struct Finish {
    /// `Err` names the invariant the output broke.
    pub audit: Result<(), String>,
    /// Per-layer numbers only the workload can produce (probes, counters).
    pub layers: Vec<(&'static str, f64)>,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    type Worker: Worker;
    /// Everything `--seed` decides. Made once, before set-up is timed: it
    /// is the benchmark's work, not the system's.
    type Inputs;

    fn generate(seed: u64) -> Self::Inputs;

    /// Builds the system under test, seeds it and runs the fixed-count
    /// warm-up: everything up to the first timed operation. `smoke` divides
    /// the warm-up counts by 20.
    fn setup(inputs: &Self::Inputs, smoke: bool) -> Self;

    /// FNV-1a hash over the head of every seeded input stream, printed so
    /// that two runs can show they were fed the same operations.
    fn input_hash(&self) -> u64;

    fn workers(&mut self) -> &mut [Self::Worker];

    /// Takes the engine statistics gathered since the last call, or `None`
    /// where the engine is out of the benchmark's reach (behind the socket).
    fn take_stats(&mut self) -> Option<TxStats>;

    /// Stops the system and audits its output. `traced` is the traced
    /// window, when there was one, for the numbers derived from its spans.
    fn finish(self, traced: Option<&WindowOut>) -> Finish;
}

fn warm_up_count(full: u64, smoke: bool) -> u64 {
    if smoke {
        full / 20
    } else {
        full
    }
}

/// The generator for worker `stream` of a run seeded with `seed`.
fn stream_rng(seed: u64, workload: &str, stream: u64) -> XorShift64 {
    let mut root = XorShift64::new(seed ^ fnv1a(workload.as_bytes()));
    root.fork(stream)
}

/// Two different indices below `count`, the second drawn from the others so
/// that no draw is wasted on a pair of equals.
pub fn distinct_pair(rng: &mut XorShift64, count: usize) -> (usize, usize) {
    let from = rng.next_range(count as u64) as usize;
    let mut to = rng.next_range(count as u64 - 1) as usize;
    if to >= from {
        to += 1;
    }
    (from, to)
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Hashes the first 4 096 draws of each generator (cloned, so the streams
/// themselves are untouched).
fn hash_streams<'a>(rngs: impl Iterator<Item = &'a XorShift64>) -> u64 {
    let mut bytes = Vec::new();
    for rng in rngs {
        let mut rng = rng.clone();
        for _ in 0..4096 {
            bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
    }
    fnv1a(&bytes)
}
