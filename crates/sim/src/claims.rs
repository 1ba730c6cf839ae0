//! The paper's claims about *who commits*, as seeded schedules.
//!
//! A throughput sweep can illustrate "Z-STM sustains update Compute-Totals
//! where LSA-STM starves" but cannot pin it: the numbers move with the box.
//! A [`Schedule`] replayed by [`run_schedule`](crate::run_schedule) is the
//! same run in every build, so the commit and abort counts it leaves in
//! [`Outcome::stats`](crate::Outcome::stats) are exact integers.
//! `tests/paper_claims.rs` pins them for Figures 6 and 7 ([`bank`]), for
//! the plausible clocks of §4.3 and for the contention managers
//! ([`array()`]); the figures of `zstm_bench` that illustrate the last two
//! run the same [`Mix`]es.

use zstm_core::TxKind;
use zstm_util::XorShift64;

use crate::{Op, Schedule, TxScript};

/// The bank benchmark of §5.5 over `accounts` accounts, at a size the
/// paper uses (`accounts` = 1000) or smaller.
///
/// Thread 0 runs `totals` Compute-Totals, each a long transaction reading
/// every account — and, if `update`, writing the sum to object `accounts`
/// (Figure 7's update Compute-Total; Figure 6's is read-only) — followed by
/// four transfers. Every other thread runs transfers only, as many steps
/// of them as thread 0 has. A transfer is
/// `Short[R(a), R(b), W(a), W(b)]` over two distinct random accounts, and
/// the interleaving is fair: a seeded shuffle of every step.
///
/// # Panics
///
/// If `accounts < 2`.
pub fn bank(accounts: usize, totals: usize, threads: usize, update: bool, seed: u64) -> Schedule {
    let mut rng = XorShift64::new(seed);
    let mut transfer = || {
        let a = rng.next_range(accounts as u64) as usize;
        let b = (a + 1 + rng.next_range(accounts as u64 - 1) as usize) % accounts;
        short(vec![Op::Read(a), Op::Read(b), Op::Write(a), Op::Write(b)])
    };
    let mut total: Vec<Op> = (0..accounts).map(Op::Read).collect();
    if update {
        total.push(Op::Write(accounts));
    }
    let mut mixed = Vec::new();
    for _ in 0..totals {
        mixed.push(TxScript {
            kind: TxKind::Long,
            ops: total.clone(),
        });
        mixed.extend((0..4).map(|_| transfer()));
    }
    let steps: usize = mixed.iter().map(|tx| tx.ops.len() + 1).sum();
    let mut scripts = vec![mixed];
    for _ in 1..threads {
        // A transfer takes five steps: four operations and its commit.
        scripts.push((0..steps / 5).map(|_| transfer()).collect());
    }
    fair(accounts + 1, scripts, &mut rng)
}

/// `(objects, accesses per transaction, write %)` of a random-array mix.
pub type Mix = (usize, usize, u8);

/// §4.3's mix: mostly reads, so a read that a plausible clock orders
/// after a concurrent write is common, and false orderings show.
pub const PLAUSIBLE_MIX: Mix = (32, 6, 20);

/// The contention managers' mix: mostly writes over few objects, so
/// write/write conflicts are common.
pub const CONTENTION_MIX: Mix = (16, 4, 80);

/// A random-array mix as a schedule: each of `threads` threads runs `txs`
/// short transactions of `tx_size` accesses to random objects among
/// `objects`, an access being a read, followed with probability
/// `write_pct` % by a write of the same object. The interleaving is fair:
/// a seeded shuffle of every step.
pub fn array(
    (objects, tx_size, write_pct): Mix,
    threads: usize,
    txs: usize,
    seed: u64,
) -> Schedule {
    let mut rng = XorShift64::new(seed);
    let scripts = (0..threads)
        .map(|_| {
            (0..txs)
                .map(|_| {
                    let mut ops = Vec::with_capacity(2 * tx_size);
                    for _ in 0..tx_size {
                        let i = rng.next_range(objects as u64) as usize;
                        ops.push(Op::Read(i));
                        if rng.next_percent(write_pct) {
                            ops.push(Op::Write(i));
                        }
                    }
                    short(ops)
                })
                .collect()
        })
        .collect();
    fair(objects, scripts, &mut rng)
}

fn short(ops: Vec<Op>) -> TxScript {
    TxScript {
        kind: TxKind::Short,
        ops,
    }
}

/// The schedule of `threads` whose interleaving is a seeded shuffle of
/// every step every thread has: each thread advances at its share of the
/// whole run, and none finishes long before the others. (An aborted
/// attempt takes fewer steps than its script; the leftover entries of a
/// finished thread are skipped.)
fn fair(objects: usize, threads: Vec<Vec<TxScript>>, rng: &mut XorShift64) -> Schedule {
    let mut interleaving = Vec::new();
    for (t, scripts) in threads.iter().enumerate() {
        let steps = scripts.iter().map(|tx| tx.ops.len() + 1).sum();
        interleaving.extend(std::iter::repeat_n(t, steps));
    }
    for i in (1..interleaving.len()).rev() {
        let j = rng.next_range(i as u64 + 1) as usize;
        interleaving.swap(i, j);
    }
    Schedule {
        objects,
        threads,
        interleaving,
    }
}
