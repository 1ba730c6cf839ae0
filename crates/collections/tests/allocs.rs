//! Allocation counts of the read path, as upper bounds: after warm-up, on
//! one thread and LSA-STM, a transaction allocates nothing of its own — the
//! thread reuses its descriptor, and a promotion into a full version history
//! reuses the version it prunes — so a read allocates nothing at all (no
//! bucket copy, no key vector, no read-set buffer, no lease box) and a write
//! allocates only its payload. On Z-STM a long transaction pays nothing for
//! a thousand opens (it keeps nothing per open) nor for its write, and a
//! commit that wakes a waiter allocates nothing either. The
//! raw-SPI two-account transfer is pinned for all five engines: every one
//! keeps its read and write sets and its descriptor in the thread, so what
//! is left is the engine's own bookkeeping (TL2's buffered writes and
//! versions, the causal pair's stamps and versions, S-STM's graph). The
//! benchmark's cost ladder reports the same counts per transfer; this pins
//! them where tier-1 runs, in debug and (CI) release.
//!
//! Warm means every variable written has been written at least
//! `max_versions` times, so that its history is full.

use std::sync::Arc;
use std::task::{Wake, Waker};

use zstm_api::{DynStm, DynTx, Stm};
use zstm_collections::{Codec, TMap};
use zstm_core::{RetryPolicy, StmConfig, TmFactory, TmThread, TmTx, TxKind};
use zstm_cs::CsStm;
use zstm_lsa::LsaStm;
use zstm_sstm::SStm;
use zstm_tl2::Tl2Stm;
use zstm_z::ZStm;

include!("../../../tests/support/counting_allocator.rs");

const CALLS: u64 = 1_000;

/// Allocations per call of `op`, over [`CALLS`] calls after as many to
/// warm up (the lease, the scratch buffer, the read-set buffers and the
/// descriptor are allocated once per thread, a variable's history once per
/// variable; [`CALLS`] is far more writes than `max_versions`).
fn allocs_per_call(mut op: impl FnMut()) -> f64 {
    for _ in 0..CALLS {
        op();
    }
    let before = allocs();
    for _ in 0..CALLS {
        op();
    }
    (allocs() - before) as f64 / CALLS as f64
}

/// A 64-byte value, the size `map_zipf_lsa` stores.
#[derive(Clone, Debug, PartialEq)]
struct Val64([u8; 64]);

impl Codec for Val64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        Some(Val64(bytes.try_into().ok()?))
    }
}

const KEYS: u64 = 256;
/// Sixteen entries of 80 bytes to a bucket: 1 280 bytes, as in the
/// benchmark's map.
const BUCKETS: usize = 16;

fn seeded_map() -> (Arc<dyn DynStm>, TMap<u64, Val64>) {
    let stm: Arc<dyn DynStm> = Arc::new(Stm::new(LsaStm::new(StmConfig::new(1))));
    let map: TMap<u64, Val64> = TMap::new(&*stm, BUCKETS);
    for key in 0..KEYS {
        stm.atomically(TxKind::Short, &RetryPolicy::unbounded(), |tx| {
            map.insert(tx, &key, &Val64([key as u8; 64]))
        })
        .expect("seeding commits");
    }
    (stm, map)
}

#[test]
fn a_map_get_allocates_nothing() {
    let (stm, map) = seeded_map();
    let policy = RetryPolicy::unbounded();
    let mut key = 0;
    let per_get = allocs_per_call(|| {
        key = (key + 7) % KEYS;
        let found = stm
            .atomically(TxKind::Short, &policy, |tx| map.get(tx, &key))
            .expect("commits");
        assert_eq!(found, Some(Val64([key as u8; 64])));
    });
    assert!(per_get <= 0.0, "{per_get} allocations per TMap::get");
}

#[test]
fn a_replacing_insert_allocates_only_its_payload() {
    let (stm, map) = seeded_map();
    let policy = RetryPolicy::unbounded();
    let mut key = 0;
    let per_insert = allocs_per_call(|| {
        key = (key + 7) % KEYS;
        let previous = stm
            .atomically(TxKind::Short, &policy, |tx| {
                map.insert(tx, &key, &Val64([key as u8; 64]))
            })
            .expect("commits");
        assert!(previous.is_some(), "every key was seeded");
    });
    assert!(per_insert <= 1.0, "{per_insert} allocations per insert");
}

#[test]
fn an_empty_typed_transaction_allocates_nothing() {
    let stm = Stm::new(LsaStm::new(StmConfig::new(1)));
    let per_block = allocs_per_call(|| stm.atomically(TxKind::Short, |_tx| Ok(())));
    assert!(per_block <= 0.0, "{per_block} allocations per atomically");
}

/// A waker that does nothing when woken.
struct Ignored;

impl Wake for Ignored {
    fn wake(self: Arc<Self>) {}
}

#[test]
fn a_commit_that_wakes_a_waiter_allocates_nothing() {
    let stm = Stm::new(LsaStm::new(StmConfig::new(1)));
    let var = stm.new_tvar(0i64);
    let waker = Waker::from(Arc::new(Ignored));
    let notifier = stm.notifier();
    let per_wake = allocs_per_call(|| {
        let registered = notifier.register_waker(notifier.epoch(), !0, &waker);
        assert!(registered.is_some(), "nothing committed since the epoch");
        stm.atomically(TxKind::Short, |tx| tx.modify(&var, |v| *v += 1));
        assert_eq!(notifier.registered_wakers(), 0, "the commit woke it");
    });
    assert!(per_wake <= 0.0, "{per_wake} allocations per waking commit");
}

/// Allocations per two-account transfer through the raw SPI (the ladder's
/// `core.spi_transfer_allocs`).
fn allocs_per_spi_transfer<F: TmFactory>(stm: F) -> f64 {
    let stm = Arc::new(stm);
    let (from, to) = (stm.new_var(1_000_000i64), stm.new_var(0i64));
    let mut thread = stm.register_thread();
    allocs_per_call(|| {
        let mut tx = thread.begin(TxKind::Short);
        let (a, b) = (tx.read(&from).expect("read"), tx.read(&to).expect("read"));
        tx.write(&from, a - 1).expect("write");
        tx.write(&to, b + 1).expect("write");
        tx.commit().expect("commit");
    })
}

#[test]
fn a_raw_transfer_allocates_no_read_or_write_set_on_any_engine() {
    let config = || StmConfig::new(1);
    let per_transfer = [
        ("lsa", allocs_per_spi_transfer(LsaStm::new(config())), 0.0),
        ("z", allocs_per_spi_transfer(ZStm::new(config())), 0.0),
        ("tl2", allocs_per_spi_transfer(Tl2Stm::new(config())), 4.0),
        (
            "cs",
            allocs_per_spi_transfer(CsStm::with_vector_clock(config())),
            9.0,
        ),
        (
            "sstm",
            allocs_per_spi_transfer(SStm::with_vector_clock(config())),
            16.0,
        ),
    ];
    for (engine, allocs, bound) in per_transfer {
        assert!(
            allocs <= bound,
            "{engine}: {allocs} allocations per transfer"
        );
    }
}

#[test]
fn a_shared_read_of_a_bucket_sized_variable_allocates_nothing() {
    let stm: Arc<dyn DynStm> = Arc::new(Stm::new(LsaStm::new(StmConfig::new(1))));
    let var = stm.new_bytes(vec![7; 1_280]);
    let policy = RetryPolicy::unbounded();
    let allocs_in_read = || {
        stm.atomically(TxKind::Short, &policy, |tx: &mut dyn DynTx| {
            let before = allocs();
            let len = tx.map_bytes(&var, <[u8]>::len)?;
            let during = allocs() - before;
            assert_eq!(len, 1_280);
            Ok(during)
        })
        .expect("commits")
    };
    // The thread's first read allocates the read-set buffer; no later one
    // allocates at all.
    allocs_in_read();
    let in_reads: u64 = (0..CALLS).map(|_| allocs_in_read()).sum();
    assert_eq!(in_reads, 0, "allocations inside {CALLS} lent reads");
}

#[test]
fn a_warm_long_transaction_allocates_nothing() {
    // `bank_z_long`'s Compute-Total: read every account, write the total.
    const ACCOUNTS: usize = 1_000;
    let stm: Arc<dyn DynStm> = Arc::new(Stm::new(ZStm::new(StmConfig::new(1))));
    let accounts: Vec<_> = (0..ACCOUNTS).map(|_| stm.new_i64(10)).collect();
    let total = stm.new_i64(0);
    let policy = RetryPolicy::unbounded();
    let compute_total = || {
        stm.atomically(TxKind::Long, &policy, |tx: &mut dyn DynTx| {
            let mut sum = 0;
            for account in &accounts {
                sum += tx.read_i64(account)?;
            }
            tx.write_i64(&total, sum)?;
            Ok(sum)
        })
        .expect("commits")
    };
    let transfer = || {
        stm.atomically(TxKind::Short, &policy, |tx: &mut dyn DynTx| {
            let from = tx.read_i64(&accounts[0])?;
            let to = tx.read_i64(&accounts[1])?;
            tx.write_i64(&accounts[0], from - 1)?;
            tx.write_i64(&accounts[1], to + 1)
        })
        .expect("commits")
    };
    let allocs_in = |op: &dyn Fn()| {
        let before = allocs();
        op();
        allocs() - before
    };
    // Warm up: the lease, the write-set buffer, and every written
    // variable's history filled.
    for _ in 0..StmConfig::DEFAULT_MAX_VERSIONS {
        transfer();
        assert_eq!(compute_total(), 10 * ACCOUNTS as i64);
    }
    let short_before = allocs_in(&transfer);
    for _ in 0..8 {
        let long = allocs_in(&|| assert_eq!(compute_total(), 10 * ACCOUNTS as i64));
        assert_eq!(long, 0, "allocations in a warm long transaction");
    }
    // The long transactions leave the short path nothing to pay for.
    let short_after = allocs_in(&transfer);
    assert_eq!(short_before, 0, "allocations per transfer");
    assert_eq!(short_after, short_before, "a transfer after the long ones");
}
